//! # sharc-detectors
//!
//! Baseline dynamic race detectors the SharC paper compares against
//! (§6): the Eraser lockset algorithm and a vector-clock
//! happens-before detector. Both judge the checker's own
//! [`sharc_checker::CheckEvent`] vocabulary through
//! [`BaselineBackend`], so one recorded execution is replayed by
//! SharC and the baselines alike; [`Online`] shards that backend
//! for real threads feeding it concurrently.
//!
//! The key qualitative reproduction: both baselines report *false
//! positives* on ownership-transfer idioms (see the test fixtures),
//! which SharC accepts by modelling the transfer directly with a
//! checked sharing cast.
//!
//! ## Example
//!
//! ```
//! use sharc_checker::{replay, CheckEvent};
//! use sharc_detectors::{BaselineBackend, Eraser, VcDetector};
//!
//! let trace = vec![
//!     CheckEvent::Fork { parent: 1, child: 2 },
//!     CheckEvent::Write { tid: 1, granule: 0 },
//!     CheckEvent::Write { tid: 2, granule: 0 },
//! ];
//! assert_eq!(replay(&trace, &mut BaselineBackend::new(Eraser::new())).len(), 1);
//! assert_eq!(replay(&trace, &mut BaselineBackend::new(VcDetector::new())).len(), 1);
//! ```

pub mod backend;
pub mod eraser;
pub mod online;
pub mod vectorclock;

pub use backend::{BaselineBackend, Detector};
pub use eraser::Eraser;
pub use online::Online;
pub use vectorclock::{VcDetector, VectorClock};

/// The classic test traces shared by the detector test suites.
#[cfg(test)]
pub mod fixtures {
    use sharc_checker::{replay, CheckEvent as E, Conflict};

    /// Replays `trace` through `detector` behind a [`crate::BaselineBackend`].
    pub fn run<D: crate::Detector>(detector: D, trace: &[E]) -> Vec<Conflict> {
        replay(trace, &mut crate::BaselineBackend::new(detector))
    }

    /// Two threads write granule 0 with no synchronization.
    pub fn unsynchronized_write_race() -> Vec<E> {
        vec![
            E::Fork {
                parent: 1,
                child: 2,
            },
            E::Write { tid: 1, granule: 0 },
            E::Write { tid: 2, granule: 0 },
        ]
    }

    /// Two threads increment granule 0 under the same lock.
    pub fn lock_protected() -> Vec<E> {
        vec![
            E::Fork {
                parent: 1,
                child: 2,
            },
            E::Acquire { tid: 1, lock: 9 },
            E::Read { tid: 1, granule: 0 },
            E::Write { tid: 1, granule: 0 },
            E::Release { tid: 1, lock: 9 },
            E::Acquire { tid: 2, lock: 9 },
            E::Read { tid: 2, granule: 0 },
            E::Write { tid: 2, granule: 0 },
            E::Release { tid: 2, lock: 9 },
        ]
    }

    /// Parent initializes, forks a child that reads — no race.
    pub fn init_then_share_readonly() -> Vec<E> {
        vec![
            E::Write { tid: 1, granule: 0 },
            E::Fork {
                parent: 1,
                child: 2,
            },
            E::Read { tid: 2, granule: 0 },
            E::Read { tid: 1, granule: 0 },
        ]
    }

    /// Ownership hand-off via fork/join, with accesses on both sides
    /// but never concurrently.
    pub fn fork_join_handoff() -> Vec<E> {
        vec![
            E::Write { tid: 1, granule: 0 },
            E::Fork {
                parent: 1,
                child: 2,
            },
            E::Write { tid: 2, granule: 0 },
            E::Join {
                parent: 1,
                child: 2,
            },
            E::Write { tid: 1, granule: 0 },
        ]
    }

    /// The producer/consumer idiom mediated by a condition-variable
    /// style lock hand-off, where *different* locks guard different
    /// phases — the pattern that makes pure lockset detectors report
    /// false positives while SharC's sharing casts accept it.
    pub fn lock_handoff_two_locks() -> Vec<E> {
        vec![
            E::Fork {
                parent: 1,
                child: 2,
            },
            // Producer writes under lock A, then hands off.
            E::Acquire { tid: 1, lock: 1 },
            E::Write { tid: 1, granule: 0 },
            E::Release { tid: 1, lock: 1 },
            // Consumer accesses under lock B (it now owns the data).
            E::Acquire { tid: 2, lock: 2 },
            E::Write { tid: 2, granule: 0 },
            E::Release { tid: 2, lock: 2 },
            // Producer refills the (returned) buffer under lock A:
            // the candidate lockset intersects to empty.
            E::Acquire { tid: 1, lock: 1 },
            E::Write { tid: 1, granule: 0 },
            E::Release { tid: 1, lock: 1 },
        ]
    }
}
