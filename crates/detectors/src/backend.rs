//! The baseline detectors' hooks ([`Detector`]) and their one
//! [`CheckBackend`], so one seeded execution can be replayed through
//! SharC's own engine, Eraser's locksets, or the vector-clock
//! detector and the verdicts compared directly
//! (`sharc run --detector sharc|eraser|vc`).
//!
//! [`BaselineBackend`] is the single home of the baselines' §6.2
//! policy: it keeps the held-lock log, and it is deliberately lossy
//! in one direction — baselines have no notion of sharing casts, so
//! [`CheckBackend::on_cast_clear`] is ignored and `oneref` always
//! passes. That is not a bug — it is the paper's §6.2 observation
//! reproduced as code: detectors without an ownership-transfer model
//! keep judging the object by its pre-transfer history and
//! false-positive on hand-off idioms that SharC accepts.

use sharc_checker::{CheckBackend, CheckKind, Conflict, Verdict};
use std::collections::HashMap;

/// A baseline race detector, as granule-level hooks over the
/// checker's `(tid, granule, lock)` vocabulary. [`BaselineBackend`]
/// drives it from [`sharc_checker::CheckEvent`]s.
pub trait Detector {
    /// The detector's name for reports.
    fn name(&self) -> &'static str;
    /// `tid` reads (`is_write = false`) or writes `granule`; true if
    /// the access races.
    fn access(&mut self, tid: u32, granule: usize, is_write: bool) -> bool;
    /// `tid` acquired `lock`.
    fn acquire(&mut self, tid: u32, lock: usize);
    /// `tid` released `lock`.
    fn release(&mut self, tid: u32, lock: usize);
    /// `parent` spawned `child`.
    fn fork(&mut self, parent: u32, child: u32);
    /// `parent` joined `child`.
    fn join(&mut self, parent: u32, child: u32);
    /// `granule` is (re)allocated: its detector state resets.
    fn alloc(&mut self, granule: usize);
}

/// Wraps a [`Detector`] (Eraser, `VcDetector`, …) as a
/// [`CheckBackend`]. The held-lock log needed by `lock_held` is
/// maintained here, since the baselines track locksets internally but
/// do not expose them.
#[derive(Debug)]
pub struct BaselineBackend<D: Detector> {
    detector: D,
    held: HashMap<u32, Vec<usize>>,
}

impl<D: Detector + Default> Default for BaselineBackend<D> {
    fn default() -> Self {
        Self::new(D::default())
    }
}

impl<D: Detector> BaselineBackend<D> {
    /// Wraps `detector`.
    pub fn new(detector: D) -> Self {
        BaselineBackend {
            detector,
            held: HashMap::new(),
        }
    }

    fn check(&mut self, kind: CheckKind, tid: u32, granule: usize) -> Verdict {
        if self.detector.access(tid, granule, kind == CheckKind::Write) {
            Verdict::Fail(Conflict { kind, tid, granule })
        } else {
            Verdict::Pass
        }
    }
}

impl<D: Detector> CheckBackend for BaselineBackend<D> {
    fn name(&self) -> &'static str {
        self.detector.name()
    }

    fn chkread(&mut self, tid: u32, granule: usize) -> Verdict {
        self.check(CheckKind::Read, tid, granule)
    }

    fn chkwrite(&mut self, tid: u32, granule: usize) -> Verdict {
        self.check(CheckKind::Write, tid, granule)
    }

    fn lock_held(&self, tid: u32, lock: usize) -> bool {
        self.held.get(&tid).is_some_and(|h| h.contains(&lock))
    }

    /// Baselines cannot check sharing casts; the cast is invisible to
    /// them (see the module docs).
    fn oneref(&mut self, _tid: u32, _granule: usize, _refs: u64) -> Verdict {
        Verdict::Pass
    }

    fn on_acquire(&mut self, tid: u32, lock: usize) {
        self.held.entry(tid).or_default().push(lock);
        self.detector.acquire(tid, lock);
    }

    fn on_release(&mut self, tid: u32, lock: usize) {
        if let Some(h) = self.held.get_mut(&tid) {
            if let Some(p) = h.iter().position(|&l| l == lock) {
                h.remove(p);
            }
        }
        self.detector.release(tid, lock);
    }

    fn on_fork(&mut self, parent: u32, child: u32) {
        self.detector.fork(parent, child);
    }

    fn on_join(&mut self, parent: u32, child: u32) {
        self.detector.join(parent, child);
    }

    fn on_thread_exit(&mut self, tid: u32) {
        // Baselines have no lifetime-based clearing; only the log
        // kept for `lock_held` is dropped.
        self.held.remove(&tid);
    }

    fn on_alloc(&mut self, granule: usize) {
        self.detector.alloc(granule);
    }

    // `on_cast_clear` intentionally keeps the default no-op: the
    // object's history survives the cast, which is exactly what
    // makes the baselines false-positive on ownership transfer.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Eraser, VcDetector};
    use sharc_checker::{replay, BitmapBackend, CheckEvent};

    /// The ownership-transfer idiom at CheckEvent granularity:
    /// thread 1 initializes a buffer, transfers it with a sharing
    /// cast, thread 2 uses it.
    fn handoff_trace() -> Vec<CheckEvent> {
        vec![
            CheckEvent::Fork {
                parent: 1,
                child: 2,
            },
            CheckEvent::Write { tid: 1, granule: 0 },
            CheckEvent::SharingCast {
                tid: 1,
                granule: 0,
                refs: 1,
            },
            CheckEvent::Write { tid: 2, granule: 0 },
        ]
    }

    #[test]
    fn sharc_accepts_handoff_baselines_flag_it() {
        let trace = handoff_trace();
        let sharc = replay(&trace, &mut BitmapBackend::new());
        assert!(sharc.is_empty(), "SharC models the transfer: {sharc:?}");
        let eraser = replay(&trace, &mut BaselineBackend::new(Eraser::new()));
        let vc = replay(&trace, &mut BaselineBackend::new(VcDetector::new()));
        assert!(!eraser.is_empty(), "Eraser misses the cast");
        assert!(!vc.is_empty(), "vector clocks miss the cast");
    }

    #[test]
    fn honest_race_everyone_agrees() {
        let trace = vec![
            CheckEvent::Fork {
                parent: 1,
                child: 2,
            },
            CheckEvent::Write { tid: 1, granule: 0 },
            CheckEvent::Write { tid: 2, granule: 0 },
        ];
        for conflicts in [
            replay(&trace, &mut BitmapBackend::new()),
            replay(&trace, &mut BaselineBackend::new(Eraser::new())),
            replay(&trace, &mut BaselineBackend::new(VcDetector::new())),
        ] {
            assert_eq!(conflicts.len(), 1, "{conflicts:?}");
        }
    }

    #[test]
    fn lock_held_log_is_maintained_by_adapter() {
        let mut b = BaselineBackend::new(Eraser::new());
        assert!(!b.lock_held(1, 7));
        b.on_acquire(1, 7);
        assert!(b.lock_held(1, 7));
        assert!(!b.lock_held(2, 7));
        b.on_release(1, 7);
        assert!(!b.lock_held(1, 7));
    }
}
