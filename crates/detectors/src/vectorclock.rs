//! A vector-clock happens-before race detector (DJIT+-style, the
//! basis of FastTrack), representing the "improvements to the lockset
//! algorithm \[that\] use Lamport's happens-before relation" discussed
//! in §6.2.
//!
//! Precise with respect to the observed trace: it reports a race iff
//! two accesses to the same location are unordered by program order,
//! lock release/acquire, or fork/join — so the hand-off idioms that
//! trip Eraser are accepted, at the price of heavier per-access
//! metadata.

use crate::Detector;
use std::collections::HashMap;

/// A vector clock: logical time per thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VectorClock {
    clocks: Vec<u64>,
}

impl VectorClock {
    /// The clock value for thread `t`.
    pub fn get(&self, t: u32) -> u64 {
        self.clocks.get(t as usize).copied().unwrap_or(0)
    }

    /// Sets thread `t`'s component.
    pub fn set(&mut self, t: u32, v: u64) {
        let i = t as usize;
        if self.clocks.len() <= i {
            self.clocks.resize(i + 1, 0);
        }
        self.clocks[i] = v;
    }

    /// Increments thread `t`'s component.
    pub fn tick(&mut self, t: u32) {
        let v = self.get(t);
        self.set(t, v + 1);
    }

    /// Pointwise maximum (join).
    pub fn join(&mut self, other: &VectorClock) {
        if self.clocks.len() < other.clocks.len() {
            self.clocks.resize(other.clocks.len(), 0);
        }
        for (i, &v) in other.clocks.iter().enumerate() {
            if v > self.clocks[i] {
                self.clocks[i] = v;
            }
        }
    }

    /// True if `self <= other` pointwise (self happens-before other).
    pub fn le(&self, other: &VectorClock) -> bool {
        self.clocks
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.clocks.get(i).copied().unwrap_or(0))
    }
}

#[derive(Debug, Clone, Default)]
struct LocMeta {
    /// Last-write clock per thread.
    writes: VectorClock,
    /// Last-read clock per thread.
    reads: VectorClock,
    reported: bool,
}

/// The happens-before detector.
#[derive(Debug, Default)]
pub struct VcDetector {
    threads: HashMap<u32, VectorClock>,
    locks: HashMap<usize, VectorClock>,
    locs: HashMap<usize, LocMeta>,
}

impl VcDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    fn thread(&mut self, t: u32) -> &mut VectorClock {
        self.threads.entry(t).or_insert_with(|| {
            let mut vc = VectorClock::default();
            vc.set(t, 1);
            vc
        })
    }
}

impl Detector for VcDetector {
    fn name(&self) -> &'static str {
        "vector-clock"
    }

    fn access(&mut self, tid: u32, granule: usize, is_write: bool) -> bool {
        let ct = self.thread(tid).clone();
        let m = self.locs.entry(granule).or_default();
        // A read races with any unordered write; a write also with
        // any unordered read.
        let unordered = !m.writes.le(&ct) || (is_write && !m.reads.le(&ct));
        if unordered && !m.reported {
            m.reported = true;
            return true;
        }
        if is_write {
            m.writes.set(tid, ct.get(tid));
        } else {
            m.reads.set(tid, ct.get(tid));
        }
        false
    }

    fn acquire(&mut self, tid: u32, lock: usize) {
        let lv = self.locks.entry(lock).or_default().clone();
        self.thread(tid).join(&lv);
    }

    fn release(&mut self, tid: u32, lock: usize) {
        let ct = self.thread(tid).clone();
        self.locks.insert(lock, ct);
        self.thread(tid).tick(tid);
    }

    fn fork(&mut self, parent: u32, child: u32) {
        let ct = self.thread(parent).clone();
        self.thread(child).join(&ct);
        self.thread(parent).tick(parent);
    }

    fn join(&mut self, parent: u32, child: u32) {
        let cv = self.thread(child).clone();
        self.thread(parent).join(&cv);
    }

    fn alloc(&mut self, granule: usize) {
        self.locs.insert(granule, LocMeta::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, run};
    use sharc_checker::CheckEvent;

    #[test]
    fn vc_ordering_ops() {
        let mut a = VectorClock::default();
        let mut b = VectorClock::default();
        a.set(1, 3);
        b.set(1, 5);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        b.set(2, 1);
        a.join(&b);
        assert_eq!(a.get(1), 5);
        assert_eq!(a.get(2), 1);
    }

    #[test]
    fn detects_unsynchronized_race() {
        let races = run(VcDetector::new(), &fixtures::unsynchronized_write_race());
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn lock_protected_is_clean() {
        let races = run(VcDetector::new(), &fixtures::lock_protected());
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn init_then_read_sharing_is_clean() {
        let races = run(VcDetector::new(), &fixtures::init_then_share_readonly());
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn fork_join_handoff_is_clean() {
        // Unlike Eraser, happens-before tracks fork/join: no false
        // positive here.
        let races = run(VcDetector::new(), &fixtures::fork_join_handoff());
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn two_lock_handoff_still_false_positive() {
        // Different locks guard different phases with no common
        // synchronization edge between the release and the acquire,
        // so even happens-before reports this hand-off; only SharC's
        // explicit ownership transfer (sharing cast) accepts it.
        let races = run(VcDetector::new(), &fixtures::lock_handoff_two_locks());
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn same_lock_handoff_is_clean() {
        let trace = vec![
            CheckEvent::Fork {
                parent: 1,
                child: 2,
            },
            CheckEvent::Acquire { tid: 1, lock: 1 },
            CheckEvent::Write { tid: 1, granule: 0 },
            CheckEvent::Release { tid: 1, lock: 1 },
            CheckEvent::Acquire { tid: 2, lock: 1 },
            CheckEvent::Write { tid: 2, granule: 0 },
            CheckEvent::Release { tid: 2, lock: 1 },
        ];
        let races = run(VcDetector::new(), &trace);
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn alloc_resets() {
        let mut trace = fixtures::unsynchronized_write_race();
        trace.push(CheckEvent::Alloc { granule: 0 });
        trace.push(CheckEvent::Write { tid: 1, granule: 0 });
        let races = run(VcDetector::new(), &trace);
        assert_eq!(races.len(), 1);
    }
}
