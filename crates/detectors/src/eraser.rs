//! The Eraser lockset algorithm (Savage et al., SOSP '97), the
//! classic dynamic race detector the paper contrasts with (§6.2).
//!
//! Every shared location carries a *candidate lockset*: the set of
//! locks held on every access so far. The state machine per location
//! models the common idioms (initialization before sharing,
//! read-sharing, read-write locking):
//!
//! ```text
//! Virgin -> Exclusive(first thread) -> Shared (first other read)
//!                                   -> SharedModified (other write)
//! ```
//!
//! Lockset refinement starts once the location leaves Exclusive; a
//! race is reported when the candidate lockset becomes empty in
//! SharedModified. Eraser does not model ownership transfer, so
//! hand-off idioms produce false positives — exactly the weakness
//! SharC's sharing casts address.

use crate::Detector;
use std::collections::{HashMap, HashSet};

/// Per-location monitoring state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocState {
    Virgin,
    Exclusive(u32),
    Shared,
    SharedModified,
}

#[derive(Debug, Clone)]
struct LocInfo {
    state: LocState,
    /// Candidate lockset; `None` = "all locks" (not yet refined).
    candidates: Option<HashSet<usize>>,
    reported: bool,
}

impl Default for LocInfo {
    fn default() -> Self {
        LocInfo {
            state: LocState::Virgin,
            candidates: None,
            reported: false,
        }
    }
}

/// The Eraser lockset detector.
#[derive(Debug, Default)]
pub struct Eraser {
    locs: HashMap<usize, LocInfo>,
    held: HashMap<u32, HashSet<usize>>,
}

impl Eraser {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    fn refine(info: &mut LocInfo, held: &HashSet<usize>) {
        match &mut info.candidates {
            None => info.candidates = Some(held.clone()),
            Some(c) => {
                c.retain(|l| held.contains(l));
            }
        }
    }

    fn maybe_report(info: &mut LocInfo) -> bool {
        let empty = info.candidates.as_ref().is_some_and(|c| c.is_empty());
        if empty && !info.reported {
            info.reported = true;
            true
        } else {
            false
        }
    }
}

impl Detector for Eraser {
    fn name(&self) -> &'static str {
        "eraser-lockset"
    }

    fn access(&mut self, tid: u32, granule: usize, is_write: bool) -> bool {
        let held = self.held.entry(tid).or_default();
        let info = self.locs.entry(granule).or_default();
        match info.state {
            LocState::Virgin => {
                info.state = LocState::Exclusive(tid);
                false
            }
            LocState::Exclusive(owner) if owner == tid => false,
            LocState::Exclusive(_) => {
                // First access by a second thread.
                info.state = if is_write {
                    LocState::SharedModified
                } else {
                    LocState::Shared
                };
                Self::refine(info, held);
                info.state == LocState::SharedModified && Self::maybe_report(info)
            }
            LocState::Shared => {
                if is_write {
                    info.state = LocState::SharedModified;
                }
                Self::refine(info, held);
                info.state == LocState::SharedModified && Self::maybe_report(info)
            }
            LocState::SharedModified => {
                Self::refine(info, held);
                Self::maybe_report(info)
            }
        }
    }

    fn acquire(&mut self, tid: u32, lock: usize) {
        self.held.entry(tid).or_default().insert(lock);
    }

    fn release(&mut self, tid: u32, lock: usize) {
        self.held.entry(tid).or_default().remove(&lock);
    }

    // Eraser has no happens-before model: fork/join are ignored (a
    // known source of false positives).
    fn fork(&mut self, _parent: u32, _child: u32) {}

    fn join(&mut self, _parent: u32, _child: u32) {}

    fn alloc(&mut self, granule: usize) {
        self.locs.insert(granule, LocInfo::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, run};
    use sharc_checker::{CheckEvent, CheckKind};

    #[test]
    fn detects_unsynchronized_race() {
        let races = run(Eraser::new(), &fixtures::unsynchronized_write_race());
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, CheckKind::Write);
    }

    #[test]
    fn lock_protected_is_clean() {
        let races = run(Eraser::new(), &fixtures::lock_protected());
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn initialization_then_read_sharing_is_clean() {
        // Exclusive -> Shared never reports without a write.
        let races = run(Eraser::new(), &fixtures::init_then_share_readonly());
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn fork_join_handoff_false_positive() {
        // Eraser ignores fork/join ordering, so the perfectly
        // synchronized hand-off is reported — a false positive that
        // SharC's model avoids.
        let races = run(Eraser::new(), &fixtures::fork_join_handoff());
        assert_eq!(races.len(), 1, "Eraser's known false positive");
    }

    #[test]
    fn lock_handoff_two_locks_false_positive() {
        let races = run(Eraser::new(), &fixtures::lock_handoff_two_locks());
        assert_eq!(races.len(), 1, "lockset refinement empties");
    }

    #[test]
    fn alloc_resets_state() {
        let mut trace = fixtures::unsynchronized_write_race();
        trace.push(CheckEvent::Alloc { granule: 0 });
        trace.push(CheckEvent::Write { tid: 3, granule: 0 });
        let races = run(Eraser::new(), &trace);
        assert_eq!(races.len(), 1, "reset location starts Virgin again");
    }

    #[test]
    fn one_report_per_location() {
        let mut trace = fixtures::unsynchronized_write_race();
        for _ in 0..5 {
            trace.push(CheckEvent::Write { tid: 1, granule: 0 });
            trace.push(CheckEvent::Write { tid: 2, granule: 0 });
        }
        let races = run(Eraser::new(), &trace);
        assert_eq!(races.len(), 1);
    }
}
