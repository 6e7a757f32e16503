//! Thread-safe online detector front-ends for overhead measurement.
//!
//! Tools like Eraser instrument *every* memory access and consult
//! shared per-location state; that is where their 10×–30× overhead
//! comes from. To measure the shape of that cost against SharC's
//! checks (which only touch a shadow byte for dynamic-mode data), we
//! split a [`BaselineBackend`] into a sharded mutex table that real
//! worker threads feed on every access.

use crate::{BaselineBackend, Detector};
use sharc_checker::{CheckBackend, Verdict};
use sharc_testkit::sync::Mutex;

/// Number of shards; accesses route by granule.
const SHARDS: usize = 64;

/// A sharded, thread-safe front-end running one [`BaselineBackend`]
/// per shard. It only routes: accesses and allocations go to their
/// granule's shard, and synchronization events (lock, fork, join,
/// exit) are broadcast to every shard, so each keeps the per-thread
/// context its detector needs. Sound for detectors whose
/// per-location state is independent given that context.
pub struct Online<D: Detector> {
    shards: Vec<Mutex<BaselineBackend<D>>>,
}

impl<D: Detector> std::fmt::Debug for Online<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Online").field("shards", &SHARDS).finish()
    }
}

impl<D: Detector + Default> Default for Online<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Detector + Default> Online<D> {
    /// Creates the sharded detector.
    pub fn new() -> Self {
        let mut shards = Vec::with_capacity(SHARDS);
        shards.resize_with(SHARDS, || Mutex::new(BaselineBackend::default()));
        Online { shards }
    }
}

impl<D: Detector> Online<D> {
    fn shard(&self, granule: usize) -> &Mutex<BaselineBackend<D>> {
        &self.shards[granule % SHARDS]
    }

    fn broadcast(&mut self, f: impl Fn(&mut BaselineBackend<D>)) {
        for s in &mut self.shards {
            f(s.get_mut());
        }
    }

    /// The `chkread` check, callable from many threads at once.
    pub fn read(&self, tid: u32, granule: usize) -> Verdict {
        self.shard(granule).lock().chkread(tid, granule)
    }

    /// The `chkwrite` check, callable from many threads at once.
    pub fn write(&self, tid: u32, granule: usize) -> Verdict {
        self.shard(granule).lock().chkwrite(tid, granule)
    }
}

/// The sharded front-end speaks the unified check interface too, so
/// harnesses can swap it in wherever a
/// [`sharc_checker::BitmapBackend`] or a [`BaselineBackend`] is
/// expected.
impl<D: Detector> CheckBackend for Online<D> {
    fn name(&self) -> &'static str {
        "online-baseline"
    }

    fn chkread(&mut self, tid: u32, granule: usize) -> Verdict {
        self.read(tid, granule)
    }

    fn chkwrite(&mut self, tid: u32, granule: usize) -> Verdict {
        self.write(tid, granule)
    }

    /// Every shard saw every acquire and release, so any one answers.
    fn lock_held(&self, tid: u32, lock: usize) -> bool {
        self.shards[0].lock().lock_held(tid, lock)
    }

    fn oneref(&mut self, tid: u32, granule: usize, refs: u64) -> Verdict {
        self.shard(granule).lock().oneref(tid, granule, refs)
    }

    fn on_acquire(&mut self, tid: u32, lock: usize) {
        self.broadcast(|b| b.on_acquire(tid, lock));
    }

    fn on_release(&mut self, tid: u32, lock: usize) {
        self.broadcast(|b| b.on_release(tid, lock));
    }

    fn on_fork(&mut self, parent: u32, child: u32) {
        self.broadcast(|b| b.on_fork(parent, child));
    }

    fn on_join(&mut self, parent: u32, child: u32) {
        self.broadcast(|b| b.on_join(parent, child));
    }

    fn on_thread_exit(&mut self, tid: u32) {
        self.broadcast(|b| b.on_thread_exit(tid));
    }

    fn on_alloc(&mut self, granule: usize) {
        self.shard(granule).lock().on_alloc(granule);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eraser::Eraser;
    use crate::vectorclock::VcDetector;
    use std::sync::Arc;

    #[test]
    fn online_eraser_finds_cross_thread_race() {
        let d: Arc<Online<Eraser>> = Arc::new(Online::new());
        let writers: Vec<_> = (1..=2u32)
            .map(|t| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    (0..100).fold(0, |n, i| n + d.write(t, i % 4).is_conflict() as usize)
                })
            })
            .collect();
        let races: usize = writers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(races > 0);
    }

    #[test]
    fn online_vc_clean_on_disjoint_locations() {
        let mut d: Online<VcDetector> = Online::new();
        d.on_fork(1, 2);
        let d = Arc::new(d);
        let writers: Vec<_> = (1..=2u32)
            .map(|t| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    (0..100)
                        .filter(|&i| d.write(t, (t as usize) * 1000 + i).is_conflict())
                        .count()
                })
            })
            .collect();
        let races: usize = writers.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(races, 0);
    }

    #[test]
    fn lock_events_reach_every_shard() {
        let mut d: Online<Eraser> = Online::new();
        d.on_acquire(1, 7);
        assert!(d.lock_held(1, 7));
        assert!(d.shards.iter_mut().all(|s| s.get_mut().lock_held(1, 7)));
        d.on_release(1, 7);
        assert!(!d.lock_held(1, 7));
    }
}
