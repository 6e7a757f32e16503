//! Held-lock tracking (paper §4.2.2).
//!
//! "When a lock is acquired, the address of the lock is stored in a
//! thread private log. When a thread accesses an object in the
//! locked sharing mode, a runtime check is added that ensures the
//! required lock is in the log. When the lock is released, the
//! address of the lock is removed from the log."

use crate::events::EventSink;
use crate::shadow::ThreadId;
use sharc_checker::OwnedCache;
use sharc_testkit::sync::RawMutex;
use std::sync::Arc;

/// Identifies a lock in a [`LockRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LockId(pub usize);

/// A `locked(l)` access without `l` held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockNotHeld {
    pub lock: LockId,
    pub tid: ThreadId,
}

impl std::fmt::Display for LockNotHeld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread {} accessed locked data without holding lock {}",
            self.tid.0, self.lock.0
        )
    }
}

impl std::error::Error for LockNotHeld {}

/// Per-thread runtime context: the checked thread id, the held-lock
/// log, the shadow-granule access log (cleared at exit), and counters
/// used for the evaluation's "% dynamic accesses" column.
#[derive(Debug)]
pub struct ThreadCtx {
    pub tid: ThreadId,
    held: Vec<LockId>,
    /// Granules where this thread set a shadow bit.
    pub(crate) access_log: Vec<usize>,
    /// Conflicts observed (benign in logging mode).
    pub conflicts: usize,
    /// Checked (dynamic-mode) accesses performed.
    pub checked_accesses: u64,
    /// All accesses performed through this context.
    pub total_accesses: u64,
    /// The per-thread owned-granule epoch cache: repeated private
    /// accesses hit here and skip the shadow CAS entirely (see
    /// [`sharc_checker::OwnedCache`] for the soundness invariants).
    pub owned_cache: OwnedCache,
    /// When set, every checked access through this context is also
    /// recorded into the shared [`EventSink`] — the native-execution
    /// event spine that lets `sharc run --detector` and the bench
    /// binaries judge a *real-thread* run through any
    /// `CheckBackend`, either by replay (`EventLog`) or online
    /// (`StreamingSink`). `None` (the default) keeps the hot path
    /// free of the recording branch's work.
    pub sink: Option<Arc<dyn EventSink>>,
}

impl ThreadCtx {
    /// Creates a context for checked thread `tid` (1-based).
    pub fn new(tid: ThreadId) -> Self {
        ThreadCtx {
            tid,
            held: Vec::new(),
            access_log: Vec::new(),
            conflicts: 0,
            checked_accesses: 0,
            total_accesses: 0,
            owned_cache: OwnedCache::new(),
            sink: None,
        }
    }

    /// Creates a context whose checked accesses are mirrored into
    /// `sink` as [`sharc_checker::CheckEvent`]s.
    pub fn with_sink(tid: ThreadId, sink: Arc<dyn EventSink>) -> Self {
        let mut ctx = Self::new(tid);
        ctx.sink = Some(sink);
        ctx
    }

    /// Emits an access event if a sink is attached (called by the
    /// arena's checked paths).
    #[inline]
    pub(crate) fn emit_access(&self, granule: usize, is_write: bool) {
        if let Some(sink) = &self.sink {
            sink.record_access(self.tid.0, granule, is_write);
        }
    }

    /// Emits one ranged-access event for a whole buffer sweep if a
    /// sink is attached (called by the arena's ranged checked paths).
    #[inline]
    pub(crate) fn emit_range(&self, granule: usize, len: usize, is_write: bool) {
        if let Some(sink) = &self.sink {
            sink.record_range(self.tid.0, granule, len, is_write);
        }
    }

    /// True if `lock` is in this thread's held-lock log.
    pub fn holds(&self, lock: LockId) -> bool {
        self.held.contains(&lock)
    }

    /// The `locked(l)` runtime check.
    ///
    /// # Errors
    ///
    /// Returns [`LockNotHeld`] if the lock is not in the log.
    pub fn assert_held(&self, lock: LockId) -> Result<(), LockNotHeld> {
        if self.holds(lock) {
            Ok(())
        } else {
            Err(LockNotHeld {
                lock,
                tid: self.tid,
            })
        }
    }
}

/// A set of real mutexes with held-lock logging.
pub struct LockRegistry {
    locks: Vec<RawMutex>,
}

impl std::fmt::Debug for LockRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockRegistry")
            .field("len", &self.locks.len())
            .finish()
    }
}

impl LockRegistry {
    /// Creates `n` unlocked mutexes.
    pub fn new(n: usize) -> Self {
        let mut locks = Vec::with_capacity(n);
        locks.resize_with(n, RawMutex::new);
        LockRegistry { locks }
    }

    /// Number of locks.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True if the registry holds no locks.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Acquires `lock`, blocking, and records it in the thread's log.
    /// With an event sink attached, the acquisition is appended to
    /// the trace *after* the real mutex is held, so the linearized
    /// log preserves lock order.
    pub fn lock(&self, ctx: &mut ThreadCtx, lock: LockId) {
        self.locks[lock.0].lock();
        ctx.held.push(lock);
        if let Some(sink) = &ctx.sink {
            sink.record(sharc_checker::CheckEvent::Acquire {
                tid: ctx.tid.0,
                lock: lock.0,
            });
        }
    }

    /// Releases `lock` and removes it from the log.
    ///
    /// # Panics
    ///
    /// Panics if the thread's log does not contain the lock (an
    /// unlock of a mutex this thread did not acquire).
    pub fn unlock(&self, ctx: &mut ThreadCtx, lock: LockId) {
        let pos = ctx
            .held
            .iter()
            .position(|&l| l == lock)
            .expect("unlock of a lock not in the held-lock log");
        ctx.held.remove(pos);
        // Record the release *while still holding* so no other
        // thread's acquire can be logged between it and us.
        if let Some(sink) = &ctx.sink {
            sink.record(sharc_checker::CheckEvent::Release {
                tid: ctx.tid.0,
                lock: lock.0,
            });
        }
        // SAFETY: the log proves this thread acquired the lock.
        unsafe { self.locks[lock.0].unlock() };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn lock_log_tracks_held() {
        // A tid past any one-byte or one-shard range: the log and its
        // error report carry it whole.
        let reg = LockRegistry::new(2);
        let mut ctx = ThreadCtx::new(ThreadId(300));
        assert_eq!(
            ctx.assert_held(LockId(0)),
            Err(LockNotHeld {
                lock: LockId(0),
                tid: ThreadId(300)
            })
        );
        reg.lock(&mut ctx, LockId(0));
        assert!(ctx.assert_held(LockId(0)).is_ok());
        assert!(ctx.assert_held(LockId(1)).is_err());
        reg.unlock(&mut ctx, LockId(0));
        assert!(ctx.assert_held(LockId(0)).is_err());
    }

    #[test]
    fn nested_locks() {
        let reg = LockRegistry::new(2);
        let mut ctx = ThreadCtx::new(ThreadId(1));
        reg.lock(&mut ctx, LockId(0));
        reg.lock(&mut ctx, LockId(1));
        assert!(ctx.holds(LockId(0)) && ctx.holds(LockId(1)));
        reg.unlock(&mut ctx, LockId(0));
        assert!(!ctx.holds(LockId(0)) && ctx.holds(LockId(1)));
        reg.unlock(&mut ctx, LockId(1));
    }

    #[test]
    #[should_panic(expected = "not in the held-lock log")]
    fn unlock_without_lock_panics() {
        let reg = LockRegistry::new(1);
        let mut ctx = ThreadCtx::new(ThreadId(1));
        reg.unlock(&mut ctx, LockId(0));
    }

    #[test]
    fn mutual_exclusion_works() {
        let reg = Arc::new(LockRegistry::new(1));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 1..=4u32 {
            let reg = Arc::clone(&reg);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut ctx = ThreadCtx::new(ThreadId(t));
                for _ in 0..1000 {
                    reg.lock(&mut ctx, LockId(0));
                    ctx.assert_held(LockId(0)).unwrap();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    reg.unlock(&mut ctx, LockId(0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }
}
