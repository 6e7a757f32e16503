//! The wide-tid runtime: [`Arena`]'s checked-access surface rebuilt
//! on the sharded exact shadow, for workloads that run *hundreds* of
//! real threads (the stunnel server fleet). The narrow stack caps
//! checked thread ids at `ThreadId(u8)` because its shadow words hold
//! at most 63 exact identities; [`WideArena`] carries a
//! [`ShardedShadow`] instead, so a [`WideThreadId`] up to the
//! geometry's exact capacity (63 per shard, e.g. 315 tids at 5
//! shards) keeps its precise reader/writer bit through every check.
//!
//! Everything else mirrors the narrow layer deliberately — same
//! counters, same event-spine hooks, same policy split — so a
//! workload ports from `Arena` to `WideArena` by swapping types, and
//! a recorded wide run replays through the identical `CheckEvent`
//! vocabulary.
//!
//! [`Arena`]: crate::arena::Arena

use crate::events::EventSink;
use crate::locks::LockId;
use crate::sharded::ShardedShadow;
use crate::sharded::WideThreadId;
use sharc_checker::{OwnedCache, ShadowGeometry};
use sharc_testkit::sync::RawMutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::arena::{granule_span, GRANULE_WORDS};

/// A `locked(l)` access without `l` held, reported by a wide-tid
/// context (the narrow [`crate::locks::LockNotHeld`] carries a
/// `ThreadId(u8)` and cannot name tids past 255).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WideLockNotHeld {
    pub lock: LockId,
    pub tid: WideThreadId,
}

impl std::fmt::Display for WideLockNotHeld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread {} accessed locked data without holding lock {}",
            self.tid.0, self.lock.0
        )
    }
}

impl std::error::Error for WideLockNotHeld {}

/// Per-thread runtime context for wide-tid workloads: the checked
/// [`WideThreadId`], the held-lock log, the shadow-granule access log
/// (cleared at exit), the owned-granule epoch cache, and the same
/// dynamic-access counters the narrow [`crate::locks::ThreadCtx`]
/// keeps for Table 1's "% dynamic" column.
#[derive(Debug)]
pub struct WideThreadCtx {
    pub tid: WideThreadId,
    held: Vec<LockId>,
    /// Granules where this thread set a shadow bit.
    pub(crate) access_log: Vec<usize>,
    /// Conflicts observed (benign in logging mode).
    pub conflicts: usize,
    /// Checked (dynamic-mode) accesses performed.
    pub checked_accesses: u64,
    /// All accesses performed through this context.
    pub total_accesses: u64,
    /// The per-thread owned-granule epoch cache; wide checks go
    /// through [`ShardedShadow`]'s cached paths, which under real
    /// cross-shard contention is exactly what the server fleet
    /// exercises.
    pub owned_cache: OwnedCache,
    /// When set, every checked access is mirrored into the shared
    /// [`EventSink`] so the whole wide run lands on the `CheckEvent`
    /// spine — buffered whole (`EventLog`) or streamed through an
    /// online collector (`StreamingSink`).
    pub sink: Option<Arc<dyn EventSink>>,
}

impl WideThreadCtx {
    /// Creates a context for checked thread `tid` (1-based).
    pub fn new(tid: WideThreadId) -> Self {
        WideThreadCtx {
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
    pub fn with_sink(tid: WideThreadId, sink: Arc<dyn EventSink>) -> Self {
        let mut ctx = Self::new(tid);
        ctx.sink = Some(sink);
        ctx
    }

    #[inline]
    fn emit_access(&self, granule: usize, is_write: bool) {
        if let Some(sink) = &self.sink {
            sink.record_access(self.tid.0, granule, is_write);
        }
    }

    #[inline]
    fn emit_range(&self, granule: usize, len: usize, is_write: bool) {
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
    /// Returns [`WideLockNotHeld`] if the lock is not in the log.
    pub fn assert_held(&self, lock: LockId) -> Result<(), WideLockNotHeld> {
        if self.holds(lock) {
            Ok(())
        } else {
            Err(WideLockNotHeld {
                lock,
                tid: self.tid,
            })
        }
    }
}

/// A set of real mutexes with held-lock logging for wide-tid
/// contexts: the same acquire-after-held / release-before-unlock
/// event order as [`crate::locks::LockRegistry`], so the linearized
/// trace preserves lock order at any thread count.
pub struct WideLockRegistry {
    locks: Vec<RawMutex>,
}

impl std::fmt::Debug for WideLockRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WideLockRegistry")
            .field("len", &self.locks.len())
            .finish()
    }
}

impl WideLockRegistry {
    /// Creates `n` unlocked mutexes.
    pub fn new(n: usize) -> Self {
        let mut locks = Vec::with_capacity(n);
        locks.resize_with(n, RawMutex::new);
        WideLockRegistry { locks }
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
    /// With a sink attached the acquisition is appended *after* the
    /// real mutex is held, so the log linearizes through the lock.
    pub fn lock(&self, ctx: &mut WideThreadCtx, lock: LockId) {
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
    /// Panics if the thread's log does not contain the lock.
    pub fn unlock(&self, ctx: &mut WideThreadCtx, lock: LockId) {
        let pos = ctx
            .held
            .iter()
            .position(|&l| l == lock)
            .expect("unlock of a lock not in the held-lock log");
        ctx.held.remove(pos);
        // Record the release while still holding, so no other
        // thread's acquire can slot between it and us in the log.
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

/// A word arena whose shadow is the sharded exact bitmap: the wide
/// counterpart of [`crate::arena::Arena`].
#[derive(Debug)]
pub struct WideArena {
    data: Vec<AtomicU64>,
    shadow: ShardedShadow,
}

impl WideArena {
    /// Creates an arena of `n_words` zeroed words whose shadow keeps
    /// exact identities for up to `threads` checked tids (the
    /// geometry rounds up to whole 63-tid shards).
    pub fn for_threads(n_words: usize, threads: usize) -> Self {
        Self::with_geometry(n_words, ShadowGeometry::for_threads(threads))
    }

    /// Creates an arena over an explicit shadow geometry.
    pub fn with_geometry(n_words: usize, geom: ShadowGeometry) -> Self {
        let mut data = Vec::with_capacity(n_words);
        data.resize_with(n_words, AtomicU64::default);
        let n_granules = n_words.div_ceil(GRANULE_WORDS);
        WideArena {
            data,
            shadow: ShardedShadow::with_geometry(n_granules, geom),
        }
    }

    /// Number of payload words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the arena holds no words.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes of shadow memory (the paper's memory overhead; the wide
    /// geometry pays one extra word per granule per 63 tids).
    pub fn shadow_bytes(&self) -> usize {
        self.shadow.shadow_bytes()
    }

    /// Payload bytes.
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// An unchecked (baseline / private-mode) read.
    #[inline]
    pub fn read_unchecked(&self, i: usize) -> u64 {
        self.data[i].load(Ordering::Relaxed)
    }

    /// An unchecked (baseline / private-mode) write.
    #[inline]
    pub fn write_unchecked(&self, i: usize, v: u64) {
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// A dynamic-mode read: `chkread` on the word's granule through
    /// the sharded shadow, then the load.
    #[inline]
    pub fn read_checked(&self, ctx: &mut WideThreadCtx, i: usize) -> u64 {
        ctx.checked_accesses += 1;
        let g = i / GRANULE_WORDS;
        ctx.emit_access(g, false);
        match self.shadow.check_read(g, ctx.tid) {
            Ok(true) => ctx.access_log.push(g),
            Ok(false) => {}
            Err(_) => ctx.conflicts += 1,
        }
        self.data[i].load(Ordering::Acquire)
    }

    /// A dynamic-mode write: `chkwrite`, then the store.
    #[inline]
    pub fn write_checked(&self, ctx: &mut WideThreadCtx, i: usize, v: u64) {
        ctx.checked_accesses += 1;
        let g = i / GRANULE_WORDS;
        ctx.emit_access(g, true);
        match self.shadow.check_write(g, ctx.tid) {
            Ok(true) => ctx.access_log.push(g),
            Ok(false) => {}
            Err(_) => ctx.conflicts += 1,
        }
        self.data[i].store(v, Ordering::Release);
    }

    /// [`WideArena::read_checked`] through the owned-granule epoch
    /// cache.
    #[inline]
    pub fn read_cached(&self, ctx: &mut WideThreadCtx, i: usize) -> u64 {
        ctx.checked_accesses += 1;
        let g = i / GRANULE_WORDS;
        ctx.emit_access(g, false);
        match self
            .shadow
            .check_read_cached(g, ctx.tid, &mut ctx.owned_cache)
        {
            Ok(true) => ctx.access_log.push(g),
            Ok(false) => {}
            Err(_) => ctx.conflicts += 1,
        }
        self.data[i].load(Ordering::Acquire)
    }

    /// [`WideArena::write_checked`] through the owned-granule epoch
    /// cache.
    #[inline]
    pub fn write_cached(&self, ctx: &mut WideThreadCtx, i: usize, v: u64) {
        ctx.checked_accesses += 1;
        let g = i / GRANULE_WORDS;
        ctx.emit_access(g, true);
        match self
            .shadow
            .check_write_cached(g, ctx.tid, &mut ctx.owned_cache)
        {
            Ok(true) => ctx.access_log.push(g),
            Ok(false) => {}
            Err(_) => ctx.conflicts += 1,
        }
        self.data[i].store(v, Ordering::Release);
    }

    /// A ranged dynamic-mode read: ONE `chkread` over the whole
    /// granule span, then the loads — `each(i, value)` fires once per
    /// word. Conflicts are counted per granule, as in the narrow
    /// arena.
    pub fn read_range_checked(
        &self,
        ctx: &mut WideThreadCtx,
        start: usize,
        words: usize,
        mut each: impl FnMut(usize, u64),
    ) {
        if words == 0 {
            return;
        }
        ctx.checked_accesses += words as u64;
        let (g0, glen) = granule_span(start, words);
        ctx.emit_range(g0, glen, false);
        let tid = ctx.tid;
        ctx.conflicts +=
            self.shadow
                .check_range_read(g0, glen, tid, |g| ctx.access_log.push(g), |_| {});
        for i in start..start + words {
            each(i, self.data[i].load(Ordering::Acquire));
        }
    }

    /// A ranged dynamic-mode write: one `chkwrite` over the granule
    /// span, then the stores — word `i` receives `value(i)`.
    pub fn write_range_checked(
        &self,
        ctx: &mut WideThreadCtx,
        start: usize,
        words: usize,
        mut value: impl FnMut(usize) -> u64,
    ) {
        if words == 0 {
            return;
        }
        ctx.checked_accesses += words as u64;
        let (g0, glen) = granule_span(start, words);
        ctx.emit_range(g0, glen, true);
        let tid = ctx.tid;
        ctx.conflicts +=
            self.shadow
                .check_range_write(g0, glen, tid, |g| ctx.access_log.push(g), |_| {});
        for i in start..start + words {
            self.data[i].store(value(i), Ordering::Release);
        }
    }

    /// [`WideArena::read_range_checked`] through the owned-run cache:
    /// a repeat sweep over a run this thread already owns costs one
    /// epoch-stamp compare for the whole buffer.
    pub fn read_range_cached(
        &self,
        ctx: &mut WideThreadCtx,
        start: usize,
        words: usize,
        mut each: impl FnMut(usize, u64),
    ) {
        if words == 0 {
            return;
        }
        ctx.checked_accesses += words as u64;
        let (g0, glen) = granule_span(start, words);
        ctx.emit_range(g0, glen, false);
        let tid = ctx.tid;
        ctx.conflicts += self.shadow.check_range_read_cached(
            g0,
            glen,
            tid,
            &mut ctx.owned_cache,
            |g| ctx.access_log.push(g),
            |_| {},
        );
        for i in start..start + words {
            each(i, self.data[i].load(Ordering::Acquire));
        }
    }

    /// [`WideArena::write_range_checked`] through the owned-run
    /// cache.
    pub fn write_range_cached(
        &self,
        ctx: &mut WideThreadCtx,
        start: usize,
        words: usize,
        mut value: impl FnMut(usize) -> u64,
    ) {
        if words == 0 {
            return;
        }
        ctx.checked_accesses += words as u64;
        let (g0, glen) = granule_span(start, words);
        ctx.emit_range(g0, glen, true);
        let tid = ctx.tid;
        ctx.conflicts += self.shadow.check_range_write_cached(
            g0,
            glen,
            tid,
            &mut ctx.owned_cache,
            |g| ctx.access_log.push(g),
            |_| {},
        );
        for i in start..start + words {
            self.data[i].store(value(i), Ordering::Release);
        }
    }

    /// Clears the shadow state covering `words` starting at `start`
    /// (used by `free` and after successful sharing casts): one
    /// word-level ranged clear, one epoch bump per covered region.
    pub fn clear_range(&self, start: usize, words: usize) {
        if words == 0 {
            return;
        }
        let (g0, glen) = granule_span(start, words);
        self.shadow.clear_range(g0, glen);
    }

    /// Thread exit: clears every shadow bit this thread set
    /// (non-overlapping lifetimes are not races) and records the exit
    /// on the spine. The access log is coalesced into contiguous runs
    /// first, so the clear cost scales with the footprint, not the
    /// access count.
    pub fn thread_exit(&self, ctx: &mut WideThreadCtx) {
        let tid = ctx.tid;
        ctx.owned_cache.invalidate_all();
        crate::arena::drain_logged_runs(&mut ctx.access_log, |start, len| {
            self.shadow.clear_thread_range(start, len, tid)
        });
        if let Some(sink) = &ctx.sink {
            sink.record(sharc_checker::CheckEvent::ThreadExit { tid: tid.0 });
        }
    }

    /// Direct access to the sharded shadow, for tests and detectors.
    pub fn shadow(&self) -> &ShardedShadow {
        &self.shadow
    }
}

/// The wide counterpart of [`crate::arena::AccessPolicy`]: a
/// workload written against this trait monomorphizes into a baseline
/// build ([`WideUnchecked`]) and a SharC build ([`WideChecked`]).
pub trait WidePolicy {
    const NAME: &'static str;
    fn read(a: &WideArena, ctx: &mut WideThreadCtx, i: usize) -> u64;
    fn write(a: &WideArena, ctx: &mut WideThreadCtx, i: usize, v: u64);
    fn read_range(
        a: &WideArena,
        ctx: &mut WideThreadCtx,
        start: usize,
        words: usize,
        each: &mut dyn FnMut(usize, u64),
    );
    fn write_range(
        a: &WideArena,
        ctx: &mut WideThreadCtx,
        start: usize,
        words: usize,
        value: &mut dyn FnMut(usize) -> u64,
    );
}

/// Baseline: raw loads and stores, counters only.
#[derive(Debug)]
pub struct WideUnchecked;

impl WidePolicy for WideUnchecked {
    const NAME: &'static str = "orig";

    #[inline]
    fn read(a: &WideArena, ctx: &mut WideThreadCtx, i: usize) -> u64 {
        ctx.total_accesses += 1;
        a.read_unchecked(i)
    }

    #[inline]
    fn write(a: &WideArena, ctx: &mut WideThreadCtx, i: usize, v: u64) {
        ctx.total_accesses += 1;
        a.write_unchecked(i, v);
    }

    fn read_range(
        a: &WideArena,
        ctx: &mut WideThreadCtx,
        start: usize,
        words: usize,
        each: &mut dyn FnMut(usize, u64),
    ) {
        ctx.total_accesses += words as u64;
        for i in start..start + words {
            each(i, a.read_unchecked(i));
        }
    }

    fn write_range(
        a: &WideArena,
        ctx: &mut WideThreadCtx,
        start: usize,
        words: usize,
        value: &mut dyn FnMut(usize) -> u64,
    ) {
        ctx.total_accesses += words as u64;
        for i in start..start + words {
            a.write_unchecked(i, value(i));
        }
    }
}

/// The SharC build: every access runs the sharded dynamic check
/// through the owned-granule/owned-run caches — the cached paths
/// under real contention, which is what the wide fleet exists to
/// exercise.
#[derive(Debug)]
pub struct WideChecked;

impl WidePolicy for WideChecked {
    const NAME: &'static str = "sharc";

    #[inline]
    fn read(a: &WideArena, ctx: &mut WideThreadCtx, i: usize) -> u64 {
        ctx.total_accesses += 1;
        a.read_cached(ctx, i)
    }

    #[inline]
    fn write(a: &WideArena, ctx: &mut WideThreadCtx, i: usize, v: u64) {
        ctx.total_accesses += 1;
        a.write_cached(ctx, i, v);
    }

    fn read_range(
        a: &WideArena,
        ctx: &mut WideThreadCtx,
        start: usize,
        words: usize,
        each: &mut dyn FnMut(usize, u64),
    ) {
        ctx.total_accesses += words as u64;
        a.read_range_cached(ctx, start, words, each);
    }

    fn write_range(
        a: &WideArena,
        ctx: &mut WideThreadCtx,
        start: usize,
        words: usize,
        value: &mut dyn FnMut(usize) -> u64,
    ) {
        ctx.total_accesses += words as u64;
        a.write_range_cached(ctx, start, words, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventLog;

    #[test]
    fn wide_tids_keep_exact_identities_past_63() {
        let a = WideArena::for_threads(8, 256);
        let mut lo = WideThreadCtx::new(WideThreadId(1));
        let mut hi = WideThreadCtx::new(WideThreadId(200));
        a.write_checked(&mut lo, 0, 7);
        assert_eq!(lo.conflicts, 0);
        // A second writer on the same granule is a real conflict —
        // and must be *attributed*, not collapsed into an adaptive
        // overflow bit.
        a.write_checked(&mut hi, 1, 9);
        assert_eq!(hi.conflicts, 1);
        assert_eq!(a.read_unchecked(0), 7);
    }

    #[test]
    fn thread_exit_enables_reuse_across_shards() {
        let a = WideArena::for_threads(4, 256);
        let mut first = WideThreadCtx::new(WideThreadId(70));
        a.write_cached(&mut first, 0, 1);
        a.thread_exit(&mut first);
        let mut second = WideThreadCtx::new(WideThreadId(140));
        a.write_cached(&mut second, 0, 2);
        assert_eq!(second.conflicts, 0, "exited writer's bits are gone");
    }

    #[test]
    fn ranged_sweep_counts_conflicts_per_granule() {
        let a = WideArena::for_threads(GRANULE_WORDS * 4, 128);
        let mut owner = WideThreadCtx::new(WideThreadId(90));
        a.write_range_checked(&mut owner, 0, GRANULE_WORDS * 4, |i| i as u64);
        assert_eq!(owner.conflicts, 0);
        let mut intruder = WideThreadCtx::new(WideThreadId(3));
        a.write_range_checked(&mut intruder, 0, GRANULE_WORDS * 4, |_| 0);
        assert_eq!(intruder.conflicts, 4, "one report per conflicting granule");
    }

    #[test]
    fn clear_range_models_the_sharing_cast() {
        let a = WideArena::for_threads(GRANULE_WORDS * 2, 256);
        let mut acceptor = WideThreadCtx::new(WideThreadId(1));
        a.write_range_checked(&mut acceptor, 0, GRANULE_WORDS * 2, |i| i as u64);
        a.clear_range(0, GRANULE_WORDS * 2);
        let mut worker = WideThreadCtx::new(WideThreadId(250));
        a.read_range_cached(&mut worker, 0, GRANULE_WORDS * 2, |_, _| {});
        a.write_range_cached(&mut worker, 0, GRANULE_WORDS * 2, |i| i as u64 + 1);
        assert_eq!(worker.conflicts, 0, "cast hands the buffer off cleanly");
    }

    #[test]
    fn wide_lock_registry_tracks_held() {
        let reg = WideLockRegistry::new(2);
        let mut ctx = WideThreadCtx::new(WideThreadId(300));
        assert!(ctx.assert_held(LockId(0)).is_err());
        reg.lock(&mut ctx, LockId(0));
        assert!(ctx.assert_held(LockId(0)).is_ok());
        assert!(ctx.assert_held(LockId(1)).is_err());
        reg.unlock(&mut ctx, LockId(0));
        assert!(ctx.assert_held(LockId(0)).is_err());
    }

    #[test]
    fn policies_agree_on_values_and_the_spine_sees_wide_tids() {
        let sink = Arc::new(EventLog::new());
        let a = WideArena::for_threads(GRANULE_WORDS * 2, 256);
        let mut ctx = WideThreadCtx::with_sink(WideThreadId(200), sink.clone());
        WideChecked::write(&a, &mut ctx, 0, 42);
        assert_eq!(WideChecked::read(&a, &mut ctx, 0), 42);
        assert_eq!(WideUnchecked::read(&a, &mut ctx, 0), 42);
        let evs = sink.snapshot();
        assert!(evs
            .iter()
            .any(|e| matches!(e, sharc_checker::CheckEvent::Write { tid: 200, .. })));
    }
}
