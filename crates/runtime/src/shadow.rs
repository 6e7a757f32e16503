//! Shadow memory implementing the paper's reader/writer-set encoding
//! (§4.2.1), for real threads with atomic updates.
//!
//! The granule state machine itself lives in `sharc-checker`
//! ([`sharc_checker::step::bitmap`]): this module is the thin
//! compare-exchange retry loop around the pure transition function —
//! the portable equivalent of the paper's `cmpxchg` on x86. With `n`
//! shadow bytes the encoding supports `8n − 1` threads; this engine
//! keeps the paper's evaluated `n = 1` ("setting n = 1 has been
//! sufficient"), one byte per granule and tids `1..=7`. Wider thread
//! counts run on [`crate::ShardedShadow`].
//!
//! On top of the CAS path sits the *owned-granule epoch cache* fast
//! path ([`Shadow::check_read_cached`] /
//! [`Shadow::check_write_cached`]): a per-thread [`OwnedCache`]
//! skips the atomic check entirely on repeated private accesses,
//! guarded by a per-region [`EpochTable`] — every clear bumps only
//! the epoch of the region containing the cleared granule, so caches
//! keep their entries for unrelated regions alive. See
//! `sharc_checker::cache` and `sharc_checker::epoch` for the
//! soundness invariants; [`Shadow::with_epoch_regions`] with
//! `regions = 1` reproduces the old single-global-epoch behaviour.

use sharc_checker::step::{bitmap, range, Access, Transition};
use sharc_checker::{EpochTable, OwnedCache};
use std::sync::atomic::{AtomicU8, Ordering};

/// A checked-thread identifier (1-based). Both shadow engines take
/// it: [`Shadow`] accepts `1..=`[`Shadow::MAX_THREAD`], and
/// [`crate::ShardedShadow`] any id up to 2³⁰ − 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId(pub u32);

/// A race detected by a shadow check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceError {
    /// The granule index where the conflict occurred.
    pub granule: usize,
    /// True if the failing access was a write.
    pub was_write: bool,
    /// The raw shadow bits observed (for diagnosis).
    pub observed: u64,
}

impl std::fmt::Display for RaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} conflict at granule {} (shadow bits {:#b})",
            if self.was_write { "write" } else { "read" },
            self.granule,
            self.observed
        )
    }
}

impl std::error::Error for RaceError {}

/// One granule's shadow byte, widened to the `u64` the pure step
/// functions speak.
#[derive(Debug, Default)]
struct ShadowByte(AtomicU8);

impl ShadowByte {
    #[inline]
    fn load(&self) -> u64 {
        self.0.load(Ordering::Acquire) as u64
    }

    /// Compare-exchange; returns the previous value on failure.
    #[inline]
    fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        self.0
            .compare_exchange_weak(
                current as u8,
                new as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|v| v as u64)
            .map_err(|v| v as u64)
    }

    /// Unconditional clear.
    #[inline]
    fn clear(&self) {
        self.0.store(0, Ordering::Release);
    }
}

/// Shadow state for a payload arena, one byte per 16-byte granule
/// ([`sharc_checker::GRANULE_BYTES`]) — the paper's `n = 1`
/// evaluation configuration.
#[derive(Debug)]
pub struct Shadow {
    words: Vec<ShadowByte>,
    /// Per-region clear epochs; a clear bumps only the region holding
    /// the cleared granule, and owned-granule caches self-invalidate
    /// entries of regions whose epoch moved.
    epochs: EpochTable,
}

impl Shadow {
    /// The largest checked-thread id one shadow byte holds (`8n − 1`
    /// with `n = 1`).
    pub const MAX_THREAD: u32 = sharc_checker::max_bitmap_tid(1);

    /// Creates shadow state for `n_granules` granules, with the
    /// default epoch-region geometry
    /// ([`EpochTable::for_granules`]).
    pub fn new(n_granules: usize) -> Self {
        Self::with_epochs(n_granules, EpochTable::for_granules(n_granules))
    }

    /// Creates shadow state with an explicit epoch-region count.
    /// `regions = 1` is the degenerate global-epoch geometry: every
    /// clear invalidates every cache wholesale (the pre-region
    /// behaviour, kept for differential tests and benches).
    pub fn with_epoch_regions(n_granules: usize, regions: usize) -> Self {
        Self::with_epochs(
            n_granules,
            EpochTable::new(regions, n_granules.max(1).div_ceil(regions.max(1))),
        )
    }

    fn with_epochs(n_granules: usize, epochs: EpochTable) -> Self {
        let mut words = Vec::with_capacity(n_granules);
        words.resize_with(n_granules, ShadowByte::default);
        Shadow { words, epochs }
    }

    /// Number of granules covered.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the shadow covers no granules.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Shadow bytes consumed (the paper's memory overhead source).
    pub fn shadow_bytes(&self) -> usize {
        self.words.len()
    }

    /// The current clear-epoch of `granule`'s region (see
    /// [`sharc_checker::cache`] / [`sharc_checker::epoch`]).
    #[inline]
    pub fn epoch_of(&self, granule: usize) -> u64 {
        self.epochs.epoch_of(granule)
    }

    /// The epoch-region table guarding this shadow.
    pub fn epochs(&self) -> &EpochTable {
        &self.epochs
    }

    /// The CAS retry loop over the pure transition function — the
    /// one place the paper's `cmpxchg` protocol is written down.
    #[inline]
    fn check(&self, granule: usize, tid: ThreadId, access: Access) -> Result<bool, RaceError> {
        assert!(
            tid.0 >= 1 && tid.0 <= Self::MAX_THREAD,
            "thread id out of range"
        );
        let w = &self.words[granule];
        let mut cur = w.load();
        loop {
            match bitmap::step(cur, tid.0, access) {
                Transition::Unchanged => return Ok(false),
                Transition::Conflict => {
                    return Err(RaceError {
                        granule,
                        was_write: access.is_write(),
                        observed: cur,
                    })
                }
                Transition::Install(new) => match w.compare_exchange(cur, new) {
                    Ok(_) => return Ok(true),
                    Err(now) => cur = now,
                },
            }
        }
    }

    /// Performs the `chkread` check-and-record for `tid` on `granule`.
    ///
    /// Returns `Ok(newly_set)` — `newly_set` tells the caller to log
    /// the granule for exit-time clearing — or the conflict.
    ///
    /// # Panics
    ///
    /// Panics unless `tid` is in `1..=`[`Shadow::MAX_THREAD`].
    pub fn check_read(&self, granule: usize, tid: ThreadId) -> Result<bool, RaceError> {
        self.check(granule, tid, Access::Read)
    }

    /// Performs the `chkwrite` check-and-record for `tid`.
    ///
    /// # Panics
    ///
    /// Panics unless `tid` is in `1..=`[`Shadow::MAX_THREAD`].
    pub fn check_write(&self, granule: usize, tid: ThreadId) -> Result<bool, RaceError> {
        self.check(granule, tid, Access::Write)
    }

    /// [`Shadow::check_read`] with the owned-granule fast path: if
    /// `cache` proves this thread's read bit is already installed
    /// (and no clear intervened), the atomic check is skipped.
    #[inline]
    pub fn check_read_cached<const WAYS: usize>(
        &self,
        granule: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
    ) -> Result<bool, RaceError> {
        // The region epoch must be observed before the slow-path
        // check (and before the shadow-word read inside it) so a
        // concurrent clear invalidates whatever we are about to cache.
        let epoch = self.epochs.epoch_of(granule);
        if cache.lookup(epoch, granule, false) {
            return Ok(false);
        }
        self.fill_read(granule, tid, cache, epoch)
    }

    /// The outlined miss path of [`Shadow::check_read_cached`]:
    /// run the full check, then remember the verdict. Outlining
    /// keeps the caller's inlined fast path to a handful of
    /// instructions (epoch load, table probe, compare).
    #[cold]
    #[inline(never)]
    fn fill_read<const WAYS: usize>(
        &self,
        granule: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
        epoch: u64,
    ) -> Result<bool, RaceError> {
        let newly = self.check_read(granule, tid)?;
        cache.insert(granule, false, epoch);
        Ok(newly)
    }

    /// [`Shadow::check_write`] with the owned-granule fast path: a
    /// cached exclusive owner skips the CAS entirely — the common
    /// case on thread-private dynamic data.
    #[inline]
    pub fn check_write_cached<const WAYS: usize>(
        &self,
        granule: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
    ) -> Result<bool, RaceError> {
        let epoch = self.epochs.epoch_of(granule);
        if cache.lookup(epoch, granule, true) {
            return Ok(false);
        }
        self.fill_write(granule, tid, cache, epoch)
    }

    /// The outlined miss path of [`Shadow::check_write_cached`].
    #[cold]
    #[inline(never)]
    fn fill_write<const WAYS: usize>(
        &self,
        granule: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
        epoch: u64,
    ) -> Result<bool, RaceError> {
        let newly = self.check_write(granule, tid)?;
        // After a passing chkwrite the word is exactly
        // WRITER_FLAG | bit(tid): this thread owns the granule.
        cache.insert(granule, true, epoch);
        Ok(newly)
    }

    // ----- ranged checks -----
    //
    // One `chkread`/`chkwrite` per buffer sweep instead of one per
    // granule. The uncached pair is a word-at-a-time sweep over the
    // pure `recorded` predicate (`step::range`), falling back to the
    // full CAS protocol only for granules that need a state
    // transition; the cached pair adds the owned-*run* summary on
    // top, so a repeat sweep over the same buffer is one epoch-sum
    // compare. **The fold contract:** every variant's verdict equals
    // the fold of per-granule verdicts — each granule is judged by
    // the same `step` against its own shadow word, conflicts are
    // reported per granule via `on_conflict`, and newly-installed
    // granules via `on_newly` (for exit-time clearing logs). The
    // return value is the number of conflicting granules.

    /// The shared ranged sweep: skips granules whose snapshot already
    /// records the access, runs the full per-granule check for the
    /// rest.
    #[inline]
    fn check_range(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        access: Access,
        mut on_newly: impl FnMut(usize),
        mut on_conflict: impl FnMut(RaceError),
    ) -> usize {
        let mut conflicts = 0;
        let end = start + len;
        let mut g = start;
        while g < end {
            // Fast classification: one load + one branch-light
            // `recorded` test per already-recorded granule.
            while g < end && range::recorded(self.words[g].load(), tid.0, access) {
                g += 1;
            }
            if g >= end {
                break;
            }
            // Boundary / first-contact / conflicting granule: the
            // per-granule fallback (full CAS protocol).
            match self.check(g, tid, access) {
                Ok(true) => on_newly(g),
                Ok(false) => {}
                Err(e) => {
                    conflicts += 1;
                    on_conflict(e);
                }
            }
            g += 1;
        }
        conflicts
    }

    /// Ranged `chkread` over granules `start .. start + len`. Calls
    /// `on_newly` for each granule whose read bit was newly
    /// installed, `on_conflict` per conflicting granule; returns the
    /// conflict count. Equivalent to folding [`Shadow::check_read`]
    /// over the range.
    pub fn check_range_read(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        on_newly: impl FnMut(usize),
        on_conflict: impl FnMut(RaceError),
    ) -> usize {
        self.check_range(start, len, tid, Access::Read, on_newly, on_conflict)
    }

    /// Ranged `chkwrite`; see [`Shadow::check_range_read`].
    pub fn check_range_write(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        on_newly: impl FnMut(usize),
        on_conflict: impl FnMut(RaceError),
    ) -> usize {
        self.check_range(start, len, tid, Access::Write, on_newly, on_conflict)
    }

    /// [`Shadow::check_range_read`] with the owned-run fast path: if
    /// `cache` holds a summary proving this thread already swept
    /// exactly this run (and no covered region was cleared since —
    /// the epoch-*sum* covering constraint), the whole sweep is
    /// skipped. The miss path runs per-granule cached checks and, if
    /// the run came back conflict-free, records the summary.
    #[inline]
    pub fn check_range_read_cached<const WAYS: usize>(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
        on_newly: impl FnMut(usize),
        on_conflict: impl FnMut(RaceError),
    ) -> usize {
        // The covering stamp must be observed before the sweep, so
        // the run entry can never be newer than the epochs guarding
        // it (the per-region invariant, summed over the run).
        let stamp = self.epochs.epoch_sum_of_range(start, start + len);
        if cache.lookup_run(stamp, start, len, false) {
            return 0;
        }
        self.fill_range(
            start,
            len,
            tid,
            cache,
            stamp,
            Access::Read,
            on_newly,
            on_conflict,
        )
    }

    /// [`Shadow::check_range_write`] with the owned-run fast path;
    /// see [`Shadow::check_range_read_cached`].
    #[inline]
    pub fn check_range_write_cached<const WAYS: usize>(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
        on_newly: impl FnMut(usize),
        on_conflict: impl FnMut(RaceError),
    ) -> usize {
        let stamp = self.epochs.epoch_sum_of_range(start, start + len);
        if cache.lookup_run(stamp, start, len, true) {
            return 0;
        }
        self.fill_range(
            start,
            len,
            tid,
            cache,
            stamp,
            Access::Write,
            on_newly,
            on_conflict,
        )
    }

    /// The outlined miss path of the cached ranged checks: per-granule
    /// cached checks (so single-granule entries refill too), then the
    /// run summary — only when **zero** granules conflicted, since a
    /// summary cannot remember a conflicting granule inside it.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn fill_range<const WAYS: usize>(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
        stamp: u64,
        access: Access,
        mut on_newly: impl FnMut(usize),
        mut on_conflict: impl FnMut(RaceError),
    ) -> usize {
        let mut conflicts = 0;
        for g in start..start + len {
            let epoch = self.epochs.epoch_of(g);
            if cache.lookup(epoch, g, access.is_write()) {
                continue;
            }
            match self.check(g, tid, access) {
                Ok(newly) => {
                    cache.insert(g, access.is_write(), epoch);
                    if newly {
                        on_newly(g);
                    }
                }
                Err(e) => {
                    conflicts += 1;
                    on_conflict(e);
                }
            }
        }
        if conflicts == 0 {
            cache.insert_run(start, len, access.is_write(), stamp);
        }
        conflicts
    }

    /// Clears a thread's bit on exit ("SharC does not consider it a
    /// race for two threads to access the same location if their
    /// execution does not overlap").
    pub fn clear_thread(&self, granule: usize, tid: ThreadId) {
        let w = &self.words[granule];
        let mut cur = w.load();
        loop {
            let new = bitmap::clear_thread(cur, tid.0);
            if new == cur {
                break;
            }
            match w.compare_exchange(cur, new) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.epochs.bump(granule);
    }

    /// Clears a granule entirely (`free`, or a successful sharing
    /// cast's mode change). Bumps only the epoch of the granule's
    /// region: caches keep entries for every other region.
    pub fn clear(&self, granule: usize) {
        self.words[granule].clear();
        self.epochs.bump(granule);
    }

    /// Clears `len` contiguous granules at once (a whole-block `free`
    /// or sharing cast): a straight word-level sweep of release
    /// stores — no CAS, the clear is unconditional — followed by ONE
    /// [`EpochTable::bump_granule_range`] covering the span, so a
    /// block hand-off invalidates exactly the owned runs it covers,
    /// once per region instead of once per granule.
    pub fn clear_range(&self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        for g in start..start + len {
            self.words[g].clear();
        }
        self.epochs.bump_granule_range(start, start + len);
    }

    /// [`Shadow::clear_thread`] over `len` contiguous granules: one
    /// bit-subtracting CAS sweep, then ONE ranged epoch bump for the
    /// whole span. The per-word CAS loop is kept (a concurrent access
    /// may race the subtraction), but the O(granules) epoch traffic
    /// collapses to one bump per covered region.
    pub fn clear_thread_range(&self, start: usize, len: usize, tid: ThreadId) {
        if len == 0 {
            return;
        }
        for g in start..start + len {
            let w = &self.words[g];
            let mut cur = w.load();
            loop {
                let new = bitmap::clear_thread(cur, tid.0);
                if new == cur {
                    break;
                }
                match w.compare_exchange(cur, new) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        }
        self.epochs.bump_granule_range(start, start + len);
    }

    /// Raw bits, for tests and diagnostics.
    pub fn raw(&self, granule: usize) -> u64 {
        self.words[granule].load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_read_write_ok() {
        let s: Shadow = Shadow::new(4);
        let t = ThreadId(1);
        assert_eq!(s.check_read(0, t), Ok(true));
        assert_eq!(s.check_read(0, t), Ok(false));
        assert!(s.check_write(0, t).is_ok());
        assert!(s.check_read(0, t).is_ok());
        assert!(s.check_write(0, t).is_ok());
    }

    #[test]
    fn many_readers_ok() {
        let s: Shadow = Shadow::new(1);
        for t in 1..=7 {
            assert!(s.check_read(0, ThreadId(t)).is_ok(), "thread {t}");
        }
    }

    #[test]
    fn reader_then_other_writer_conflicts() {
        let s: Shadow = Shadow::new(1);
        s.check_read(0, ThreadId(1)).unwrap();
        let e = s.check_write(0, ThreadId(2)).unwrap_err();
        assert!(e.was_write);
        assert_eq!(e.granule, 0);
    }

    #[test]
    fn writer_then_other_reader_conflicts() {
        let s: Shadow = Shadow::new(1);
        s.check_write(0, ThreadId(1)).unwrap();
        assert!(s.check_read(0, ThreadId(2)).is_err());
        assert!(s.check_write(0, ThreadId(2)).is_err());
    }

    #[test]
    fn thread_exit_clears_bits() {
        let s: Shadow = Shadow::new(1);
        s.check_write(0, ThreadId(1)).unwrap();
        s.clear_thread(0, ThreadId(1));
        assert_eq!(s.raw(0), 0, "writer flag cleared with the writer");
        // A different thread may now use the granule freely.
        assert!(s.check_write(0, ThreadId(2)).is_ok());
    }

    #[test]
    fn reader_exit_keeps_other_readers() {
        let s: Shadow = Shadow::new(1);
        s.check_read(0, ThreadId(1)).unwrap();
        s.check_read(0, ThreadId(2)).unwrap();
        s.clear_thread(0, ThreadId(1));
        assert_eq!(s.raw(0), 1 << 2);
    }

    #[test]
    fn clear_resets() {
        let s: Shadow = Shadow::new(1);
        s.check_write(0, ThreadId(3)).unwrap();
        s.clear(0);
        assert_eq!(s.raw(0), 0);
    }

    #[test]
    fn one_byte_holds_seven_tids() {
        assert_eq!(Shadow::MAX_THREAD, 7);
        assert_eq!(Shadow::new(5).shadow_bytes(), 5, "one byte per granule");
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn thread_id_past_seven_rejected() {
        let s: Shadow = Shadow::new(1);
        let _ = s.check_read(0, ThreadId(8));
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn thread_id_zero_rejected() {
        let s: Shadow = Shadow::new(1);
        let _ = s.check_read(0, ThreadId(0));
    }

    #[test]
    fn concurrent_readers_never_conflict() {
        let s: Arc<Shadow> = Arc::new(Shadow::new(64));
        let mut handles = Vec::new();
        for t in 1..=7u32 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for g in 0..64 {
                    s.check_read(g, ThreadId(t)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for g in 0..64 {
            assert_eq!(s.raw(g) & 1, 0, "no writer flag");
        }
    }

    #[test]
    fn concurrent_disjoint_writers_never_conflict() {
        let s: Arc<Shadow> = Arc::new(Shadow::new(70));
        let mut handles = Vec::new();
        for t in 1..=7u32 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for rep in 0..100 {
                    let g = (t as usize - 1) * 10 + (rep % 10);
                    s.check_write(g, ThreadId(t)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_same_granule_writers_conflict() {
        let s: Arc<Shadow> = Arc::new(Shadow::new(1));
        let mut handles = Vec::new();
        for t in 1..=4u32 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut conflicts = 0;
                for _ in 0..100 {
                    if s.check_write(0, ThreadId(t)).is_err() {
                        conflicts += 1;
                    }
                }
                conflicts
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "competing writers must conflict");
    }

    // ----- owned-granule fast path -----

    #[test]
    fn cached_write_skips_but_agrees() {
        let s: Shadow = Shadow::new(4);
        let mut cache: OwnedCache = OwnedCache::new();
        let t = ThreadId(1);
        assert_eq!(s.check_write_cached(0, t, &mut cache), Ok(true));
        for _ in 0..10 {
            assert_eq!(s.check_write_cached(0, t, &mut cache), Ok(false));
            assert_eq!(s.check_read_cached(0, t, &mut cache), Ok(false));
        }
        assert_eq!(cache.misses, 1, "one fill, then 20 fast-path hits");
        // The shadow word is exactly what the uncached path produces.
        assert_eq!(s.raw(0), 1 | (1 << 1));
    }

    #[test]
    fn cache_never_hides_a_conflict_from_the_other_thread() {
        let s: Shadow = Shadow::new(1);
        let mut c1: OwnedCache = OwnedCache::new();
        let t1 = ThreadId(1);
        s.check_write_cached(0, t1, &mut c1).unwrap();
        // Thread 2 runs the full check and sees the conflict.
        let mut c2: OwnedCache = OwnedCache::new();
        assert!(s.check_write_cached(0, ThreadId(2), &mut c2).is_err());
        // ...and thread 1's cache still answers correctly (owner
        // stable: the conflicting access did not install).
        assert_eq!(s.check_write_cached(0, t1, &mut c1), Ok(false));
    }

    #[test]
    fn clear_invalidates_cached_ownership() {
        let s: Shadow = Shadow::new(1);
        let mut c1: OwnedCache = OwnedCache::new();
        s.check_write_cached(0, ThreadId(1), &mut c1).unwrap();
        // free / sharing cast: the granule resets and the epoch moves.
        s.clear(0);
        let mut c2: OwnedCache = OwnedCache::new();
        s.check_write_cached(0, ThreadId(2), &mut c2).unwrap();
        // Thread 1's next cached access must NOT fast-path: the new
        // owner is thread 2 and the access is a real conflict.
        assert!(s.check_write_cached(0, ThreadId(1), &mut c1).is_err());
    }

    #[test]
    fn clear_leaves_other_regions_cached() {
        // 128 granules / 64 regions: granules 0 and 64 are guarded by
        // different epochs, so clearing 0 must not cost 64 a refill.
        let s: Shadow = Shadow::new(128);
        let mut c: OwnedCache = OwnedCache::new();
        s.check_write_cached(64, ThreadId(1), &mut c).unwrap();
        assert_eq!(c.misses, 1);
        s.clear(0);
        assert_eq!(
            s.check_write_cached(64, ThreadId(1), &mut c),
            Ok(false),
            "entry in an unaffected region still answers"
        );
        assert_eq!(c.misses, 1, "no refill after the distant clear");
        assert_eq!(c.flushes, 0, "nothing was discarded");
        // The degenerate R = 1 geometry still flushes everything.
        let s1: Shadow = Shadow::with_epoch_regions(128, 1);
        let mut c1: OwnedCache = OwnedCache::new();
        s1.check_write_cached(64, ThreadId(1), &mut c1).unwrap();
        s1.clear(0);
        assert_eq!(s1.check_write_cached(64, ThreadId(1), &mut c1), Ok(false));
        assert_eq!(c1.misses, 2, "global epoch: the clear cost a refill");
        // So does a ranged free, the arena's `clear_range` path.
        s1.clear_range(0, 2);
        assert_eq!(s1.check_write_cached(64, ThreadId(1), &mut c1), Ok(false));
        assert_eq!(c1.misses, 3, "global epoch: the ranged free cost a refill");
    }

    #[test]
    fn clear_thread_invalidates_via_epoch() {
        let s: Shadow = Shadow::new(1);
        let mut c1: OwnedCache = OwnedCache::new();
        s.check_read_cached(0, ThreadId(1), &mut c1).unwrap();
        s.clear_thread(0, ThreadId(1));
        // After the exit-clear the cached read entry is discarded and
        // the slow path re-installs.
        assert_eq!(s.check_read_cached(0, ThreadId(1), &mut c1), Ok(true));
    }

    // ----- ranged checks -----

    /// Folds the per-granule check over a range, mirroring the ranged
    /// API's observable outputs: (newly list, conflict granules).
    fn fold_check(
        s: &Shadow,
        start: usize,
        len: usize,
        tid: ThreadId,
        write: bool,
    ) -> (Vec<usize>, Vec<usize>) {
        let (mut newly, mut conf) = (Vec::new(), Vec::new());
        for g in start..start + len {
            let r = if write {
                s.check_write(g, tid)
            } else {
                s.check_read(g, tid)
            };
            match r {
                Ok(true) => newly.push(g),
                Ok(false) => {}
                Err(e) => conf.push(e.granule),
            }
        }
        (newly, conf)
    }

    #[test]
    fn range_verdict_equals_the_per_granule_fold() {
        // Two identically prepared shadows: granules 0..4 owned by
        // tid 1, granule 4 owned by tid 2, 5..8 untouched.
        let prep = || {
            let s: Shadow = Shadow::new(8);
            for g in 0..4 {
                s.check_write(g, ThreadId(1)).unwrap();
            }
            s.check_write(4, ThreadId(2)).unwrap();
            s
        };
        let (a, b) = (prep(), prep());
        let (mut newly, mut conf) = (Vec::new(), Vec::new());
        let n = a.check_range_write(
            0,
            8,
            ThreadId(1),
            |g| newly.push(g),
            |e| conf.push(e.granule),
        );
        let (fnewly, fconf) = fold_check(&b, 0, 8, ThreadId(1), true);
        assert_eq!(newly, fnewly, "newly-installed granules agree");
        assert_eq!(conf, fconf, "conflicting granules agree");
        assert_eq!(n, conf.len());
        assert_eq!(conf, vec![4], "only tid 2's granule conflicts");
        // And the shadow words are bit-identical afterwards.
        for g in 0..8 {
            assert_eq!(a.raw(g), b.raw(g), "granule {g}");
        }
    }

    #[test]
    fn cached_range_repeat_sweep_is_one_stamp_compare() {
        let s: Shadow = Shadow::new(64);
        let mut c: OwnedCache = OwnedCache::new();
        let t = ThreadId(1);
        let mut newly = 0;
        let n = s.check_range_write_cached(0, 64, t, &mut c, |_| newly += 1, |_| {});
        assert_eq!((n, newly), (0, 64), "first sweep installs everything");
        let misses_after_fill = c.misses;
        for _ in 0..5 {
            let n = s.check_range_write_cached(0, 64, t, &mut c, |_| panic!(), |_| panic!());
            assert_eq!(n, 0);
        }
        assert_eq!(c.misses, misses_after_fill, "repeat sweeps are run hits");
        // Reads ride the writable run too.
        let n = s.check_range_read_cached(0, 64, t, &mut c, |_| panic!(), |_| panic!());
        assert_eq!(n, 0);
    }

    #[test]
    fn clear_inside_run_kills_it_clear_outside_does_not() {
        // 128 granules / 64 regions of 2: the run 0..8 covers regions
        // 0..4; granule 100 lives far away.
        let s: Shadow = Shadow::new(128);
        let mut c: OwnedCache = OwnedCache::new();
        let t = ThreadId(1);
        s.check_range_write_cached(0, 8, t, &mut c, |_| {}, |_| {});
        let baseline = c.misses;
        s.clear(100); // outside the run's regions
        s.check_range_write_cached(0, 8, t, &mut c, |_| {}, |_| {});
        assert_eq!(c.misses, baseline, "distant clear leaves the run live");
        s.clear(3); // inside
        let n = s.check_range_write_cached(0, 8, t, &mut c, |_| {}, |_| {});
        assert_eq!(n, 0);
        assert!(c.misses > baseline, "covered bump forced a re-sweep");
        // The re-swept run answers again.
        let m = c.misses;
        s.check_range_write_cached(0, 8, t, &mut c, |_| panic!(), |_| panic!());
        assert_eq!(c.misses, m);
    }

    #[test]
    fn cached_range_never_hides_a_conflict() {
        let s: Shadow = Shadow::new(8);
        let mut c1: OwnedCache = OwnedCache::new();
        let mut c2: OwnedCache = OwnedCache::new();
        s.check_range_write_cached(0, 8, ThreadId(1), &mut c1, |_| {}, |_| {});
        // Thread 2 sweeps the same buffer: every granule conflicts,
        // and no run summary may be recorded for it.
        let mut conf = Vec::new();
        let n = s.check_range_write_cached(
            0,
            8,
            ThreadId(2),
            &mut c2,
            |_| {},
            |e| conf.push(e.granule),
        );
        assert_eq!(n, 8);
        assert_eq!(conf, (0..8).collect::<Vec<_>>());
        let n = s.check_range_write_cached(0, 8, ThreadId(2), &mut c2, |_| {}, |_| {});
        assert_eq!(n, 8, "conflicting sweep was not summarised");
        // Thread 1's run is still valid (conflicts never install).
        s.check_range_write_cached(0, 8, ThreadId(1), &mut c1, |_| panic!(), |_| panic!());
    }
}
