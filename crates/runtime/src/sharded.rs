//! The sharded hybrid shadow: exact reader/writer tracking *beyond*
//! 63 threads, for real threads with atomic updates.
//!
//! Each granule is backed by `shards + 1` atomic words laid out by a
//! [`ShadowGeometry`]: one full bitmap word per 63-thread block plus
//! one adaptive-encoded overflow word for ids past the exact range.
//! The state machine itself is pure and lives in `sharc-checker`
//! ([`sharc_checker::step::sharded`]); this module is the concurrent
//! wrapper around it:
//!
//! 1. **snapshot** every word of the granule (`SeqCst` loads),
//! 2. run the pure `step` on the snapshot,
//! 3. **CAS** the single word the step wants to change (`SeqCst`),
//!    retrying the whole step if the word moved, then
//! 4. **revalidate**: re-read the granule and re-run the step. If the
//!    re-run conflicts, a racing access installed foreign state in a
//!    *different* word between our snapshot and our CAS — report the
//!    conflict.
//!
//! Step 4 is where the multi-word encoding genuinely differs from
//! the single-word one. With one word, CAS makes check-and-install
//! atomic, so "conflicts never install" holds even under races.
//! With several words, two racing accesses in different shards can
//! both pass step 2 and both install; no single-word CAS can see the
//! other. The `SeqCst` total order saves the verdict (a
//! store-then-load Dekker pattern): whichever install is later in
//! that order observes the earlier one during its revalidation and
//! reports the conflict. So under races the contract weakens from
//! "conflicts never install" to "**a racing conflict is always
//! reported by at least one participant, and its installed state
//! keeps excluding third parties**" — the conservative direction.
//! When accesses are serialized (the differential tests, the VM),
//! revalidation reads back exactly what was installed and the
//! verdicts coincide with the pure step, i.e. with the bitmap
//! oracle.
//!
//! The owned-granule epoch cache rides on top unchanged (see
//! [`sharc_checker::cache`]): a passing write still implies every
//! other word was empty, conflicts still install nothing *into the
//! winner's ownership*, and every clear still bumps an epoch — now
//! the per-region epoch of the cleared granule ([`EpochTable`]), so
//! caches keep entries for unrelated regions alive across a `free`.
//! [`ShardedShadow::with_epoch_regions`] with `regions = 1` restores
//! the old whole-cache-flush behaviour.

use crate::shadow::{RaceError, ThreadId};
use sharc_checker::step::{
    range,
    sharded::{self, ShardStep},
    Access,
};
use sharc_checker::{EpochTable, OwnedCache, ShadowGeometry};
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on words per granule the stack-allocated snapshot
/// supports: 15 shards + overflow = exact identities for 945
/// threads. Raise it if you genuinely run wider.
pub const MAX_WORDS_PER_GRANULE: usize = 16;

/// Shadow state with the sharded hybrid encoding (bitmap shards +
/// adaptive overflow).
#[derive(Debug)]
pub struct ShardedShadow {
    /// Flat store: granule `g`'s words at `g * stride ..`.
    words: Vec<AtomicU64>,
    geom: ShadowGeometry,
    /// Per-region clear epochs; a clear bumps only the region of the
    /// cleared granule, and owned-granule caches self-invalidate
    /// entries of regions whose epoch moved.
    epochs: EpochTable,
}

impl ShardedShadow {
    /// Creates state for `n_granules` granules under the default
    /// one-shard geometry (exact to 63 threads, adaptive overflow
    /// beyond).
    pub fn new(n_granules: usize) -> Self {
        Self::with_geometry(n_granules, ShadowGeometry::default())
    }

    /// Creates state for `n_granules` granules under `geom` — e.g.
    /// `ShadowGeometry::for_threads(256)` for exact identities at
    /// 256 native threads.
    ///
    /// # Panics
    ///
    /// Panics if the geometry needs more than
    /// [`MAX_WORDS_PER_GRANULE`] words per granule.
    pub fn with_geometry(n_granules: usize, geom: ShadowGeometry) -> Self {
        // Wider geometries pay more per refill, so the region table
        // scales with the geometry (see `EpochTable::for_geometry`).
        Self::with_epochs(n_granules, geom, EpochTable::for_geometry(geom, n_granules))
    }

    /// [`ShardedShadow::with_geometry`] with an explicit epoch-region
    /// count. `regions = 1` is the degenerate global-epoch geometry
    /// (every clear flushes every cache), kept for differential tests
    /// and benches.
    pub fn with_epoch_regions(n_granules: usize, geom: ShadowGeometry, regions: usize) -> Self {
        Self::with_epochs(
            n_granules,
            geom,
            EpochTable::new(regions, n_granules.max(1).div_ceil(regions.max(1))),
        )
    }

    fn with_epochs(n_granules: usize, geom: ShadowGeometry, epochs: EpochTable) -> Self {
        assert!(
            geom.words_per_granule() <= MAX_WORDS_PER_GRANULE,
            "geometry too wide: {} words per granule (max {})",
            geom.words_per_granule(),
            MAX_WORDS_PER_GRANULE
        );
        let mut words = Vec::with_capacity(n_granules * geom.words_per_granule());
        words.resize_with(n_granules * geom.words_per_granule(), AtomicU64::default);
        ShardedShadow {
            words,
            geom,
            epochs,
        }
    }

    /// The shard layout.
    pub fn geometry(&self) -> ShadowGeometry {
        self.geom
    }

    /// Number of granules covered.
    pub fn len(&self) -> usize {
        self.words.len() / self.geom.words_per_granule()
    }

    /// True if no granules are covered.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Shadow bytes consumed: `8 × (shards + 1)` per granule — the
    /// price of exactness past 63 threads (the adaptive encoding
    /// stays at 8 regardless).
    pub fn shadow_bytes(&self) -> usize {
        self.words.len() * 8
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

    #[inline]
    fn base(&self, granule: usize) -> usize {
        granule * self.geom.words_per_granule()
    }

    /// Loads a `SeqCst` snapshot of the granule's words into `buf`,
    /// returning the populated prefix.
    #[inline]
    fn snapshot<'b>(&self, granule: usize, buf: &'b mut [u64; MAX_WORDS_PER_GRANULE]) -> &'b [u64] {
        let stride = self.geom.words_per_granule();
        let base = self.base(granule);
        for (i, slot) in buf.iter_mut().enumerate().take(stride) {
            *slot = self.words[base + i].load(Ordering::SeqCst);
        }
        &buf[..stride]
    }

    /// The snapshot → step → CAS → revalidate protocol (module docs).
    fn check(&self, granule: usize, tid: ThreadId, access: Access) -> Result<bool, RaceError> {
        assert!(
            tid.0 >= 1 && (tid.0 as u64) <= sharc_checker::step::adaptive::TID_MASK,
            "thread id out of range"
        );
        let base = self.base(granule);
        let mut buf = [0u64; MAX_WORDS_PER_GRANULE];
        loop {
            let snap = self.snapshot(granule, &mut buf);
            match sharded::step(snap, self.geom, tid.0, access) {
                ShardStep::Unchanged => return Ok(false),
                ShardStep::Conflict => {
                    return Err(RaceError {
                        granule,
                        was_write: access.is_write(),
                        observed: self.observed(snap, tid.0),
                    })
                }
                ShardStep::Install { index, word } => {
                    let expected = snap[index];
                    if self.words[base + index]
                        .compare_exchange(expected, word, Ordering::SeqCst, Ordering::SeqCst)
                        .is_err()
                    {
                        // Our own word moved: somebody raced us in the
                        // same shard. Retry with a fresh snapshot.
                        continue;
                    }
                    // Revalidate across the *other* words: a racer in
                    // a different shard may have installed between our
                    // snapshot and our CAS. SeqCst totally orders the
                    // two installs; the later one sees the earlier.
                    let reread = self.snapshot(granule, &mut buf);
                    if sharded::step(reread, self.geom, tid.0, access).is_conflict() {
                        return Err(RaceError {
                            granule,
                            was_write: access.is_write(),
                            observed: self.observed(reread, tid.0),
                        });
                    }
                    return Ok(true);
                }
            }
        }
    }

    /// The most diagnostic single word for a conflict report: the
    /// acting thread's own word if it holds foreign state, else the
    /// first non-empty foreign word.
    fn observed(&self, snap: &[u64], tid: u32) -> u64 {
        let own = match self.geom.shard_of(tid) {
            Some(s) => s,
            None => self.geom.overflow_index(),
        };
        snap.iter()
            .enumerate()
            .find_map(|(i, &w)| (i != own && w != 0).then_some(w))
            .unwrap_or(snap[own])
    }

    /// The `chkread` check-and-record. Returns `Ok(newly_set)` or
    /// the conflict.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is zero or exceeds 2³⁰ − 1.
    pub fn check_read(&self, granule: usize, tid: ThreadId) -> Result<bool, RaceError> {
        self.check(granule, tid, Access::Read)
    }

    /// The `chkwrite` check-and-record.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is zero or exceeds 2³⁰ − 1.
    pub fn check_write(&self, granule: usize, tid: ThreadId) -> Result<bool, RaceError> {
        self.check(granule, tid, Access::Write)
    }

    /// [`ShardedShadow::check_read`] with the owned-granule fast
    /// path (see [`sharc_checker::cache`] for the invariants, which
    /// carry over to the sharded words verbatim).
    #[inline]
    pub fn check_read_cached<const WAYS: usize>(
        &self,
        granule: usize,
        tid: ThreadId,
        cache: &mut OwnedCache<WAYS>,
    ) -> Result<bool, RaceError> {
        // The region epoch must be observed before the slow-path
        // check (and its shadow-word snapshot) so a concurrent clear
        // invalidates whatever we are about to cache.
        let epoch = self.epochs.epoch_of(granule);
        if cache.lookup(epoch, granule, false) {
            return Ok(false);
        }
        self.fill_read(granule, tid, cache, epoch)
    }

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

    /// [`ShardedShadow::check_write`] with the owned-granule fast
    /// path.
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
        // After a passing chkwrite every other word is empty and our
        // shard word is WRITER_FLAG | bit: this thread owns the
        // granule across all words.
        cache.insert(granule, true, epoch);
        Ok(newly)
    }

    /// One `chkread`/`chkwrite` over a contiguous run of granules
    /// (the ranged check, same contract as
    /// [`crate::Shadow::check_range_read`]): the verdict equals the
    /// fold of per-granule checks, but granules whose snapshot is
    /// already fully recorded for `tid`
    /// ([`range::recorded_sharded`]) are classified in a word-sweep
    /// without entering the CAS protocol.
    fn check_range(
        &self,
        start: usize,
        len: usize,
        tid: ThreadId,
        access: Access,
        mut on_newly: impl FnMut(usize),
        mut on_conflict: impl FnMut(RaceError),
    ) -> usize {
        let mut conflicts = 0usize;
        let end = start + len;
        let mut buf = [0u64; MAX_WORDS_PER_GRANULE];
        let mut g = start;
        while g < end {
            // Fast sweep: skip every granule whose snapshot already
            // records this access for `tid`. `recorded_sharded` being
            // true means the pure step is `Unchanged`, so skipping is
            // exactly what the per-granule loop would have done.
            while g < end {
                let snap = self.snapshot(g, &mut buf);
                if !range::recorded_sharded(snap, self.geom, tid.0, access) {
                    break;
                }
                g += 1;
            }
            if g >= end {
                break;
            }
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

    /// Ranged `chkread` over `start..start + len`. Returns the number
    /// of conflicting granules; `on_newly` fires for each granule
    /// whose shadow state this call changed, `on_conflict` for each
    /// conflict (so the per-granule outcome fold is reconstructible).
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

    /// Ranged `chkwrite` over `start..start + len`.
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

    /// [`ShardedShadow::check_range_read`] with the owned-run fast
    /// path: a repeat sweep over a run this thread already owns (or
    /// reads) is a single epoch-stamp compare. See
    /// [`crate::Shadow::check_range_read_cached`] for the stamp
    /// discipline — identical here.
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

    /// [`ShardedShadow::check_range_write`] with the owned-run fast
    /// path.
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
        let mut conflicts = 0usize;
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

    /// Thread-exit clearing: exact (bit-subtracting) for ids within
    /// the geometry's shards; `SHARED_READ` overflow state cannot be
    /// partially cleared and is left intact (sound but imprecise).
    pub fn clear_thread(&self, granule: usize, tid: ThreadId) {
        let base = self.base(granule);
        let mut buf = [0u64; MAX_WORDS_PER_GRANULE];
        loop {
            let snap = self.snapshot(granule, &mut buf);
            match sharded::clear_thread(snap, self.geom, tid.0) {
                None => break,
                Some((index, word)) => {
                    if self.words[base + index]
                        .compare_exchange(snap[index], word, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        break;
                    }
                }
            }
        }
        self.epochs.bump(granule);
    }

    /// Full reset (`free` / successful sharing cast): every word of
    /// the granule is zeroed and the epoch of *its region* moves —
    /// cached entries for other regions stay live.
    pub fn clear(&self, granule: usize) {
        let base = self.base(granule);
        for i in 0..self.geom.words_per_granule() {
            self.words[base + i].store(0, Ordering::SeqCst);
        }
        self.epochs.bump(granule);
    }

    /// Clears `len` contiguous granules at once (a whole-block `free`
    /// or sharing cast): one unconditional word-level store sweep
    /// over every shard and overflow word of the span — the clear is
    /// a reset, not a read-modify-write, so no CAS protocol is
    /// needed — then ONE [`EpochTable::bump_granule_range`] covering
    /// the span: each epoch region the block touches is bumped once,
    /// however many granules (or shard words) it holds.
    pub fn clear_range(&self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let stride = self.geom.words_per_granule();
        for w in &self.words[start * stride..(start + len) * stride] {
            w.store(0, Ordering::SeqCst);
        }
        self.epochs.bump_granule_range(start, start + len);
    }

    /// [`ShardedShadow::clear_thread`] over `len` contiguous
    /// granules: the per-granule bit-subtracting CAS loop is kept
    /// (exact within the geometry's shards, `SHARED_READ` overflow
    /// left intact), but the whole span pays ONE ranged epoch bump
    /// instead of one per granule.
    pub fn clear_thread_range(&self, start: usize, len: usize, tid: ThreadId) {
        if len == 0 {
            return;
        }
        for granule in start..start + len {
            let base = self.base(granule);
            let mut buf = [0u64; MAX_WORDS_PER_GRANULE];
            loop {
                let snap = self.snapshot(granule, &mut buf);
                match sharded::clear_thread(snap, self.geom, tid.0) {
                    None => break,
                    Some((index, word)) => {
                        if self.words[base + index]
                            .compare_exchange(snap[index], word, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        {
                            break;
                        }
                    }
                }
            }
        }
        self.epochs.bump_granule_range(start, start + len);
    }

    /// The raw shard-0 word (for tids `1..=63` this is the paper's
    /// single-word encoding), for tests and diagnostics.
    pub fn raw(&self, granule: usize) -> u64 {
        self.words[self.base(granule)].load(Ordering::SeqCst)
    }

    /// All of a granule's words (shards then overflow), for tests.
    pub fn raw_words(&self, granule: usize) -> Vec<u64> {
        let base = self.base(granule);
        (0..self.geom.words_per_granule())
            .map(|i| self.words[base + i].load(Ordering::SeqCst))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn wide(n: usize) -> ShardedShadow {
        ShardedShadow::with_geometry(n, ShadowGeometry::for_threads(256))
    }

    #[test]
    fn readers_past_63_keep_exact_identities() {
        let s = wide(1);
        for t in [1u32, 64, 127, 200, 256] {
            assert!(s.check_read(0, ThreadId(t)).is_ok(), "reader {t}");
        }
        // Any writer conflicts while readers exist...
        assert!(s.check_write(0, ThreadId(64)).is_err());
        // ...and each exit subtracts exactly.
        for t in [1u32, 127, 200, 256] {
            s.clear_thread(0, ThreadId(t));
        }
        // Only 64 still reads: its own upgrade now succeeds — the
        // adaptive encoding can never do this after SHARED_READ.
        assert!(s.check_write(0, ThreadId(64)).is_ok());
    }

    #[test]
    fn cross_shard_writer_excludes_everyone() {
        let s = wide(1);
        s.check_write(0, ThreadId(100)).unwrap();
        for t in [1u32, 63, 64, 163, 256, 1000] {
            assert!(s.check_read(0, ThreadId(t)).is_err(), "reader {t}");
            assert!(s.check_write(0, ThreadId(t)).is_err(), "writer {t}");
        }
        assert!(s.check_write(0, ThreadId(100)).is_ok(), "owner free");
    }

    #[test]
    fn overflow_ids_beyond_exact_range_are_sound() {
        let s = wide(1); // exact to 315
        assert!(s.check_read(0, ThreadId(9999)).is_ok());
        assert!(s.check_write(0, ThreadId(50)).is_err(), "sees overflow");
        s.clear(0);
        assert!(s.check_write(0, ThreadId(50)).is_ok());
    }

    #[test]
    fn clear_resets_every_word() {
        let s = wide(1);
        s.check_read(0, ThreadId(1)).unwrap();
        s.check_read(0, ThreadId(100)).unwrap();
        s.check_read(0, ThreadId(9999)).unwrap();
        s.clear(0);
        assert!(s.raw_words(0).iter().all(|&w| w == 0));
        assert!(s.check_write(0, ThreadId(200)).is_ok());
    }

    #[test]
    fn cached_paths_agree_with_uncached() {
        let s = wide(4);
        let mut cache = OwnedCache::<1>::new();
        let t = ThreadId(100);
        assert_eq!(s.check_write_cached(0, t, &mut cache), Ok(true));
        for _ in 0..10 {
            assert_eq!(s.check_write_cached(0, t, &mut cache), Ok(false));
            assert_eq!(s.check_read_cached(0, t, &mut cache), Ok(false));
        }
        assert_eq!(cache.misses, 1, "one fill, then fast-path hits");
        // An intruder still conflicts, and a clear un-caches.
        assert!(s.check_write(0, ThreadId(1)).is_err());
        s.clear(0);
        s.check_write(0, ThreadId(1)).unwrap();
        assert!(s.check_write_cached(0, t, &mut cache).is_err());
    }

    #[test]
    fn clear_leaves_other_regions_cached() {
        // Wide geometry, 128 granules: a clear of granule 0 must not
        // cost a cached owner of a distant granule its entry.
        let s = wide(128);
        assert!(s.epochs().regions() > 1, "a real region table");
        let mut c = OwnedCache::<1>::new();
        s.check_write_cached(127, ThreadId(200), &mut c).unwrap();
        assert_eq!(c.misses, 1);
        s.clear(0);
        assert_eq!(s.check_write_cached(127, ThreadId(200), &mut c), Ok(false));
        assert_eq!(c.misses, 1, "no refill after the distant clear");
        // The degenerate R = 1 geometry still flushes everything.
        let s1 = ShardedShadow::with_epoch_regions(128, ShadowGeometry::for_threads(256), 1);
        assert_eq!(s1.epochs().regions(), 1);
        let mut c1 = OwnedCache::<1>::new();
        s1.check_write_cached(127, ThreadId(200), &mut c1).unwrap();
        s1.clear(0);
        assert_eq!(
            s1.check_write_cached(127, ThreadId(200), &mut c1),
            Ok(false)
        );
        assert_eq!(c1.misses, 2, "global epoch: the clear cost a refill");
    }

    #[test]
    fn concurrent_readers_across_shards_never_conflict() {
        let s = Arc::new(wide(32));
        let mut handles = Vec::new();
        for t in (1..=256u32).step_by(16) {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for g in 0..32 {
                    s.check_read(g, ThreadId(t)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_cross_shard_writers_report_at_least_one_conflict() {
        // The revalidation guarantee: two writers in different shards
        // racing on one granule can both install, but SeqCst ordering
        // makes at least one of them see the other and report.
        for _ in 0..50 {
            let s = Arc::new(wide(1));
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let mut handles = Vec::new();
            for t in [10u32, 200] {
                let s = Arc::clone(&s);
                let b = Arc::clone(&barrier);
                handles.push(std::thread::spawn(move || {
                    b.wait();
                    s.check_write(0, ThreadId(t)).is_err()
                }));
            }
            let conflicts = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&c| c)
                .count();
            assert!(conflicts >= 1, "a racing writer pair must be reported");
        }
    }

    #[test]
    fn concurrent_disjoint_high_tid_writers_clean() {
        let s = Arc::new(wide(128));
        let mut handles = Vec::new();
        for (i, t) in (64..=256u32).step_by(24).enumerate() {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for rep in 0..200 {
                    let g = i * 8 + rep % 8;
                    s.check_write(g, ThreadId(t)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// The per-granule fold the ranged check must reproduce.
    fn fold_check(
        s: &ShardedShadow,
        start: usize,
        len: usize,
        tid: ThreadId,
        access: Access,
    ) -> (usize, Vec<usize>) {
        let mut conflicts = 0;
        let mut newly = Vec::new();
        for g in start..start + len {
            match s.check(g, tid, access) {
                Ok(true) => newly.push(g),
                Ok(false) => {}
                Err(_) => conflicts += 1,
            }
        }
        (conflicts, newly)
    }

    #[test]
    fn range_verdict_equals_the_per_granule_fold_across_shards() {
        // Two identically prepared wide shadows: per-granule fold on
        // one, ranged check on the other, same verdicts — including
        // high-tid owners and a cross-shard conflicting stripe.
        let a = wide(32);
        let b = wide(32);
        for s in [&a, &b] {
            for g in 0..8 {
                s.check_write(g, ThreadId(200)).unwrap();
            }
            for g in 8..16 {
                s.check_read(g, ThreadId(1)).unwrap();
                s.check_read(g, ThreadId(100)).unwrap();
            }
            // 16..24 foreign-owned: conflicts for tid 200.
            for g in 16..24 {
                s.check_write(g, ThreadId(7)).unwrap();
            }
            // 24..32 untouched: newly installed by the sweep.
        }
        let t = ThreadId(200);
        let (want_conflicts, want_newly) = fold_check(&a, 0, 32, t, Access::Read);
        let mut got_newly = Vec::new();
        let mut got_errs = Vec::new();
        let got_conflicts = b.check_range_read(
            0,
            32,
            t,
            |g| got_newly.push(g),
            |e| got_errs.push(e.granule),
        );
        assert_eq!(got_conflicts, want_conflicts);
        assert_eq!(got_newly, want_newly);
        assert_eq!(got_errs.len(), got_conflicts);
        assert_eq!(got_errs, (16..24).collect::<Vec<_>>());
    }

    #[test]
    fn cached_range_repeat_sweep_is_one_stamp_compare() {
        let s = wide(64);
        let mut c = OwnedCache::<4>::new();
        let t = ThreadId(150);
        let n = s.check_range_write_cached(0, 64, t, &mut c, |_| {}, |_| panic!("clean"));
        assert_eq!(n, 0);
        let misses_after_fill = c.misses;
        for _ in 0..10 {
            assert_eq!(
                s.check_range_write_cached(0, 64, t, &mut c, |_| panic!(), |_| panic!()),
                0
            );
            // Reads of a writable run ride the same summary slot.
            assert_eq!(
                s.check_range_read_cached(0, 64, t, &mut c, |_| panic!(), |_| panic!()),
                0
            );
        }
        assert_eq!(c.misses, misses_after_fill, "repeats are run hits");
        // A clear inside the run discards the summary, and the refill
        // sees the intruder.
        s.clear(3);
        s.check_write(3, ThreadId(9)).unwrap();
        let mut conflicts = Vec::new();
        s.check_range_write_cached(0, 64, t, &mut c, |_| {}, |e| conflicts.push(e.granule));
        assert_eq!(conflicts, vec![3], "stale run cannot hide the intruder");
    }

    #[test]
    #[should_panic(expected = "thread id out of range")]
    fn zero_tid_rejected() {
        let s = ShardedShadow::new(1);
        let _ = s.check_read(0, ThreadId(0));
    }

    #[test]
    fn shadow_bytes_price_the_exactness() {
        let narrow = ShardedShadow::new(4);
        let wide = wide(4);
        assert_eq!(narrow.shadow_bytes(), 4 * 2 * 8, "1 shard + overflow");
        assert_eq!(wide.shadow_bytes(), 4 * 6 * 8, "5 shards + overflow");
        assert_eq!(wide.len(), 4);
    }

    /// The adaptive-only geometry ([`ShadowGeometry::adaptive_only`]):
    /// one word per granule encoding EMPTY / EXCL(tid) / READ1(tid) /
    /// SHARED_READ, the scalable encoding §4.2.1 and §7 name as
    /// future work. Sound for any thread count; exact while a granule
    /// has at most one concurrent reader.
    mod adaptive {
        use super::*;

        fn adaptive(n: usize) -> ShardedShadow {
            ShardedShadow::with_geometry(n, ShadowGeometry::adaptive_only())
        }

        #[test]
        fn single_thread_lifecycle() {
            let s = adaptive(2);
            let t = ThreadId(1);
            assert_eq!(s.check_read(0, t), Ok(true));
            assert_eq!(s.check_read(0, t), Ok(false));
            assert!(s.check_write(0, t).is_ok());
            assert!(s.check_read(0, t).is_ok());
            assert!(s.check_write(0, t).is_ok());
        }

        #[test]
        fn supports_huge_thread_ids() {
            // The bitmap tops out at 63 threads; this encoding takes ids
            // up to 2^30 - 1 at the same 8 bytes per granule.
            let s = adaptive(1);
            assert!(s.check_read(0, ThreadId(1_000_000)).is_ok());
            assert!(s.check_write(0, ThreadId(1_000_000)).is_ok());
            assert!(s.check_write(0, ThreadId(999_999)).is_err());
        }

        #[test]
        fn many_readers_then_writer_conflicts() {
            let s = adaptive(1);
            for t in 1..=100u32 {
                assert!(s.check_read(0, ThreadId(t)).is_ok(), "reader {t}");
            }
            assert!(s.check_write(0, ThreadId(1)).is_err());
        }

        #[test]
        fn writer_excludes_everyone() {
            let s = adaptive(1);
            s.check_write(0, ThreadId(7)).unwrap();
            assert!(s.check_read(0, ThreadId(8)).is_err());
            assert!(s.check_write(0, ThreadId(8)).is_err());
            assert!(s.check_read(0, ThreadId(7)).is_ok());
        }

        #[test]
        fn exclusive_exit_clears() {
            let s = adaptive(1);
            s.check_write(0, ThreadId(3)).unwrap();
            s.clear_thread(0, ThreadId(3));
            assert!(s.check_write(0, ThreadId(4)).is_ok());
        }

        #[test]
        fn shared_read_exit_is_conservative() {
            // Documented imprecision: after read-sharing, exits cannot be
            // subtracted, so the next writer conflicts until a reset.
            let s = adaptive(1);
            s.check_read(0, ThreadId(1)).unwrap();
            s.check_read(0, ThreadId(2)).unwrap();
            s.clear_thread(0, ThreadId(1));
            s.clear_thread(0, ThreadId(2));
            assert!(
                s.check_write(0, ThreadId(3)).is_err(),
                "sound but imprecise"
            );
            s.clear(0);
            assert!(s.check_write(0, ThreadId(3)).is_ok());
        }

        #[test]
        fn single_reader_upgrade_to_writer() {
            let s = adaptive(1);
            s.check_read(0, ThreadId(5)).unwrap();
            assert!(s.check_write(0, ThreadId(5)).is_ok(), "own upgrade");
        }

        #[test]
        fn concurrent_disjoint_writers_clean() {
            let s = Arc::new(adaptive(64));
            let mut handles = Vec::new();
            for t in 1..=8u32 {
                let s = Arc::clone(&s);
                handles.push(std::thread::spawn(move || {
                    for rep in 0..200 {
                        let g = (t as usize - 1) * 8 + rep % 8;
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
            let s = Arc::new(adaptive(1));
            let mut handles = Vec::new();
            for t in 1..=4u32 {
                let s = Arc::clone(&s);
                handles.push(std::thread::spawn(move || {
                    (0..100)
                        .filter(|_| s.check_write(0, ThreadId(t)).is_err())
                        .count()
                }));
            }
            let conflicts: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert!(conflicts > 0);
        }

        #[test]
        fn ranged_sweep_matches_per_granule_and_caches_the_run() {
            let s = adaptive(16);
            let t = ThreadId(70_000);
            // Foreign owner in the middle of the run.
            s.check_write(7, ThreadId(3)).unwrap();
            let mut newly = Vec::new();
            let mut bad = Vec::new();
            let n = s.check_range_write(0, 16, t, |g| newly.push(g), |e| bad.push(e.granule));
            assert_eq!(n, 1);
            assert_eq!(bad, vec![7]);
            assert_eq!(newly.len(), 15, "every clean granule newly installed");
            // Clear the intruder; the cached sweep now fills and then
            // hits the run summary on repeats.
            s.clear(7);
            let mut c = OwnedCache::<2>::new();
            assert_eq!(
                s.check_range_write_cached(0, 16, t, &mut c, |_| {}, |_| panic!("clean")),
                0
            );
            let misses = c.misses;
            for _ in 0..5 {
                assert_eq!(
                    s.check_range_write_cached(0, 16, t, &mut c, |_| panic!(), |_| panic!()),
                    0
                );
            }
            assert_eq!(c.misses, misses, "repeat sweeps are one stamp compare");
        }
    }
}
