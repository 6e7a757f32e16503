//! Per-region epoch tables: partial invalidation for the owned cache.
//!
//! PR 2 introduced the epoch protocol that makes [`crate::cache::OwnedCache`]
//! sound: every `clear`/`free`/`cast`/`thread_exit` bumps an epoch,
//! and cache entries recorded under an older epoch never answer. With
//! a *single global* epoch that protocol has a worst case the
//! `cached-epoch-thrash` bench row pins exactly: one `free` anywhere
//! invalidates every thread's *entire* cache, even though only a
//! handful of granules changed state.
//!
//! [`EpochTable`] fixes the granularity. The granule space is
//! partitioned into `R` fixed regions (both `R` and the granules-per-
//! region block size are powers of two, so the mapping is a shift and
//! a mask), each with its own epoch counter. A clear bumps only the
//! region(s) actually touched; cache entries are tagged with the
//! epoch of *their* region, so entries for unrelated regions stay
//! live across the clear. The whole-cache flush of PR 2 survives only
//! as the `R = 1` degenerate geometry ([`EpochTable::global`]), where
//! every granule maps to region 0 and one bump invalidates everything
//! — bit-for-bit the old behaviour.
//!
//! ## Region mapping
//!
//! `region_of(g) = (g >> region_shift) & (R − 1)`: contiguous blocks
//! of `2^region_shift` granules, wrapping modulo `R` once the granule
//! index exceeds `R · 2^region_shift`. The wrap matters for growable
//! granule spaces (the VM's heap): a granule past the sized range
//! still gets *an* epoch — it merely shares it with an earlier block,
//! which is conservative (a bump there invalidates slightly more than
//! necessary), never unsound.
//!
//! ## The per-region invariant
//!
//! The PR 2 invariant survives verbatim, quantified per region:
//!
//! > **An entry can never be newer than the epoch guarding it.** The
//! > region epoch is read *before* the slow-path check that populates
//! > a cache entry, and every state-clearing operation on a granule
//! > bumps that granule's region epoch with `Release` ordering before
//! > (or atomically with) publishing the cleared shadow word. So if a
//! > cached entry's tag equals the current region epoch, no clear of
//! > that region has completed since the entry's slow-path check ran
//! > — and by cache invariants 1–2 (see [`crate::cache`]) the cached
//! > verdict is still the shadow's verdict.
//!
//! ## Memory ordering
//!
//! Epoch loads are `Relaxed` and bumps are `Release` `fetch_add`, the
//! same discipline the global epoch used. The load is `Relaxed`
//! because the epoch is a *guard*, not a synchronisation edge: the
//! caller reads the region epoch first, then (on a miss) performs the
//! slow-path check whose `Acquire`/`SeqCst` shadow-word access does
//! the real synchronising. A stale-epoch read can only make the cache
//! *miss* (re-running the full check), never hit on dead state: for
//! the cache to hit, the observed epoch must equal the entry's tag,
//! i.e. no bump was observed — and if a clear raced the original
//! fill, that is the same free/cast boundary race the paper accepts
//! (the access is judged against one side of the clear or the other).

use core::sync::atomic::{AtomicU64, Ordering};

/// Default number of epoch regions for sized shadows. 64 keeps the
/// table in one cache line and already makes a point `free`
/// invalidate 1/64th of a resident working set instead of all of it.
pub const DEFAULT_REGIONS: usize = 64;

/// A table of per-region epoch counters over a granule space.
///
/// `R = 1` ([`EpochTable::global`]) degenerates to the single global
/// epoch of PR 2/3: every granule maps to region 0.
#[derive(Debug)]
pub struct EpochTable {
    /// `R` counters, `R` a power of two. The region mask is derived
    /// as `epochs.len() - 1` at each use so the optimiser can prove
    /// the index in bounds and drop the bounds check from the
    /// per-access fast path.
    epochs: Box<[AtomicU64]>,
    /// log2 of the granules-per-region block size.
    region_shift: u32,
}

impl EpochTable {
    /// A table of `regions` epochs over blocks of
    /// `granules_per_region` granules. Both are rounded up to powers
    /// of two (minimum 1).
    pub fn new(regions: usize, granules_per_region: usize) -> Self {
        let regions = regions.max(1).next_power_of_two();
        let block = granules_per_region.max(1).next_power_of_two();
        EpochTable {
            epochs: (0..regions).map(|_| AtomicU64::new(0)).collect(),
            region_shift: block.trailing_zeros(),
        }
    }

    /// The `R = 1` degenerate geometry: one epoch guards every
    /// granule, reproducing the pre-region global-epoch behaviour
    /// (every bump invalidates every cached entry).
    pub fn global() -> Self {
        EpochTable::new(1, 1)
    }

    /// A table sized for a granule space of `granules`, using
    /// [`DEFAULT_REGIONS`] regions (fewer if the space is tiny, so a
    /// region never covers less than one granule by construction).
    pub fn for_granules(granules: usize) -> Self {
        let regions = DEFAULT_REGIONS.min(granules.max(1).next_power_of_two());
        EpochTable::new(regions, granules.max(1).div_ceil(regions))
    }

    /// A table sized for `granules` granules under `geom`: wider
    /// geometries pay more shadow words per slow-path refill, so they
    /// get proportionally more regions (up to the granule count) to
    /// keep refill storms after a clear small.
    pub fn for_geometry(geom: crate::ShadowGeometry, granules: usize) -> Self {
        let regions =
            (DEFAULT_REGIONS * geom.words_per_granule()).min(granules.max(1).next_power_of_two());
        EpochTable::new(regions, granules.max(1).div_ceil(regions))
    }

    /// Number of regions (power of two).
    #[inline]
    pub fn regions(&self) -> usize {
        self.epochs.len()
    }

    /// The region guarding `granule`.
    #[inline]
    pub fn region_of(&self, granule: usize) -> usize {
        (granule >> self.region_shift) & (self.epochs.len() - 1)
    }

    /// Current epoch of `granule`'s region (`Relaxed`; see the module
    /// docs for why the guard load needs no ordering of its own). The
    /// caller must read this *before* the slow-path check whose
    /// result it will tag a cache entry with.
    #[inline]
    pub fn epoch_of(&self, granule: usize) -> u64 {
        self.epochs[self.region_of(granule)].load(Ordering::Relaxed)
    }

    /// Current epoch of region `r` (for diagnostics and tests).
    #[inline]
    pub fn epoch_of_region(&self, r: usize) -> u64 {
        self.epochs[r & (self.epochs.len() - 1)].load(Ordering::Relaxed)
    }

    /// Bumps the epoch of `granule`'s region (`Release`): every cache
    /// entry tagged with an older epoch of this region is dead.
    #[inline]
    pub fn bump(&self, granule: usize) {
        self.epochs[self.region_of(granule)].fetch_add(1, Ordering::Release);
    }

    /// Bumps every region overlapping granules `start..end` (at most
    /// one bump per region even if the range revisits it after
    /// wrapping). An empty range bumps nothing.
    pub fn bump_granule_range(&self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        let mask = self.epochs.len() - 1;
        let first = start >> self.region_shift;
        let last = (end - 1) >> self.region_shift;
        // `first..=last` in block space; if the span covers >= R
        // blocks every region is hit at least once.
        if last - first >= mask {
            self.bump_all();
            return;
        }
        for block in first..=last {
            self.epochs[block & mask].fetch_add(1, Ordering::Release);
        }
    }

    /// Bumps every region (thread exit, whole-shadow clear).
    pub fn bump_all(&self) {
        for e in self.epochs.iter() {
            e.fetch_add(1, Ordering::Release);
        }
    }

    /// Sum of the epochs of every region overlapping granules
    /// `start..end`, each region counted exactly once (wrap-aware: a
    /// span covering ≥ `R` blocks sums the whole table). An empty
    /// range sums nothing and returns 0.
    ///
    /// This is the **covering constraint** for owned-*run* cache
    /// entries (see `OwnedCache`'s run slots): a run spanning several
    /// regions is stamped with the sum of their epochs at fill time.
    /// Epoch counters are monotone non-decreasing, so the sums are
    /// equal **iff** every covered region's epoch is unchanged — any
    /// bump of any overlapped region strictly increases the sum and
    /// kills the run, while bumps of non-overlapping regions leave it
    /// live. (Strictly: a counter would have to wrap `u64` for a
    /// coincidental sum collision, i.e. 2⁶⁴ clears — out of scope by
    /// the same argument that lets the per-granule tag be a `u64`.)
    ///
    /// Loads are `Relaxed` like [`EpochTable::epoch_of`]: the sum is a
    /// guard read *before* the slow-path sweep that fills the run, and
    /// a stale read can only miss, never false-hit.
    #[inline]
    pub fn epoch_sum_of_range(&self, start: usize, end: usize) -> u64 {
        if start >= end {
            return 0;
        }
        let mask = self.epochs.len() - 1;
        let first = start >> self.region_shift;
        let last = (end - 1) >> self.region_shift;
        if last - first >= mask {
            // The run covers every region at least once; count each
            // exactly once.
            return self
                .epochs
                .iter()
                .fold(0u64, |s, e| s.wrapping_add(e.load(Ordering::Relaxed)));
        }
        let mut sum = 0u64;
        for block in first..=last {
            sum = sum.wrapping_add(self.epochs[block & mask].load(Ordering::Relaxed));
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShadowGeometry;

    #[test]
    fn global_is_the_r1_degeneracy() {
        let t = EpochTable::global();
        assert_eq!(t.regions(), 1);
        assert_eq!(t.region_of(0), 0);
        assert_eq!(t.region_of(usize::MAX >> 1), 0);
        t.bump(12345);
        assert_eq!(t.epoch_of(0), 1, "one bump invalidates everything");
        assert_eq!(t.epoch_of(999), 1);
    }

    #[test]
    fn regions_partition_contiguous_blocks() {
        // 4 regions x 8 granules each.
        let t = EpochTable::new(4, 8);
        assert_eq!(t.regions(), 4);
        assert_eq!(t.region_of(0), 0);
        assert_eq!(t.region_of(7), 0);
        assert_eq!(t.region_of(8), 1);
        assert_eq!(t.region_of(31), 3);
        // Past the sized range the mapping wraps, conservatively.
        assert_eq!(t.region_of(32), 0);
    }

    #[test]
    fn bump_is_local_to_one_region() {
        let t = EpochTable::new(4, 8);
        t.bump(9); // region 1
        assert_eq!(t.epoch_of(0), 0, "region 0 untouched");
        assert_eq!(t.epoch_of(8), 1);
        assert_eq!(t.epoch_of(15), 1, "whole block shares the bump");
        assert_eq!(t.epoch_of(16), 0);
    }

    #[test]
    fn range_bump_hits_each_overlapped_region_once() {
        let t = EpochTable::new(4, 8);
        t.bump_granule_range(6, 18); // blocks 0, 1, 2
        assert_eq!(t.epoch_of_region(0), 1);
        assert_eq!(t.epoch_of_region(1), 1);
        assert_eq!(t.epoch_of_region(2), 1);
        assert_eq!(t.epoch_of_region(3), 0);
        t.bump_granule_range(5, 5); // empty
        t.bump_granule_range(7, 5); // empty
        assert_eq!(t.epoch_of_region(0), 1);
        // A span covering >= R blocks bumps every region exactly once.
        t.bump_granule_range(0, 4 * 8 + 1);
        assert_eq!(t.epoch_of_region(0), 2);
        assert_eq!(t.epoch_of_region(3), 1);
    }

    #[test]
    fn for_granules_never_exceeds_granule_count() {
        let t = EpochTable::for_granules(8);
        assert_eq!(t.regions(), 8, "tiny space: one granule per region");
        assert_eq!(t.region_of(3), 3);
        let t = EpochTable::for_granules(4096);
        assert_eq!(t.regions(), DEFAULT_REGIONS);
        assert_eq!(t.region_of(0), 0);
        assert_eq!(t.region_of(4095), 63);
        let t = EpochTable::for_granules(0);
        assert_eq!(t.regions(), 1);
    }

    #[test]
    fn geometry_scales_region_count() {
        let narrow = EpochTable::for_geometry(ShadowGeometry::adaptive_only(), 1 << 20);
        let wide = EpochTable::for_geometry(ShadowGeometry::for_threads(256), 1 << 20);
        assert_eq!(narrow.regions(), DEFAULT_REGIONS);
        assert!(
            wide.regions() > narrow.regions(),
            "wider geometry, finer regions"
        );
        // Still capped by the granule count.
        let tiny = EpochTable::for_geometry(ShadowGeometry::for_threads(256), 8);
        assert_eq!(tiny.regions(), 8);
    }

    #[test]
    fn epoch_sum_tracks_exactly_the_covered_regions() {
        // 4 regions x 8 granules.
        let t = EpochTable::new(4, 8);
        let s0 = t.epoch_sum_of_range(4, 20); // blocks 0, 1, 2
        assert_eq!(s0, 0);
        t.bump(30); // region 3 — not covered
        assert_eq!(t.epoch_sum_of_range(4, 20), s0, "uncovered bump is free");
        t.bump(12); // region 1 — covered
        assert_eq!(t.epoch_sum_of_range(4, 20), s0 + 1, "covered bump kills");
        // A run covering >= R blocks sums every region exactly once,
        // even though block space revisits regions after wrapping.
        let full = t.epoch_sum_of_range(0, 4 * 8 * 3);
        assert_eq!(full, 2, "one bump in region 3 + one in region 1");
        // Empty ranges sum nothing.
        assert_eq!(t.epoch_sum_of_range(9, 9), 0);
        assert_eq!(t.epoch_sum_of_range(9, 5), 0);
    }

    #[test]
    fn bump_all_moves_every_region() {
        let t = EpochTable::new(8, 4);
        t.bump_all();
        for r in 0..8 {
            assert_eq!(t.epoch_of_region(r), 1);
        }
    }
}
