//! A payload arena with attached shadow memory and pluggable access
//! policies, so the same workload code can run uninstrumented
//! (baseline) or with SharC's dynamic checks — the methodology behind
//! Table 1's "Time Orig./SharC" columns.
//!
//! One [`Arena`] serves every thread count. [`Arena::for_threads`]
//! picks the shadow engine from the number of checked tids the
//! workload runs: the paper's one-byte [`Shadow`] (`n = 1`, tids
//! `1..=7`) while that fits, and the sharded exact [`ShardedShadow`]
//! beyond it. Both engines give the same verdicts for tids `1..=7`;
//! the narrow one stays for its memory cost, 1 byte per granule
//! against `8 × (shards + 1)`.

use crate::locks::ThreadCtx;
use crate::shadow::Shadow;
use crate::sharded::ShardedShadow;
use sharc_checker::{CheckEvent, ShadowGeometry};
use std::sync::atomic::{AtomicU64, Ordering};

/// Payload 8-byte words per shadow granule, derived from the one
/// workspace-wide granule definition (`sharc_checker::GRANULE_BYTES`
/// = the paper's 16 bytes) — re-exported at the crate root so
/// workloads can convert word spans to granule spans.
pub const GRANULE_WORDS: usize = sharc_checker::GRANULE_WORDS;

const _: () = assert!(
    GRANULE_WORDS * 8 == sharc_checker::GRANULE_BYTES,
    "arena words must tile the shared granule exactly"
);

/// The granule span `(first, len)` covered by payload words
/// `start .. start + words` (`words > 0`) — the one word-to-granule
/// conversion, so ranged checks, clears and recorded range events
/// agree on coverage by construction.
#[inline]
pub fn granule_span(start: usize, words: usize) -> (usize, usize) {
    let g0 = start / GRANULE_WORDS;
    let g1 = (start + words - 1) / GRANULE_WORDS;
    (g0, g1 - g0 + 1)
}

/// Sorts and dedupes a thread's logged granules, coalescing them into
/// maximal consecutive runs — `clear_run(start, len)` fires once per
/// run — and leaves the log empty. A hot-loop thread re-logs a
/// granule every time a clear lets it re-install its bit, so the raw
/// log carries duplicates; draining runs instead of entries means
/// exit pays one ranged clear (one epoch bump per covered region)
/// per contiguous footprint rather than one clear-plus-bump per
/// logged access.
fn drain_logged_runs(log: &mut Vec<usize>, mut clear_run: impl FnMut(usize, usize)) {
    log.sort_unstable();
    log.dedup();
    let mut i = 0;
    while i < log.len() {
        let start = log[i];
        let mut end = start + 1;
        i += 1;
        while i < log.len() && log[i] == end {
            end += 1;
            i += 1;
        }
        clear_run(start, end - start);
    }
    log.clear();
}

/// The arena's shadow engine, chosen by [`Arena::for_threads`].
#[derive(Debug)]
enum ArenaShadow {
    /// One byte per granule, tids `1..=7`.
    Narrow(Shadow),
    /// `8 × (shards + 1)` bytes per granule, exact for every tid the
    /// geometry covers.
    Sharded(ShardedShadow),
}

/// Evaluates `$body` with `$s` bound to whichever engine `$shadow`
/// holds: both expose the same check and clear methods.
macro_rules! with_shadow {
    ($shadow:expr, $s:ident => $body:expr) => {
        match $shadow {
            ArenaShadow::Narrow($s) => $body,
            ArenaShadow::Sharded($s) => $body,
        }
    };
}

/// A word arena with shadow state.
#[derive(Debug)]
pub struct Arena {
    data: Vec<AtomicU64>,
    shadow: ArenaShadow,
}

impl Arena {
    /// Creates an arena of `n_words` zeroed 8-byte words whose shadow
    /// serves checked tids `1..=threads`: one byte per granule while
    /// `threads` ≤ [`Shadow::MAX_THREAD`], the sharded exact shadow
    /// on [`ShadowGeometry::for_threads`] beyond.
    pub fn for_threads(n_words: usize, threads: usize) -> Self {
        let mut data = Vec::with_capacity(n_words);
        data.resize_with(n_words, AtomicU64::default);
        let n_granules = n_words.div_ceil(GRANULE_WORDS);
        let shadow = if threads <= Shadow::MAX_THREAD as usize {
            ArenaShadow::Narrow(Shadow::new(n_granules))
        } else {
            ArenaShadow::Sharded(ShardedShadow::with_geometry(
                n_granules,
                ShadowGeometry::for_threads(threads),
            ))
        };
        Arena { data, shadow }
    }

    /// Number of payload words.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the arena holds no words.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes of shadow memory (the paper's memory overhead).
    pub fn shadow_bytes(&self) -> usize {
        with_shadow!(&self.shadow, s => s.shadow_bytes())
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

    /// The shadow half of every per-word checked access: `chkread` /
    /// `chkwrite` on word `i`'s granule, through the owned-granule
    /// epoch cache when `cached`. Conflicts are counted in `ctx`
    /// (logging mode) rather than aborting, like the tool's default
    /// reporting behaviour.
    #[inline(always)]
    fn check_word(&self, ctx: &mut ThreadCtx, i: usize, write: bool, cached: bool) {
        ctx.checked_accesses += 1;
        let g = i / GRANULE_WORDS;
        ctx.emit_access(g, write);
        let tid = ctx.tid;
        let cache = &mut ctx.owned_cache;
        let verdict = with_shadow!(&self.shadow, s => match (write, cached) {
            (false, false) => s.check_read(g, tid),
            (true, false) => s.check_write(g, tid),
            (false, true) => s.check_read_cached(g, tid, cache),
            (true, true) => s.check_write_cached(g, tid, cache),
        });
        match verdict {
            Ok(true) => ctx.access_log.push(g),
            Ok(false) => {}
            Err(_) => ctx.conflicts += 1,
        }
    }

    /// The shadow half of every ranged sweep: ONE check over the
    /// whole granule span of `start .. start + words`. The verdict is
    /// the fold of per-granule checks (see
    /// [`Shadow::check_range_read`]), but conflicts are counted **per
    /// granule**, not per word: a per-word loop re-reports a
    /// conflicting granule for every word that touches it. With
    /// `cached`, a repeat sweep over a run this thread already owns
    /// costs one epoch-stamp compare for the whole buffer (see
    /// [`sharc_checker::cache`]'s run slots).
    #[inline(always)]
    fn check_sweep(
        &self,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        write: bool,
        cached: bool,
    ) {
        if words == 0 {
            return;
        }
        ctx.checked_accesses += words as u64;
        let (g0, glen) = granule_span(start, words);
        ctx.emit_range(g0, glen, write);
        let tid = ctx.tid;
        let log = &mut ctx.access_log;
        let cache = &mut ctx.owned_cache;
        let newly = |g| log.push(g);
        ctx.conflicts += with_shadow!(&self.shadow, s => match (write, cached) {
            (false, false) => s.check_range_read(g0, glen, tid, newly, |_| {}),
            (true, false) => s.check_range_write(g0, glen, tid, newly, |_| {}),
            (false, true) => s.check_range_read_cached(g0, glen, tid, cache, newly, |_| {}),
            (true, true) => s.check_range_write_cached(g0, glen, tid, cache, newly, |_| {}),
        });
    }

    /// A dynamic-mode read: `chkread` on the word's granule, then the
    /// load.
    #[inline]
    pub fn read_checked(&self, ctx: &mut ThreadCtx, i: usize) -> u64 {
        self.check_word(ctx, i, false, false);
        self.data[i].load(Ordering::Acquire)
    }

    /// A dynamic-mode write: `chkwrite`, then the store.
    #[inline]
    pub fn write_checked(&self, ctx: &mut ThreadCtx, i: usize, v: u64) {
        self.check_word(ctx, i, true, false);
        self.data[i].store(v, Ordering::Release);
    }

    /// [`Arena::read_checked`] through the owned-granule epoch cache:
    /// repeated private reads skip the atomic shadow check.
    #[inline]
    pub fn read_cached(&self, ctx: &mut ThreadCtx, i: usize) -> u64 {
        self.check_word(ctx, i, false, true);
        self.data[i].load(Ordering::Acquire)
    }

    /// [`Arena::write_checked`] through the owned-granule epoch
    /// cache: a cached exclusive owner pays one relaxed load and one
    /// array probe instead of the CAS protocol.
    #[inline]
    pub fn write_cached(&self, ctx: &mut ThreadCtx, i: usize, v: u64) {
        self.check_word(ctx, i, true, true);
        self.data[i].store(v, Ordering::Release);
    }

    /// A dynamic-mode **ranged** read: one `chkread` over the granule
    /// span, then the loads — `each(i, value)` fires once per word.
    pub fn read_range_checked(
        &self,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        mut each: impl FnMut(usize, u64),
    ) {
        self.check_sweep(ctx, start, words, false, false);
        for i in start..start + words {
            each(i, self.data[i].load(Ordering::Acquire));
        }
    }

    /// A dynamic-mode **ranged** write: one `chkwrite` over the
    /// granule span, then the stores — word `i` receives `value(i)`.
    pub fn write_range_checked(
        &self,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        mut value: impl FnMut(usize) -> u64,
    ) {
        self.check_sweep(ctx, start, words, true, false);
        for i in start..start + words {
            self.data[i].store(value(i), Ordering::Release);
        }
    }

    /// [`Arena::read_range_checked`] through the owned-run cache.
    pub fn read_range_cached(
        &self,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        mut each: impl FnMut(usize, u64),
    ) {
        self.check_sweep(ctx, start, words, false, true);
        for i in start..start + words {
            each(i, self.data[i].load(Ordering::Acquire));
        }
    }

    /// [`Arena::write_range_checked`] through the owned-run cache.
    pub fn write_range_cached(
        &self,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        mut value: impl FnMut(usize) -> u64,
    ) {
        self.check_sweep(ctx, start, words, true, true);
        for i in start..start + words {
            self.data[i].store(value(i), Ordering::Release);
        }
    }

    /// Clears the shadow state covering `words` starting at `start`
    /// (used by `free` and after successful sharing casts): ONE
    /// word-level ranged clear with a single epoch bump per covered
    /// region, not a per-granule loop.
    pub fn clear_range(&self, start: usize, words: usize) {
        if words == 0 {
            return;
        }
        let (g0, glen) = granule_span(start, words);
        with_shadow!(&self.shadow, s => s.clear_range(g0, glen));
    }

    /// Thread exit: clears every shadow bit this thread set
    /// (non-overlapping lifetimes are not races) and records the exit
    /// on the spine. The access log is coalesced into contiguous runs
    /// — duplicates and all — so a hot-loop thread pays one ranged
    /// clear per footprint, not one clear per logged access.
    pub fn thread_exit(&self, ctx: &mut ThreadCtx) {
        let tid = ctx.tid;
        ctx.owned_cache.invalidate_all();
        with_shadow!(&self.shadow, s => drain_logged_runs(&mut ctx.access_log, |start, len| {
            s.clear_thread_range(start, len, tid)
        }));
        if let Some(sink) = &ctx.sink {
            sink.record(CheckEvent::ThreadExit { tid: tid.0 });
        }
    }
}

/// How a workload touches memory: the baseline runs [`Unchecked`],
/// the SharC builds run [`Checked`] or [`CachedChecked`] on their
/// dynamic-mode data. A policy is its two flags; every method is
/// provided and fully inlined, so the comparison measures exactly the
/// cost of the checks.
pub trait AccessPolicy: Copy + Send + 'static {
    /// True for the SharC builds. Workloads also read it to decide
    /// whether to pay the instrumentation around the accesses
    /// (sharing casts, reference counts, lock-held checks).
    const CHECKED: bool;
    /// True when checks go through the per-thread owned-granule and
    /// owned-run caches (meaningful only when [`Self::CHECKED`]).
    const CACHED: bool;

    /// One word read.
    #[inline(always)]
    fn read(arena: &Arena, ctx: &mut ThreadCtx, i: usize) -> u64 {
        ctx.total_accesses += 1;
        match (Self::CHECKED, Self::CACHED) {
            (false, _) => arena.read_unchecked(i),
            (true, false) => arena.read_checked(ctx, i),
            (true, true) => arena.read_cached(ctx, i),
        }
    }

    /// One word write.
    #[inline(always)]
    fn write(arena: &Arena, ctx: &mut ThreadCtx, i: usize, v: u64) {
        ctx.total_accesses += 1;
        match (Self::CHECKED, Self::CACHED) {
            (false, _) => arena.write_unchecked(i, v),
            (true, false) => arena.write_checked(ctx, i, v),
            (true, true) => arena.write_cached(ctx, i, v),
        }
    }

    /// One sweep reading words `start .. start + words`, `each(i, v)`
    /// per word — **one** ranged check per sweep in the checked
    /// builds, same verdicts as the per-word loop.
    #[inline]
    fn read_range(
        arena: &Arena,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        each: &mut dyn FnMut(usize, u64),
    ) {
        ctx.total_accesses += words as u64;
        match (Self::CHECKED, Self::CACHED) {
            (false, _) => {
                for i in start..start + words {
                    each(i, arena.read_unchecked(i));
                }
            }
            (true, false) => arena.read_range_checked(ctx, start, words, each),
            (true, true) => arena.read_range_cached(ctx, start, words, each),
        }
    }

    /// One sweep writing `value(i)` to words `start .. start + words`.
    #[inline]
    fn write_range(
        arena: &Arena,
        ctx: &mut ThreadCtx,
        start: usize,
        words: usize,
        value: &mut dyn FnMut(usize) -> u64,
    ) {
        ctx.total_accesses += words as u64;
        match (Self::CHECKED, Self::CACHED) {
            (false, _) => {
                for i in start..start + words {
                    arena.write_unchecked(i, value(i));
                }
            }
            (true, false) => arena.write_range_checked(ctx, start, words, value),
            (true, true) => arena.write_range_cached(ctx, start, words, value),
        }
    }
}

/// Baseline: no instrumentation at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unchecked;

impl AccessPolicy for Unchecked {
    const CHECKED: bool = false;
    const CACHED: bool = false;
}

/// SharC dynamic-mode checking.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked;

impl AccessPolicy for Checked {
    const CHECKED: bool = true;
    const CACHED: bool = false;
}

/// SharC dynamic-mode checking through the owned-granule and
/// owned-run epoch caches — same verdicts as [`Checked`], cheaper
/// steady state on thread-private data.
#[derive(Debug, Clone, Copy, Default)]
pub struct CachedChecked;

impl AccessPolicy for CachedChecked {
    const CHECKED: bool = true;
    const CACHED: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::ThreadId;
    use std::sync::Arc;

    #[test]
    fn unchecked_roundtrip() {
        let a: Arena = Arena::for_threads(8, 4);
        a.write_unchecked(3, 42);
        assert_eq!(a.read_unchecked(3), 42);
        assert_eq!(a.payload_bytes(), 64);
        assert_eq!(a.shadow_bytes(), 4, "1 shadow byte per 16 payload bytes");
    }

    #[test]
    fn checked_single_thread_no_conflicts() {
        let a: Arena = Arena::for_threads(8, 4);
        let mut ctx = ThreadCtx::new(ThreadId(1));
        a.write_checked(&mut ctx, 0, 1);
        assert_eq!(a.read_checked(&mut ctx, 0), 1);
        assert_eq!(ctx.conflicts, 0);
        assert_eq!(ctx.checked_accesses, 2);
    }

    #[test]
    fn checked_cross_thread_write_conflicts() {
        let a: Arena = Arena::for_threads(2, 4);
        let mut c1 = ThreadCtx::new(ThreadId(1));
        let mut c2 = ThreadCtx::new(ThreadId(2));
        a.write_checked(&mut c1, 0, 1);
        a.write_checked(&mut c2, 0, 2);
        assert_eq!(c2.conflicts, 1);
    }

    #[test]
    fn thread_exit_enables_reuse() {
        let a: Arena = Arena::for_threads(2, 4);
        let mut c1 = ThreadCtx::new(ThreadId(1));
        a.write_checked(&mut c1, 0, 1);
        a.thread_exit(&mut c1);
        let mut c2 = ThreadCtx::new(ThreadId(2));
        a.write_checked(&mut c2, 0, 2);
        assert_eq!(c2.conflicts, 0);
    }

    #[test]
    fn clear_range_covers_granules() {
        let a: Arena = Arena::for_threads(8, 4);
        let mut c1 = ThreadCtx::new(ThreadId(1));
        for i in 0..8 {
            a.write_checked(&mut c1, i, i as u64);
        }
        a.clear_range(0, 8);
        let mut c2 = ThreadCtx::new(ThreadId(2));
        for i in 0..8 {
            a.write_checked(&mut c2, i, 0);
        }
        assert_eq!(c2.conflicts, 0);
    }

    #[test]
    fn coalesced_thread_exit_matches_per_granule_clear() {
        // `thread_exit` coalesces the access log into runs and clears
        // them with `clear_thread_range`; the final shadow words must
        // be bit-identical to the per-granule `clear_thread` fold it
        // replaced — including granules another thread still reads.
        let drive = |a: &Arena| -> (ThreadCtx, ThreadCtx) {
            let mut c1 = ThreadCtx::new(ThreadId(1));
            let mut c2 = ThreadCtx::new(ThreadId(2));
            // Two disjoint runs, logged out of order and with
            // duplicates (read-then-write registers a granule twice).
            for i in (20..28).rev() {
                a.write_checked(&mut c1, i, i as u64);
            }
            for i in 0..8 {
                let _ = a.read_checked(&mut c1, i);
                a.write_checked(&mut c1, i, i as u64);
            }
            // Thread 2 shares reads on part of the first run: its
            // reader bits must survive thread 1's exit.
            for i in 0..4 {
                let _ = a.read_checked(&mut c2, i);
            }
            (c1, c2)
        };
        let coalesced: Arena = Arena::for_threads(32, 4);
        let folded: Arena = Arena::for_threads(32, 4);
        let (mut exit_c1, _keep2) = drive(&coalesced);
        let (mut fold_c1, _keep2b) = drive(&folded);
        assert_eq!(exit_c1.access_log, fold_c1.access_log);
        coalesced.thread_exit(&mut exit_c1);
        // The pre-coalescing semantics: one clear per logged granule.
        for g in fold_c1.access_log.drain(..) {
            with_shadow!(&folded.shadow, s => s.clear_thread(g, ThreadId(1)));
        }
        for g in 0..16 {
            assert_eq!(
                with_shadow!(&coalesced.shadow, s => s.raw(g)),
                with_shadow!(&folded.shadow, s => s.raw(g)),
                "granule {g} diverged"
            );
        }
        assert!(exit_c1.access_log.is_empty(), "exit drains the log");
    }

    #[test]
    fn false_sharing_at_16_byte_granularity() {
        // Words 0 and 1 share a granule: distinct objects, same
        // 16-byte chunk — the §4.5 false-positive source.
        let a: Arena = Arena::for_threads(2, 4);
        let mut c1 = ThreadCtx::new(ThreadId(1));
        let mut c2 = ThreadCtx::new(ThreadId(2));
        a.write_checked(&mut c1, 0, 1);
        a.write_checked(&mut c2, 1, 2);
        assert_eq!(c2.conflicts, 1, "false sharing detected as a conflict");
    }

    #[test]
    fn policies_are_equivalent_functionally() {
        fn sum<P: AccessPolicy>(a: &Arena, ctx: &mut ThreadCtx) -> u64 {
            for i in 0..16 {
                P::write(a, ctx, i, i as u64);
            }
            (0..16).map(|i| P::read(a, ctx, i)).sum()
        }
        let a: Arena = Arena::for_threads(16, 4);
        let mut ctx = ThreadCtx::new(ThreadId(1));
        let s1 = sum::<Unchecked>(&a, &mut ctx);
        let s2 = sum::<Checked>(&a, &mut ctx);
        assert_eq!(s1, s2);
        assert_eq!(s1, 120);
        assert!(ctx.total_accesses > 0);
    }

    #[test]
    fn cached_policy_matches_checked_verdicts() {
        let a: Arena = Arena::for_threads(16, 4);
        let mut c1 = ThreadCtx::new(ThreadId(1));
        for rep in 0..8 {
            for i in 0..16 {
                a.write_cached(&mut c1, i, rep);
            }
        }
        assert_eq!(c1.conflicts, 0);
        assert_eq!(
            c1.owned_cache.misses,
            16 / GRANULE_WORDS as u64,
            "one fill per granule, every repeat on the fast path"
        );
        // Cross-thread conflict still observed by the slow path.
        let mut c2 = ThreadCtx::new(ThreadId(2));
        a.write_cached(&mut c2, 0, 9);
        assert_eq!(c2.conflicts, 1);
    }

    #[test]
    fn cached_policy_sees_clear_range() {
        let a: Arena = Arena::for_threads(4, 4);
        let mut c1 = ThreadCtx::new(ThreadId(1));
        a.write_cached(&mut c1, 0, 1);
        a.clear_range(0, 4);
        let mut c2 = ThreadCtx::new(ThreadId(2));
        a.write_cached(&mut c2, 0, 2);
        assert_eq!(c2.conflicts, 0);
        // Thread 1's cached ownership was invalidated by the clear:
        // its next access runs the real check and conflicts with the
        // new owner.
        a.write_cached(&mut c1, 0, 3);
        assert_eq!(c1.conflicts, 1);
    }

    #[test]
    fn cached_policy_survives_unrelated_free() {
        // 256 words = 128 granules over the default 64-region table:
        // freeing the low granules must not flush a worker's cached
        // ownership of the high granules (the cached-epoch-thrash
        // worst case per-region epochs exist to fix).
        let a: Arena = Arena::for_threads(256, 4);
        let mut c1 = ThreadCtx::new(ThreadId(1));
        a.write_cached(&mut c1, 255, 1);
        let fills = c1.owned_cache.misses;
        a.clear_range(0, 2); // a distant free
        a.write_cached(&mut c1, 255, 2);
        assert_eq!(c1.conflicts, 0);
        assert_eq!(
            c1.owned_cache.misses, fills,
            "the distant free must not cost a refill"
        );
        // The degenerate R = 1 table, where this free does cost the
        // refill, is pinned at the shadow level
        // (`shadow::tests::clear_leaves_other_regions_cached`).
    }

    #[test]
    fn ranged_sweep_data_and_verdicts_match_per_word_loop() {
        // Same payload and shadow outcome through the ranged path as
        // through the word loop; conflicts are per granule.
        let a: Arena = Arena::for_threads(32, 4);
        let b: Arena = Arena::for_threads(32, 4);
        let mut ca = ThreadCtx::new(ThreadId(1));
        let mut cb = ThreadCtx::new(ThreadId(1));
        for i in 0..32 {
            a.write_checked(&mut ca, i, i as u64 * 3);
        }
        b.write_range_checked(&mut cb, 0, 32, |i| i as u64 * 3);
        assert_eq!(ca.conflicts, 0);
        assert_eq!(cb.conflicts, 0);
        let mut sa = 0u64;
        let mut sb = 0u64;
        for i in 0..32 {
            sa += a.read_checked(&mut ca, i);
        }
        b.read_range_checked(&mut cb, 0, 32, |i, v| {
            assert_eq!(v, i as u64 * 3);
            sb += v;
        });
        assert_eq!(sa, sb);
        assert_eq!(ca.checked_accesses, cb.checked_accesses);
        // Both record ownership of the same granules.
        let mut la = ca.access_log.clone();
        la.sort_unstable();
        let mut lb = cb.access_log.clone();
        lb.sort_unstable();
        assert_eq!(la, lb);
    }

    #[test]
    fn ranged_sweep_counts_conflicting_granules_once() {
        let a: Arena = Arena::for_threads(8, 4);
        let mut intruder = ThreadCtx::new(ThreadId(2));
        a.write_checked(&mut intruder, 2, 9); // owns granule 1
        let mut ctx = ThreadCtx::new(ThreadId(1));
        a.write_range_checked(&mut ctx, 0, 8, |_| 0);
        assert_eq!(ctx.conflicts, 1, "granule 1 conflicts exactly once");
        // The per-word loop reports it once per word instead.
        let mut ctx2 = ThreadCtx::new(ThreadId(3));
        for i in 0..8 {
            a.write_checked(&mut ctx2, i, 0);
        }
        assert!(ctx2.conflicts >= 2, "per-word re-reports the granule");
    }

    #[test]
    fn cached_ranged_repeat_sweep_skips_the_shadow() {
        let a: Arena = Arena::for_threads(256, 4);
        let mut ctx = ThreadCtx::new(ThreadId(1));
        a.write_range_cached(&mut ctx, 0, 256, |i| i as u64);
        let fills = ctx.owned_cache.misses;
        for rep in 0..20 {
            a.write_range_cached(&mut ctx, 0, 256, |i| i as u64 + rep);
            let mut sum = 0u64;
            a.read_range_cached(&mut ctx, 0, 256, |_, v| sum += v);
        }
        assert_eq!(ctx.conflicts, 0);
        assert_eq!(
            ctx.owned_cache.misses, fills,
            "every repeat sweep is one run-stamp compare"
        );
        // A free inside the buffer invalidates the run; the next
        // sweep refills and still sees the new owner's conflict.
        a.clear_range(4, 2);
        let mut thief = ThreadCtx::new(ThreadId(2));
        a.write_checked(&mut thief, 4, 1);
        a.write_range_cached(&mut ctx, 0, 256, |i| i as u64);
        assert_eq!(ctx.conflicts, 1, "stale run cannot hide the thief");
    }

    #[test]
    fn ranged_policies_agree_with_per_word_policies() {
        fn sweep<P: AccessPolicy>(a: &Arena, ctx: &mut ThreadCtx) -> u64 {
            P::write_range(a, ctx, 0, 16, &mut |i| i as u64);
            let mut sum = 0;
            P::read_range(a, ctx, 0, 16, &mut |_, v| sum += v);
            sum
        }
        let a: Arena = Arena::for_threads(16, 4);
        let mut ctx = ThreadCtx::new(ThreadId(1));
        assert_eq!(sweep::<Unchecked>(&a, &mut ctx), 120);
        assert_eq!(sweep::<Checked>(&a, &mut ctx), 120);
        assert_eq!(sweep::<CachedChecked>(&a, &mut ctx), 120);
        assert_eq!(ctx.conflicts, 0);
        assert_eq!(ctx.total_accesses, 96);
    }

    #[test]
    fn ranged_sweeps_emit_range_events_that_replay_clean() {
        use crate::events::EventLog;
        use sharc_checker::{replay, BitmapBackend};
        let a: Arena = Arena::for_threads(8, 4);
        let log = Arc::new(EventLog::new());
        let mut ctx = ThreadCtx::with_sink(ThreadId(1), log.clone());
        a.write_range_checked(&mut ctx, 0, 8, |i| i as u64);
        a.read_range_checked(&mut ctx, 0, 8, |_, _| {});
        let evs = log.snapshot();
        assert_eq!(
            evs,
            vec![
                sharc_checker::CheckEvent::RangeWrite {
                    tid: 1,
                    granule: 0,
                    len: 4
                },
                sharc_checker::CheckEvent::RangeRead {
                    tid: 1,
                    granule: 0,
                    len: 4
                },
            ]
        );
        assert!(replay(&evs, &mut BitmapBackend::new()).is_empty());
    }

    #[test]
    fn concurrent_partitioned_checked_access_is_clean() {
        let a: Arc<Arena> = Arc::new(Arena::for_threads(64, 4));
        let mut handles = Vec::new();
        for t in 1..=4u32 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut ctx = ThreadCtx::new(ThreadId(t));
                let base = (t as usize - 1) * 16;
                for i in 0..16 {
                    a.write_checked(&mut ctx, base + i, i as u64);
                }
                let c = ctx.conflicts;
                a.thread_exit(&mut ctx);
                c
            }));
        }
        let conflicts: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(conflicts, 0);
    }

    // ----- the engine choice and the sharded engine past 7 tids -----

    #[test]
    fn thread_count_picks_the_engine() {
        let n = GRANULE_WORDS * 4;
        assert_eq!(
            Arena::for_threads(n, 7).shadow_bytes(),
            4,
            "one byte per granule while every tid fits in it"
        );
        let shards = ShadowGeometry::for_threads(8).shards();
        assert_eq!(
            Arena::for_threads(n, 8).shadow_bytes(),
            4 * 8 * (shards + 1),
            "8 × (shards + 1) bytes per granule past 7 tids"
        );
    }

    #[test]
    fn wide_tids_keep_exact_identities_past_63() {
        let a = Arena::for_threads(8, 256);
        let mut lo = ThreadCtx::new(ThreadId(1));
        let mut hi = ThreadCtx::new(ThreadId(200));
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
        let a = Arena::for_threads(4, 256);
        let mut first = ThreadCtx::new(ThreadId(70));
        a.write_cached(&mut first, 0, 1);
        a.thread_exit(&mut first);
        let mut second = ThreadCtx::new(ThreadId(140));
        a.write_cached(&mut second, 0, 2);
        assert_eq!(second.conflicts, 0, "exited writer's bits are gone");
    }

    #[test]
    fn wide_ranged_sweep_counts_conflicts_per_granule() {
        let a = Arena::for_threads(GRANULE_WORDS * 4, 256);
        let mut owner = ThreadCtx::new(ThreadId(90));
        a.write_range_checked(&mut owner, 0, GRANULE_WORDS * 4, |i| i as u64);
        assert_eq!(owner.conflicts, 0);
        let mut intruder = ThreadCtx::new(ThreadId(3));
        a.write_range_checked(&mut intruder, 0, GRANULE_WORDS * 4, |_| 0);
        assert_eq!(intruder.conflicts, 4, "one report per conflicting granule");
    }

    #[test]
    fn wide_clear_range_models_the_sharing_cast() {
        let a = Arena::for_threads(GRANULE_WORDS * 2, 256);
        let mut acceptor = ThreadCtx::new(ThreadId(1));
        a.write_range_checked(&mut acceptor, 0, GRANULE_WORDS * 2, |i| i as u64);
        a.clear_range(0, GRANULE_WORDS * 2);
        let mut worker = ThreadCtx::new(ThreadId(250));
        a.read_range_cached(&mut worker, 0, GRANULE_WORDS * 2, |_, _| {});
        a.write_range_cached(&mut worker, 0, GRANULE_WORDS * 2, |i| i as u64 + 1);
        assert_eq!(worker.conflicts, 0, "cast hands the buffer off cleanly");
    }

    #[test]
    fn policies_agree_on_values_and_the_spine_sees_wide_tids() {
        use crate::events::EventLog;
        let sink = Arc::new(EventLog::new());
        let a = Arena::for_threads(GRANULE_WORDS * 2, 256);
        let mut ctx = ThreadCtx::with_sink(ThreadId(200), sink.clone());
        CachedChecked::write(&a, &mut ctx, 0, 42);
        assert_eq!(CachedChecked::read(&a, &mut ctx, 0), 42);
        assert_eq!(Checked::read(&a, &mut ctx, 0), 42);
        assert_eq!(Unchecked::read(&a, &mut ctx, 0), 42);
        let evs = sink.snapshot();
        assert!(evs
            .iter()
            .any(|e| matches!(e, CheckEvent::Write { tid: 200, .. })));
    }
}
