//! The pluggable check-engine interface.
//!
//! A [`CheckBackend`] is anything that can answer SharC's four
//! runtime checks — `chkread`, `chkwrite`, `lock_held`, `oneref` —
//! while being kept current with the synchronization and lifecycle
//! events those checks depend on. Three families implement it:
//!
//! * [`BitmapBackend`] (here) — the paper's own engine: the pure
//!   bitmap state machine from [`crate::step`] over a growable word
//!   store, with per-thread access logs and held-lock logs. The
//!   VM's verdicts coincide with this backend by construction.
//! * `sharc-detectors`' Eraser lockset and vector-clock engines,
//!   adapted through the same interface, so `sharc run --detector
//!   sharc|eraser|vc` can cross-validate *one* seeded execution
//!   through any engine.
//! * `sharc-detectors`' `Online<D>` sharded front-end, for real
//!   threads.
//!
//! [`replay`] drives a [`CheckEvent`] trace through a backend and
//! collects every conflict — the workhorse of the differential tests
//! and of the CLI's `--detector` switch.

use crate::geometry::ShadowGeometry;
use crate::step::{adaptive, bitmap, sharded, sharded::ShardStep, Access};
use std::collections::HashMap;

/// Which check a conflict came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// A `chkread` that raced with another thread's write.
    Read,
    /// A `chkwrite` that raced with another thread's access.
    Write,
    /// A `locked(l)` access without `l` held.
    Lock,
    /// A sharing cast on an object with other live references.
    OneRef,
}

/// A failed runtime check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conflict {
    pub kind: CheckKind,
    /// The thread performing the failing access.
    pub tid: u32,
    /// The granule (or, for [`CheckKind::Lock`], the lock id).
    pub granule: usize,
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            CheckKind::Read => write!(
                f,
                "read conflict at granule {} (thread {})",
                self.granule, self.tid
            ),
            CheckKind::Write => write!(
                f,
                "write conflict at granule {} (thread {})",
                self.granule, self.tid
            ),
            CheckKind::Lock => write!(f, "lock {} not held (thread {})", self.granule, self.tid),
            CheckKind::OneRef => write!(
                f,
                "sharing cast failed at granule {} (thread {})",
                self.granule, self.tid
            ),
        }
    }
}

/// The outcome of one runtime check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Fail(Conflict),
}

impl Verdict {
    /// True if the check failed.
    #[inline]
    pub fn is_conflict(self) -> bool {
        matches!(self, Verdict::Fail(_))
    }

    /// The conflict, if the check failed.
    #[inline]
    pub fn conflict(self) -> Option<Conflict> {
        match self {
            Verdict::Pass => None,
            Verdict::Fail(c) => Some(c),
        }
    }
}

/// One entry of an execution trace at check granularity — the
/// vocabulary shared by every engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckEvent {
    /// A dynamic-mode read of `granule` (`chkread`).
    Read {
        tid: u32,
        granule: usize,
    },
    /// A dynamic-mode write of `granule` (`chkwrite`).
    Write {
        tid: u32,
        granule: usize,
    },
    /// A ranged dynamic-mode read of `len` contiguous granules
    /// starting at `granule` — one event per buffer sweep. [`replay`]
    /// **lowers** it to `len` per-granule `chkread`s for *every*
    /// backend, so the fold contract holds by construction: a range
    /// event's verdicts (SharC, Eraser, VC alike) are bit-identical
    /// to the per-granule event sequence it abbreviates.
    RangeRead {
        tid: u32,
        granule: usize,
        len: usize,
    },
    /// The write analogue of [`CheckEvent::RangeRead`].
    RangeWrite {
        tid: u32,
        granule: usize,
        len: usize,
    },
    /// A `locked(l)`-mode access requiring `lock` held.
    LockedAccess {
        tid: u32,
        lock: usize,
    },
    /// A sharing cast of the object at `granule` observing `refs`
    /// live references (the cast itself included).
    SharingCast {
        tid: u32,
        granule: usize,
        refs: u64,
    },
    /// A ranged sharing cast: ONE event for a whole-block ownership
    /// transfer covering `len` contiguous granules starting at
    /// `granule`, each observing `refs` live references. [`replay`]
    /// lowers it to `len` per-granule [`CheckEvent::SharingCast`]s
    /// for every backend — same fold contract as
    /// [`CheckEvent::RangeRead`], so sharc/eraser/vc verdicts are
    /// bit-identical to the per-granule spelling by construction.
    RangeCast {
        tid: u32,
        granule: usize,
        len: usize,
        refs: u64,
    },
    /// A ranged free: `len` contiguous granules starting at `granule`
    /// are reset at once (one event per whole-block `free`). Lowers to
    /// `len` per-granule [`CheckEvent::Alloc`]s — the existing
    /// granule-reset event — on every backend.
    RangeFree {
        granule: usize,
        len: usize,
    },
    Acquire {
        tid: u32,
        lock: usize,
    },
    Release {
        tid: u32,
        lock: usize,
    },
    Fork {
        parent: u32,
        child: u32,
    },
    Join {
        parent: u32,
        child: u32,
    },
    /// `tid`'s lifetime ends; its shadow contribution is cleared.
    ThreadExit {
        tid: u32,
    },
    /// `granule` is freshly (re)allocated: all engines reset it.
    Alloc {
        granule: usize,
    },
}

/// A runtime-check engine: the four checks of §3/§4.2 plus the
/// events that keep the engine's state current.
pub trait CheckBackend {
    /// The engine's name, for reports and JSON.
    fn name(&self) -> &'static str;

    /// The `chkread` check-and-record for `tid` on `granule`.
    fn chkread(&mut self, tid: u32, granule: usize) -> Verdict;

    /// The `chkwrite` check-and-record for `tid` on `granule`.
    fn chkwrite(&mut self, tid: u32, granule: usize) -> Verdict;

    /// The `locked(l)` check: is `lock` in `tid`'s held-lock log?
    fn lock_held(&self, tid: u32, lock: usize) -> bool;

    /// The `oneref` check at a sharing cast. The default is the
    /// paper's rule: the reference being cast must be the only one.
    fn oneref(&mut self, tid: u32, granule: usize, refs: u64) -> Verdict {
        if refs <= 1 {
            Verdict::Pass
        } else {
            Verdict::Fail(Conflict {
                kind: CheckKind::OneRef,
                tid,
                granule,
            })
        }
    }

    /// `tid` acquired `lock`.
    fn on_acquire(&mut self, _tid: u32, _lock: usize) {}
    /// `tid` released `lock`.
    fn on_release(&mut self, _tid: u32, _lock: usize) {}
    /// `parent` spawned `child`.
    fn on_fork(&mut self, _parent: u32, _child: u32) {}
    /// `parent` joined `child`.
    fn on_join(&mut self, _parent: u32, _child: u32) {}
    /// `tid` exited; non-overlapping lifetimes are not races.
    fn on_thread_exit(&mut self, _tid: u32) {}
    /// `granule` was freshly (re)allocated.
    fn on_alloc(&mut self, _granule: usize) {}
    /// A *successful* sharing cast changed `granule`'s mode: SharC's
    /// engine forgets its history; engines with no ownership model
    /// (Eraser, vector clocks) ignore this — which is exactly why
    /// they false-positive on ownership-transfer idioms.
    fn on_cast_clear(&mut self, _granule: usize) {}
}

/// Applies one event to `backend`, pushing any conflict onto `out`.
///
/// This is the single lowering step shared by [`replay`] (the offline
/// fold) and the streaming collector (`crate::stream`): both verdict
/// paths run byte-for-byte the same code, which is what makes
/// streaming ≡ replay a structural property rather than a test-only
/// coincidence.
///
/// Generic over the backend so a concrete engine (`&mut BitmapBackend`)
/// is monomorphised with its checks inlined, while `&mut dyn
/// CheckBackend` callers (the parallel workers, the streaming
/// collector) still work through `?Sized`.
pub fn apply_event<B: CheckBackend + ?Sized>(
    e: CheckEvent,
    backend: &mut B,
    out: &mut Vec<Conflict>,
) {
    let verdict = match e {
        CheckEvent::Read { tid, granule } => backend.chkread(tid, granule),
        CheckEvent::Write { tid, granule } => backend.chkwrite(tid, granule),
        // Replay-lowering: a range event is *exactly* its
        // per-granule expansion, for every backend — each
        // granule's verdict is collected individually, so a
        // conflicting granule mid-range reports just like the
        // unabbreviated trace would.
        CheckEvent::RangeRead { tid, granule, len } => {
            for g in granule..granule + len {
                if let Verdict::Fail(c) = backend.chkread(tid, g) {
                    out.push(c);
                }
            }
            Verdict::Pass // per-granule failures already pushed
        }
        CheckEvent::RangeWrite { tid, granule, len } => {
            for g in granule..granule + len {
                if let Verdict::Fail(c) = backend.chkwrite(tid, g) {
                    out.push(c);
                }
            }
            Verdict::Pass
        }
        CheckEvent::LockedAccess { tid, lock } => {
            if backend.lock_held(tid, lock) {
                Verdict::Pass
            } else {
                Verdict::Fail(Conflict {
                    kind: CheckKind::Lock,
                    tid,
                    granule: lock,
                })
            }
        }
        CheckEvent::SharingCast { tid, granule, refs } => {
            let v = backend.oneref(tid, granule, refs);
            if !v.is_conflict() {
                backend.on_cast_clear(granule);
            }
            v
        }
        // A ranged cast is exactly its per-granule expansion: each
        // granule runs the full oneref-then-clear-on-pass step, so a
        // failing granule mid-range conflicts (and keeps its state)
        // just as the unabbreviated trace would.
        CheckEvent::RangeCast {
            tid,
            granule,
            len,
            refs,
        } => {
            for g in granule..granule + len {
                let v = backend.oneref(tid, g, refs);
                if let Verdict::Fail(c) = v {
                    out.push(c);
                } else {
                    backend.on_cast_clear(g);
                }
            }
            Verdict::Pass
        }
        CheckEvent::RangeFree { granule, len } => {
            for g in granule..granule + len {
                backend.on_alloc(g);
            }
            Verdict::Pass
        }
        CheckEvent::Acquire { tid, lock } => {
            backend.on_acquire(tid, lock);
            Verdict::Pass
        }
        CheckEvent::Release { tid, lock } => {
            backend.on_release(tid, lock);
            Verdict::Pass
        }
        CheckEvent::Fork { parent, child } => {
            backend.on_fork(parent, child);
            Verdict::Pass
        }
        CheckEvent::Join { parent, child } => {
            backend.on_join(parent, child);
            Verdict::Pass
        }
        CheckEvent::ThreadExit { tid } => {
            backend.on_thread_exit(tid);
            Verdict::Pass
        }
        CheckEvent::Alloc { granule } => {
            backend.on_alloc(granule);
            Verdict::Pass
        }
    };
    if let Verdict::Fail(c) = verdict {
        out.push(c);
    }
}

/// Drives a trace through `backend`, collecting every conflict. One
/// seeded execution replayed through several backends is the
/// workspace's cross-validation methodology (§6.2).
pub fn replay<B: CheckBackend + ?Sized>(events: &[CheckEvent], backend: &mut B) -> Vec<Conflict> {
    let mut out = Vec::new();
    for &e in events {
        apply_event(e, backend, &mut out);
    }
    out
}

/// The largest thread id a trace mentions (0 for an empty trace —
/// `Alloc` carries no tid).
pub fn max_trace_tid(events: &[CheckEvent]) -> u32 {
    events
        .iter()
        .map(|e| match *e {
            CheckEvent::Read { tid, .. }
            | CheckEvent::Write { tid, .. }
            | CheckEvent::RangeRead { tid, .. }
            | CheckEvent::RangeWrite { tid, .. }
            | CheckEvent::LockedAccess { tid, .. }
            | CheckEvent::SharingCast { tid, .. }
            | CheckEvent::RangeCast { tid, .. }
            | CheckEvent::Acquire { tid, .. }
            | CheckEvent::Release { tid, .. }
            | CheckEvent::ThreadExit { tid } => tid,
            CheckEvent::Fork { parent, child } | CheckEvent::Join { parent, child } => {
                parent.max(child)
            }
            CheckEvent::Alloc { .. } | CheckEvent::RangeFree { .. } => 0,
        })
        .max()
        .unwrap_or(0)
}

/// The shard geometry that keeps every tid in `events` exact: one
/// derivation of `ShadowGeometry` from a trace, shared by
/// `judge_trace`, the differential tests, and the bench harness
/// instead of each re-deriving it from a private max-tid scan.
pub fn geometry_for_trace(events: &[CheckEvent]) -> ShadowGeometry {
    ShadowGeometry::for_threads((max_trace_tid(events) as usize).max(1))
}

/// One past the largest granule any event in `events` touches (0 for
/// a trace with no granule-addressed events). Range events count
/// their whole extent. This is the granule-space twin of
/// [`max_trace_tid`]: the binary trace header records it, and the
/// parallel replay partition is sized from it.
pub fn trace_granule_span(events: &[CheckEvent]) -> usize {
    events
        .iter()
        .map(|e| match *e {
            CheckEvent::Read { granule, .. }
            | CheckEvent::Write { granule, .. }
            | CheckEvent::SharingCast { granule, .. }
            | CheckEvent::Alloc { granule } => granule + 1,
            CheckEvent::RangeRead { granule, len, .. }
            | CheckEvent::RangeWrite { granule, len, .. }
            | CheckEvent::RangeCast { granule, len, .. }
            | CheckEvent::RangeFree { granule, len } => granule + len.max(1),
            CheckEvent::LockedAccess { .. }
            | CheckEvent::Acquire { .. }
            | CheckEvent::Release { .. }
            | CheckEvent::Fork { .. }
            | CheckEvent::Join { .. }
            | CheckEvent::ThreadExit { .. } => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Expands every range event into its per-granule events, leaving
/// everything else verbatim — the explicit form of the lowering
/// [`replay`] performs implicitly. `replay(events) ==
/// replay(lower_ranges(events))` for every backend (pinned by the
/// trace round-trip property and the engine differentials), which is
/// what makes a `v2` trace with ranges interchangeable with the `v1`
/// per-granule trace it abbreviates.
pub fn lower_ranges(events: &[CheckEvent]) -> Vec<CheckEvent> {
    let mut out = Vec::with_capacity(events.len());
    for &e in events {
        match e {
            CheckEvent::RangeRead { tid, granule, len } => {
                out.extend((granule..granule + len).map(|g| CheckEvent::Read { tid, granule: g }));
            }
            CheckEvent::RangeWrite { tid, granule, len } => {
                out.extend((granule..granule + len).map(|g| CheckEvent::Write { tid, granule: g }));
            }
            CheckEvent::RangeCast {
                tid,
                granule,
                len,
                refs,
            } => {
                out.extend((granule..granule + len).map(|g| CheckEvent::SharingCast {
                    tid,
                    granule: g,
                    refs,
                }));
            }
            CheckEvent::RangeFree { granule, len } => {
                out.extend((granule..granule + len).map(|g| CheckEvent::Alloc { granule: g }));
            }
            other => out.push(other),
        }
    }
    out
}

/// Per-thread state keyed by tid, without hashing on the hot path.
///
/// Tids inside the geometry's exact range — the range the caller
/// sized the shadow for, so in practice every tid of a judged trace —
/// index a dense vector grown to the largest such tid seen. Tids past
/// it (up to 2³⁰ − 1, and rare) fall back to a map. Memory is
/// therefore bounded by the exact range plus the number of distinct
/// overflow tids, never by a tid's value.
#[derive(Debug)]
struct ThreadTable<T> {
    dense: Vec<T>,
    /// Tids `0..=dense_max` take the dense vector.
    dense_max: usize,
    sparse: HashMap<u32, T>,
}

impl<T: Default> ThreadTable<T> {
    fn new(dense_max: usize) -> Self {
        ThreadTable {
            dense: Vec::new(),
            dense_max,
            sparse: HashMap::new(),
        }
    }

    #[inline]
    fn get(&self, tid: u32) -> Option<&T> {
        let t = tid as usize;
        if t <= self.dense_max {
            self.dense.get(t)
        } else {
            self.sparse.get(&tid)
        }
    }

    #[inline]
    fn get_mut(&mut self, tid: u32) -> Option<&mut T> {
        let t = tid as usize;
        if t <= self.dense_max {
            self.dense.get_mut(t)
        } else {
            self.sparse.get_mut(&tid)
        }
    }

    /// `tid`'s entry, created empty on first use.
    #[inline]
    fn entry(&mut self, tid: u32) -> &mut T {
        let t = tid as usize;
        if t <= self.dense_max {
            if t >= self.dense.len() {
                self.dense.resize_with(t + 1, T::default);
            }
            &mut self.dense[t]
        } else {
            self.sparse.entry(tid).or_default()
        }
    }

    /// Removes and returns `tid`'s entry (empty if it had none).
    fn take(&mut self, tid: u32) -> T {
        let t = tid as usize;
        if t <= self.dense_max {
            self.dense
                .get_mut(t)
                .map(std::mem::take)
                .unwrap_or_default()
        } else {
            self.sparse.remove(&tid).unwrap_or_default()
        }
    }
}

/// The reference engine: the sharded bitmap state machine over a
/// growable word store. Single-threaded (serialize externally — the
/// VM's scheduler does, `Online` uses sharded locks); the verdicts
/// are identical to `sharc-runtime`'s CAS wrappers because all of
/// them run [`sharded::step`].
///
/// The default geometry is one shard — the paper's 63-thread-exact
/// configuration. [`BitmapBackend::with_geometry`] scales the exact
/// range arbitrarily (e.g. `ShadowGeometry::for_threads(256)` for
/// the high-tid differential oracle).
///
/// Accesses by a granule's exclusive owner skip `sharded::step`
/// (see DESIGN.md, "The sequential judge's fast path"); every other
/// access runs it.
#[derive(Debug)]
pub struct BitmapBackend {
    /// Flat store: granule `g`'s words live at
    /// `g * stride .. (g + 1) * stride`.
    words: Vec<u64>,
    geom: ShadowGeometry,
    /// Granules each thread installed bits into, for exit clearing.
    logs: ThreadTable<Vec<usize>>,
    /// Held-lock log per thread (§4.2.2).
    held: ThreadTable<Vec<usize>>,
}

impl Default for BitmapBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl BitmapBackend {
    /// Creates an empty engine with the default one-shard geometry
    /// (exact up to 63 threads, adaptive overflow beyond).
    pub fn new() -> Self {
        Self::with_geometry(ShadowGeometry::default())
    }

    /// Creates an empty engine over `geom` — e.g.
    /// `ShadowGeometry::for_threads(256)` keeps exact reader
    /// identities for tids up to 315.
    pub fn with_geometry(geom: ShadowGeometry) -> Self {
        BitmapBackend {
            words: Vec::new(),
            geom,
            logs: ThreadTable::new(geom.exact_threads()),
            held: ThreadTable::new(geom.exact_threads()),
        }
    }

    /// The engine's shard layout.
    pub fn geometry(&self) -> ShadowGeometry {
        self.geom
    }

    #[inline]
    fn ensure(&mut self, granule: usize) -> usize {
        let stride = self.geom.words_per_granule();
        let base = granule * stride;
        if base + stride > self.words.len() {
            self.words.resize(base + stride, 0);
        }
        base
    }

    /// One `chkread`/`chkwrite`.
    ///
    /// **Exclusive-owner fast path.** If `tid`'s own word is exactly
    /// its writer state — `WRITER_FLAG | bit(tid)` in its shard, or
    /// `EXCL(tid)` in the overflow word for an overflow tid — the
    /// access passes without a `sharded::step` and without scanning
    /// the other words. This is sound by the single-writer invariant:
    /// a word in writer state implies every other word of the granule
    /// is empty, because a write installs only when no foreign state
    /// exists, a foreign access is refused while the writer stands,
    /// and `clear_thread`/`on_alloc` only remove state. So the full
    /// step would return `Unchanged` (debug builds check both). The
    /// concurrent `ShardedShadow` keeps the full step: racing writers
    /// in two shards can both install before revalidating, and its
    /// snapshots can be torn between words, so the invariant holds
    /// only for serialized states.
    #[inline]
    fn access(&mut self, tid: u32, granule: usize, access: Access) -> Verdict {
        assert!(
            tid >= 1 && (tid as u64) <= adaptive::TID_MASK,
            "thread id out of range"
        );
        let geom = self.geom;
        let stride = geom.words_per_granule();
        let base = self.ensure(granule);
        let snapshot = &self.words[base..base + stride];
        let (own, writer) = match geom.shard_of(tid) {
            Some(s) => (s, bitmap::WRITER_FLAG | 1 << geom.local_bit(tid)),
            None => (
                geom.overflow_index(),
                adaptive::pack(adaptive::TAG_EXCL, tid),
            ),
        };
        if snapshot[own] == writer {
            debug_assert!(
                snapshot
                    .iter()
                    .enumerate()
                    .all(|(i, &w)| i == own || w == 0),
                "single-writer invariant broken at granule {granule}: {snapshot:x?}"
            );
            debug_assert_eq!(
                sharded::step(snapshot, geom, tid, access),
                ShardStep::Unchanged
            );
            return Verdict::Pass;
        }
        match sharded::step(snapshot, geom, tid, access) {
            ShardStep::Unchanged => Verdict::Pass,
            ShardStep::Install { index, word } => {
                self.words[base + index] = word;
                self.logs.entry(tid).push(granule);
                Verdict::Pass
            }
            ShardStep::Conflict => Verdict::Fail(Conflict {
                kind: if access.is_write() {
                    CheckKind::Write
                } else {
                    CheckKind::Read
                },
                tid,
                granule,
            }),
        }
    }

    /// The raw shard-0 shadow word — for tids `1..=63` under any
    /// geometry this is bit-for-bit the paper's single-word encoding,
    /// which is what the differential tests compare against the
    /// native `Shadow`'s word.
    pub fn raw(&self, granule: usize) -> u64 {
        self.words
            .get(granule * self.geom.words_per_granule())
            .copied()
            .unwrap_or(0)
    }

    /// All of a granule's shadow words (shards then overflow), for
    /// tests.
    pub fn raw_words(&self, granule: usize) -> Vec<u64> {
        let stride = self.geom.words_per_granule();
        let base = granule * stride;
        (base..base + stride)
            .map(|i| self.words.get(i).copied().unwrap_or(0))
            .collect()
    }
}

impl CheckBackend for BitmapBackend {
    fn name(&self) -> &'static str {
        "sharc-bitmap"
    }

    #[inline]
    fn chkread(&mut self, tid: u32, granule: usize) -> Verdict {
        self.access(tid, granule, Access::Read)
    }

    #[inline]
    fn chkwrite(&mut self, tid: u32, granule: usize) -> Verdict {
        self.access(tid, granule, Access::Write)
    }

    #[inline]
    fn lock_held(&self, tid: u32, lock: usize) -> bool {
        self.held.get(tid).is_some_and(|h| h.contains(&lock))
    }

    #[inline]
    fn on_acquire(&mut self, tid: u32, lock: usize) {
        self.held.entry(tid).push(lock);
    }

    #[inline]
    fn on_release(&mut self, tid: u32, lock: usize) {
        if let Some(h) = self.held.get_mut(tid) {
            if let Some(p) = h.iter().position(|&l| l == lock) {
                h.remove(p);
            }
        }
    }

    fn on_thread_exit(&mut self, tid: u32) {
        let stride = self.geom.words_per_granule();
        for g in self.logs.take(tid) {
            let base = g * stride;
            if base + stride <= self.words.len() {
                let snapshot = &self.words[base..base + stride];
                if let Some((index, word)) = sharded::clear_thread(snapshot, self.geom, tid) {
                    self.words[base + index] = word;
                }
            }
        }
        self.held.take(tid);
    }

    fn on_alloc(&mut self, granule: usize) {
        let stride = self.geom.words_per_granule();
        let base = granule * stride;
        let end = (base + stride).min(self.words.len());
        for w in &mut self.words[base.min(end)..end] {
            *w = 0;
        }
    }

    fn on_cast_clear(&mut self, granule: usize) {
        self.on_alloc(granule);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_backend_basic_race() {
        let mut b = BitmapBackend::new();
        assert_eq!(b.chkwrite(1, 0), Verdict::Pass);
        let v = b.chkwrite(2, 0);
        assert_eq!(
            v.conflict().map(|c| c.kind),
            Some(CheckKind::Write),
            "{v:?}"
        );
    }

    #[test]
    fn exit_clears_and_reuses() {
        let mut b = BitmapBackend::new();
        b.chkwrite(1, 3);
        b.on_thread_exit(1);
        assert_eq!(b.chkwrite(2, 3), Verdict::Pass);
    }

    #[test]
    fn lock_log_tracks_held() {
        let mut b = BitmapBackend::new();
        assert!(!b.lock_held(1, 9));
        b.on_acquire(1, 9);
        assert!(b.lock_held(1, 9));
        assert!(!b.lock_held(2, 9));
        b.on_release(1, 9);
        assert!(!b.lock_held(1, 9));
    }

    #[test]
    fn high_tids_keep_exact_identities_under_a_wide_geometry() {
        let mut b = BitmapBackend::with_geometry(ShadowGeometry::for_threads(256));
        // Readers in three different shards...
        assert_eq!(b.chkread(10, 0), Verdict::Pass);
        assert_eq!(b.chkread(100, 0), Verdict::Pass);
        assert_eq!(b.chkread(250, 0), Verdict::Pass);
        // ...block any writer...
        assert!(b.chkwrite(10, 0).is_conflict());
        // ...until each reader's exit subtracts its exact bit —
        // something the adaptive encoding cannot do at SHARED_READ.
        b.on_thread_exit(100);
        assert!(b.chkwrite(10, 0).is_conflict(), "250 still reads");
        b.on_thread_exit(250);
        // tid 10 is the only reader left: its own upgrade succeeds.
        assert_eq!(b.chkwrite(10, 0), Verdict::Pass);
    }

    /// The fold oracle: `sharded::step` on every write, exits cleared
    /// from plain maps.
    struct Fold {
        geom: ShadowGeometry,
        words: Vec<u64>,
        logs: HashMap<u32, Vec<usize>>,
        held: HashMap<u32, Vec<usize>>,
    }

    impl Fold {
        fn snap(&mut self, g: usize) -> &mut [u64] {
            let stride = self.geom.words_per_granule();
            &mut self.words[g * stride..(g + 1) * stride]
        }

        fn write(&mut self, tid: u32, g: usize) -> bool {
            let geom = self.geom;
            let snap = self.snap(g);
            match sharded::step(snap, geom, tid, Access::Write) {
                ShardStep::Unchanged => false,
                ShardStep::Install { index, word } => {
                    snap[index] = word;
                    self.logs.entry(tid).or_default().push(g);
                    false
                }
                ShardStep::Conflict => true,
            }
        }

        fn exit(&mut self, tid: u32) {
            let geom = self.geom;
            for g in self.logs.remove(&tid).unwrap_or_default() {
                let snap = self.snap(g);
                if let Some((index, word)) = sharded::clear_thread(snap, geom, tid) {
                    snap[index] = word;
                }
            }
            self.held.remove(&tid);
        }
    }

    #[test]
    fn thread_tables_stay_bounded_from_tid_1_to_the_largest_tid() {
        let tids = [1u32, 2, 63, 64, 315, 316, 4096, 1 << 20, (1 << 30) - 1];
        // Each tid writes its own granule, then the shared granule 0,
        // then its own again, takes a lock and checks it.
        let script = |b: &mut BitmapBackend, fold: &mut Fold| {
            for (i, &tid) in tids.iter().enumerate() {
                for g in [i + 1, 0, i + 1] {
                    let want = fold.write(tid, g);
                    assert_eq!(b.chkwrite(tid, g).is_conflict(), want, "tid {tid} g {g}");
                }
                b.on_acquire(tid, i);
                fold.held.entry(tid).or_default().push(i);
                for lock in [i, i + 1] {
                    let want = fold.held.get(&tid).is_some_and(|h| h.contains(&lock));
                    assert_eq!(b.lock_held(tid, lock), want, "tid {tid} lock {lock}");
                }
            }
        };
        for geom in [ShadowGeometry::default(), ShadowGeometry::for_threads(256)] {
            let mut b = BitmapBackend::with_geometry(geom);
            let mut fold = Fold {
                geom,
                words: vec![0; (tids.len() + 1) * geom.words_per_granule()],
                logs: HashMap::new(),
                held: HashMap::new(),
            };
            script(&mut b, &mut fold);
            // Dense slots never pass the exact range, whatever the
            // tid; each overflow tid costs one map entry.
            let overflow = tids.iter().filter(|&&t| geom.shard_of(t).is_none()).count();
            for table in [&b.logs, &b.held] {
                assert!(table.dense.len() <= geom.exact_threads() + 1, "{geom:?}");
                assert_eq!(table.sparse.len(), overflow, "{geom:?}");
            }
            for &tid in &tids {
                b.on_thread_exit(tid);
                fold.exit(tid);
            }
            assert!(b.logs.sparse.is_empty() && b.held.sparse.is_empty());
            for g in 0..=tids.len() {
                assert_eq!(b.raw_words(g), fold.snap(g), "{geom:?} granule {g}");
            }
            // Every tid comes back after its exit: same verdicts again.
            script(&mut b, &mut fold);
        }
    }

    #[test]
    fn replay_collects_conflicts_and_casts_clear() {
        let mut b = BitmapBackend::new();
        let trace = [
            CheckEvent::Write { tid: 1, granule: 0 },
            // A successful cast transfers ownership...
            CheckEvent::SharingCast {
                tid: 1,
                granule: 0,
                refs: 1,
            },
            // ...so the new owner writes cleanly.
            CheckEvent::Write { tid: 2, granule: 0 },
            // A failing cast (two refs) conflicts and does NOT clear.
            CheckEvent::SharingCast {
                tid: 2,
                granule: 0,
                refs: 2,
            },
            CheckEvent::Write { tid: 3, granule: 0 },
        ];
        let conflicts = replay(&trace, &mut b);
        assert_eq!(conflicts.len(), 2);
        assert_eq!(conflicts[0].kind, CheckKind::OneRef);
        assert_eq!(conflicts[1].kind, CheckKind::Write);
    }

    #[test]
    fn replay_locked_access_checks_log() {
        let mut b = BitmapBackend::new();
        let trace = [
            CheckEvent::LockedAccess { tid: 1, lock: 4 },
            CheckEvent::Acquire { tid: 1, lock: 4 },
            CheckEvent::LockedAccess { tid: 1, lock: 4 },
            CheckEvent::Release { tid: 1, lock: 4 },
            CheckEvent::LockedAccess { tid: 1, lock: 4 },
        ];
        let conflicts = replay(&trace, &mut b);
        assert_eq!(conflicts.len(), 2);
        assert!(conflicts.iter().all(|c| c.kind == CheckKind::Lock));
    }
}
