//! Differential testing of the three runtime-check engines that all
//! claim to implement the §4.2 granule state machine:
//!
//! * [`BitmapBackend`] — the VM's engine: `bitmap::step` applied
//!   directly, no atomics (the interpreter serializes instructions);
//! * [`Shadow`] — the native-threads engine: the same `bitmap::step`
//!   inside a compare-exchange retry loop, with and without the
//!   owned-granule epoch cache;
//! * [`ShardedShadow`] on the adaptive-only geometry
//!   ([`ShadowGeometry::adaptive_only`]) — the adaptive-encoding
//!   engine (`adaptive::step`), which forgets reader identities once
//!   a granule is read-shared.
//!
//! One seeded operation trace is driven through all of them and the
//! per-operation verdicts must be *identical* — not just the final
//! conflict counts. This holds because every engine obeys the shared
//! contract that a conflicting access leaves the shadow word
//! unchanged, so the engines stay in lockstep even after conflicts.
//!
//! Thread-exit clearing is deliberately absent from the generated
//! vocabulary: the adaptive encoding documents that it cannot clear
//! one reader out of a `SHARED_READ` granule (identities are not
//! tracked), so after `clear_thread` it is *soundly conservative*
//! rather than exact, and verdicts may legitimately diverge. Full
//! clears (`free` / sharing casts) are exact in every engine and are
//! generated.

use std::collections::HashMap;

use sharc_checker::{
    geometry_for_trace, Access, BitmapBackend, CheckBackend, CheckEvent, CheckKind, Conflict,
    EventSink, OwnedCache, ShadowGeometry, StreamingSink,
};
use sharc_detectors::{BaselineBackend, Eraser, VcDetector};
use sharc_runtime::{Shadow, ShardedShadow, ThreadId};
use sharc_testkit::gen::{self, Gen};
use sharc_testkit::prop::Config;
use sharc_testkit::{forall, prop_assert};

/// Granule universe for the generated traces: small enough that
/// threads collide constantly.
const GRANULES: usize = 8;
/// Thread universe: ids 1..=4 (0 is reserved in every encoding).
const THREADS: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read {
        tid: u32,
        granule: usize,
    },
    Write {
        tid: u32,
        granule: usize,
    },
    /// A full reset of one granule — `free` or a successful sharing
    /// cast. Exact in every engine.
    Clear {
        granule: usize,
    },
}

fn op_gen() -> Gen<Op> {
    let access = gen::pair(
        gen::u32_range(1..THREADS + 1),
        gen::usize_range(0..GRANULES),
    );
    gen::one_of(vec![
        access
            .clone()
            .map(|&(tid, granule)| Op::Read { tid, granule }),
        access
            .clone()
            .map(|&(tid, granule)| Op::Write { tid, granule }),
        // Clears are rarer than accesses so histories build up.
        gen::usize_range(0..GRANULES).map(|&granule| Op::Clear { granule }),
    ])
}

fn trace_gen() -> Gen<Vec<Op>> {
    gen::vec_of(op_gen(), 0..96)
}

fn cfg() -> Config {
    Config::from_env().with_cases(128)
}

/// The tentpole invariant: the VM's direct-step engine, the CAS
/// bitmap engine (cached and uncached), and the adaptive engine
/// return the same verdict for every operation of any trace.
#[test]
fn all_engines_agree_on_every_verdict() {
    forall!(
        "all_engines_agree_on_every_verdict",
        cfg(),
        trace_gen(),
        |ops| {
            let mut vm = BitmapBackend::new();
            let shadow: Shadow = Shadow::new(GRANULES);
            let cached: Shadow = Shadow::new(GRANULES);
            let mut caches: HashMap<u32, OwnedCache> = HashMap::new();
            let scalable = ShardedShadow::with_geometry(GRANULES, ShadowGeometry::adaptive_only());

            for (i, &op) in ops.iter().enumerate() {
                match op {
                    Op::Read { tid, granule } => {
                        let a = vm.chkread(tid, granule).is_conflict();
                        let b = shadow.check_read(granule, ThreadId(tid)).is_err();
                        let cache = caches.entry(tid).or_default();
                        let c = cached
                            .check_read_cached(granule, ThreadId(tid), cache)
                            .is_err();
                        let d = scalable.check_read(granule, ThreadId(tid)).is_err();
                        prop_assert!(a == b, "op {}: vm vs shadow (read)", i);
                        prop_assert!(b == c, "op {}: shadow vs cached (read)", i);
                        prop_assert!(b == d, "op {}: shadow vs scalable (read)", i);
                    }
                    Op::Write { tid, granule } => {
                        let a = vm.chkwrite(tid, granule).is_conflict();
                        let b = shadow.check_write(granule, ThreadId(tid)).is_err();
                        let cache = caches.entry(tid).or_default();
                        let c = cached
                            .check_write_cached(granule, ThreadId(tid), cache)
                            .is_err();
                        let d = scalable.check_write(granule, ThreadId(tid)).is_err();
                        prop_assert!(a == b, "op {}: vm vs shadow (write)", i);
                        prop_assert!(b == c, "op {}: shadow vs cached (write)", i);
                        prop_assert!(b == d, "op {}: shadow vs scalable (write)", i);
                    }
                    Op::Clear { granule } => {
                        vm.on_alloc(granule);
                        shadow.clear(granule);
                        cached.clear(granule);
                        scalable.clear(granule);
                    }
                }
            }
            // The two bitmap engines also agree on the *state*, word for
            // word, not only on verdicts.
            for g in 0..GRANULES {
                prop_assert!(vm.raw(g) == shadow.raw(g), "final word of granule {}", g);
                prop_assert!(
                    shadow.raw(g) == cached.raw(g),
                    "cached word of granule {}",
                    g
                );
            }
        }
    );
}

/// The per-region epoch refinement is invisible to verdicts: for any
/// trace, a cached engine over a real region table (here the finest
/// one — one granule per region), a cached engine over the degenerate
/// `R = 1` global table, the uncached engine, the adaptive engine,
/// and the VM's direct-step oracle all return the same verdict for
/// every single operation. Only the *cost* differs, which the `misses`
/// counters make observable: across the whole run the region-epoch
/// caches can never refill more often than the global-epoch ones.
#[test]
fn region_epoch_engines_agree_with_global_epoch() {
    forall!(
        "region_epoch_engines_agree_with_global_epoch",
        cfg(),
        trace_gen(),
        |ops| {
            let mut oracle = BitmapBackend::new();
            let uncached: Shadow = Shadow::new(GRANULES);
            let region: Shadow = Shadow::new(GRANULES);
            let global: Shadow = Shadow::with_epoch_regions(GRANULES, 1);
            let adaptive = ShardedShadow::with_geometry(GRANULES, ShadowGeometry::adaptive_only());
            let adaptive_global =
                ShardedShadow::with_epoch_regions(GRANULES, ShadowGeometry::adaptive_only(), 1);
            prop_assert!(
                region.epochs().regions() > 1,
                "the region engine must have a real table"
            );
            prop_assert!(global.epochs().regions() == 1, "the R = 1 degeneracy");
            let mut region_caches: HashMap<u32, OwnedCache> = HashMap::new();
            let mut global_caches: HashMap<u32, OwnedCache> = HashMap::new();
            let mut ad_region_caches: HashMap<u32, OwnedCache> = HashMap::new();
            let mut ad_global_caches: HashMap<u32, OwnedCache> = HashMap::new();

            for (i, &op) in ops.iter().enumerate() {
                let (tid, granule, is_write) = match op {
                    Op::Read { tid, granule } => (tid, granule, false),
                    Op::Write { tid, granule } => (tid, granule, true),
                    Op::Clear { granule } => {
                        oracle.on_alloc(granule);
                        uncached.clear(granule);
                        region.clear(granule);
                        global.clear(granule);
                        adaptive.clear(granule);
                        adaptive_global.clear(granule);
                        continue;
                    }
                };
                let t = ThreadId(tid);
                let rc = region_caches.entry(tid).or_default();
                let gc = global_caches.entry(tid).or_default();
                let arc = ad_region_caches.entry(tid).or_default();
                let agc = ad_global_caches.entry(tid).or_default();
                let verdicts = if is_write {
                    [
                        oracle.chkwrite(tid, granule).is_conflict(),
                        uncached.check_write(granule, t).is_err(),
                        region.check_write_cached(granule, t, rc).is_err(),
                        global.check_write_cached(granule, t, gc).is_err(),
                        adaptive.check_write_cached(granule, t, arc).is_err(),
                        adaptive_global.check_write_cached(granule, t, agc).is_err(),
                    ]
                } else {
                    [
                        oracle.chkread(tid, granule).is_conflict(),
                        uncached.check_read(granule, t).is_err(),
                        region.check_read_cached(granule, t, rc).is_err(),
                        global.check_read_cached(granule, t, gc).is_err(),
                        adaptive.check_read_cached(granule, t, arc).is_err(),
                        adaptive_global.check_read_cached(granule, t, agc).is_err(),
                    ]
                };
                prop_assert!(
                    verdicts.iter().all(|&v| v == verdicts[0]),
                    "op {} ({}): verdicts diverged {:?} \
                     [oracle, uncached, region, global, ad-region, ad-global]",
                    i,
                    if is_write { "write" } else { "read" },
                    verdicts
                );
            }
            // States agree word for word across the bitmap engines.
            for g in 0..GRANULES {
                prop_assert!(
                    oracle.raw(g) == region.raw(g) && region.raw(g) == global.raw(g),
                    "final word of granule {}",
                    g
                );
            }
            // Cost: partial invalidation can only remove refills. Per
            // thread, the region-epoch cache never misses more often
            // than the global-epoch cache on the identical trace.
            for (tid, rc) in &region_caches {
                let gc = &global_caches[tid];
                prop_assert!(
                    rc.misses <= gc.misses,
                    "tid {}: region cache refilled more than global ({} > {})",
                    tid,
                    rc.misses,
                    gc.misses
                );
            }
        }
    );
}

/// The epoch cache never changes which conflicts exist — only who
/// pays to discover them. Interleaving clears (epoch bumps) at
/// arbitrary points must leave the cached engine in lockstep; this
/// is implied by the test above but called out here because the
/// cache was *the* reason the engines were unified behind one
/// transition function.
#[test]
fn cache_is_invisible_under_adversarial_clears() {
    let shadow: Shadow = Shadow::new(4);
    let cached: Shadow = Shadow::new(4);
    let mut cache: OwnedCache = OwnedCache::with_slots(2); // force collisions
    let t1 = ThreadId(1);
    let t2 = ThreadId(2);
    for round in 0..50 {
        let g = round % 4;
        assert_eq!(
            shadow.check_write(g, t1).is_err(),
            cached.check_write_cached(g, t1, &mut cache).is_err(),
            "round {round} owner write"
        );
        if round % 7 == 0 {
            shadow.clear(g);
            cached.clear(g);
        }
        // The second thread always takes the slow path and must see
        // the conflict iff the uncached engine does.
        assert_eq!(
            shadow.check_read(g, t2).is_err(),
            cached.check_read(g, t2).is_err(),
            "round {round} intruder read"
        );
    }
}

/// Wide-tid vocabulary for the sharded differential: accesses from
/// ids spanning several shards, full clears, and thread exits (the
/// operation the adaptive encoding is documented to coarsen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WideOp {
    Read { tid: u32, granule: usize },
    Write { tid: u32, granule: usize },
    Clear { granule: usize },
    ThreadExit { tid: u32 },
}

const WIDE_THREADS: u32 = 256;

fn wide_op_gen() -> Gen<WideOp> {
    let access = gen::pair(
        gen::u32_range(1..WIDE_THREADS + 1),
        gen::usize_range(0..GRANULES),
    );
    gen::one_of(vec![
        access
            .clone()
            .map(|&(tid, granule)| WideOp::Read { tid, granule }),
        access
            .clone()
            .map(|&(tid, granule)| WideOp::Write { tid, granule }),
        gen::usize_range(0..GRANULES).map(|&granule| WideOp::Clear { granule }),
        gen::u32_range(1..WIDE_THREADS + 1).map(|&tid| WideOp::ThreadExit { tid }),
    ])
}

/// Beyond 63 threads the sharded engines must *stay* exact: for any
/// trace over tids `1..=256` the lock-free [`ShardedShadow`] (cached
/// and uncached) returns the same per-operation verdict — and ends
/// with the same shadow words — as the VM's [`BitmapBackend`] over
/// the identical five-shard geometry. The adaptive engine rides
/// along as the soundness baseline, pinned to its exact contract:
///
/// * verdicts are *identical* until the first thread exit
///   (`SHARED_READ` forgets reader identities, so exits are the one
///   operation it coarsens);
/// * the first verdict divergence, if any, is always an **extra**
///   adaptive conflict (a phantom retained reader), never a hidden
///   one. After that first extra report the histories legitimately
///   drift — conflicts never install, so the engines record
///   different access sets and per-op comparison is meaningless
///   (e.g. the exact engine installs a write the adaptive engine
///   rejected, and a later read then conflicts only in the exact
///   engine);
/// * what survives at whole-execution level: if the exact engines
///   report anything, the adaptive engine reports something too.
#[test]
fn sharded_engines_agree_up_to_256_threads() {
    let geom = ShadowGeometry::for_threads(WIDE_THREADS as usize);
    assert!(geom.shards() > 1, "the point is a multi-shard geometry");
    forall!(
        "sharded_engines_agree_up_to_256_threads",
        cfg(),
        gen::vec_of(wide_op_gen(), 0..96),
        |ops| {
            let mut oracle = BitmapBackend::with_geometry(geom);
            let sharded = ShardedShadow::with_geometry(GRANULES, geom);
            let cached = ShardedShadow::with_geometry(GRANULES, geom);
            // The same engine under the degenerate R = 1 epoch table:
            // the per-region refinement must be invisible to verdicts
            // even at five-shard geometry and 256 tids.
            let cached_global = ShardedShadow::with_epoch_regions(GRANULES, geom, 1);
            let mut caches: HashMap<u32, OwnedCache> = HashMap::new();
            let mut global_caches: HashMap<u32, OwnedCache> = HashMap::new();
            let adaptive = ShardedShadow::with_geometry(GRANULES, ShadowGeometry::adaptive_only());
            // Adaptive tracking: exact until the first exit; the
            // first divergence must be an extra adaptive conflict;
            // afterwards only the whole-trace implication holds.
            let mut exits_seen = false;
            let mut diverged = false;
            let mut exact_conflicts = 0usize;
            let mut adaptive_conflicts = 0usize;

            for (i, &op) in ops.iter().enumerate() {
                match op {
                    WideOp::Read { tid, granule } => {
                        let a = oracle.chkread(tid, granule).is_conflict();
                        let b = sharded.check_read(granule, ThreadId(tid)).is_err();
                        let cache = caches.entry(tid).or_default();
                        let c = cached
                            .check_read_cached(granule, ThreadId(tid), cache)
                            .is_err();
                        let gcache = global_caches.entry(tid).or_default();
                        let cg = cached_global
                            .check_read_cached(granule, ThreadId(tid), gcache)
                            .is_err();
                        let d = adaptive.check_read(granule, ThreadId(tid)).is_err();
                        prop_assert!(a == b, "op {}: oracle vs sharded (read)", i);
                        prop_assert!(b == c, "op {}: sharded vs cached (read)", i);
                        prop_assert!(c == cg, "op {}: region vs global epoch (read)", i);
                        exact_conflicts += a as usize;
                        adaptive_conflicts += d as usize;
                        if !diverged && a != d {
                            prop_assert!(exits_seen, "op {}: adaptive diverged before any exit", i);
                            prop_assert!(d && !a, "op {}: adaptive hid a read conflict", i);
                            diverged = true;
                        }
                    }
                    WideOp::Write { tid, granule } => {
                        let a = oracle.chkwrite(tid, granule).is_conflict();
                        let b = sharded.check_write(granule, ThreadId(tid)).is_err();
                        let cache = caches.entry(tid).or_default();
                        let c = cached
                            .check_write_cached(granule, ThreadId(tid), cache)
                            .is_err();
                        let gcache = global_caches.entry(tid).or_default();
                        let cg = cached_global
                            .check_write_cached(granule, ThreadId(tid), gcache)
                            .is_err();
                        let d = adaptive.check_write(granule, ThreadId(tid)).is_err();
                        prop_assert!(a == b, "op {}: oracle vs sharded (write)", i);
                        prop_assert!(b == c, "op {}: sharded vs cached (write)", i);
                        prop_assert!(c == cg, "op {}: region vs global epoch (write)", i);
                        exact_conflicts += a as usize;
                        adaptive_conflicts += d as usize;
                        if !diverged && a != d {
                            prop_assert!(exits_seen, "op {}: adaptive diverged before any exit", i);
                            prop_assert!(d && !a, "op {}: adaptive hid a write conflict", i);
                            diverged = true;
                        }
                    }
                    WideOp::Clear { granule } => {
                        oracle.on_alloc(granule);
                        sharded.clear(granule);
                        cached.clear(granule);
                        cached_global.clear(granule);
                        adaptive.clear(granule);
                    }
                    WideOp::ThreadExit { tid } => {
                        oracle.on_thread_exit(tid);
                        for g in 0..GRANULES {
                            // Clearing a granule the thread never
                            // touched is a no-op in every engine, so
                            // sweeping all of them mirrors the
                            // oracle's access-log walk.
                            sharded.clear_thread(g, ThreadId(tid));
                            cached.clear_thread(g, ThreadId(tid));
                            cached_global.clear_thread(g, ThreadId(tid));
                            adaptive.clear_thread(g, ThreadId(tid));
                        }
                        exits_seen = true;
                    }
                }
            }
            // Whole-execution soundness for the adaptive engine: it
            // may report extra conflicts and its history may drift
            // after doing so, but it never stays silent on a trace
            // the exact engines flag.
            prop_assert!(
                exact_conflicts == 0 || adaptive_conflicts > 0,
                "adaptive engine hid the whole race ({} exact conflicts)",
                exact_conflicts
            );
            // Beyond per-op verdicts, the sharded engines and the
            // oracle agree on every shadow word of every granule.
            for g in 0..GRANULES {
                prop_assert!(
                    oracle.raw_words(g) == sharded.raw_words(g),
                    "final words of granule {}",
                    g
                );
                prop_assert!(
                    sharded.raw_words(g) == cached.raw_words(g),
                    "cached words of granule {}",
                    g
                );
                prop_assert!(
                    cached.raw_words(g) == cached_global.raw_words(g),
                    "global-epoch words of granule {}",
                    g
                );
            }
        }
    );
}

/// The named cross-shard regression: ownership hand-off where the
/// producer and consumer live in *different shards* of the wide
/// geometry (tid 1 → shard 0, tid 200 → shard 3). The sharing cast
/// must clear every shard word, not just the producer's — a
/// shard-0-only clear would leave the producer's writer bit behind
/// and turn the legal hand-off into a phantom conflict.
#[test]
fn cross_shard_ownership_transfer_is_exact() {
    let geom = ShadowGeometry::for_threads(256);
    let (producer, consumer) = (1u32, 200u32);
    assert_ne!(
        geom.shard_of(producer),
        geom.shard_of(consumer),
        "the pair must straddle a shard boundary"
    );
    let g = 0;

    // Replay level: the wide BitmapBackend accepts the §2.1 trace.
    use CheckEvent as E;
    let trace = vec![
        E::Fork {
            parent: producer,
            child: consumer,
        },
        E::Write {
            tid: producer,
            granule: g,
        },
        E::SharingCast {
            tid: producer,
            granule: g,
            refs: 1,
        },
        E::Read {
            tid: consumer,
            granule: g,
        },
        E::Write {
            tid: consumer,
            granule: g,
        },
    ];
    let mut wide = BitmapBackend::with_geometry(geom);
    let conflicts = sharc_checker::replay(&trace, &mut wide);
    assert!(
        conflicts.is_empty(),
        "cross-shard hand-off is legal: {conflicts:?}"
    );
    assert!(
        wide.raw_words(g).iter().any(|&w| w != 0),
        "the consumer re-registered after the cast"
    );

    // Native level: the lock-free ShardedShadow agrees.
    let s = ShardedShadow::with_geometry(4, geom);
    s.check_write(g, ThreadId(producer)).unwrap();
    s.clear(g); // the successful sharing cast
    s.check_read(g, ThreadId(consumer)).unwrap();
    s.check_write(g, ThreadId(consumer)).unwrap();

    // And without the cast both levels report the cross-shard race.
    let no_cast: Vec<CheckEvent> = trace
        .iter()
        .copied()
        .filter(|e| !matches!(e, E::SharingCast { .. }))
        .collect();
    let mut wide2 = BitmapBackend::with_geometry(geom);
    assert!(
        !sharc_checker::replay(&no_cast, &mut wide2).is_empty(),
        "without the cast the consumer's access races"
    );
    let s2 = ShardedShadow::with_geometry(4, geom);
    s2.check_write(g, ThreadId(producer)).unwrap();
    assert!(
        s2.check_read(g, ThreadId(consumer)).is_err(),
        "sharded engine sees the same cross-shard race"
    );
}

// ----- Ranged checks (PR 5) -----

/// Granule universe for the ranged traces: big enough that runs have
/// room to span several epoch regions, small enough that threads
/// keep colliding.
const RANGE_GRANULES: usize = 16;

/// Vocabulary for the ranged differential: buffer sweeps (the new
/// ranged checks), single-granule accesses (the old vocabulary,
/// interleaved so point entries and run summaries coexist in one
/// cache), and **mid-range clears** — the adversarial case, since a
/// clear inside a summarized run must kill the summary while a clear
/// elsewhere must not resurrect anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RangeOp {
    Range {
        tid: u32,
        start: usize,
        len: usize,
        is_write: bool,
    },
    Point {
        tid: u32,
        granule: usize,
        is_write: bool,
    },
    Clear {
        granule: usize,
    },
}

fn range_op_gen(threads: u32) -> Gen<RangeOp> {
    let sweep = gen::pair(
        gen::pair(gen::u32_range(1..threads + 1), gen::bool_any()),
        gen::pair(
            gen::usize_range(0..RANGE_GRANULES),
            gen::usize_range(1..RANGE_GRANULES + 1),
        ),
    );
    gen::one_of(vec![
        sweep.map(|&((tid, is_write), (start, len))| RangeOp::Range {
            tid,
            start,
            len: len.min(RANGE_GRANULES - start),
            is_write,
        }),
        gen::pair(
            gen::pair(gen::u32_range(1..threads + 1), gen::bool_any()),
            gen::usize_range(0..RANGE_GRANULES),
        )
        .map(|&((tid, is_write), granule)| RangeOp::Point {
            tid,
            granule,
            is_write,
        }),
        gen::usize_range(0..RANGE_GRANULES).map(|&granule| RangeOp::Clear { granule }),
    ])
}

/// Folds the per-granule check over a run on the oracle backend,
/// returning the conflict count — the definition the ranged checks
/// must reproduce.
fn oracle_fold(oracle: &mut BitmapBackend, tid: u32, start: usize, len: usize, w: bool) -> usize {
    (start..start + len)
        .filter(|&g| {
            if w {
                oracle.chkwrite(tid, g).is_conflict()
            } else {
                oracle.chkread(tid, g).is_conflict()
            }
        })
        .count()
}

/// The ranged fold contract, engine-differentially: for any trace of
/// sweeps, point accesses, and mid-range clears, the per-op conflict
/// count of `check_range_*` — uncached, cached (owned runs + point
/// entries), and on the adaptive engine — equals the fold of
/// per-granule verdicts on the VM's direct-step oracle, and the
/// bitmap engines end bit-identical word for word.
#[test]
fn range_checks_equal_per_granule_fold() {
    forall!(
        "range_checks_equal_per_granule_fold",
        cfg(),
        gen::vec_of(range_op_gen(THREADS), 0..96),
        |ops| {
            let mut oracle = BitmapBackend::new();
            let ranged: Shadow = Shadow::new(RANGE_GRANULES);
            let cached: Shadow = Shadow::new(RANGE_GRANULES);
            let adaptive =
                ShardedShadow::with_geometry(RANGE_GRANULES, ShadowGeometry::adaptive_only());
            let mut caches: HashMap<u32, OwnedCache> = HashMap::new();
            let mut ad_caches: HashMap<u32, OwnedCache> = HashMap::new();

            for (i, &op) in ops.iter().enumerate() {
                match op {
                    RangeOp::Range {
                        tid,
                        start,
                        len,
                        is_write,
                    } => {
                        let want = oracle_fold(&mut oracle, tid, start, len, is_write);
                        let t = ThreadId(tid);
                        let cache = caches.entry(tid).or_default();
                        let ad_cache = ad_caches.entry(tid).or_default();
                        let got = if is_write {
                            [
                                ranged.check_range_write(start, len, t, |_| {}, |_| {}),
                                cached.check_range_write_cached(
                                    start,
                                    len,
                                    t,
                                    cache,
                                    |_| {},
                                    |_| {},
                                ),
                                adaptive.check_range_write_cached(
                                    start,
                                    len,
                                    t,
                                    ad_cache,
                                    |_| {},
                                    |_| {},
                                ),
                            ]
                        } else {
                            [
                                ranged.check_range_read(start, len, t, |_| {}, |_| {}),
                                cached.check_range_read_cached(
                                    start,
                                    len,
                                    t,
                                    cache,
                                    |_| {},
                                    |_| {},
                                ),
                                adaptive.check_range_read_cached(
                                    start,
                                    len,
                                    t,
                                    ad_cache,
                                    |_| {},
                                    |_| {},
                                ),
                            ]
                        };
                        prop_assert!(
                            got == [want; 3],
                            "op {} (range {} {}..{}): fold {} vs \
                             [uncached, cached, adaptive] {:?}",
                            i,
                            if is_write { "write" } else { "read" },
                            start,
                            start + len,
                            want,
                            got
                        );
                    }
                    RangeOp::Point {
                        tid,
                        granule,
                        is_write,
                    } => {
                        let t = ThreadId(tid);
                        let cache = caches.entry(tid).or_default();
                        let ad_cache = ad_caches.entry(tid).or_default();
                        let verdicts = if is_write {
                            [
                                oracle.chkwrite(tid, granule).is_conflict(),
                                ranged.check_write(granule, t).is_err(),
                                cached.check_write_cached(granule, t, cache).is_err(),
                                adaptive.check_write_cached(granule, t, ad_cache).is_err(),
                            ]
                        } else {
                            [
                                oracle.chkread(tid, granule).is_conflict(),
                                ranged.check_read(granule, t).is_err(),
                                cached.check_read_cached(granule, t, cache).is_err(),
                                adaptive.check_read_cached(granule, t, ad_cache).is_err(),
                            ]
                        };
                        prop_assert!(
                            verdicts.iter().all(|&v| v == verdicts[0]),
                            "op {} (point): verdicts diverged {:?}",
                            i,
                            verdicts
                        );
                    }
                    RangeOp::Clear { granule } => {
                        oracle.on_alloc(granule);
                        ranged.clear(granule);
                        cached.clear(granule);
                        adaptive.clear(granule);
                    }
                }
            }
            for g in 0..RANGE_GRANULES {
                prop_assert!(
                    oracle.raw(g) == ranged.raw(g) && ranged.raw(g) == cached.raw(g),
                    "final word of granule {}",
                    g
                );
            }
        }
    );
}

/// The same fold contract on the five-shard geometry: ranged checks
/// from tids up to 256 — cached and uncached, with mid-range clears —
/// agree per op with the per-granule fold on the wide oracle, and
/// every shard word ends bit-identical.
#[test]
fn ranged_sharded_checks_agree_up_to_256_threads() {
    let geom = ShadowGeometry::for_threads(WIDE_THREADS as usize);
    assert!(geom.shards() > 1, "the point is a multi-shard geometry");
    forall!(
        "ranged_sharded_checks_agree_up_to_256_threads",
        cfg(),
        gen::vec_of(range_op_gen(WIDE_THREADS), 0..96),
        |ops| {
            let mut oracle = BitmapBackend::with_geometry(geom);
            let ranged = ShardedShadow::with_geometry(RANGE_GRANULES, geom);
            let cached = ShardedShadow::with_geometry(RANGE_GRANULES, geom);
            let mut caches: HashMap<u32, OwnedCache> = HashMap::new();

            for (i, &op) in ops.iter().enumerate() {
                match op {
                    RangeOp::Range {
                        tid,
                        start,
                        len,
                        is_write,
                    } => {
                        let want = oracle_fold(&mut oracle, tid, start, len, is_write);
                        let t = ThreadId(tid);
                        let cache = caches.entry(tid).or_default();
                        let got = if is_write {
                            [
                                ranged.check_range_write(start, len, t, |_| {}, |_| {}),
                                cached.check_range_write_cached(
                                    start,
                                    len,
                                    t,
                                    cache,
                                    |_| {},
                                    |_| {},
                                ),
                            ]
                        } else {
                            [
                                ranged.check_range_read(start, len, t, |_| {}, |_| {}),
                                cached.check_range_read_cached(
                                    start,
                                    len,
                                    t,
                                    cache,
                                    |_| {},
                                    |_| {},
                                ),
                            ]
                        };
                        prop_assert!(
                            got == [want; 2],
                            "op {} (wide range): fold {} vs [uncached, cached] {:?}",
                            i,
                            want,
                            got
                        );
                    }
                    RangeOp::Point {
                        tid,
                        granule,
                        is_write,
                    } => {
                        let t = ThreadId(tid);
                        let cache = caches.entry(tid).or_default();
                        let verdicts = if is_write {
                            [
                                oracle.chkwrite(tid, granule).is_conflict(),
                                ranged.check_write(granule, t).is_err(),
                                cached.check_write_cached(granule, t, cache).is_err(),
                            ]
                        } else {
                            [
                                oracle.chkread(tid, granule).is_conflict(),
                                ranged.check_read(granule, t).is_err(),
                                cached.check_read_cached(granule, t, cache).is_err(),
                            ]
                        };
                        prop_assert!(
                            verdicts.iter().all(|&v| v == verdicts[0]),
                            "op {} (wide point): verdicts diverged {:?}",
                            i,
                            verdicts
                        );
                    }
                    RangeOp::Clear { granule } => {
                        oracle.on_alloc(granule);
                        ranged.clear(granule);
                        cached.clear(granule);
                    }
                }
            }
            for g in 0..RANGE_GRANULES {
                prop_assert!(
                    oracle.raw_words(g) == ranged.raw_words(g),
                    "final words of granule {}",
                    g
                );
                prop_assert!(
                    ranged.raw_words(g) == cached.raw_words(g),
                    "cached words of granule {}",
                    g
                );
            }
        }
    );
}

// ----- Ranged casts & frees (this PR) -----

/// Vocabulary for the ranged-clear differential: cached buffer sweeps
/// interleaved with **ranged clears** (`free` / block-granular
/// sharing casts) and **ranged thread exits**. The adversarial case
/// is a sweep that summarizes a run into the owned cache followed by
/// a `clear_range` through the middle of it: the single ranged epoch
/// bump must invalidate the summary exactly like the per-granule
/// clear fold's one-bump-per-granule does, or the cached instance
/// skips re-registration and its shadow words drift from the fold's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HandoffOp {
    Sweep {
        tid: u32,
        start: usize,
        len: usize,
        is_write: bool,
    },
    ClearRange {
        start: usize,
        len: usize,
    },
    ExitRange {
        tid: u32,
        start: usize,
        len: usize,
    },
}

fn handoff_op_gen(threads: u32) -> Gen<HandoffOp> {
    let span = gen::pair(
        gen::usize_range(0..RANGE_GRANULES),
        gen::usize_range(1..RANGE_GRANULES + 1),
    );
    gen::one_of(vec![
        gen::pair(
            gen::pair(gen::u32_range(1..threads + 1), gen::bool_any()),
            span.clone(),
        )
        .map(|&((tid, is_write), (start, len))| HandoffOp::Sweep {
            tid,
            start,
            len: len.min(RANGE_GRANULES - start),
            is_write,
        }),
        span.clone().map(|&(start, len)| HandoffOp::ClearRange {
            start,
            len: len.min(RANGE_GRANULES - start),
        }),
        gen::pair(gen::u32_range(1..threads + 1), span).map(|&(tid, (start, len))| {
            HandoffOp::ExitRange {
                tid,
                start,
                len: len.min(RANGE_GRANULES - start),
            }
        }),
    ])
}

/// The ranged-clear contract on the narrow and adaptive engines: a
/// `clear_range` / `clear_thread_range` (one word-level sweep, ONE
/// epoch bump per covered region) leaves verdicts and final shadow
/// words bit-identical to the per-granule `clear` / `clear_thread`
/// fold it replaces. The ranged instance runs every sweep through the
/// owned-run cache so a missing or short epoch bump surfaces as a
/// stale summary and diverging words.
#[test]
fn ranged_clears_equal_per_granule_clear_fold() {
    forall!(
        "ranged_clears_equal_per_granule_clear_fold",
        cfg(),
        gen::vec_of(handoff_op_gen(THREADS), 0..96),
        |ops| {
            let ranged: Shadow = Shadow::new(RANGE_GRANULES);
            let folded: Shadow = Shadow::new(RANGE_GRANULES);
            let ad_ranged =
                ShardedShadow::with_geometry(RANGE_GRANULES, ShadowGeometry::adaptive_only());
            let ad_folded =
                ShardedShadow::with_geometry(RANGE_GRANULES, ShadowGeometry::adaptive_only());
            let mut caches: HashMap<u32, OwnedCache> = HashMap::new();
            let mut ad_caches: HashMap<u32, OwnedCache> = HashMap::new();
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    HandoffOp::Sweep {
                        tid,
                        start,
                        len,
                        is_write,
                    } => {
                        let t = ThreadId(tid);
                        let cache = caches.entry(tid).or_default();
                        let ad_cache = ad_caches.entry(tid).or_default();
                        let got = if is_write {
                            [
                                ranged.check_range_write_cached(
                                    start,
                                    len,
                                    t,
                                    cache,
                                    |_| {},
                                    |_| {},
                                ),
                                folded.check_range_write(start, len, t, |_| {}, |_| {}),
                                ad_ranged.check_range_write_cached(
                                    start,
                                    len,
                                    t,
                                    ad_cache,
                                    |_| {},
                                    |_| {},
                                ),
                                ad_folded.check_range_write(start, len, t, |_| {}, |_| {}),
                            ]
                        } else {
                            [
                                ranged.check_range_read_cached(
                                    start,
                                    len,
                                    t,
                                    cache,
                                    |_| {},
                                    |_| {},
                                ),
                                folded.check_range_read(start, len, t, |_| {}, |_| {}),
                                ad_ranged.check_range_read_cached(
                                    start,
                                    len,
                                    t,
                                    ad_cache,
                                    |_| {},
                                    |_| {},
                                ),
                                ad_folded.check_range_read(start, len, t, |_| {}, |_| {}),
                            ]
                        };
                        prop_assert!(
                            got[0] == got[1] && got[2] == got[3],
                            "op {} (sweep {}..{}): [ranged, folded, ad-ranged, ad-folded] {:?}",
                            i,
                            start,
                            start + len,
                            got
                        );
                    }
                    HandoffOp::ClearRange { start, len } => {
                        ranged.clear_range(start, len);
                        ad_ranged.clear_range(start, len);
                        for g in start..start + len {
                            folded.clear(g);
                            ad_folded.clear(g);
                        }
                    }
                    HandoffOp::ExitRange { tid, start, len } => {
                        ranged.clear_thread_range(start, len, ThreadId(tid));
                        ad_ranged.clear_thread_range(start, len, ThreadId(tid));
                        for g in start..start + len {
                            folded.clear_thread(g, ThreadId(tid));
                            ad_folded.clear_thread(g, ThreadId(tid));
                        }
                    }
                }
            }
            for g in 0..RANGE_GRANULES {
                prop_assert!(
                    ranged.raw(g) == folded.raw(g),
                    "narrow word of granule {}",
                    g
                );
                prop_assert!(
                    ad_ranged.raw(g) == ad_folded.raw(g),
                    "adaptive word of granule {}",
                    g
                );
            }
        }
    );
}

/// The same ranged-clear contract on the multi-shard geometry, with
/// tids up to 256: `clear_range` / `clear_thread_range` on the
/// sharded engine end bit-identical — every shard word — to the
/// per-granule clear fold, under cached sweeps from threads that
/// straddle shard boundaries.
#[test]
fn wide_ranged_clears_equal_per_granule_clear_fold() {
    let geom = ShadowGeometry::for_threads(WIDE_THREADS as usize);
    assert!(geom.shards() > 1, "the point is a multi-shard geometry");
    forall!(
        "wide_ranged_clears_equal_per_granule_clear_fold",
        cfg(),
        gen::vec_of(handoff_op_gen(WIDE_THREADS), 0..96),
        |ops| {
            let ranged = ShardedShadow::with_geometry(RANGE_GRANULES, geom);
            let folded = ShardedShadow::with_geometry(RANGE_GRANULES, geom);
            let mut caches: HashMap<u32, OwnedCache> = HashMap::new();
            for (i, &op) in ops.iter().enumerate() {
                match op {
                    HandoffOp::Sweep {
                        tid,
                        start,
                        len,
                        is_write,
                    } => {
                        let t = ThreadId(tid);
                        let cache = caches.entry(tid).or_default();
                        let got = if is_write {
                            [
                                ranged.check_range_write_cached(
                                    start,
                                    len,
                                    t,
                                    cache,
                                    |_| {},
                                    |_| {},
                                ),
                                folded.check_range_write(start, len, t, |_| {}, |_| {}),
                            ]
                        } else {
                            [
                                ranged.check_range_read_cached(
                                    start,
                                    len,
                                    t,
                                    cache,
                                    |_| {},
                                    |_| {},
                                ),
                                folded.check_range_read(start, len, t, |_| {}, |_| {}),
                            ]
                        };
                        prop_assert!(
                            got[0] == got[1],
                            "op {} (wide sweep {}..{}): [ranged, folded] {:?}",
                            i,
                            start,
                            start + len,
                            got
                        );
                    }
                    HandoffOp::ClearRange { start, len } => {
                        ranged.clear_range(start, len);
                        for g in start..start + len {
                            folded.clear(g);
                        }
                    }
                    HandoffOp::ExitRange { tid, start, len } => {
                        ranged.clear_thread_range(start, len, ThreadId(tid));
                        for g in start..start + len {
                            folded.clear_thread(g, ThreadId(tid));
                        }
                    }
                }
            }
            for g in 0..RANGE_GRANULES {
                prop_assert!(
                    ranged.raw_words(g) == folded.raw_words(g),
                    "wide words of granule {}",
                    g
                );
            }
        }
    );
}

/// The whole `CheckEvent` vocabulary over tids `1..=threads`: point
/// and ranged accesses, lock traffic, forks, sharing casts (point and
/// ranged), exits, allocs, and ranged frees. Shared by the lowering
/// differential (narrow tids) and the streaming differential (narrow
/// *and* cross-shard tids).
fn spine_event_gen(threads: u32) -> Gen<CheckEvent> {
    use CheckEvent as E;
    gen::pair(
        gen::u32_range(0..14),
        gen::pair(
            gen::u32_range(1..threads + 1),
            gen::usize_range(0..GRANULES),
        ),
    )
    .map(|&(kind, (tid, granule))| {
        let lock = granule % 3;
        let len = (granule % 5) + 1;
        match kind {
            0 => E::Read { tid, granule },
            1 => E::Write { tid, granule },
            2 | 3 => E::RangeRead { tid, granule, len },
            4 | 5 => E::RangeWrite { tid, granule, len },
            6 => E::Acquire { tid, lock },
            7 => E::Release { tid, lock },
            8 => E::Fork {
                parent: tid,
                child: tid + 1,
            },
            9 => E::SharingCast {
                tid,
                granule,
                refs: 1,
            },
            10 => E::ThreadExit { tid },
            11 => E::RangeCast {
                tid,
                granule,
                len,
                refs: 1,
            },
            12 => E::RangeFree { granule, len },
            _ => E::Alloc { granule },
        }
    })
}

/// Replay-lowering is verdict-invisible for **every** backend, not
/// just SharC's: a trace with range events and the same trace with
/// each range expanded to per-granule events produce bit-identical
/// conflict lists under the bitmap engine, Eraser, and the
/// vector-clock detector. This is what licenses workloads to emit one
/// event per buffer sweep while the §6.2 detector comparison keeps
/// judging the same execution.
#[test]
fn range_replay_lowering_is_bit_identical_for_every_backend() {
    use sharc_checker::lower_ranges;
    use sharc_detectors::VcDetector;

    forall!(
        "range_replay_lowering_is_bit_identical_for_every_backend",
        cfg(),
        gen::vec_of(spine_event_gen(5), 0..64),
        |events| {
            let lowered = lower_ranges(events);
            prop_assert!(
                !lowered.iter().any(|e| matches!(
                    e,
                    CheckEvent::RangeRead { .. }
                        | CheckEvent::RangeWrite { .. }
                        | CheckEvent::RangeCast { .. }
                        | CheckEvent::RangeFree { .. }
                )),
                "lowering leaves only per-granule events"
            );
            let a = sharc_checker::replay(events, &mut BitmapBackend::new());
            let b = sharc_checker::replay(&lowered, &mut BitmapBackend::new());
            prop_assert!(a == b, "sharc: ranged {:?} vs lowered {:?}", a, b);
            let a = sharc_checker::replay(events, &mut BaselineBackend::new(Eraser::new()));
            let b = sharc_checker::replay(&lowered, &mut BaselineBackend::new(Eraser::new()));
            prop_assert!(a == b, "eraser: ranged {:?} vs lowered {:?}", a, b);
            let a = sharc_checker::replay(events, &mut BaselineBackend::new(VcDetector::new()));
            let b = sharc_checker::replay(&lowered, &mut BaselineBackend::new(VcDetector::new()));
            prop_assert!(a == b, "vc: ranged {:?} vs lowered {:?}", a, b);
        }
    );
}

/// Parallel region-sharded replay is bit-identical to the sequential
/// fold for **every** backend — at cross-shard tids (256 threads,
/// five shards), over the full spine vocabulary, for every worker
/// count 1–5. Conflict *lists*, order included, not just sets: this
/// is the acceptance differential licensing `sharc replay --jobs N`
/// to stand in for the sequential judge.
#[test]
fn parallel_replay_is_bit_identical_to_sequential_for_every_backend() {
    use sharc_checker::{geometry_for_trace, ParallelReplay};
    use sharc_detectors::VcDetector;

    forall!(
        "parallel_replay_is_bit_identical_to_sequential_for_every_backend",
        cfg(),
        gen::pair(
            gen::vec_of(spine_event_gen(WIDE_THREADS), 0..96),
            gen::usize_range(1..6),
        ),
        |(events, jobs)| {
            let engine = ParallelReplay::new(*jobs);
            let geom = geometry_for_trace(events);
            let seq = sharc_checker::replay(events, &mut BitmapBackend::with_geometry(geom));
            let par = engine.replay(events, move || {
                Box::new(BitmapBackend::with_geometry(geom)) as _
            });
            prop_assert!(seq == par, "sharc jobs={}: {:?} vs {:?}", jobs, seq, par);
            let seq = sharc_checker::replay(events, &mut BaselineBackend::new(Eraser::new()));
            let par = engine.replay(events, || {
                Box::new(BaselineBackend::new(Eraser::new())) as _
            });
            prop_assert!(seq == par, "eraser jobs={}: {:?} vs {:?}", jobs, seq, par);
            let seq = sharc_checker::replay(events, &mut BaselineBackend::new(VcDetector::new()));
            let par = engine.replay(events, || {
                Box::new(BaselineBackend::new(VcDetector::new())) as _
            });
            prop_assert!(seq == par, "vc jobs={}: {:?} vs {:?}", jobs, seq, par);
        }
    );
}

/// The named regression: ownership hand-off through a sharing cast
/// (the paper's §2.1 producer/consumer idiom, `examples/minic/handoff.c`).
/// SharC's engine is silent — the `oneref`-checked cast transfers the
/// object and clears its history — while the Eraser adapter, blind to
/// `on_cast_clear`, keeps judging the object by its pre-transfer
/// accesses and reports a false positive on the very same trace.
#[test]
fn ownership_transfer_sharc_silent_eraser_false_positive() {
    use CheckEvent as E;
    let g = 3;
    let trace = vec![
        E::Fork {
            parent: 1,
            child: 2,
        },
        // Producer initializes the private buffer...
        E::Write { tid: 1, granule: g },
        // ...and hands it off with a reference-count-checked cast.
        E::SharingCast {
            tid: 1,
            granule: g,
            refs: 1,
        },
        // Consumer now owns the buffer.
        E::Read { tid: 2, granule: g },
        E::Write { tid: 2, granule: g },
    ];

    let mut sharc = BitmapBackend::new();
    let sharc_conflicts = sharc_checker::replay(&trace, &mut sharc);
    assert!(
        sharc_conflicts.is_empty(),
        "SharC accepts the hand-off: {sharc_conflicts:?}"
    );

    let mut eraser = BaselineBackend::new(Eraser::new());
    let eraser_conflicts = sharc_checker::replay(&trace, &mut eraser);
    assert!(
        !eraser_conflicts.is_empty(),
        "Eraser has no ownership-transfer model and must false-positive"
    );

    // Drop the cast from the trace and SharC agrees with Eraser:
    // without the transfer the second thread's write *is* a race.
    let no_cast: Vec<CheckEvent> = trace
        .iter()
        .copied()
        .filter(|e| !matches!(e, E::SharingCast { .. }))
        .collect();
    let mut sharc2 = BitmapBackend::new();
    assert!(
        !sharc_checker::replay(&no_cast, &mut sharc2).is_empty(),
        "the cast is load-bearing: without it SharC reports the race"
    );
}

/// A *native* execution at fleet width: one recorded stunnel run with
/// more than 200 real worker threads, replayed through all three
/// engines. The pinning mirrors the paper's §6.2 comparison on a
/// single concrete execution instead of a synthetic trace:
///
/// * SharC is clean — every hand-off is a reference-count-checked
///   sharing cast, every counter access is under its lock;
/// * Eraser false-positives — the worker's nonce write into the
///   handshake buffer happens after the cast, with an empty lockset
///   intersection against the acceptor's unlocked initialization;
/// * vector clocks are clean — the session-lock release→acquire pair
///   linearized through the event log gives HB the edge the lockset
///   algorithm cannot see.
///
/// The cast-stripping control shows the cast is SharC's load-bearing
/// evidence: without it SharC reports the transfer as a race too.
#[test]
fn stunnel_wide_trace_pins_all_backends() {
    use sharc_workloads::benchmarks::stunnel::{self, Params};

    // ≥ 200 worker tids: workers land at tids 3..=222, four shards.
    let params = Params {
        clients: 220,
        workers: 220,
        messages: 2,
        msg_len: 64,
    };
    let (run, trace) = stunnel::run_traced(&params);
    assert!(
        run.threads > 200,
        "fleet width: got {} threads",
        run.threads
    );
    assert_eq!(run.conflicts, 0, "the native run itself is clean");
    let widest = trace
        .iter()
        .filter_map(|e| match e {
            CheckEvent::RangeWrite { tid, .. } | CheckEvent::RangeRead { tid, .. } => Some(*tid),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    assert!(widest > 200, "ranged sweeps carry wide tids: max {widest}");

    // SharC, at the geometry the recorded tids demand.
    let geom = geometry_for_trace(&trace);
    assert!(
        geom.shards() > 1,
        "fleet width needs a multi-shard geometry"
    );
    let mut sharc = BitmapBackend::with_geometry(geom);
    let sharc_conflicts = sharc_checker::replay(&trace, &mut sharc);
    assert!(
        sharc_conflicts.is_empty(),
        "SharC accepts the fleet's hand-offs: {sharc_conflicts:?}"
    );

    // Eraser on the identical execution.
    let mut eraser = BaselineBackend::new(Eraser::new());
    assert!(
        !sharc_checker::replay(&trace, &mut eraser).is_empty(),
        "Eraser must false-positive on the unlocked ownership transfers"
    );

    // Vector clocks on the identical execution.
    let mut vc = BaselineBackend::new(VcDetector::new());
    let vc_conflicts = sharc_checker::replay(&trace, &mut vc);
    assert!(
        vc_conflicts.is_empty(),
        "HB sees the session-lock edges: {vc_conflicts:?}"
    );

    // Control: strip the casts and SharC joins Eraser in reporting.
    let no_cast: Vec<CheckEvent> = trace
        .iter()
        .copied()
        .filter(|e| {
            !matches!(
                e,
                CheckEvent::SharingCast { .. } | CheckEvent::RangeCast { .. }
            )
        })
        .collect();
    let mut sharc2 = BitmapBackend::with_geometry(geom);
    assert!(
        !sharc_checker::replay(&no_cast, &mut sharc2).is_empty(),
        "without the casts the wide-tid transfers are races to SharC"
    );
}

// ----- Streaming detection (PR 7) -----

/// The streaming pipeline's tentpole invariant: for **every** choice
/// of ring count, ring capacity, and drain interleaving, feeding a
/// trace through a [`StreamingSink`] yields conflicts bit-identical
/// to the serialized replay fold of the same trace on the same
/// backend — for SharC's bitmap engine, Eraser, and vector clocks
/// alike. Traces draw from the full spine vocabulary (ranged events
/// included) at both narrow and cross-shard tid widths, and the
/// stream's accounting must close: everything recorded is drained,
/// and the peak resident count never exceeds the ring budget.
#[test]
fn streaming_verdicts_equal_replay_fold_for_every_backend() {
    use sharc_detectors::VcDetector;

    type BackendFactory = Box<dyn Fn() -> Box<dyn CheckBackend + Send>>;

    let scenario = gen::pair(
        gen::one_of(vec![
            gen::vec_of(spine_event_gen(5), 0..64),
            gen::vec_of(spine_event_gen(WIDE_THREADS - 1), 0..64),
        ]),
        gen::pair(
            gen::pair(gen::usize_range(1..5), gen::usize_range(1..17)),
            gen::usize_range(0..8),
        ),
    );
    forall!(
        "streaming_verdicts_equal_replay_fold_for_every_backend",
        cfg(),
        scenario,
        |scenario| {
            let (events, ((rings, cap), drain_every)) = scenario;
            let (rings, cap, drain_every) = (*rings, *cap, *drain_every);
            let geom = geometry_for_trace(events);
            let backends: Vec<(&str, BackendFactory)> = vec![
                (
                    "sharc",
                    Box::new(move || Box::new(BitmapBackend::with_geometry(geom))),
                ),
                (
                    "eraser",
                    Box::new(|| Box::new(BaselineBackend::new(Eraser::new()))),
                ),
                (
                    "vc",
                    Box::new(|| Box::new(BaselineBackend::new(VcDetector::new()))),
                ),
            ];
            for (name, make) in &backends {
                let mut replay_backend = make();
                let want = sharc_checker::replay(events, replay_backend.as_mut());
                let sink = StreamingSink::new(rings, cap, make());
                for (i, &e) in events.iter().enumerate() {
                    sink.record(e);
                    if drain_every != 0 && (i + 1) % drain_every == 0 {
                        sink.collect();
                    }
                }
                let (got, stats) = sink.finish();
                prop_assert!(
                    got == want,
                    "{}: rings {} cap {} drain_every {}: streamed {:?} vs replay {:?}",
                    name,
                    rings,
                    cap,
                    drain_every,
                    got,
                    want
                );
                prop_assert!(
                    stats.recorded == events.len() as u64 && stats.drained == stats.recorded,
                    "{}: accounting must close: {:?} over {} events",
                    name,
                    stats,
                    events.len()
                );
                prop_assert!(
                    stats.peak_resident <= stats.ring_budget,
                    "{}: peak {} exceeds ring budget {}",
                    name,
                    stats.peak_resident,
                    stats.ring_budget
                );
            }
        }
    );
}

/// Streaming at fleet width: the same >200-worker recorded stunnel
/// execution that pins the three replay engines is streamed through
/// per-thread rings with a deliberately tiny capacity, and the
/// collector's verdict is bit-identical to the replay fold while the
/// peak resident event count stays inside the fixed ring budget —
/// the recorded trace is three orders of magnitude larger. A second,
/// *live* streaming run (real worker threads racing the collector)
/// then confirms verdict parity under actual concurrency: SharC
/// clean, Eraser false-positive, with the budget still holding.
#[test]
fn stunnel_streaming_is_bit_identical_to_replay_at_fleet_width() {
    use std::sync::Arc;

    use sharc_workloads::benchmarks::stunnel::{self, Params};

    let params = Params {
        clients: 220,
        workers: 220,
        messages: 2,
        msg_len: 64,
    };
    let (run, trace) = stunnel::run_traced(&params);
    assert!(
        run.threads > 200,
        "fleet width: got {} threads",
        run.threads
    );
    let geom = geometry_for_trace(&trace);
    assert!(geom.shards() > 1, "wide tids demand a multi-shard geometry");

    // Replay fold of the recorded execution — the pinned oracle.
    let want = sharc_checker::replay(&trace, &mut BitmapBackend::with_geometry(geom));
    assert!(want.is_empty(), "SharC accepts the fleet: {want:?}");

    // The identical recorded execution, streamed through tiny rings
    // with periodic mid-stream drains.
    let sink = StreamingSink::new(8, 64, Box::new(BitmapBackend::with_geometry(geom)));
    for (i, &e) in trace.iter().enumerate() {
        sink.record(e);
        if (i + 1) % 97 == 0 {
            sink.collect();
        }
    }
    let (got, stats) = sink.finish();
    assert_eq!(got, want, "streamed verdicts must equal the replay fold");
    assert_eq!(stats.recorded, trace.len() as u64);
    assert_eq!(stats.drained, stats.recorded, "no event may be lost");
    assert!(
        stats.peak_resident <= stats.ring_budget,
        "peak {} exceeds ring budget {}",
        stats.peak_resident,
        stats.ring_budget
    );
    assert!(
        stats.ring_budget < trace.len() / 2,
        "the budget must be far below the trace ({} vs {})",
        stats.ring_budget,
        trace.len()
    );

    // Live: real threads race the collector, same fixed budget.
    let wide = ShadowGeometry::for_threads(params.workers + 2);
    let live = Arc::new(StreamingSink::new(
        8,
        64,
        Box::new(BitmapBackend::with_geometry(wide)),
    ));
    let live_run = stunnel::run_with_events(&params, live.clone());
    let (live_conflicts, live_stats) = live.finish();
    assert_eq!(live_run.conflicts, 0, "the live run itself is clean");
    assert!(
        live_conflicts.is_empty(),
        "live streaming SharC stays clean: {live_conflicts:?}"
    );
    assert!(
        live_stats.peak_resident <= live_stats.ring_budget,
        "live peak {} exceeds ring budget {}",
        live_stats.peak_resident,
        live_stats.ring_budget
    );
    assert_eq!(live_stats.drained, live_stats.recorded);

    // Eraser live-streams its ownership-transfer false positive too.
    let eraser = Arc::new(StreamingSink::new(
        8,
        64,
        Box::new(BaselineBackend::new(Eraser::new())),
    ));
    stunnel::run_with_events(&params, eraser.clone());
    let (eraser_conflicts, _) = eraser.finish();
    assert!(
        !eraser_conflicts.is_empty(),
        "Eraser must false-positive while streaming live"
    );
}

// ----- The sequential judge against a bare step fold -----

/// The independent oracle for [`BitmapBackend`]: a bare fold over the
/// event vocabulary that runs `sharded::step` on *every* access and
/// `sharded::clear_thread` on every logged granule at exit, with
/// plain maps for the per-thread logs and no fast path. The other
/// differentials take `BitmapBackend` itself as their oracle; this
/// one is untouched by the backend's exclusive-owner fast path and
/// thread tables.
struct StepFold {
    geom: ShadowGeometry,
    words: Vec<u64>,
    logs: HashMap<u32, Vec<usize>>,
    held: HashMap<u32, Vec<usize>>,
}

impl StepFold {
    fn new(geom: ShadowGeometry, granules: usize) -> Self {
        StepFold {
            geom,
            words: vec![0; granules * geom.words_per_granule()],
            logs: HashMap::new(),
            held: HashMap::new(),
        }
    }

    fn words(&self, granule: usize) -> &[u64] {
        let stride = self.geom.words_per_granule();
        &self.words[granule * stride..(granule + 1) * stride]
    }

    fn access(&mut self, tid: u32, granule: usize, access: Access, out: &mut Vec<Conflict>) {
        use sharc_checker::step::sharded::{self, ShardStep};
        match sharded::step(self.words(granule), self.geom, tid, access) {
            ShardStep::Unchanged => {}
            ShardStep::Install { index, word } => {
                self.words[granule * self.geom.words_per_granule() + index] = word;
                self.logs.entry(tid).or_default().push(granule);
            }
            ShardStep::Conflict => out.push(Conflict {
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

    fn clear(&mut self, granule: usize) {
        let stride = self.geom.words_per_granule();
        self.words[granule * stride..(granule + 1) * stride].fill(0);
    }

    fn cast(&mut self, tid: u32, granule: usize, refs: u64, out: &mut Vec<Conflict>) {
        if refs <= 1 {
            self.clear(granule);
        } else {
            out.push(Conflict {
                kind: CheckKind::OneRef,
                tid,
                granule,
            });
        }
    }

    /// The conflicts of one event, ranges expanded granule by granule.
    fn apply(&mut self, e: CheckEvent) -> Vec<Conflict> {
        use sharc_checker::step::sharded;
        use CheckEvent as E;
        let mut out = Vec::new();
        match e {
            E::Read { tid, granule } => self.access(tid, granule, Access::Read, &mut out),
            E::Write { tid, granule } => self.access(tid, granule, Access::Write, &mut out),
            E::RangeRead { tid, granule, len } => {
                for g in granule..granule + len {
                    self.access(tid, g, Access::Read, &mut out);
                }
            }
            E::RangeWrite { tid, granule, len } => {
                for g in granule..granule + len {
                    self.access(tid, g, Access::Write, &mut out);
                }
            }
            E::LockedAccess { tid, lock } => {
                if !self.held.get(&tid).is_some_and(|h| h.contains(&lock)) {
                    out.push(Conflict {
                        kind: CheckKind::Lock,
                        tid,
                        granule: lock,
                    });
                }
            }
            E::SharingCast { tid, granule, refs } => self.cast(tid, granule, refs, &mut out),
            E::RangeCast {
                tid,
                granule,
                len,
                refs,
            } => {
                for g in granule..granule + len {
                    self.cast(tid, g, refs, &mut out);
                }
            }
            E::RangeFree { granule, len } => {
                for g in granule..granule + len {
                    self.clear(g);
                }
            }
            E::Alloc { granule } => self.clear(granule),
            E::Acquire { tid, lock } => self.held.entry(tid).or_default().push(lock),
            E::Release { tid, lock } => {
                if let Some(h) = self.held.get_mut(&tid) {
                    if let Some(p) = h.iter().position(|&l| l == lock) {
                        h.remove(p);
                    }
                }
            }
            E::ThreadExit { tid } => {
                let stride = self.geom.words_per_granule();
                for g in self.logs.remove(&tid).unwrap_or_default() {
                    if let Some((index, word)) =
                        sharded::clear_thread(self.words(g), self.geom, tid)
                    {
                        self.words[g * stride + index] = word;
                    }
                }
                self.held.remove(&tid);
            }
            E::Fork { .. } | E::Join { .. } => {}
        }
        out
    }
}

/// Granule universe of the step-fold differential.
const FOLD_GRANULES: usize = 8;

/// Four tids per case, drawn from three bands: exact in one shard
/// (`1..=63`), exact only in five shards (`64..=315`), and past every
/// exact range up to the largest tid (`2³⁰ − 1`).
fn fold_tid_gen() -> Gen<u32> {
    gen::one_of(vec![
        gen::u32_range(1..64),
        gen::u32_range(64..316),
        gen::choose(vec![316, 4096, 1 << 20, (1 << 30) - 1]),
    ])
}

/// One event of the full vocabulary from a drawn `(kind, tid,
/// granule)`: point and ranged accesses, lock traffic, passing and
/// failing point and ranged casts, exits, ranged frees and allocs.
fn fold_event(kind: u32, tid: u32, granule: usize) -> CheckEvent {
    use CheckEvent as E;
    let lock = granule % 3;
    let len = (granule % 3 + 1).min(FOLD_GRANULES - granule);
    let refs = if granule % 4 == 3 { 2 } else { 1 };
    match kind {
        0..=2 => E::Read { tid, granule },
        3..=5 => E::Write { tid, granule },
        6 => E::RangeRead { tid, granule, len },
        7 => E::RangeWrite { tid, granule, len },
        8 => E::Acquire { tid, lock },
        9 => E::Release { tid, lock },
        10 => E::LockedAccess { tid, lock },
        11 => E::SharingCast { tid, granule, refs },
        12 => E::RangeCast {
            tid,
            granule,
            len,
            refs,
        },
        13 => E::ThreadExit { tid },
        14 => E::RangeFree { granule, len },
        _ => E::Alloc { granule },
    }
}

/// `BitmapBackend` — exclusive-owner fast path, dense thread tables
/// and all — equals the bare `sharded::step` fold on every event's
/// verdicts and on every granule's shadow words after every event.
/// Geometries: one shard, five shards, and no shards at all, so pool
/// tids past the exact range go through the overflow word and its
/// `EXCL` fast path. The vocabulary includes point and ranged casts
/// (passing and failing), ranged frees, exits, and accesses by a tid
/// after its own exit.
#[test]
fn bitmap_backend_equals_bare_step_fold() {
    let geometries = [
        ShadowGeometry::for_threads(63),
        ShadowGeometry::for_threads(256),
        ShadowGeometry::adaptive_only(),
    ];
    forall!(
        "bitmap_backend_equals_bare_step_fold",
        Config::from_env(),
        gen::triple(
            gen::usize_range(0..geometries.len()),
            gen::vec_of(fold_tid_gen(), 4..5),
            // (kind, index into the tid pool, granule): each pool tid
            // recurs, so owners re-access, exit, and come back.
            gen::vec_of(
                gen::triple(
                    gen::u32_range(0..16),
                    gen::usize_range(0..4),
                    gen::usize_range(0..FOLD_GRANULES),
                ),
                0..128,
            ),
        ),
        |(which, pool, draws)| {
            let geom = geometries[*which];
            let mut backend = BitmapBackend::with_geometry(geom);
            let mut fold = StepFold::new(geom, FOLD_GRANULES);
            for (i, &(kind, t, granule)) in draws.iter().enumerate() {
                let e = fold_event(kind, pool[t], granule);
                let mut got = Vec::new();
                sharc_checker::apply_event(e, &mut backend, &mut got);
                let want = fold.apply(e);
                prop_assert!(
                    got == want,
                    "event {} {:?} ({:?}): backend {:?} vs fold {:?}",
                    i,
                    e,
                    geom,
                    got,
                    want
                );
                for g in 0..FOLD_GRANULES {
                    prop_assert!(
                        backend.raw_words(g) == fold.words(g),
                        "event {} {:?} ({:?}): words of granule {}",
                        i,
                        e,
                        geom,
                        g
                    );
                }
            }
        }
    );
}
