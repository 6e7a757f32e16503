//! # sharc-bench
//!
//! Shared workloads for the benchmark harnesses that regenerate the
//! paper's table and the ablations DESIGN.md calls out:
//!
//! * `table1` — the six-benchmark evaluation table (§5, Table 1);
//! * `ablation_rc` — naive atomic RC vs the adapted Levanoni–Petrank
//!   counter (§4.3's ">60% overhead" claim);
//! * `ablation_granularity` — false-sharing false positives vs shadow
//!   granularity (§4.5);
//! * `detector_comparison` — SharC's checks vs Eraser-lockset and
//!   vector-clock monitoring of *every* access (§6.2's 10×–30×).

use sharc_checker::{replay, CheckBackend, CheckEvent, Conflict, OwnedCache};
use sharc_detectors::{Detector, Online};
use sharc_runtime::{AccessPolicy, Arena, ObjId, RcScheme, Shadow, ThreadCtx, ThreadId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pointer-update-heavy workload for the RC ablation: `threads`
/// workers each perform `stores` slot updates over a private slot
/// range but a shared object set (count contention), plus one
/// `refcount` query per `casts_every` stores (the scast pattern).
pub fn rc_workload<R: RcScheme + 'static>(
    rc: Arc<R>,
    threads: usize,
    stores: usize,
    slots_per_thread: usize,
    n_objs: usize,
    casts_every: usize,
) -> Duration {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let rc = Arc::clone(&rc);
            scope.spawn(move || {
                let base = t * slots_per_thread;
                for i in 0..stores {
                    let slot = base + (i * 7 + 3) % slots_per_thread;
                    let obj = ObjId(((i * 13 + t * 31) % n_objs) as u32);
                    rc.store(t, slot, Some(obj));
                    if casts_every > 0 && i % casts_every == casts_every - 1 {
                        let _ = rc.refcount(obj);
                    }
                }
            });
        }
    });
    start.elapsed()
}

/// The memory-scan workload used for detector comparison: `threads`
/// workers sum disjoint regions of shared memory, every access
/// monitored. Returns (elapsed, sum-checksum).
pub fn scan_workload_sharc<P: AccessPolicy>(
    arena: Arc<Arena>,
    threads: usize,
    words_per_thread: usize,
    passes: usize,
) -> (Duration, u64) {
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let arena = Arc::clone(&arena);
        handles.push(std::thread::spawn(move || {
            let mut ctx = ThreadCtx::new(ThreadId(t as u32 + 1));
            let base = t * words_per_thread;
            let mut sum = 0u64;
            for _ in 0..passes {
                for i in 0..words_per_thread {
                    P::write(&arena, &mut ctx, base + i, (i as u64) ^ sum);
                    sum = sum.wrapping_add(P::read(&arena, &mut ctx, base + i));
                }
            }
            arena.thread_exit(&mut ctx);
            sum
        }));
    }
    let mut checksum = 0u64;
    for h in handles {
        checksum = checksum.wrapping_add(h.join().expect("worker"));
    }
    (start.elapsed(), checksum)
}

/// The same scan monitored by a baseline detector on *every* access
/// (how Eraser-class tools work).
pub fn scan_workload_detector<D: Detector + Default + Send + 'static>(
    detector: Arc<Online<D>>,
    threads: usize,
    words_per_thread: usize,
    passes: usize,
) -> (Duration, u64) {
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let d = Arc::clone(&detector);
        handles.push(std::thread::spawn(move || {
            let tid = t as u32 + 1;
            let base = t * words_per_thread;
            let mut mem = vec![0u64; words_per_thread];
            let mut sum = 0u64;
            for _ in 0..passes {
                for (i, cell) in mem.iter_mut().enumerate() {
                    d.write(tid, base + i);
                    *cell = (i as u64) ^ sum;
                    d.read(tid, base + i);
                    sum = sum.wrapping_add(*cell);
                }
            }
            sum
        }));
    }
    let mut checksum = 0u64;
    for h in handles {
        checksum = checksum.wrapping_add(h.join().expect("worker"));
    }
    (start.elapsed(), checksum)
}

/// Uninstrumented baseline of the same scan.
pub fn scan_workload_baseline(
    threads: usize,
    words_per_thread: usize,
    passes: usize,
) -> (Duration, u64) {
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        handles.push(std::thread::spawn(move || {
            let mut mem = vec![0u64; words_per_thread];
            let mut sum = 0u64;
            for _ in 0..passes {
                for (i, cell) in mem.iter_mut().enumerate() {
                    *cell = (i as u64) ^ sum;
                    sum = sum.wrapping_add(std::hint::black_box(*cell));
                }
            }
            let _ = t;
            sum
        }));
    }
    let mut checksum = 0u64;
    for h in handles {
        checksum = checksum.wrapping_add(h.join().expect("worker"));
    }
    (start.elapsed(), checksum)
}

/// Replays one recorded native execution through `backend`, timing
/// the replay. This is how the harnesses judge a *single* native run
/// with every engine: the workload executes once (recording its
/// [`CheckEvent`] trace), then each [`CheckBackend`] — SharC's
/// bitmap, the [`sharc_detectors::BaselineBackend`] adapters, or the
/// sharded [`Online`] front-ends — replays the identical event
/// sequence.
pub fn timed_replay(
    trace: &[CheckEvent],
    backend: &mut dyn CheckBackend,
) -> (Duration, Vec<Conflict>) {
    let start = Instant::now();
    let conflicts = replay(trace, backend);
    (start.elapsed(), conflicts)
}

/// An ownership-transfer trace (producer/consumer via two locks):
/// legal under SharC's sharing casts, a false positive for the
/// baselines.
pub fn handoff_trace(rounds: usize) -> Vec<CheckEvent> {
    let mut t = vec![CheckEvent::Fork {
        parent: 1,
        child: 2,
    }];
    for r in 0..rounds {
        let granule = r % 8;
        t.push(CheckEvent::Acquire { tid: 1, lock: 1 });
        t.push(CheckEvent::Write { tid: 1, granule });
        t.push(CheckEvent::Release { tid: 1, lock: 1 });
        t.push(CheckEvent::Acquire { tid: 2, lock: 2 });
        t.push(CheckEvent::Write { tid: 2, granule });
        t.push(CheckEvent::Release { tid: 2, lock: 2 });
    }
    t
}

// ---- Epoch-geometry rows (benches/checker.rs and `table1 --smoke`) ----

/// Granule count for the `epoch/*` rows: matches the cache's default
/// slot count so every granule is resident in steady state.
pub const EPOCH_GRANULES: usize = 256;

/// Lap count for the deterministic counter pass behind the
/// `counters` section of `BENCH_checker.json`.
pub const EPOCH_COUNTER_LAPS: usize = 10;

/// Exact cache counters for one `epoch/*` row, measured over
/// [`EPOCH_COUNTER_LAPS`] laps on fresh state (independent of the
/// timing sample count, so the JSON is reproducible).
#[derive(Debug, Clone)]
pub struct EpochCounters {
    pub name: &'static str,
    pub flushes: u64,
    pub misses: u64,
}

fn epoch_shadow(global: bool) -> Shadow {
    if global {
        // The R = 1 degenerate geometry: the pre-region behaviour
        // where any clear invalidates every cached entry.
        Shadow::with_epoch_regions(EPOCH_GRANULES, 1)
    } else {
        // The default geometry: 64 regions of 4 granules.
        Shadow::new(EPOCH_GRANULES)
    }
}

/// Steady-state private loop — no clears, so the epoch geometry is
/// irrelevant and both tables must time the same.
fn epoch_lap_private(s: &Shadow, t: ThreadId, cache: &mut OwnedCache) {
    for i in 0..EPOCH_GRANULES {
        s.check_write_cached(i, t, cache).unwrap();
    }
}

/// The ROADMAP's `cached-epoch-thrash` worst case: a point clear per
/// lap. Region table: one region (4 granules) refills. Global table:
/// the whole cache refills through the slow path.
fn epoch_lap_thrash(s: &Shadow, t: ThreadId, cache: &mut OwnedCache) {
    epoch_lap_private(s, t, cache);
    s.clear(0);
}

/// Mixed alloc/free/access: a hot cached upper half plus a churn
/// prefix of alloc-use-free granules (each freed granule's shadow is
/// reset, bumping its region). Clears stay confined to the low
/// regions; the hot half must stay cached under the region table.
fn epoch_lap_mixed(s: &Shadow, t: ThreadId, cache: &mut OwnedCache) {
    for i in EPOCH_GRANULES / 2..EPOCH_GRANULES {
        s.check_write_cached(i, t, cache).unwrap();
    }
    for i in 0..16 {
        s.check_write(i, t).unwrap(); // alloc + use
        s.clear(i); // free
    }
}

/// Benches the six `epoch/*` rows into `g` (region vs global
/// geometry on the private, thrash, and mixed patterns) and returns
/// exact flush/miss counters from a deterministic side pass.
pub fn epoch_rows(g: &mut sharc_testkit::Bench) -> Vec<EpochCounters> {
    type Lap = fn(&Shadow, ThreadId, &mut OwnedCache);
    let rows: [(&'static str, bool, Lap); 6] = [
        ("epoch/region-private", false, epoch_lap_private),
        ("epoch/global-private", true, epoch_lap_private),
        ("epoch/region-thrash", false, epoch_lap_thrash),
        ("epoch/global-thrash", true, epoch_lap_thrash),
        ("epoch/region-mixed", false, epoch_lap_mixed),
        ("epoch/global-mixed", true, epoch_lap_mixed),
    ];
    let t = ThreadId(1);
    let mut counters = Vec::new();
    for (name, global, lap) in rows {
        {
            let s = epoch_shadow(global);
            let mut cache: OwnedCache = OwnedCache::new();
            g.bench(name, || lap(&s, t, &mut cache));
        }
        let s = epoch_shadow(global);
        let mut cache: OwnedCache = OwnedCache::new();
        for _ in 0..EPOCH_COUNTER_LAPS {
            lap(&s, t, &mut cache);
        }
        counters.push(EpochCounters {
            name,
            flushes: cache.flushes,
            misses: cache.misses,
        });
    }
    counters
}

/// The `epoch-geom/r{R}-ws{WS}` grid: region count × working set on
/// the Table 1 access shape the region table exists for — a hot
/// private upper half (pfscan scan buffers, pbzip2 per-worker blocks)
/// plus an alloc-use-free churn prefix whose clears bump epochs.
/// With R = 1 every clear flushes the hot half's entries (the
/// degenerate global epoch); as R grows the churn confines itself to
/// the low regions until, past ~one region per churn granule, extra
/// regions buy nothing — the knee that grounds `DEFAULT_REGIONS =
/// 64`. Rows land in `BENCH_checker.json` with everything else.
pub fn epoch_geometry_rows(g: &mut sharc_testkit::Bench) {
    let t = ThreadId(1);
    for &ws in &[64usize, 256, 1024] {
        for &r in &[1usize, 16, 64, 256] {
            let s: Shadow = Shadow::with_epoch_regions(ws, r);
            let mut cache: OwnedCache = OwnedCache::new();
            let churn = (ws / 16).max(4);
            g.bench(&format!("epoch-geom/r{r}-ws{ws}"), || {
                for i in ws / 2..ws {
                    s.check_write_cached(i, t, &mut cache).unwrap();
                }
                for i in 0..churn {
                    s.check_write(i, t).unwrap(); // alloc + use
                    s.clear(i); // free
                }
            });
        }
    }
}

/// Asserts the epoch-table perf claims: region-epoch ≥2× faster than
/// global-epoch under thrash, and within noise of it on the no-clear
/// private loop. Compared on per-row minima — the loops do constant
/// work, so the fastest sample is the least noise-contaminated one
/// and the comparison stays stable at CI's small sample counts.
pub fn assert_epoch_wins(g: &sharc_testkit::Bench) {
    let row_min = |name: &str| {
        g.results()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.min_ns)
            .expect("epoch row ran")
    };
    let (rt, gt) = (
        row_min("epoch/region-thrash"),
        row_min("epoch/global-thrash"),
    );
    eprintln!("epoch thrash: region {rt} ns/lap vs global {gt} ns/lap (want >=2x)");
    assert!(
        rt * 2 <= gt,
        "region-epoch must beat global-epoch >=2x under thrash ({rt} * 2 > {gt} ns)"
    );
    let (rp, gp) = (
        row_min("epoch/region-private"),
        row_min("epoch/global-private"),
    );
    eprintln!("epoch private: region {rp} ns/lap vs global {gp} ns/lap (want within noise)");
    // Both laps do identical all-hit work; allow generous slack (2x
    // plus a 2 us floor) so scheduler jitter cannot flake CI, while
    // still catching a geometry-dependent fast-path regression.
    assert!(
        rp <= gp.saturating_mul(2).max(2_000),
        "region-epoch private loop regressed vs global ({rp} ns vs {gp} ns)"
    );
}

/// The ranged-cast acceptance gate on the `cast/*` rows: a block
/// hand-off as ONE `RangeCast` + `clear_range` (one spine record, one
/// epoch bump per covered region) must beat the per-granule
/// `SharingCast` + `clear` loop by >= 4x on 4 KiB blocks, and the win
/// must hold at 64 KiB — the ranged path's per-block overhead (one
/// record, <= R region bumps) does not grow with block length, so a
/// longer block can only widen the gap. Minima, not medians, for the
/// same reason as every other gate here: constant-work loops, least
/// noise-contaminated sample.
pub fn assert_ranged_cast_wins(g: &sharc_testkit::Bench) {
    let row_min = |name: &str| {
        g.results()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.min_ns)
            .expect("cast row ran")
    };
    for kb in [4u32, 64] {
        let (rng, per) = (
            row_min(&format!("cast/block-{kb}k-ranged")),
            row_min(&format!("cast/block-{kb}k-granule")),
        );
        eprintln!(
            "cast block-{kb}k: ranged {rng} ns/hand-off (min) vs per-granule {per} ns (want >=4x)"
        );
        assert!(
            rng * 4 <= per,
            "ranged {kb}k block hand-off must beat the per-granule cast loop >=4x \
             ({rng} * 4 > {per} ns)"
        );
    }
}

/// A derived throughput record for one wide-fleet stunnel
/// configuration. The timing row itself (median/p95 latency per
/// fleet run) lands in the bench group like every other row; this
/// carries the messages-per-second figure computed from the median
/// so `BENCH_checker.json` states the server-facing number directly.
#[derive(Debug, Clone)]
pub struct StunnelRow {
    /// Bench row name (`stunnel/...`), shared with the timing row.
    pub name: String,
    /// Simulated client connections per run.
    pub clients: usize,
    /// Real worker threads per run.
    pub workers: usize,
    /// Messages per client per run.
    pub messages: usize,
    /// Echoed messages per second, derived from the median run time.
    pub msgs_per_sec: i64,
}

/// Benches the wide-tid stunnel fleet into `g`: the checked/original
/// pair at the fleet shape (throughput plus the harness's p50/p95),
/// then the clients × workers contention sweep — same total client
/// count served by fleets from narrow (everything in shard 0) to
/// wider than two shards, so the sweep prices shard-crossing
/// contention on the session and counter locks. Returns the derived
/// throughput records for the JSON document.
pub fn stunnel_rows(g: &mut sharc_testkit::Bench, smoke: bool) -> Vec<StunnelRow> {
    use sharc_runtime::{CachedChecked, Unchecked};
    use sharc_workloads::benchmarks::stunnel::{run_native, Params};

    let shape = |clients: usize, workers: usize| Params {
        clients,
        workers,
        messages: 4,
        msg_len: 256,
    };
    // The headline pair: the full fleet, checked vs unchecked.
    let fleet = shape(128, 128);
    let mut specs: Vec<(String, Params, bool)> = vec![
        ("stunnel/fleet-sharc".to_string(), fleet, true),
        ("stunnel/fleet-orig".to_string(), fleet, false),
    ];
    // Contention sweep: clients × worker threads.
    let sweep: &[(usize, usize)] = if smoke {
        &[(64, 16), (64, 64)]
    } else {
        &[(64, 16), (64, 64), (128, 32), (128, 128), (256, 64)]
    };
    for &(c, w) in sweep {
        specs.push((format!("stunnel/sweep-c{c}-w{w}"), shape(c, w), true));
    }

    let mut rows = Vec::new();
    for (name, params, checked) in specs {
        if checked {
            g.bench(&name, || run_native::<CachedChecked>(&params));
        } else {
            g.bench(&name, || run_native::<Unchecked>(&params));
        }
        let stats = g
            .results()
            .iter()
            .find(|s| s.name == name)
            .expect("stunnel row ran");
        let total_msgs = (params.clients * params.messages) as u128;
        let msgs_per_sec = (total_msgs * 1_000_000_000 / (stats.median_ns as u128).max(1)) as i64;
        eprintln!(
            "{name}: {msgs_per_sec} msgs/s \
             ({} clients x {} msgs over {} workers, median run)",
            params.clients, params.messages, params.workers
        );
        rows.push(StunnelRow {
            name,
            clients: params.clients,
            workers: params.workers,
            messages: params.messages,
            msgs_per_sec,
        });
    }
    rows
}

/// The accounting record of one `online/*` streaming configuration:
/// the bounded-memory pipeline's budget next to what it actually
/// held resident, so `BENCH_checker.json` states the memory claim as
/// numbers and CI can gate on it.
#[derive(Debug, Clone)]
pub struct OnlineRow {
    /// Bench row of the streaming run (`online/<w>-stream`).
    pub stream_row: String,
    /// Bench row of the untraced checked run (`online/<w>-orig`).
    pub untraced_row: String,
    /// Per-thread rings in the sink.
    pub rings: usize,
    /// Events per ring buffer.
    pub ring_cap: usize,
    /// Events the deterministic side pass recorded.
    pub recorded: u64,
    /// Collector drains it took.
    pub drains: u64,
    /// Most events ever resident across all rings.
    pub peak_resident: usize,
    /// The hard bound: `2 * ring_cap * rings`.
    pub ring_budget: usize,
}

/// Benches the `online/*` rows into `g`: for stunnel (fleet shape)
/// and pbzip2, the streaming pipeline — per-thread rings, epoch-flip
/// collector, SharC's bitmap backend judging *during* the run —
/// against the identical untraced checked run. A deterministic side
/// pass per workload captures the stream accounting; ring budgets
/// are deliberately far below each workload's recorded event count,
/// so "peak under budget" means the collector genuinely recycled the
/// rings rather than the trace having fit in them.
pub fn online_rows(g: &mut sharc_testkit::Bench, smoke: bool) -> Vec<OnlineRow> {
    use sharc_checker::{BitmapBackend, ShadowGeometry, StreamingSink};
    use sharc_runtime::CachedChecked;
    use sharc_workloads::benchmarks::{pbzip2, stunnel};

    let stunnel_params = stunnel::Params {
        clients: 128,
        workers: 128,
        messages: 4,
        msg_len: 256,
    };
    let pbzip2_params = pbzip2::Params {
        input_size: if smoke { 64 * 1024 } else { 256 * 1024 },
        block: 16 * 1024,
        workers: 3,
    };

    let stunnel_stream = |rings: usize, cap: usize| {
        let geom = ShadowGeometry::for_threads(stunnel_params.workers + 2);
        let sink = Arc::new(StreamingSink::new(
            rings,
            cap,
            Box::new(BitmapBackend::with_geometry(geom)),
        ));
        let run = stunnel::run_with_events(&stunnel_params, sink.clone());
        let (conflicts, stats) = sink.finish();
        assert!(conflicts.is_empty(), "streamed stunnel is clean");
        (run, stats)
    };
    let pbzip2_stream = |rings: usize, cap: usize| {
        let geom = ShadowGeometry::for_threads(pbzip2_params.workers + 2);
        let sink = Arc::new(StreamingSink::new(
            rings,
            cap,
            Box::new(BitmapBackend::with_geometry(geom)),
        ));
        let run = pbzip2::run_with_events(&pbzip2_params, sink.clone());
        let (conflicts, stats) = sink.finish();
        assert!(conflicts.is_empty(), "streamed pbzip2 is clean");
        (run, stats)
    };

    let mut rows = Vec::new();

    // stunnel: 4 rings x 256 events, budget 2048 vs a ~5k-event run.
    let (rings, cap) = (4usize, 256usize);
    g.bench("online/stunnel-stream", || stunnel_stream(rings, cap));
    g.bench("online/stunnel-orig", || {
        stunnel::run_native::<CachedChecked>(&stunnel_params)
    });
    let (_, stats) = stunnel_stream(rings, cap);
    rows.push(OnlineRow {
        stream_row: "online/stunnel-stream".to_string(),
        untraced_row: "online/stunnel-orig".to_string(),
        rings,
        ring_cap: cap,
        recorded: stats.recorded,
        drains: stats.drains,
        peak_resident: stats.peak_resident,
        ring_budget: stats.ring_budget,
    });

    // pbzip2: 2 rings x 16 events, budget 64 vs a ~100-event run.
    let (rings, cap) = (2usize, 16usize);
    g.bench("online/pbzip2-stream", || pbzip2_stream(rings, cap));
    g.bench("online/pbzip2-orig", || {
        pbzip2::run_native(&pbzip2_params, true)
    });
    let (_, stats) = pbzip2_stream(rings, cap);
    rows.push(OnlineRow {
        stream_row: "online/pbzip2-stream".to_string(),
        untraced_row: "online/pbzip2-orig".to_string(),
        rings,
        ring_cap: cap,
        recorded: stats.recorded,
        drains: stats.drains,
        peak_resident: stats.peak_resident,
        ring_budget: stats.ring_budget,
    });

    for r in &rows {
        eprintln!(
            "{}: {} events through {} x {} rings, peak resident {} / budget {}, {} drains",
            r.stream_row, r.recorded, r.rings, r.ring_cap, r.peak_resident, r.ring_budget, r.drains
        );
    }
    rows
}

/// Asserts the streaming pipeline's two claims on the `online/*`
/// rows. Memory: peak resident events stay under the ring budget,
/// and the budget itself is a real constraint (the run recorded more
/// events than the rings could ever hold at once). Throughput: the
/// streamed stunnel fleet finishes within 1.25x of the untraced
/// checked run — compared on per-row minima like
/// [`assert_epoch_wins`], with a small absolute floor so scheduler
/// jitter on CI cannot flake the gate.
pub fn assert_online_bounds(g: &sharc_testkit::Bench, rows: &[OnlineRow]) {
    for r in rows {
        assert!(
            r.peak_resident <= r.ring_budget,
            "{}: peak resident {} exceeds ring budget {}",
            r.stream_row,
            r.peak_resident,
            r.ring_budget
        );
        assert!(
            r.recorded > r.ring_budget as u64,
            "{}: budget {} is not binding over {} recorded events",
            r.stream_row,
            r.ring_budget,
            r.recorded
        );
        assert!(
            r.drains >= 2,
            "{}: the collector must actually run mid-stream ({} drains)",
            r.stream_row,
            r.drains
        );
    }
    let row_min = |name: &str| {
        g.results()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.min_ns)
            .expect("online row ran")
    };
    let (sm, um) = (
        row_min("online/stunnel-stream"),
        row_min("online/stunnel-orig"),
    );
    eprintln!("online stunnel: stream {sm} ns vs untraced {um} ns (want <=1.25x)");
    assert!(
        sm <= um.saturating_mul(5) / 4 + 2_000_000,
        "streamed stunnel exceeded 1.25x of the untraced run ({sm} ns vs {um} ns)"
    );
}

// ---- Table 1 overhead gates (`table1 --smoke`) ----

/// Interleaved orig/checked pairs behind each overhead gate.
pub const OVERHEAD_PAIRS: usize = 7;

/// The median of per-pair `checked / orig` wall-clock ratios over
/// `pairs` interleaved runs (o, c, o, c, …), after one untimed
/// warm-up pair. `run(checked)` runs one build.
pub fn median_overhead_ratio<R>(pairs: usize, mut run: impl FnMut(bool) -> R) -> f64 {
    drop(run(false));
    drop(run(true));
    let mut ratios: Vec<f64> = (0..pairs)
        .map(|_| {
            let t = Instant::now();
            drop(run(false));
            let orig = t.elapsed();
            let t = Instant::now();
            drop(run(true));
            t.elapsed().as_secs_f64() / orig.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[pairs / 2]
}

/// Two Table 1 time-overhead claims, each a median over
/// [`OVERHEAD_PAIRS`] interleaved pairs (run it from a release
/// build):
/// - aget is network bound, so its checked download drowns in the
///   chunk server's latency: ratio < 1.6 (the paper's "n/a" row);
/// - stunnel's checks ride on ranged sweeps and the owned-run cache
///   under encryption and thread management: ratio < 1.5 on a
///   64-worker fleet (paper: 2%).
pub fn assert_overhead_bounds() {
    use sharc_runtime::{CachedChecked, Checked, Unchecked};
    use sharc_workloads::benchmarks::{aget, stunnel};
    use sharc_workloads::table::Scale;

    let ag = aget::Params::scaled(Scale::quick());
    let r = median_overhead_ratio(OVERHEAD_PAIRS, |checked| {
        if checked {
            aget::run_native::<Checked>(&ag)
        } else {
            aget::run_native::<Unchecked>(&ag)
        }
    });
    eprintln!("overhead aget: median checked/orig {r:.3} over {OVERHEAD_PAIRS} pairs (want < 1.6)");
    assert!(
        r < 1.6,
        "network-bound: aget's overhead should drown in latency (median ratio {r:.3})"
    );

    let st = stunnel::Params {
        clients: 64,
        workers: 64,
        messages: 8,
        msg_len: 256,
    };
    let r = median_overhead_ratio(OVERHEAD_PAIRS, |checked| {
        if checked {
            stunnel::run_native::<CachedChecked>(&st)
        } else {
            stunnel::run_native::<Unchecked>(&st)
        }
    });
    eprintln!(
        "overhead stunnel: median checked/orig {r:.3} over {OVERHEAD_PAIRS} pairs (want < 1.5)"
    );
    assert!(
        r < 1.5,
        "stunnel's ranged cached checks are cheap (median ratio {r:.3})"
    );
}

// ---- Static check elision (compiler-side ablation) ----

/// Per-workload accounting of the static check-elision pass: how many
/// check slots the instrumenter requested on the Table 1 MiniC port
/// and how many the escape+lockset pre-analysis deleted before they
/// could become instructions. Lands in `BENCH_checker.json` so the
/// static win is recorded next to the dynamic rows.
#[derive(Debug, Clone)]
pub struct ElisionRow {
    /// Workload name (Table 1 row).
    pub name: &'static str,
    /// Check slots the instrumenter emitted.
    pub checked_slots: usize,
    /// Slots deleted outright (E1–E4).
    pub elided_slots: usize,
    /// Compound-assign read slots folded into their write check (E5).
    pub collapsed_reads: usize,
    /// `elided_slots` as a percentage of `checked_slots`.
    pub elided_pct: f64,
}

/// Compiles each Table 1 workload's MiniC port and reads the elision
/// summary off the checked program — a deterministic, timing-free
/// pass, like the epoch counter pass.
pub fn elision_rows() -> Vec<ElisionRow> {
    use sharc_workloads::benchmarks::{aget, dillo, fftw, pbzip2, pfscan, stunnel};
    let sources: [(&'static str, &'static str); 6] = [
        ("pfscan", pfscan::minic_source()),
        ("aget", aget::minic_source()),
        ("pbzip2", pbzip2::minic_source()),
        ("dillo", dillo::minic_source()),
        ("fftw", fftw::minic_source()),
        ("stunnel", stunnel::minic_source()),
    ];
    sources
        .iter()
        .map(|&(name, src)| {
            let checked =
                sharc_core::compile(&format!("{name}.c"), src).expect("workload port parses");
            assert!(
                !checked.diags.has_errors(),
                "{name} port must check cleanly"
            );
            let s = &checked.elision.summary;
            ElisionRow {
                name,
                checked_slots: s.checked_slots,
                elided_slots: s.elided_slots,
                collapsed_reads: s.collapsed_reads,
                elided_pct: s.elided_pct(),
            }
        })
        .collect()
}

/// The check-dominated private loop the VM cache rows have always
/// used, minus the `print(*p)` tail: a main-side read is one more
/// access to the object, which (soundly) defeats the spawn-unique
/// argument, so the bench program keeps every access inside the one
/// spawned worker.
const ELIDE_SRC: &str = "void worker(int * d) { int i; for (i = 0; i < 3000; i++) \
     { *d = *d + 1; *d = *d + 1; *d = *d + 1; *d = *d + 1; } }\n\
     void main() { int * p; int t; p = new(int); \
     t = spawn(worker, p); join(t); }";

/// Benches the three `vm/private-loop/*` rows: the default (eliding)
/// build against the fully-checked build with the owned cache on and
/// off. Ordering claim on this loop: elided < checked-cached <
/// checked-uncached — each layer removes work the previous one only
/// made cheaper. Returns nothing; the gate is [`assert_elision_wins`].
pub fn elision_vm_rows(g: &mut sharc_testkit::Bench) {
    use sharc_interp::{compile_full_checks, compile_module, run, VmConfig};
    let checked = sharc_core::compile("v.c", ELIDE_SRC).expect("bench source parses");
    assert!(!checked.diags.has_errors(), "bench source checks");
    let elided = compile_module(&checked).expect("elided build compiles");
    let full = compile_full_checks(&checked).expect("full-checks build compiles");
    assert!(
        elided.elision.elided > 0,
        "the private loop's checks must be statically elided"
    );
    assert_eq!(
        full.elision.elided, 0,
        "the reference build keeps every check"
    );
    g.bench("vm/private-loop/elided", || {
        run(&elided, &checked.source_map, VmConfig::default())
    });
    g.bench("vm/private-loop/cache-on", || {
        run(&full, &checked.source_map, VmConfig::default())
    });
    g.bench("vm/private-loop/cache-off", || {
        run(
            &full,
            &checked.source_map,
            VmConfig {
                owned_cache: false,
                ..VmConfig::default()
            },
        )
    });
}

/// The elision acceptance gate: on the check-dominated private loop,
/// the eliding build (no check instructions at all) must beat the
/// fully-checked build even with the PR 5 owned-granule cache turned
/// on — deleting a check statically is cheaper than any way of
/// passing it dynamically. Compared on per-row minima like
/// [`assert_epoch_wins`].
pub fn assert_elision_wins(g: &sharc_testkit::Bench) {
    let row_min = |name: &str| {
        g.results()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.min_ns)
            .expect("vm private-loop row ran")
    };
    let (e, c) = (
        row_min("vm/private-loop/elided"),
        row_min("vm/private-loop/cache-on"),
    );
    eprintln!("vm private loop: elided {e} ns/run (min) vs checked+cached {c} ns/run");
    assert!(
        e < c,
        "the eliding build must beat the checked+cached build ({e} ns vs {c} ns)"
    );
}

// ---- Binary traces + parallel replay (benches/checker.rs) ----

/// A deterministic spine-shaped trace for the `trace/*` and
/// `replay/*` rows: `threads` workers, each owning a private
/// `granules_per_thread` band (conflict-free for every detector, so
/// replay time measures the fold, not conflict handling), emitting
/// the full event vocabulary at server-fleet ratios — point accesses
/// dominate, with ranges, lock triples, and casts mixed in. The
/// xorshift `seed` makes the trace byte-identical across runs, and
/// one band spans exactly one epoch region at the default geometry,
/// so the parallel partition is balanced by construction.
pub fn synthetic_spine_trace(
    events: usize,
    threads: u32,
    granules_per_thread: usize,
    seed: u64,
) -> Vec<CheckEvent> {
    use CheckEvent as E;
    let mut out = Vec::with_capacity(events + 2 * threads as usize);
    for t in 0..threads {
        out.push(E::Fork {
            parent: 1,
            child: t + 2,
        });
    }
    let mut s = seed | 1;
    let mut rng = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    while out.len() < events {
        // Threads record in scheduling bursts, the way a real
        // `EventLog` fills: one tid appends a run of events before
        // the next thread's quantum. 16–63-event bursts give the
        // binary format's per-thread blocks realistic runs.
        let r0 = rng();
        let tid = (r0 % threads as u64) as u32 + 2;
        let band = (tid as usize - 2) * granules_per_thread;
        let burst = 16 + (r0 >> 32) as usize % 48;
        for _ in 0..burst {
            let r = rng();
            let len = (r >> 16) as usize % 7 + 1;
            // Keep `granule + len` inside the band: a range spilling
            // into the neighbor's band would be a real race.
            let granule = band + ((r >> 8) as usize % (granules_per_thread - len));
            match (r >> 32) % 100 {
                0..=54 => out.push(E::Write { tid, granule }),
                55..=84 => out.push(E::Read { tid, granule }),
                85..=89 => out.push(E::RangeWrite { tid, granule, len }),
                90..=93 => out.push(E::RangeRead { tid, granule, len }),
                94..=95 => {
                    // A held-lock access, acquire..release adjacent
                    // so the triple is legal wherever it lands.
                    let lock = granule % 5;
                    out.push(E::Acquire { tid, lock });
                    out.push(E::LockedAccess { tid, lock });
                    out.push(E::Release { tid, lock });
                }
                96..=97 => out.push(E::SharingCast {
                    tid,
                    granule,
                    refs: 1,
                }),
                _ => out.push(E::RangeCast {
                    tid,
                    granule,
                    len,
                    refs: 1,
                }),
            }
        }
    }
    out.truncate(events);
    for t in 0..threads {
        out.push(E::ThreadExit { tid: t + 2 });
    }
    out
}

/// One measured record behind the `trace` section of
/// `BENCH_checker.json`: the synthetic spine trace's size in both
/// encodings plus the replay-parallelism context of the host.
#[derive(Debug, Clone)]
pub struct TraceRow {
    pub name: &'static str,
    pub events: usize,
    pub threads: u32,
    pub text_bytes: usize,
    pub binary_bytes: usize,
    pub replay_jobs: usize,
    pub cpus: usize,
}

/// How many workers the `replay/par-N` row uses.
pub const REPLAY_JOBS: usize = 4;

/// The `trace/{encode,decode}-{text,binary}` and
/// `replay/{seq,par-4}` rows. Encode/decode rows time both codecs on
/// a 10⁶-event prefix; the replay rows and the byte comparison use
/// the full trace — 10⁷ events, or 10⁶ under `--smoke`.
pub fn trace_replay_rows(g: &mut sharc_testkit::Bench, smoke: bool) -> TraceRow {
    use sharc_checker::{
        geometry_for_trace, parse_binary, parse_trace, to_binary, trace_to_text, BitmapBackend,
        ParallelReplay,
    };
    let events = if smoke { 1_000_000 } else { 10_000_000 };
    let threads = 64u32;
    let trace = synthetic_spine_trace(events, threads, 512, 0x5ac5_b17e);
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Codec rows on a bounded prefix so five laps of four rows stay
    // cheap; ratios are what the gate checks and they are
    // size-independent past cache effects.
    let prefix = &trace[..trace.len().min(1_000_000)];
    let text = trace_to_text(prefix);
    let binary = to_binary(prefix);
    g.bench("trace/encode-text", || trace_to_text(prefix).len());
    g.bench("trace/encode-binary", || to_binary(prefix).len());
    g.bench("trace/decode-text", || {
        parse_trace(&text).expect("text decodes").len()
    });
    g.bench("trace/decode-binary", || {
        parse_binary(&binary).expect("binary decodes").len()
    });

    // The archive claim is measured on the whole trace.
    let text_bytes = trace_to_text(&trace).len();
    let binary_bytes = to_binary(&trace).len();

    // Replay rows: fresh backend per lap (replay mutates it), shared
    // geometry precomputed outside the timer.
    let geom = geometry_for_trace(&trace);
    g.bench("replay/seq", || {
        replay(&trace, &mut BitmapBackend::with_geometry(geom)).len()
    });
    let par = ParallelReplay::new(REPLAY_JOBS);
    g.bench(&format!("replay/par-{REPLAY_JOBS}"), || {
        par.replay(&trace, move || {
            Box::new(BitmapBackend::with_geometry(geom)) as _
        })
        .len()
    });

    // Outside the timers: the engines must agree exactly — and this
    // synthetic trace is conflict-free by construction.
    let seq_conflicts = replay(&trace, &mut BitmapBackend::with_geometry(geom));
    let par_conflicts = par.replay(&trace, move || {
        Box::new(BitmapBackend::with_geometry(geom)) as _
    });
    assert_eq!(
        seq_conflicts, par_conflicts,
        "parallel replay verdicts must be bit-identical to sequential"
    );
    assert!(
        seq_conflicts.is_empty(),
        "the synthetic spine trace is conflict-free by construction"
    );

    TraceRow {
        name: "spine-synthetic",
        events: trace.len(),
        threads,
        text_bytes,
        binary_bytes,
        replay_jobs: REPLAY_JOBS,
        cpus,
    }
}

/// The binary-trace acceptance gate: on the same trace, binary v5
/// must cost at most ¼ the bytes of text v3, and binary
/// encode+decode must beat text encode+decode by ≥2× (per-row
/// minima, like every other gate).
pub fn assert_trace_wins(g: &sharc_testkit::Bench, row: &TraceRow) {
    let row_min = |name: &str| {
        g.results()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.min_ns)
            .expect("trace row ran")
    };
    eprintln!(
        "trace bytes ({} events): text {} vs binary {} ({:.1}x smaller)",
        row.events,
        row.text_bytes,
        row.binary_bytes,
        row.text_bytes as f64 / row.binary_bytes as f64
    );
    assert!(
        row.binary_bytes * 4 <= row.text_bytes,
        "binary trace must be at most 1/4 the bytes of text ({} vs {})",
        row.binary_bytes,
        row.text_bytes
    );
    let (te, td) = (row_min("trace/encode-text"), row_min("trace/decode-text"));
    let (be, bd) = (
        row_min("trace/encode-binary"),
        row_min("trace/decode-binary"),
    );
    eprintln!("trace codec: text {te}+{td} ns vs binary {be}+{bd} ns (min)");
    assert!(
        (be + bd) * 2 <= te + td,
        "binary encode+decode must beat text by >=2x ({be}+{bd} ns vs {te}+{td} ns)"
    );
}

/// The parallel-replay acceptance gate. On a multi-core host the
/// `replay/par-4` minimum must be at least 2× below `replay/seq`'s.
/// On a single-CPU host a wall-clock speedup is physically
/// impossible — four workers time-slice one core, and each scans the
/// whole event slice — so the gate degrades to an overhead bound
/// (par ≤ 4× seq, i.e. the sharding itself adds little beyond the
/// replicated scans) and says so instead of asserting a fiction. The
/// verdict equality half of the claim is asserted unconditionally in
/// [`trace_replay_rows`].
pub fn assert_parallel_replay_wins(g: &sharc_testkit::Bench, row: &TraceRow) {
    let row_min = |name: &str| {
        g.results()
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.min_ns)
            .expect("replay row ran")
    };
    let (seq, par) = (
        row_min("replay/seq"),
        row_min(&format!("replay/par-{}", row.replay_jobs)),
    );
    eprintln!(
        "replay ({} events): seq {seq} ns vs par-{} {par} ns (min) on {} cpu(s)",
        row.events, row.replay_jobs, row.cpus
    );
    if row.cpus >= 2 {
        assert!(
            par * 2 <= seq,
            "parallel replay must be >=2x faster than sequential ({par} ns vs {seq} ns on {} cpus)",
            row.cpus
        );
    } else {
        eprintln!(
            "replay: single-CPU host — the >=2x wall-clock gate cannot bind; \
             bounding sharding overhead instead"
        );
        assert!(
            par <= seq.saturating_mul(4),
            "parallel replay overhead out of bounds on 1 cpu ({par} ns vs {seq} ns)"
        );
    }
}

/// Writes `BENCH_checker.json` at the repo root: the standard bench
/// document augmented with the exact `flushes`/`misses` counters,
/// the stunnel fleet's derived throughput records, the streaming
/// pipeline's memory accounting, and the per-workload static elision
/// percentages, so the bench trajectory is recorded across PRs.
pub fn write_checker_json_at_repo_root(
    g: &sharc_testkit::Bench,
    counters: &[EpochCounters],
    stunnel: &[StunnelRow],
    online: &[OnlineRow],
    elision: &[ElisionRow],
    trace: &[TraceRow],
) {
    use sharc_testkit::Json;
    let mut doc = g.to_json();
    let arr = Json::Arr(
        counters
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::Str(c.name.to_string())),
                    ("laps", Json::Int(EPOCH_COUNTER_LAPS as i64)),
                    ("flushes", Json::Int(c.flushes as i64)),
                    ("misses", Json::Int(c.misses as i64)),
                ])
            })
            .collect(),
    );
    let stunnel_arr = Json::Arr(
        stunnel
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::Str(r.name.clone())),
                    ("clients", Json::Int(r.clients as i64)),
                    ("workers", Json::Int(r.workers as i64)),
                    ("messages", Json::Int(r.messages as i64)),
                    ("msgs_per_sec", Json::Int(r.msgs_per_sec)),
                ])
            })
            .collect(),
    );
    let online_arr = Json::Arr(
        online
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::Str(r.stream_row.clone())),
                    ("untraced", Json::Str(r.untraced_row.clone())),
                    ("rings", Json::Int(r.rings as i64)),
                    ("ring_cap", Json::Int(r.ring_cap as i64)),
                    ("recorded", Json::Int(r.recorded as i64)),
                    ("drains", Json::Int(r.drains as i64)),
                    ("peak_resident", Json::Int(r.peak_resident as i64)),
                    ("ring_budget", Json::Int(r.ring_budget as i64)),
                ])
            })
            .collect(),
    );
    let elision_arr = Json::Arr(
        elision
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::Str(r.name.to_string())),
                    ("checked_slots", Json::Int(r.checked_slots as i64)),
                    ("elided_slots", Json::Int(r.elided_slots as i64)),
                    ("collapsed_reads", Json::Int(r.collapsed_reads as i64)),
                    ("elided_pct", Json::Float(r.elided_pct)),
                ])
            })
            .collect(),
    );
    let trace_arr = Json::Arr(
        trace
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::Str(r.name.to_string())),
                    ("events", Json::Int(r.events as i64)),
                    ("threads", Json::Int(r.threads as i64)),
                    ("text_bytes", Json::Int(r.text_bytes as i64)),
                    ("binary_bytes", Json::Int(r.binary_bytes as i64)),
                    ("replay_jobs", Json::Int(r.replay_jobs as i64)),
                    ("cpus", Json::Int(r.cpus as i64)),
                ])
            })
            .collect(),
    );
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("counters".to_string(), arr));
        pairs.push(("stunnel".to_string(), stunnel_arr));
        pairs.push(("online".to_string(), online_arr));
        pairs.push(("elision".to_string(), elision_arr));
        pairs.push(("trace".to_string(), trace_arr));
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("BENCH_checker.json");
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharc_runtime::{Checked, LpRc, NaiveRc, Unchecked};

    #[test]
    fn rc_workload_runs_both_schemes() {
        let naive = Arc::new(NaiveRc::new(64, 16));
        let lp = Arc::new(LpRc::new(64, 16, 2));
        let d1 = rc_workload(naive, 2, 500, 32, 16, 50);
        let d2 = rc_workload(lp, 2, 500, 32, 16, 50);
        assert!(d1 > Duration::ZERO && d2 > Duration::ZERO);
    }

    #[test]
    fn scan_checksums_agree() {
        let a1: Arc<Arena> = Arc::new(Arena::for_threads(64, 2));
        let a2: Arc<Arena> = Arc::new(Arena::for_threads(64, 2));
        let (_, c1) = scan_workload_sharc::<Unchecked>(a1, 2, 32, 3);
        let (_, c2) = scan_workload_sharc::<Checked>(a2, 2, 32, 3);
        let (_, c3) = scan_workload_baseline(2, 32, 3);
        assert_eq!(c1, c2);
        assert_eq!(c1, c3);
    }

    #[test]
    fn epoch_counter_pass_shows_region_dominance() {
        // The deterministic side pass behind BENCH_checker.json's
        // `counters`: on every pattern the region table discards no
        // more entries and misses no more often than the global one.
        let t = ThreadId(1);
        type Lap = fn(&Shadow, ThreadId, &mut OwnedCache);
        let laps: [(&str, Lap); 3] = [
            ("private", epoch_lap_private),
            ("thrash", epoch_lap_thrash),
            ("mixed", epoch_lap_mixed),
        ];
        for (pat, lap) in laps {
            let run = |global: bool| {
                let s = epoch_shadow(global);
                let mut c: OwnedCache = OwnedCache::new();
                for _ in 0..EPOCH_COUNTER_LAPS {
                    lap(&s, t, &mut c);
                }
                (c.flushes, c.misses)
            };
            let (rf, rm) = run(false);
            let (gf, gm) = run(true);
            assert!(rf <= gf, "{pat}: region flushes {rf} > global {gf}");
            assert!(rm <= gm, "{pat}: region misses {rm} > global {gm}");
        }
        // And the thrash pattern specifically must show the point:
        // a point clear costs 4 granules under the region table, the
        // whole table under the global one.
        let thrash = |global: bool| {
            let s = epoch_shadow(global);
            let mut c: OwnedCache = OwnedCache::new();
            for _ in 0..EPOCH_COUNTER_LAPS {
                epoch_lap_thrash(&s, t, &mut c);
            }
            c.misses
        };
        assert!(thrash(false) * 2 < thrash(true));
    }

    #[test]
    fn handoff_trace_is_false_positive_for_baselines() {
        use sharc_detectors::{BaselineBackend, Eraser, VcDetector};
        let trace = handoff_trace(10);
        assert!(!replay(&trace, &mut BaselineBackend::new(Eraser::new())).is_empty());
        assert!(!replay(&trace, &mut BaselineBackend::new(VcDetector::new())).is_empty());
    }
}
