//! **fftw** — the FFT benchmark (Table 1 row 5).
//!
//! "The fftw benchmark performs 32 random FFTs... computes by
//! dividing arrays among a fixed number of worker threads. Ownership
//! of arrays is transferred to each thread, and then reclaimed when
//! the threads are finished. The functions that compute over the
//! partial arrays assume that they own that memory, so it was only
//! necessary to annotate those arguments as private."
//!
//! Paper row: 3 threads, 197k lines, 7 annotations, 39 changes, 7%
//! time, 1.2% memory, 0.2% dynamic accesses. The kernel runs on
//! privately-owned arrays (unchecked); SharC's cost is the per-array
//! ownership transfer (RC barrier + `oneref` cast) and a few checked
//! coordination words.

use crate::substrates::fft::{fft, random_signal, Complex};
use crate::table::{run_benchmark, BenchResult, NativeRun, Scale};
use sharc_checker::CheckEvent;
use sharc_runtime::{
    sharing_cast, Arena, EventLog, EventSink, LpRc, ObjId, RcScheme, ThreadCtx, ThreadId,
    GRANULE_WORDS,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub n_transforms: usize,
    pub size: usize,
    pub workers: usize,
}

impl Params {
    /// The paper's batch shape at the given scale.
    pub fn scaled(scale: Scale) -> Self {
        Params {
            // The paper runs 32 random FFTs.
            n_transforms: 32,
            size: if scale.quick { 512 } else { 4096 },
            workers: 2,
        }
    }
}

/// Runs the batch of transforms. When `checked`, each array hand-off
/// performs the RC store + sharing cast that SharC instruments.
pub fn run_native(params: &Params, checked: bool) -> NativeRun {
    // One RC slot per transform (the pointer cell its ownership
    // moves through), plus one per reclaim direction.
    let rc = Arc::new(LpRc::new(
        2 * params.n_transforms,
        params.n_transforms,
        params.workers + 1,
    ));
    let scast_failures = Arc::new(AtomicU64::new(0));

    // Pre-generate the signals (main owns them privately).
    let signals: Vec<Vec<Complex>> = (0..params.n_transforms)
        .map(|i| random_signal(params.size, i as u64))
        .collect();

    let checksum = Arc::new(AtomicU64::new(0));
    let per_worker = params.n_transforms.div_ceil(params.workers);

    // Main hands out ownership of each array before the workers
    // start (the arrays exist before the threads are spawned).
    if checked {
        for idx in 0..params.n_transforms {
            rc.store(0, 2 * idx, Some(ObjId(idx as u32)));
        }
    }

    std::thread::scope(|scope| {
        for (w, chunk) in signals.chunks(per_worker).enumerate() {
            let rc = Arc::clone(&rc);
            let scast_failures = Arc::clone(&scast_failures);
            let checksum = Arc::clone(&checksum);
            let base = w * per_worker;
            let chunk: Vec<Vec<Complex>> = chunk.to_vec();
            scope.spawn(move || {
                let mutator = w + 1;
                for (k, sig) in chunk.into_iter().enumerate() {
                    let idx = base + k;
                    if checked {
                        // Take ownership: SCAST the array to private.
                        if sharing_cast(&*rc, mutator, 2 * idx).is_err() {
                            scast_failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // The transform runs on privately-owned memory:
                    // unchecked in both builds.
                    let mut work = sig;
                    fft(&mut work);
                    let local: u64 = work
                        .iter()
                        .map(|c| (c.abs() * 1e6) as u64)
                        .fold(0, u64::wrapping_add);
                    checksum.fetch_add(local, Ordering::Relaxed);
                    if checked {
                        // Reclaim: publish the array back.
                        rc.store(mutator, 2 * idx + 1, Some(ObjId(idx as u32)));
                    }
                }
            });
        }
    });

    // Main reclaims the arrays (casts them back to private).
    if checked {
        for idx in 0..params.n_transforms {
            // The worker may not have stored yet only if it panicked;
            // scope join guarantees completion.
            if rc.read_slot(2 * idx + 1).is_some() && sharing_cast(&*rc, 0, 2 * idx + 1).is_err() {
                scast_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    let data_bytes = params.n_transforms * params.size * 16;
    NativeRun {
        checksum: checksum.load(Ordering::Relaxed),
        // Only the hand-off words are dynamic (paper: 0.2%).
        checked: if checked {
            4 * params.n_transforms as u64
        } else {
            0
        },
        total: (params.n_transforms * params.size * 4) as u64,
        conflicts: scast_failures.load(Ordering::Relaxed) as usize,
        payload_bytes: data_bytes,
        shadow_bytes: if checked {
            data_bytes / 16 + 2 * params.n_transforms * 10
        } else {
            0
        },
        threads: params.workers + 1,
    }
}

/// Runs the batch **checked and traced** on the `CheckEvent` spine,
/// returning the run record and the linearized native event trace.
///
/// The ownership transfers run through a shadowed arena here: one
/// granule per transform holds the descriptor (the signal seed) and
/// the result slot. Main fills each descriptor with a checked write,
/// *sharing-casts* the granule to whichever worker claims it, and the
/// worker writes its result back into the same granule — the array
/// hand-off of the paper's fftw, made visible to every detector.
pub fn run_traced(params: &Params) -> (NativeRun, Vec<CheckEvent>) {
    let sink = Arc::new(EventLog::new());
    let run = run_with_events(params, sink.clone());
    (run, sink.take())
}

/// Runs the batch checked, recording into any [`EventSink`] — the
/// entry the online (`StreamingSink`) detector path uses. Same
/// execution shape as [`run_traced`], which is this plus an
/// [`EventLog`] to keep the trace.
pub fn run_with_events(params: &Params, sink: Arc<dyn EventSink>) -> NativeRun {
    let arena: Arc<Arena> = Arc::new(Arena::for_threads(
        params.n_transforms * GRANULE_WORDS,
        params.workers + 1,
    ));
    let mut main_ctx = ThreadCtx::with_sink(ThreadId(1), Arc::clone(&sink));
    let per_worker = params.n_transforms.div_ceil(params.workers);

    // Main hands out ownership of each descriptor before the workers
    // start (the arrays exist before the threads are spawned): fill
    // every descriptor with a checked write, then hand the whole
    // batch off as ONE ranged cast with one ranged shadow clear.
    for idx in 0..params.n_transforms {
        arena.write_checked(&mut main_ctx, idx * GRANULE_WORDS, idx as u64);
    }
    sink.record(CheckEvent::RangeCast {
        tid: 1,
        granule: 0,
        len: params.n_transforms,
        refs: 1,
    });
    arena.clear_range(0, params.n_transforms * GRANULE_WORDS);

    let mut handles = Vec::new();
    for w in 0..params.workers {
        let tid = ThreadId(w as u32 + 2);
        sink.record(CheckEvent::Fork {
            parent: 1,
            child: tid.0,
        });
        let arena = Arc::clone(&arena);
        let sink = Arc::clone(&sink);
        let params = *params;
        handles.push(std::thread::spawn(move || {
            let mut ctx = ThreadCtx::with_sink(tid, sink);
            let base = w * per_worker;
            let end = (base + per_worker).min(params.n_transforms);
            for idx in base..end {
                // Take ownership: the cast already cleared the
                // granule, so this checked read claims it.
                let seed = arena.read_checked(&mut ctx, idx * GRANULE_WORDS);
                let mut work = random_signal(params.size, seed);
                fft(&mut work);
                let local: u64 = work
                    .iter()
                    .map(|c| (c.abs() * 1e6) as u64)
                    .fold(0, u64::wrapping_add);
                // Reclaim: publish the result back into the granule.
                arena.write_checked(&mut ctx, idx * GRANULE_WORDS + 1, local);
            }
            let rec = (ctx.checked_accesses, ctx.total_accesses, ctx.conflicts);
            arena.thread_exit(&mut ctx);
            rec
        }));
    }

    let mut checked = 0u64;
    let mut total = 0u64;
    let mut conflicts = 0usize;
    for (w, h) in handles.into_iter().enumerate() {
        let (c, t, cf) = h.join().expect("worker panicked");
        sink.record(CheckEvent::Join {
            parent: 1,
            child: w as u32 + 2,
        });
        checked += c;
        total += t;
        conflicts += cf;
    }

    // Main reclaims the results with one ranged sweep (the workers'
    // exits ended their claims).
    let mut checksum = 0u64;
    arena.read_range_checked(
        &mut main_ctx,
        0,
        params.n_transforms * GRANULE_WORDS,
        |i, v| {
            if i % GRANULE_WORDS == 1 {
                checksum = checksum.wrapping_add(v);
            }
        },
    );
    checked += main_ctx.checked_accesses;
    conflicts += main_ctx.conflicts;
    total += main_ctx.total_accesses;
    arena.thread_exit(&mut main_ctx);

    let data_bytes = params.n_transforms * params.size * 16;
    NativeRun {
        checksum,
        checked,
        total: total + (params.n_transforms * params.size * 4) as u64,
        conflicts,
        payload_bytes: data_bytes,
        shadow_bytes: arena.shadow_bytes(),
        threads: params.workers + 1,
    }
}

/// The MiniC port: arrays transferred to workers by sharing casts,
/// computed on privately, and reclaimed.
pub fn minic_source() -> &'static str {
    r#"
// fftw.c — array-partitioned transform (MiniC port).
struct work {
    mutex m;
    cond cv;
    int *locked(m) slot;
    int racy served;
    int racy quota;
};

mutex summ;
int locked(summ) total_energy;

void transform(int private * data) {
    // An in-place butterfly-flavoured pass over the private array.
    int i;
    int a;
    int b;
    for (i = 0; i < 32; i = i + 2) {
        a = data[i];
        b = data[i + 1];
        data[i] = a + b;
        data[i + 1] = a - b;
    }
}

void worker(struct work * w) {
    int private * arr;
    int i;
    int energy;
    int got;
    got = 0;
    while (1) {
        mutex_lock(&w->m);
        while (w->slot == NULL) {
            if (w->served >= w->quota) {
                mutex_unlock(&w->m);
                return;
            }
            cond_wait(&w->cv, &w->m);
        }
        arr = SCAST(int private *, w->slot);
        w->served = w->served + 1;
        cond_signal(&w->cv);
        mutex_unlock(&w->m);
        transform(arr);
        energy = 0;
        for (i = 0; i < 32; i++) {
            energy = energy + arr[i] * arr[i];
        }
        free(arr);
        mutex_lock(&summ);
        total_energy = total_energy + energy;
        mutex_unlock(&summ);
        got = got + 1;
    }
}

void main() {
    struct work * w = new(struct work);
    int private * arr;
    int n;
    int i;
    int t1;
    int t2;
    w->quota = 8;
    t1 = spawn(worker, w);
    t2 = spawn(worker, w);
    for (n = 0; n < 8; n++) {
        arr = newarray(int private, 32);
        for (i = 0; i < 32; i++) {
            arr[i] = random(100);
        }
        mutex_lock(&w->m);
        while (w->slot)
            cond_wait(&w->cv, &w->m);
        w->slot = SCAST(int locked(w->m) *, arr);
        cond_signal(&w->cv);
        mutex_unlock(&w->m);
    }
    join(t1);
    join(t2);
    mutex_lock(&summ);
    print(total_energy);
    mutex_unlock(&summ);
}
"#
}

/// Full benchmark.
pub fn bench(scale: Scale) -> BenchResult {
    let params = Params::scaled(scale);
    run_benchmark("fftw", minic_source(), scale.reps, |checked| {
        run_native(&params, checked)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharc_checker::{replay, BitmapBackend};
    use sharc_detectors::{BaselineBackend, Eraser, VcDetector};

    #[test]
    fn traced_run_splits_sharc_from_eraser() {
        // One recorded execution, two verdicts (§6.2): main writes
        // each descriptor, casts the granule away, and a worker
        // writes its result back with no lock ever held. SharC and
        // the happens-before detector accept; Eraser's lockset for
        // every descriptor granule is empty at the worker's write.
        let params = Params::scaled(Scale::quick());
        let (run, trace) = run_traced(&params);
        assert_eq!(run.checksum, run_native(&params, true).checksum);
        assert_eq!(run.conflicts, 0);
        let sharc = replay(&trace, &mut BitmapBackend::new());
        assert!(sharc.is_empty(), "SharC models the transfers: {sharc:?}");
        let vc = replay(&trace, &mut BaselineBackend::new(VcDetector::new()));
        assert!(vc.is_empty(), "HB sees the fork/join edges: {vc:?}");
        let eraser = replay(&trace, &mut BaselineBackend::new(Eraser::new()));
        assert!(!eraser.is_empty(), "Eraser misses the ownership transfer");
    }

    #[test]
    fn both_builds_compute_identical_transforms() {
        let params = Params::scaled(Scale::quick());
        let a = run_native(&params, false);
        let b = run_native(&params, true);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(b.conflicts, 0, "all ownership transfers are unique");
    }

    #[test]
    fn dynamic_fraction_is_tiny() {
        let params = Params::scaled(Scale::quick());
        let r = run_native(&params, true);
        assert!(
            (r.checked as f64 / r.total as f64) < 0.01,
            "paper reports 0.2% dynamic for fftw"
        );
    }

    #[test]
    fn minic_version_compiles_clean() {
        let (lines, annots, casts) = crate::table::minic_columns("fftw.c", minic_source());
        assert!(lines > 50);
        assert!(annots >= 5, "got {annots}");
        assert_eq!(casts, 2);
    }
}
