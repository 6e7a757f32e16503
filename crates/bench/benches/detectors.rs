//! Bench for the §6.2 comparison: per-access monitoring cost of
//! SharC's shadow checks vs Eraser-lockset and vector-clock detectors
//! on the same scan workload.
//!
//! Runs on the sharc-testkit bench harness (`harness = false`);
//! results land in `target/BENCH_detectors.json`.

use sharc_bench::{scan_workload_baseline, scan_workload_detector, scan_workload_sharc};
use sharc_detectors::{Eraser, Online, VcDetector};
use sharc_runtime::{Arena, Checked};
use sharc_testkit::Bench;
use std::sync::Arc;

const THREADS: usize = 4;
const WORDS: usize = 1024;
const PASSES: usize = 10;

fn main() {
    let mut g = Bench::new("detectors");
    g.sample_size(10);
    g.bench("orig", || scan_workload_baseline(THREADS, WORDS, PASSES));
    g.bench("sharc", || {
        let arena: Arc<Arena> = Arc::new(Arena::for_threads(THREADS * WORDS, THREADS));
        scan_workload_sharc::<Checked>(arena, THREADS, WORDS, PASSES)
    });
    g.bench("eraser", || {
        let d: Arc<Online<Eraser>> = Arc::new(Online::new());
        scan_workload_detector(d, THREADS, WORDS, PASSES)
    });
    g.bench("vector-clock", || {
        let d: Arc<Online<VcDetector>> = Arc::new(Online::new());
        scan_workload_detector(d, THREADS, WORDS, PASSES)
    });
    g.finish();
}
