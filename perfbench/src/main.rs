//! The SharC benchmark: one command, three workloads, every metric by
//! name with its unit, and failed operations counted against
//! attempted ones.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload native-table1|minic-vm|trace-replay \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! A run sets its workload up three times from the seed (the inputs
//! must come out identical each time; `setup_s` is the median), then
//! runs rounds of the workload for `--seconds`. With `--trace 0` it
//! prints the end-to-end metrics. With `--trace 1` every other round
//! records spans around every call into a layer; the run prints the
//! per-layer metrics, per-layer self time, the tracing overhead
//! (traced against untraced rounds) and the wall time no span covers,
//! and writes the spans to `.perfbench/spans-<workload>-<seed>.jsonl`.
//! The last line of standard output is the JSON result. See
//! `perfbench/README.md`.

mod gen;
mod metrics;
mod minicvm;
mod native;
mod replay;
mod span;
mod stats;

use metrics::Values;
use span::Tracer;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Failed operations, counted against attempted ones.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `ok` is whether its outputs were right.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// One workload: inputs from a seed, rounds of calls into the layers,
/// and the metrics those rounds measured.
pub trait Workload {
    /// Generates the inputs from the seed and warms every path up.
    /// Returns a fingerprint of the inputs, equal on every call.
    fn setup(&mut self, t: &mut Tracer, c: &mut Checks) -> u64;
    /// One pass over the inputs.
    fn round(&mut self, round: u32, t: &mut Tracer, c: &mut Checks);
    /// Forgets the samples of earlier rounds.
    fn clear_samples(&mut self);
    /// The end-to-end metrics other than `setup_s` and `peak_rss_mb`
    /// and every per-layer metric the workload measures, from the
    /// samples since the last clear.
    fn metrics(&self, v: &mut Values);
    /// The workload's parameters as a JSON object.
    fn params(&self) -> String;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn make_workload(name: &str, seed: u64, nproc: usize) -> Option<Box<dyn Workload>> {
    Some(match name {
        "native-table1" => Box::new(native::NativeTable1::new(seed, nproc)),
        "minic-vm" => Box::new(minicvm::MinicVm::new(seed)),
        "trace-replay" => Box::new(replay::TraceReplay::new(seed, nproc)),
        _ => return None,
    })
}

/// `nproc`, CPU model and OS, as a JSON object.
fn host_json(nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"os\":\"{}\",\"arch\":\"{}\"}}",
        cpu.replace('"', "'"),
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// The process's peak resident set (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs rounds until `budget` has passed (at least four), each inside
/// a root span. With `alternate`, every other round is traced, so
/// traced and untraced rounds see the same spells of host load.
/// Returns each round's wall time in ms and whether it was traced.
fn run_rounds(
    wl: &mut dyn Workload,
    t: &mut Tracer,
    c: &mut Checks,
    budget: Duration,
    alternate: bool,
) -> Vec<(f64, bool)> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < 4 || start.elapsed() < budget {
        let round = walls.len() as u32;
        let traced = alternate && round % 2 == 1;
        t.set_tracing(traced);
        t.set_round(round);
        let open = t.open("bench", "round");
        wl.round(round, t, c);
        walls.push((t.close(open).as_secs_f64() * 1e3, traced));
    }
    t.set_tracing(false);
    walls
}

/// A finite value in shortest round-trip form: every digit as
/// measured, always with a decimal point.
fn fmt_value(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some(mut wl) = make_workload(&args.workload, args.seed, nproc) else {
        eprintln!(
            "perfbench: unknown workload {} (expected native-table1, minic-vm or trace-replay)",
            args.workload
        );
        std::process::exit(2);
    };
    let host = host_json(nproc);
    println!("# host {host}");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let mut tracer = Tracer::new();
    let mut checks = Checks::default();

    // Set-up: the same seed must give the same inputs every time.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prints = Vec::with_capacity(SETUPS);
    // The footprint of setting up and running every path once. Later
    // set-ups and rounds add allocator churn from threads that come
    // and go, which `bench.peak_rss_end_mb` reports.
    let mut peak_rss_setup_mb = 0.0;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        prints.push(wl.setup(&mut tracer, &mut checks));
        setup_s.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            peak_rss_setup_mb = peak_rss_mb();
        }
    }
    checks.op(prints.iter().all(|&p| p == prints[0]), || {
        format!("set-ups from one seed made different inputs: {prints:x?}")
    });
    let params = wl.params();
    println!("# params {params}");
    println!(
        "# inputs fingerprint {:016x} (identical over {SETUPS} set-ups)",
        prints[0]
    );
    wl.clear_samples();

    let budget = Duration::from_secs(args.seconds.max(1));
    let mut v = Values::default();
    let list: Vec<metrics::Metric> = if args.trace {
        let walls = run_rounds(wl.as_mut(), &mut tracer, &mut checks, budget, true);
        wl.metrics(&mut v);
        let pick = |traced: bool| -> Vec<f64> {
            walls
                .iter()
                .filter(|w| w.1 == traced)
                .map(|w| w.0)
                .collect()
        };
        let (plain, traced) = (pick(false), pick(true));
        let sum = span::summarize(tracer.spans());
        let rounds = traced.len() as f64;
        for layer in metrics::SPAN_LAYERS {
            let ns = sum.self_ns.get(layer).copied().unwrap_or(0);
            v.set(format!("self_ms.{layer}"), ns as f64 / 1e6 / rounds);
        }
        let wall_ms: f64 = traced.iter().sum();
        let residual_ms = (wall_ms - sum.covered_ns as f64 / 1e6).max(0.0);
        let (plain_ms, traced_ms) = (stats::median(&plain), stats::median(&traced));
        let overhead_pct = (traced_ms - plain_ms) / plain_ms * 100.0;
        v.set("trace.overhead_pct", overhead_pct);
        v.set("trace.residual_ms", residual_ms / rounds);
        v.set("trace.residual_pct", residual_ms / wall_ms * 100.0);
        v.set("trace.spans", tracer.spans().len() as f64);
        v.set("bench.rounds", walls.len() as f64);
        v.set("bench.peak_rss_end_mb", peak_rss_mb());
        let all: Vec<f64> = walls.iter().map(|w| w.0).collect();
        v.set("bench.round_ms", stats::median(&all));
        let tail = stats::quantile(&all, stats::tail_quantile(all.len()));
        v.set("bench.round_tail_ms", tail);
        println!(
            "# {}: unexplained residual {:.3} ms per traced round ({:.2}% of the {:.1} s \
             the {} traced rounds took, covered by no layer span); tracing overhead {:+.2}% \
             (median traced round over median of {} untraced rounds)",
            args.workload,
            residual_ms / rounds,
            residual_ms / wall_ms * 100.0,
            wall_ms / 1e3,
            traced.len(),
            overhead_pct,
            plain.len()
        );
        let path = std::path::PathBuf::from(".perfbench")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let header = format!(
            "{{\"host\":{host},\"workload\":\"{}\",\"seed\":{},\"params\":{params}}}",
            args.workload, args.seed
        );
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => println!(
                "# {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        metrics::per_layer()
    } else {
        let walls: Vec<f64> = run_rounds(wl.as_mut(), &mut tracer, &mut checks, budget, false)
            .into_iter()
            .map(|w| w.0)
            .collect();
        wl.metrics(&mut v);
        v.set("setup_s", stats::median(&setup_s));
        v.set("peak_rss_mb", peak_rss_setup_mb);
        println!(
            "# {} rounds, median {:.3} ms",
            walls.len(),
            stats::median(&walls)
        );
        metrics::END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .collect()
    };

    let mut lines = Vec::with_capacity(list.len());
    for (name, unit, _) in &list {
        let value = match v.get(name) {
            Some(x) if x.is_finite() => x,
            Some(x) => {
                checks.op(false, || format!("{name} measured {x}"));
                0.0
            }
            // A per-layer metric of a layer this workload bypasses
            // reads 0; every end-to-end metric must be measured.
            None if args.trace => 0.0,
            None => {
                checks.op(false, || format!("{name} was not measured"));
                0.0
            }
        };
        lines.push((name, unit, value));
    }
    for f in &checks.failures {
        println!("# FAILED {f}");
    }
    let mut json = Vec::with_capacity(list.len());
    for (name, unit, value) in lines {
        println!("{name:<44} {value:>16.4} {unit}");
        json.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            fmt_value(value)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        json.join(",")
    );
}
