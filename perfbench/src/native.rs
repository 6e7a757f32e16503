//! `native-table1`: the six Table 1 ports plus the §2.1 handoff, each
//! run four ways per round, in an order that rotates every round:
//!
//! - **orig**: uninstrumented (`Unchecked` / `WideUnchecked`);
//! - **checked**: inline-checked (`Checked` / `WideChecked`);
//! - **record**: checked into an `EventLog`, then `judge_trace` (the
//!   `sharc native` default);
//! - **online**: checked into a `StreamingSink` with one ring per
//!   thread of `DEFAULT_RING_CAP` events, judged during the run.
//!
//! Latency knobs are zero and worker counts are capped so that at
//! most `nproc` threads are runnable at once.

use crate::metrics::{Values, PORTS};
use crate::span::Tracer;
use crate::stats::{geomean, median, ratio};
use crate::{Checks, Workload};
use sharc::checker::{
    BitmapBackend, EventLog, EventSink, ShadowGeometry, StreamStats, StreamingSink,
};
use sharc::runtime::{Checked, Unchecked, WideChecked, WideUnchecked};
use sharc::workloads::benchmarks::{aget, dillo, fftw, handoff, pbzip2, pfscan, stunnel};
use sharc::workloads::table::{NativeRun, Scale};
use sharc::DetectorKind;
use std::sync::Arc;
use std::time::Duration;

/// One port with its parameters.
#[derive(Debug, Clone, Copy)]
enum Port {
    Pfscan(pfscan::Params),
    Aget(aget::Params),
    Pbzip2(pbzip2::Params),
    Dillo(dillo::Params),
    Fftw(fftw::Params),
    Stunnel(stunnel::Params),
    Handoff(handoff::Params),
}

impl Port {
    /// The ports at fixed input sizes (pfscan's file contents come
    /// from the seed), workers capped at `workers`. Each uninstrumented
    /// run takes 0.5-35 ms on a 2-CPU host, so thread start-up does not
    /// dominate any port. aget's 4 MiB file is the largest input: its
    /// buffer and shadow dominate the workload's peak memory, which
    /// allocator churn from short-lived threads otherwise swamps.
    fn all(seed: u64, workers: usize) -> Vec<Port> {
        let q = Scale::quick();
        let mut pf = pfscan::Params::scaled(q);
        pf.fs.files_per_dir = 16;
        pf.fs.file_size = 8192;
        pf.fs.seed = seed;
        pf.workers = workers;
        let mut ag = aget::Params::scaled(q);
        ag.file_size = 4 << 20;
        ag.latency = Duration::ZERO;
        ag.workers = workers;
        let mut bz = pbzip2::Params::scaled(q);
        bz.block = 2048;
        bz.input_size = 16 * 1024;
        bz.workers = workers;
        let mut dl = dillo::Params::scaled(q);
        dl.n_requests = 8192;
        dl.latency = Duration::ZERO;
        dl.workers = workers;
        let mut ff = fftw::Params::scaled(q);
        ff.n_transforms = 64;
        ff.size = 1024;
        ff.workers = workers;
        let mut st = stunnel::Params::scaled(q);
        st.workers = workers;
        let ho = handoff::Params {
            blocks: 1024,
            block_words: 64,
            consumers: workers,
        };
        vec![
            Port::Pfscan(pf),
            Port::Aget(ag),
            Port::Pbzip2(bz),
            Port::Dillo(dl),
            Port::Fftw(ff),
            Port::Stunnel(st),
            Port::Handoff(ho),
        ]
    }

    /// The highest checked tid a run names: main (or producer,
    /// acceptor) is 1 and workers are `2 ..= workers + 1`.
    fn tid_bound(&self) -> usize {
        1 + match self {
            Port::Pfscan(p) => p.workers,
            Port::Aget(p) => p.workers,
            Port::Pbzip2(p) => p.workers,
            Port::Dillo(p) => p.workers,
            Port::Fftw(p) => p.workers,
            Port::Stunnel(p) => p.workers,
            Port::Handoff(p) => p.consumers,
        }
    }

    fn run(&self, checked: bool) -> NativeRun {
        match (self, checked) {
            (Port::Pfscan(p), false) => pfscan::run_native::<Unchecked>(p),
            (Port::Pfscan(p), true) => pfscan::run_native::<Checked>(p),
            (Port::Aget(p), false) => aget::run_native::<Unchecked>(p),
            (Port::Aget(p), true) => aget::run_native::<Checked>(p),
            (Port::Pbzip2(p), c) => pbzip2::run_native(p, c),
            (Port::Dillo(p), false) => dillo::run_native::<Unchecked>(p),
            (Port::Dillo(p), true) => dillo::run_native::<Checked>(p),
            (Port::Fftw(p), c) => fftw::run_native(p, c),
            (Port::Stunnel(p), false) => stunnel::run_native::<WideUnchecked>(p),
            (Port::Stunnel(p), true) => stunnel::run_native::<WideChecked>(p),
            (Port::Handoff(p), false) => handoff::run_native::<Unchecked>(p),
            (Port::Handoff(p), true) => handoff::run_native::<Checked>(p),
        }
    }

    fn run_events(&self, sink: Arc<dyn EventSink>) -> NativeRun {
        match self {
            Port::Pfscan(p) => pfscan::run_with_events(p, sink),
            Port::Aget(p) => aget::run_with_events(p, sink),
            Port::Pbzip2(p) => pbzip2::run_with_events(p, sink),
            Port::Dillo(p) => dillo::run_with_events(p, sink),
            Port::Fftw(p) => fftw::run_with_events(p, sink),
            Port::Stunnel(p) => stunnel::run_with_events(p, sink),
            Port::Handoff(p) => handoff::run_with_events(p, sink),
        }
    }

    fn params_json(&self) -> String {
        let threads = self.tid_bound();
        let input = match self {
            Port::Pfscan(p) => format!(
                "\"dirs\":{},\"files_per_dir\":{},\"file_bytes\":{},\"fs_seed\":{}",
                p.fs.n_dirs, p.fs.files_per_dir, p.fs.file_size, p.fs.seed
            ),
            Port::Aget(p) => format!("\"file_bytes\":{},\"chunk\":{}", p.file_size, p.chunk),
            Port::Pbzip2(p) => format!("\"input_bytes\":{},\"block\":{}", p.input_size, p.block),
            Port::Dillo(p) => format!("\"hosts\":{},\"requests\":{}", p.n_hosts, p.n_requests),
            Port::Fftw(p) => format!("\"transforms\":{},\"size\":{}", p.n_transforms, p.size),
            Port::Stunnel(p) => format!(
                "\"clients\":{},\"messages\":{},\"msg_bytes\":{}",
                p.clients, p.messages, p.msg_len
            ),
            Port::Handoff(p) => {
                format!("\"blocks\":{},\"block_words\":{}", p.blocks, p.block_words)
            }
        };
        format!("{{\"threads\":{threads},{input}}}")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Orig,
    Checked,
    Record,
    Online,
}

const MODES: [Mode; 4] = [Mode::Orig, Mode::Checked, Mode::Record, Mode::Online];

/// Per-port samples, one per round and mode (times in ms), and the
/// ratios of each round's modes to that round's uninstrumented run.
#[derive(Debug, Default, Clone)]
struct Samples {
    slowdown: Vec<f64>,
    record_slowdown: Vec<f64>,
    online_slowdown: Vec<f64>,
    verdict_x: Vec<f64>,
    orig: Vec<f64>,
    checked: Vec<f64>,
    record_run: Vec<f64>,
    judge: Vec<f64>,
    record: Vec<f64>,
    online: Vec<f64>,
    last_checked: NativeRun,
    events: u64,
    contended: Vec<f64>,
    stream: Option<StreamStats>,
    drains: Vec<f64>,
}

pub struct NativeTable1 {
    seed: u64,
    workers: usize,
    ports: Vec<Port>,
    /// Each port's uninstrumented checksum, every mode's oracle.
    reference: Vec<u64>,
    samples: Vec<Samples>,
}

impl NativeTable1 {
    pub fn new(seed: u64, nproc: usize) -> Self {
        NativeTable1 {
            seed,
            workers: nproc.saturating_sub(1).max(1),
            ports: Vec::new(),
            reference: Vec::new(),
            samples: Vec::new(),
        }
    }

    fn run_mode(&mut self, i: usize, mode: Mode, t: &mut Tracer, c: &mut Checks) {
        let port = self.ports[i];
        let name = PORTS[i];
        let want = self.reference[i];
        let s = &mut self.samples[i];
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        match mode {
            Mode::Orig => {
                let (run, d) = t.call("workloads", "run_native<orig>", || port.run(false));
                s.orig.push(ms(d));
                c.op(run.checksum == want, || {
                    format!("{name} orig: checksum {:x} != {want:x}", run.checksum)
                });
            }
            Mode::Checked => {
                let (run, d) = t.call("runtime", "run_native<checked>", || port.run(true));
                s.checked.push(ms(d));
                s.last_checked = run;
                c.op(run.checksum == want && run.conflicts == 0, || {
                    format!(
                        "{name} checked: checksum {:x} (want {want:x}), {} conflicts",
                        run.checksum, run.conflicts
                    )
                });
            }
            Mode::Record => {
                let log = Arc::new(EventLog::new());
                let (run, d_run) = t.call("checker.sink", "run_with_events<EventLog>", || {
                    port.run_events(log.clone())
                });
                let contended = log.contended_appends();
                let trace = log.take();
                let ((_, conflicts), d_judge) = t.call("checker.backend", "judge_trace", || {
                    sharc::judge_trace(&trace, DetectorKind::Sharc)
                });
                s.record_run.push(ms(d_run));
                s.judge.push(ms(d_judge));
                s.record.push(ms(d_run + d_judge));
                s.events = trace.len() as u64;
                s.contended.push(contended as f64);
                c.op(run.checksum == want && conflicts.is_empty(), || {
                    format!(
                        "{name} record: checksum {:x} (want {want:x}), sharc reports {conflicts:?}",
                        run.checksum
                    )
                });
            }
            Mode::Online => {
                let backend = Box::new(BitmapBackend::with_geometry(ShadowGeometry::for_threads(
                    port.tid_bound(),
                )));
                // One ring per thread: tids are 1-based, ring 0 takes
                // the tid-less events.
                let sink = Arc::new(StreamingSink::new(
                    port.tid_bound() + 1,
                    sharc::DEFAULT_RING_CAP,
                    backend,
                ));
                let ((run, (conflicts, stats)), d) =
                    t.call("checker.stream", "run_with_events<StreamingSink>", || {
                        let run = port.run_events(sink.clone());
                        (run, sink.finish())
                    });
                s.online.push(ms(d));
                s.drains.push(stats.drains as f64);
                s.stream = Some(stats);
                c.op(
                    run.checksum == want && conflicts.is_empty() && stats.drained == stats.recorded,
                    || {
                        format!(
                            "{name} online: checksum {:x} (want {want:x}), conflicts {conflicts:?}, \
                             {} of {} events drained",
                            run.checksum, stats.drained, stats.recorded
                        )
                    },
                );
            }
        }
    }
}

impl Workload for NativeTable1 {
    fn setup(&mut self, t: &mut Tracer, c: &mut Checks) -> u64 {
        self.ports = Port::all(self.seed, self.workers);
        let (reference, _) = t.call("workloads", "reference checksums", || {
            self.ports.iter().map(|p| p.run(false).checksum).collect()
        });
        self.reference = reference;
        self.samples = vec![Samples::default(); self.ports.len()];
        // Warm every path up once, with the oracles on.
        for i in 0..self.ports.len() {
            for mode in MODES {
                self.run_mode(i, mode, t, c);
            }
        }
        let mut h = crate::gen::Fnv::default();
        h.write(self.params().as_bytes());
        for r in &self.reference {
            h.write(&r.to_le_bytes());
        }
        h.finish()
    }

    fn round(&mut self, round: u32, t: &mut Tracer, c: &mut Checks) {
        for i in 0..self.ports.len() {
            for k in 0..MODES.len() {
                let mode = MODES[(k + round as usize + i) % MODES.len()];
                self.run_mode(i, mode, t, c);
            }
            // Each mode against the uninstrumented run of the same
            // round: the four ran back to back, so a slow spell of the
            // host hits both sides of every ratio.
            let s = &mut self.samples[i];
            let last = |xs: &[f64]| *xs.last().expect("every mode ran this round");
            let orig = last(&s.orig);
            let (checked, record, online) = (last(&s.checked), last(&s.record), last(&s.online));
            s.slowdown.push(checked / orig);
            s.record_slowdown.push(record / orig);
            s.online_slowdown.push(online / orig);
            s.verdict_x.push((checked + record + online) / orig);
        }
    }

    fn clear_samples(&mut self) {
        self.samples = vec![Samples::default(); self.ports.len()];
    }

    fn metrics(&self, v: &mut Values) {
        let per_port = |f: fn(&Samples) -> &Vec<f64>| -> Vec<f64> {
            self.samples.iter().map(|s| median(f(s))).collect()
        };
        let slowdown = per_port(|s| &s.slowdown);
        v.set("slowdown", geomean(&slowdown));
        v.set("verdict_x", geomean(&per_port(|s| &s.verdict_x)));
        v.set(
            "native.record_slowdown",
            geomean(&per_port(|s| &s.record_slowdown)),
        );
        v.set(
            "native.online_slowdown",
            geomean(&per_port(|s| &s.online_slowdown)),
        );
        let mut mem = Vec::new();
        let mut verdict_ms = 0.0;
        let (mut check_ms, mut accesses, mut shadow) = (0.0, 0u64, 0u64);
        let (mut append_ms, mut contended, mut events, mut judge_ms) = (0.0, 0.0, 0u64, 0.0);
        let (mut collector_ms, mut recorded, mut drains, mut peak) = (0.0, 0u64, 0.0, 0usize);
        for (i, s) in self.samples.iter().enumerate() {
            let orig = median(&s.orig);
            let checked = median(&s.checked);
            let record = median(&s.record);
            let online = median(&s.online);
            v.set(format!("workloads.{}.orig_ms", PORTS[i]), orig);
            v.set(format!("workloads.{}.slowdown", PORTS[i]), slowdown[i]);
            verdict_ms += checked + record + online;
            let run = s.last_checked;
            mem.push(ratio(run.shadow_bytes as f64, run.payload_bytes as f64) * 100.0);
            check_ms += checked - orig;
            accesses += run.checked;
            shadow += run.shadow_bytes as u64;
            append_ms += median(&s.record_run) - checked;
            contended += median(&s.contended);
            events += s.events;
            judge_ms += median(&s.judge);
            collector_ms += online - checked;
            drains += median(&s.drains);
            if let Some(st) = s.stream {
                recorded += st.recorded;
                peak = peak.max(st.peak_resident);
            }
        }
        v.set("bench.verdict_ms", verdict_ms);
        v.set(
            "native.mem_overhead_pct",
            mem.iter().sum::<f64>() / mem.len() as f64,
        );
        v.set("runtime.check_ms", check_ms);
        v.set("runtime.checked_accesses", accesses as f64);
        v.set(
            "runtime.ns_per_checked_access",
            ratio(check_ms * 1e6, accesses as f64),
        );
        v.set("runtime.shadow_bytes", shadow as f64);
        v.set("checker.sink.append_ms", append_ms);
        v.set("checker.sink.contended_appends", contended);
        v.set("checker.sink.events", events as f64);
        v.set("checker.backend.judge_ms", judge_ms);
        v.set("checker.stream.collector_ms", collector_ms);
        v.set("checker.stream.recorded", recorded as f64);
        v.set("checker.stream.drains", drains);
        v.set("checker.stream.peak_resident", peak as f64);
        v.set(
            "checker.stream.ns_per_event",
            ratio(collector_ms * 1e6, recorded as f64),
        );
    }

    fn params(&self) -> String {
        let ports: Vec<String> = self
            .ports
            .iter()
            .zip(PORTS)
            .map(|(p, name)| format!("\"{name}\":{}", p.params_json()))
            .collect();
        format!(
            "{{\"workers\":{},\"ring_cap\":{},\"ports\":{{{}}}}}",
            self.workers,
            sharc::DEFAULT_RING_CAP,
            ports.join(",")
        )
    }
}
