//! `trace-replay`: the archive-and-judge path over a seeded synthetic
//! spine trace (see [`crate::gen::spine_trace`]). Each round encodes
//! the trace as `.sbt`, decodes it, and judges it three ways:
//! sequentially with SharC's bitmap backend, by `ParallelReplay` at
//! `jobs = nproc`, and by Eraser and vector clocks on a fixed prefix.
//! The text codec round-trips the same prefix.

use crate::gen::{spine_trace, Fnv, SpineTrace, BASELINE_PREFIX};
use crate::metrics::Values;
use crate::span::Tracer;
use crate::stats::median;
use crate::{Checks, Workload};
use sharc::checker::{
    self, BinaryTraceReader, BitmapBackend, CheckBackend, CheckEvent as E, Conflict, ParallelReplay,
};
use sharc::detectors::{BaselineBackend, Eraser, VcDetector};

/// Events in the generated trace.
const EVENTS: usize = 2_000_000;

/// The distinct granules a conflict list names, ascending.
fn granules(conflicts: &[Conflict]) -> Vec<usize> {
    let mut g: Vec<usize> = conflicts.iter().map(|c| c.granule).collect();
    g.sort_unstable();
    g.dedup();
    g
}

/// Per-round samples, in ms, and the ratios of each round's paths to
/// that round's plain pass.
#[derive(Debug, Default)]
struct Samples {
    slowdown: Vec<f64>,
    verdict_x: Vec<f64>,
    verdict: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    seq: Vec<f64>,
    decode_seq: Vec<f64>,
    par: Vec<f64>,
    eraser: Vec<f64>,
    vc: Vec<f64>,
    text_encode: Vec<f64>,
    text_decode: Vec<f64>,
}

pub struct TraceReplay {
    seed: u64,
    jobs: usize,
    trace: SpineTrace,
    /// The `.sbt` bytes set-up encoded: every round must match them.
    sbt: Vec<u8>,
    blocks: usize,
    samples: Samples,
}

impl TraceReplay {
    pub fn new(seed: u64, nproc: usize) -> Self {
        TraceReplay {
            seed,
            jobs: nproc,
            trace: SpineTrace {
                events: Vec::new(),
                races: Vec::new(),
                threads: 0,
            },
            sbt: Vec::new(),
            blocks: 0,
            samples: Samples::default(),
        }
    }
}

impl Workload for TraceReplay {
    fn setup(&mut self, t: &mut Tracer, c: &mut Checks) -> u64 {
        // Drop the previous set-up's trace first, so set-ups do not
        // stack in memory.
        self.trace.events = Vec::new();
        self.sbt = Vec::new();
        let (trace, _) = t.call("bench", "spine_trace", || spine_trace(self.seed, EVENTS));
        self.trace = trace;
        let (sbt, _) = t.call("checker.btrace", "to_binary", || {
            checker::to_binary(&self.trace.events)
        });
        self.sbt = sbt;
        let blocks = BinaryTraceReader::new(&self.sbt).and_then(|r| r.blocks());
        c.op(blocks.is_ok(), || format!("block table: {blocks:?}"));
        self.blocks = blocks.map_or(0, |b| b.len());
        // Warm every path up once, with the oracles on.
        self.round(0, t, c);
        let mut h = Fnv::default();
        h.write(&self.sbt);
        h.finish()
    }

    fn round(&mut self, _round: u32, t: &mut Tracer, c: &mut Checks) {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let s = &mut self.samples;
        let events = &self.trace.events;
        // The plain pass runs three times, spread over the round, and
        // the ratios divide by the median, so one slow pass does not
        // stand for the whole round.
        let mut plain = [0.0; 3];
        let mut plain_pass_at = |t: &mut Tracer, k: usize| {
            let (handovers, d) = t.call("bench", "plain_pass", || plain_pass(events));
            std::hint::black_box(handovers);
            plain[k] = ms(d);
        };
        plain_pass_at(t, 0);

        let (sbt, d_encode) = t.call("checker.btrace", "to_binary", || checker::to_binary(events));
        s.encode.push(ms(d_encode));
        let (same, _) = t.call("bench", "oracle: encoding", || sbt == self.sbt);
        c.op(same, || "re-encoding changed the .sbt bytes".to_string());

        let (decoded, d_decode) = t.call("checker.btrace", "BinaryTraceReader::decode", || {
            BinaryTraceReader::new(&sbt).and_then(|r| r.decode().map(|e| (r.geometry(), e)))
        });
        s.decode.push(ms(d_decode));
        let (geom, decoded) = match decoded {
            Ok(ok) => ok,
            Err(e) => {
                c.op(false, || format!("decode failed: {e}"));
                return;
            }
        };
        let (same, _) = t.call("bench", "oracle: decode", || decoded == *events);
        c.op(same, || {
            "decoded events differ from the encoded ones".to_string()
        });

        let (seq, d_seq) = t.call("checker.backend", "replay<BitmapBackend>", || {
            checker::replay(&decoded, &mut BitmapBackend::with_geometry(geom))
        });
        s.seq.push(ms(d_seq));
        s.decode_seq.push(ms(d_decode + d_seq));
        plain_pass_at(t, 1);
        let planted = self.trace.planted_within(usize::MAX);
        c.op(granules(&seq) == planted, || {
            format!(
                "sequential sharc found {:?}, planted {planted:?}",
                granules(&seq)
            )
        });

        let engine = ParallelReplay::new(self.jobs);
        let (par, d_par) = t.call("checker.parallel", "ParallelReplay::replay", || {
            engine.replay(&decoded, move || {
                Box::new(BitmapBackend::with_geometry(geom)) as Box<dyn CheckBackend + Send>
            })
        });
        s.par.push(ms(d_par));
        plain_pass_at(t, 2);
        let plain = median(&plain);
        let verdict = ms(d_encode + d_decode + d_seq + d_par);
        s.verdict.push(verdict);
        s.slowdown.push(ms(d_decode + d_seq) / plain);
        s.verdict_x.push(verdict / plain);
        c.op(par == seq, || {
            format!(
                "parallel replay ({} conflicts) differs from sequential ({})",
                par.len(),
                seq.len()
            )
        });

        let prefix = &decoded[..BASELINE_PREFIX.min(decoded.len())];
        let planted = self.trace.planted_within(prefix.len());
        let (eraser, d) = t.call("detectors", "replay<Eraser>", || {
            checker::replay(prefix, &mut BaselineBackend::new(Eraser::new()))
        });
        s.eraser.push(ms(d));
        c.op(granules(&eraser) == planted, || {
            format!("eraser found {:?}, planted {planted:?}", granules(&eraser))
        });
        let (vc, d) = t.call("detectors", "replay<VcDetector>", || {
            checker::replay(prefix, &mut BaselineBackend::new(VcDetector::new()))
        });
        s.vc.push(ms(d));
        c.op(granules(&vc) == planted, || {
            format!("vc found {:?}, planted {planted:?}", granules(&vc))
        });

        let (text, d) = t.call("checker.trace", "to_text", || {
            checker::trace_to_text(prefix)
        });
        s.text_encode.push(ms(d));
        let (parsed, d) = t.call("checker.trace", "parse_text", || {
            checker::parse_trace(&text)
        });
        s.text_decode.push(ms(d));
        c.op(parsed.as_deref() == Ok(prefix), || {
            "text round trip changed the prefix".to_string()
        });
        // Unmapping the decoded copy and the .sbt bytes takes a few ms.
        t.call("bench", "free round buffers", || {
            drop((decoded, sbt, text, parsed))
        });
    }

    fn clear_samples(&mut self) {
        self.samples = Samples::default();
    }

    fn metrics(&self, v: &mut Values) {
        let s = &self.samples;
        let n = self.trace.events.len() as f64;
        let p = BASELINE_PREFIX.min(self.trace.events.len()) as f64;
        let ns_per = |xs: &[f64], events: f64| median(xs) * 1e6 / events;
        let decode_seq = median(&s.decode_seq);
        v.set("slowdown", median(&s.slowdown));
        v.set("verdict_x", median(&s.verdict_x));
        v.set("bench.verdict_ms", median(&s.verdict));
        v.set("checker.btrace.encode_ns_per_event", ns_per(&s.encode, n));
        v.set("checker.btrace.decode_ns_per_event", ns_per(&s.decode, n));
        v.set("checker.btrace.events_per_block", n / self.blocks as f64);
        v.set("checker.btrace.bytes_per_event", self.sbt.len() as f64 / n);
        v.set(
            "checker.trace.text_encode_ns_per_event",
            ns_per(&s.text_encode, p),
        );
        v.set(
            "checker.trace.text_decode_ns_per_event",
            ns_per(&s.text_decode, p),
        );
        v.set("checker.backend.replay_ns_per_event", ns_per(&s.seq, n));
        v.set("checker.replay_events_per_s", n / (decode_seq / 1e3));
        v.set("checker.parallel.replay_ns_per_event", ns_per(&s.par, n));
        v.set("checker.parallel.speedup", median(&s.seq) / median(&s.par));
        v.set("checker.parallel.events_per_s", n / (median(&s.par) / 1e3));
        v.set("detectors.eraser_ns_per_event", ns_per(&s.eraser, p));
        v.set("detectors.vc_ns_per_event", ns_per(&s.vc, p));
    }

    fn params(&self) -> String {
        format!(
            "{{\"events\":{},\"threads\":{},\"max_tid\":{},\"shards\":{},\"planted_races\":{},\
             \"baseline_prefix\":{},\"jobs\":{},\"sbt_bytes\":{},\"blocks\":{}}}",
            self.trace.events.len(),
            self.trace.threads,
            self.trace.threads + 1,
            checker::geometry_for_trace(&self.trace.events).shards(),
            self.trace.races.len(),
            BASELINE_PREFIX,
            self.jobs,
            self.sbt.len(),
            self.blocks
        )
    }
}

/// Granules the plain pass tracks (a power of two).
const PLAIN_SLOTS: usize = 1 << 15;

/// The unchecked run of a trace, the reference the workload's ratios
/// divide by: touch every granule each event names once, keeping only
/// the last thread to touch it, and judge nothing. It is this
/// benchmark's own code, so no change to the checker moves it.
fn plain_pass(events: &[E]) -> u64 {
    let mut last = vec![0u32; PLAIN_SLOTS];
    let mut handovers = 0u64;
    let mut touch = |tid: u32, granule: usize| {
        let slot = &mut last[granule & (PLAIN_SLOTS - 1)];
        handovers += u64::from(*slot != tid);
        *slot = tid;
    };
    for e in events {
        match *e {
            E::Read { tid, granule }
            | E::Write { tid, granule }
            | E::SharingCast { tid, granule, .. } => touch(tid, granule),
            E::RangeRead { tid, granule, len }
            | E::RangeWrite { tid, granule, len }
            | E::RangeCast {
                tid, granule, len, ..
            } => (granule..granule + len).for_each(|g| touch(tid, g)),
            _ => {}
        }
    }
    handovers
}
