//! Spans around every call the benchmark makes into a layer.
//!
//! Every call is timed whether or not tracing is on: the workloads'
//! figures are these durations. With tracing on, each call also
//! leaves a [`Span`] in memory (name, layer, start, end, parent and
//! the round it belongs to); the spans are written out when the run
//! ends, and [`summarize`] turns them into per-layer self time.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Spans of one round share this identifier.
    pub round: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span: [`Tracer::close`] ends it.
pub struct Open {
    idx: u32,
    start: Instant,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    round: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            round: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_tracing(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn open(&mut self, layer: &'static str, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = if self.on {
            self.spans.push(Span {
                name,
                layer,
                round: self.round,
                parent: self.stack.last().copied().unwrap_or(ROOT),
                start_ns: self.ns(start),
                end_ns: 0,
            });
            self.spans.len() as u32 - 1
        } else {
            ROOT
        };
        self.stack.push(idx);
        Open { idx, start }
    }

    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        self.stack.pop();
        if open.idx != ROOT {
            self.spans[open.idx as usize].end_ns = self.ns(end);
        }
        end - open.start
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.open(layer, name);
        let r = f();
        (r, self.close(open))
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// Writes one JSON object per span, after a header line.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"round\":{},\"layer\":\"{}\",\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.round, s.layer, s.name, parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// What the spans of a traced phase explain.
#[derive(Debug, Default)]
pub struct Summary {
    /// Self time per layer: each span's duration minus the part its
    /// child spans cover.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Time covered by the children of root spans (the layer calls
    /// made inside each round).
    pub covered_ns: u64,
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut sum = Summary::default();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        *sum.self_ns.entry(s.layer).or_default() += dur.saturating_sub(child_ns[i]);
        if s.parent != ROOT && spans[s.parent as usize].parent == ROOT {
            sum.covered_ns += dur;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "round",
                layer: "bench",
                round: 0,
                parent: ROOT,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "judge",
                layer: "checker.backend",
                round: 0,
                parent: 0,
                start_ns: 10,
                end_ns: 70,
            },
            Span {
                name: "decode",
                layer: "checker.btrace",
                round: 0,
                parent: 1,
                start_ns: 20,
                end_ns: 40,
            },
        ];
        let s = summarize(&spans);
        assert_eq!(s.self_ns["bench"], 40);
        assert_eq!(s.self_ns["checker.backend"], 40);
        assert_eq!(s.self_ns["checker.btrace"], 20);
        assert_eq!(s.covered_ns, 60);
    }

    #[test]
    fn untraced_calls_are_timed_but_not_kept() {
        let mut t = Tracer::new();
        let (v, d) = t.call("bench", "noop", || 7);
        assert_eq!(v, 7);
        assert!(d <= Duration::from_secs(1));
        assert!(t.spans().is_empty());
        t.set_tracing(true);
        let open = t.open("bench", "round");
        t.call("core", "elaborate", || ());
        t.close(open);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
    }
}
