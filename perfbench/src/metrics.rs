//! The metrics the benchmark declares in `BENCHMARK.json`, with
//! their units. Every workload reports every metric of the list its
//! mode prints; a per-layer metric of a layer the workload bypasses
//! reads 0 (that layer did no work).

use std::collections::BTreeMap;

/// Whether a metric improves as it falls or as it rises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

use Better::{Higher, Lower};

/// A declared metric: name, unit, direction.
pub type Metric = (String, &'static str, Better);

/// Printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str, Better)] = &[
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("slowdown", "x", Lower),
    ("verdict_x", "x", Lower),
];

/// The seven native ports, in the order `native-table1` runs them.
pub const PORTS: [&str; 7] = [
    "pfscan", "aget", "pbzip2", "dillo", "fftw", "stunnel", "handoff",
];

/// Layers whose self time the traced run reports.
pub const SPAN_LAYERS: [&str; 13] = [
    "bench",
    "workloads",
    "runtime",
    "checker.sink",
    "checker.stream",
    "checker.backend",
    "checker.btrace",
    "checker.trace",
    "checker.parallel",
    "detectors",
    "minic",
    "core",
    "interp",
];

/// Printed with `--trace 1`.
pub fn per_layer() -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    for port in PORTS {
        m.push((format!("workloads.{port}.orig_ms"), "ms", Lower));
        m.push((format!("workloads.{port}.slowdown"), "x", Lower));
    }
    let fixed: &[(&str, &'static str, Better)] = &[
        ("native.record_slowdown", "x", Lower),
        ("native.online_slowdown", "x", Lower),
        ("native.mem_overhead_pct", "%", Lower),
        ("runtime.check_ms", "ms", Lower),
        ("runtime.checked_accesses", "count", Lower),
        ("runtime.ns_per_checked_access", "ns", Lower),
        ("runtime.shadow_bytes", "B", Lower),
        ("checker.sink.append_ms", "ms", Lower),
        ("checker.sink.contended_appends", "count", Lower),
        ("checker.sink.events", "count", Lower),
        ("checker.backend.judge_ms", "ms", Lower),
        ("checker.stream.collector_ms", "ms", Lower),
        ("checker.stream.recorded", "count", Lower),
        ("checker.stream.drains", "count", Lower),
        ("checker.stream.peak_resident", "count", Lower),
        ("checker.stream.ns_per_event", "ns", Lower),
        ("minic.parse_ms", "ms", Lower),
        ("core.elaborate_ms", "ms", Lower),
        ("core.analyze_ms", "ms", Lower),
        ("core.check_ms", "ms", Lower),
        ("core.elide_ms", "ms", Lower),
        ("core.checked_slots", "count", Lower),
        ("core.elided_slots", "count", Higher),
        ("core.pipeline_ms", "ms", Lower),
        ("core.elide.full_over_elided", "x", Higher),
        ("interp.compile_ms", "ms", Lower),
        ("interp.vm_ms", "ms", Lower),
        ("interp.steps", "count", Lower),
        ("interp.ns_per_step", "ns", Lower),
        ("interp.dynamic_accesses", "count", Lower),
        ("interp.cache_hits", "count", Higher),
        ("interp.range_hits", "count", Higher),
        ("interp.checks_elided", "count", Higher),
        ("interp.vm_runs_per_s", "1/s", Higher),
        ("checker.btrace.encode_ns_per_event", "ns", Lower),
        ("checker.btrace.decode_ns_per_event", "ns", Lower),
        ("checker.btrace.events_per_block", "count", Higher),
        ("checker.btrace.bytes_per_event", "B", Lower),
        ("checker.trace.text_encode_ns_per_event", "ns", Lower),
        ("checker.trace.text_decode_ns_per_event", "ns", Lower),
        ("checker.backend.replay_ns_per_event", "ns", Lower),
        ("checker.replay_events_per_s", "1/s", Higher),
        ("checker.parallel.replay_ns_per_event", "ns", Lower),
        ("checker.parallel.speedup", "x", Higher),
        ("checker.parallel.events_per_s", "1/s", Higher),
        ("detectors.eraser_ns_per_event", "ns", Lower),
        ("detectors.vc_ns_per_event", "ns", Lower),
    ];
    m.extend(fixed.iter().map(|&(n, u, b)| (n.to_string(), u, b)));
    for layer in SPAN_LAYERS {
        m.push((format!("self_ms.{layer}"), "ms", Lower));
    }
    for (n, u, b) in [
        ("trace.overhead_pct", "%", Lower),
        ("trace.residual_ms", "ms", Lower),
        ("trace.residual_pct", "%", Lower),
        ("trace.spans", "count", Higher),
        ("bench.rounds", "count", Higher),
        ("bench.verdict_ms", "ms", Lower),
        ("bench.peak_rss_end_mb", "MB", Lower),
        ("bench.round_ms", "ms", Lower),
        ("bench.round_tail_ms", "ms", Lower),
    ] {
        m.push((n.to_string(), u, b));
    }
    m
}

/// Metric values by name, as a workload reports them.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and directions here are the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn declared_in_benchmark_json() {
        use sharc_testkit::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = sharc_testkit::json::parse(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} is not an array");
            };
            let field = |m: &Json, k: &str| match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{key}.{k}: {other:?}"),
            };
            items
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect()
        };
        let ours = |list: Vec<Metric>| -> Vec<(String, String, String)> {
            list.into_iter()
                .map(|(n, u, b)| (n, u.to_string(), format!("{b:?}").to_lowercase()))
                .collect()
        };
        let e2e = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .collect();
        assert_eq!(declared("end_to_end"), ours(e2e));
        assert_eq!(declared("per_layer"), ours(per_layer()));
    }
}
