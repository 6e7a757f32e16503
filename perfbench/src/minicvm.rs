//! `minic-vm`: the static pipeline, then VM runs, over the six MiniC
//! ports, the `examples/minic` programs, and a seeded family of the
//! elision-differential templates. Per program and round:
//!
//! - the static pipeline, stage by stage (the same calls, in the same
//!   order, as `sharc_core::compile`);
//! - `compile` of the default (eliding) build, then runs over `K`
//!   scheduler seeds;
//! - one run each of the fully-checked build and of the uninstrumented
//!   build (the same program compiled with an empty check table), on
//!   the first scheduler seed.

use crate::gen::{minic_family, Rng};
use crate::metrics::Values;
use crate::span::Tracer;
use crate::stats::{geomean, median, ratio};
use crate::{Checks, Workload};
use sharc::core::{analysis, check, elaborate, elide, CheckedProgram};
use sharc::interp::{ExitStatus, Module, RunOutcome, VmStats};
use sharc::minic::{self, env::StructTable, Diagnostics, SourceMap};
use sharc::workloads::benchmarks::{aget, dillo, fftw, pbzip2, pfscan, stunnel};
use sharc::RunConfig;
use std::time::Duration;

/// Scheduler seeds per program and round.
const K: usize = 3;

/// Generated template programs.
const FAMILY: usize = 6;

/// A hand-written program: its name, source, and expected-outcome
/// file.
type Fixed = (&'static str, fn() -> &'static str, &'static str);

/// The six MiniC ports and the `examples/minic` programs.
const FIXED: [Fixed; 10] = [
    (
        "pfscan",
        pfscan::minic_source,
        include_str!("../expected/pfscan.expect"),
    ),
    (
        "aget",
        aget::minic_source,
        include_str!("../expected/aget.expect"),
    ),
    (
        "pbzip2",
        pbzip2::minic_source,
        include_str!("../expected/pbzip2.expect"),
    ),
    (
        "dillo",
        dillo::minic_source,
        include_str!("../expected/dillo.expect"),
    ),
    (
        "fftw",
        fftw::minic_source,
        include_str!("../expected/fftw.expect"),
    ),
    (
        "stunnel",
        stunnel::minic_source,
        include_str!("../expected/stunnel.expect"),
    ),
    (
        "counter_locked.c",
        || include_str!("../../examples/minic/counter_locked.c"),
        include_str!("../expected/counter_locked.expect"),
    ),
    (
        "counter_racy.c",
        || include_str!("../../examples/minic/counter_racy.c"),
        include_str!("../expected/counter_racy.expect"),
    ),
    (
        "elision.c",
        || include_str!("../../examples/minic/elision.c"),
        include_str!("../expected/elision.expect"),
    ),
    (
        "handoff.c",
        || include_str!("../../examples/minic/handoff.c"),
        include_str!("../expected/handoff.expect"),
    ),
];

/// What a program must do on every scheduler seed.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Expected {
    race: bool,
    /// Output lines; `None` matches any one line.
    out: Vec<Option<String>>,
}

impl Expected {
    /// Parses an expected-outcome file: `verdict clean|race`, then one
    /// `out <line>` per output line (`out *` for any line); `#`
    /// starts a comment.
    fn parse(text: &str) -> Result<Expected, String> {
        let mut race = None;
        let mut out = Vec::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.split_once(' ') {
                Some(("verdict", "clean")) => race = Some(false),
                Some(("verdict", "race")) => race = Some(true),
                Some(("out", "*")) => out.push(None),
                Some(("out", l)) => out.push(Some(l.to_string())),
                _ => return Err(format!("bad expected line `{line}`")),
            }
        }
        Ok(Expected {
            race: race.ok_or("missing `verdict` line")?,
            out,
        })
    }

    fn output_matches(&self, output: &[String]) -> bool {
        output.len() == self.out.len()
            && self
                .out
                .iter()
                .zip(output)
                .all(|(want, got)| want.as_ref().is_none_or(|w| w == got))
    }

    /// Whether a run of the checked build came out as expected.
    fn checked_ok(&self, o: &RunOutcome) -> bool {
        o.status == ExitStatus::Completed
            && self.race != o.reports.is_empty()
            && self.output_matches(&o.output)
    }

    /// Whether a run of the uninstrumented build came out as
    /// expected: it checks nothing, so it reports nothing.
    fn unchecked_ok(&self, o: &RunOutcome) -> bool {
        o.status == ExitStatus::Completed && o.reports.is_empty() && self.output_matches(&o.output)
    }
}

struct Program {
    name: String,
    src: String,
    expected: Expected,
}

/// Per-program samples, one per round (ms).
#[derive(Debug, Default, Clone)]
struct Samples {
    parse: Vec<f64>,
    elaborate: Vec<f64>,
    analyze: Vec<f64>,
    check: Vec<f64>,
    elide: Vec<f64>,
    pipeline: Vec<f64>,
    compile: Vec<f64>,
    /// Default build over the uninstrumented build, first scheduler
    /// seed, per round.
    slowdown: Vec<f64>,
    /// Fully-checked build over the default build, per round.
    full_over_elided: Vec<f64>,
    checked_slots: usize,
    elided_slots: usize,
}

/// Per-round totals over all programs.
#[derive(Debug, Default)]
struct Round {
    verdict_ms: Vec<f64>,
    /// The round's verdict time over its uninstrumented runs (`K` per
    /// program, at the time of the one run made).
    verdict_x: Vec<f64>,
    vm_ms: Vec<f64>,
    runs: usize,
    stats: VmStats,
}

pub struct MinicVm {
    seed: u64,
    programs: Vec<Program>,
    sched: [u64; K],
    samples: Vec<Samples>,
    rounds: Round,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The static pipeline, one span per stage; `times` gets
/// `[parse, elaborate, analyze, check, elide]` in ms.
fn pipeline(
    name: &str,
    src: &str,
    t: &mut Tracer,
    times: &mut [f64; 5],
) -> Result<CheckedProgram, minic::Diagnostic> {
    let source_map = SourceMap::new(name, src);
    let (parsed, d) = t.call("minic", "parse", || {
        minic::parse(src).map(|mut program| {
            minic::env::canonicalize_struct_names(&mut program);
            program
        })
    });
    times[0] = ms(d);
    let mut program = parsed?;
    let annotation_count = sharc::core::count_annotations(&program);
    let ((elab, structs), d) = t.call("core", "elaborate", || {
        let elab = elaborate::elaborate(&mut program);
        (elab, StructTable::build(&program))
    });
    times[1] = ms(d);
    let structs = structs?;
    let ((sharing, structs), d) = t.call("core", "analyze", || {
        let sharing = analysis::analyze(&mut program, &structs, elab.n_vars);
        // Analysis solved the qualifier variables inside struct-field
        // signatures; the checker must see the solved types.
        (sharing, StructTable::build(&program))
    });
    times[2] = ms(d);
    let structs = structs?;
    let (checked, d) = t.call("core", "check", || {
        check::check(&program, &structs, &sharing)
    });
    times[3] = ms(d);
    let (elision, d) = t.call("core", "elide", || elide::elide(&program, &checked.instr));
    times[4] = ms(d);
    let mut diags = Diagnostics::new();
    for d in elab
        .diags
        .iter()
        .chain(sharing.diags.iter())
        .chain(checked.diags.iter())
    {
        diags.push(d.clone());
    }
    Ok(CheckedProgram {
        program,
        structs,
        instr: checked.instr,
        elision,
        sharing,
        diags,
        source_map,
        annotation_count,
    })
}

impl MinicVm {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x5c4ed);
        MinicVm {
            seed,
            programs: Vec::new(),
            sched: std::array::from_fn(|_| rng.below(1 << 32)),
            samples: Vec::new(),
            rounds: Round::default(),
        }
    }

    fn config(&self, k: usize) -> RunConfig {
        RunConfig {
            seed: self.sched[k],
            ..RunConfig::default()
        }
    }

    /// Compiles one build and runs it on the first scheduler seed.
    fn run_build(
        &self,
        build: &'static str,
        compile: impl FnOnce() -> Result<Module, minic::Diagnostic>,
        checked: &CheckedProgram,
        t: &mut Tracer,
    ) -> Result<(RunOutcome, f64), minic::Diagnostic> {
        let (module, _) = t.call("interp", build, compile);
        let module = module?;
        let (out, d) = t.call("interp", "vm::run", || {
            sharc::interp::run(&module, &checked.source_map, self.config(0))
        });
        Ok((out, ms(d)))
    }

    /// One program's pass; returns its contribution to the round's
    /// verdict time, VM time, and uninstrumented VM time.
    fn program_round(&mut self, i: usize, t: &mut Tracer, c: &mut Checks) -> (f64, f64, f64) {
        let p = &self.programs[i];
        let mut times = [0.0; 5];
        // The stage spans nest under this one.
        let open = t.open("core", "sharc_core::compile (staged)");
        let checked = pipeline(&p.name, &p.src, t, &mut times);
        let d_pipeline = ms(t.close(open));
        let checked = match checked {
            Ok(ch) if !ch.diags.has_errors() => ch,
            Ok(ch) => {
                c.op(false, || {
                    format!("{}: check errors:\n{}", p.name, ch.render_diags())
                });
                return (0.0, 0.0, 0.0);
            }
            Err(e) => {
                c.op(false, || format!("{}: {e}", p.name));
                return (0.0, 0.0, 0.0);
            }
        };
        c.op(true, String::new);

        let (module, d_compile) = t.call("interp", "compile", || {
            sharc::interp::compile_module(&checked)
        });
        let module = match module {
            Ok(m) => m,
            Err(e) => {
                c.op(false, || format!("{}: compile: {e}", p.name));
                return (0.0, 0.0, 0.0);
            }
        };
        let mut vm_ms = 0.0;
        let mut first = 0.0;
        for k in 0..K {
            let (out, d) = t.call("interp", "vm::run", || {
                sharc::interp::run(&module, &checked.source_map, self.config(k))
            });
            vm_ms += ms(d);
            if k == 0 {
                first = ms(d);
            }
            c.op(p.expected.checked_ok(&out), || {
                format!(
                    "{} (scheduler seed {}): {:?}, {} reports, output {:?}",
                    p.name,
                    self.sched[k],
                    out.status,
                    out.reports.len(),
                    out.output
                )
            });
            let st = &mut self.rounds.stats;
            st.steps += out.stats.steps;
            st.dynamic_accesses += out.stats.dynamic_accesses;
            st.cache_hits += out.stats.cache_hits;
            st.range_hits += out.stats.range_hits;
            st.checks_elided += out.stats.checks_elided;
        }

        let full = self.run_build(
            "compile_full_checks",
            || sharc::interp::compile_full_checks(&checked),
            &checked,
            t,
        );
        let full = match full {
            Ok((out, d)) => {
                c.op(p.expected.checked_ok(&out), || {
                    format!("{} full checks: {:?} {:?}", p.name, out.status, out.output)
                });
                d
            }
            Err(e) => {
                c.op(false, || format!("{}: full-checks build: {e}", p.name));
                0.0
            }
        };

        // The uninstrumented build: the same program, no check table.
        let mut bare = checked;
        let table = std::mem::take(&mut bare.instr.checks);
        let unchecked = self.run_build(
            "compile (no checks)",
            || sharc::interp::compile_module(&bare),
            &bare,
            t,
        );
        bare.instr.checks = table;
        let unchecked = match unchecked {
            Ok((out, d)) => {
                c.op(p.expected.unchecked_ok(&out), || {
                    format!(
                        "{} uninstrumented: {:?}, {} reports, output {:?}",
                        p.name,
                        out.status,
                        out.reports.len(),
                        out.output
                    )
                });
                d
            }
            Err(e) => {
                c.op(false, || format!("{}: uninstrumented build: {e}", p.name));
                0.0
            }
        };

        let summary = bare.elision.summary;
        let s = &mut self.samples[i];
        s.parse.push(times[0]);
        s.elaborate.push(times[1]);
        s.analyze.push(times[2]);
        s.check.push(times[3]);
        s.elide.push(times[4]);
        s.pipeline.push(d_pipeline);
        s.compile.push(ms(d_compile));
        s.slowdown.push(first / unchecked);
        s.full_over_elided.push(full / first);
        s.checked_slots = summary.checked_slots;
        s.elided_slots = summary.elided_slots;
        (d_pipeline + ms(d_compile) + vm_ms, vm_ms, unchecked)
    }
}

impl Workload for MinicVm {
    fn setup(&mut self, t: &mut Tracer, c: &mut Checks) -> u64 {
        self.programs.clear();
        for (name, src, expected) in FIXED {
            match Expected::parse(expected) {
                Ok(expected) => self.programs.push(Program {
                    name: name.to_string(),
                    src: src().to_string(),
                    expected,
                }),
                Err(e) => c.op(false, || format!("{name}.expect: {e}")),
            }
        }
        let (family, _) = t.call("bench", "minic_family", || minic_family(self.seed, FAMILY));
        for g in family {
            self.programs.push(Program {
                name: g.name,
                src: g.src,
                expected: Expected {
                    race: false,
                    out: g.expected_output.into_iter().map(Some).collect(),
                },
            });
        }
        // The staged pipeline must agree with `sharc_core::compile`.
        for p in &self.programs {
            let mut times = [0.0; 5];
            let staged = pipeline(&p.name, &p.src, t, &mut times);
            let (whole, _) = t.call("core", "sharc_core::compile", || {
                sharc::check(&p.name, &p.src)
            });
            let same = match (&staged, &whole) {
                (Ok(a), Ok(b)) => {
                    a.diags.len() == b.diags.len()
                        && a.annotation_count == b.annotation_count
                        && a.instr.checks.len() == b.instr.checks.len()
                        && a.elision.summary == b.elision.summary
                }
                _ => false,
            };
            c.op(same, || {
                format!(
                    "{}: the staged pipeline differs from sharc_core::compile",
                    p.name
                )
            });
        }
        self.samples = vec![Samples::default(); self.programs.len()];
        // Warm every path up once, with the oracles on.
        for i in 0..self.programs.len() {
            self.program_round(i, t, c);
        }
        let mut h = crate::gen::Fnv::default();
        for p in &self.programs {
            h.write(p.name.as_bytes());
            h.write(p.src.as_bytes());
            h.write(format!("{:?}", p.expected).as_bytes());
        }
        h.write(format!("{:?}", self.sched).as_bytes());
        h.finish()
    }

    fn round(&mut self, _round: u32, t: &mut Tracer, c: &mut Checks) {
        let (mut verdict, mut vm, mut unchecked) = (0.0, 0.0, 0.0);
        for i in 0..self.programs.len() {
            let (v, m, u) = self.program_round(i, t, c);
            verdict += v;
            vm += m;
            unchecked += u;
        }
        self.rounds.verdict_ms.push(verdict);
        self.rounds.verdict_x.push(verdict / (K as f64 * unchecked));
        self.rounds.vm_ms.push(vm);
        self.rounds.runs = self.programs.len() * K;
    }

    fn clear_samples(&mut self) {
        self.samples = vec![Samples::default(); self.programs.len()];
        self.rounds = Round::default();
    }

    fn metrics(&self, v: &mut Values) {
        let sum = |f: fn(&Samples) -> &Vec<f64>| -> f64 {
            self.samples.iter().map(|s| median(f(s))).sum()
        };
        let per_program =
            |f: fn(&Samples) -> f64| -> Vec<f64> { self.samples.iter().map(f).collect() };
        v.set("slowdown", geomean(&per_program(|s| median(&s.slowdown))));
        v.set("verdict_x", median(&self.rounds.verdict_x));
        v.set("bench.verdict_ms", median(&self.rounds.verdict_ms));
        v.set("minic.parse_ms", sum(|s| &s.parse));
        v.set("core.elaborate_ms", sum(|s| &s.elaborate));
        v.set("core.analyze_ms", sum(|s| &s.analyze));
        v.set("core.check_ms", sum(|s| &s.check));
        v.set("core.elide_ms", sum(|s| &s.elide));
        v.set("core.pipeline_ms", sum(|s| &s.pipeline));
        let slots = |f: fn(&Samples) -> usize| self.samples.iter().map(f).sum::<usize>() as f64;
        v.set("core.checked_slots", slots(|s| s.checked_slots));
        v.set("core.elided_slots", slots(|s| s.elided_slots));
        v.set(
            "core.elide.full_over_elided",
            geomean(&per_program(|s| median(&s.full_over_elided))),
        );
        v.set("interp.compile_ms", sum(|s| &s.compile));
        let rounds = self.rounds.vm_ms.len().max(1) as f64;
        let vm_ms = median(&self.rounds.vm_ms);
        let st = &self.rounds.stats;
        // The counters are summed over every round; report one round's.
        let per_round = |x: u64| x as f64 / rounds;
        v.set("interp.vm_ms", vm_ms);
        v.set("interp.steps", per_round(st.steps));
        v.set(
            "interp.ns_per_step",
            ratio(vm_ms * 1e6, per_round(st.steps)),
        );
        v.set("interp.dynamic_accesses", per_round(st.dynamic_accesses));
        v.set("interp.cache_hits", per_round(st.cache_hits));
        v.set("interp.range_hits", per_round(st.range_hits));
        v.set("interp.checks_elided", per_round(st.checks_elided));
        v.set(
            "interp.vm_runs_per_s",
            ratio(self.rounds.runs as f64, vm_ms / 1e3),
        );
    }

    fn params(&self) -> String {
        let names: Vec<String> = self
            .programs
            .iter()
            .map(|p| format!("\"{}\"", p.name))
            .collect();
        format!(
            "{{\"programs\":[{}],\"scheduler_seeds\":{:?},\"template_family\":{FAMILY}}}",
            names.join(","),
            self.sched
        )
    }
}
