//! Past the one-byte shadow: every arena workload run with 8 workers,
//! so checked tids reach 9 and the arena takes the sharded engine.
//!
//! Each port must (a) give the checked build the uninstrumented
//! build's checksum with zero conflicts, and (b) record a trace that
//! names tid 9 and that the SharC replay judge accepts — the same
//! engine `sharc::judge_trace` runs for `--detector sharc`, sized to
//! the widest tid in the trace.

use sharc_checker::{geometry_for_trace, max_trace_tid, replay, BitmapBackend, CheckEvent};
use sharc_runtime::{CachedChecked, Checked, Unchecked};
use sharc_workloads::benchmarks::{aget, dillo, fftw, handoff, pfscan};
use sharc_workloads::table::{NativeRun, Scale};
use std::time::Duration;

const WORKERS: usize = 8;

/// Checked equals orig, and both ran clean.
fn assert_checked_matches(name: &str, orig: NativeRun, checked: NativeRun) {
    assert_eq!(orig.checksum, checked.checksum, "{name}: checksum");
    assert_eq!(checked.conflicts, 0, "{name}: checked conflicts");
    assert_eq!(checked.threads, WORKERS + 1, "{name}: thread count");
}

/// The recorded run is clean live and on replay, and reaches tid 9.
fn assert_trace_clean(name: &str, (run, trace): (NativeRun, Vec<CheckEvent>)) {
    assert_eq!(run.conflicts, 0, "{name}: traced run conflicts");
    assert_eq!(
        max_trace_tid(&trace),
        WORKERS as u32 + 1,
        "{name}: widest tid"
    );
    let mut judge = BitmapBackend::with_geometry(geometry_for_trace(&trace));
    let conflicts = replay(&trace, &mut judge);
    assert!(conflicts.is_empty(), "{name}: replay reports {conflicts:?}");
}

#[test]
fn pfscan_runs_past_seven_tids() {
    let mut p = pfscan::Params::scaled(Scale::quick());
    p.workers = WORKERS;
    assert_checked_matches(
        "pfscan",
        pfscan::run_native::<Unchecked>(&p),
        pfscan::run_native::<Checked>(&p),
    );
    assert_trace_clean("pfscan", pfscan::run_traced(&p));
}

#[test]
fn aget_runs_past_seven_tids() {
    let mut p = aget::Params::scaled(Scale::quick());
    p.workers = WORKERS;
    p.latency = Duration::ZERO;
    assert_checked_matches(
        "aget",
        aget::run_native::<Unchecked>(&p),
        aget::run_native::<Checked>(&p),
    );
    assert_trace_clean("aget", aget::run_traced(&p));
}

#[test]
fn dillo_runs_past_seven_tids() {
    let mut p = dillo::Params::scaled(Scale::quick());
    p.workers = WORKERS;
    p.latency = Duration::ZERO;
    let orig = dillo::run_native::<Unchecked>(&p);
    assert_checked_matches("dillo", orig, dillo::run_native::<Checked>(&p));
    // The cached build is a checked build too: it pays the
    // bogus-pointer RC metadata exactly as `Checked` does.
    let cached = dillo::run_native::<CachedChecked>(&p);
    assert_checked_matches("dillo/cached", orig, cached);
    assert_eq!(
        cached.shadow_bytes,
        dillo::run_native::<Checked>(&p).shadow_bytes,
        "dillo/cached: shadow and RC bytes"
    );
    assert_trace_clean("dillo", dillo::run_traced(&p));
}

#[test]
fn fftw_runs_past_seven_tids() {
    let mut p = fftw::Params::scaled(Scale::quick());
    p.workers = WORKERS;
    assert_checked_matches(
        "fftw",
        fftw::run_native(&p, false),
        fftw::run_native(&p, true),
    );
    assert_trace_clean("fftw", fftw::run_traced(&p));
}

#[test]
fn handoff_runs_past_seven_tids() {
    let p = handoff::Params {
        consumers: WORKERS,
        ..handoff::Params::default()
    };
    assert_checked_matches(
        "handoff",
        handoff::run_native::<Unchecked>(&p),
        handoff::run_native::<Checked>(&p),
    );
    assert_trace_clean("handoff", handoff::run_traced(&p));
}
