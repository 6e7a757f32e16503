//! Cross-validation between SharC and the §6.2 baseline detectors on
//! *identical executions*: the VM records the [`CheckEvent`] trace of
//! a run, which Eraser and the vector-clock detector then judge
//! through [`sharc::judge_trace`] — the path `sharc run --detector`
//! takes. Agreement/disagreement must match the paper's analysis:
//!
//! * honest races: everyone reports;
//! * lock-protected sharing: nobody reports;
//! * ownership hand-off via sharing casts: SharC is silent (the cast
//!   models the transfer), the baselines report a false positive.

use sharc::checker::{self, CheckEvent, Conflict};
use sharc::prelude::*;

fn run_traced(src: &str, seed: u64) -> RunOutcome {
    sharc::check_and_run(
        "xval.c",
        src,
        RunConfig {
            seed,
            collect_trace: true,
            ..RunConfig::default()
        },
    )
    .expect("program checks cleanly")
}

/// `kind`'s verdict on the recorded execution.
fn judge(out: &RunOutcome, kind: DetectorKind) -> Vec<Conflict> {
    sharc::judge_trace(&out.trace, kind).1
}

/// The first heap granule: `new` is the first allocation the trace
/// records.
fn heap_floor(trace: &[CheckEvent]) -> usize {
    trace
        .iter()
        .find_map(|e| match *e {
            CheckEvent::Alloc { granule } => Some(granule),
            _ => None,
        })
        .expect("new() allocates")
}

fn heap_conflicts(conflicts: &[Conflict], heap_floor: usize) -> usize {
    // Filter to conflicts on heap data (ignore stack-frame granules
    // the detectors see because the VM allocates frames in main
    // memory — a real tool would know the stack is thread-private).
    conflicts.iter().filter(|c| c.granule >= heap_floor).count()
}

#[test]
fn honest_race_everyone_agrees() {
    let src = "void w(int * d) { int i; for (i = 0; i < 30; i++) *d = *d + 1; }\n\
               void main() { int * p; p = new(int);\n\
                 spawn(w, p); spawn(w, p); join_all(); }";
    let mut sharc_found = false;
    let mut eraser_found = false;
    let mut vc_found = false;
    for seed in 0..6 {
        let out = run_traced(src, seed);
        sharc_found |= !out.reports.is_empty();
        eraser_found |= !judge(&out, DetectorKind::Eraser).is_empty();
        vc_found |= !judge(&out, DetectorKind::Vc).is_empty();
    }
    assert!(sharc_found, "SharC reports the race");
    assert!(eraser_found, "Eraser reports the race");
    assert!(vc_found, "vector clocks report the race");
}

#[test]
fn lock_protected_everyone_silent_on_the_data() {
    let src = "struct c { mutex m; int locked(m) v; };\n\
               void w(struct c * x) { int i; for (i = 0; i < 10; i++) {\n\
                 mutex_lock(&x->m); x->v = x->v + 1; mutex_unlock(&x->m); } }\n\
               void main() { struct c * x = new(struct c);\n\
                 spawn(w, x); spawn(w, x); join_all(); }";
    let out = run_traced(src, 2);
    assert!(out.reports.is_empty(), "SharC: {:?}", out.reports);
    // The protected counter lives in the heap object allocated by
    // `new`; its allocation scopes the comparison.
    let floor = heap_floor(&out.trace);
    let eraser = judge(&out, DetectorKind::Eraser);
    let vc = judge(&out, DetectorKind::Vc);
    assert_eq!(heap_conflicts(&eraser, floor), 0, "{eraser:?}");
    assert_eq!(heap_conflicts(&vc, floor), 0, "{vc:?}");
}

#[test]
fn handoff_sharc_accepts_baselines_object() {
    // Ownership transfer: SharC accepts (sharing casts); on the very
    // same execution the baselines flag the buffer.
    let src = "
        struct ch { mutex m; cond cv; int *locked(m) slot; };
        void consumer(struct ch * c) {
            int private * d;
            int got;
            got = 0;
            while (got < 6) {
                mutex_lock(&c->m);
                while (c->slot == NULL) cond_wait(&c->cv, &c->m);
                d = SCAST(int private *, c->slot);
                cond_signal(&c->cv);
                mutex_unlock(&c->m);
                *d = *d + 1;
                free(d);
                got = got + 1;
            }
        }
        void main() {
            struct ch * c = new(struct ch);
            int private * b;
            int i;
            spawn(consumer, c);
            for (i = 0; i < 6; i++) {
                b = new(int private);
                *b = i;
                mutex_lock(&c->m);
                while (c->slot) cond_wait(&c->cv, &c->m);
                c->slot = SCAST(int locked(c->m) *, b);
                cond_signal(&c->cv);
                mutex_unlock(&c->m);
            }
            join_all();
        }";
    let out = run_traced(src, 3);
    assert!(out.reports.is_empty(), "SharC accepts: {:?}", out.reports);

    // The producer writes each buffer before publishing; the consumer
    // writes it after taking. Same location, both orders mediated by
    // the channel mutex — the happens-before chain *does* cover this
    // particular trace (same lock), so to expose the baselines'
    // blindness to ownership we check Eraser's lockset view: the
    // buffer is written both with and without the channel lock held,
    // emptying its candidate lockset.
    let eraser = judge(&out, DetectorKind::Eraser);
    assert!(
        !eraser.is_empty(),
        "Eraser false-positives on the ownership hand-off"
    );
}

#[test]
fn trace_is_complete_and_ordered() {
    let src = "void main() { int * p; p = new(int); *p = 4; print(*p); free(p); }";
    let out = run_traced(src, 0);
    assert_eq!(out.output, vec!["4"]);
    let events = &out.trace;
    let allocs = events
        .iter()
        .filter(|e| matches!(e, CheckEvent::Alloc { .. }))
        .count();
    assert_eq!(allocs, 1);
    // The write to *p precedes the read of *p.
    let heap = heap_floor(events);
    let w = events
        .iter()
        .position(|e| matches!(e, CheckEvent::Write { granule, .. } if *granule == heap));
    let r = events
        .iter()
        .position(|e| matches!(e, CheckEvent::Read { granule, .. } if *granule == heap));
    assert!(w.unwrap() < r.unwrap());

    // Casts, frees, threads and locks: one ranged cast covering the
    // whole object, one ranged free, one exit per thread, and the
    // trace survives both file encodings exactly.
    let src = "
        struct blk { int a; int b; int c; int d; };
        struct cnt { mutex m; int locked(m) n; };
        void worker(struct cnt * c) {
            mutex_lock(&c->m); c->n = c->n + 1; mutex_unlock(&c->m);
        }
        void main() {
            struct cnt * c = new(struct cnt);
            struct blk * b = new(struct blk);
            struct blk private * mine;
            int t;
            b->a = 1;
            t = spawn(worker, c);
            join(t);
            mine = SCAST(struct blk private *, b);
            mine->d = 2;
            print(mine->a + mine->d);
            free(mine);
        }";
    let out = run_traced(src, 0);
    assert!(out.is_clean(), "{:?}", out.reports);
    assert_eq!(out.output, vec!["3"]);
    let events = &out.trace;
    let casts: Vec<_> = events
        .iter()
        .filter_map(|e| match *e {
            CheckEvent::RangeCast { granule, len, .. } => Some((granule, len)),
            _ => None,
        })
        .collect();
    // Four cells at two cells per granule.
    let [(cast_at, cast_len)] = casts[..] else {
        panic!("one ranged cast: {casts:?}");
    };
    assert_eq!(cast_len, 2);
    for g in cast_at..cast_at + cast_len {
        assert!(events.contains(&CheckEvent::Alloc { granule: g }), "{g}");
    }
    let frees: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, CheckEvent::RangeFree { .. }))
        .collect();
    assert_eq!(
        frees,
        [&CheckEvent::RangeFree {
            granule: cast_at,
            len: cast_len
        }]
    );
    let mut exits: Vec<u32> = events
        .iter()
        .filter_map(|e| match *e {
            CheckEvent::ThreadExit { tid } => Some(tid),
            _ => None,
        })
        .collect();
    exits.sort_unstable();
    assert_eq!(exits, vec![1, 2], "main and the worker exit once each");
    for kind in ["fork", "join", "acquire", "release"] {
        assert!(
            events.iter().any(|e| checker::event_keyword(e) == kind),
            "no {kind} event"
        );
    }
    let text = checker::trace::to_text(events);
    assert_eq!(checker::trace::parse_text(&text).as_ref(), Ok(events));
    let bytes = checker::to_binary(events);
    assert_eq!(checker::parse_binary(&bytes).as_ref(), Ok(events));
}
