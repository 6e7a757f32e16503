//! Compares SharC with the classic dynamic race detectors the paper
//! discusses (§6.2) on three idioms:
//!
//! * an honest race — everyone should report it;
//! * lock-protected sharing — nobody should report;
//! * ownership hand-off — Eraser and even happens-before report a
//!   false positive, while SharC models the transfer with a sharing
//!   cast and stays silent.
//!
//! ```text
//! cargo run --example race_hunt
//! ```

use sharc::prelude::*;
use sharc_checker::{replay, CheckEvent as E};
use sharc_detectors::{BaselineBackend, Eraser, VcDetector};

fn sharc_reports(src: &str) -> usize {
    let out = sharc::check_and_run("hunt.c", src, RunConfig::default())
        .expect("program must check cleanly");
    out.reports.len()
}

fn main() {
    // --- Idiom 1: an honest race -------------------------------------
    let racy_minic = "
        void worker(int * d) { int i; for (i = 0; i < 40; i++) *d = *d + 1; }
        void main() { int * p; p = new(int);
            spawn(worker, p); spawn(worker, p); join_all(); }";
    let racy_trace = vec![
        E::Fork {
            parent: 1,
            child: 2,
        },
        E::Write { tid: 1, granule: 0 },
        E::Write { tid: 2, granule: 0 },
    ];

    // --- Idiom 2: lock-protected sharing -----------------------------
    let locked_minic = "
        struct c { mutex m; int locked(m) v; };
        void worker(struct c * x) { int i; for (i = 0; i < 40; i++) {
            mutex_lock(&x->m); x->v = x->v + 1; mutex_unlock(&x->m); } }
        void main() { struct c * x = new(struct c);
            spawn(worker, x); spawn(worker, x); join_all(); }";
    let locked_trace = vec![
        E::Fork {
            parent: 1,
            child: 2,
        },
        E::Acquire { tid: 1, lock: 9 },
        E::Write { tid: 1, granule: 0 },
        E::Release { tid: 1, lock: 9 },
        E::Acquire { tid: 2, lock: 9 },
        E::Write { tid: 2, granule: 0 },
        E::Release { tid: 2, lock: 9 },
    ];

    // --- Idiom 3: ownership hand-off ---------------------------------
    let handoff_minic = "
        struct ch { mutex m; cond cv; int *locked(m) slot; };
        void consumer(struct ch * c) { int private * d; int got; got = 0;
            while (got < 10) {
                mutex_lock(&c->m);
                while (c->slot == NULL) cond_wait(&c->cv, &c->m);
                d = SCAST(int private *, c->slot);
                cond_signal(&c->cv);
                mutex_unlock(&c->m);
                *d = *d + 1; free(d); got = got + 1; } }
        void main() { struct ch * c = new(struct ch); int private * b; int i;
            spawn(consumer, c);
            for (i = 0; i < 10; i++) {
                b = new(int private); *b = i;
                mutex_lock(&c->m);
                while (c->slot) cond_wait(&c->cv, &c->m);
                c->slot = SCAST(int locked(c->m) *, b);
                cond_signal(&c->cv);
                mutex_unlock(&c->m); }
            join_all(); }";
    let handoff_trace = vec![
        E::Fork {
            parent: 1,
            child: 2,
        },
        // Producer writes under its lock, hands off, consumer uses its
        // own lock: no common lock, no happens-before edge chain.
        E::Acquire { tid: 1, lock: 1 },
        E::Write { tid: 1, granule: 0 },
        E::Release { tid: 1, lock: 1 },
        E::Acquire { tid: 2, lock: 2 },
        E::Write { tid: 2, granule: 0 },
        E::Release { tid: 2, lock: 2 },
        E::Acquire { tid: 1, lock: 1 },
        E::Write { tid: 1, granule: 0 },
        E::Release { tid: 1, lock: 1 },
    ];

    println!(
        "{:<24} {:>8} {:>8} {:>14}",
        "idiom", "eraser", "vclock", "sharc"
    );
    let rows = [
        ("honest race", &racy_trace, racy_minic, true),
        ("lock-protected", &locked_trace, locked_minic, false),
        ("ownership hand-off", &handoff_trace, handoff_minic, false),
    ];
    for (name, trace, minic_src, is_real_race) in rows {
        let eraser = replay(trace, &mut BaselineBackend::new(Eraser::new())).len();
        let vc = replay(trace, &mut BaselineBackend::new(VcDetector::new())).len();
        let sharc = sharc_reports(minic_src);
        println!("{name:<24} {eraser:>8} {vc:>8} {sharc:>14}");
        if !is_real_race {
            assert_eq!(sharc, 0, "SharC must accept the declared strategy");
        } else {
            assert!(sharc > 0, "SharC must catch the honest race");
        }
    }
    println!(
        "\nOnly SharC models ownership transfer directly (the paper's central\n\
         claim): the hand-off row shows the baselines' false positive."
    );
}
