//! Seeded input generators: the synthetic spine trace of the
//! `trace-replay` workload and the MiniC template family of the
//! `minic-vm` workload. Each is a pure function of its seed, so the
//! same seed gives byte-identical inputs (the self-test and every
//! run's set-up check this).

use sharc::checker::CheckEvent as E;
use sharc_testkit::rng::{uniform_u64, Xoshiro256pp};

/// A small wrapper over the testkit PRNG with the draws the
/// generators need.
pub struct Rng(Xoshiro256pp);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(Xoshiro256pp::seed_from_u64(seed))
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        uniform_u64(&mut self.0, n)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `pct` percent.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// FNV-1a, for fingerprints of generated inputs.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Granules each thread owns in the synthetic trace. Threads touch
/// only their own band, so every conflict in the trace is a planted
/// one.
const BAND: usize = 64;

/// Events Eraser and vector clocks judge. Vector clocks cost about
/// 1 µs per event at 250–300 tids on a 2-CPU host, so the baselines
/// see a prefix rather than the whole trace.
pub const BASELINE_PREFIX: usize = 50_000;

/// A synthetic spine trace and the races planted in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpineTrace {
    pub events: Vec<E>,
    /// `(event index of the reported access, granule)` per planted
    /// race, in trace order.
    pub races: Vec<(usize, usize)>,
    /// Worker threads (tids `2 ..= threads + 1`).
    pub threads: u32,
}

impl SpineTrace {
    /// The planted granules whose reported access lies in the first
    /// `len` events, ascending.
    pub fn planted_within(&self, len: usize) -> Vec<usize> {
        let mut g: Vec<usize> = self
            .races
            .iter()
            .filter(|&&(at, _)| at < len)
            .map(|&(_, g)| g)
            .collect();
        g.sort_unstable();
        g
    }
}

/// Generates a spine trace of about `len` events from `seed`.
///
/// Shape: 252–299 worker threads forked by tid 1, so the widest tid
/// needs five 63-thread shards. Threads record in bursts that mix
/// fine interleaving (1–3 events, 70% of bursts) with runs of 8–24
/// events, the way an `EventLog` fills when threads really run in
/// parallel. The mix is calibrated so the binary encoding costs about
/// as many bytes per event as a recorded `sharc native stunnel` trace
/// (3.4 here against 3.2–3.7 for recordings on a 2-CPU host). Each
/// thread walks its own granule band with mostly short strides
/// (reads, writes, ranged sweeps, casts, and locked accesses under its
/// own locks), so no lock or granule orders two threads and the only
/// conflicts are the 4–8 planted races: two threads writing one
/// otherwise untouched granule, half of them inside
/// [`BASELINE_PREFIX`].
pub fn spine_trace(seed: u64, len: usize) -> SpineTrace {
    let mut rng = Rng::new(seed ^ 0x5b7e_7ace);
    let threads = 252 + rng.below(48) as u32;
    let tid_of = |i: u64| i as u32 + 2;
    let race_zone = threads as usize * BAND;

    // Planted writes: (event index, tid, granule, whether it is the
    // reported second write), sorted by index.
    let n_races = rng.range(4, 8) as usize;
    let mut plants = Vec::new();
    let mut races = Vec::new();
    for i in 0..n_races {
        // Even races land inside the baseline prefix, odd ones past it.
        let (lo, span) = match (i % 2, BASELINE_PREFIX.min(len)) {
            (1, prefix) if len > prefix => (prefix, len - prefix),
            (_, prefix) => (0, prefix),
        };
        let second = lo + rng.range(span as u64 / 10, span as u64 * 9 / 10) as usize;
        let first = second - rng.range(1, (second as u64 / 2).max(1)) as usize;
        let a = tid_of(rng.below(threads as u64));
        let b = tid_of((a as u64 - 2 + rng.range(1, threads as u64 - 1)) % threads as u64);
        let granule = race_zone + 4 * i;
        plants.push((first, a, granule, false));
        plants.push((second, b, granule, true));
    }
    plants.sort_by_key(|&(at, ..)| at);

    // Room for the last burst's overshoot (up to 24 events, each at
    // most a three-event locked triple), so the vector never regrows.
    let mut out = Vec::with_capacity(len + 72 + 3 * threads as usize + 2 * n_races);
    for t in 0..threads {
        out.push(E::Fork {
            parent: 1,
            child: tid_of(t as u64),
        });
    }
    let mut cursor: Vec<usize> = (0..threads as usize).map(|t| t * BAND).collect();
    let mut next_plant = plants.iter().peekable();
    // Events go in as units, and planted writes only between units:
    // a write planted inside a thread's acquire..release triple would
    // run with that thread's lock held, which hides it from Eraser.
    let mut push = |out: &mut Vec<E>, unit: &[E]| {
        while let Some(&(_, tid, granule, reported)) = next_plant.next_if(|p| p.0 <= out.len()) {
            if reported {
                races.push((out.len(), granule));
            }
            out.push(E::Write { tid, granule });
        }
        out.extend_from_slice(unit);
    };
    while out.len() < len {
        let t = rng.below(threads as u64) as usize;
        let tid = tid_of(t as u64);
        let band = t * BAND;
        let burst = if rng.chance(70) {
            rng.range(1, 3)
        } else {
            rng.range(8, 24)
        };
        for _ in 0..burst {
            // Mostly short forward strides, sometimes a jump.
            let step = if rng.chance(8) {
                rng.below(BAND as u64) as usize
            } else {
                rng.below(4) as usize
            };
            cursor[t] = band + (cursor[t] - band + step) % BAND;
            let g = cursor[t];
            let room = band + BAND - g;
            let r = rng.below(100);
            match r {
                0..=46 => push(&mut out, &[E::Write { tid, granule: g }]),
                47..=79 => push(&mut out, &[E::Read { tid, granule: g }]),
                80..=91 if room < 2 => push(&mut out, &[E::Read { tid, granule: g }]),
                80..=85 => {
                    let l = rng.range(2, room.min(8) as u64) as usize;
                    push(
                        &mut out,
                        &[E::RangeWrite {
                            tid,
                            granule: g,
                            len: l,
                        }],
                    )
                }
                86..=91 => {
                    let l = rng.range(2, room.min(8) as u64) as usize;
                    push(
                        &mut out,
                        &[E::RangeRead {
                            tid,
                            granule: g,
                            len: l,
                        }],
                    )
                }
                92..=95 => {
                    // A held-lock access under one of the thread's
                    // own locks: the lock orders nothing across
                    // threads, so happens-before stays fork-only.
                    let lock = tid as usize * 2 + (r as usize & 1);
                    push(
                        &mut out,
                        &[
                            E::Acquire { tid, lock },
                            E::LockedAccess { tid, lock },
                            E::Release { tid, lock },
                        ],
                    );
                }
                96..=97 => push(
                    &mut out,
                    &[E::SharingCast {
                        tid,
                        granule: g,
                        refs: 1,
                    }],
                ),
                _ => {
                    let l = rng.range(1, room.min(4) as u64) as usize;
                    push(
                        &mut out,
                        &[E::RangeCast {
                            tid,
                            granule: g,
                            len: l,
                            refs: 1,
                        }],
                    )
                }
            }
        }
    }
    for t in 0..threads {
        let tid = tid_of(t as u64);
        push(
            &mut out,
            &[
                E::ThreadExit { tid },
                E::Join {
                    parent: 1,
                    child: tid,
                },
            ],
        );
    }
    SpineTrace {
        events: out,
        races,
        threads,
    }
}

/// One generated MiniC program and the output it must print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenProgram {
    pub name: String,
    pub src: String,
    pub expected_output: Vec<String>,
}

/// Generates `n` programs of the elision-differential template
/// family from `seed`. Shapes cycle through all six combinations of
/// {locked counter, unlocked counter, unlocked counter escaping into
/// a global} × {one spawn, two spawns}; the seed deals the loop trip
/// counts (60, 90, …, 210) out to the shapes. Every shape is race-free by construction (two
/// unlocked workers count on two objects), so each must run clean
/// and print `iters × spawns`.
pub fn minic_family(seed: u64, n: usize) -> Vec<GenProgram> {
    let mut rng = Rng::new(seed ^ 0x0c1c_fa11);
    // Trip counts are a seeded shuffle of a fixed list, so every seed
    // does about the same amount of work.
    let mut trips: Vec<u32> = (0..n as u32).map(|i| 60 + 30 * (i % 6)).collect();
    for i in (1..trips.len()).rev() {
        trips.swap(i, rng.below(i as u64 + 1) as usize);
    }
    (0..n)
        .map(|i| {
            let iters = trips[i];
            let spawns = 1 + (i / 3 % 2) as u32;
            let (kind, src) = match i % 3 {
                0 => ("locked", locked_counter(iters, spawns)),
                1 => ("private", unlocked_counter(iters, spawns, false)),
                _ => ("escaping", unlocked_counter(iters, spawns, true)),
            };
            GenProgram {
                name: format!("gen{i:02}-{kind}-x{spawns}-n{iters}.c"),
                src,
                expected_output: vec![(iters * spawns).to_string()],
            }
        })
        .collect()
}

fn locked_counter(iters: u32, spawns: u32) -> String {
    let spawn = if spawns == 2 {
        "spawn(worker, c); spawn(worker, c); join_all();"
    } else {
        "t = spawn(worker, c); join(t);"
    };
    format!(
        "struct ctr {{ mutex m; int locked(m) v; }};\n\
         void worker(struct ctr * c) {{ int i;\n\
           for (i = 0; i < {iters}; i = i + 1) {{\n\
             mutex_lock(&c->m); c->v = c->v + 1; mutex_unlock(&c->m); }} }}\n\
         void main() {{ struct ctr * c = new(struct ctr); int t;\n\
           {spawn}\n\
           mutex_lock(&c->m); print(c->v); mutex_unlock(&c->m); }}\n"
    )
}

fn unlocked_counter(iters: u32, spawns: u32, escape: bool) -> String {
    let leak = if escape { "leak = p;" } else { "" };
    let (decl, spawn, total) = if spawns == 2 {
        (
            "int * q; q = new(int);",
            "spawn(worker, p); spawn(worker, q); join_all();",
            "*p + *q",
        )
    } else {
        ("", "t = spawn(worker, p); join(t);", "*p")
    };
    format!(
        "int dynamic * leak;\n\
         void worker(int * d) {{ int i;\n\
           for (i = 0; i < {iters}; i = i + 1) *d = *d + 1; }}\n\
         void main() {{ int * p; int t; p = new(int); {decl} {leak}\n\
           {spawn}\n\
           print({total}); }}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let a = spine_trace(7, 50_000);
        let b = spine_trace(7, 50_000);
        assert_eq!(
            sharc::checker::to_binary(&a.events),
            sharc::checker::to_binary(&b.events)
        );
        assert_eq!(a.races, b.races);
        assert_ne!(a.events, spine_trace(8, 50_000).events);
        assert_eq!(minic_family(7, 12), minic_family(7, 12));
        assert_ne!(minic_family(7, 12), minic_family(8, 12));
    }

    /// Every engine reports exactly the planted granules: SharC over
    /// the whole trace, Eraser and vector clocks over the prefix.
    #[test]
    fn trace_plants_its_races_and_is_five_shards_wide() {
        use sharc::DetectorKind::{Eraser, Sharc, Vc};
        let found = |events: &[E], kind| {
            let (_, conflicts) = sharc::judge_trace(events, kind);
            let mut g: Vec<usize> = conflicts.iter().map(|c| c.granule).collect();
            g.sort_unstable();
            g.dedup();
            g
        };
        for seed in 0..6 {
            let t = spine_trace(seed, 200_000);
            assert!((4..=8).contains(&t.races.len()), "{:?}", t.races);
            let in_prefix = t.planted_within(BASELINE_PREFIX);
            assert!(!in_prefix.is_empty() && in_prefix.len() < t.races.len());
            assert_eq!(sharc::checker::geometry_for_trace(&t.events).shards(), 5);
            assert_eq!(found(&t.events, Sharc), t.planted_within(usize::MAX));
            let prefix = &t.events[..BASELINE_PREFIX];
            assert_eq!(found(prefix, Eraser), in_prefix, "seed {seed}");
            assert_eq!(found(prefix, Vc), in_prefix, "seed {seed}");
        }
    }

    #[test]
    fn family_programs_print_iters_times_spawns() {
        for p in minic_family(3, 6) {
            let checked = sharc::check(&p.name, &p.src).expect("template parses");
            assert!(!checked.diags.has_errors(), "{}", checked.render_diags());
            let out = sharc::run(&checked, sharc::RunConfig::default()).expect("runs");
            assert!(out.is_clean(), "{}: {:?}", p.name, out.reports);
            assert_eq!(out.output, p.expected_output, "{}", p.name);
        }
    }
}
