//! The MiniC virtual machine with SharC's runtime checking.
//!
//! Executes [`Module`] bytecode with multiple simulated threads,
//! preemptible between instructions under a seeded scheduler, so race
//! exposure is reproducible. Implements the paper's runtime (§4.2):
//!
//! * **Reader/writer sets** per 16-byte granule of memory (2 cells),
//!   updated atomically with each `chkread`/`chkwrite`; the
//!   n-readers-xor-1-writer rule of the formal semantics.
//! * **Held-lock logs** per thread, consulted by `locked(l)` checks.
//! * **Exact reference counts** maintained on every pointer store,
//!   consulted by `oneref` at sharing casts, which also null the
//!   source and clear the object's reader/writer sets.
//! * **Cleanup** on `free` and thread exit (a thread's bits are
//!   cleared when it ends; non-overlapping lifetimes do not race).

use crate::bytecode::*;
use crate::report::{ConflictKind, ConflictReport, Reporter};
use minic::ast::BinOp;
use minic::span::SourceMap;
use sharc_checker::step::{bitmap, Access, Transition};
use sharc_checker::{CheckEvent, EpochTable, OwnedCache};
use sharc_testkit::rng::{Rng, Xoshiro256pp};
use std::collections::{HashMap, HashSet, VecDeque};

/// Maximum simultaneously-live threads (the paper's encoding supports
/// `8n - 1` threads for `n` shadow bytes; a `u64` mask gives us 63).
pub const MAX_THREADS: usize = sharc_checker::MAX_CHECKED_THREADS;

// The VM's simulated threads and the real-thread runtime must agree
// on the bitmap width; both are pinned by the checker core.
const _: () = assert!(MAX_THREADS == 63);

/// Granules per epoch region in the VM (power of two). The VM's heap
/// is small and grows on demand, so a small block keeps point frees
/// local: with the default [`VmConfig::epoch_regions`] = 64 regions
/// the table covers 512 distinct granules (4 KiB of modelled memory
/// at the 16-byte granule) before indices wrap — conservative past
/// that, never unsound.
const VM_GRANULES_PER_REGION: usize = 8;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Uniformly random runnable thread each step (seeded).
    Random,
    /// Round-robin with the given quantum in instructions.
    RoundRobin(u32),
}

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    pub seed: u64,
    pub policy: SchedPolicy,
    /// Abort after this many instructions (live-lock guard).
    pub max_steps: u64,
    /// Stop collecting after this many distinct reports.
    pub max_reports: usize,
    /// Cells per shadow granule; one cell models 8 bytes, so the
    /// default of [`sharc_checker::GRANULE_CELLS`] (= 2) models the
    /// paper's 16-byte granule.
    pub granule: u32,
    /// Halt the whole VM at the first failed check.
    pub stop_on_error: bool,
    /// Record every memory/sync event as a [`CheckEvent`] trace (for
    /// replay by any engine, the §6.2 baselines included).
    pub collect_trace: bool,
    /// Per-thread owned-granule cache mirroring the native runtime's
    /// [`OwnedCache`]: repeated private accesses skip the shadow
    /// transition entirely, guarded by per-region epochs that every
    /// shadow clear (free, sharing cast, thread exit) bumps for the
    /// region(s) actually cleared. Verdicts are identical with the
    /// cache on or off; only the work per check changes (the
    /// `vm_cache` bench group measures the delta).
    pub owned_cache: bool,
    /// Number of epoch regions guarding the owned cache
    /// ([`sharc_checker::EpochTable`]; rounded up to a power of two).
    /// `1` is the degenerate global epoch — every clear flushes every
    /// thread's whole cache, the pre-region behaviour, kept for
    /// differential comparison. Verdicts are identical for any value.
    pub epoch_regions: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            seed: 0x5ac5,
            policy: SchedPolicy::Random,
            max_steps: 200_000_000,
            max_reports: 64,
            granule: sharc_checker::GRANULE_CELLS,
            stop_on_error: false,
            collect_trace: false,
            owned_cache: true,
            epoch_regions: sharc_checker::DEFAULT_REGIONS,
        }
    }
}

/// Why the VM stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitStatus {
    /// All threads ran to completion.
    Completed,
    /// No thread was runnable but some were blocked.
    Deadlock,
    /// The step limit was hit.
    StepLimit,
    /// `stop_on_error` was set and a check failed, or a fatal runtime
    /// error (null dereference, assert) occurred on the main thread.
    Failed(String),
}

/// Counters describing a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmStats {
    pub steps: u64,
    /// Memory cells read or written.
    pub total_accesses: u64,
    /// Cells covered by dynamic-mode checks (the paper's "% dynamic
    /// accesses" numerator).
    pub dynamic_accesses: u64,
    pub lock_checks: u64,
    pub oneref_checks: u64,
    pub allocations: u64,
    pub frees: u64,
    /// Distinct shadow granules ever touched (memory-overhead proxy).
    pub shadow_granules: u64,
    pub threads_spawned: u64,
    pub max_live_threads: usize,
    /// Checked granule-accesses served by the per-thread owned-granule
    /// cache (a subset of `dynamic_accesses`' granule visits).
    pub cache_hits: u64,
    /// Multi-granule checks answered whole by an owned-run summary
    /// (each such hit also adds its span to `cache_hits`).
    pub range_hits: u64,
    /// Check slots the front end statically elided (copied from the
    /// module; these never became instructions, so they cost nothing
    /// per execution).
    pub checks_elided: u64,
    /// Compound-assignment reads collapsed into their write check at
    /// compile time (also from the module).
    pub checks_collapsed: u64,
}

impl VmStats {
    /// Fraction of memory accesses that hit dynamic-mode objects.
    pub fn dynamic_fraction(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.dynamic_accesses as f64 / self.total_accesses as f64
        }
    }
}

/// The result of a run.
#[derive(Debug)]
pub struct RunOutcome {
    pub status: ExitStatus,
    pub reports: Vec<ConflictReport>,
    pub output: Vec<String>,
    pub stats: VmStats,
    /// The event trace, when [`VmConfig::collect_trace`] was set, in
    /// granules of [`VmConfig::granule`] cells.
    pub trace: Vec<CheckEvent>,
    /// On deadlock: one line per stuck thread describing what it is
    /// waiting for.
    pub blocked: Vec<String>,
}

impl RunOutcome {
    /// True if the run completed with no conflict reports.
    pub fn is_clean(&self) -> bool {
        self.status == ExitStatus::Completed && self.reports.is_empty()
    }
}

/// Runs `module` to completion under `config`.
pub fn run(module: &Module, sm: &SourceMap, config: VmConfig) -> RunOutcome {
    Vm::new(module, sm, config).run()
}

// ----- internal machinery -----

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Waiting to acquire a mutex.
    Blocked(Addr),
    /// Waiting on a condition variable (remembering the mutex).
    Waiting(Addr, Addr),
    Joining(u8),
    JoiningAll,
    Done,
    Failed,
}

#[derive(Debug)]
struct Frame {
    fn_idx: u32,
    pc: u32,
    base: u32,
    /// Precomputed slot offsets within the frame.
    ops: Vec<Value>,
}

#[derive(Debug)]
struct Thread {
    id: u8,
    frames: Vec<Frame>,
    status: Status,
    held_locks: Vec<Addr>,
    /// Granules where this thread set shadow bits (cleared at exit).
    access_log: Vec<u32>,
    /// The thread's owned-granule cache (mirrors the native runtime's
    /// per-`ThreadCtx` cache; see [`VmConfig::owned_cache`]).
    owned: OwnedCache,
    /// The latest cache-served access per kind (`[read, write]`,
    /// indexed by `is_write`): a hit skips the granule's `last_*`
    /// bookkeeping, so without this a report after a hot private loop
    /// would name the stale install site. One entry per kind is
    /// enough to fix exactly that case — the hot loop's latest read
    /// (write) *is* the thread's latest read (write) hit.
    last_hit: [Option<LastHit>; 2],
}

/// Compact per-thread record of the most recent cache-served access
/// of one kind (see [`Thread::last_hit`]).
#[derive(Debug, Clone, Copy)]
struct LastHit {
    granule: u32,
    site: u32,
}

/// One shadow granule. `word` is the checker core's reader/writer
/// bitmap ([`bitmap::step`]): bit 0 = writer flag, bit `t` = thread
/// `t` has read (the writer is the thread whose bit accompanies the
/// flag). The `last_*` fields are reporting metadata only — they
/// never influence verdicts.
#[derive(Debug, Default, Clone, Copy)]
struct Granule {
    word: u64,
    last_read: Option<LastAccess>,
    last_write: Option<LastAccess>,
}

#[derive(Debug, Clone, Copy)]
struct LastAccess {
    tid: u8,
    site: u32,
}

#[derive(Debug, Clone, Copy)]
struct Obj {
    base: u32,
    size: u32,
    alive: bool,
}

#[derive(Debug, Default)]
struct MutexState {
    owner: Option<u8>,
    waiters: VecDeque<u8>,
}

struct Vm<'m> {
    module: &'m Module,
    config: VmConfig,
    rng: Xoshiro256pp,
    mem: Vec<Value>,
    obj_of: Vec<u32>, // obj id + 1; 0 = none
    objs: Vec<Obj>,
    rc: Vec<i64>,
    free_objs: Vec<u32>,
    free_blocks: HashMap<u32, Vec<u32>>,
    shadow: Vec<Granule>,
    /// Per-region clear epochs (the native runtime's exact
    /// invalidation rule): a shadow clear bumps only the region(s) it
    /// touches, and stale per-thread cache entries of those regions
    /// fail their tag compare on the next lookup. The VM's granule
    /// space grows on demand, so the table wraps granule indices
    /// modulo its region count — conservative, never unsound.
    shadow_epochs: EpochTable,
    touched_granules: HashSet<u32>,
    threads: Vec<Thread>,
    free_tids: Vec<u8>,
    next_tid: u8,
    mutexes: HashMap<Addr, MutexState>,
    cond_waiters: HashMap<Addr, VecDeque<u8>>,
    /// Per-function slot offsets (prefix sums of slot sizes).
    slot_offsets: Vec<Vec<u32>>,
    frame_sizes: Vec<u32>,
    global_addrs: Vec<u32>,
    string_addrs: Vec<u32>,
    reporter: Reporter<'m>,
    output: Vec<String>,
    stats: VmStats,
    current: usize,
    quantum_left: u32,
    trace: Vec<CheckEvent>,
    blocked: Vec<String>,
}

impl<'m> Vm<'m> {
    fn new(module: &'m Module, sm: &'m SourceMap, config: VmConfig) -> Self {
        let slot_offsets: Vec<Vec<u32>> = module
            .fns
            .iter()
            .map(|f| {
                let mut offs = Vec::with_capacity(f.slot_sizes.len());
                let mut o = 0u32;
                for &s in &f.slot_sizes {
                    offs.push(o);
                    o += s;
                }
                offs
            })
            .collect();
        let frame_sizes = module
            .fns
            .iter()
            .map(|f| f.slot_sizes.iter().sum::<u32>().max(1))
            .collect();
        let max_reports = config.max_reports;
        let shadow_epochs = EpochTable::new(config.epoch_regions, VM_GRANULES_PER_REGION);
        let mut vm = Vm {
            module,
            rng: Xoshiro256pp::seed_from_u64(config.seed),
            config,
            mem: vec![Value::ZERO], // cell 0 = null
            obj_of: vec![0],
            objs: Vec::new(),
            rc: Vec::new(),
            free_objs: Vec::new(),
            free_blocks: HashMap::new(),
            shadow: Vec::new(),
            shadow_epochs,
            touched_granules: HashSet::new(),
            threads: Vec::new(),
            free_tids: Vec::new(),
            next_tid: 1,
            mutexes: HashMap::new(),
            cond_waiters: HashMap::new(),
            slot_offsets,
            frame_sizes,
            global_addrs: Vec::new(),
            string_addrs: Vec::new(),
            reporter: Reporter::new(sm, &module.sites, max_reports),
            output: Vec::new(),
            stats: VmStats {
                checks_elided: module.elision.elided,
                checks_collapsed: module.elision.collapsed,
                ..VmStats::default()
            },
            current: 0,
            quantum_left: 0,
            trace: Vec::new(),
            blocked: Vec::new(),
        };
        // Globals.
        for (gi, &size) in module.global_sizes.iter().enumerate() {
            let base = vm.alloc_raw(size);
            for (i, v) in module.global_inits[gi].iter().enumerate() {
                vm.mem[base as usize + i] = *v;
            }
            vm.global_addrs.push(base);
        }
        // Strings.
        for s in &module.strings {
            let base = vm.alloc_raw(s.len() as u32);
            for (i, &b) in s.iter().enumerate() {
                vm.mem[base as usize + i] = Value::Int(b as i64);
            }
            vm.string_addrs.push(base);
        }
        vm
    }

    fn global_addr(&self, gi: u32) -> u32 {
        self.global_addrs[gi as usize]
    }

    // ----- memory -----

    fn alloc_raw(&mut self, size: u32) -> u32 {
        // SharC "ensures that malloc allocates objects on a 16-byte
        // boundary" (§4.5): allocations are granule-aligned and
        // granule-padded so distinct objects never share a granule.
        let gran = self.config.granule;
        let size = size.max(1).next_multiple_of(gran);
        let base = if let Some(list) = self.free_blocks.get_mut(&size) {
            list.pop()
        } else {
            None
        };
        let base = match base {
            Some(b) => b,
            None => {
                let aligned = (self.mem.len() as u32).next_multiple_of(gran);
                self.mem.resize(aligned as usize, Value::ZERO);
                self.obj_of.resize(self.mem.len(), 0);
                let b = self.mem.len() as u32;
                self.mem.resize(self.mem.len() + size as usize, Value::ZERO);
                self.obj_of.resize(self.mem.len(), 0);
                b
            }
        };
        for c in base..base + size {
            self.mem[c as usize] = Value::ZERO;
        }
        let obj = match self.free_objs.pop() {
            Some(o) => {
                self.objs[o as usize] = Obj {
                    base,
                    size,
                    alive: true,
                };
                self.rc[o as usize] = 0;
                o
            }
            None => {
                self.objs.push(Obj {
                    base,
                    size,
                    alive: true,
                });
                self.rc.push(0);
                (self.objs.len() - 1) as u32
            }
        };
        for c in base..base + size {
            self.obj_of[c as usize] = obj + 1;
        }
        self.stats.allocations += 1;
        base
    }

    /// Allocates a frame region registering each slot as its own
    /// object (so `oneref` treats distinct locals separately).
    fn alloc_frame(&mut self, fn_idx: u32) -> u32 {
        let total = self.frame_sizes[fn_idx as usize].next_multiple_of(self.config.granule);
        let base = self.alloc_raw(total);
        // Re-partition the single object into per-slot objects;
        // padding cells (granule rounding) belong to no object.
        let whole = self.obj_of[base as usize] - 1;
        let whole_size = self.objs[whole as usize].size;
        self.kill_obj_entry(whole);
        for c in base..base + whole_size {
            self.obj_of[c as usize] = 0;
        }
        let sizes = self.module.fns[fn_idx as usize].slot_sizes.clone();
        let mut off = 0u32;
        for s in sizes {
            let b = base + off;
            let obj = match self.free_objs.pop() {
                Some(o) => {
                    self.objs[o as usize] = Obj {
                        base: b,
                        size: s,
                        alive: true,
                    };
                    self.rc[o as usize] = 0;
                    o
                }
                None => {
                    self.objs.push(Obj {
                        base: b,
                        size: s,
                        alive: true,
                    });
                    self.rc.push(0);
                    (self.objs.len() - 1) as u32
                }
            };
            for c in b..b + s {
                self.obj_of[c as usize] = obj + 1;
            }
            off += s;
        }
        base
    }

    fn kill_obj_entry(&mut self, obj: u32) {
        self.objs[obj as usize].alive = false;
        self.free_objs.push(obj);
    }

    fn rc_adjust(&mut self, v: Value, delta: i64) {
        if let Value::Ptr(a) = v {
            if a.is_null() || a.0 as usize >= self.obj_of.len() {
                return;
            }
            let o = self.obj_of[a.0 as usize];
            if o != 0 {
                self.rc[(o - 1) as usize] += delta;
            }
        }
    }

    fn write_cell(&mut self, addr: u32, v: Value) {
        let old = self.mem[addr as usize];
        self.rc_adjust(old, -1);
        self.rc_adjust(v, 1);
        self.mem[addr as usize] = v;
    }

    /// Releases an object's cells: decrement refs held in them, clear
    /// shadow state, recycle the block.
    fn release_region(&mut self, base: u32, size: u32) {
        for c in base..base + size {
            let old = self.mem[c as usize];
            self.rc_adjust(old, -1);
            self.mem[c as usize] = Value::ZERO;
            self.obj_of[c as usize] = 0;
        }
        let g0 = base / self.config.granule;
        let g1 = (base + size - 1) / self.config.granule;
        for g in g0..=g1 {
            if (g as usize) < self.shadow.len() {
                self.shadow[g as usize] = Granule::default();
            }
        }
        // Bump only the region(s) covering the freed object: every
        // other region's cached entries stay live.
        self.shadow_epochs
            .bump_granule_range(g0 as usize, g1 as usize + 1);
        self.free_blocks.entry(size).or_default().push(base);
    }

    // ----- shadow -----

    fn granule_mut(&mut self, g: u32) -> &mut Granule {
        if g as usize >= self.shadow.len() {
            self.shadow.resize(g as usize + 1, Granule::default());
        }
        if self.touched_granules.insert(g) {
            self.stats.shadow_granules += 1;
        }
        &mut self.shadow[g as usize]
    }

    /// The shared check-and-record over the unified transition
    /// function: conflicts are reported and — exactly like the real
    /// runtime and the reference backend — do *not* modify the
    /// shadow word, so all three engines agree on every verdict.
    fn chk_access(&mut self, tid: u8, addr: u32, size: u32, site: u32, access: Access) {
        self.stats.dynamic_accesses += size as u64;
        let gran = self.config.granule;
        let g0 = addr / gran;
        let g1 = (addr + size - 1) / gran;
        let is_write = matches!(access, Access::Write);
        // Ranged fast path: a bulk op (struct copy, checked library
        // sweep) spans several granules, and a single owned-run probe
        // can answer the whole sweep.  The stamp is the wrapping sum
        // of the covered region epochs, read *before* any transition
        // below so a summary can never be newer than the epochs
        // guarding it; any clear in the range bumps a covered epoch
        // and fails the compare.
        let span = (g1 - g0 + 1) as usize;
        let run_stamp = if self.config.owned_cache && span > 1 {
            let stamp = self
                .shadow_epochs
                .epoch_sum_of_range(g0 as usize, g1 as usize + 1);
            if self.threads[self.current]
                .owned
                .lookup_run(stamp, g0 as usize, span, is_write)
            {
                self.stats.cache_hits += span as u64;
                self.stats.range_hits += 1;
                self.threads[self.current].last_hit[is_write as usize] =
                    Some(LastHit { granule: g1, site });
                return;
            }
            Some(stamp)
        } else {
            None
        };
        let mut clean = true;
        for gi in g0..=g1 {
            // Owned-granule fast path: a cache hit proves this thread
            // already holds the exact ownership the access needs
            // (read bit for reads, exclusive writer state for
            // writes), so the transition would be `Unchanged` — skip
            // it. Every shadow clear bumps the epoch of the region(s)
            // it touches; entries tagged with an older region epoch
            // fail their compare on the next lookup, while entries
            // for unaffected regions keep answering.
            // Read the region epoch *before* the transition below, so
            // an entry can never be newer than the epoch guarding it.
            let region_epoch = self.shadow_epochs.epoch_of(gi as usize);
            if self.config.owned_cache
                && self.threads[self.current]
                    .owned
                    .lookup(region_epoch, gi as usize, is_write)
            {
                self.stats.cache_hits += 1;
                // The granule's `last_*` bookkeeping is skipped on
                // hits; remember the site per thread so a later
                // conflict report can still name the true latest
                // access (see `Thread::last_hit`).
                self.threads[self.current].last_hit[is_write as usize] =
                    Some(LastHit { granule: gi, site });
                continue;
            }
            let (t, last) = {
                let g = self.granule_mut(gi);
                // Report another thread's access as the "last" one
                // (offending writer first on write conflicts),
                // remembering which kind of record it came from.
                let last = match access {
                    Access::Read => g.last_write.filter(|l| l.tid != tid).map(|l| (l, true)),
                    Access::Write => g
                        .last_write
                        .filter(|l| l.tid != tid)
                        .map(|l| (l, true))
                        .or(g.last_read.filter(|l| l.tid != tid).map(|l| (l, false))),
                };
                (bitmap::step(g.word, tid as u32, access), last)
            };
            // If the reported thread's latest touch of this granule
            // was served by its cache, the granule metadata is stale:
            // the per-thread last-hit record is newer by construction
            // (hits happen only after the recorded install).
            let last = last.map(|(l, was_write)| {
                let newer = self.threads.iter().rev().find_map(|th| {
                    (th.id == l.tid)
                        .then_some(th.last_hit[was_write as usize])
                        .flatten()
                        .filter(|h| h.granule == gi)
                });
                match newer {
                    Some(h) => LastAccess {
                        tid: l.tid,
                        site: h.site,
                    },
                    None => l,
                }
            });
            match t {
                Transition::Conflict => {
                    let kind = match access {
                        Access::Read => ConflictKind::Read,
                        Access::Write => ConflictKind::Write,
                    };
                    self.conflict(kind, Addr(gi * gran), tid, site, last);
                    clean = false;
                }
                Transition::Install(new) => {
                    let g = self.granule_mut(gi);
                    g.word = new;
                    match access {
                        Access::Read => g.last_read = Some(LastAccess { tid, site }),
                        Access::Write => g.last_write = Some(LastAccess { tid, site }),
                    }
                    self.threads[self.current].access_log.push(gi);
                    if self.config.owned_cache {
                        self.threads[self.current].owned.insert(
                            gi as usize,
                            is_write,
                            region_epoch,
                        );
                    }
                }
                Transition::Unchanged => {
                    let g = self.granule_mut(gi);
                    match access {
                        Access::Read => g.last_read = Some(LastAccess { tid, site }),
                        Access::Write => g.last_write = Some(LastAccess { tid, site }),
                    }
                    if self.config.owned_cache {
                        self.threads[self.current].owned.insert(
                            gi as usize,
                            is_write,
                            region_epoch,
                        );
                    }
                }
            }
        }
        // A clean multi-granule sweep becomes one owned-run summary:
        // the next identical bulk op is a single stamp compare.  A
        // sweep that reported a conflict is never summarized — a run
        // entry cannot remember a conflicting granule.
        if clean {
            if let Some(stamp) = run_stamp {
                self.threads[self.current]
                    .owned
                    .insert_run(g0 as usize, span, is_write, stamp);
            }
        }
    }

    fn chk_read(&mut self, tid: u8, addr: u32, size: u32, site: u32) {
        self.chk_access(tid, addr, size, site, Access::Read);
    }

    fn chk_write(&mut self, tid: u8, addr: u32, size: u32, site: u32) {
        self.chk_access(tid, addr, size, site, Access::Write);
    }

    fn conflict(
        &mut self,
        kind: ConflictKind,
        addr: Addr,
        tid: u8,
        site: u32,
        last: Option<LastAccess>,
    ) {
        self.reporter
            .conflict(kind, addr, tid, site, last.map(|l| (l.tid, l.site)));
    }

    // ----- threads -----

    fn spawn_thread(&mut self, fn_idx: u32, arg: Value) -> Option<u8> {
        let tid = match self.free_tids.pop() {
            Some(t) => t,
            None => {
                if (self.next_tid as usize) > MAX_THREADS {
                    return None;
                }
                let t = self.next_tid;
                self.next_tid += 1;
                t
            }
        };
        let base = self.alloc_frame(fn_idx);
        let fc = &self.module.fns[fn_idx as usize];
        if fc.n_params >= 1 {
            self.write_cell(base + self.slot_offsets[fn_idx as usize][0], arg);
        }
        let th = Thread {
            id: tid,
            frames: vec![Frame {
                fn_idx,
                pc: 0,
                base,
                ops: Vec::new(),
            }],
            status: Status::Runnable,
            held_locks: Vec::new(),
            access_log: Vec::new(),
            owned: OwnedCache::new(),
            last_hit: [None; 2],
        };
        self.threads.push(th);
        self.stats.threads_spawned += 1;
        let live = self
            .threads
            .iter()
            .filter(|t| !matches!(t.status, Status::Done | Status::Failed))
            .count();
        self.stats.max_live_threads = self.stats.max_live_threads.max(live);
        Some(tid)
    }

    fn thread_exit(&mut self, idx: usize, failed: bool) {
        let tid = self.threads[idx].id;
        // Clear this thread's shadow bits: non-overlapping thread
        // lifetimes do not constitute races.
        let log = std::mem::take(&mut self.threads[idx].access_log);
        // Bump each region the exiting thread actually touched, once.
        let mut bumped: HashSet<usize> = HashSet::new();
        for &g in &log {
            if bumped.insert(self.shadow_epochs.region_of(g as usize)) {
                self.shadow_epochs.bump(g as usize);
            }
        }
        for g in log {
            if (g as usize) < self.shadow.len() {
                let w = &mut self.shadow[g as usize].word;
                *w = bitmap::clear_thread(*w, tid as u32);
            }
        }
        self.emit(|_| CheckEvent::ThreadExit { tid: tid as u32 });
        self.threads[idx].status = if failed { Status::Failed } else { Status::Done };
        self.free_tids.push(tid);
        // Wake joiners.
        for t in &mut self.threads {
            match t.status {
                Status::Joining(j) if j == tid => t.status = Status::Runnable,
                _ => {}
            }
        }
        self.refresh_join_all();
    }

    fn refresh_join_all(&mut self) {
        let all_others_done: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::JoiningAll)
            .map(|(i, _)| i)
            .collect();
        for i in all_others_done {
            let others_running = self
                .threads
                .iter()
                .enumerate()
                .any(|(j, t)| j != i && !matches!(t.status, Status::Done | Status::Failed));
            if !others_running {
                self.threads[i].status = Status::Runnable;
            }
        }
    }

    // ----- main loop -----

    fn run(mut self) -> RunOutcome {
        let main_base = self.alloc_frame(self.module.entry);
        self.threads.push(Thread {
            id: {
                let t = self.next_tid;
                self.next_tid += 1;
                t
            },
            frames: vec![Frame {
                fn_idx: self.module.entry,
                pc: 0,
                base: main_base,
                ops: Vec::new(),
            }],
            status: Status::Runnable,
            held_locks: Vec::new(),
            access_log: Vec::new(),
            owned: OwnedCache::new(),
            last_hit: [None; 2],
        });
        self.stats.max_live_threads = 1;

        let status = loop {
            if self.stats.steps >= self.config.max_steps {
                break ExitStatus::StepLimit;
            }
            // Pick a runnable thread.
            let runnable: Vec<usize> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == Status::Runnable)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                let stuck: Vec<String> = self
                    .threads
                    .iter()
                    .filter_map(|t| match t.status {
                        Status::Blocked(a) => {
                            Some(format!("thread {} blocked acquiring mutex {a}", t.id))
                        }
                        Status::Waiting(c, _) => {
                            Some(format!("thread {} waiting on condition {c}", t.id))
                        }
                        Status::Joining(j) => Some(format!("thread {} joining thread {j}", t.id)),
                        Status::JoiningAll => Some(format!("thread {} in join_all", t.id)),
                        _ => None,
                    })
                    .collect();
                break if stuck.is_empty() {
                    ExitStatus::Completed
                } else {
                    self.blocked = stuck;
                    ExitStatus::Deadlock
                };
            }
            self.current = match self.config.policy {
                SchedPolicy::Random => runnable[self.rng.gen_range(0..runnable.len())],
                SchedPolicy::RoundRobin(q) => {
                    if self.quantum_left == 0
                        || self.threads[self.current].status != Status::Runnable
                    {
                        self.quantum_left = q;
                        *runnable
                            .iter()
                            .find(|&&i| i > self.current)
                            .unwrap_or(&runnable[0])
                    } else {
                        self.quantum_left -= 1;
                        self.current
                    }
                }
            };
            self.stats.steps += 1;
            if let Err(fatal) = self.step() {
                let idx = self.current;
                self.thread_exit(idx, true);
                if self.config.stop_on_error || idx == 0 {
                    // Thread index 0 is main.
                }
                if self.config.stop_on_error {
                    break ExitStatus::Failed(fatal);
                }
            }
            if self.config.stop_on_error && !self.reporter.is_empty() {
                break ExitStatus::Failed("sharing-strategy violation".into());
            }
        };

        RunOutcome {
            status,
            reports: self.reporter.into_reports(),
            output: self.output,
            stats: self.stats,
            trace: self.trace,
            blocked: self.blocked,
        }
    }

    /// Records the event `make` builds when
    /// [`VmConfig::collect_trace`] is on. `make` receives the granule
    /// size in cells and runs only then, so an untraced run never
    /// pays for building the event.
    #[inline]
    fn emit(&mut self, make: impl FnOnce(u32) -> CheckEvent) {
        if self.config.collect_trace {
            let e = make(self.config.granule);
            self.trace.push(e);
        }
    }

    fn frame(&mut self) -> &mut Frame {
        self.threads[self.current]
            .frames
            .last_mut()
            .expect("running thread has a frame")
    }

    fn push(&mut self, v: Value) {
        self.frame().ops.push(v);
    }

    fn pop(&mut self) -> Value {
        self.frame().ops.pop().expect("operand stack underflow")
    }

    fn peek(&mut self) -> Value {
        *self.frame().ops.last().expect("operand stack underflow")
    }

    fn pop_addr(&mut self, what: &str) -> Result<Addr, String> {
        match self.pop() {
            Value::Ptr(a) if !a.is_null() => Ok(a),
            Value::Ptr(_) => Err(format!("null pointer dereference in {what}")),
            other => Err(format!(
                "bogus pointer (integer {} used as address) in {what}",
                other.as_int()
            )),
        }
    }

    /// Executes one instruction of the current thread. `Err` kills the
    /// thread with the message.
    fn step(&mut self) -> Result<(), String> {
        let fidx = self.frame().fn_idx;
        let pc = self.frame().pc;
        let insn = self.module.fns[fidx as usize].code[pc as usize].clone();
        self.frame().pc += 1;
        let tid = self.threads[self.current].id;
        match insn {
            Insn::PushInt(v) => self.push(Value::Int(v)),
            Insn::PushNull => self.push(Value::Ptr(Addr::NULL)),
            Insn::PushFn(f) => self.push(Value::Fn(f)),
            Insn::Dup => {
                let v = self.peek();
                self.push(v);
            }
            Insn::Pop => {
                self.pop();
            }
            Insn::Swap => {
                let a = self.pop();
                let b = self.pop();
                self.push(a);
                self.push(b);
            }
            Insn::LocalAddr(slot) => {
                let base = self.frame().base;
                let off = self.slot_offsets[fidx as usize][slot as usize];
                self.push(Value::Ptr(Addr(base + off)));
            }
            Insn::GlobalAddr(gi) => {
                let a = self.global_addr(gi);
                self.push(Value::Ptr(Addr(a)));
            }
            Insn::StrAddr(si) => {
                let a = self.string_addrs[si as usize];
                self.push(Value::Ptr(Addr(a)));
            }
            Insn::IndexAddr(scale) => {
                let idx = self.pop().as_int();
                let base = self.pop();
                match base {
                    Value::Ptr(a) => {
                        let target = a.0 as i64 + idx * scale as i64;
                        if target < 0 || target as usize >= self.mem.len() + 4096 {
                            return Err("pointer arithmetic out of range".into());
                        }
                        self.push(Value::Ptr(Addr(target as u32)));
                    }
                    other => {
                        // Bogus pointer arithmetic: stay an integer.
                        self.push(Value::Int(other.as_int() + idx * scale as i64));
                    }
                }
            }
            Insn::ConstOffset(off) => {
                let base = self.pop();
                match base {
                    Value::Ptr(a) if !a.is_null() => self.push(Value::Ptr(Addr(a.0 + off))),
                    Value::Ptr(_) => return Err("null pointer field access".into()),
                    other => self.push(Value::Int(other.as_int() + off as i64)),
                }
            }
            Insn::Load => {
                let a = self.pop_addr("load")?;
                if a.0 as usize >= self.mem.len() {
                    return Err("load out of bounds".into());
                }
                self.stats.total_accesses += 1;
                self.emit(|gran| CheckEvent::Read {
                    tid: tid as u32,
                    granule: (a.0 / gran) as usize,
                });
                let v = self.mem[a.0 as usize];
                self.push(v);
            }
            Insn::Store => {
                let v = self.pop();
                let a = self.pop_addr("store")?;
                if a.0 as usize >= self.mem.len() {
                    return Err("store out of bounds".into());
                }
                self.stats.total_accesses += 1;
                self.emit(|gran| CheckEvent::Write {
                    tid: tid as u32,
                    granule: (a.0 / gran) as usize,
                });
                self.write_cell(a.0, v);
            }
            Insn::CopyN(n) => {
                let src = self.pop_addr("struct copy source")?;
                let dst = self.pop_addr("struct copy destination")?;
                if (src.0 + n) as usize > self.mem.len() || (dst.0 + n) as usize > self.mem.len() {
                    return Err("struct copy out of bounds".into());
                }
                self.stats.total_accesses += 2 * n as u64;
                for i in 0..n {
                    // The bulk move is visible to trace-based
                    // detectors cell by cell (ranges are a checker
                    // optimization, not a semantic change), exactly
                    // like the Load/Store pair it replaces.
                    self.emit(|gran| CheckEvent::Read {
                        tid: tid as u32,
                        granule: ((src.0 + i) / gran) as usize,
                    });
                    self.emit(|gran| CheckEvent::Write {
                        tid: tid as u32,
                        granule: ((dst.0 + i) / gran) as usize,
                    });
                    let v = self.mem[(src.0 + i) as usize];
                    self.write_cell(dst.0 + i, v);
                }
            }
            Insn::Binop(op) => {
                let b = self.pop();
                let a = self.pop();
                self.push(eval_binop(op, a, b)?);
            }
            Insn::Neg => {
                let v = self.pop().as_int();
                self.push(Value::Int(-v));
            }
            Insn::Not => {
                let v = self.pop();
                self.push(Value::Int(!v.is_truthy() as i64));
            }
            Insn::BitNot => {
                let v = self.pop().as_int();
                self.push(Value::Int(!v));
            }
            Insn::Jump(t) => self.frame().pc = t,
            Insn::JumpIfZero(t) => {
                let v = self.pop();
                if !v.is_truthy() {
                    self.frame().pc = t;
                }
            }
            Insn::JumpIfNonZero(t) => {
                let v = self.pop();
                if v.is_truthy() {
                    self.frame().pc = t;
                }
            }
            Insn::Call(f, nargs) => self.do_call(f, nargs)?,
            Insn::CallIndirect(nargs) => {
                // Callee sits under the args.
                let ops = &mut self.frame().ops;
                let idx = ops.len() - nargs as usize - 1;
                let callee = ops.remove(idx);
                match callee {
                    Value::Fn(f) => self.do_call(f, nargs)?,
                    _ => return Err("indirect call through non-function value".into()),
                }
            }
            Insn::Ret(has_val) => {
                let rv = if has_val { self.pop() } else { Value::ZERO };
                let frame = self.threads[self.current]
                    .frames
                    .pop()
                    .expect("ret with a frame");
                let size =
                    self.frame_sizes[frame.fn_idx as usize].next_multiple_of(self.config.granule);
                // Kill the per-slot objects, then release the region.
                let mut c = frame.base;
                while c < frame.base + size {
                    let o = self.obj_of[c as usize];
                    if o != 0 {
                        let obj = self.objs[(o - 1) as usize];
                        self.kill_obj_entry(o - 1);
                        c = (obj.base + obj.size).max(c + 1);
                    } else {
                        c += 1;
                    }
                }
                self.release_region(frame.base, size);
                if self.threads[self.current].frames.is_empty() {
                    let idx = self.current;
                    self.thread_exit(idx, false);
                } else {
                    self.push(rv);
                }
            }
            Insn::Spawn => {
                let arg = self.pop();
                let f = self.pop();
                let Value::Fn(fi) = f else {
                    return Err("spawn of non-function".into());
                };
                match self.spawn_thread(fi, arg) {
                    Some(t) => {
                        self.emit(|_| CheckEvent::Fork {
                            parent: tid as u32,
                            child: t as u32,
                        });
                        self.push(Value::Int(t as i64));
                    }
                    None => return Err(format!("thread limit ({MAX_THREADS}) exceeded")),
                }
            }
            Insn::Join => {
                let t = self.pop().as_int() as u8;
                self.emit(|_| CheckEvent::Join {
                    parent: tid as u32,
                    child: t as u32,
                });
                let done = self
                    .threads
                    .iter()
                    .all(|th| th.id != t || matches!(th.status, Status::Done | Status::Failed));
                if !done {
                    self.threads[self.current].status = Status::Joining(t);
                }
            }
            Insn::JoinAll => {
                let me = self.current;
                let others_running =
                    self.threads.iter().enumerate().any(|(j, t)| {
                        j != me && !matches!(t.status, Status::Done | Status::Failed)
                    });
                if others_running {
                    self.threads[me].status = Status::JoiningAll;
                }
            }
            Insn::MutexLock => {
                let a = self.pop_addr("mutex_lock")?;
                let m = self.mutexes.entry(a).or_default();
                match m.owner {
                    None => {
                        m.owner = Some(tid);
                        self.threads[self.current].held_locks.push(a);
                        self.emit(|_| CheckEvent::Acquire {
                            tid: tid as u32,
                            lock: a.0 as usize,
                        });
                    }
                    Some(o) if o == tid => {
                        return Err("recursive lock of a non-recursive mutex".into())
                    }
                    Some(_) => {
                        m.waiters.push_back(tid);
                        self.threads[self.current].status = Status::Blocked(a);
                    }
                }
            }
            Insn::MutexUnlock => {
                let a = self.pop_addr("mutex_unlock")?;
                self.emit(|_| CheckEvent::Release {
                    tid: tid as u32,
                    lock: a.0 as usize,
                });
                self.unlock(a, tid)?;
            }
            Insn::CondWait => {
                let ma = self.pop_addr("cond_wait mutex")?;
                let ca = self.pop_addr("cond_wait cond")?;
                let holds = self.threads[self.current].held_locks.contains(&ma);
                if !holds {
                    return Err("cond_wait without holding the mutex".into());
                }
                self.emit(|_| CheckEvent::Release {
                    tid: tid as u32,
                    lock: ma.0 as usize,
                });
                self.unlock(ma, tid)?;
                self.cond_waiters.entry(ca).or_default().push_back(tid);
                self.threads[self.current].status = Status::Waiting(ca, ma);
            }
            Insn::CondSignal => {
                let ca = self.pop_addr("cond_signal")?;
                if let Some(q) = self.cond_waiters.get_mut(&ca) {
                    if let Some(w) = q.pop_front() {
                        self.wake_from_cond(w);
                    }
                }
            }
            Insn::CondBroadcast => {
                let ca = self.pop_addr("cond_broadcast")?;
                let waiters: Vec<u8> = self
                    .cond_waiters
                    .get_mut(&ca)
                    .map(|q| q.drain(..).collect())
                    .unwrap_or_default();
                for w in waiters {
                    self.wake_from_cond(w);
                }
            }
            Insn::YieldNow => {
                self.quantum_left = 0;
            }
            Insn::New(size) => {
                let b = self.alloc_raw(size);
                if self.config.collect_trace {
                    let (g0, len) = granule_span(b, size, self.config.granule);
                    self.trace
                        .extend((g0..g0 + len).map(|granule| CheckEvent::Alloc { granule }));
                }
                self.push(Value::Ptr(Addr(b)));
            }
            Insn::NewArray(esize) => {
                let n = self.pop().as_int();
                if n < 0 || n as u64 * esize as u64 > 64 * 1024 * 1024 {
                    return Err(format!("newarray with invalid count {n}"));
                }
                let b = self.alloc_raw((n as u32 * esize).max(1));
                self.push(Value::Ptr(Addr(b)));
            }
            Insn::Free => {
                let a = self.pop_addr("free")?;
                let o = self.obj_of[a.0 as usize];
                if o == 0 {
                    return Err("free of non-allocated memory".into());
                }
                let obj = self.objs[(o - 1) as usize];
                if obj.base != a.0 {
                    return Err("free of interior pointer".into());
                }
                self.kill_obj_entry(o - 1);
                // One ranged free for the whole block.
                self.emit(|gran| {
                    let (granule, len) = granule_span(obj.base, obj.size, gran);
                    CheckEvent::RangeFree { granule, len }
                });
                self.release_region(obj.base, obj.size);
                self.stats.frees += 1;
            }
            Insn::Print => {
                let v = self.pop();
                self.output.push(v.as_int().to_string());
            }
            Insn::PrintStr => {
                let a = self.pop_addr("print_str")?;
                let mut s = String::new();
                let mut c = a.0 as usize;
                while c < self.mem.len() {
                    let b = self.mem[c].as_int();
                    if b == 0 {
                        break;
                    }
                    s.push(b as u8 as char);
                    c += 1;
                }
                self.output.push(s);
            }
            Insn::PrintStrChecked { site } => {
                // The §4.4 read summary: the library reads the string,
                // so every cell read updates the reader set.
                let a = self.pop_addr("print_str")?;
                let mut s = String::new();
                let mut c = a.0 as usize;
                while c < self.mem.len() {
                    self.chk_read(tid, c as u32, 1, site);
                    self.stats.total_accesses += 1;
                    let b = self.mem[c].as_int();
                    if b == 0 {
                        break;
                    }
                    s.push(b as u8 as char);
                    c += 1;
                }
                self.output.push(s);
            }
            Insn::Assert => {
                let v = self.pop();
                if !v.is_truthy() {
                    return Err("assertion failed".into());
                }
            }
            Insn::Random => {
                let n = self.pop().as_int();
                let v = if n > 0 { self.rng.gen_range(0..n) } else { 0 };
                self.push(Value::Int(v));
            }
            Insn::ChkRead { site, size } => {
                if let Value::Ptr(a) = self.peek() {
                    if !a.is_null() {
                        self.chk_read(tid, a.0, size, site);
                    }
                }
            }
            Insn::ChkWrite { site, size } => {
                if let Value::Ptr(a) = self.peek() {
                    if !a.is_null() {
                        self.chk_write(tid, a.0, size, site);
                    }
                }
            }
            Insn::ChkLockHeld { site } => {
                self.stats.lock_checks += 1;
                let lock = self.pop();
                let held = match lock {
                    Value::Ptr(a) => self.threads[self.current].held_locks.contains(&a),
                    _ => false,
                };
                if !held {
                    let addr = match lock {
                        Value::Ptr(a) => a,
                        _ => Addr::NULL,
                    };
                    self.reporter.lock_violation(addr, tid, site);
                }
            }
            Insn::OneRef { site } => {
                self.stats.oneref_checks += 1;
                if let Value::Ptr(a) = self.peek() {
                    if !a.is_null() && (a.0 as usize) < self.obj_of.len() {
                        let o = self.obj_of[a.0 as usize];
                        if o != 0 {
                            let count = self.rc[(o - 1) as usize];
                            let obj = self.objs[(o - 1) as usize];
                            // One ranged cast: the whole referent hands
                            // off as one operation, as the VM performs it.
                            self.emit(|gran| {
                                let (granule, len) = granule_span(obj.base, obj.size, gran);
                                CheckEvent::RangeCast {
                                    tid: tid as u32,
                                    granule,
                                    len,
                                    refs: (count + 1) as u64,
                                }
                            });
                            if count > 0 {
                                self.reporter.oneref_violation(a, tid, site, count + 1);
                            } else {
                                // The cast succeeds: the object changes
                                // mode, so past accesses no longer
                                // constitute sharing.
                                let g0 = obj.base / self.config.granule;
                                let g1 = (obj.base + obj.size - 1) / self.config.granule;
                                for g in g0..=g1 {
                                    if (g as usize) < self.shadow.len() {
                                        self.shadow[g as usize] = Granule::default();
                                    }
                                }
                                self.shadow_epochs
                                    .bump_granule_range(g0 as usize, g1 as usize + 1);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn do_call(&mut self, f: u32, nargs: u8) -> Result<(), String> {
        if self.threads[self.current].frames.len() > 512 {
            return Err("call stack overflow".into());
        }
        let base = self.alloc_frame(f);
        // Pop args (right to left) into slots.
        for i in (0..nargs).rev() {
            let v = self.pop();
            let off = self.slot_offsets[f as usize][i as usize];
            self.write_cell(base + off, v);
        }
        self.threads[self.current].frames.push(Frame {
            fn_idx: f,
            pc: 0,
            base,
            ops: Vec::new(),
        });
        Ok(())
    }

    fn unlock(&mut self, a: Addr, tid: u8) -> Result<(), String> {
        let m = self.mutexes.entry(a).or_default();
        if m.owner != Some(tid) {
            return Err("unlock of a mutex not held by this thread".into());
        }
        let held = &mut self.threads[self.current].held_locks;
        if let Some(p) = held.iter().position(|&l| l == a) {
            held.remove(p);
        }
        let m = self.mutexes.get_mut(&a).expect("mutex exists");
        if let Some(w) = m.waiters.pop_front() {
            m.owner = Some(w);
            if let Some(wi) = self.threads.iter().position(|t| t.id == w) {
                self.threads[wi].status = Status::Runnable;
                self.threads[wi].held_locks.push(a);
                self.emit(|_| CheckEvent::Acquire {
                    tid: w as u32,
                    lock: a.0 as usize,
                });
            }
        } else {
            m.owner = None;
        }
        Ok(())
    }

    /// A signalled waiter must reacquire its mutex before running.
    fn wake_from_cond(&mut self, w: u8) {
        let Some(wi) = self.threads.iter().position(|t| t.id == w) else {
            return;
        };
        let Status::Waiting(_, ma) = self.threads[wi].status else {
            return;
        };
        let m = self.mutexes.entry(ma).or_default();
        match m.owner {
            None => {
                m.owner = Some(w);
                self.threads[wi].status = Status::Runnable;
                self.threads[wi].held_locks.push(ma);
                self.emit(|_| CheckEvent::Acquire {
                    tid: w as u32,
                    lock: ma.0 as usize,
                });
            }
            Some(_) => {
                m.waiters.push_back(w);
                self.threads[wi].status = Status::Blocked(ma);
            }
        }
    }
}

/// The granules `[addr, addr + size)` covers at `gran` cells per
/// granule, as `(first, count)`; an empty block still covers the
/// granule of `addr`.
fn granule_span(addr: u32, size: u32, gran: u32) -> (usize, usize) {
    let g0 = addr / gran;
    let g1 = (addr + size.max(1) - 1) / gran;
    (g0 as usize, (g1 - g0 + 1) as usize)
}

fn eval_binop(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use BinOp::*;
    let (x, y) = (a.as_int(), b.as_int());
    let v = match op {
        Add => {
            // Pointer-preserving addition is handled by IndexAddr; a
            // plain Add on a pointer is a bogus-pointer computation.
            Value::Int(x.wrapping_add(y))
        }
        Sub => Value::Int(x.wrapping_sub(y)),
        Mul => Value::Int(x.wrapping_mul(y)),
        Div => {
            if y == 0 {
                return Err("division by zero".into());
            }
            Value::Int(x.wrapping_div(y))
        }
        Rem => {
            if y == 0 {
                return Err("remainder by zero".into());
            }
            Value::Int(x.wrapping_rem(y))
        }
        BitAnd => Value::Int(x & y),
        BitOr => Value::Int(x | y),
        BitXor => Value::Int(x ^ y),
        Shl => Value::Int(x.wrapping_shl(y as u32 & 63)),
        Shr => Value::Int(x.wrapping_shr(y as u32 & 63)),
        Eq => Value::Int((values_equal(a, b)) as i64),
        Ne => Value::Int((!values_equal(a, b)) as i64),
        Lt => Value::Int((x < y) as i64),
        Le => Value::Int((x <= y) as i64),
        Gt => Value::Int((x > y) as i64),
        Ge => Value::Int((x >= y) as i64),
        And | Or => unreachable!("short-circuit ops are compiled to jumps"),
    };
    Ok(v)
}

fn values_equal(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Ptr(x), Value::Ptr(y)) => x == y,
        (Value::Fn(x), Value::Fn(y)) => x == y,
        // NULL compares equal to integer 0 and vice versa.
        _ => a.as_int() == b.as_int(),
    }
}
