//! # sharc-runtime
//!
//! The SharC runtime substrate for *real* threads (paper §4.2–4.4):
//! shadow memory with the exact n-byte reader/writer bitmap encoding
//! updated by compare-exchange, per-thread held-lock logs, the
//! sharing-cast (`oneref`) protocol, and two reference-counting
//! schemes — naive eager atomic counting and the adapted
//! Levanoni–Petrank on-the-fly algorithm the paper uses to make
//! counting affordable.
//!
//! One [`Arena`] over `u32` thread ids serves every workload: it
//! takes the paper's one-byte shadow while the workload's thread
//! count fits in it (tids `1..=7`) and the sharded exact shadow past
//! that, chosen by [`Arena::for_threads`] from the thread count
//! alone. The [`arena::AccessPolicy`] abstraction lets a workload be
//! compiled twice — baseline and checked — which is how the Table 1
//! overhead numbers are regenerated.
//!
//! ## Example
//!
//! ```
//! use sharc_runtime::arena::{AccessPolicy, Arena, Checked, Unchecked};
//! use sharc_runtime::locks::ThreadCtx;
//! use sharc_runtime::shadow::ThreadId;
//!
//! fn fill<P: AccessPolicy>(a: &Arena, ctx: &mut ThreadCtx) -> u64 {
//!     for i in 0..64 {
//!         P::write(a, ctx, i, i as u64);
//!     }
//!     (0..64).map(|i| P::read(a, ctx, i)).sum()
//! }
//!
//! let arena = Arena::for_threads(64, 1);
//! let mut ctx = ThreadCtx::new(ThreadId(1));
//! assert_eq!(fill::<Unchecked>(&arena, &mut ctx), fill::<Checked>(&arena, &mut ctx));
//! assert_eq!(ctx.conflicts, 0);
//! ```

pub mod arena;
pub mod events;
pub mod locks;
pub mod rc;
pub mod scast;
pub mod shadow;
pub mod sharded;

pub use arena::{AccessPolicy, Arena, CachedChecked, Checked, Unchecked, GRANULE_WORDS};
pub use events::{recording_tid, EventLog, EventSink, StreamStats, StreamingSink};
pub use locks::{LockId, LockNotHeld, LockRegistry, ThreadCtx};
pub use rc::{LpRc, NaiveRc, ObjId, RcScheme};
pub use scast::{sharing_cast, ScastError};
pub use shadow::{RaceError, Shadow, ThreadId};
pub use sharded::{ShardedShadow, MAX_WORDS_PER_GRANULE};

/// [`CachedChecked`] under the name the benchmark harness
/// (`perfbench`) imports for its checked stunnel build.
pub type WideChecked = CachedChecked;
/// [`Unchecked`] under the name the benchmark harness (`perfbench`)
/// imports for its baseline stunnel build.
pub type WideUnchecked = Unchecked;
