//! # COLE — Column-based Learned Storage for Blockchain Systems
//!
//! This crate implements the storage engine proposed in *COLE: A Column-based
//! Learned Storage for Blockchain Systems* (FAST 2024). The engine indexes
//! blockchain state by compound keys `⟨addr, blk⟩` so every state's history is
//! stored contiguously ("column-based"), organizes the data as an LSM tree of
//! sorted runs, indexes each run with ε-bounded learned models, and
//! authenticates each run with an m-ary complete Merkle hash tree so it can
//! answer provenance queries with integrity proofs.
//!
//! Two engines are provided:
//!
//! * [`Cole`] — synchronous merges (Algorithm 1); simplest, but a write can
//!   stall while levels are recursively merged,
//! * [`AsyncCole`] — checkpoint-based asynchronous merges (Algorithm 5,
//!   "COLE*" in the paper's evaluation); merges run in background threads and
//!   the state root digest remains deterministic across nodes.
//!
//! Both implement [`cole_primitives::AuthenticatedStorage`], the interface
//! shared with the MPT / LIPP / CMI baselines.
//!
//! # Module map
//!
//! The paper defines its queries once and makes COLE* differ from COLE only
//! in when merges run; the crate is cut the same way:
//!
//! * `read` — the one implementation of `Get` (Algorithm 6) and `ProvQuery`
//!   (Algorithm 8), and of the `root_hash_list` order `Hstate` commits to,
//!   over a borrowed view of memtable groups and runs.
//! * `engine` — [`Engine<S>`]: everything both engines share (open and
//!   recovery, the block lifecycle, the WAL append, snapshots, reclamation,
//!   the `AuthenticatedStorage` impl), generic over a [`MergeStrategy`].
//! * `cole` / `async_cole` — the two strategies: [`Foreground`] (flush and
//!   cascade inside `finalize_block`; `Cole = Engine<Foreground>`) and
//!   [`Background`] (checkpointed merges on threads;
//!   `AsyncCole = Engine<Background>`).
//! * `snapshot` — [`Snapshot`]: an owned, immutable set of the same
//!   components, answering through the same `read` functions.
//! * `run`, `merge`, `memtable`, `manifest`, `proof` — the on-disk run, the
//!   sort-merge, the sharded in-memory level, the durable commit point and
//!   the proof format those are built from.
//!
//! # Examples
//!
//! ```
//! use cole_core::{Cole, ColeConfig};
//! use cole_primitives::{Address, AuthenticatedStorage, StateValue};
//! # fn main() -> cole_primitives::Result<()> {
//! let dir = std::env::temp_dir().join(format!("cole-core-doc-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let mut store = Cole::open(&dir, ColeConfig::default().with_memtable_capacity(64))?;
//!
//! let alice = Address::from_low_u64(1);
//! for block in 1..=10u64 {
//!     store.begin_block(block)?;
//!     store.put(alice, StateValue::from_u64(block * 100))?;
//!     store.finalize_block()?;
//! }
//! let hstate = store.finalize_block()?;
//!
//! assert_eq!(store.get(alice)?, Some(StateValue::from_u64(1000)));
//!
//! // Provenance query over blocks 3..=6, verified against Hstate.
//! let result = store.prov_query(alice, 3, 6)?;
//! assert_eq!(result.values.len(), 4);
//! assert!(store.verify_prov(alice, 3, 6, &result, hstate)?);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_cole;
mod cole;
mod config;
mod engine;
mod failpoint;
mod manifest;
mod memtable;
mod merge;
mod metrics;
mod proof;
mod read;
mod run;
mod snapshot;
pub mod sync;

pub use async_cole::{AsyncCole, Background};
pub use cole::{Cole, Foreground};
pub use cole_storage::{FaultKind, FaultPlan};
pub use config::ColeConfig;
pub use engine::{Engine, MergeStrategy};
pub use failpoint::KillPoints;
pub use manifest::{gc_orphan_runs, Manifest, ManifestState};
pub use memtable::{merge_sorted_entry_lists, ShardedMemtable};
pub use merge::{build_run_from_entries, merge_runs};
pub use metrics::{Metrics, MetricsSnapshot};
pub use proof::{compute_hstate, ColeProof, ComponentProof, RootEntryKind};
pub use run::{Run, RunBuilder, RunContext, RunEntryIter, RunId, RunMeta, RunRangeScan};
pub use snapshot::Snapshot;
