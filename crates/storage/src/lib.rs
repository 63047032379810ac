//! Disk-storage substrates for the COLE reproduction.
//!
//! Two families of abstractions live here:
//!
//! * **Page-oriented files** ([`PageFile`], [`PageWriter`]) — COLE's value,
//!   index and Merkle files are plain files accessed in 4 KiB pages (§3.2,
//!   §4). A [`PageFile`] supports appending pages, positioned reads and
//!   positioned overwrites (needed by the streaming Merkle-file construction
//!   of Algorithm 4, which writes each MHT layer at a precomputed offset).
//!
//! * **A shared page cache** ([`PageCache`]) — a sharded, capacity-bounded
//!   cache of file pages with clock eviction, shared via `Arc` by all runs
//!   of an engine so concurrent readers serve hot pages without I/O. All
//!   `PageFile` reads use positioned I/O (`pread`-style), so `&self` reads
//!   are safe from many threads at once.
//!
//! * **Recoverable fault injection** ([`FaultPlan`]) — a per-site registry
//!   of transient failures (I/O errors, `ENOSPC`, short reads, failed
//!   fsyncs) that the page, WAL and manifest layers consult, powering the
//!   chaos harness's graceful-degradation proofs.
//!
//! * **A write-ahead log** ([`WriteAheadLog`]) — block-boundary, framed and
//!   checksummed, with torn-tail repair on open. The COLE engines use it to
//!   make the unflushed memtable survive a crash; [`WalSyncPolicy`] states
//!   the fsync semantics.
//!
//! * **A simulated RocksDB** ([`KvStore`], [`MemKvStore`], [`FileKvStore`]) —
//!   the paper's baselines (MPT, LIPP, CMI) persist their index nodes in
//!   RocksDB (§8.1.2). [`FileKvStore`] is a small LSM-flavoured key–value
//!   store (memtable + sorted segment files) that plays that role without an
//!   external dependency, while exposing the storage-size counters the
//!   experiments need.
//!
//! # Examples
//!
//! ```
//! use cole_storage::{FileKvStore, KvStore};
//! # fn main() -> cole_primitives::Result<()> {
//! let dir = std::env::temp_dir().join(format!("cole-kv-doc-{}", std::process::id()));
//! let mut kv = FileKvStore::open(&dir, 1024 * 1024)?;
//! kv.put(b"key".to_vec(), b"value".to_vec())?;
//! assert_eq!(kv.get(b"key")?, Some(b"value".to_vec()));
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod fault;
mod kv;
#[cfg(all(lock_order, not(loom)))]
pub mod lock_order;
mod page;
pub mod sync;
mod util;
mod wal;

pub use cache::{next_file_id, FileId, PageCache, PageIoStats};
pub use fault::{FaultKind, FaultPlan};
pub use kv::{FileKvStore, KvStore, MemKvStore};
pub use page::{PageFile, PageWriter, SortedRecords};
pub use sync::{lock_recover, read_recover, write_recover};
pub use util::{dir_size, sync_dir, write_durable};
pub use wal::{replay_wal, WalBlock, WalIoCounters, WalSyncPolicy, WriteAheadLog};
