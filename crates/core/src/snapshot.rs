//! Immutable, epoch-versioned read snapshots of a COLE engine.
//!
//! A [`Snapshot`] freezes everything the read path needs at one block
//! boundary: the in-memory level (frozen clones of the MB-tree write heads,
//! plus the sealed merging group of the asynchronous engine), the on-disk
//! runs (shared `Arc`s — runs are immutable files, so sharing is free), and
//! the `(height, Hstate)` head those structures authenticate. Queries
//! against a snapshot are pure `&self` reads over immutable data, so a
//! front-end can serve `get`/`prov_query` from a pinned snapshot without
//! ever taking the engine lock — writers never block readers.
//!
//! Snapshots also make point-in-time *authenticated* queries almost free: a
//! retained snapshot at height `h` answers provenance queries whose proofs
//! verify against exactly the `Hstate` published for `h`, with the same
//! unchanged client-side `VerifyProv`.
//!
//! Superseded runs are retired, not unlinked: a flush/merge commit moves
//! them into the engine's retired list and [`reclaim`](crate::Engine::reclaim)
//! deletes a run's files only once the engine holds the last `Arc` — i.e.
//! after the last snapshot pinning the run dropped. Retired runs never
//! re-enter new snapshots, so "unpinned" is a stable (monotone) condition.
//! A crash between retire and delete leaves orphan files that manifest
//! recovery garbage-collects on reopen, exactly as for the old in-place
//! deletion.

use std::sync::Arc;

use cole_primitives::{Address, Digest, ProvenanceResult, Result, StateValue};

use crate::metrics::Metrics;
use crate::proof::compute_hstate;
use crate::read::{MemGroup, ReadView};
use crate::run::Run;

/// An immutable point-in-time view of one COLE engine, pinned by readers.
///
/// Constructed by [`Cole::snapshot_at`](crate::Cole::snapshot_at) /
/// [`AsyncCole::snapshot_at`](crate::AsyncCole::snapshot_at) at block
/// boundaries and published atomically by a serving front-end. All queries
/// take `&self` and run the same `crate::read` algorithms as the owning
/// engine over the same components in the same order, so proofs are
/// byte-identical to the live engine's and verify against
/// [`hstate`](Snapshot::hstate) with the unchanged verifier.
#[derive(Debug, Clone)]
pub struct Snapshot {
    height: u64,
    hstate: Digest,
    /// Frozen clone of the writing group, with the roots it had when taken.
    writing: MemGroup,
    /// The asynchronous engine's sealed merging group, if one was in
    /// flight (shared, already immutable).
    sealed: Option<MemGroup>,
    /// Every on-disk run, young to old (flattened level order).
    runs: Vec<Arc<Run>>,
    metrics: Arc<Metrics>,
}

impl Snapshot {
    pub(crate) fn new(
        height: u64,
        writing: MemGroup,
        sealed: Option<MemGroup>,
        runs: Vec<Arc<Run>>,
        metrics: Arc<Metrics>,
    ) -> Self {
        let mut snapshot = Snapshot {
            height,
            hstate: Digest::ZERO,
            writing,
            sealed,
            runs,
            metrics,
        };
        let list = snapshot.view().root_hash_list(&snapshot.writing.roots);
        snapshot.hstate = compute_hstate(&list);
        snapshot
    }

    fn view(&self) -> ReadView<'_, std::slice::Iter<'_, Arc<Run>>> {
        ReadView {
            writing: &self.writing.trees,
            sealed: self.sealed.as_slice(),
            runs: self.runs.iter(),
            metrics: &self.metrics,
        }
    }

    /// The block height this snapshot was taken at.
    #[must_use]
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The state root digest every proof from this snapshot verifies
    /// against (recomputed from the frozen structures at construction, so
    /// it matches the engine's published `Hstate` for the same state).
    #[must_use]
    pub fn hstate(&self) -> Digest {
        self.hstate
    }

    /// Latest value of `addr` in this snapshot (Algorithm 6 over the frozen
    /// structures: memtable groups young to old, then runs young to old).
    ///
    /// # Errors
    ///
    /// Returns an error if a run file read fails.
    pub fn get(&self, addr: Address) -> Result<Option<StateValue>> {
        Metrics::inc(&self.metrics.snapshot_reads);
        self.view().get(addr)
    }

    /// Provenance query with integrity proof (Algorithm 8 over the frozen
    /// structures). Component order is identical to the owning engine's
    /// `prov_query` — writing-group shards, sealed-group shards, then every
    /// run young to old — so the proof verifies against
    /// [`hstate`](Snapshot::hstate).
    ///
    /// # Errors
    ///
    /// Returns an error if a run file read fails.
    pub fn prov_query(
        &self,
        addr: Address,
        blk_lower: u64,
        blk_upper: u64,
    ) -> Result<ProvenanceResult> {
        Metrics::inc(&self.metrics.snapshot_reads);
        self.view().prov_query(addr, blk_lower, blk_upper)
    }

    /// Number of on-disk runs pinned by this snapshot.
    #[must_use]
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }
}
