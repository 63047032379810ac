//! The engine core shared by [`Cole`](crate::Cole) and
//! [`AsyncCole`](crate::AsyncCole).
//!
//! The paper makes COLE* differ from COLE *only* in when merges run (§5,
//! Algorithm 5), and so does the code: [`Engine<S>`] owns everything both
//! engines do the same way — opening and recovery, the block lifecycle, the
//! WAL append, snapshots, queries (through [`crate::read`]), deferred run
//! reclamation — and hands the one thing that varies, what happens when the
//! memtable fills up, to its [`MergeStrategy`] `S`.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cole_primitives::{
    Address, AuthenticatedStorage, ColeError, CompoundKey, Digest, ProvenanceResult, Result,
    StateValue, StorageStats,
};
use cole_storage::{FaultPlan, PageCache, WriteAheadLog};

use crate::config::ColeConfig;
use crate::failpoint::KillPoints;
use crate::manifest::{self, Manifest, ManifestState};
use crate::memtable::ShardedMemtable;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::proof::{compute_hstate, ColeProof, RootEntryKind};
use crate::read::{MemGroup, ReadView};
use crate::run::{Run, RunContext, RunId};
use crate::snapshot::Snapshot;

/// Once an all-empty-records WAL exceeds this size, it is reset instead of
/// growing further (bounds an idle chain's log at ~2.7k empty-block
/// records).
const IDLE_WAL_RESET_BYTES: u64 = 64 * 1024;

/// When merges run — the only thing [`Cole`](crate::Cole) and
/// [`AsyncCole`](crate::AsyncCole) do differently. Implemented by
/// [`Foreground`](crate::Foreground) (Algorithm 1: flush and cascade inside
/// `finalize_block`) and [`Background`](crate::Background) (Algorithm 5:
/// checkpointed merges on background threads); the engine is chosen by type
/// name, there is no runtime switch.
///
/// Both strategies keep the same contract towards the core. **Crash
/// safety:** run files are fully built and fsynced before a manifest commit
/// references them, and superseded runs are retired only after the manifest
/// that drops them is durable. **Recoverable in place:** every step before
/// a manifest commit works on scratch copies, so a step that fails — a
/// transient I/O error, `ENOSPC`, a failed background build — returns `Err`
/// with the engine fully usable, and calling `finalize_block` again resumes
/// where it stopped. A failed build is retried under a fresh run id, never
/// dropped.
pub trait MergeStrategy: fmt::Debug + Default + Send + 'static {
    /// The engine name [`AuthenticatedStorage::name`] reports.
    const NAME: &'static str;

    /// The kill point crossed after each retired run's files are deleted.
    const RUN_DELETED: &'static str;

    /// Called at every block boundary, after the block is WAL-durable:
    /// flushes the memtable if it is `memtable_full` and merges whatever
    /// that makes due.
    ///
    /// # Errors
    ///
    /// Returns an error if a build or a commit failed; the call is
    /// retryable.
    fn on_block_boundary(&mut self, core: &mut EngineCore, memtable_full: bool) -> Result<()>;

    /// Waits for and commits all work the strategy still has in flight.
    ///
    /// # Errors
    ///
    /// Returns an error if a build or a commit failed; the call is
    /// retryable.
    fn settle(&mut self, core: &mut EngineCore) -> Result<()>;
}

/// One on-disk level (Figure 7): a *writing* group that accepts committed
/// runs from the level above and a *merging* group whose runs a background
/// thread is merging into the next level. Both groups are live — searched,
/// listed in the manifest and committed to by `Hstate`, writing first,
/// newest run first — until the commit checkpoint that replaces the merging
/// group by its merged run. Under [`Foreground`](crate::Foreground) a merge
/// completes inside the call that starts it, so `merging` is always empty.
#[derive(Debug, Default, Clone)]
pub struct Level {
    pub(crate) writing: Vec<Arc<Run>>,
    pub(crate) merging: Vec<Arc<Run>>,
}

impl Level {
    /// The level's live runs in search (and manifest) order.
    fn runs(&self) -> impl Iterator<Item = &Arc<Run>> {
        self.writing.iter().chain(&self.merging)
    }
}

/// The writing group of the level at 0-based `index`, creating empty levels
/// up to it.
pub(crate) fn writing_group(levels: &mut Vec<Level>, index: usize) -> &mut Vec<Arc<Run>> {
    if levels.len() <= index {
        levels.resize_with(index + 1, Level::default);
    }
    &mut levels[index].writing
}

/// Pages written to build `run`'s value file (the `pages_written` metric).
pub(crate) fn data_pages(run: &Run) -> u64 {
    run.data_bytes().div_ceil(cole_primitives::PAGE_SIZE as u64)
}

/// The state of an engine, as a [`MergeStrategy`] sees it.
#[derive(Debug)]
pub struct EngineCore {
    pub(crate) dir: PathBuf,
    pub(crate) config: ColeConfig,
    /// The in-memory level's writing group:
    /// [`ColeConfig::memtable_shards`] write heads (one MB-tree at the
    /// default of 1 — identical to the paper's level 0).
    pub(crate) mem: ShardedMemtable,
    /// The in-memory level's merging group: a sealed memtable a background
    /// flush is writing out. Immutable, but visible to queries and part of
    /// `Hstate` until the flush commits.
    pub(crate) sealed: Option<MemGroup>,
    /// `levels[0]` is on-disk level 1.
    pub(crate) levels: Vec<Level>,
    pub(crate) current_block: u64,
    /// Height through which every finalized block is durable in
    /// manifest-committed runs (WAL records at or below it are stale on
    /// recovery).
    pub(crate) flushed_block: u64,
    next_run_id: RunId,
    /// Cache + metrics shared with every run of this engine (including the
    /// runs built by background threads).
    pub(crate) ctx: RunContext,
    /// Durable commit point of the write path (`MANIFEST-NNNNNN` chain).
    manifest: Manifest,
    /// Active WAL segment; `None` when `config.wal_enabled` is off.
    pub(crate) wal: Option<WriteAheadLog>,
    /// Sequence number of the next WAL segment to create.
    wal_seq: u64,
    /// Entries `put` since the last `finalize_block`, in insertion order
    /// (the WAL record of the block being built).
    wal_block_buf: Vec<(CompoundKey, StateValue)>,
    /// Runs dropped from the committed structure but possibly still pinned
    /// by published [`Snapshot`]s; [`reclaim`](Self::reclaim) deletes their
    /// files once the engine holds the last `Arc`.
    pub(crate) retired: Vec<Arc<Run>>,
}

impl EngineCore {
    /// Recovers the on-disk levels from the committed manifest state,
    /// garbage-collects orphan runs, and replays the WAL (if enabled).
    ///
    /// Every recovered run reopens into its level's writing group: a merge
    /// that was in flight at a crash is simply redone when the level next
    /// fills, which preserves `root_hash_list` order and therefore
    /// `Hstate`.
    ///
    /// `current_block` resumes at the durably *flushed* height advanced by
    /// every recovered WAL record — not at the manifest's last recorded
    /// height, which may lie past the durable data (`flush` and the commit
    /// checkpoints record heights whose blocks still live in memtables).
    /// Keeping the height at the durable boundary lets the caller replay its
    /// external transaction log from `current_block + 1` exactly as §4.3
    /// prescribes.
    fn recover(&mut self, state: Option<ManifestState>, label: &str) -> Result<()> {
        if let Some(state) = &state {
            self.current_block = state.flushed_block;
            self.flushed_block = state.flushed_block;
            self.next_run_id = state.next_run;
            self.levels = manifest::open_levels(&self.dir, state, &self.ctx)?
                .into_iter()
                .map(|writing| Level {
                    writing,
                    merging: Vec::new(),
                })
                .collect();
        }
        let live = state.map(|s| s.live_runs()).unwrap_or_default();
        manifest::gc_and_log(&self.dir, label, &live, &self.ctx.metrics)?;
        if self.config.wal_enabled {
            let mem = &mut self.mem;
            let (mut wal, next_seq) = manifest::recover_wal(
                &self.dir,
                self.config.wal_sync_policy,
                self.flushed_block,
                &mut self.current_block,
                |key, value| mem.insert(key, value),
            )?;
            self.instrument_wal(&mut wal);
            self.wal = Some(wal);
            self.wal_seq = next_seq;
        }
        Ok(())
    }

    /// Attaches the engine's IO counters and fault plan to a WAL segment.
    fn instrument_wal(&self, wal: &mut WriteAheadLog) {
        wal.attach_io_counters(Arc::clone(&self.ctx.metrics.wal_io));
        if let Some(faults) = &self.ctx.faults {
            wal.attach_faults(Arc::clone(faults));
        }
    }

    /// Creates the next numbered (empty) WAL segment.
    pub(crate) fn create_wal_segment(&mut self) -> Result<WriteAheadLog> {
        let path = self.dir.join(format!("wal-{:06}.log", self.wal_seq));
        self.wal_seq += 1;
        let (mut wal, replayed) = WriteAheadLog::open(path, self.config.wal_sync_policy)?;
        debug_assert!(replayed.is_empty(), "fresh segments start empty");
        self.instrument_wal(&mut wal);
        Ok(wal)
    }

    /// A run id no earlier build used — not even a failed one, so a retried
    /// build can never collide with the orphan files of the attempt before.
    pub(crate) fn alloc_run_id(&mut self) -> RunId {
        let id = self.next_run_id;
        self.next_run_id += 1;
        id
    }

    /// Every live run, young to old.
    fn runs(&self) -> impl Iterator<Item = &Arc<Run>> {
        self.levels.iter().flat_map(Level::runs)
    }

    /// What a query searches right now.
    fn view(&self) -> ReadView<'_, impl Iterator<Item = &Arc<Run>>> {
        ReadView {
            writing: self.mem.shards(),
            sealed: self.sealed.as_slice(),
            runs: self.runs(),
            metrics: &self.ctx.metrics,
        }
    }

    /// The durable state a manifest commit of `levels` would record. A
    /// level's entry is its writing group followed by its merging group —
    /// exactly the runs that are live until the next commit checkpoint.
    fn manifest_state(&self, levels: &[Level], flushed_block: u64) -> ManifestState {
        ManifestState {
            block: self.current_block,
            flushed_block,
            next_run: self.next_run_id,
            levels: levels
                .iter()
                .map(|level| level.runs().map(|r| r.id()).collect())
                .collect(),
        }
    }

    /// The commit point of a flush or merge: durably records `levels` — a
    /// scratch copy holding the new runs and lacking the superseded ones —
    /// with everything through `flushed_block` in runs, and only then
    /// publishes both as the engine's state (see [`Manifest::commit`] for
    /// the crash-atomicity protocol). On `Err` nothing changed.
    pub(crate) fn commit_levels(&mut self, levels: Vec<Level>, flushed_block: u64) -> Result<()> {
        let state = self.manifest_state(&levels, flushed_block);
        self.manifest.commit(&state)?;
        self.levels = levels;
        self.flushed_block = flushed_block;
        Ok(())
    }

    /// Deletes the files of every retired run whose last external pin
    /// dropped (the engine's `Arc` in `retired` is the only one left),
    /// keeping the rest for a later pass. Each deletion crosses
    /// `kill_label` so the crash tests cover the deferred retire step; a
    /// failure keeps the current and all remaining runs queued —
    /// [`Run::delete_files`] is idempotent and manifest recovery
    /// garbage-collects any leftovers as orphans.
    pub(crate) fn reclaim(&mut self, kill_label: &str) -> Result<()> {
        let pending = std::mem::take(&mut self.retired);
        for (i, run) in pending.iter().enumerate() {
            if Arc::strong_count(run) > 1 {
                self.retired.push(Arc::clone(run));
                continue;
            }
            if let Err(e) = run.delete_files().and_then(|()| self.ctx.kill(kill_label)) {
                self.retired.extend(pending[i..].iter().cloned());
                return Err(e);
            }
            Metrics::inc(&self.ctx.metrics.retired_runs_deleted);
        }
        Ok(())
    }
}

/// A COLE storage engine: an in-memory MB-tree level over an LSM tree of
/// learned-index, Merkle-authenticated sorted runs, merging by strategy `S`.
/// Use it through the aliases [`Cole`](crate::Cole) (synchronous merges) and
/// [`AsyncCole`](crate::AsyncCole) (checkpointed background merges).
///
/// Writes go to the in-memory level; at a block boundary where it has
/// reached its capacity `B` it is flushed to level 1 as a sorted run, and
/// full levels are sort-merged into the next level. Reads search the levels
/// young to old (Algorithm 6); provenance queries additionally return a
/// proof verifiable against the state root digest (Algorithm 8).
///
/// The query surface ([`get`](AuthenticatedStorage::get),
/// [`prov_query`](AuthenticatedStorage::prov_query)) takes `&self`: all run
/// reads use positioned I/O through a shared [`PageCache`] and all counters
/// are atomics, so an engine behind an `Arc` serves many reader threads
/// concurrently (writes still require `&mut self`).
///
/// See the crate-level documentation for a usage example.
#[derive(Debug)]
pub struct Engine<S: MergeStrategy> {
    core: EngineCore,
    strategy: S,
}

impl<S: MergeStrategy> Engine<S> {
    /// Opens (or creates) an engine rooted at `dir`.
    ///
    /// If a committed manifest from a previous instance exists in `dir`, the
    /// on-disk levels are recovered from it and any run files it does not
    /// reference (orphans of a crashed flush/merge, or superseded runs whose
    /// deletion crashed) are garbage-collected. With
    /// [`wal_enabled`](ColeConfig::wal_enabled), the write-ahead log is then
    /// replayed so the unflushed memtable survives too; without it, the
    /// in-memory level starts empty, as after the crash recovery described
    /// in §4.3 — the caller replays any transactions since the last
    /// checkpoint. Either engine opens a directory the other one wrote.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, the manifest is
    /// corrupt ([`ColeError::InvalidEncoding`]), a referenced run is missing
    /// ([`ColeError::NotFound`]), or files cannot be accessed.
    pub fn open<P: AsRef<Path>>(dir: P, config: ColeConfig) -> Result<Self> {
        Self::open_instrumented(dir, config, None, None)
    }

    /// [`open`](Self::open) with a crash-injection hook threaded through
    /// every write-path step, including background flush/merge threads
    /// (used by the kill-point crash tests; see [`KillPoints`]).
    ///
    /// # Errors
    ///
    /// As for [`open`](Self::open).
    pub fn open_with_kill_points<P: AsRef<Path>>(
        dir: P,
        config: ColeConfig,
        kill_points: Option<Arc<KillPoints>>,
    ) -> Result<Self> {
        Self::open_instrumented(dir, config, kill_points, None)
    }

    /// [`open`](Self::open) with a recoverable-fault plan attached to every
    /// layer of the engine's storage: run-file page reads, WAL
    /// appends/fsyncs and manifest commits all consult it (used by the
    /// chaos harness; see [`FaultPlan`]). Unlike kill points, an injected
    /// fault is *recoverable*: the failed call returns `Err` with the
    /// engine's in-memory and on-disk state intact, and the same call
    /// succeeds once the fault clears.
    ///
    /// # Errors
    ///
    /// As for [`open`](Self::open).
    pub fn open_with_faults<P: AsRef<Path>>(
        dir: P,
        config: ColeConfig,
        faults: Arc<FaultPlan>,
    ) -> Result<Self> {
        Self::open_instrumented(dir, config, None, Some(faults))
    }

    fn open_instrumented<P: AsRef<Path>>(
        dir: P,
        config: ColeConfig,
        kill_points: Option<Arc<KillPoints>>,
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<Self> {
        config.validate()?;
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut ctx = RunContext::from_config(&config);
        if let Some(kp) = &kill_points {
            ctx = ctx.with_kill_points(Arc::clone(kp));
        }
        if let Some(faults) = &faults {
            ctx = ctx.with_faults(Arc::clone(faults));
        }
        let (mut manifest, state) = Manifest::open(&dir, kill_points)?;
        if let Some(faults) = faults {
            manifest.attach_faults(faults);
        }
        let mut core = EngineCore {
            dir,
            config,
            mem: ShardedMemtable::new(config.memtable_shards, config.mbtree_fanout),
            sealed: None,
            levels: Vec::new(),
            current_block: 0,
            flushed_block: 0,
            next_run_id: 0,
            ctx,
            manifest,
            wal: None,
            wal_seq: 1,
            wal_block_buf: Vec::new(),
            retired: Vec::new(),
        };
        core.recover(state, S::NAME)?;
        Ok(Engine {
            core,
            strategy: S::default(),
        })
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &ColeConfig {
        &self.core.config
    }

    /// A point-in-time copy of the operation counters accumulated so far,
    /// including the page cache's hit/miss counts.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.ctx.metrics_snapshot()
    }

    /// The live counters behind [`metrics`](Self::metrics), shared with
    /// every run of this engine (including background merge threads). A
    /// serving front-end holds this handle to account wire requests
    /// (`requests_served` and the per-op counters) into the same snapshot
    /// that reports the IO they cause.
    #[must_use]
    pub fn metrics_handle(&self) -> Arc<Metrics> {
        Arc::clone(&self.core.ctx.metrics)
    }

    /// The page cache shared by this engine's runs, if caching is enabled.
    #[must_use]
    pub fn page_cache(&self) -> Option<&Arc<PageCache>> {
        self.core.ctx.cache.as_ref()
    }

    /// Number of on-disk levels currently in use.
    #[must_use]
    pub fn num_disk_levels(&self) -> usize {
        self.core.levels.len()
    }

    /// Number of live runs in on-disk level `level` (1-based).
    #[must_use]
    pub fn runs_in_level(&self, level: usize) -> usize {
        self.core
            .levels
            .get(level.wrapping_sub(1))
            .map_or(0, |l| l.runs().count())
    }

    /// Number of key–value pairs currently buffered in the in-memory
    /// level's writing group.
    #[must_use]
    pub fn memtable_len(&self) -> usize {
        self.core.mem.len()
    }

    /// The state root digest over the current contents (equivalent to what
    /// [`AuthenticatedStorage::finalize_block`] returns, without closing a
    /// block).
    pub fn state_root(&mut self) -> Digest {
        compute_hstate(&self.root_hash_list())
    }

    /// The ordered `root_hash_list` (§3.2): one root per in-memory write
    /// head (computed in parallel when sharded; exactly the single MB-tree
    /// root at `memtable_shards = 1`), the same for a sealed memtable group
    /// in flight, then every run's commitment — each level's writing group
    /// before its merging group — young to old.
    pub fn root_hash_list(&mut self) -> Vec<(RootEntryKind, Digest)> {
        let roots = self.core.mem.root_hashes();
        self.core.view().root_hash_list(&roots)
    }

    /// Joins every outstanding background merge and commits its result, so
    /// that all data is reflected in the committed structure, then persists
    /// a final manifest recording the current block height (the
    /// synchronous engine has nothing in flight and only persists the
    /// manifest). Idempotent; this is what
    /// [`flush`](AuthenticatedStorage::flush) does.
    ///
    /// # Errors
    ///
    /// Returns an error if a background merge or the manifest commit
    /// failed; the call is retryable.
    pub fn wait_for_merges(&mut self) -> Result<()> {
        self.strategy.settle(&mut self.core)?;
        let state = self
            .core
            .manifest_state(&self.core.levels, self.core.flushed_block);
        self.core.manifest.commit(&state)
    }

    /// Deletes the files of every retired run no snapshot pins any more.
    /// Called automatically at flush/merge commits; a serving front-end
    /// also calls it per applied block so runs unpinned by snapshot
    /// eviction are reclaimed promptly.
    ///
    /// # Errors
    ///
    /// Returns an error if a file deletion fails; the remaining runs stay
    /// queued and the next call (or orphan GC on reopen) retries.
    pub fn reclaim(&mut self) -> Result<()> {
        self.core.reclaim(S::RUN_DELETED)
    }

    /// Number of retired runs whose deletion is still deferred (pinned by
    /// at least one published snapshot, or awaiting a reclaim retry).
    #[must_use]
    pub fn retired_runs(&self) -> usize {
        self.core.retired.len()
    }

    /// An immutable point-in-time snapshot of the current state, stamped
    /// with `height`: a frozen clone of the memtable write heads, a shared
    /// handle to the sealed memtable group if one is in flight, and shared
    /// handles to every live on-disk run. Queries against it are lock-free
    /// and its proofs verify against [`Snapshot::hstate`], which equals the
    /// engine's current state root. The caller supplies the height so a
    /// front-end can republish a recomputed snapshot at an unchanged
    /// published height after a failed block.
    pub fn snapshot_at(&mut self, height: u64) -> Snapshot {
        let core = &mut self.core;
        let roots = core.mem.root_hashes();
        Snapshot::new(
            height,
            MemGroup::new(core.mem.shards().to_vec(), roots),
            core.sealed.clone(),
            core.runs().cloned().collect(),
            Arc::clone(&core.ctx.metrics),
        )
    }

    /// [`snapshot_at`](Self::snapshot_at) stamped with the current block
    /// height.
    pub fn snapshot(&mut self) -> Snapshot {
        self.snapshot_at(self.core.current_block)
    }

    /// Inserts a whole batch of updates for the current block, partitioning
    /// them across the memtable write heads and inserting each shard's
    /// share on its own thread (with [`ColeConfig::memtable_shards`]` > 1`;
    /// a single-shard engine inserts inline).
    ///
    /// Semantically identical to calling
    /// [`put`](AuthenticatedStorage::put) once per entry in slice order —
    /// same memtable contents, same WAL record, same `Hstate` — but the
    /// insertion work scales with cores. Blockchain blocks arrive as
    /// batches of transaction writes, so this is the natural ingest shape.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying storage fails.
    pub fn put_batch(&mut self, entries: &[(Address, StateValue)]) -> Result<()> {
        let core = &mut self.core;
        let block = core.current_block;
        let keyed: Vec<(CompoundKey, StateValue)> = entries
            .iter()
            .map(|(addr, value)| (CompoundKey::new(*addr, block), *value))
            .collect();
        if core.wal.is_some() {
            core.wal_block_buf.extend_from_slice(&keyed);
        }
        core.mem.insert_batch(&keyed);
        Ok(())
    }
}

impl<S: MergeStrategy> AuthenticatedStorage for Engine<S> {
    fn put(&mut self, addr: Address, value: StateValue) -> Result<()> {
        let core = &mut self.core;
        let key = CompoundKey::new(addr, core.current_block);
        if core.wal.is_some() {
            core.wal_block_buf.push((key, value));
        }
        core.mem.insert(key, value);
        Ok(())
    }

    fn get(&self, addr: Address) -> Result<Option<StateValue>> {
        self.core.view().get(addr)
    }

    fn prov_query(
        &self,
        addr: Address,
        blk_lower: u64,
        blk_upper: u64,
    ) -> Result<ProvenanceResult> {
        self.core.view().prov_query(addr, blk_lower, blk_upper)
    }

    fn verify_prov(
        &self,
        addr: Address,
        blk_lower: u64,
        blk_upper: u64,
        result: &ProvenanceResult,
        hstate: Digest,
    ) -> Result<bool> {
        let proof = ColeProof::from_bytes(&result.proof)?;
        proof.verify(addr, blk_lower, blk_upper, &result.values, hstate)
    }

    fn begin_block(&mut self, height: u64) -> Result<()> {
        let current = self.core.current_block;
        if height <= current && current != 0 {
            return Err(ColeError::InvalidState(format!(
                "block height {height} does not advance the chain (current {current})"
            )));
        }
        self.core.current_block = height;
        Ok(())
    }

    fn finalize_block(&mut self) -> Result<Digest> {
        let core = &mut self.core;
        // The block's entries become WAL-recoverable before any flush or
        // checkpoint work, so a crash at any later point in this call
        // cannot lose them. An empty block still gets a record so the
        // recovered chain height never regresses past finalized heights.
        // When the writing memtable is empty the active log holds no live
        // data (a sealed group's records rotated out with the seal), so
        // once it passes a size threshold it is reset to keep an idle chain
        // from growing it without bound (a crash exactly between the rare
        // reset and the following append can regress the recovered height
        // across empty blocks only — never past data).
        if let Some(wal) = &mut core.wal {
            if core.mem.is_empty() && wal.len_bytes() > IDLE_WAL_RESET_BYTES {
                wal.truncate()?;
            }
            wal.append_block(core.current_block, &core.wal_block_buf)?;
            Metrics::inc(&core.ctx.metrics.wal_appends);
            core.wal_block_buf.clear();
        }
        // Capacity is checked here and only here, at a block boundary: a
        // compound key ⟨addr, blk⟩ must never be split across two runs, and
        // within a block all updates of one address coalesce in the
        // MB-tree. It also puts every flush and every commit checkpoint at
        // a block boundary, which keeps `Hstate` deterministic across nodes.
        let memtable_full = core.mem.len() >= core.config.memtable_capacity;
        self.strategy.on_block_boundary(core, memtable_full)?;
        Ok(self.state_root())
    }

    fn current_block_height(&self) -> u64 {
        self.core.current_block
    }

    fn storage_stats(&self) -> Result<StorageStats> {
        let core = &self.core;
        let mut stats = StorageStats {
            memory_bytes: core.mem.memory_bytes()
                + core
                    .sealed
                    .iter()
                    .flat_map(|group| group.trees.iter())
                    .map(|tree| tree.memory_bytes())
                    .sum::<u64>(),
            ..StorageStats::default()
        };
        for run in core.runs() {
            stats.data_bytes += run.data_bytes();
            stats.index_bytes += run.index_bytes();
        }
        Ok(stats)
    }

    fn name(&self) -> &'static str {
        S::NAME
    }

    fn flush(&mut self) -> Result<()> {
        self.wait_for_merges()
    }
}
