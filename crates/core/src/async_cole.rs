//! COLE with the checkpoint-based asynchronous merge (§5, Algorithm 5):
//! merges run on background threads.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

use cole_mbtree::MbTree;
use cole_primitives::{ColeError, Result};

use crate::engine::{data_pages, writing_group, Engine, EngineCore, MergeStrategy};
use crate::manifest::remove_wal_file;
use crate::memtable::merge_sorted_entry_lists;
use crate::merge::{build_run_from_entries, merge_runs};
use crate::metrics::Metrics;
use crate::read::MemGroup;
use crate::run::Run;

/// The COLE engine with checkpoint-based asynchronous merges (COLE* in the
/// paper's evaluation).
///
/// Every level holds a *writing* and a *merging* group. When a writing group
/// fills up, the engine (1) waits for — and commits — the level's previous
/// background merge, (2) swaps the two groups, and (3) starts a new
/// background merge on the now-full group. Because `root_hash_list` is only
/// updated at these commit checkpoints (never from inside the merge threads),
/// the state root digest `Hstate` stays deterministic across blockchain nodes
/// regardless of how long individual merges take (§5, soundness analysis).
pub type AsyncCole = Engine<Background>;

/// A run being built off the caller's thread.
type Build = JoinHandle<Result<Run>>;

/// Merges in the background: a sealed memtable group and one merging group
/// per level are built into runs by threads and committed at block-boundary
/// checkpoints; the WAL rotates to a fresh segment with every seal.
///
/// A sealed or merging group stays live — searched, in `Hstate`, in the
/// manifest, covered by its WAL segments — until a run built from it is
/// committed. If its build fails the error surfaces at the checkpoint that
/// joins it, the group simply has no thread any more, and the next
/// checkpoint rebuilds it under a fresh run id: retried, never dropped.
#[derive(Debug, Default)]
pub struct Background {
    /// The thread flushing `core.sealed`.
    flush_thread: Option<Build>,
    /// Per level (0-based), the thread merging its merging group.
    merge_threads: Vec<Option<Build>>,
    /// Height covered by the sealed memtable; becomes `flushed_block` when
    /// its flush commits.
    sealed_through: u64,
    /// WAL segments covering the sealed memtable, deleted after the commit
    /// checkpoint that makes that data durable in a run. (Segments found at
    /// open are compacted into the fresh active segment and deleted
    /// immediately, so only seal-time rotation feeds this.)
    wal_retired: Vec<PathBuf>,
    /// The level (1-based) a cascade has reached; `Some` between the seal
    /// that starts it and the first level that is not full, so a cascade
    /// interrupted by a failed step resumes there on the retried call.
    cascade_at: Option<usize>,
}

impl MergeStrategy for Background {
    const NAME: &'static str = "COLE*";
    const RUN_DELETED: &'static str = "async-merge:run_deleted";

    /// Handles full writing groups from level 0 upwards (Algorithm 5 lines
    /// 5–21).
    fn on_block_boundary(&mut self, core: &mut EngineCore, memtable_full: bool) -> Result<()> {
        if memtable_full {
            // Commit checkpoint of level 0 (wait for the previous flush,
            // publish its run, drop the old merging group), then switch
            // roles and start flushing the sealed group in the background.
            self.commit_level0(core)?;
            self.seal_and_start_flush(core)?;
            self.cascade_at = Some(1);
        }
        while let Some(level) = self.cascade_at {
            let full = core
                .levels
                .get(level - 1)
                .is_some_and(|l| l.writing.len() >= core.config.size_ratio);
            if full {
                self.commit_disk_level(core, level)?;
                self.start_disk_merge(core, level);
            }
            self.cascade_at = full.then_some(level + 1);
        }
        Ok(())
    }

    fn settle(&mut self, core: &mut EngineCore) -> Result<()> {
        self.commit_level0(core)?;
        for level in 1..=core.levels.len() {
            self.commit_disk_level(core, level)?;
        }
        Ok(())
    }
}

impl Background {
    /// Joins and commits level 0's background flush, if a group is sealed:
    /// the flushed run is published into level 1's writing group, a
    /// manifest commit makes the publication durable, and only then are the
    /// sealed group and the WAL segments covering it dropped.
    fn commit_level0(&mut self, core: &mut EngineCore) -> Result<()> {
        if core.sealed.is_none() {
            return Ok(());
        }
        let build = match self.flush_thread.take() {
            Some(build) => build,
            None => spawn_flush(core),
        };
        let run = Arc::new(join_build(build)?);
        let mut levels = core.levels.clone();
        writing_group(&mut levels, 0).insert(0, Arc::clone(&run));
        core.ctx.kill("async-flush:published")?;
        // The committed run holds every block the sealed memtable covered;
        // the manifest records that height as durably flushed.
        core.commit_levels(levels, self.sealed_through)?;
        core.sealed = None;
        Metrics::inc(&core.ctx.metrics.flushes);
        Metrics::add(&core.ctx.metrics.pages_written, data_pages(&run));
        for path in self.wal_retired.drain(..) {
            remove_wal_file(&path)?;
        }
        core.ctx.kill("async-flush:committed")
    }

    /// Seals the writing memtable as the merging group and starts a
    /// background flush of its contents. The WAL rotates with the seal: the
    /// segments covering the sealed trees are retired (deleted once the
    /// flush commits) and a fresh segment receives subsequent blocks. The
    /// fallible rotation comes first, so a failure leaves nothing sealed.
    fn seal_and_start_flush(&mut self, core: &mut EngineCore) -> Result<()> {
        if let Some(active) = &mut core.wal {
            // Group-commit barrier: the outgoing segment must be fully
            // durable before appends continue in the next one — otherwise a
            // power failure could lose this segment's unsynced tail while
            // *later* blocks in the new segment survive, recovering a chain
            // with a hole in it.
            active.sync_barrier()?;
            core.ctx.kill("async-seal:wal_barrier")?;
            let next = core.create_wal_segment()?;
            let outgoing = core.wal.replace(next).expect("checked above");
            self.wal_retired.push(outgoing.path().to_path_buf());
        }
        // Fix the per-shard digests before freezing the trees; the sealed
        // group's proofs verify against exactly these roots.
        let roots = core.mem.root_hashes();
        core.sealed = Some(MemGroup::new(core.mem.take_shards(), roots));
        self.sealed_through = core.current_block;
        self.flush_thread = Some(spawn_flush(core));
        Ok(())
    }

    /// Joins and commits the background merge of on-disk `level` (1-based),
    /// if it has a merging group: the merged run is published into
    /// `level + 1`'s writing group, a manifest commit (which also drops the
    /// obsolete merging group) makes the publication durable, and only then
    /// are the obsolete runs retired.
    fn commit_disk_level(&mut self, core: &mut EngineCore, level: usize) -> Result<()> {
        if core.levels[level - 1].merging.is_empty() {
            return Ok(());
        }
        let build = match self.merge_threads.get_mut(level - 1).and_then(Option::take) {
            Some(build) => build,
            None => spawn_merge(core, level),
        };
        let run = Arc::new(join_build(build)?);
        let mut levels = core.levels.clone();
        let obsolete = std::mem::take(&mut levels[level - 1].merging);
        writing_group(&mut levels, level).insert(0, Arc::clone(&run));
        core.ctx.kill("async-merge:published")?;
        core.commit_levels(levels, core.flushed_block)?;
        Metrics::inc(&core.ctx.metrics.merges);
        Metrics::add(&core.ctx.metrics.entries_merged, run.num_entries());
        Metrics::add(&core.ctx.metrics.pages_written, data_pages(&run));
        core.ctx.kill("async-merge:committed")?;
        // The obsolete merging group is out of the committed manifest;
        // retire it. Embedded engines (no published snapshots) delete the
        // files right here; pinned runs wait for their last reader.
        core.retired.extend(obsolete);
        core.reclaim(Self::RUN_DELETED)
    }

    /// Swaps the groups of on-disk `level` (1-based) and starts a background
    /// merge of the now-sealed group into the next level.
    fn start_disk_merge(&mut self, core: &mut EngineCore, level: usize) {
        let entry = &mut core.levels[level - 1];
        assert!(
            entry.merging.is_empty(),
            "merging group must be committed first"
        );
        entry.merging = std::mem::take(&mut entry.writing);
        if self.merge_threads.len() < level {
            self.merge_threads.resize_with(level, || None);
        }
        self.merge_threads[level - 1] = Some(spawn_merge(core, level));
    }
}

/// Starts a thread building the sealed memtable group into a run: drains
/// the sealed write heads into one sorted stream (the k-way shard merge)
/// and builds the run off the caller's thread; with parallel run builds the
/// index/Merkle work fans out further inside `RunBuilder`. The per-shard
/// kill points model a crash mid-drain — memory-only, disk untouched.
fn spawn_flush(core: &mut EngineCore) -> Build {
    let sealed = core.sealed.as_ref().expect("a memtable group is sealed");
    let trees = Arc::clone(&sealed.trees);
    let (dir, config, ctx) = (core.dir.clone(), core.config, core.ctx.clone());
    let id = core.alloc_run_id();
    std::thread::spawn(move || {
        for _ in trees.iter() {
            ctx.kill("async-flush:shard_drained")?;
        }
        let entries = merge_sorted_entry_lists(trees.iter().map(MbTree::entries).collect());
        build_run_from_entries(&dir, id, &entries, &config, ctx)
    })
}

/// Starts a thread merging the merging group of on-disk `level` (1-based)
/// into one run.
fn spawn_merge(core: &mut EngineCore, level: usize) -> Build {
    let runs = core.levels[level - 1].merging.clone();
    let (dir, config, ctx) = (core.dir.clone(), core.config, core.ctx.clone());
    let id = core.alloc_run_id();
    std::thread::spawn(move || merge_runs(&dir, id, &runs, &config, ctx))
}

/// Joins a background build, converting a panic into an error.
fn join_build(build: Build) -> Result<Run> {
    build
        .join()
        .map_err(|_| ColeError::InvalidState("background merge thread panicked".into()))?
}

/// Joining outstanding background threads on drop keeps a dropped engine
/// from racing a successor opened on the same directory (a dropped
/// `JoinHandle` would detach the thread, which could still be writing run
/// files while recovery garbage-collects them).
impl Drop for Background {
    fn drop(&mut self) {
        let merges = self.merge_threads.drain(..).flatten();
        for build in self.flush_thread.take().into_iter().chain(merges) {
            let _ = build.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use cole_primitives::{Address, AuthenticatedStorage, Digest, StateValue};

    use super::*;
    use crate::proof::compute_hstate;
    use crate::ColeConfig;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cole-async-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_config() -> ColeConfig {
        ColeConfig::default()
            .with_memtable_capacity(16)
            .with_size_ratio(3)
    }

    fn addr(i: u64) -> Address {
        Address::from_low_u64(i)
    }

    /// Drives `engine` through `blocks` blocks of `writes_per_block` writes
    /// with deterministic addresses, returning the per-block digests.
    fn drive(engine: &mut AsyncCole, blocks: u64, writes_per_block: u64) -> Vec<Digest> {
        let mut digests = Vec::new();
        for blk in 1..=blocks {
            engine.begin_block(blk).unwrap();
            for w in 0..writes_per_block {
                engine
                    .put(
                        addr((blk * writes_per_block + w) % 97),
                        StateValue::from_u64(blk),
                    )
                    .unwrap();
            }
            digests.push(engine.finalize_block().unwrap());
        }
        digests
    }

    #[test]
    fn async_engine_reads_its_own_writes_across_merges() {
        let dir = tmpdir("rw");
        let mut cole = AsyncCole::open(&dir, small_config()).unwrap();
        for blk in 1..=60u64 {
            cole.begin_block(blk).unwrap();
            for a in 0..5u64 {
                cole.put(addr(blk * 10 + a), StateValue::from_u64(blk))
                    .unwrap();
            }
            cole.finalize_block().unwrap();
        }
        cole.wait_for_merges().unwrap();
        assert!(cole.metrics().flushes > 0);
        for blk in 1..=60u64 {
            for a in 0..5u64 {
                assert_eq!(
                    cole.get(addr(blk * 10 + a)).unwrap(),
                    Some(StateValue::from_u64(blk)),
                    "block {blk} addr {a}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hstate_is_deterministic_across_identical_replays() {
        // The asynchronous merge must not make the digest depend on thread
        // timing: two replays of the same workload give identical digests.
        let dir1 = tmpdir("det1");
        let dir2 = tmpdir("det2");
        let mut a = AsyncCole::open(&dir1, small_config()).unwrap();
        let mut b = AsyncCole::open(&dir2, small_config()).unwrap();
        let da = drive(&mut a, 40, 6);
        let db = drive(&mut b, 40, 6);
        assert_eq!(da, db);
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn async_matches_sync_query_results() {
        use crate::cole::Cole;
        let dir_sync = tmpdir("cmp-sync");
        let dir_async = tmpdir("cmp-async");
        let mut sync = Cole::open(&dir_sync, small_config()).unwrap();
        let mut asynchronous = AsyncCole::open(&dir_async, small_config()).unwrap();
        for blk in 1..=50u64 {
            sync.begin_block(blk).unwrap();
            asynchronous.begin_block(blk).unwrap();
            for a in 0..4u64 {
                let address = addr((blk + a * 13) % 37);
                let value = StateValue::from_u64(blk * 100 + a);
                sync.put(address, value).unwrap();
                asynchronous.put(address, value).unwrap();
            }
            sync.finalize_block().unwrap();
            asynchronous.finalize_block().unwrap();
        }
        asynchronous.wait_for_merges().unwrap();
        for a in 0..37u64 {
            assert_eq!(
                sync.get(addr(a)).unwrap(),
                asynchronous.get(addr(a)).unwrap(),
                "address {a}"
            );
        }
        std::fs::remove_dir_all(&dir_sync).ok();
        std::fs::remove_dir_all(&dir_async).ok();
    }

    #[test]
    fn provenance_query_verifies_with_async_merge() {
        let dir = tmpdir("prov");
        let mut cole = AsyncCole::open(&dir, small_config()).unwrap();
        let target = addr(5);
        for blk in 1..=80u64 {
            cole.begin_block(blk).unwrap();
            cole.put(target, StateValue::from_u64(blk)).unwrap();
            cole.put(addr(100 + blk), StateValue::from_u64(blk))
                .unwrap();
            cole.finalize_block().unwrap();
        }
        let hstate = cole.finalize_block().unwrap();
        let result = cole.prov_query(target, 20, 40).unwrap();
        let got: Vec<u64> = result.values.iter().map(|v| v.block_height).collect();
        let expected: Vec<u64> = (20..=40u64).rev().collect();
        assert_eq!(got, expected);
        assert!(cole.verify_prov(target, 20, 40, &result, hstate).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_disk_levels_previously_lost() {
        // Regression: AsyncCole used to have no manifest at all, so
        // reopening a directory silently dropped every disk level. The WAL
        // covers the unflushed memtable so the full state is comparable.
        let dir = tmpdir("reopen");
        let config = small_config().with_wal_enabled(true);
        let mut expected = Vec::new();
        let disk_levels;
        {
            let mut cole = AsyncCole::open(&dir, config).unwrap();
            drive(&mut cole, 40, 6);
            cole.wait_for_merges().unwrap();
            disk_levels = cole.num_disk_levels();
            assert!(disk_levels >= 1, "workload must reach disk");
            for a in 0..97u64 {
                expected.push(cole.get(addr(a)).unwrap());
            }
        }
        let reopened = AsyncCole::open(&dir, config).unwrap();
        assert_eq!(
            reopened.num_disk_levels(),
            disk_levels,
            "disk levels lost on reopen"
        );
        for a in 0..97u64 {
            assert_eq!(
                reopened.get(addr(a)).unwrap(),
                expected[a as usize],
                "address {a} after reopen"
            );
        }
        // The recovered store keeps serving verifiable provenance proofs.
        let mut reopened = reopened;
        let hstate = reopened.finalize_block().unwrap();
        let result = reopened.prov_query(addr(5), 1, 40).unwrap();
        assert!(reopened
            .verify_prov(addr(5), 1, 40, &result, hstate)
            .unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_recovers_unflushed_memtable_without_external_replay() {
        let dir = tmpdir("wal");
        let config = small_config().with_wal_enabled(true);
        let pre_root;
        {
            let mut cole = AsyncCole::open(&dir, config).unwrap();
            drive(&mut cole, 30, 5);
            cole.wait_for_merges().unwrap();
            // A few more blocks that stay in the writing memtable (capacity
            // 16, 5 writes per block).
            for blk in 31..=33u64 {
                cole.begin_block(blk).unwrap();
                cole.put(addr(blk), StateValue::from_u64(blk * 7)).unwrap();
                cole.finalize_block().unwrap();
            }
            pre_root = compute_hstate(&cole.root_hash_list());
            // Crash: dropped without flush — the tail lives only in the WAL.
        }
        let mut recovered = AsyncCole::open(&dir, config).unwrap();
        for blk in 31..=33u64 {
            assert_eq!(
                recovered.get(addr(blk)).unwrap(),
                Some(StateValue::from_u64(blk * 7)),
                "unflushed block {blk} lost"
            );
        }
        assert_eq!(recovered.current_block_height(), 33);
        assert_eq!(
            compute_hstate(&recovered.root_hash_list()),
            pre_root,
            "recovered state root must match the pre-crash root"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_segments_do_not_accumulate_across_reopens() {
        // Each open compacts the recovered segments into the fresh active
        // one; without that, every restart would leave a segment behind.
        let dir = tmpdir("walcompact");
        let config = small_config().with_wal_enabled(true);
        for round in 1..=5u64 {
            let mut cole = AsyncCole::open(&dir, config).unwrap();
            cole.begin_block(round).unwrap();
            cole.put(addr(round), StateValue::from_u64(round * 3))
                .unwrap();
            cole.finalize_block().unwrap();
        }
        let segments = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                let name = name.to_string_lossy().into_owned();
                name.starts_with("wal-") && name.ends_with(".log")
            })
            .count();
        assert_eq!(segments, 1, "reopens must not leave WAL segments behind");
        // All five rounds' data survived the compactions.
        let reopened = AsyncCole::open(&dir, config).unwrap();
        for round in 1..=5u64 {
            assert_eq!(
                reopened.get(addr(round)).unwrap(),
                Some(StateValue::from_u64(round * 3)),
                "round {round} lost across reopen compactions"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_async_engine_reads_merges_and_recovers() {
        let dir = tmpdir("sharded");
        let config = small_config()
            .with_memtable_shards(4)
            .with_wal_enabled(true)
            .with_wal_sync_policy(cole_storage::WalSyncPolicy::GroupCommit {
                max_blocks: 3,
                max_bytes: 1 << 20,
            });
        let mut expected = Vec::new();
        {
            let mut cole = AsyncCole::open(&dir, config).unwrap();
            drive(&mut cole, 40, 6);
            cole.wait_for_merges().unwrap();
            assert!(cole.metrics().flushes > 0);
            assert!(
                cole.metrics().wal_fsyncs < cole.metrics().wal_appends,
                "group commit must batch fsyncs: {} fsyncs for {} appends",
                cole.metrics().wal_fsyncs,
                cole.metrics().wal_appends
            );
            // A few unflushed tail blocks live only in the WAL.
            for blk in 41..=43u64 {
                cole.begin_block(blk).unwrap();
                cole.put(addr(blk), StateValue::from_u64(blk * 7)).unwrap();
                cole.finalize_block().unwrap();
            }
            for a in 0..97u64 {
                expected.push(cole.get(addr(a)).unwrap());
            }
            // Crash: dropped without flush.
        }
        let mut recovered = AsyncCole::open(&dir, config).unwrap();
        for a in 0..97u64 {
            assert_eq!(
                recovered.get(addr(a)).unwrap(),
                expected[a as usize],
                "address {a} after sharded group-commit recovery"
            );
        }
        for blk in 41..=43u64 {
            assert_eq!(
                recovered.get(addr(blk)).unwrap(),
                Some(StateValue::from_u64(blk * 7))
            );
        }
        // The recovered sharded store keeps serving verifiable proofs.
        let hstate = recovered.finalize_block().unwrap();
        let result = recovered.prov_query(addr(5), 1, 40).unwrap();
        assert!(recovered
            .verify_prov(addr(5), 1, 40, &result, hstate)
            .unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_hstate_is_deterministic_across_replays() {
        let dir1 = tmpdir("sdet1");
        let dir2 = tmpdir("sdet2");
        let config = small_config().with_memtable_shards(3);
        let mut a = AsyncCole::open(&dir1, config).unwrap();
        let mut b = AsyncCole::open(&dir2, config).unwrap();
        assert_eq!(drive(&mut a, 40, 6), drive(&mut b, 40, 6));
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn async_put_batch_matches_per_entry_puts() {
        let dir_a = tmpdir("batcha");
        let dir_b = tmpdir("batchb");
        let config = small_config().with_memtable_shards(4);
        let mut per_entry = AsyncCole::open(&dir_a, config).unwrap();
        let mut batched = AsyncCole::open(&dir_b, config).unwrap();
        for blk in 1..=30u64 {
            let entries: Vec<(Address, StateValue)> = (0..6u64)
                .map(|w| (addr((blk * 6 + w) % 97), StateValue::from_u64(blk)))
                .collect();
            per_entry.begin_block(blk).unwrap();
            for (a, v) in &entries {
                per_entry.put(*a, *v).unwrap();
            }
            let d1 = per_entry.finalize_block().unwrap();
            batched.begin_block(blk).unwrap();
            batched.put_batch(&entries).unwrap();
            let d2 = batched.finalize_block().unwrap();
            assert_eq!(d1, d2, "block {blk} digest diverged");
        }
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn wait_for_merges_is_idempotent() {
        let dir = tmpdir("quiesce");
        let mut cole = AsyncCole::open(&dir, small_config()).unwrap();
        drive(&mut cole, 30, 5);
        cole.wait_for_merges().unwrap();
        cole.wait_for_merges().unwrap();
        let stats = cole.storage_stats().unwrap();
        assert!(stats.data_bytes > 0);
        assert_eq!(cole.name(), "COLE*");
        std::fs::remove_dir_all(&dir).ok();
    }
}
