//! The synchronous COLE engine: merges run in the foreground (Algorithm 1).

use std::sync::Arc;

use cole_primitives::Result;

use crate::engine::{data_pages, writing_group, Engine, EngineCore, MergeStrategy};
use crate::merge::{build_run_from_entries, merge_runs};
use crate::metrics::Metrics;
use crate::run::Run;

/// The column-based learned storage engine with synchronous merges: when
/// the in-memory level is full at a block boundary it is flushed to level 1
/// and full levels are recursively sort-merged into the next level before
/// `finalize_block` returns (Algorithm 1). Simplest, but a write can stall
/// while levels cascade.
pub type Cole = Engine<Foreground>;

/// Merges in the foreground: flush and cascade inside `finalize_block`,
/// against one WAL that is truncated after each flush commits.
#[derive(Debug, Default)]
pub struct Foreground;

impl MergeStrategy for Foreground {
    const NAME: &'static str = "COLE";
    const RUN_DELETED: &'static str = "flush:run_deleted";

    fn on_block_boundary(&mut self, core: &mut EngineCore, memtable_full: bool) -> Result<()> {
        if memtable_full {
            flush_and_merge(core)?;
        }
        Ok(())
    }

    /// Nothing is ever in flight between calls.
    fn settle(&mut self, _core: &mut EngineCore) -> Result<()> {
        Ok(())
    }
}

/// Flushes the memtable and cascades full levels, in crash-safe commit
/// order (Algorithm 1 lines 5–12 plus the §4.3 durability contract):
///
/// 1. build and fsync the new run files (flush + every cascade merge),
/// 2. durably commit a manifest referencing the new runs and dropping
///    the superseded ones,
/// 3. only then clear the memtable, truncate the WAL, and delete the
///    superseded run files.
///
/// A crash before step 2 leaves the previous manifest intact (the new
/// files are orphans, GC'd on reopen); a crash after step 2 leaves
/// superseded files as orphans. No crash point loses committed data.
///
/// The same ordering also makes the flush **recoverable in place**: all
/// pre-commit work mutates a scratch copy of the levels (published only
/// after the manifest commit succeeds), so an error before or at the
/// commit — a transient I/O failure, `ENOSPC`, a failed manifest write
/// — returns `Err` with the engine fully usable: the memtable still
/// holds every entry, queries keep serving the old levels, and the next
/// block boundary simply retries the flush. Partially built run files
/// stay behind as orphans until a later reopen GCs them. An error
/// *after* the commit (WAL truncation, superseded-file deletion) also
/// leaves the engine consistent — the new state is already durable and
/// published, and both cleanups retry naturally.
fn flush_and_merge(core: &mut EngineCore) -> Result<()> {
    // Flush the memtable to level 1 as a sorted run (Algorithm 1 line
    // 5). With sharded write heads this is a k-way merge over the
    // already-sorted shards — the run (and everything downstream of it)
    // is byte-for-byte what a single memtable would produce. The
    // per-shard kill points model a crash while draining: memory-only
    // work, so disk state is untouched at every one of them.
    for _ in 0..core.mem.num_shards() {
        core.ctx.kill("flush:shard_drained")?;
    }
    let entries = core.mem.sorted_entries();
    if entries.is_empty() {
        return Ok(());
    }
    // Scratch state: the level lists are copied (cheap `Arc` clones) and
    // everything below mutates the copy.
    let mut levels = core.levels.clone();

    // Metrics are accumulated locally and published only after the
    // manifest commit: a failed flush leaves the counters (like the
    // engine) exactly as they were, so `flushes`/`merges` count
    // *completed* operations.
    let mut merges = 0u64;
    let mut entries_merged = 0u64;

    let id = core.alloc_run_id();
    let run = build_run_from_entries(&core.dir, id, &entries, &core.config, core.ctx.clone())?;
    let mut pages_written = data_pages(&run);
    writing_group(&mut levels, 0).insert(0, Arc::new(run));
    core.ctx.kill("flush:run_built")?;

    // Recursively merge full levels (Algorithm 1 lines 8–12), deferring
    // the deletion of superseded runs until after the manifest commit.
    let mut superseded: Vec<Arc<Run>> = Vec::new();
    let mut i = 0usize;
    while i < levels.len() && levels[i].writing.len() >= core.config.size_ratio {
        let runs = std::mem::take(&mut levels[i].writing);
        let id = core.alloc_run_id();
        let merged = merge_runs(&core.dir, id, &runs, &core.config, core.ctx.clone())?;
        merges += 1;
        entries_merged += merged.num_entries();
        pages_written += data_pages(&merged);
        writing_group(&mut levels, i + 1).insert(0, Arc::new(merged));
        superseded.extend(runs);
        core.ctx.kill("merge:run_built")?;
        i += 1;
    }

    // Group-commit barrier: any WAL appends still buffered in the OS
    // page cache are forced to stable storage before the manifest can
    // reference this flush. Without it, a power failure after the
    // manifest commit could lose a *middle* group of the log while the
    // manifest claims the height durable — with it, only the tail past
    // the last barrier/group fsync is ever at risk.
    if let Some(wal) = &mut core.wal {
        wal.sync_barrier()?;
    }
    core.ctx.kill("flush:wal_barrier")?;

    // Commit point: the manifest that references the new runs and drops
    // the superseded ones becomes durable and the scratch levels are
    // published. The whole memtable — every finalized block — is in the
    // flushed run, so the manifest also records the current height as
    // durably flushed. Everything past this point is cleanup of
    // now-redundant copies.
    core.ctx.kill("flush:pre_manifest")?;
    core.commit_levels(levels, core.current_block)?;
    Metrics::inc(&core.ctx.metrics.flushes);
    Metrics::add(&core.ctx.metrics.merges, merges);
    Metrics::add(&core.ctx.metrics.entries_merged, entries_merged);
    Metrics::add(&core.ctx.metrics.pages_written, pages_written);

    // The flushed memtable is durable now — forget its volatile copies.
    core.mem.clear();
    if let Some(wal) = &mut core.wal {
        wal.truncate()?;
    }
    core.ctx.kill("flush:wal_truncated")?;

    // Superseded runs are dropped from the committed manifest; retiring
    // them makes their deletion safe. An embedded engine (no published
    // snapshots) deletes the files right here; under a serving
    // front-end, runs still pinned by a snapshot wait in the retired
    // list until the last reader drops (a crash mid-deletion leaves
    // orphans either way).
    core.retired.extend(superseded);
    core.reclaim(Foreground::RUN_DELETED)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use cole_primitives::{Address, AuthenticatedStorage, Digest, StateValue};
    use cole_storage::WalSyncPolicy;

    use super::*;
    use crate::ColeConfig;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cole-sync-test-{}-{name}", std::process::id()));
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

    #[test]
    fn put_get_roundtrip_within_memtable() {
        let dir = tmpdir("memget");
        let mut cole = Cole::open(&dir, small_config()).unwrap();
        cole.begin_block(1).unwrap();
        cole.put(addr(1), StateValue::from_u64(11)).unwrap();
        cole.put(addr(2), StateValue::from_u64(22)).unwrap();
        assert_eq!(cole.get(addr(1)).unwrap(), Some(StateValue::from_u64(11)));
        assert_eq!(cole.get(addr(3)).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_and_merge_cascade() {
        let dir = tmpdir("cascade");
        let mut cole = Cole::open(&dir, small_config()).unwrap();
        // Enough writes to overflow several levels.
        for blk in 1..=60u64 {
            cole.begin_block(blk).unwrap();
            for a in 0..5u64 {
                cole.put(addr(blk * 10 + a), StateValue::from_u64(blk))
                    .unwrap();
            }
            cole.finalize_block().unwrap();
        }
        assert!(cole.metrics().flushes > 0);
        assert!(cole.metrics().merges > 0);
        assert!(cole.num_disk_levels() >= 2);
        // Every written address must still be readable.
        for blk in 1..=60u64 {
            for a in 0..5u64 {
                assert_eq!(
                    cole.get(addr(blk * 10 + a)).unwrap(),
                    Some(StateValue::from_u64(blk)),
                    "address {blk}/{a}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn latest_value_wins_across_levels() {
        let dir = tmpdir("latest");
        let mut cole = Cole::open(&dir, small_config()).unwrap();
        for blk in 1..=40u64 {
            cole.begin_block(blk).unwrap();
            // Address 7 is updated in every block; the latest must win even
            // though older versions live in deeper levels.
            cole.put(addr(7), StateValue::from_u64(blk * 100)).unwrap();
            for a in 0..4u64 {
                cole.put(addr(1000 + blk * 10 + a), StateValue::from_u64(blk))
                    .unwrap();
            }
            cole.finalize_block().unwrap();
        }
        assert_eq!(cole.get(addr(7)).unwrap(), Some(StateValue::from_u64(4000)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hstate_changes_with_every_block() {
        let dir = tmpdir("hstate");
        let mut cole = Cole::open(&dir, small_config()).unwrap();
        let mut digests = Vec::new();
        for blk in 1..=10u64 {
            cole.begin_block(blk).unwrap();
            cole.put(addr(blk), StateValue::from_u64(blk)).unwrap();
            digests.push(cole.finalize_block().unwrap());
        }
        for pair in digests.windows(2) {
            assert_ne!(pair[0], pair[1]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn provenance_query_returns_history_and_verifies() {
        let dir = tmpdir("prov");
        let mut cole = Cole::open(&dir, small_config()).unwrap();
        let target = addr(42);
        for blk in 1..=50u64 {
            cole.begin_block(blk).unwrap();
            if blk % 2 == 0 {
                cole.put(target, StateValue::from_u64(blk)).unwrap();
            }
            cole.put(addr(500 + blk), StateValue::from_u64(blk))
                .unwrap();
            cole.finalize_block().unwrap();
        }
        let hstate = cole.finalize_block().unwrap();
        let result = cole.prov_query(target, 10, 30).unwrap();
        let expected: Vec<u64> = (10..=30u64).filter(|b| b % 2 == 0).rev().collect();
        let got: Vec<u64> = result.values.iter().map(|v| v.block_height).collect();
        assert_eq!(got, expected);
        for v in &result.values {
            assert_eq!(v.value.as_u64(), v.block_height);
        }
        assert!(cole.verify_prov(target, 10, 30, &result, hstate).unwrap());
        // Verification must fail against a different digest or tampered values.
        assert!(!cole
            .verify_prov(target, 10, 30, &result, Digest::new([1u8; 32]))
            .unwrap());
        let mut tampered = result.clone();
        tampered.values[0].value = StateValue::from_u64(999);
        assert!(!cole.verify_prov(target, 10, 30, &tampered, hstate).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn provenance_query_for_absent_address_verifies_empty() {
        let dir = tmpdir("provempty");
        let mut cole = Cole::open(&dir, small_config()).unwrap();
        for blk in 1..=30u64 {
            cole.begin_block(blk).unwrap();
            cole.put(addr(blk), StateValue::from_u64(blk)).unwrap();
            cole.finalize_block().unwrap();
        }
        let hstate = cole.finalize_block().unwrap();
        let ghost = addr(9999);
        let result = cole.prov_query(ghost, 1, 30).unwrap();
        assert!(result.values.is_empty());
        assert!(cole.verify_prov(ghost, 1, 30, &result, hstate).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_disk_levels() {
        let dir = tmpdir("reopen");
        let mut cole = Cole::open(&dir, small_config()).unwrap();
        for blk in 1..=40u64 {
            cole.begin_block(blk).unwrap();
            for a in 0..4u64 {
                cole.put(addr(blk * 10 + a), StateValue::from_u64(blk))
                    .unwrap();
            }
            cole.finalize_block().unwrap();
        }
        cole.flush().unwrap();
        let disk_levels = cole.num_disk_levels();
        drop(cole);
        let reopened = Cole::open(&dir, small_config()).unwrap();
        assert_eq!(reopened.num_disk_levels(), disk_levels);
        // Flushed data is still readable after recovery.
        assert_eq!(
            reopened.get(addr(10)).unwrap(),
            Some(StateValue::from_u64(1))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_recovers_unflushed_memtable_and_state_root() {
        let dir = tmpdir("wal");
        let config = small_config().with_wal_enabled(true);
        let pre_root;
        let pre_len;
        {
            let mut cole = Cole::open(&dir, config).unwrap();
            // 5 blocks × 2 writes stay below the capacity of 16: nothing is
            // flushed, everything lives in the memtable + WAL.
            for blk in 1..=5u64 {
                cole.begin_block(blk).unwrap();
                cole.put(addr(blk), StateValue::from_u64(blk * 11)).unwrap();
                cole.put(addr(7), StateValue::from_u64(blk)).unwrap();
                cole.finalize_block().unwrap();
            }
            // Empty finalized blocks still advance the recoverable height.
            for blk in 6..=7u64 {
                cole.begin_block(blk).unwrap();
                cole.finalize_block().unwrap();
            }
            pre_len = cole.memtable_len();
            pre_root = cole.state_root();
            assert!(pre_len > 0);
            // Crash: dropped without flush() — no manifest covers this data.
        }
        let mut recovered = Cole::open(&dir, config).unwrap();
        assert_eq!(recovered.memtable_len(), pre_len);
        assert_eq!(recovered.state_root(), pre_root);
        assert_eq!(
            recovered.current_block_height(),
            7,
            "trailing empty blocks must not regress the recovered height"
        );
        assert_eq!(
            recovered.get(addr(3)).unwrap(),
            Some(StateValue::from_u64(33))
        );
        assert_eq!(
            recovered.get(addr(7)).unwrap(),
            Some(StateValue::from_u64(5))
        );
        assert!(
            recovered.metrics().wal_appends == 0,
            "replay is not an append"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn without_wal_unflushed_memtable_is_lost_but_store_reopens() {
        let dir = tmpdir("nowal");
        {
            let mut cole = Cole::open(&dir, small_config()).unwrap();
            cole.begin_block(1).unwrap();
            cole.put(addr(1), StateValue::from_u64(1)).unwrap();
            cole.finalize_block().unwrap();
        }
        let recovered = Cole::open(&dir, small_config()).unwrap();
        assert_eq!(recovered.memtable_len(), 0);
        assert_eq!(recovered.get(addr(1)).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_run_files_are_gced_on_open() {
        let dir = tmpdir("orphans");
        {
            let mut cole = Cole::open(&dir, small_config()).unwrap();
            for blk in 1..=20u64 {
                cole.begin_block(blk).unwrap();
                for a in 0..4u64 {
                    cole.put(addr(blk * 10 + a), StateValue::from_u64(blk))
                        .unwrap();
                }
                cole.finalize_block().unwrap();
            }
            cole.flush().unwrap();
        }
        // Plant run files no manifest references — the leftovers of a
        // crashed flush or an interrupted superseded-run deletion.
        for ext in ["val", "idx", "mrk", "blm", "meta"] {
            std::fs::write(dir.join(format!("run_00000099.{ext}")), b"orphan").unwrap();
        }
        let cole = Cole::open(&dir, small_config()).unwrap();
        assert!(!dir.join("run_00000099.val").exists(), "orphan not deleted");
        assert_eq!(cole.metrics().orphan_runs_deleted, 1);
        // Committed data is untouched.
        assert_eq!(cole.get(addr(10)).unwrap(), Some(StateValue::from_u64(1)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn begin_block_must_advance() {
        let dir = tmpdir("blocks");
        let mut cole = Cole::open(&dir, small_config()).unwrap();
        cole.begin_block(5).unwrap();
        assert!(cole.begin_block(5).is_err());
        assert!(cole.begin_block(4).is_err());
        assert!(cole.begin_block(6).is_ok());
        assert_eq!(cole.current_block_height(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn on_disk_get_counts_page_reads() {
        // Regression test: `pages_read` maps onto the IO-cost columns of
        // Table 1 and must be incremented by the read path, not just
        // declared.
        let dir = tmpdir("pagesread");
        let mut cole = Cole::open(&dir, small_config()).unwrap();
        for blk in 1..=20u64 {
            cole.begin_block(blk).unwrap();
            for a in 0..4u64 {
                cole.put(addr(blk * 10 + a), StateValue::from_u64(blk))
                    .unwrap();
            }
            cole.finalize_block().unwrap();
        }
        assert!(cole.num_disk_levels() >= 1);
        assert_eq!(cole.metrics().pages_read, 0, "writes must not count reads");
        // Address 10 was written in block 1 and has long been flushed.
        assert_eq!(cole.get(addr(10)).unwrap(), Some(StateValue::from_u64(1)));
        let m = cole.metrics();
        assert!(m.pages_read > 0, "an on-disk get must read pages");
        assert_eq!(m.cache_hits + m.cache_misses, m.pages_read);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabling_the_page_cache_still_reads_correctly() {
        let dir = tmpdir("nocache");
        let mut cole = Cole::open(&dir, small_config().with_page_cache_pages(0)).unwrap();
        assert!(cole.page_cache().is_none());
        for blk in 1..=20u64 {
            cole.begin_block(blk).unwrap();
            for a in 0..4u64 {
                cole.put(addr(blk * 10 + a), StateValue::from_u64(blk))
                    .unwrap();
            }
            cole.finalize_block().unwrap();
        }
        for blk in 1..=20u64 {
            assert_eq!(
                cole.get(addr(blk * 10)).unwrap(),
                Some(StateValue::from_u64(blk))
            );
        }
        let m = cole.metrics();
        assert!(m.pages_read > 0);
        assert_eq!(m.cache_hits, 0);
        assert_eq!(m.cache_misses, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Drives `cole` through `blocks` blocks of 5 writes each.
    fn drive_blocks(cole: &mut Cole, blocks: u64) {
        for blk in 1..=blocks {
            cole.begin_block(blk).unwrap();
            for a in 0..5u64 {
                cole.put(addr(blk * 10 + a), StateValue::from_u64(blk * 100 + a))
                    .unwrap();
            }
            cole.finalize_block().unwrap();
        }
    }

    #[test]
    fn sharded_engine_serves_reads_and_verified_provenance() {
        let dir = tmpdir("sharded");
        let mut cole = Cole::open(&dir, small_config().with_memtable_shards(4)).unwrap();
        let target = addr(7);
        for blk in 1..=50u64 {
            cole.begin_block(blk).unwrap();
            cole.put(target, StateValue::from_u64(blk)).unwrap();
            for a in 0..4u64 {
                cole.put(addr(blk * 10 + a), StateValue::from_u64(blk))
                    .unwrap();
            }
            cole.finalize_block().unwrap();
        }
        assert!(cole.metrics().flushes > 0, "workload must reach disk");
        for blk in 1..=50u64 {
            assert_eq!(
                cole.get(addr(blk * 10)).unwrap(),
                Some(StateValue::from_u64(blk))
            );
        }
        let hstate = cole.finalize_block().unwrap();
        let result = cole.prov_query(target, 10, 30).unwrap();
        let got: Vec<u64> = result.values.iter().map(|v| v.block_height).collect();
        assert_eq!(got, (10..=30u64).rev().collect::<Vec<_>>());
        assert!(cole.verify_prov(target, 10, 30, &result, hstate).unwrap());
        // Tampering is still detected with per-shard memtable components.
        let mut tampered = result.clone();
        tampered.values[0].value = StateValue::from_u64(999);
        assert!(!cole.verify_prov(target, 10, 30, &tampered, hstate).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_flush_produces_identical_run_files() {
        // The k-way shard drain must be invisible on disk: same workload,
        // 1 vs 4 shards, byte-identical run files (Hstate differs — it
        // covers one root per write head — but the durable state doesn't).
        let dir1 = tmpdir("drain1");
        let dir4 = tmpdir("drain4");
        let mut one = Cole::open(&dir1, small_config()).unwrap();
        let mut four = Cole::open(&dir4, small_config().with_memtable_shards(4)).unwrap();
        drive_blocks(&mut one, 40);
        drive_blocks(&mut four, 40);
        let mut run_files: Vec<String> = std::fs::read_dir(&dir1)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|n| n.starts_with("run_"))
            .collect();
        run_files.sort();
        assert!(!run_files.is_empty());
        for name in &run_files {
            let a = std::fs::read(dir1.join(name)).unwrap();
            let b = std::fs::read(dir4.join(name)).unwrap();
            assert_eq!(a, b, "sharded drain diverged in {name}");
        }
        std::fs::remove_dir_all(&dir1).ok();
        std::fs::remove_dir_all(&dir4).ok();
    }

    #[test]
    fn put_batch_is_equivalent_to_per_entry_puts() {
        let dir_a = tmpdir("batcha");
        let dir_b = tmpdir("batchb");
        let config = small_config()
            .with_memtable_shards(4)
            .with_wal_enabled(true);
        let mut per_entry = Cole::open(&dir_a, config).unwrap();
        let mut batched = Cole::open(&dir_b, config).unwrap();
        for blk in 1..=20u64 {
            let entries: Vec<(Address, StateValue)> = (0..6u64)
                .map(|a| (addr((blk + a * 7) % 31), StateValue::from_u64(blk * 10 + a)))
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
        for a in 0..31u64 {
            assert_eq!(
                per_entry.get(addr(a)).unwrap(),
                batched.get(addr(a)).unwrap()
            );
        }
        // The WAL records match too: a crash recovers the same state.
        drop(per_entry);
        drop(batched);
        let ra = Cole::open(&dir_a, config).unwrap();
        let rb = Cole::open(&dir_b, config).unwrap();
        assert_eq!(ra.memtable_len(), rb.memtable_len());
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn group_commit_batches_wal_fsyncs_and_recovers() {
        let dir = tmpdir("groupcommit");
        let config = ColeConfig::default()
            .with_memtable_capacity(1024) // no flush: blocks live in the WAL
            .with_wal_enabled(true)
            .with_wal_sync_policy(WalSyncPolicy::GroupCommit {
                max_blocks: 4,
                max_bytes: 1 << 20,
            });
        let pre_root;
        {
            let mut cole = Cole::open(&dir, config).unwrap();
            for blk in 1..=10u64 {
                cole.begin_block(blk).unwrap();
                cole.put(addr(blk), StateValue::from_u64(blk * 3)).unwrap();
                cole.finalize_block().unwrap();
            }
            let m = cole.metrics();
            assert_eq!(m.wal_appends, 10);
            assert_eq!(m.wal_fsyncs, 2, "10 appends → two groups of 4, 2 pending");
            pre_root = cole.state_root();
            // Process crash: dropped without flush.
        }
        let mut recovered = Cole::open(&dir, config).unwrap();
        assert_eq!(recovered.current_block_height(), 10);
        assert_eq!(recovered.state_root(), pre_root);
        for blk in 1..=10u64 {
            assert_eq!(
                recovered.get(addr(blk)).unwrap(),
                Some(StateValue::from_u64(blk * 3)),
                "block {blk} lost under group commit (process crash loses nothing)"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn always_policy_fsyncs_every_block() {
        let dir = tmpdir("alwaysfsync");
        let config = ColeConfig::default()
            .with_memtable_capacity(1024)
            .with_wal_enabled(true);
        let mut cole = Cole::open(&dir, config).unwrap();
        for blk in 1..=6u64 {
            cole.begin_block(blk).unwrap();
            cole.put(addr(blk), StateValue::from_u64(blk)).unwrap();
            cole.finalize_block().unwrap();
        }
        let m = cole.metrics();
        assert_eq!(m.wal_appends, 6);
        assert_eq!(m.wal_fsyncs, 6, "Always = one fsync per finalized block");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_stats_reflect_flushed_data() {
        let dir = tmpdir("stats");
        let mut cole = Cole::open(&dir, small_config()).unwrap();
        cole.begin_block(1).unwrap();
        for a in 0..100u64 {
            cole.put(addr(a), StateValue::from_u64(a)).unwrap();
        }
        cole.finalize_block().unwrap();
        let stats = cole.storage_stats().unwrap();
        assert!(stats.data_bytes > 0);
        assert!(stats.index_bytes > 0);
        assert_eq!(cole.name(), "COLE");
        std::fs::remove_dir_all(&dir).ok();
    }
}
