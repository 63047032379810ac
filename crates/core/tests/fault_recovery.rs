//! Regression tests for graceful degradation under injected transient
//! faults: a failed operation returns `Err` without corrupting in-memory or
//! on-disk state, and the same call succeeds once the fault clears.
//!
//! The headline case is a failed manifest commit: the engine must stay
//! usable **in place** (no drop-and-reopen), keep serving reads from the
//! intact memtable and the previously committed runs, and retry the flush
//! at the next block boundary.

use std::path::PathBuf;
use std::sync::Arc;

use cole_core::{AsyncCole, Cole, ColeConfig, FaultKind, FaultPlan, KillPoints};
use cole_primitives::{Address, AuthenticatedStorage, ColeError, Digest, StateValue};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cole-fault-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn small_config() -> ColeConfig {
    ColeConfig::default()
        .with_memtable_capacity(8)
        .with_size_ratio(2)
        .with_page_cache_pages(1)
        .with_wal_enabled(true)
}

fn addr(n: u64) -> Address {
    Address::from_low_u64(n)
}

/// Applies block `blk` writing 4 fresh addresses, returning the result of
/// `finalize_block`.
fn apply_block(cole: &mut Cole, blk: u64) -> cole_primitives::Result<cole_primitives::Digest> {
    cole.begin_block(blk)?;
    for a in 0..4u64 {
        cole.put(addr(blk * 10 + a), StateValue::from_u64(blk))?;
    }
    cole.finalize_block()
}

fn assert_all_readable(cole: &Cole, blocks: u64) {
    for blk in 1..=blocks {
        for a in 0..4u64 {
            assert_eq!(
                cole.get(addr(blk * 10 + a)).unwrap(),
                Some(StateValue::from_u64(blk)),
                "address {blk}/{a}"
            );
        }
    }
}

/// Satellite 1: a failed `manifest:commit` leaves the engine usable in
/// place. Reads keep working, the memtable is intact, the next block
/// boundary retries the flush successfully, and a reopen sees every
/// manifest-covered write.
#[test]
fn failed_manifest_commit_recovers_in_place() {
    let dir = tmpdir("manifest-commit");
    let faults = Arc::new(FaultPlan::new());
    let mut cole = Cole::open_with_faults(&dir, small_config(), Arc::clone(&faults)).unwrap();

    // Establish some committed on-disk state first.
    let mut blk = 0u64;
    while cole.metrics().flushes < 2 {
        blk += 1;
        apply_block(&mut cole, blk).unwrap();
    }
    let flushes_before = cole.metrics().flushes;

    // Arm a single transient I/O failure at the manifest commit point and
    // drive blocks until a flush is attempted and fails.
    faults.fail("manifest:commit", FaultKind::Io, 1);
    let failed_at = loop {
        blk += 1;
        match apply_block(&mut cole, blk) {
            Ok(_) => continue,
            Err(err) => {
                assert!(
                    matches!(err, ColeError::Io(_)),
                    "expected a transient I/O error, got: {err}"
                );
                break blk;
            }
        }
    };
    assert_eq!(faults.injected(), 1, "exactly one fault fired");
    assert_eq!(
        cole.metrics().flushes,
        flushes_before,
        "the failed flush must not count as completed"
    );

    // The engine is still usable in place: every write so far — including
    // the ones sitting in the un-flushed memtable — stays readable, and a
    // provenance query over committed history still answers.
    assert_all_readable(&cole, failed_at);
    let prov = cole.prov_query(addr(10), 1, failed_at).unwrap();
    assert_eq!(prov.values.len(), 1);

    // The fault has burned out, so the next block boundary retries the
    // flush and succeeds without any reopen.
    let mut hstate = None;
    while cole.metrics().flushes == flushes_before {
        blk += 1;
        hstate = Some(apply_block(&mut cole, blk).unwrap());
    }
    let hstate = hstate.unwrap();
    assert_all_readable(&cole, blk);
    let prov = cole.prov_query(addr(10), 1, blk).unwrap();
    assert!(cole.verify_prov(addr(10), 1, blk, &prov, hstate).unwrap());

    // Durability: a clean reopen recovers everything, orphans from the
    // failed attempt notwithstanding.
    drop(cole);
    let reopened = Cole::open(&dir, small_config()).unwrap();
    assert_all_readable(&reopened, blk);

    std::fs::remove_dir_all(&dir).ok();
}

/// ENOSPC at the manifest commit behaves the same as a generic transient
/// I/O error: classified as `ColeError::Io`, survivable in place.
#[test]
fn enospc_manifest_commit_is_survivable() {
    let dir = tmpdir("manifest-enospc");
    let faults = Arc::new(FaultPlan::new());
    let mut cole = Cole::open_with_faults(&dir, small_config(), Arc::clone(&faults)).unwrap();

    faults.fail("manifest:commit", FaultKind::Enospc, 1);
    let mut blk = 0u64;
    let err = loop {
        blk += 1;
        match apply_block(&mut cole, blk) {
            Ok(_) => continue,
            Err(err) => break err,
        }
    };
    assert!(matches!(err, ColeError::Io(_)), "got: {err}");

    // Space "freed": everything proceeds normally from here.
    while cole.metrics().flushes == 0 {
        blk += 1;
        apply_block(&mut cole, blk).unwrap();
    }
    assert_all_readable(&cole, blk);
    std::fs::remove_dir_all(&dir).ok();
}

/// A transient `page:read` fault fails one read-path call; the same get
/// succeeds on retry once the fault clears, with no state damage.
#[test]
fn transient_page_read_fault_clears() {
    let dir = tmpdir("page-read");
    let faults = Arc::new(FaultPlan::new());
    let mut cole = Cole::open_with_faults(&dir, small_config(), Arc::clone(&faults)).unwrap();

    let mut blk = 0u64;
    while cole.metrics().flushes < 1 {
        blk += 1;
        apply_block(&mut cole, blk).unwrap();
    }

    // The single-page cache means a get of old (flushed, evicted) data
    // must hit the disk, where the armed fault fires.
    faults.fail("page:read", FaultKind::Io, 1);
    let err = cole.get(addr(10)).unwrap_err();
    assert!(matches!(err, ColeError::Io(_)), "got: {err}");

    // Same call, fault burned out: succeeds with the right answer.
    assert_eq!(cole.get(addr(10)).unwrap(), Some(StateValue::from_u64(1)));
    assert_all_readable(&cole, blk);
    std::fs::remove_dir_all(&dir).ok();
}

/// A transient `wal:append` fault fails `finalize_block` before any flush
/// work; re-calling `finalize_block` retries the append and lands the
/// block durably.
#[test]
fn transient_wal_append_fault_clears() {
    let dir = tmpdir("wal-append");
    let faults = Arc::new(FaultPlan::new());
    let mut cole = Cole::open_with_faults(&dir, small_config(), Arc::clone(&faults)).unwrap();

    apply_block(&mut cole, 1).unwrap();

    faults.fail("wal:append", FaultKind::Io, 1);
    cole.begin_block(2).unwrap();
    cole.put(addr(20), StateValue::from_u64(2)).unwrap();
    let err = cole.finalize_block().unwrap_err();
    assert!(matches!(err, ColeError::Io(_)), "got: {err}");

    // The block's entries are still buffered: the retried finalize appends
    // them and the write is durable across a crash-style reopen.
    cole.finalize_block().unwrap();
    assert_eq!(cole.get(addr(20)).unwrap(), Some(StateValue::from_u64(2)));
    drop(cole);

    let reopened = Cole::open(&dir, small_config()).unwrap();
    assert_eq!(
        reopened.get(addr(20)).unwrap(),
        Some(StateValue::from_u64(2))
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------------ COLE*

/// Drives blocks `from..=to` of 4 fresh addresses each through a COLE*
/// engine the way a node does: a failed `finalize_block` is retried (the
/// contract is "the same call succeeds once the fault clears", and
/// `clear_fault` runs in between). Returns the per-block digests and how
/// many calls failed.
fn drive_async(
    engine: &mut AsyncCole,
    from: u64,
    to: u64,
    mut clear_fault: impl FnMut(),
) -> (Vec<Digest>, usize) {
    let mut digests = Vec::new();
    let mut failures = 0usize;
    for blk in from..=to {
        engine.begin_block(blk).unwrap();
        for a in 0..4u64 {
            engine
                .put(addr(blk * 10 + a), StateValue::from_u64(blk))
                .unwrap();
        }
        digests.push(match engine.finalize_block() {
            Ok(digest) => digest,
            Err(err) => {
                assert!(matches!(err, ColeError::Io(_)), "got: {err}");
                failures += 1;
                clear_fault();
                engine
                    .finalize_block()
                    .expect("the retried block boundary must succeed")
            }
        });
    }
    (digests, failures)
}

/// Checks a COLE* engine that survived one failed background build against
/// an un-faulted twin that ingested the same blocks: same per-block
/// digests, every finalized value readable live, the same `Hstate` once the
/// merges settle, and every value still there after a reopen.
fn assert_matches_unfaulted_twin(
    mut faulted: AsyncCole,
    dir: &std::path::Path,
    config: ColeConfig,
    digests: &[Digest],
    blocks: u64,
) {
    let twin_dir = dir.with_extension("twin");
    std::fs::remove_dir_all(&twin_dir).ok();
    let mut twin = AsyncCole::open(&twin_dir, config).unwrap();
    let (twin_digests, twin_failures) = drive_async(&mut twin, 1, blocks, || ());
    assert_eq!(twin_failures, 0);
    assert_eq!(digests, twin_digests, "Hstate diverged from the twin");

    let all_readable = |engine: &AsyncCole, when: &str| {
        for blk in 1..=blocks {
            for a in 0..4u64 {
                assert_eq!(
                    engine.get(addr(blk * 10 + a)).unwrap(),
                    Some(StateValue::from_u64(blk)),
                    "address {blk}/{a} lost {when}"
                );
            }
        }
    };
    all_readable(&faulted, "live");
    faulted.flush().unwrap();
    twin.flush().unwrap();
    assert_eq!(faulted.state_root(), twin.state_root(), "after settling");
    all_readable(&faulted, "after settling");
    drop(faulted);
    drop(twin);
    let reopened = AsyncCole::open(dir, config).unwrap();
    all_readable(&reopened, "after reopen");
    std::fs::remove_dir_all(dir).ok();
    std::fs::remove_dir_all(&twin_dir).ok();
}

/// A failed background *flush* is retried, never dropped. Before the fix
/// the failed join consumed the thread handle, the next block boundary
/// found a sealed memtable group with no thread, dropped the group, moved
/// `flushed_block` past its blocks and deleted their WAL segments: 16 of
/// 160 addresses read `None`, live and after reopen.
#[test]
fn async_failed_background_flush_is_retried_not_dropped() {
    let dir = tmpdir("async-flush-retry");
    let config = ColeConfig::default()
        .with_memtable_capacity(16)
        .with_size_ratio(2)
        .with_wal_enabled(true);
    let kill_points = Arc::new(KillPoints::new());
    kill_points.arm_at("async-flush:shard_drained", 0);
    let mut engine = AsyncCole::open_with_kill_points(&dir, config, Some(kill_points)).unwrap();
    let (digests, failures) = drive_async(&mut engine, 1, 40, || ());
    assert_eq!(
        failures, 1,
        "the one-shot kill point fails exactly one call"
    );
    assert_matches_unfaulted_twin(engine, &dir, config, &digests, 40);
}

/// A failed background *merge* is retried, never dropped: the level's
/// merging group stays live until a rebuilt run (fresh id) replaces it.
/// Before the fix the next roll of the level overwrote the merging group
/// (a `debug_assert!` in debug builds, lost runs in release). The merge
/// thread — and only it, a flush reads no run files — is made to fail by
/// moving one of its input files aside until the retry.
#[test]
fn async_failed_background_merge_is_retried_not_dropped() {
    let dir = tmpdir("async-merge-retry");
    let config = ColeConfig::default()
        .with_memtable_capacity(16)
        .with_size_ratio(2)
        .with_wal_enabled(true);
    let mut engine = AsyncCole::open(&dir, config).unwrap();
    // Run 0 is committed at block 8; level 1 first fills — and merges runs
    // 1 and 0 — at block 12.
    let (mut digests, failures) = drive_async(&mut engine, 1, 8, || ());
    assert_eq!((failures, engine.runs_in_level(1)), (0, 1));
    let (input, aside) = (dir.join("run_00000000.val"), dir.join("aside"));
    std::fs::rename(&input, &aside).unwrap();
    let (rest, failures) = drive_async(&mut engine, 9, 60, || {
        std::fs::rename(&aside, &input).unwrap();
    });
    assert_eq!(failures, 1, "the failed merge fails exactly one call");
    digests.extend(rest);
    assert_matches_unfaulted_twin(engine, &dir, config, &digests, 60);
}

/// API skew: COLE* opens with a fault plan too, and the plan reaches its
/// WAL. A `wal:append` fault fails `finalize_block` before any checkpoint
/// work; the retried block succeeds and the memtable is intact.
#[test]
fn async_transient_wal_append_fault_clears() {
    let dir = tmpdir("async-wal-append");
    let faults = Arc::new(FaultPlan::new());
    let mut engine =
        AsyncCole::open_with_faults(&dir, small_config(), Arc::clone(&faults)).unwrap();
    engine.begin_block(1).unwrap();
    engine.put(addr(10), StateValue::from_u64(1)).unwrap();
    engine.finalize_block().unwrap();

    faults.fail("wal:append", FaultKind::Io, 1);
    engine.begin_block(2).unwrap();
    engine.put(addr(20), StateValue::from_u64(2)).unwrap();
    let err = engine.finalize_block().unwrap_err();
    assert!(matches!(err, ColeError::Io(_)), "got: {err}");
    assert_eq!(faults.injected(), 1);
    assert_eq!(engine.memtable_len(), 2, "the memtable is intact");
    assert_eq!(engine.runs_in_level(1), 0);

    engine.finalize_block().unwrap();
    assert_eq!(engine.get(addr(20)).unwrap(), Some(StateValue::from_u64(2)));
    let root = engine.state_root();
    drop(engine);

    let mut reopened = AsyncCole::open(&dir, small_config()).unwrap();
    assert_eq!(
        reopened.get(addr(20)).unwrap(),
        Some(StateValue::from_u64(2))
    );
    assert_eq!(reopened.state_root(), root);
    std::fs::remove_dir_all(&dir).ok();
}
