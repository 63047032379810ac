//! Real-process crash test: a child process ingests blocks with a
//! fully-synced WAL while the parent `SIGKILL`s it mid-flush, then the
//! parent reopens the store and verifies nothing synced was lost.
//!
//! The in-process kill-point tests (`tests/crash_injection.rs`,
//! `failpoint.rs`) stop the write path at *chosen* instructions; this
//! harness is the complementary blunt instrument — the kill lands at a
//! genuinely arbitrary point in a live flush/merge, page-cache state and
//! OS buffers included, exactly like a `kill -9` or power cut in
//! production. No kill point, no cooperation from the victim.
//!
//! Protocol: the child (the `#[ignore]`d `crash_child_writer` test,
//! re-invoked by path in this same binary) appends one line per
//! finalized block to `progress.txt` — write, fsync, then next block —
//! so every height recorded there was finalized *and* WAL-fsynced
//! (`WalSyncPolicy::Always`) strictly before the line appeared. The
//! parent waits for enough progress, kills, reopens, and checks the
//! recovered height and every recorded block's value and proof.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use cole_core::{compute_hstate, Cole, ColeConfig};
use cole_primitives::{Address, AuthenticatedStorage, StateValue};
use cole_storage::WalSyncPolicy;

const CHILD_DIR_ENV: &str = "COLE_CRASH_CHILD_DIR";
/// Blocks the parent waits for before pulling the trigger — enough that
/// the 16-entry memtable has flushed dozens of times.
const KILL_AFTER_BLOCKS: u64 = 48;

fn config() -> ColeConfig {
    ColeConfig::default()
        .with_memtable_capacity(16)
        .with_size_ratio(3)
        .with_wal_enabled(true)
        .with_wal_sync_policy(WalSyncPolicy::Always)
}

fn addr(height: u64) -> Address {
    Address::from_low_u64(height)
}

fn value(height: u64) -> StateValue {
    StateValue::from_u64(height.wrapping_mul(7).wrapping_add(1))
}

/// Filler traffic so each block carries more than its marker entry and
/// flushes stay frequent.
fn filler(height: u64, i: u64) -> Address {
    Address::from_low_u64(
        1_000_000_u64
            .wrapping_add(height.wrapping_mul(8))
            .wrapping_add(i),
    )
}

/// The victim: not a test of anything by itself (hence `#[ignore]`), but
/// the writer body the parent launches as a separate OS process. Runs
/// until killed (or a generous bound, if the parent dies first).
#[test]
#[ignore = "child half of kill_nine_mid_flush_loses_nothing_synced; run by the parent test"]
fn crash_child_writer() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else {
        return;
    };
    let mut cole = Cole::open(&dir, config()).expect("child open");
    let progress = PathBuf::from(&dir).join("progress.txt");
    for height in 1..=200_000u64 {
        cole.begin_block(height).expect("begin");
        cole.put(addr(height), value(height)).expect("put marker");
        for i in 0..3 {
            cole.put(filler(height, i), StateValue::from_u64(height))
                .expect("put filler");
        }
        cole.finalize_block().expect("finalize");
        // The WAL fsync above happens-before this record: a height in
        // progress.txt is a durability promise the parent will hold us to.
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&progress)
            .expect("open progress");
        writeln!(f, "{height}").expect("record height");
        f.sync_all().expect("sync progress");
    }
}

/// Last fully-written height in `progress.txt` (the kill can tear the
/// final line mid-write; earlier lines are fsynced and whole).
fn last_recorded_height(progress: &PathBuf) -> u64 {
    let text = std::fs::read_to_string(progress).unwrap_or_default();
    text.lines()
        .filter_map(|l| l.trim().parse::<u64>().ok())
        .max()
        .unwrap_or(0)
}

#[test]
fn kill_nine_mid_flush_loses_nothing_synced() {
    let dir = std::env::temp_dir().join(format!("cole-crash-proc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create test dir");
    let progress = dir.join("progress.txt");

    let exe = std::env::current_exe().expect("own test binary path");
    let mut child = Command::new(exe)
        .args(["crash_child_writer", "--exact", "--ignored", "--nocapture"])
        .env(CHILD_DIR_ENV, &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child writer");

    // Let the child build up real on-disk state: memtable flushes, level
    // merges, WAL resets. Then kill it wherever it happens to be.
    let deadline = Instant::now() + Duration::from_secs(60);
    while last_recorded_height(&progress) < KILL_AFTER_BLOCKS {
        assert!(
            Instant::now() < deadline,
            "child made no progress: {:?} blocks after 60s",
            last_recorded_height(&progress)
        );
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("child exited early with {status}; it should run until killed");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL the writer");
    child.wait().expect("reap the writer");

    let synced = last_recorded_height(&progress);
    assert!(synced >= KILL_AFTER_BLOCKS);

    // Reopen in-process: WAL replay + orphan GC must cope with whatever
    // half-written state the kill left behind.
    let mut recovered = Cole::open(&dir, config()).expect("reopen after kill -9");
    assert!(
        recovered.current_block_height() >= synced,
        "recovered height {} regressed below the last fsynced block {synced}",
        recovered.current_block_height()
    );
    for height in 1..=synced {
        assert_eq!(
            recovered.get(addr(height)).expect("get"),
            Some(value(height)),
            "block {height} was fsynced before the kill but its value is gone"
        );
    }

    // One authenticated read end-to-end: the recovered tree still proves
    // its answers against the recomputed state commitment.
    let hstate = compute_hstate(&recovered.root_hash_list());
    let probe = synced / 2;
    let result = recovered
        .prov_query(addr(probe), probe, probe)
        .expect("prov query");
    assert_eq!(result.values.len(), 1);
    assert_eq!(result.values[0].block_height, probe);
    assert!(
        recovered
            .verify_prov(addr(probe), probe, probe, &result, hstate)
            .expect("verify"),
        "recovered store must still produce verifying proofs"
    );

    // Writes continue past the crash.
    let next = recovered.current_block_height() + 1;
    recovered.begin_block(next).expect("begin after recovery");
    recovered.put(addr(next), value(next)).expect("put");
    recovered.finalize_block().expect("finalize after recovery");
    assert_eq!(recovered.get(addr(next)).expect("get"), Some(value(next)));

    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}
