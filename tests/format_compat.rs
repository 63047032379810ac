//! Runs written before the Merkle leaf layer stopped being stored still
//! open, prove and merge.
//!
//! `tests/fixtures/v2_store/` is the data directory of the chain and
//! configuration of `tests/golden_digests.rs` (WAL off, the default), as
//! written by commit `35ebf46` — the last commit whose runs store their
//! Merkle leaves (run metadata v2). It was captured by driving that chain
//! into `Cole::open(dir, config())` at that commit, dropping the engine
//! without a final flush, and copying `dir`: a manifest at block 43 over
//! three v2 runs, with block 44 left in the memtable and lost with it.

use std::path::{Path, PathBuf};

use cole::prelude::*;
use cole_hash::sha256;
use cole_workloads::{execute_block, Block, SmallBank};

/// `COLE_HSTATE` of `tests/golden_digests.rs`.
const COLE_HSTATE: &str = "0xc3918f78e35d04427c4f1187d43b8f90917a53b0fcaffee562db3d34d16187a1";
/// `HOT_PROOF` of `tests/golden_digests.rs`.
const HOT_PROOF: (usize, &str) = (
    3177,
    "0x1cd2249cfa6008fff5a33d0ae01a2aa6e87362868f1b2689bab6b12f652d7931",
);

const ACCOUNTS: u64 = 64;
const LAST_HEIGHT: u64 = 44;
/// Far enough past the fixture that every one of its v2 runs is merged
/// into a run written at HEAD.
const EXTENDED_HEIGHT: u64 = 120;

/// `golden_digests`' chain (heights 1..=44), continued to `last` with the
/// same generator.
fn chain(last: u64) -> Vec<Block> {
    let mut bank = SmallBank::new(ACCOUNTS, 42);
    let mut blocks = bank.setup_blocks(1, 1_000, 16);
    let first = blocks.len() as u64 + 1;
    blocks.extend((first..=last).map(|height| bank.next_block(height, 8)));
    blocks
}

/// `golden_digests`' configuration.
fn config() -> ColeConfig {
    ColeConfig::default()
        .with_memtable_capacity(32)
        .with_size_ratio(3)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cole-it-compat-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run id → metadata version of every run file in `dir`.
fn meta_versions(dir: &Path) -> Vec<(String, u32)> {
    let mut out: Vec<(String, u32)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "meta"))
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            (
                p.file_stem().unwrap().to_string_lossy().into_owned(),
                version,
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn parent_written_store_opens_replays_and_merges_with_new_runs() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_store");
    let dir = tmpdir("v2");
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    let fixture_runs = meta_versions(&dir);
    assert_eq!(fixture_runs.len(), 3, "{fixture_runs:?}");
    assert!(
        fixture_runs.iter().all(|(_, v)| *v == 2),
        "{fixture_runs:?}"
    );

    // Open at HEAD and replay the unflushed tail: the same Hstate, and the
    // same proof bytes, as a store built at HEAD from scratch.
    let mut store = Cole::open(&dir, config()).unwrap();
    let recovered = store.current_block_height();
    assert!(recovered < LAST_HEIGHT, "the fixture has an unflushed tail");
    let blocks = chain(EXTENDED_HEIGHT);
    let mut hstate = Digest::ZERO;
    for block in blocks.iter().filter(|b| b.height > recovered) {
        if block.height > LAST_HEIGHT {
            break;
        }
        hstate = execute_block(&mut store, block).unwrap().hstate;
    }
    assert_eq!(hstate.to_string(), COLE_HSTATE);
    let hot = SmallBank::new(ACCOUNTS, 42).account(3);
    let result = store.prov_query(hot, 1, LAST_HEIGHT).unwrap();
    assert_eq!(result.values.len(), 9);
    assert!(store
        .verify_prov(hot, 1, LAST_HEIGHT, &result, hstate)
        .unwrap());
    assert_eq!(result.proof.len(), HOT_PROOF.0);
    assert_eq!(sha256(&result.proof).to_string(), HOT_PROOF.1);

    // Keep ingesting until the v2 runs have been merged with v3 runs.
    for block in blocks.iter().filter(|b| b.height > LAST_HEIGHT) {
        hstate = execute_block(&mut store, block).unwrap().hstate;
    }
    let runs = meta_versions(&dir);
    assert!(runs.iter().all(|(_, v)| *v == 3), "{runs:?}");
    assert!(
        fixture_runs.iter().all(|old| !runs.contains(old)),
        "every fixture run must have been merged away: {runs:?}"
    );

    let fresh_dir = tmpdir("fresh");
    let mut fresh = Cole::open(&fresh_dir, config()).unwrap();
    let mut fresh_hstate = Digest::ZERO;
    for block in &blocks {
        fresh_hstate = execute_block(&mut fresh, block).unwrap().hstate;
    }
    assert_eq!(hstate, fresh_hstate);

    // The hot account's whole history is proven from the merged runs.
    let result = store.prov_query(hot, 1, EXTENDED_HEIGHT).unwrap();
    assert!(result.values.len() > 9);
    assert!(store
        .verify_prov(hot, 1, EXTENDED_HEIGHT, &result, hstate)
        .unwrap());
    assert_eq!(
        result,
        fresh.prov_query(hot, 1, EXTENDED_HEIGHT).unwrap(),
        "a migrated store answers and proves like a fresh one"
    );

    drop(store);
    drop(fresh);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh_dir).ok();
}
