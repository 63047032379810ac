//! Golden digests: a fixed tiny SmallBank chain must produce exactly these
//! state roots and this proof encoding, forever.
//!
//! Every constant below was captured on the commit *before* the SHA-NI
//! kernel landed (scalar SHA-256 only). `Hstate` is what blockchain nodes
//! agree on, so a hashing, Bloom, Merkle or proof-encoding change that moves
//! one of these is a consensus change and must be made on purpose — never
//! as the side effect of a faster kernel.

use cole::prelude::*;
use cole_hash::sha256;
use cole_workloads::{execute_block, Block, SmallBank};

const COLE_HSTATE: &str = "0xc3918f78e35d04427c4f1187d43b8f90917a53b0fcaffee562db3d34d16187a1";
const ASYNC_COLE_HSTATE: &str =
    "0x250a2e77fcba8968fb47733c0c0cfe7a33533e1a606f90f1033f7456342c41cd";
/// Provenance of a hot account over the whole chain: the memtable proof
/// plus three searched runs.
const HOT_PROOF: (usize, &str) = (
    3177,
    "0x1cd2249cfa6008fff5a33d0ae01a2aa6e87362868f1b2689bab6b12f652d7931",
);
/// Provenance of an address never written: every run discloses its Bloom
/// filter, so this pins the filter serialization too.
const GHOST_PROOF: (usize, &str) = (
    1797,
    "0xb3476071e89171f327701347eba7aed770be5551efe87d0743eed6a7676044f1",
);

const ACCOUNTS: u64 = 64;
const LAST_HEIGHT: u64 = 44;

/// 4 set-up blocks of 16 account writes, then 40 blocks of 8 transfers.
fn chain() -> Vec<Block> {
    let mut bank = SmallBank::new(ACCOUNTS, 42);
    let mut blocks = bank.setup_blocks(1, 1_000, 16);
    let first = blocks.len() as u64 + 1;
    blocks.extend((first..=LAST_HEIGHT).map(|height| bank.next_block(height, 8)));
    blocks
}

/// Small enough that the chain flushes and merges across several levels.
fn config() -> ColeConfig {
    ColeConfig::default()
        .with_memtable_capacity(32)
        .with_size_ratio(3)
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cole-it-golden-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn drive(engine: &mut dyn AuthenticatedStorage) -> Digest {
    let mut hstate = Digest::ZERO;
    for block in chain() {
        hstate = execute_block(engine, &block).unwrap().hstate;
    }
    hstate
}

#[test]
fn cole_hstate_and_proof_bytes_are_pinned() {
    let dir = tmpdir("cole");
    let mut store = Cole::open(&dir, config()).unwrap();
    let hstate = drive(&mut store);
    assert_eq!(hstate.to_string(), COLE_HSTATE);

    let hot = SmallBank::new(ACCOUNTS, 42).account(3);
    let ghost = Address::from_low_u64(0xdead);
    for (addr, versions, (len, digest)) in [(hot, 9, HOT_PROOF), (ghost, 0, GHOST_PROOF)] {
        let result = store.prov_query(addr, 1, LAST_HEIGHT).unwrap();
        assert_eq!(result.values.len(), versions);
        assert!(store
            .verify_prov(addr, 1, LAST_HEIGHT, &result, hstate)
            .unwrap());
        assert_eq!(result.proof.len(), len);
        assert_eq!(sha256(&result.proof).to_string(), digest);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn async_cole_hstate_is_pinned() {
    let dir = tmpdir("async");
    let mut store = AsyncCole::open(&dir, config()).unwrap();
    let hstate = drive(&mut store);
    assert_eq!(hstate.to_string(), ASYNC_COLE_HSTATE);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
