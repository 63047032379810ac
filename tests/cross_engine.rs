//! Cross-engine integration tests: every storage engine must agree with a
//! simple in-memory oracle on query results, and the authenticated engines
//! must produce verifiable provenance proofs for the same workload.

use std::collections::HashMap;

use cole::prelude::*;
use cole_cmi::CmiStorage;
use cole_mpt::MptStorage;
use cole_workloads::{execute_block, Block, Transaction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A trivial reference implementation: the latest value and full history per
/// address.
#[derive(Default)]
struct Oracle {
    latest: HashMap<Address, StateValue>,
    history: HashMap<Address, Vec<(u64, StateValue)>>,
}

impl Oracle {
    fn apply(&mut self, block: &Block) {
        for tx in &block.transactions {
            if let Transaction::Write { addr, value } = tx {
                self.latest.insert(*addr, *value);
                let entry = self.history.entry(*addr).or_default();
                match entry.last_mut() {
                    Some((h, v)) if *h == block.height => *v = *value,
                    _ => entry.push((block.height, *value)),
                }
            }
        }
    }

    fn versions_in(&self, addr: Address, lo: u64, hi: u64) -> Vec<VersionedValue> {
        let mut out: Vec<VersionedValue> = self
            .history
            .get(&addr)
            .map(|h| {
                h.iter()
                    .filter(|(blk, _)| *blk >= lo && *blk <= hi)
                    .map(|(blk, v)| VersionedValue::new(*blk, *v))
                    .collect()
            })
            .unwrap_or_default();
        out.sort_by_key(|v| std::cmp::Reverse(v.block_height));
        out
    }
}

fn workload_blocks(blocks: u64, addresses: u64, writes_per_block: usize, seed: u64) -> Vec<Block> {
    let mut rng = StdRng::seed_from_u64(seed);
    (1..=blocks)
        .map(|height| Block {
            height,
            transactions: (0..writes_per_block)
                .map(|_| Transaction::Write {
                    addr: Address::from_low_u64(rng.gen_range(0..addresses)),
                    value: StateValue::from_u64(rng.gen()),
                })
                .collect(),
        })
        .collect()
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cole-it-cross-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_config() -> ColeConfig {
    ColeConfig::default()
        .with_memtable_capacity(128)
        .with_size_ratio(3)
}

/// Runs the same block sequence through an engine and the oracle and checks
/// that every address's latest value agrees.
fn check_engine_against_oracle(engine: &mut dyn AuthenticatedStorage, blocks: &[Block]) {
    let mut oracle = Oracle::default();
    for block in blocks {
        execute_block(engine, block).unwrap();
        oracle.apply(block);
    }
    engine.flush().unwrap();
    for (addr, expected) in &oracle.latest {
        assert_eq!(
            engine.get(*addr).unwrap().as_ref(),
            Some(expected),
            "{}: latest value mismatch for {addr}",
            engine.name()
        );
    }
    // Addresses never written must stay absent.
    for probe in 0..5u64 {
        let ghost = Address::from_low_u64(0xdead_0000 + probe);
        assert_eq!(engine.get(ghost).unwrap(), None, "{}", engine.name());
    }
}

#[test]
fn all_engines_agree_with_oracle_on_latest_values() {
    let blocks = workload_blocks(60, 40, 20, 1);
    let dir = tmpdir("cole");
    check_engine_against_oracle(&mut Cole::open(&dir, small_config()).unwrap(), &blocks);
    let dir = tmpdir("cole-async");
    check_engine_against_oracle(&mut AsyncCole::open(&dir, small_config()).unwrap(), &blocks);
    let dir = tmpdir("mpt");
    check_engine_against_oracle(&mut MptStorage::open(&dir).unwrap(), &blocks);
    let dir = tmpdir("cmi");
    check_engine_against_oracle(&mut CmiStorage::open(&dir).unwrap(), &blocks);
    let dir = tmpdir("lipp");
    check_engine_against_oracle(&mut cole_lipp::LippStorage::open(&dir).unwrap(), &blocks);
}

#[test]
fn cole_provenance_matches_oracle_and_verifies() {
    for async_mode in [false, true] {
        let blocks = workload_blocks(80, 15, 10, 2);
        let dir = tmpdir(if async_mode {
            "prov-async"
        } else {
            "prov-sync"
        });
        let mut engine: Box<dyn AuthenticatedStorage> = if async_mode {
            Box::new(AsyncCole::open(&dir, small_config()).unwrap())
        } else {
            Box::new(Cole::open(&dir, small_config()).unwrap())
        };
        let mut oracle = Oracle::default();
        let mut hstate = Digest::ZERO;
        for block in &blocks {
            hstate = execute_block(engine.as_mut(), block).unwrap().hstate;
            oracle.apply(block);
        }
        for addr_idx in 0..15u64 {
            let addr = Address::from_low_u64(addr_idx);
            for (lo, hi) in [(1u64, 80u64), (20, 35), (70, 80), (81, 90)] {
                let result = engine.prov_query(addr, lo, hi).unwrap();
                let expected = oracle.versions_in(addr, lo, hi);
                assert_eq!(
                    result.values,
                    expected,
                    "{} history mismatch for address {addr_idx} in [{lo}, {hi}]",
                    engine.name()
                );
                assert!(
                    engine.verify_prov(addr, lo, hi, &result, hstate).unwrap(),
                    "{} proof rejected for address {addr_idx} in [{lo}, {hi}]",
                    engine.name()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn cole_and_cole_star_remain_consistent_under_interleaved_reads() {
    let dir_a = tmpdir("interleave-a");
    let dir_b = tmpdir("interleave-b");
    let mut sync_engine = Cole::open(&dir_a, small_config()).unwrap();
    let mut async_engine = AsyncCole::open(&dir_b, small_config()).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for height in 1..=120u64 {
        sync_engine.begin_block(height).unwrap();
        async_engine.begin_block(height).unwrap();
        for _ in 0..8 {
            let addr = Address::from_low_u64(rng.gen_range(0..30));
            let value = StateValue::from_u64(rng.gen());
            sync_engine.put(addr, value).unwrap();
            async_engine.put(addr, value).unwrap();
            // Interleaved reads must observe identical state in both engines.
            let probe = Address::from_low_u64(rng.gen_range(0..30));
            assert_eq!(
                sync_engine.get(probe).unwrap(),
                async_engine.get(probe).unwrap()
            );
        }
        sync_engine.finalize_block().unwrap();
        async_engine.finalize_block().unwrap();
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// The proof-component kinds of Algorithm 8, for the coverage check below.
fn component_kind(c: &cole::cole_core::ComponentProof) -> &'static str {
    use cole::cole_core::ComponentProof as C;
    match c {
        C::MemSearched { .. } => "mem-searched",
        C::MemUnsearched { .. } => "mem-unsearched",
        C::RunSearched { .. } => "run-searched",
        C::RunBloomNegative { .. } => "run-bloom-negative",
        C::RunUnsearched { .. } => "run-unsearched",
    }
}

/// Drives `engine` block by block and, at every block boundary, asks the
/// live engine and a snapshot of it the same questions: values must agree
/// and provenance proofs must be byte-equal (and verify against the
/// snapshot's `Hstate`). Returns the component kinds seen and the largest
/// number of in-memory components in one proof.
fn check_live_against_snapshot<E>(
    mut engine: E,
) -> (std::collections::BTreeSet<&'static str>, usize)
where
    E: cole::cole_server::ServableEngine<Snapshot = Snapshot>,
{
    const BLOCKS: u64 = 60;
    let hot = Address::from_low_u64(7); // rewritten every block: early stops
    let cold = Address::from_low_u64(10); // written in block 1 only: on disk
    let ghost = Address::from_low_u64(0xdead_beef); // never written: absence by search
    let mut kinds = std::collections::BTreeSet::new();
    let mut max_mem_components = 0usize;
    for height in 1..=BLOCKS {
        engine.begin_block(height).unwrap();
        engine.put(hot, StateValue::from_u64(height)).unwrap();
        for w in 0..4u64 {
            let addr = Address::from_low_u64(height * 10 + w);
            engine
                .put(addr, StateValue::from_u64(height * 100 + w))
                .unwrap();
        }
        let hstate = engine.finalize_block().unwrap();
        let snap = engine.snapshot_at(height);
        assert_eq!(snap.hstate(), hstate, "{} block {height}", engine.name());

        let recent = Address::from_low_u64(height * 10);
        let older = Address::from_low_u64((height / 2).max(1) * 10 + 1);
        for addr in [hot, cold, ghost, recent, older] {
            assert_eq!(
                engine.get(addr).unwrap(),
                snap.get(addr).unwrap(),
                "{} get({addr}) at block {height}",
                engine.name()
            );
            for (lo, hi) in [(1, height), (height, height), (height / 2, height / 2 + 3)] {
                let live = engine.prov_query(addr, lo, hi).unwrap();
                let frozen = snap.prov_query(addr, lo, hi).unwrap();
                assert_eq!(live.values, frozen.values);
                assert!(
                    live.proof == frozen.proof,
                    "{} proof bytes for {addr} in [{lo}, {hi}] differ at block {height}",
                    engine.name()
                );
                assert!(engine.verify_prov(addr, lo, hi, &live, hstate).unwrap());
                let proof = cole::cole_core::ColeProof::from_bytes(&live.proof).unwrap();
                let mem = proof
                    .components
                    .iter()
                    .filter(|c| component_kind(c).starts_with("mem-"))
                    .count();
                max_mem_components = max_mem_components.max(mem);
                kinds.extend(proof.components.iter().map(component_kind));
            }
        }
    }
    (kinds, max_mem_components)
}

/// Pins "one read path": a live engine and its snapshot answer `get` with
/// the same value and `prov_query` with the same proof bytes, at every
/// block boundary of a run that flushes, merges and (COLE*) keeps a sealed
/// memtable group in flight — for present, absent, early-stopping and
/// never-written addresses, with one and with four memtable shards. Every
/// run is either searched or cut off by the early stop: absence is proven
/// by a searched Merkle range, never by disclosing a Bloom filter.
#[test]
fn live_engine_and_snapshot_answer_identically() {
    let all_run_kinds = ["run-searched", "run-unsearched"];
    let assert_no_disclosure = |kinds: &std::collections::BTreeSet<&str>, engine: &str| {
        assert!(
            !kinds.contains("run-bloom-negative"),
            "{engine}: a proof disclosed a Bloom filter"
        );
    };
    for shards in [1usize, 4] {
        let config = ColeConfig::default()
            .with_memtable_capacity(32)
            .with_size_ratio(3)
            .with_memtable_shards(shards);

        let dir = tmpdir(&format!("live-snap-sync-{shards}"));
        let (kinds, mem) = check_live_against_snapshot(Cole::open(&dir, config).unwrap());
        assert_eq!(mem, shards, "COLE has one in-memory group");
        for kind in all_run_kinds.iter().chain(&["mem-searched"]) {
            assert!(kinds.contains(kind), "COLE/{shards}: no {kind} component");
        }
        assert_no_disclosure(&kinds, &format!("COLE/{shards}"));
        std::fs::remove_dir_all(&dir).ok();

        let dir = tmpdir(&format!("live-snap-async-{shards}"));
        let (kinds, mem) = check_live_against_snapshot(AsyncCole::open(&dir, config).unwrap());
        assert_eq!(
            mem,
            2 * shards,
            "COLE* must have had a sealed group in flight"
        );
        for kind in all_run_kinds
            .iter()
            .chain(&["mem-searched", "mem-unsearched"])
        {
            assert!(kinds.contains(kind), "COLE*/{shards}: no {kind} component");
        }
        assert_no_disclosure(&kinds, &format!("COLE*/{shards}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
