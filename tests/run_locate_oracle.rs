//! The run read paths — `position_le`, `get_latest` and `range_with_proof`,
//! all built on one in-place search of the value pages — against a
//! `BTreeMap` oracle: runs of one page minus one, one page and one page plus
//! one entry (68 entries to a value page) and of several thousand entries,
//! Merkle fanouts 4 and 8 (8 does not divide 68, so leaf groups straddle
//! value pages), probes below the first key, above the last and around every
//! value-page edge, and the v2 runs of `tests/fixtures/v2_store`. Every
//! proof must verify against the run's Merkle root.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use cole::cole_core::{Run, RunBuilder, RunContext};
use cole::cole_hash::hash_entry;
use cole::prelude::*;

/// Entries per value-file page.
const ENTRIES_PER_PAGE: usize = 68;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cole-it-locate-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `n` entries over odd addresses with irregular gaps — so the learned
/// models err by up to ε and predictions land on either side of page
/// edges — and one to three versions each at even heights, so there is room
/// below, between and above every address and every version.
fn entries(n: usize) -> Vec<(CompoundKey, StateValue)> {
    (0u64..)
        .scan(1u64, |addr, i| {
            *addr += 2 * (1 + i * i % 97);
            Some((i, *addr))
        })
        .flat_map(|(i, a)| (1..=1 + i % 3).map(move |v| (a, 2 * v)))
        .take(n)
        .map(|(a, blk)| {
            let key = CompoundKey::new(Address::from_low_u64(a), blk);
            (key, StateValue::from_u64(a * 1000 + blk))
        })
        .collect()
}

/// The address right after `addr` in byte order.
fn next_address(addr: Address) -> Address {
    let mut bytes = *addr.as_bytes();
    for byte in bytes.iter_mut().rev() {
        let (sum, carry) = byte.overflowing_add(1);
        *byte = sum;
        if !carry {
            break;
        }
    }
    Address::new(bytes)
}

/// Probe keys: below the first key, above the last, and around the first,
/// last and both sides of every value-page edge — the key itself, the
/// neighbouring heights of its address, the address's lowest and latest
/// key, and the lowest and latest key of the next address.
fn probes(keys: &[CompoundKey]) -> Vec<CompoundKey> {
    let n = keys.len();
    let mut positions = vec![0, n - 1];
    for edge in (0..=n).step_by(ENTRIES_PER_PAGE) {
        positions.extend(
            [edge.wrapping_sub(1), edge, edge + 1]
                .into_iter()
                .filter(|&p| p < n),
        );
    }
    let mut probes = vec![
        CompoundKey::min_key(),
        CompoundKey::latest(Address::new([0xff; 20])),
    ];
    for p in positions {
        let key = keys[p];
        let (addr, blk) = (key.address(), key.block_height());
        let next = next_address(addr);
        probes.extend([
            key,
            CompoundKey::new(addr, blk.saturating_sub(1)),
            CompoundKey::new(addr, blk.saturating_add(1)),
            CompoundKey::new(addr, 0),
            CompoundKey::latest(addr),
            CompoundKey::new(next, 0),
            CompoundKey::latest(next),
        ]);
    }
    probes
}

/// Checks `run`, which holds exactly `entries`, against the oracle.
fn check_against_oracle(run: &Run, entries: &[(CompoundKey, StateValue)], what: &str) {
    let oracle: BTreeMap<CompoundKey, StateValue> = entries.iter().copied().collect();
    let keys: Vec<CompoundKey> = oracle.keys().copied().collect();
    let n = keys.len();
    assert_eq!(run.num_entries(), n as u64, "{what}");
    let position_le = |probe: &CompoundKey| keys.partition_point(|k| k <= probe).checked_sub(1);
    for probe in probes(&keys) {
        let expected = position_le(&probe);
        assert_eq!(
            run.position_le(&probe).unwrap(),
            expected.map(|p| p as u64),
            "{what}: position_le {probe:?}"
        );

        let addr = probe.address();
        let latest = oracle
            .range(CompoundKey::new(addr, 0)..=CompoundKey::latest(addr))
            .next_back()
            .map(|(k, v)| (*k, *v));
        assert_eq!(
            run.get_latest(&addr).unwrap(),
            latest,
            "{what}: get_latest {addr:?}"
        );

        // The scan runs from the last entry ≤ lower (or the first entry) to
        // the first entry > upper (or the last entry).
        let first = expected.unwrap_or(0);
        for upper in [
            probe,
            keys[(first + 3).min(n - 1)],
            CompoundKey::latest(addr),
        ] {
            let last = keys.partition_point(|k| *k <= upper).min(n - 1).max(first);
            let (scan, proof) = run.range_with_proof(&probe, &upper).unwrap();
            let range = format!("{what}: range [{probe:?}, {upper:?}]");
            assert_eq!(scan.first_pos, first as u64, "{range}");
            assert_eq!(scan.last_pos, last as u64, "{range}");
            assert_eq!(scan.entries, entries[first..=last], "{range}");
            let leaves: Vec<Digest> = scan.entries.iter().map(|(k, v)| hash_entry(k, v)).collect();
            assert_eq!(
                proof.compute_root(&leaves).unwrap(),
                run.merkle_root(),
                "{range}"
            );
        }
    }
}

#[test]
fn run_read_paths_match_a_btreemap_oracle() {
    let dir = tmpdir("sizes");
    let mut id = 0;
    for fanout in [4, 8] {
        let config = ColeConfig::default().with_mht_fanout(fanout);
        for n in [1, 67, 68, 69, 3001] {
            id += 1;
            let entries = entries(n);
            let mut builder =
                RunBuilder::create(&dir, id, n as u64, &config, RunContext::default()).unwrap();
            for (k, v) in &entries {
                builder.push(*k, *v).unwrap();
            }
            let built = builder.finish().unwrap();
            check_against_oracle(&built, &entries, &format!("built m={fanout} n={n}"));
            // Reopened through a page cache: the same answers and proofs.
            let reopened = Run::open(&dir, id, RunContext::from_config(&config)).unwrap();
            check_against_oracle(&reopened, &entries, &format!("reopened m={fanout} n={n}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stored_v2_runs_answer_and_prove_like_the_oracle() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_store");
    let dir = tmpdir("v2");
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
        if path.extension().is_some_and(|e| e == "meta") {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            ids.push(stem.trim_start_matches("run_").parse::<u64>().unwrap());
        }
    }
    assert_eq!(ids.len(), 3, "{ids:?}");
    for id in ids {
        let run = Run::open(&dir, id, RunContext::default()).unwrap();
        let entries: Vec<_> = run.iter_entries().unwrap().map(|e| e.unwrap()).collect();
        check_against_oracle(&run, &entries, &format!("v2 run {id}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}
