//! Adversarial tests of COLE's provenance proofs: a malicious full node must
//! not be able to hide versions, move them to other blocks, splice proof
//! components or replay proofs for a different query without the client
//! noticing.

use cole::cole_core::{ColeProof, ComponentProof};
use cole::prelude::*;
use cole_workloads::{execute_block, Block, Transaction};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cole-it-adv-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Builds a store where `target` is written at every even block height.
fn build_store(dir: &std::path::Path) -> (Cole, Address, Digest) {
    let config = ColeConfig::default()
        .with_memtable_capacity(64)
        .with_size_ratio(3);
    let mut store = Cole::open(dir, config).unwrap();
    let target = Address::from_low_u64(7);
    let mut hstate = Digest::ZERO;
    for height in 1..=60u64 {
        let mut transactions = vec![Transaction::Write {
            addr: Address::from_low_u64(1000 + height),
            value: StateValue::from_u64(height),
        }];
        if height % 2 == 0 {
            transactions.push(Transaction::Write {
                addr: target,
                value: StateValue::from_u64(height * 10),
            });
        }
        let block = Block {
            height,
            transactions,
        };
        hstate = execute_block(&mut store, &block).unwrap().hstate;
    }
    (store, target, hstate)
}

#[test]
fn omitting_a_version_is_detected() {
    let dir = tmpdir("omit");
    let (store, target, hstate) = build_store(&dir);
    let result = store.prov_query(target, 10, 30).unwrap();
    assert!(result.values.len() >= 5);
    // The node answers honestly but tries to hide one version from the
    // result list (e.g. to conceal a past balance).
    let mut censored = result.clone();
    censored.values.remove(2);
    assert!(!store
        .verify_prov(target, 10, 30, &censored, hstate)
        .unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn moving_a_version_to_another_block_is_detected() {
    let dir = tmpdir("move");
    let (store, target, hstate) = build_store(&dir);
    let result = store.prov_query(target, 10, 30).unwrap();
    let mut shifted = result.clone();
    let first = shifted.values[0];
    shifted.values[0] = VersionedValue::new(first.block_height - 1, first.value);
    assert!(!store.verify_prov(target, 10, 30, &shifted, hstate).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replaying_a_proof_for_a_different_range_or_address_fails() {
    let dir = tmpdir("replay");
    let (store, target, hstate) = build_store(&dir);
    let result = store.prov_query(target, 10, 30).unwrap();
    // Same proof, different range: either the proof structure no longer
    // matches (error) or the result set disagrees (false).
    if let Ok(ok) = store.verify_prov(target, 10, 40, &result, hstate) {
        assert!(!ok)
    }
    // Same proof, different address.
    let other = Address::from_low_u64(8);
    if let Ok(ok) = store.verify_prov(other, 10, 30, &result, hstate) {
        assert!(!ok)
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn splicing_proof_components_is_detected() {
    let dir = tmpdir("splice");
    let (store, target, hstate) = build_store(&dir);
    let result = store.prov_query(target, 10, 30).unwrap();
    let parsed = ColeProof::from_bytes(&result.proof).unwrap();
    assert!(parsed.components.len() >= 2);

    // Dropping a component breaks Hstate reconstruction.
    let mut dropped = parsed.clone();
    dropped.components.pop();
    let forged = ProvenanceResult {
        values: result.values.clone(),
        proof: dropped.to_bytes(),
    };
    if let Ok(ok) = store.verify_prov(target, 10, 30, &forged, hstate) {
        assert!(!ok)
    }

    // Declaring a searched run "unsearched" without the early-stop
    // justification is rejected as well.
    let mut laundered = parsed.clone();
    for component in &mut laundered.components {
        if let ComponentProof::RunSearched { .. } = component {
            *component = ComponentProof::RunUnsearched {
                commitment: Digest::new([0u8; 32]),
            };
            break;
        }
    }
    let forged = ProvenanceResult {
        values: result.values,
        proof: laundered.to_bytes(),
    };
    if let Ok(ok) = store.verify_prov(target, 10, 30, &forged, hstate) {
        assert!(!ok)
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn proof_for_old_state_root_fails_after_new_blocks() {
    let dir = tmpdir("stale");
    let (mut store, target, old_hstate) = build_store(&dir);
    // Chain advances; the old digest no longer commits to the storage.
    store.begin_block(61).unwrap();
    store.put(target, StateValue::from_u64(999_999)).unwrap();
    let new_hstate = store.finalize_block().unwrap();
    assert_ne!(old_hstate, new_hstate);
    let result = store.prov_query(target, 10, 30).unwrap();
    assert!(store
        .verify_prov(target, 10, 30, &result, new_hstate)
        .unwrap());
    assert!(!store
        .verify_prov(target, 10, 30, &result, old_hstate)
        .unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// `verify_prov` on a forged proof must come back with `Err` or `Ok(false)`.
fn assert_rejected(store: &Cole, addr: Address, forged: &ColeProof, hstate: Digest) {
    let forged = ProvenanceResult {
        values: Vec::new(),
        proof: forged.to_bytes(),
    };
    if let Ok(ok) = store.verify_prov(addr, 10, 30, &forged, hstate) {
        assert!(!ok);
    }
}

#[test]
fn forged_bloom_disclosures_are_rejected_without_panicking() {
    let dir = tmpdir("forged-bloom");
    let (store, _, hstate) = build_store(&dir);
    // An address no run contains: the honest proof discloses run filters.
    let ghost = Address::from_low_u64(0xdead_beef);
    let result = store.prov_query(ghost, 10, 30).unwrap();
    assert!(store.verify_prov(ghost, 10, 30, &result, hstate).unwrap());
    let honest = ColeProof::from_bytes(&result.proof).unwrap();
    let disclosed = honest
        .components
        .iter()
        .position(|c| matches!(c, ComponentProof::RunBloomNegative { .. }))
        .expect("a run is skipped by its filter");
    let replace_bloom = |bytes: Vec<u8>| {
        let mut forged = honest.clone();
        if let ComponentProof::RunBloomNegative { bloom, .. } = &mut forged.components[disclosed] {
            *bloom = bytes.into();
        }
        forged
    };
    let ComponentProof::RunBloomNegative { bloom, .. } = &honest.components[disclosed] else {
        unreachable!()
    };

    // A header-only filter with zero bits and one hash function: probing it
    // used to divide by zero inside the *client*.
    let mut zero_bits = vec![0u8; 24];
    zero_bits[8] = 1;
    assert_rejected(&store, ghost, &replace_bloom(zero_bits), hstate);

    // The honest filter with only the upper half of `num_hashes` changed:
    // used to decode to the very same filter.
    let mut upper_bits = bloom.to_vec();
    upper_bits[12] = 1;
    assert_rejected(&store, ghost, &replace_bloom(upper_bits), hstate);

    // More hash functions than any honest filter has.
    let mut many_hashes = bloom.to_vec();
    many_hashes[8] = 200;
    assert_rejected(&store, ghost, &replace_bloom(many_hashes), hstate);

    // An all-zero filter of the honest size excludes everything, but it is
    // not the filter the run committed to.
    let mut emptied = bloom.to_vec();
    emptied[24..].fill(0);
    assert_rejected(&store, ghost, &replace_bloom(emptied), hstate);

    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
