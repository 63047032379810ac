//! Adversarial tests of COLE's provenance proofs: a malicious full node must
//! not be able to hide versions, move them to other blocks, splice proof
//! components or replay proofs for a different query without the client
//! noticing.

use cole::cole_core::{ColeProof, ComponentProof};
use cole::cole_hash::{hash_entry, sha256};
use cole::cole_mht::RangeProof;
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
fn repeating_a_version_is_detected() {
    let dir = tmpdir("repeat");
    let (store, target, hstate) = build_store(&dir);
    let result = store.prov_query(target, 10, 30).unwrap();
    assert!(store.verify_prov(target, 10, 30, &result, hstate).unwrap());
    // The node lists one version twice (e.g. to double-count a deposit).
    let mut repeated = result.clone();
    repeated.values.insert(1, repeated.values[0]);
    assert!(!store
        .verify_prov(target, 10, 30, &repeated, hstate)
        .unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reordering_versions_is_detected() {
    let dir = tmpdir("reorder");
    let (store, target, hstate) = build_store(&dir);
    let result = store.prov_query(target, 10, 30).unwrap();
    assert!(result.values.len() >= 2);
    // The node lists the versions oldest first, so a client reading the
    // first entry as the latest gets the oldest.
    let mut reversed = result.clone();
    reversed.values.reverse();
    assert!(!store
        .verify_prov(target, 10, 30, &reversed, hstate)
        .unwrap());
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

/// `verify_prov` of a forged proof claiming `values` for `addr` in
/// `[10, 30]` must come back with `Err` or `Ok(false)`.
fn assert_rejected(
    store: &Cole,
    addr: Address,
    values: &[VersionedValue],
    forged: &ColeProof,
    hstate: Digest,
) {
    let forged = ProvenanceResult {
        values: values.to_vec(),
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
    // An address no run contains: the engine proves its absence by search
    // and never discloses a filter.
    let ghost = Address::from_low_u64(0xdead_beef);
    let result = store.prov_query(ghost, 10, 30).unwrap();
    assert!(store.verify_prov(ghost, 10, 30, &result, hstate).unwrap());
    let honest = ColeProof::from_bytes(&result.proof).unwrap();
    let (index, merkle_root, bloom_digest) = honest
        .components
        .iter()
        .enumerate()
        .find_map(|(index, component)| match component {
            ComponentProof::RunSearched {
                entries,
                merkle_proof,
                bloom_digest,
            } => {
                let leaves: Vec<Digest> = entries.iter().map(|(k, v)| hash_entry(k, v)).collect();
                Some((
                    index,
                    merkle_proof.compute_root(&leaves).unwrap(),
                    *bloom_digest,
                ))
            }
            _ => None,
        })
        .expect("a run was searched");
    // The searched run's own filter, read from its `.blm` file.
    let filter = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "blm"))
        .map(|path| std::fs::read(path).unwrap())
        .find(|bytes| sha256(bytes) == bloom_digest)
        .expect("every searched run's filter is on disk");

    // The paper's proof of absence (footnote 1, tag 3) in place of the
    // searched bracket: the true filter under the true Merkle root, and a
    // header-only filter with zero bits that used to divide by zero inside
    // the client. Neither is accepted, and neither filter is parsed.
    let mut zero_bits = vec![0u8; 24];
    zero_bits[8] = 1;
    for bloom in [filter, zero_bits] {
        let mut disclosed = honest.clone();
        disclosed.components[index] = ComponentProof::RunBloomNegative {
            bloom: bloom.into(),
            merkle_root,
        };
        let forged = ProvenanceResult {
            values: Vec::new(),
            proof: disclosed.to_bytes(),
        };
        assert!(!store.verify_prov(ghost, 10, 30, &forged, hstate).unwrap());
    }

    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// `proof` re-encoded with its shape fields rewritten, as a forger would:
/// the verifier must not trust any of them.
fn reshaped(proof: &RangeProof, num_leaves: u64, first: u64, last: u64) -> RangeProof {
    let mut bytes = proof.to_bytes();
    bytes[..8].copy_from_slice(&num_leaves.to_le_bytes());
    bytes[16..24].copy_from_slice(&first.to_le_bytes());
    bytes[24..32].copy_from_slice(&last.to_le_bytes());
    RangeProof::from_bytes(&bytes).unwrap()
}

#[test]
fn absence_by_search_forgeries_are_rejected() {
    let dir = tmpdir("forged-search");
    let (store, target, hstate) = build_store(&dir);

    // A bracket that does not straddle the queried range. `gap` sorts
    // between `target` and the 1000+ addresses, so its honest brackets
    // prove its absence; a Merkle-valid bracket of another address from the
    // same run, lying wholly above `gap`'s range, must not.
    let gap = Address::from_low_u64(500);
    let upper = CompoundKey::new(gap, 31);
    let honest_gap = store.prov_query(gap, 10, 30).unwrap();
    assert!(store.verify_prov(gap, 10, 30, &honest_gap, hstate).unwrap());
    let honest_gap = ColeProof::from_bytes(&honest_gap.proof).unwrap();
    let mut spliced = 0;
    for height in (1..=60u64).step_by(3) {
        let other = store
            .prov_query(Address::from_low_u64(1000 + height), 1, 60)
            .unwrap();
        let other = ColeProof::from_bytes(&other.proof).unwrap();
        for (index, component) in other.components.iter().enumerate() {
            let ComponentProof::RunSearched {
                entries,
                merkle_proof,
                ..
            } = component
            else {
                continue;
            };
            let above = merkle_proof.range().0 > 0 && entries[0].0 > upper;
            if !above
                || !matches!(
                    honest_gap.components[index],
                    ComponentProof::RunSearched { .. }
                )
            {
                continue;
            }
            let mut forged = honest_gap.clone();
            forged.components[index] = component.clone();
            assert_rejected(&store, gap, &[], &forged, hstate);
            spliced += 1;
        }
    }
    assert!(spliced > 0, "no bracket lay wholly above the gap");

    // The two remaining forgeries hide versions of `target` held by one
    // searched run.
    let result = store.prov_query(target, 10, 30).unwrap();
    let honest = ColeProof::from_bytes(&result.proof).unwrap();
    let in_range = |k: &CompoundKey| k.address() == target && (10..=30).contains(&k.block_height());
    let (index, entries, merkle_proof) = honest
        .components
        .iter()
        .enumerate()
        .find_map(|(index, component)| match component {
            ComponentProof::RunSearched {
                entries,
                merkle_proof,
                ..
            } if entries.len() >= 3 && entries[1..].iter().any(|(k, _)| in_range(k)) => {
                Some((index, entries, merkle_proof))
            }
            _ => None,
        })
        .expect("a run holds versions of the target in range");
    let (first, _) = merkle_proof.range();
    let with_run = |kept: &[(CompoundKey, StateValue)], merkle_proof: RangeProof| {
        let mut forged = honest.clone();
        let ComponentProof::RunSearched { bloom_digest, .. } = honest.components[index] else {
            unreachable!()
        };
        forged.components[index] = ComponentProof::RunSearched {
            entries: kept.to_vec(),
            merkle_proof,
            bloom_digest,
        };
        // The claimed answer leaves out exactly what the forgery hides.
        let hidden: Vec<u64> = entries
            .iter()
            .filter(|(k, _)| in_range(k) && !kept.iter().any(|(kk, _)| kk == k))
            .map(|(k, _)| k.block_height())
            .collect();
        assert!(!hidden.is_empty());
        let claimed: Vec<VersionedValue> = result
            .values
            .iter()
            .filter(|v| !hidden.contains(&v.block_height))
            .copied()
            .collect();
        (forged, claimed)
    };

    // A present version hidden by proving its two neighbours as if they
    // were adjacent.
    let neighbours = [entries[0], entries[entries.len() - 1]];
    let (forged, claimed) = with_run(
        &neighbours,
        reshaped(merkle_proof, merkle_proof.num_leaves(), first, first + 1),
    );
    assert_rejected(&store, target, &claimed, &forged, hstate);

    // A forged `num_leaves` claiming the run ended right after the oldest
    // version in range, which waives the right-boundary check.
    let (forged, claimed) = with_run(
        &entries[..2],
        reshaped(merkle_proof, first + 2, first, first + 1),
    );
    assert_rejected(&store, target, &claimed, &forged, hstate);

    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// A hand-encoded `RangeProof`: the shape header, then per layer the
/// `(left, right)` sibling counts followed by that many zero digests.
fn merkle_bytes(
    num_leaves: u64,
    fanout: u64,
    first: u64,
    last: u64,
    layers: &[(u32, u32)],
) -> Vec<u8> {
    let mut out = Vec::new();
    for field in [num_leaves, fanout, first, last] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    out.extend_from_slice(&(layers.len() as u32).to_le_bytes());
    for &(left, right) in layers {
        out.extend_from_slice(&left.to_le_bytes());
        out.extend_from_slice(&right.to_le_bytes());
        out.resize(out.len() + 32 * (left + right) as usize, 0);
    }
    out
}

/// A hand-encoded one-component `ColeProof`: a searched run holding one
/// entry, proven by `merkle` (raw `RangeProof` bytes).
fn searched_run_bytes(merkle: &[u8]) -> Vec<u8> {
    let mut out = 1u32.to_le_bytes().to_vec();
    out.push(2);
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&CompoundKey::new(Address::from_low_u64(7), 9).to_bytes());
    out.extend_from_slice(StateValue::from_u64(1).as_bytes());
    out.extend_from_slice(&(merkle.len() as u32).to_le_bytes());
    out.extend_from_slice(merkle);
    out.extend_from_slice(&[0u8; 32]);
    out
}

#[test]
fn malformed_merkle_shapes_are_rejected_without_panicking() {
    let dir = tmpdir("merkle-shapes");
    let (store, target, hstate) = build_store(&dir);
    let check = |merkle: Vec<u8>| {
        let forged = ProvenanceResult {
            values: Vec::new(),
            proof: searched_run_bytes(&merkle),
        };
        if let Ok(ok) = store.verify_prov(target, 10, 30, &forged, hstate) {
            assert!(!ok);
        }
        RangeProof::from_bytes(&merkle)
    };
    // Shapes no honest tree has are refused by the decoder. `first > last`
    // used to underflow inside the verifier.
    for (num_leaves, fanout, first, last) in
        [(8, 2, 3, 2), (4, 2, 0, 4), (4, 0, 0, 0), (4, 1, 0, 0)]
    {
        let decoded = check(merkle_bytes(num_leaves, fanout, first, last, &[]));
        assert!(
            decoded.is_err(),
            "[{first}, {last}] of {num_leaves} leaves, fanout {fanout}"
        );
    }
    // Shapes that decode but whose arithmetic used to overflow: a tree
    // whose node count does not fit in u64, and a fanout so wide that the
    // boundary group's end does not either.
    let wide = (1u64 << 63) + 1;
    for merkle in [
        merkle_bytes(u64::MAX, 2, 0, 0, &[]),
        merkle_bytes(wide + 1, wide, wide, wide, &[(0, 0), (1, 0)]),
    ] {
        assert!(check(merkle).is_ok());
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Proofs whose length fields claim far more elements than their bytes can
/// hold. Each used to reserve memory for the claim before failing: 137 GB
/// (an abort) for the sibling count, ≈ 1 GB, ≈ 100 MB and 64 MB for the
/// others.
fn oversized_length_claims() -> Vec<(&'static str, Vec<u8>)> {
    let mut siblings = merkle_bytes(4, 2, 0, 0, &[]);
    siblings[32..36].copy_from_slice(&1u32.to_le_bytes());
    siblings.extend_from_slice(&u32::MAX.to_le_bytes());
    siblings.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(siblings.len(), 44);

    let mut entries = 1u32.to_le_bytes().to_vec();
    entries.push(2);
    entries.extend_from_slice(&(1u32 << 24).to_le_bytes());

    let mut leaf = 1u32.to_le_bytes().to_vec();
    leaf.push(0);
    leaf.extend_from_slice(&5u32.to_le_bytes());
    leaf.push(0);
    leaf.extend_from_slice(&(1u32 << 20).to_le_bytes());

    vec![
        ("merkle sibling count", searched_run_bytes(&siblings)),
        ("run entry count", entries),
        ("component count", (1u32 << 20).to_le_bytes().to_vec()),
        ("MB-tree leaf size", leaf),
    ]
}

/// The process's peak virtual memory size, where the OS reports it.
fn vm_peak_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmPeak:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

const LENGTH_CLAIMS_CHILD: &str = "decode_oversized_length_claims";

#[test]
fn length_claims_beyond_the_bytes_are_refused_before_allocating() {
    // A failed reservation aborts the process, which no test harness can
    // catch, so the decodes run in a child: this test binary, re-run on the
    // ignored test below alone.
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            LENGTH_CLAIMS_CHILD,
            "--exact",
            "--ignored",
            "--test-threads=1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "decoding in a child process failed ({}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
#[ignore = "run alone in a child process by length_claims_beyond_the_bytes_are_refused_before_allocating"]
fn decode_oversized_length_claims() {
    let claims = oversized_length_claims();
    let before = vm_peak_kib();
    for (what, bytes) in &claims {
        assert!(ColeProof::from_bytes(bytes).is_err(), "{what}");
    }
    // The peak is process-wide, so it says something only when this test
    // runs alone (as the parent test above runs it).
    let alone = std::env::args().any(|arg| arg == "--exact");
    if let (Some(before), Some(after), true) = (before, vm_peak_kib(), alone) {
        assert!(
            after - before < 16 * 1024,
            "decoding reserved {} KiB for forged lengths",
            after - before
        );
    }
}
