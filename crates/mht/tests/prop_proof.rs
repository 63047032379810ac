//! Property-based tests of the m-ary Merkle file: any contiguous leaf range
//! of any tree shape yields a proof that reconstructs the root, tampering
//! with any covered leaf changes the reconstructed root, and a file without
//! its leaf layer proves byte for byte what the full file proves.

use cole_hash::sha256;
use cole_mht::{LeafLayer, MerkleFile, MerkleFileBuilder, RangeProof};
use cole_primitives::Digest;
use proptest::prelude::*;

fn build(leaves: &[Digest], fanout: u64, tag: &str) -> (MerkleFile, std::path::PathBuf) {
    build_with(leaves, fanout, LeafLayer::Stored, tag)
}

fn build_with(
    leaves: &[Digest],
    fanout: u64,
    leaf_layer: LeafLayer,
    tag: &str,
) -> (MerkleFile, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "cole-prop-mht-{}-{tag}-{}-{fanout}",
        std::process::id(),
        leaves.len()
    ));
    let mut builder =
        MerkleFileBuilder::create_with_leaf_layer(&path, leaves.len() as u64, fanout, leaf_layer)
            .unwrap();
    for leaf in leaves {
        builder.push_leaf(*leaf).unwrap();
    }
    (builder.finish().unwrap(), path)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn range_proofs_reconstruct_the_root(
        n in 1u64..400,
        fanout in 2u64..17,
        seed in any::<u64>(),
        range_seed in any::<(u64, u64)>(),
    ) {
        let leaves: Vec<Digest> = (0..n).map(|i| sha256(&(i ^ seed).to_be_bytes())).collect();
        let (merkle, path) = build(&leaves, fanout, "root");
        let first = range_seed.0 % n;
        let last = first + (range_seed.1 % (n - first));
        let proof = merkle.range_proof(first, last).unwrap();
        let root = proof
            .compute_root(&leaves[first as usize..=last as usize])
            .unwrap();
        prop_assert_eq!(root, merkle.root());

        // Serialization round-trip preserves the proof.
        let restored = RangeProof::from_bytes(&proof.to_bytes()).unwrap();
        prop_assert_eq!(&restored, &proof);

        // Tampering with any single covered leaf changes the recomputed root.
        let mut tampered = leaves[first as usize..=last as usize].to_vec();
        let idx = (range_seed.0 as usize) % tampered.len();
        tampered[idx] = sha256(b"tampered");
        if tampered[idx] != leaves[first as usize + idx] {
            let bad_root = proof.compute_root(&tampered).unwrap();
            prop_assert_ne!(bad_root, merkle.root());
        }

        // Derived vs stored: the file without its leaf layer, fed the leaf
        // siblings by position, has the same root and proves the same bytes.
        let (derived, derived_path) = build_with(&leaves, fanout, LeafLayer::Derived, "derived");
        let reopened = MerkleFile::open_with_leaf_layer(
            &derived_path,
            n,
            fanout,
            LeafLayer::Derived,
        )
        .unwrap();
        prop_assert_eq!(derived.root(), merkle.root());
        prop_assert_eq!(reopened.root(), merkle.root());
        let derived_proof = reopened
            .range_proof_with(first, last, |pos| Ok(leaves[pos as usize]))
            .unwrap();
        prop_assert_eq!(derived_proof.to_bytes(), proof.to_bytes());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&derived_path).ok();
    }

    #[test]
    fn proof_size_stays_logarithmic_in_tree_size(n in 64u64..4000, fanout in 2u64..9) {
        let leaves: Vec<Digest> = (0..n).map(|i| sha256(&i.to_be_bytes())).collect();
        let (merkle, path) = build(&leaves, fanout, "size");
        let proof = merkle.range_proof(n / 2, n / 2).unwrap();
        // A single-leaf proof carries at most (m-1) siblings per layer.
        let depth = merkle.layout().depth() as u64;
        let max_digests = depth * (fanout - 1);
        let overhead = 36 + depth as usize * 8 + 64;
        prop_assert!(proof.size_bytes() <= max_digests as usize * 32 + overhead);
        std::fs::remove_file(&path).ok();
    }
}
