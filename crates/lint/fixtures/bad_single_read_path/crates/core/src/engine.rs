//! Fixture: a second copy of Algorithm 8 — an engine module building proof
//! components itself instead of going through `read.rs`.

use crate::proof::ComponentProof;

pub fn prove_unsearched(commitments: &[[u8; 32]]) -> Vec<ComponentProof> {
    commitments
        .iter()
        .map(|c| ComponentProof::RunUnsearched { commitment: *c })
        .collect()
}

/// Matching on a variant is not a construction and stays legal.
pub fn disclosed_bytes(component: &ComponentProof) -> usize {
    match component {
        ComponentProof::RunBloomNegative { bloom, .. } => bloom.len(),
        _ => 0,
    }
}
