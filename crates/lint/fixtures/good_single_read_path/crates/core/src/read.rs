//! Fixture: the one place that may build proof components.

use crate::proof::ComponentProof;

pub fn prove_unsearched(commitment: [u8; 32]) -> ComponentProof {
    ComponentProof::RunUnsearched { commitment }
}
