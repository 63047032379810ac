//! Fixture: decoding a proof builds its components; `proof.rs` is exempt.

pub enum ComponentProof {
    MemUnsearched { root: [u8; 32] },
    RunUnsearched { commitment: [u8; 32] },
}

pub fn decode(tag: u8, digest: [u8; 32]) -> Option<ComponentProof> {
    match tag {
        1 => Some(ComponentProof::MemUnsearched { root: digest }),
        4 => Some(ComponentProof::RunUnsearched { commitment: digest }),
        _ => None,
    }
}
