//! Fixture: the sanctioned exception — `crates/hash` carries `deny` instead
//! of `forbid` and holds exactly one waived, justified `unsafe` site.
#![deny(unsafe_code)]

mod sha_ni;

pub fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    if !sha_ni::compress(state, blocks) {
        state[0] ^= blocks.len() as u32; // stands in for the scalar rounds
    }
}
