//! Fixture: a second `unsafe` crept into the crate that is allowed one.
//! Waived and commented like the first — the count is what fails.
#![deny(unsafe_code)]

mod sha_ni;

pub fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    if !sha_ni::compress(state, blocks) {
        state[0] ^= blocks.len() as u32;
    }
}

pub fn first_word(state: &[u32; 8]) -> u32 {
    // SAFETY: not about `is_x86_feature_detected` at all; index 0 exists.
    // cole_lint: allow(forbid-unsafe)
    #[allow(unsafe_code)]
    unsafe {
        *state.get_unchecked(0)
    }
}
