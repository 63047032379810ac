//! Fixture: the one `unsafe` site is waived but nothing above it says why
//! it is sound (no `SAFETY:` comment naming the feature check).
#![deny(unsafe_code)]

pub fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !is_x86_feature_detected!("sha") {
        return false;
    }
    // cole_lint: allow(forbid-unsafe)
    #[allow(unsafe_code)]
    unsafe {
        compress_blocks(state, blocks);
    }
    true
}

#[target_feature(enable = "sha")]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    state[0] = state[0].wrapping_add(blocks.len() as u32);
}
