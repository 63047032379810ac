//! Fixture: the single `unsafe` call, behind run-time feature detection.
//! Mentioning unsafe in a comment, or "unsafe" in a string, is not a site.

pub fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !is_x86_feature_detected!("sha") {
        return false;
    }
    // SAFETY: `is_x86_feature_detected!("sha")` returned true just above, and
    // `sha` is the only feature `compress_blocks` enables.
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

#[cfg(test)]
mod tests {
    #[test]
    #[allow(unsafe_code)]
    fn test_code_is_not_counted() {
        let mut state = [0u32; 8];
        if is_x86_feature_detected!("sha") {
            unsafe { super::compress_blocks(&mut state, &[0u8; 64]) };
        }
    }
}
