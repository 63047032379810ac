//! The x86-64 SHA-NI compression kernel (`sha256rnds2` / `sha256msg1` /
//! `sha256msg2`), used when the CPU reports the `sha`, `sse2`, `ssse3` and
//! `sse4.1` features at run time.
//!
//! Everything here is safe code except one call. A
//! `#[target_feature(enable = …)]` function is safe to *declare*, and the
//! SHA/SSE value intrinsics are safe to call *inside* it, because the
//! attribute guarantees the instructions exist wherever the body runs. What
//! cannot be checked by the compiler is the call *into* such a function from
//! code compiled without those features: that is the workspace's single
//! `unsafe` expression, in [`compress`], directly behind the run-time check.
//! Message words are assembled with `_mm_set_epi64x` over
//! `i64::from_le_bytes` (which the compiler turns into one 16-byte load)
//! rather than pointer loads, so no raw pointer is ever formed.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8,
};
use std::sync::OnceLock;

use crate::sha256::K;

/// Whether this CPU has every feature [`compress_blocks`] enables. Detected
/// once per process.
pub(crate) fn detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    })
}

/// Compresses every 64-byte block of `blocks` into `state` with the SHA-NI
/// kernel and returns `true`, or returns `false` with `state` untouched if
/// this CPU lacks the instructions.
pub(crate) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: `detected()` is true only if `is_x86_feature_detected!` has
    // confirmed `sha`, `sse2`, `ssse3` and `sse4.1` on the running CPU —
    // exactly the features `compress_blocks` enables. The callee is safe code
    // over a `&mut [u32; 8]` and a `&[u8]`; it has no other precondition.
    // cole_lint: allow(forbid-unsafe)
    #[allow(unsafe_code)]
    unsafe {
        compress_blocks(state, blocks);
    }
    true
}

/// Message words `4 * i .. 4 * i + 4` of `block`, first word in the lowest
/// lane: sixteen bytes taken as they lie in memory, then byte-swapped within
/// each 32-bit lane (the message is big-endian).
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn message(block: &[u8; 64], i: usize) -> __m128i {
    let half = |at: usize| {
        let bytes: [u8; 8] = block[at..at + 8].try_into().expect("eight bytes");
        i64::from_le_bytes(bytes)
    };
    let swap_lanes = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    _mm_shuffle_epi8(_mm_set_epi64x(half(16 * i + 8), half(16 * i)), swap_lanes)
}

/// The next four message words from the previous sixteen (`w0` oldest).
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(sum, w3)
}

/// Rounds `4 * i .. 4 * i + 4` over the message words `w`: two on the low
/// half of `w + K`, two on the high half.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
    let k = |j: usize| K[4 * i + j].cast_signed();
    let wk = _mm_add_epi32(w, _mm_set_epi32(k(3), k(2), k(1), k(0)));
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    // `sha256rnds2` wants the state as two vectors, (a, b, e, f) and
    // (c, d, g, h), highest lane first.
    let [a, b, c, d, e, f, g, h] = state.map(u32::cast_signed);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    for block in blocks.chunks_exact(64) {
        let block: &[u8; 64] = block.try_into().expect("chunks_exact yields 64 bytes");
        let (abef_in, cdgh_in) = (abef, cdgh);
        // The last sixteen message words, in named registers rather than an
        // indexed array so they never round-trip through the stack.
        let mut w0 = message(block, 0);
        let mut w1 = message(block, 1);
        let mut w2 = message(block, 2);
        let mut w3 = message(block, 3);
        rounds(&mut abef, &mut cdgh, w0, 0);
        rounds(&mut abef, &mut cdgh, w1, 1);
        rounds(&mut abef, &mut cdgh, w2, 2);
        rounds(&mut abef, &mut cdgh, w3, 3);
        for i in [4, 8, 12] {
            w0 = schedule(w0, w1, w2, w3);
            rounds(&mut abef, &mut cdgh, w0, i);
            w1 = schedule(w1, w2, w3, w0);
            rounds(&mut abef, &mut cdgh, w1, i + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds(&mut abef, &mut cdgh, w2, i + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds(&mut abef, &mut cdgh, w3, i + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(i32::cast_unsigned);
}
