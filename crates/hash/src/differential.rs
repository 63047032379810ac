//! Differential tests: the scalar and the SHA-NI kernel, called directly
//! (no selection involved), must agree with the published vectors and with
//! each other on every input shape the hasher can produce.
//!
//! On a CPU without the SHA extensions the hardware half is skipped with a
//! printed note; the scalar half always runs.

use cole_primitives::{Address, CompoundKey, Digest, StateValue};

use crate::scalar;
use crate::sha256::{oneshot, Compress, Sha256, H0};

type Kernel = fn(&mut [u32; 8], &[u8]);

/// The hardware kernel called directly, or `None` (with a note) if this CPU
/// cannot run it.
fn hardware() -> Option<Kernel> {
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::detected() {
        return Some(|state, blocks| assert!(crate::sha_ni::compress(state, blocks)));
    }
    static NOTE: std::sync::Once = std::sync::Once::new();
    NOTE.call_once(|| {
        println!("note: no SHA-NI on this CPU, hardware half of the differential suite skipped");
    });
    None
}

/// Digest of `data` streamed through `kernel`, cut at `splits` (ascending
/// offsets into `data`).
fn streamed(kernel: impl Compress, data: &[u8], splits: &[usize]) -> Digest {
    let mut hasher = Sha256::new();
    let mut from = 0;
    for &at in splits {
        hasher.absorb(kernel, &data[from..at]);
        from = at;
    }
    hasher.absorb(kernel, &data[from..]);
    hasher.finalize_with(kernel)
}

/// Checks one input against an expected digest (if given) through both
/// kernels, one-shot and streamed.
fn check(data: &[u8], splits: &[usize], expected: Option<&str>) {
    let reference = oneshot(scalar::compress, data);
    if let Some(expected) = expected {
        assert_eq!(
            reference.to_string(),
            format!("0x{expected}"),
            "scalar, {} bytes",
            data.len()
        );
    }
    assert_eq!(
        streamed(scalar::compress, data, splits),
        reference,
        "scalar streamed, {} bytes split at {splits:?}",
        data.len()
    );
    if let Some(hw) = hardware() {
        assert_eq!(oneshot(hw, data), reference, "{} bytes", data.len());
        assert_eq!(
            streamed(hw, data, splits),
            reference,
            "hardware streamed, {} bytes split at {splits:?}",
            data.len()
        );
    }
}

/// A small deterministic generator (xorshift64*), so the randomized test
/// needs no dependency and fails reproducibly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

#[test]
fn nist_vectors_through_both_kernels() {
    check(
        b"",
        &[],
        Some("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    );
    check(
        b"abc",
        &[1],
        Some("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    );
    check(
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        &[7, 40],
        Some("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    );
    check(
        b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
          ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        &[64, 65],
        Some("cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"),
    );
}

#[test]
fn million_a_through_both_kernels() {
    check(
        &vec![b'a'; 1_000_000],
        &[1, 63, 64, 4096, 999_937],
        Some("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
    );
}

#[test]
fn padding_edges_through_both_kernels() {
    // 55 is the longest one-block message, 56..=63 spill the length into a
    // second block, 64 is a full block plus a padding block, and 119/120
    // repeat the edge one block later. References from Python's hashlib.
    for (len, expected) in [
        (
            55,
            "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072",
        ),
        (
            56,
            "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e",
        ),
        (
            63,
            "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2",
        ),
        (
            64,
            "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c",
        ),
        (
            119,
            "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c",
        ),
        (
            120,
            "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98",
        ),
    ] {
        let data = vec![b'x'; len];
        check(&data, &[], Some(expected));
        check(&data, &[len / 2], Some(expected));
        check(&data, &[len - 1], Some(expected));
    }
}

#[test]
fn random_lengths_and_split_points_agree() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for _ in 0..400 {
        let len = rng.below(4097);
        let data = rng.bytes(len);
        let mut splits: Vec<usize> = (0..rng.below(6)).map(|_| rng.below(len + 1)).collect();
        splits.sort_unstable();
        check(&data, &splits, None);
    }
}

#[test]
fn multi_block_calls_equal_block_at_a_time_calls() {
    let mut rng = Rng(42);
    let blocks = rng.bytes(64 * 9);
    let mut one_by_one = H0;
    for block in blocks.chunks_exact(64) {
        scalar::compress(&mut one_by_one, block);
    }
    let mut at_once = H0;
    scalar::compress(&mut at_once, &blocks);
    assert_eq!(at_once, one_by_one);

    if let Some(hw) = hardware() {
        let mut state = H0;
        hw(&mut state, &blocks);
        assert_eq!(state, one_by_one);
        // From a state other than H0, and zero blocks is a no-op.
        let (mut s, mut h) = (one_by_one, one_by_one);
        scalar::compress(&mut s, &blocks[..128]);
        hw(&mut h, &blocks[..128]);
        assert_eq!(h, s);
        hw(&mut h, &[]);
        assert_eq!(h, s);
    }
}

#[test]
fn fixed_size_helpers_agree_across_kernels() {
    let mut rng = Rng(7);
    for _ in 0..64 {
        let key = CompoundKey::new(Address::from_low_u64(rng.next()), rng.next());
        let value = StateValue::from_u64(rng.next());
        let mut concat = key.to_bytes().to_vec();
        concat.extend_from_slice(value.as_bytes());
        let reference = oneshot(scalar::compress, &concat);
        assert_eq!(crate::portable::hash_entry(&key, &value), reference);
        assert_eq!(crate::hash_entry(&key, &value), reference);

        let (left, right) = (reference, crate::portable::sha256(&concat[..20]));
        let mut concat = left.as_bytes().to_vec();
        concat.extend_from_slice(right.as_bytes());
        let reference = oneshot(scalar::compress, &concat);
        assert_eq!(crate::portable::hash_pair(&left, &right), reference);
        assert_eq!(crate::hash_pair(&left, &right), reference);
        assert_eq!(crate::hash_digests(&[left, right]), reference);
        assert_eq!(crate::sha256(&concat), reference);
    }
}

#[test]
fn backend_names_the_selected_kernel() {
    // CI runs this test with `--nocapture` so the log says which kernel the
    // suite exercised.
    let backend = crate::backend();
    println!("cole_hash backend: {backend}");
    assert_eq!(backend == "sha-ni", hardware().is_some());
}
