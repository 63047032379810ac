//! A from-scratch SHA-256 implementation (FIPS 180-4) over one block-oriented
//! compression kernel.
//!
//! Everything COLE stores is authenticated — every version is hashed into a
//! run's Merkle file, every address into its Bloom filter, every block
//! re-hashes the MB-tree root and every `VerifyProv` re-hashes the whole
//! proof — so SHA-256 is on the critical path of ingest and of proof
//! verification alike. All of it funnels into [`compress`], which folds any
//! whole number of 64-byte blocks into the eight-word state and has two
//! implementations:
//!
//! * `sha_ni` — the x86-64 SHA extensions (`sha256rnds2`, `sha256msg1`,
//!   `sha256msg2`), taken when `is_x86_feature_detected!` reports `sha`,
//!   `sse2`, `ssse3` and `sse4.1`; 1 366 MB/s on the benchmark box
//!   (`hash.sha256_mb_per_s`), 88 ns for a `hash_pair`;
//! * `scalar` — plain `u32` rounds, the only kernel on other targets and on
//!   older x86-64 CPUs; 231 MB/s and 589 ns on the same box.
//!
//! The choice is made once per process from the CPU alone: there is no cargo
//! feature, environment variable or compiler flag that selects a kernel.
//! Both produce bit-identical digests (the tests in `differential.rs` drive
//! them side by side), so which one ran never shows in an `Hstate`, a run
//! file or a proof.
//!
//! The hardware kernel is safe code (see `sha_ni.rs` for why) behind the
//! workspace's single `unsafe` expression: the call into a
//! `#[target_feature]` function, guarded by run-time detection of every
//! feature that function enables. `cole_lint`'s `forbid-unsafe` rule holds
//! the crate to exactly that one site.
//!
//! The hasher hands whole-block slices of the caller's input straight to the
//! kernel; only a trailing partial block is ever copied, and padding happens
//! in place in the hasher's own buffer — no allocation anywhere.

use cole_primitives::Digest;

/// Initial hash values H(0): the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
pub(crate) const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants K: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
pub(crate) const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// A compression kernel: folds every 64-byte block of its second argument
/// into the state. Generic (not a function pointer) so each kernel is called
/// directly.
pub(crate) trait Compress: Fn(&mut [u32; 8], &[u8]) + Copy {}
impl<F: Fn(&mut [u32; 8], &[u8]) + Copy> Compress for F {}

/// The kernel selected for this CPU: SHA-NI where detected, scalar rounds
/// otherwise. `blocks` must be a whole number of 64-byte blocks.
#[inline]
pub(crate) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::compress(state, blocks) {
        return;
    }
    crate::scalar::compress(state, blocks);
}

/// Name of the compression kernel this process hashes with: `"sha-ni"` or
/// `"scalar"`. For logs and benchmark reports; digests do not depend on it.
#[must_use]
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::detected() {
        return "sha-ni";
    }
    "scalar"
}

/// Room for a message's last partial block plus its padding: the tail, the
/// `0x80` terminator and the 8-byte bit length fit in one block if the tail
/// is under 56 bytes and in two otherwise.
pub(crate) type Tail = [u8; 128];

/// Pads the `len` message bytes at the front of `tail` (the last `len` of a
/// message of `total_len` bytes; `len <= 119` and every byte after them
/// zero), compresses the one or two resulting blocks and returns the digest.
#[inline]
pub(crate) fn finish(
    kernel: impl Compress,
    mut state: [u32; 8],
    tail: &mut Tail,
    len: usize,
    total_len: u64,
) -> Digest {
    debug_assert!(tail[len..].iter().all(|&b| b == 0), "tail is zero-filled");
    let end = if len < 56 { 64 } else { 128 };
    tail[len] = 0x80;
    tail[end - 8..end].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    kernel(&mut state, &tail[..end]);

    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    Digest::new(out)
}

/// One-shot digest of `data`: whole blocks go to the kernel straight from
/// `data`, the remainder is padded on the stack.
#[inline]
pub(crate) fn oneshot(kernel: impl Compress, data: &[u8]) -> Digest {
    let mut state = H0;
    let (blocks, rest) = data.split_at(data.len() & !63);
    if !blocks.is_empty() {
        kernel(&mut state, blocks);
    }
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    finish(kernel, state, &mut tail, rest.len(), data.len() as u64)
}

/// One-shot digest of the concatenation of `parts`, which must total at most
/// 119 bytes — message and padding then fit the stack buffer, and the kernel
/// is called exactly once.
#[inline]
pub(crate) fn oneshot_short(kernel: impl Compress, parts: &[&[u8]]) -> Digest {
    let mut tail = [0u8; 128];
    let mut len = 0;
    for part in parts {
        tail[len..len + part.len()].copy_from_slice(part);
        len += part.len();
    }
    finish(kernel, H0, &mut tail, len, len as u64)
}

/// An incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use cole_hash::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let digest = h.finalize();
/// assert_eq!(digest, cole_hash::sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// The pending partial block in `[..buffer_len]`; the second half is only
    /// written by the padding at finalization.
    buffer: Tail,
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 128],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(compress, data);
    }

    /// Finishes the computation and returns the digest, consuming the hasher.
    #[must_use]
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// [`update`](Self::update) over an explicit kernel; the differential
    /// tests drive the same hasher type through either one.
    #[inline]
    pub(crate) fn absorb(&mut self, kernel: impl Compress, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        // Top up a pending partial block first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            kernel(&mut self.state, &self.buffer[..64]);
            self.buffer_len = 0;
        }

        // Whole blocks go to the kernel straight from the input.
        let (blocks, rest) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// [`finalize`](Self::finalize) over an explicit kernel.
    #[inline]
    pub(crate) fn finalize_with(mut self, kernel: impl Compress) -> Digest {
        // Bytes of earlier blocks may linger behind the pending ones.
        self.buffer[self.buffer_len..].fill(0);
        finish(
            kernel,
            self.state,
            &mut self.buffer,
            self.buffer_len,
            self.total_len,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn single_block_boundary_inputs() {
        // 55, 56 and 64 byte inputs exercise the padding corner cases.
        let d55 = {
            let mut h = Sha256::new();
            h.update(&[b'x'; 55]);
            h.finalize()
        };
        let d56 = {
            let mut h = Sha256::new();
            h.update(&[b'x'; 56]);
            h.finalize()
        };
        let d64 = {
            let mut h = Sha256::new();
            h.update(&[b'x'; 64]);
            h.finalize()
        };
        assert_ne!(d55, d56);
        assert_ne!(d56, d64);
        // Reference value for 64 'x' bytes computed with coreutils sha256sum.
        assert_eq!(
            hex(&d64),
            "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"
        );
    }

    #[test]
    fn empty_update_calls_do_not_change_result() {
        let mut h = Sha256::new();
        h.update(b"");
        h.update(b"abc");
        h.update(b"");
        assert_eq!(
            hex(&h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn clone_preserves_state() {
        let mut h = Sha256::new();
        h.update(b"partial");
        let h2 = h.clone();
        h.update(b" input");
        let mut h3 = h2;
        h3.update(b" input");
        assert_eq!(h.finalize(), h3.finalize());
    }
}
