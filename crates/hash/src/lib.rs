//! SHA-256 hashing for the COLE workspace.
//!
//! The paper authenticates blockchain data with Merkle structures built from
//! a cryptographic hash function "such as SHA-256" (Definition 2). This crate
//! provides a from-scratch FIPS 180-4 SHA-256 implementation — one
//! compression kernel with a hardware (x86-64 SHA-NI, detected at run time)
//! and a portable scalar implementation, see [`backend`] — plus the small
//! hashing helpers the rest of the workspace uses (hashing key–value pairs,
//! concatenating child digests, combining root hash lists).
//!
//! # Examples
//!
//! ```
//! use cole_hash::{sha256, Sha256};
//!
//! // One-shot hashing.
//! let d1 = sha256(b"abc");
//! // Incremental hashing produces the same digest.
//! let mut hasher = Sha256::new();
//! hasher.update(b"a");
//! hasher.update(b"bc");
//! assert_eq!(hasher.finalize(), d1);
//! ```

// `deny`, not `forbid`: the SHA-NI kernel needs the workspace's one `unsafe`
// expression (the feature-guarded call in `sha_ni.rs`, which carries the only
// `#[allow(unsafe_code)]`); `cole_lint` checks there is exactly one.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod differential;
mod scalar;
mod sha256;
#[cfg(target_arch = "x86_64")]
mod sha_ni;

pub use sha256::{backend, Sha256};

use cole_primitives::{CompoundKey, Digest, StateValue};
use sha256::{compress, oneshot, oneshot_short, Compress};

/// Computes the SHA-256 digest of `data` in one shot.
#[inline]
#[must_use]
pub fn sha256(data: &[u8]) -> Digest {
    oneshot(compress, data)
}

/// Hashes a compound key–value pair: `h(K ‖ value)` (Definition 2, bottom
/// layer of COLE's Merkle files).
#[must_use]
pub fn hash_entry(key: &CompoundKey, value: &StateValue) -> Digest {
    entry(compress, key, value)
}

/// Hashes the concatenation of child digests: `h(h_1 ‖ h_2 ‖ … ‖ h_m)`
/// (Definition 2, upper layers of an MHT).
#[must_use]
pub fn hash_digests(children: &[Digest]) -> Digest {
    let mut hasher = Sha256::new();
    for child in children {
        hasher.update(child.as_bytes());
    }
    hasher.finalize()
}

/// Hashes two child digests, the common binary-MHT case.
#[must_use]
pub fn hash_pair(left: &Digest, right: &Digest) -> Digest {
    pair(compress, left, right)
}

/// Hashes arbitrary labelled byte fields. Used by trie nodes where a node
/// digest covers both its content and its children.
#[must_use]
pub fn hash_fields(fields: &[&[u8]]) -> Digest {
    let mut hasher = Sha256::new();
    for field in fields {
        hasher.update(&(field.len() as u64).to_be_bytes());
        hasher.update(field);
    }
    hasher.finalize()
}

/// 28 key bytes + 32 value bytes: two blocks once padded, one kernel call.
#[inline]
fn entry(kernel: impl Compress, key: &CompoundKey, value: &StateValue) -> Digest {
    oneshot_short(kernel, &[&key.to_bytes(), value.as_bytes()])
}

/// 64 message bytes: exactly two blocks once padded, one kernel call.
#[inline]
fn pair(kernel: impl Compress, left: &Digest, right: &Digest) -> Digest {
    oneshot_short(kernel, &[left.as_bytes(), right.as_bytes()])
}

/// The same digests computed with the portable scalar kernel, whatever the
/// CPU offers.
///
/// Production code calls the crate-root functions, which pick the fastest
/// kernel themselves. These exist so that tests and benchmarks can hold the
/// two kernels side by side without a switch that could select one in
/// production.
pub mod portable {
    use cole_primitives::{CompoundKey, Digest, StateValue};

    use crate::scalar::compress;

    /// [`sha256`](crate::sha256) on the scalar kernel.
    #[must_use]
    pub fn sha256(data: &[u8]) -> Digest {
        crate::oneshot(compress, data)
    }

    /// [`hash_entry`](crate::hash_entry) on the scalar kernel.
    #[must_use]
    pub fn hash_entry(key: &CompoundKey, value: &StateValue) -> Digest {
        crate::entry(compress, key, value)
    }

    /// [`hash_pair`](crate::hash_pair) on the scalar kernel.
    #[must_use]
    pub fn hash_pair(left: &Digest, right: &Digest) -> Digest {
        crate::pair(compress, left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cole_primitives::Address;

    fn hex(d: &Digest) -> String {
        d.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_known_vectors() {
        // FIPS 180-4 / NIST test vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_long_input() {
        // One million 'a's.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hash_entry_is_order_sensitive() {
        let k = CompoundKey::new(Address::from_low_u64(1), 2);
        let v1 = StateValue::from_u64(10);
        let v2 = StateValue::from_u64(11);
        assert_ne!(hash_entry(&k, &v1), hash_entry(&k, &v2));
    }

    #[test]
    fn hash_digests_matches_manual_concatenation() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        let mut buf = Vec::new();
        buf.extend_from_slice(a.as_bytes());
        buf.extend_from_slice(b.as_bytes());
        assert_eq!(hash_digests(&[a, b]), sha256(&buf));
        assert_eq!(hash_pair(&a, &b), sha256(&buf));
    }

    #[test]
    fn hash_fields_distinguishes_boundaries() {
        // ("ab", "c") must differ from ("a", "bc") thanks to length prefixes.
        assert_ne!(hash_fields(&[b"ab", b"c"]), hash_fields(&[b"a", b"bc"]));
    }
}
