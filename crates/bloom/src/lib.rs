//! Bloom filters over state addresses.
//!
//! §4 of the paper integrates a Bloom filter into the in-memory MB-tree and
//! into every on-disk run to let read operations skip runs that cannot
//! contain the queried address. Two requirements from the paper are honoured
//! here:
//!
//! 1. filters are built over **addresses**, not compound keys, so that both
//!    get and provenance queries (which search by address) can use them;
//! 2. a filter's bits participate in the state root digest, so the filter can
//!    serialize itself into a canonical byte representation and hash it
//!    ([`BloomFilter::digest`]) — needed to prove the *absence* of an address
//!    in a run during provenance queries.
//!
//! # Examples
//!
//! ```
//! use cole_bloom::BloomFilter;
//! use cole_primitives::Address;
//!
//! let mut filter = BloomFilter::with_capacity(1000, 0.01);
//! filter.insert(&Address::from_low_u64(7));
//! assert!(filter.contains(&Address::from_low_u64(7)));
//! ```
//!
//! A reader that asks several filters about the same address hashes it once
//! into a [`BloomProbe`] and calls [`BloomFilter::contains_probe`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cole_hash::{sha256, Sha256};
use cole_primitives::{Address, ColeError, Digest, Result};

/// Length of the serialization's header: three little-endian `u64`s.
const HEADER_LEN: usize = 24;

/// The most probe positions a filter uses per address
/// ([`BloomFilter::with_capacity`] clamps to it, decoding rejects more).
const MAX_HASHES: u32 = 16;

/// A Bloom filter over state [`Address`]es.
///
/// Uses the standard double-hashing construction (Kirsch–Mitzenmacher): two
/// base hash values derived from a SHA-256 digest of the address generate the
/// `k` probe positions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: u64,
    num_hashes: u32,
    num_items: u64,
}

impl BloomFilter {
    /// Creates a filter sized for `expected_items` with the given false
    /// positive rate (clamped to a sane range).
    ///
    /// # Panics
    ///
    /// Panics if `expected_items` is zero (use at least 1).
    #[must_use]
    pub fn with_capacity(expected_items: usize, false_positive_rate: f64) -> Self {
        assert!(expected_items > 0, "expected_items must be positive");
        let fpr = false_positive_rate.clamp(1e-6, 0.5);
        let n = expected_items as f64;
        let ln2 = std::f64::consts::LN_2;
        let num_bits = ((-n * fpr.ln()) / (ln2 * ln2)).ceil().max(64.0) as u64;
        let num_hashes = ((num_bits as f64 / n) * ln2)
            .round()
            .clamp(1.0, f64::from(MAX_HASHES)) as u32;
        BloomFilter {
            bits: vec![0u64; num_bits.div_ceil(64) as usize],
            num_bits,
            num_hashes,
            num_items: 0,
        }
    }

    /// Inserts an address.
    pub fn insert(&mut self, addr: &Address) {
        let probe = BloomProbe::new(addr);
        for i in 0..self.num_hashes {
            let bit = self.bit(&probe, i);
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        self.num_items += 1;
    }

    /// Returns `true` if the address *may* have been inserted (false
    /// positives possible, false negatives impossible).
    #[must_use]
    pub fn contains(&self, addr: &Address) -> bool {
        self.contains_probe(&BloomProbe::new(addr))
    }

    /// [`contains`](Self::contains) for an address hashed once up front:
    /// a reader that asks many filters about one address pays one SHA-256
    /// instead of one per filter.
    #[must_use]
    pub fn contains_probe(&self, probe: &BloomProbe) -> bool {
        (0..self.num_hashes).all(|i| {
            let bit = self.bit(probe, i);
            self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Number of inserted items.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.num_items
    }

    /// Returns `true` if nothing was inserted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.num_items == 0
    }

    /// Size of the bit array in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.bits.len() as u64 * 8
    }

    /// The 24-byte header of the canonical serialization: `num_bits`,
    /// `num_hashes` and `num_items` as little-endian `u64`s.
    fn header(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[..8].copy_from_slice(&self.num_bits.to_le_bytes());
        out[8..16].copy_from_slice(&u64::from(self.num_hashes).to_le_bytes());
        out[16..].copy_from_slice(&self.num_items.to_le_bytes());
        out
    }

    /// Canonical serialization: header (num_bits, num_hashes, num_items)
    /// followed by the bit array in little-endian 64-bit words.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.bits.len() * 8);
        out.extend_from_slice(&self.header());
        for word in &self.bits {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Deserializes a filter produced by [`BloomFilter::to_bytes`].
    ///
    /// Decoding is strict — the bytes may come from an untrusted proof — and
    /// canonical: every accepted byte string is exactly what `to_bytes`
    /// returns for the decoded filter, so a verifier may hash the bytes it
    /// received instead of re-serializing.
    ///
    /// # Errors
    ///
    /// Returns [`ColeError::InvalidEncoding`] if the byte string is malformed:
    /// a length that is not header plus whole words, `num_bits` of zero or
    /// inconsistent with the payload, or `num_hashes` outside
    /// `1..=MAX_HASHES` (which also rejects any set upper header bits).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < HEADER_LEN || !(bytes.len() - HEADER_LEN).is_multiple_of(8) {
            return Err(ColeError::InvalidEncoding(
                "bloom filter byte string has invalid length".into(),
            ));
        }
        let mut words = bytes.chunks_exact(8).map(|c| {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(c);
            u64::from_le_bytes(buf)
        });
        let mut header = || words.next().expect("length checked above");
        let (num_bits, num_hashes, num_items) = (header(), header(), header());
        let bits: Vec<u64> = words.collect();
        if num_bits == 0 || bits.len() as u64 != num_bits.div_ceil(64) {
            return Err(ColeError::InvalidEncoding(
                "bloom filter header inconsistent with payload".into(),
            ));
        }
        let num_hashes = u32::try_from(num_hashes)
            .ok()
            .filter(|k| (1..=MAX_HASHES).contains(k))
            .ok_or_else(|| {
                ColeError::InvalidEncoding(format!(
                    "bloom filter hash count {num_hashes} outside 1..={MAX_HASHES}"
                ))
            })?;
        Ok(BloomFilter {
            bits,
            num_bits,
            num_hashes,
            num_items,
        })
    }

    /// Digest of the canonical serialization. Incorporated into a run's root
    /// hash so provenance proofs can rely on the filter's contents (§4).
    ///
    /// Streams header and words into the hasher; the serialization is never
    /// materialized.
    #[must_use]
    pub fn digest(&self) -> Digest {
        let mut hasher = Sha256::new();
        hasher.update(&self.header());
        // A block-sized batch of words per `update`, not one call per word.
        let mut batch = [0u8; 512];
        for words in self.bits.chunks(batch.len() / 8) {
            for (bytes, word) in batch.chunks_exact_mut(8).zip(words) {
                bytes.copy_from_slice(&word.to_le_bytes());
            }
            hasher.update(&batch[..words.len() * 8]);
        }
        hasher.finalize()
    }

    /// The `i`-th probe position of `probe` in this filter's bit array.
    fn bit(&self, probe: &BloomProbe, i: u32) -> u64 {
        probe.h1.wrapping_add(u64::from(i).wrapping_mul(probe.h2)) % self.num_bits
    }
}

/// The two Kirsch–Mitzenmacher base hashes of one address, independent of
/// any filter's size: every [`BloomFilter`] derives its probe positions
/// from them, so one `BloomProbe` can be tested against many filters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BloomProbe {
    h1: u64,
    h2: u64,
}

impl BloomProbe {
    /// Hashes `addr` (one SHA-256) into its two base hashes.
    #[must_use]
    pub fn new(addr: &Address) -> Self {
        let digest = sha256(addr.as_bytes());
        let bytes = digest.as_bytes();
        let mut h1 = [0u8; 8];
        let mut h2 = [0u8; 8];
        h1.copy_from_slice(&bytes[..8]);
        h2.copy_from_slice(&bytes[8..16]);
        BloomProbe {
            h1: u64::from_le_bytes(h1),
            h2: u64::from_le_bytes(h2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut filter = BloomFilter::with_capacity(500, 0.01);
        for i in 0..500u64 {
            filter.insert(&Address::from_low_u64(i));
        }
        for i in 0..500u64 {
            assert!(filter.contains(&Address::from_low_u64(i)), "missing {i}");
        }
        assert_eq!(filter.len(), 500);
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        let mut filter = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000u64 {
            filter.insert(&Address::from_low_u64(i));
        }
        let false_positives = (1000..11_000u64)
            .filter(|&i| filter.contains(&Address::from_low_u64(i)))
            .count();
        // Allow generous slack over the target 1%.
        assert!(
            false_positives < 500,
            "false positive rate too high: {false_positives}/10000"
        );
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let filter = BloomFilter::with_capacity(10, 0.01);
        assert!(filter.is_empty());
        assert!(!filter.contains(&Address::from_low_u64(1)));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut filter = BloomFilter::with_capacity(100, 0.05);
        for i in 0..100u64 {
            filter.insert(&Address::from_low_u64(i * 3));
        }
        let bytes = filter.to_bytes();
        let restored = BloomFilter::from_bytes(&bytes).unwrap();
        assert_eq!(restored, filter);
        assert_eq!(restored.digest(), filter.digest());
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(BloomFilter::from_bytes(&[1, 2, 3]).is_err());
        assert!(BloomFilter::from_bytes(&[0u8; 25]).is_err());
    }

    /// A serialized filter with the given header over `words` zero words.
    fn forged(num_bits: u64, num_hashes: u64, words: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&num_bits.to_le_bytes());
        bytes.extend_from_slice(&num_hashes.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.resize(HEADER_LEN + words * 8, 0);
        bytes
    }

    #[test]
    fn from_bytes_rejects_a_zero_bit_filter() {
        // Header only, `num_bits == 0`: probing it would divide by zero.
        assert!(BloomFilter::from_bytes(&forged(0, 1, 0)).is_err());
        assert!(BloomFilter::from_bytes(&forged(0, 7, 1)).is_err());
    }

    #[test]
    fn from_bytes_rejects_hash_counts_with_capacity_cannot_produce() {
        assert!(BloomFilter::from_bytes(&forged(64, 1, 1)).is_ok());
        assert!(BloomFilter::from_bytes(&forged(64, 16, 1)).is_ok());
        assert!(BloomFilter::from_bytes(&forged(64, 0, 1)).is_err());
        assert!(BloomFilter::from_bytes(&forged(64, 17, 1)).is_err());
        // Differs from an accepted header only above bit 31: used to decode
        // to the same filter as `num_hashes == 7`.
        assert!(BloomFilter::from_bytes(&forged(64, (1 << 32) | 7, 1)).is_err());
        assert!(BloomFilter::from_bytes(&forged(64, u64::MAX, 1)).is_err());
    }

    #[test]
    fn accepted_bytes_reserialize_to_themselves() {
        let mut bytes = forged(100, 3, 2);
        // Bits past `num_bits` in the last word are carried, not normalized.
        bytes[HEADER_LEN + 15] = 0xff;
        let filter = BloomFilter::from_bytes(&bytes).unwrap();
        assert_eq!(filter.to_bytes(), bytes);
        assert_eq!(filter.digest(), sha256(&bytes));
    }

    #[test]
    fn streamed_digest_equals_digest_of_serialization() {
        // Word counts around the 64-word batch the digest streams in.
        for items in [1usize, 50, 427, 428, 429, 5_000] {
            let mut filter = BloomFilter::with_capacity(items, 0.01);
            for i in 0..items as u64 {
                filter.insert(&Address::from_low_u64(i));
            }
            assert_eq!(
                filter.digest(),
                sha256(&filter.to_bytes()),
                "{items} items, {} words",
                filter.bits.len()
            );
        }
    }

    #[test]
    fn digest_changes_with_content() {
        let mut a = BloomFilter::with_capacity(100, 0.01);
        let b = BloomFilter::with_capacity(100, 0.01);
        a.insert(&Address::from_low_u64(42));
        assert_ne!(a.digest(), b.digest());
    }
}
