//! Property tests of the two facts the proof verifier's in-place hashing
//! rests on: Bloom decoding is canonical (every accepted byte string
//! re-serializes to itself), and the selected SHA-256 kernel streams to the
//! same digest as the portable kernel whatever the `update` boundaries.

use cole::cole_bloom::BloomFilter;
use cole::cole_hash::{portable, sha256, Sha256};
use proptest::prelude::*;

/// A filter serialization with an arbitrary header over `words` random
/// words. Most are consistent; hash counts run past the legal 16 and the
/// upper header bits are sometimes set, so decoding rejects a share of them.
fn arb_filter_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(any::<u64>(), 0..40),
        0u64..64,
        0u64..20,
        0u64..4,
        any::<u64>(),
    )
        .prop_map(|(words, slack, num_hashes, upper, num_items)| {
            let num_bits = (words.len() as u64 * 64).saturating_sub(slack);
            let mut bytes = Vec::with_capacity(24 + words.len() * 8);
            bytes.extend_from_slice(&num_bits.to_le_bytes());
            // The upper header half is set in one case of four.
            bytes.extend_from_slice(&(num_hashes | (upper / 3) << 32).to_le_bytes());
            bytes.extend_from_slice(&num_items.to_le_bytes());
            for word in words {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
            bytes
        })
}

proptest! {
    #[test]
    fn accepted_filter_bytes_reserialize_to_themselves(bytes in arb_filter_bytes()) {
        if let Ok(filter) = BloomFilter::from_bytes(&bytes) {
            prop_assert_eq!(filter.to_bytes(), bytes.clone());
            prop_assert_eq!(filter.digest(), sha256(&bytes));
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_filter_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        if let Ok(filter) = BloomFilter::from_bytes(&bytes) {
            prop_assert_eq!(filter.to_bytes(), bytes);
            let _ = filter.contains(&cole::Address::from_low_u64(1));
        }
    }

    #[test]
    fn selected_kernel_streams_to_the_portable_digest(
        data in proptest::collection::vec(any::<u8>(), 0..4097),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut hasher = Sha256::new();
        let mut from = 0;
        for at in cuts {
            hasher.update(&data[from..at]);
            from = at;
        }
        hasher.update(&data[from..]);
        let streamed = hasher.finalize();
        prop_assert_eq!(streamed, portable::sha256(&data));
        prop_assert_eq!(streamed, sha256(&data));
    }
}
