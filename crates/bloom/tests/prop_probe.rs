//! Property-based tests of the hash-once probe: asking a filter through a
//! [`BloomProbe`] answers exactly what [`BloomFilter::contains`] answers,
//! whatever the filter's size, and probing changes neither the filter's
//! bytes nor its digest.

use cole_bloom::{BloomFilter, BloomProbe};
use cole_primitives::Address;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn contains_probe_agrees_with_contains(
        capacity in 1usize..3000,
        fpr_step in 0u32..6,
        inserted in prop::collection::vec(any::<u64>(), 0..200),
        queried in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let fpr = [0.5, 0.1, 0.05, 0.01, 0.001, 1e-6][fpr_step as usize];
        let mut filter = BloomFilter::with_capacity(capacity, fpr);
        for &a in &inserted {
            filter.insert(&Address::from_low_u64(a));
        }
        let bytes = filter.to_bytes();
        let digest = filter.digest();
        for &a in inserted.iter().chain(&queried) {
            let addr = Address::from_low_u64(a);
            prop_assert_eq!(filter.contains_probe(&BloomProbe::new(&addr)), filter.contains(&addr));
        }
        for &a in &inserted {
            prop_assert!(filter.contains_probe(&BloomProbe::new(&Address::from_low_u64(a))));
        }
        prop_assert_eq!(filter.to_bytes(), bytes);
        prop_assert_eq!(filter.digest(), digest);
    }

    #[test]
    fn one_probe_answers_every_filter(
        bytes in prop::array::uniform20(any::<u8>()),
        capacities in prop::collection::vec(1usize..5000, 1..8),
    ) {
        let addr = Address::new(bytes);
        let probe = BloomProbe::new(&addr);
        prop_assert_eq!(probe, BloomProbe::new(&addr));
        for capacity in capacities {
            let mut filter = BloomFilter::with_capacity(capacity, 0.01);
            prop_assert_eq!(filter.contains_probe(&probe), filter.contains(&addr));
            filter.insert(&addr);
            prop_assert!(filter.contains_probe(&probe));
        }
    }
}
