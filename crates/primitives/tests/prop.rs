//! Property-based tests of the primitive types.

use cole_primitives::{Address, CompoundKey, KeyNum, StateValue};
use proptest::prelude::*;

fn arb_address() -> impl Strategy<Value = Address> {
    prop::array::uniform20(any::<u8>()).prop_map(Address::new)
}

fn arb_key() -> impl Strategy<Value = CompoundKey> {
    (arb_address(), any::<u64>()).prop_map(|(addr, blk)| CompoundKey::new(addr, blk))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serializing and deserializing a compound key is lossless.
    #[test]
    fn compound_key_bytes_roundtrip(key in arb_key()) {
        let bytes = key.to_bytes();
        prop_assert_eq!(CompoundKey::from_bytes(&bytes).unwrap(), key);
    }

    /// The byte encoding preserves ordering (needed because value files are
    /// sorted by serialized keys).
    #[test]
    fn compound_key_bytes_preserve_order(a in arb_key(), b in arb_key()) {
        prop_assert_eq!(a.cmp(&b), a.to_bytes().cmp(&b.to_bytes()));
    }

    /// The numeric form `binary(addr)·2^64 + blk` preserves ordering and is
    /// invertible.
    #[test]
    fn keynum_roundtrip_and_order(a in arb_key(), b in arb_key()) {
        let na = KeyNum::from(a);
        let nb = KeyNum::from(b);
        prop_assert_eq!(CompoundKey::from(na), a);
        prop_assert_eq!(a.cmp(&b), na.cmp(&nb));
    }

    /// Saturating subtraction never underflows and is consistent with
    /// ordering.
    #[test]
    fn keynum_saturating_sub(a in arb_key(), b in arb_key()) {
        let na = KeyNum::from(a);
        let nb = KeyNum::from(b);
        let diff = na.saturating_sub(nb);
        if na <= nb {
            prop_assert_eq!(diff, KeyNum::ZERO);
        } else {
            prop_assert!(diff > KeyNum::ZERO);
            prop_assert_eq!(nb.saturating_add(diff), na);
        }
    }

    /// `CompoundKey` order, the order of its `to_bytes()` serialization and
    /// `KeyNum` order are one order — run and index searches compare the
    /// serialized bytes in place of decoded keys or `KeyNum`s. `b` shares
    /// its first `shared` bytes with `a`, so every byte position decides.
    #[test]
    fn key_byte_and_keynum_orders_agree(
        a in arb_key(),
        tail in arb_key(),
        shared in 0usize..29,
        pivot in any::<u8>(),
    ) {
        let mut bytes = a.to_bytes();
        let rest = tail.to_bytes();
        bytes[shared..].copy_from_slice(&rest[shared..]);
        if let Some(byte) = bytes.get_mut(shared) {
            *byte = pivot;
        }
        let b = CompoundKey::from_bytes(&bytes).unwrap();
        let by_key = a.cmp(&b);
        prop_assert_eq!(a.to_bytes()[..].cmp(&b.to_bytes()[..]), by_key);
        prop_assert_eq!(KeyNum::from(a).cmp(&KeyNum::from(b)), by_key);
    }

    /// Address hex display round-trips through parsing.
    #[test]
    fn address_display_roundtrip(addr in arb_address()) {
        let text = addr.to_string();
        prop_assert_eq!(text.parse::<Address>().unwrap(), addr);
    }

    /// State values round-trip through the u64 convenience accessors for
    /// values that fit.
    #[test]
    fn state_value_u64_roundtrip(v in any::<u64>()) {
        prop_assert_eq!(StateValue::from_u64(v).as_u64(), v);
    }

    /// Latest-key queries sort after every concrete version of the address
    /// but before any other address's keys.
    #[test]
    fn latest_key_bounds(addr in arb_address(), blk in any::<u64>()) {
        let concrete = CompoundKey::new(addr, blk);
        let latest = CompoundKey::latest(addr);
        prop_assert!(concrete <= latest);
        prop_assert_eq!(latest.address(), addr);
    }
}
