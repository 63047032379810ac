//! Core primitive types shared by every crate of the COLE reproduction.
//!
//! This crate defines the vocabulary of the system described in the paper
//! *COLE: A Column-based Learned Storage for Blockchain Systems* (FAST 2024):
//!
//! * [`Address`] — a fixed-size state address (20 bytes, Ethereum-like),
//! * [`StateValue`] — a fixed-size state value (32 bytes),
//! * [`CompoundKey`] — the column-based key `⟨addr, blk⟩` (§3.2 of the paper),
//! * [`KeyNum`] — the big-integer representation `binary(addr) · 2^64 + blk`
//!   used by the learned models,
//! * [`Digest`] — a 32-byte cryptographic digest,
//! * [`ColeError`] / [`Result`] — the crate-wide error type,
//! * [`AuthenticatedStorage`] — the interface every evaluated system
//!   (COLE, MPT, LIPP, CMI) implements so that workloads and the benchmark
//!   harness are index-agnostic.
//!
//! # Examples
//!
//! ```
//! use cole_primitives::{Address, CompoundKey};
//!
//! let addr = Address::from_low_u64(42);
//! let key = CompoundKey::new(addr, 7);
//! assert_eq!(key.address(), addr);
//! assert_eq!(key.block_height(), 7);
//! assert!(key < CompoundKey::new(addr, 8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod constants;
mod digest;
mod error;
mod interface;
mod key;
mod num;
mod value;

pub use address::Address;
pub use constants::{
    index_epsilon, models_per_page, ADDRESS_LEN, COMPOUND_KEY_LEN, DIGEST_LEN, ENTRY_LEN,
    MODEL_LEN, PAGE_SIZE, VALUE_LEN,
};
pub use digest::Digest;
pub use error::{check_claim, ColeError, Result};
pub use interface::{AuthenticatedStorage, ProvenanceResult, StorageStats};
pub use key::{CompoundKey, VersionedValue};
pub use num::KeyNum;
pub use value::StateValue;
