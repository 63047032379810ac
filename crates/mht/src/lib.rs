//! m-ary complete Merkle Hash Trees and Merkle files.
//!
//! COLE authenticates the value file of every on-disk run with an m-ary
//! *complete* MHT stored in a Merkle file (§4.2). This crate provides:
//!
//! * [`MhtLayout`] — the shape arithmetic of an m-ary complete MHT with `n`
//!   leaves: per-layer node counts, layer offsets inside the Merkle file and
//!   the parent-position formula used by provenance proofs (§6.2),
//! * [`LeafLayer`] — whether a Merkle file stores its leaf layer. Each leaf
//!   of a run's tree is the hash of the value-file entry at its position, so
//!   the engine writes [`LeafLayer::Derived`] files, which start at layer 1
//!   and are a quarter the size at fanout 4 (§4.2's accounting counts the
//!   file as index overhead),
//! * [`MerkleFileBuilder`] — the streaming construction of Algorithm 4: one
//!   buffer per layer, hashes flushed to their precomputed offsets as soon as
//!   `m` of them are available (a derived-leaf build hashes the leaves into
//!   layer 1 and drops them),
//! * [`MerkleFile`] — a reader over a constructed Merkle file that can
//!   extract [`RangeProof`]s for a contiguous range of leaf positions. One
//!   routine, [`MerkleFile::range_proof_with`], builds every proof: it reads
//!   layers 1 and up from the file and asks its caller for the at most
//!   `m − 1` leaf-layer siblings on each side of the range, which
//!   [`MerkleFile::range_proof`] reads from a stored leaf layer,
//! * [`RangeProof`] — a self-contained, serializable proof that a contiguous
//!   slice of leaves belongs to a tree with a given root digest.
//!
//! # Examples
//!
//! ```
//! use cole_hash::sha256;
//! use cole_mht::{LeafLayer, MerkleFileBuilder, RangeProof};
//! # fn main() -> cole_primitives::Result<()> {
//! let dir = std::env::temp_dir().join(format!("cole-mht-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let leaves: Vec<_> = (0u8..10).map(|i| sha256(&[i])).collect();
//!
//! let mut builder = MerkleFileBuilder::create(dir.join("merkle.bin"), 10, 4)?;
//! for leaf in &leaves {
//!     builder.push_leaf(*leaf)?;
//! }
//! let merkle = builder.finish()?;
//!
//! let proof = merkle.range_proof(2, 5)?;
//! let root = proof.compute_root(&leaves[2..=5])?;
//! assert_eq!(root, merkle.root());
//!
//! // The same tree without its leaf layer: the caller supplies the leaf
//! // siblings (here from memory; the engine rehashes value-file entries),
//! // and the proof comes out byte for byte the same.
//! let mut builder =
//!     MerkleFileBuilder::create_with_leaf_layer(dir.join("derived.bin"), 10, 4, LeafLayer::Derived)?;
//! for leaf in &leaves {
//!     builder.push_leaf(*leaf)?;
//! }
//! let derived = builder.finish()?;
//! assert_eq!(derived.root(), merkle.root());
//! assert!(derived.size_bytes() < merkle.size_bytes());
//! let same = derived.range_proof_with(2, 5, |pos| Ok(leaves[pos as usize]))?;
//! assert_eq!(same.to_bytes(), proof.to_bytes());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod file;
mod layout;
mod proof;

pub use builder::MerkleFileBuilder;
pub use file::MerkleFile;
pub use layout::{LeafLayer, MhtLayout};
pub use proof::RangeProof;
