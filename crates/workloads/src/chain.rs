//! Block headers and the transaction Merkle tree (§2, Figure 2).
//!
//! The storage engines only produce the state root digest `Hstate`; a full
//! blockchain node also hashes the block's transactions into `Htx`, links
//! blocks through `Hprev_blk` and can prove the inclusion of a transaction in
//! a block. This module provides that thin chain layer so the examples and
//! integration tests can exercise the complete block data structure the
//! paper describes.

use cole_hash::{hash_pair, sha256, Sha256};
use cole_primitives::{ColeError, Digest, Result};

use crate::txn::{Block, Transaction};

/// Hashes one transaction (the leaves of the transaction MHT).
#[must_use]
pub fn hash_transaction(tx: &Transaction) -> Digest {
    let mut hasher = Sha256::new();
    match tx {
        Transaction::Transfer { from, to, amount } => {
            hasher.update(&[0u8]);
            hasher.update(from.as_slice());
            hasher.update(to.as_slice());
            hasher.update(&amount.to_le_bytes());
        }
        Transaction::Write { addr, value } => {
            hasher.update(&[1u8]);
            hasher.update(addr.as_slice());
            hasher.update(value.as_bytes());
        }
        Transaction::Read { addr } => {
            hasher.update(&[2u8]);
            hasher.update(addr.as_slice());
        }
    }
    hasher.finalize()
}

/// Computes the binary transaction Merkle root `Htx` of a block (Figure 2).
/// An empty block hashes to the zero digest.
#[must_use]
pub fn transaction_root(transactions: &[Transaction]) -> Digest {
    if transactions.is_empty() {
        return Digest::ZERO;
    }
    let mut layer: Vec<Digest> = transactions.iter().map(hash_transaction).collect();
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    hash_pair(&pair[0], &pair[1])
                } else {
                    pair[0]
                }
            })
            .collect();
    }
    layer[0]
}

/// A Merkle inclusion proof for one transaction of a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxInclusionProof {
    /// Index of the transaction within the block.
    pub index: usize,
    /// Sibling digests from the leaf layer up to the root.
    pub siblings: Vec<Digest>,
    /// Number of transactions in the block.
    pub num_transactions: usize,
}

impl TxInclusionProof {
    /// Builds the inclusion proof for transaction `index` of `transactions`.
    ///
    /// # Errors
    ///
    /// Returns an error if `index` is out of bounds.
    pub fn build(transactions: &[Transaction], index: usize) -> Result<Self> {
        if index >= transactions.len() {
            return Err(ColeError::NotFound(format!(
                "transaction index {index} out of bounds ({} transactions)",
                transactions.len()
            )));
        }
        let mut layer: Vec<Digest> = transactions.iter().map(hash_transaction).collect();
        let mut siblings = Vec::new();
        let mut pos = index;
        while layer.len() > 1 {
            let sibling = if pos.is_multiple_of(2) {
                pos + 1
            } else {
                pos - 1
            };
            if sibling < layer.len() {
                siblings.push(layer[sibling]);
            }
            layer = layer
                .chunks(2)
                .map(|pair| {
                    if pair.len() == 2 {
                        hash_pair(&pair[0], &pair[1])
                    } else {
                        pair[0]
                    }
                })
                .collect();
            pos /= 2;
        }
        Ok(TxInclusionProof {
            index,
            siblings,
            num_transactions: transactions.len(),
        })
    }

    /// Recomputes the transaction root implied by this proof for `tx`.
    #[must_use]
    pub fn compute_root(&self, tx: &Transaction) -> Digest {
        let mut digest = hash_transaction(tx);
        let mut pos = self.index;
        let mut layer_len = self.num_transactions;
        let mut sibling_iter = self.siblings.iter();
        while layer_len > 1 {
            let sibling_pos = if pos.is_multiple_of(2) {
                pos + 1
            } else {
                pos - 1
            };
            if sibling_pos < layer_len {
                let sibling = sibling_iter.next().copied().unwrap_or(Digest::ZERO);
                digest = if pos.is_multiple_of(2) {
                    hash_pair(&digest, &sibling)
                } else {
                    hash_pair(&sibling, &digest)
                };
            }
            pos /= 2;
            layer_len = layer_len.div_ceil(2);
        }
        digest
    }
}

/// A block header (Figure 2): previous-block hash, timestamp, consensus
/// payload, transaction root and state root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Block height.
    pub height: u64,
    /// Hash of the previous block header (zero for the genesis block).
    pub prev_hash: Digest,
    /// Block timestamp (seconds; synthetic in this reproduction).
    pub timestamp: u64,
    /// Root digest of the block's transactions (`Htx`).
    pub tx_root: Digest,
    /// Root digest of the ledger states (`Hstate`).
    pub state_root: Digest,
}

impl BlockHeader {
    /// The header's own hash (used as `Hprev_blk` by the next block).
    #[must_use]
    pub fn hash(&self) -> Digest {
        let mut hasher = Sha256::new();
        hasher.update(&self.height.to_le_bytes());
        hasher.update(self.prev_hash.as_bytes());
        hasher.update(&self.timestamp.to_le_bytes());
        hasher.update(self.tx_root.as_bytes());
        hasher.update(self.state_root.as_bytes());
        hasher.finalize()
    }
}

/// An append-only chain of block headers with hash-chain validation.
#[derive(Clone, Debug, Default)]
pub struct HeaderChain {
    headers: Vec<BlockHeader>,
}

impl HeaderChain {
    /// Creates an empty chain.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of headers in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Returns `true` if the chain has no headers yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// The most recent header, if any.
    #[must_use]
    pub fn tip(&self) -> Option<&BlockHeader> {
        self.headers.last()
    }

    /// The header at `height`, if present.
    #[must_use]
    pub fn header_at(&self, height: u64) -> Option<&BlockHeader> {
        self.headers.iter().find(|h| h.height == height)
    }

    /// Appends a header for an executed block, computing `Htx` from the
    /// block's transactions and linking it to the current tip.
    ///
    /// # Errors
    ///
    /// Returns an error if the block height does not extend the chain.
    pub fn append(&mut self, block: &Block, state_root: Digest) -> Result<BlockHeader> {
        if let Some(tip) = self.tip() {
            if block.height <= tip.height {
                return Err(ColeError::InvalidState(format!(
                    "block {} does not extend the chain (tip {})",
                    block.height, tip.height
                )));
            }
        }
        let header = BlockHeader {
            height: block.height,
            prev_hash: self.tip().map(BlockHeader::hash).unwrap_or(Digest::ZERO),
            timestamp: 1_700_000_000 + block.height,
            tx_root: transaction_root(&block.transactions),
            state_root,
        };
        self.headers.push(header);
        Ok(header)
    }

    /// Validates the hash chain: every header's `prev_hash` must equal the
    /// hash of its predecessor.
    #[must_use]
    pub fn validate(&self) -> bool {
        self.headers
            .windows(2)
            .all(|pair| pair[1].prev_hash == pair[0].hash() && pair[1].height > pair[0].height)
            && self
                .headers
                .first()
                .is_none_or(|genesis| genesis.prev_hash == Digest::ZERO)
    }

    /// Verifies that `tx` is included in the block at `height` using the
    /// supplied inclusion proof.
    #[must_use]
    pub fn verify_transaction(
        &self,
        height: u64,
        tx: &Transaction,
        proof: &TxInclusionProof,
    ) -> bool {
        match self.header_at(height) {
            Some(header) => proof.compute_root(tx) == header.tx_root,
            None => false,
        }
    }
}

/// Convenience: the digest of arbitrary consensus payload bytes (π_cons in
/// Figure 2), exposed for completeness of the header structure.
#[must_use]
pub fn consensus_digest(payload: &[u8]) -> Digest {
    sha256(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cole_primitives::{Address, StateValue};

    fn sample_block(height: u64, n: u64) -> Block {
        Block {
            height,
            transactions: (0..n)
                .map(|i| Transaction::Write {
                    addr: Address::from_low_u64(i),
                    value: StateValue::from_u64(height * 100 + i),
                })
                .collect(),
        }
    }

    #[test]
    fn transaction_root_is_order_sensitive() {
        let a = sample_block(1, 5).transactions;
        let mut b = a.clone();
        b.swap(0, 4);
        assert_ne!(transaction_root(&a), transaction_root(&b));
        assert_eq!(transaction_root(&[]), Digest::ZERO);
    }

    #[test]
    fn inclusion_proofs_verify_for_every_position() {
        for n in [1u64, 2, 3, 7, 8, 13] {
            let block = sample_block(1, n);
            let root = transaction_root(&block.transactions);
            for (i, tx) in block.transactions.iter().enumerate() {
                let proof = TxInclusionProof::build(&block.transactions, i).unwrap();
                assert_eq!(proof.compute_root(tx), root, "n={n}, i={i}");
                // A different transaction does not verify with this proof.
                let other = Transaction::Read {
                    addr: Address::from_low_u64(999),
                };
                assert_ne!(proof.compute_root(&other), root);
            }
        }
    }

    #[test]
    fn inclusion_proof_rejects_out_of_bounds() {
        let block = sample_block(1, 3);
        assert!(TxInclusionProof::build(&block.transactions, 3).is_err());
    }

    #[test]
    fn header_chain_links_and_validates() {
        let mut chain = HeaderChain::new();
        assert!(chain.is_empty());
        for height in 1..=10u64 {
            let block = sample_block(height, 4);
            chain
                .append(&block, Digest::new([height as u8; 32]))
                .unwrap();
        }
        assert_eq!(chain.len(), 10);
        assert!(chain.validate());
        assert_eq!(chain.tip().unwrap().height, 10);
        // Tampering with a middle header breaks validation.
        let mut broken = chain.clone();
        broken.headers[4].state_root = Digest::ZERO;
        // The header itself changed, so the next header's prev_hash no longer
        // matches.
        assert!(!broken.validate());
        // Appending a non-advancing height fails.
        assert!(chain.append(&sample_block(10, 1), Digest::ZERO).is_err());
    }

    #[test]
    fn chain_verifies_transaction_inclusion() {
        let mut chain = HeaderChain::new();
        let block = sample_block(1, 9);
        chain.append(&block, Digest::ZERO).unwrap();
        let proof = TxInclusionProof::build(&block.transactions, 4).unwrap();
        assert!(chain.verify_transaction(1, &block.transactions[4], &proof));
        assert!(!chain.verify_transaction(1, &block.transactions[5], &proof));
        assert!(!chain.verify_transaction(2, &block.transactions[4], &proof));
        assert_ne!(consensus_digest(b"pbft"), consensus_digest(b"pos"));
    }
}
