//! Self-contained, serializable Merkle range proofs.

use cole_hash::hash_digests;
use cole_primitives::{check_claim, ColeError, Digest, Result, DIGEST_LEN};

use crate::layout::MhtLayout;

/// Sibling digests supplied for one layer of a [`RangeProof`]: the digests to
/// the left of the verified range within its boundary group and those to the
/// right.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerSiblings {
    /// Digests immediately left of the range, inside the leftmost parent group.
    pub left: Vec<Digest>,
    /// Digests immediately right of the range, inside the rightmost parent group.
    pub right: Vec<Digest>,
}

/// A proof that a contiguous range of leaves `[first, last]` belongs to an
/// m-ary complete MHT with a given root.
///
/// The verifier recomputes parent digests layer by layer from the claimed
/// leaf digests plus the supplied siblings; the result must equal the trusted
/// root digest. The tree shape (`num_leaves`, `fanout`) is carried inside the
/// proof; lying about it changes the recomputed root, so it does not need to
/// be trusted separately.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeProof {
    num_leaves: u64,
    fanout: u64,
    first: u64,
    last: u64,
    layers: Vec<LayerSiblings>,
}

impl RangeProof {
    pub(crate) fn new(
        num_leaves: u64,
        fanout: u64,
        first: u64,
        last: u64,
        layers: Vec<LayerSiblings>,
    ) -> Self {
        RangeProof {
            num_leaves,
            fanout,
            first,
            last,
            layers,
        }
    }

    /// The leaf range `[first, last]` this proof covers.
    #[must_use]
    pub fn range(&self) -> (u64, u64) {
        (self.first, self.last)
    }

    /// The number of leaves of the proven tree.
    #[must_use]
    pub fn num_leaves(&self) -> u64 {
        self.num_leaves
    }

    /// The fanout of the proven tree.
    #[must_use]
    pub fn fanout(&self) -> u64 {
        self.fanout
    }

    /// Recomputes the root digest from the claimed `leaf_digests` (which must
    /// cover exactly the range `[first, last]`, in order).
    ///
    /// # Errors
    ///
    /// Returns an error if the number of digests does not match the range or
    /// the proof structure is inconsistent with the declared tree shape.
    pub fn compute_root(&self, leaf_digests: &[Digest]) -> Result<Digest> {
        let expected = (self.last - self.first + 1) as usize;
        if leaf_digests.len() != expected {
            return Err(ColeError::VerificationFailed(format!(
                "proof covers {expected} leaves but {} digests were supplied",
                leaf_digests.len()
            )));
        }
        let layout = MhtLayout::new(self.num_leaves, self.fanout)?;
        if self.layers.len() + 1 != layout.depth() {
            return Err(ColeError::VerificationFailed(format!(
                "proof has {} sibling layers but tree depth is {}",
                self.layers.len(),
                layout.depth()
            )));
        }
        let m = self.fanout;
        let mut lo = self.first;
        let mut hi = self.last;
        let mut current: Vec<Digest> = leaf_digests.to_vec();
        for (layer, siblings) in self.layers.iter().enumerate() {
            let layer_size = layout.layer_sizes()[layer];
            if hi >= layer_size {
                return Err(ColeError::VerificationFailed(
                    "proof range exceeds layer size".into(),
                ));
            }
            let group_lo = (lo / m) * m;
            let group_hi = ((hi / m) + 1).saturating_mul(m).min(layer_size);
            if siblings.left.len() as u64 != lo - group_lo
                || siblings.right.len() as u64 != group_hi - hi - 1
            {
                return Err(ColeError::VerificationFailed(format!(
                    "layer {layer} sibling counts do not match the tree shape"
                )));
            }
            // Assemble the full span [group_lo, group_hi) and hash it in
            // groups of m to obtain the parent layer's digests.
            let mut span = Vec::with_capacity((group_hi - group_lo) as usize);
            span.extend_from_slice(&siblings.left);
            span.extend_from_slice(&current);
            span.extend_from_slice(&siblings.right);
            current = span.chunks(m as usize).map(hash_digests).collect();
            lo /= m;
            hi /= m;
        }
        if current.len() != 1 {
            return Err(ColeError::VerificationFailed(format!(
                "proof reduction ended with {} digests instead of 1",
                current.len()
            )));
        }
        Ok(current[0])
    }

    /// Total size of the proof in bytes when serialized (the paper's
    /// proof-size metric).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// Serializes the proof.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.num_leaves.to_le_bytes());
        out.extend_from_slice(&self.fanout.to_le_bytes());
        out.extend_from_slice(&self.first.to_le_bytes());
        out.extend_from_slice(&self.last.to_le_bytes());
        out.extend_from_slice(&(self.layers.len() as u32).to_le_bytes());
        for layer in &self.layers {
            out.extend_from_slice(&(layer.left.len() as u32).to_le_bytes());
            out.extend_from_slice(&(layer.right.len() as u32).to_le_bytes());
            for d in layer.left.iter().chain(layer.right.iter()) {
                out.extend_from_slice(d.as_bytes());
            }
        }
        out
    }

    /// Deserializes a proof produced by [`RangeProof::to_bytes`].
    ///
    /// The bytes are untrusted (a proof arrives from a server), so the
    /// decoder rejects a shape no honest tree has — `first > last`,
    /// `last >= num_leaves`, `fanout < 2` — and never reserves more
    /// siblings than the remaining bytes can hold.
    ///
    /// # Errors
    ///
    /// Returns [`ColeError::InvalidEncoding`] if the byte string is malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut cursor = Cursor { bytes, pos: 0 };
        let num_leaves = cursor.u64()?;
        let fanout = cursor.u64()?;
        let first = cursor.u64()?;
        let last = cursor.u64()?;
        if first > last || last >= num_leaves || fanout < 2 {
            return Err(ColeError::InvalidEncoding(format!(
                "merkle proof range [{first}, {last}] of {num_leaves} leaves \
                 with fanout {fanout} is not a valid shape"
            )));
        }
        let num_layers = cursor.u32()? as usize;
        if num_layers > 256 {
            return Err(ColeError::InvalidEncoding(
                "unreasonable merkle proof depth".into(),
            ));
        }
        let mut layers = Vec::with_capacity(num_layers);
        for _ in 0..num_layers {
            let left_len = cursor.u32()? as usize;
            let right_len = cursor.u32()? as usize;
            let left = cursor.digests(left_len)?;
            let right = cursor.digests(right_len)?;
            layers.push(LayerSiblings { left, right });
        }
        Ok(RangeProof {
            num_leaves,
            fanout,
            first,
            last,
            layers,
        })
    }
}

/// A tiny read cursor over a byte slice used by proof deserialization.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(ColeError::InvalidEncoding("truncated merkle proof".into()));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u64(&mut self) -> Result<u64> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn u32(&mut self) -> Result<u32> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(buf))
    }

    fn digest(&mut self) -> Result<Digest> {
        let mut buf = [0u8; DIGEST_LEN];
        buf.copy_from_slice(self.take(DIGEST_LEN)?);
        Ok(Digest::new(buf))
    }

    /// `n` digests, rejected before anything is reserved if the remaining
    /// bytes cannot hold them (`n` comes straight off the wire).
    fn digests(&mut self, n: usize) -> Result<Vec<Digest>> {
        let mut out = Vec::with_capacity(check_claim(n, self.bytes.len() - self.pos, DIGEST_LEN)?);
        for _ in 0..n {
            out.push(self.digest()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MerkleFileBuilder;
    use cole_hash::sha256;

    fn build_proof(n: u64, m: u64, first: u64, last: u64) -> (Vec<Digest>, Digest, RangeProof) {
        let path = std::env::temp_dir().join(format!(
            "cole-proof-test-{}-{n}-{m}-{first}-{last}",
            std::process::id()
        ));
        let leaves: Vec<Digest> = (0..n).map(|i| sha256(&i.to_be_bytes())).collect();
        let mut b = MerkleFileBuilder::create(&path, n, m).unwrap();
        for leaf in &leaves {
            b.push_leaf(*leaf).unwrap();
        }
        let merkle = b.finish().unwrap();
        let proof = merkle.range_proof(first, last).unwrap();
        let root = merkle.root();
        std::fs::remove_file(&path).ok();
        (leaves, root, proof)
    }

    #[test]
    fn serialization_roundtrip() {
        let (_, _, proof) = build_proof(20, 4, 3, 11);
        let restored = RangeProof::from_bytes(&proof.to_bytes()).unwrap();
        assert_eq!(restored, proof);
        assert_eq!(proof.size_bytes(), proof.to_bytes().len());
    }

    #[test]
    fn wrong_leaf_count_is_rejected() {
        let (leaves, _, proof) = build_proof(20, 4, 3, 11);
        assert!(proof.compute_root(&leaves[3..=10]).is_err());
    }

    #[test]
    fn truncated_bytes_rejected() {
        let (_, _, proof) = build_proof(10, 2, 0, 9);
        let bytes = proof.to_bytes();
        assert!(RangeProof::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(RangeProof::from_bytes(&[]).is_err());
    }

    #[test]
    fn tampered_shape_changes_root() {
        let (leaves, root, proof) = build_proof(16, 2, 5, 9);
        // Forge a proof claiming a different tree size; recomputation must
        // not silently produce the honest root.
        let mut forged = proof.clone();
        forged.num_leaves = 8;
        // Structural rejection (an error) is also fine.
        if let Ok(r) = forged.compute_root(&leaves[5..=9]) {
            assert_ne!(r, root);
        }
    }

    #[test]
    fn shapes_no_honest_tree_has_are_rejected_at_decode() {
        let (_, _, proof) = build_proof(16, 2, 5, 9);
        for (num_leaves, fanout, first, last) in [
            (16, 2, 9, 5),  // first > last
            (16, 2, 5, 16), // last >= num_leaves
            (0, 2, 0, 0),   // no leaves at all
            (16, 1, 5, 9),  // fanout < 2
            (16, 0, 5, 9),
        ] {
            let forged = RangeProof {
                num_leaves,
                fanout,
                first,
                last,
                ..proof.clone()
            };
            assert!(
                RangeProof::from_bytes(&forged.to_bytes()).is_err(),
                "[{first}, {last}] of {num_leaves}, fanout {fanout}"
            );
        }
    }

    #[test]
    fn full_range_proof_has_no_siblings() {
        let (leaves, root, proof) = build_proof(9, 3, 0, 8);
        assert!(proof
            .layers
            .iter()
            .all(|l| l.left.is_empty() && l.right.is_empty()));
        assert_eq!(proof.compute_root(&leaves).unwrap(), root);
    }

    #[test]
    fn proof_size_grows_sublinearly_with_range() {
        let (_, _, small) = build_proof(1000, 4, 500, 501);
        let (_, _, large) = build_proof(1000, 4, 400, 600);
        // 100× wider range but nowhere near 100× proof size (ancestors are shared).
        assert!(large.size_bytes() < small.size_bytes() * 20);
    }
}
