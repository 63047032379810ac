//! MB-tree query proofs and their verification.

use cole_hash::Sha256;
use cole_primitives::{
    check_claim, ColeError, CompoundKey, Digest, Result, StateValue, COMPOUND_KEY_LEN, DIGEST_LEN,
    VALUE_LEN,
};

/// Tag bytes distinguishing node kinds inside digests and serializations.
const TAG_LEAF: u8 = 0x00;
const TAG_INTERNAL: u8 = 0x01;
const TAG_PRUNED: u8 = 0x02;

/// Computes the digest of a leaf node from its entries.
pub(crate) fn digest_leaf(keys: &[CompoundKey], values: &[StateValue]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(&[TAG_LEAF]);
    hasher.update(&(keys.len() as u32).to_le_bytes());
    for (k, v) in keys.iter().zip(values.iter()) {
        hasher.update(&k.to_bytes());
        hasher.update(v.as_bytes());
    }
    hasher.finalize()
}

/// Computes the digest of an internal node from its separator keys and the
/// digests of its children.
pub(crate) fn digest_internal(keys: &[CompoundKey], child_digests: &[Digest]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(&[TAG_INTERNAL]);
    hasher.update(&(child_digests.len() as u32).to_le_bytes());
    for d in child_digests {
        hasher.update(d.as_bytes());
    }
    for k in keys {
        hasher.update(&k.to_bytes());
    }
    hasher.finalize()
}

/// One node of an MB-tree proof: either a pruned subtree (represented only by
/// its digest), a full leaf, or an internal node whose relevant children are
/// expanded recursively.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofNode {
    /// A subtree that cannot contain results; only its digest is supplied.
    Pruned {
        /// Digest of the pruned subtree.
        digest: Digest,
    },
    /// A leaf overlapping the query range; all its entries are supplied.
    Leaf {
        /// Keys of the leaf, in order.
        keys: Vec<CompoundKey>,
        /// Values parallel to `keys`.
        values: Vec<StateValue>,
    },
    /// An internal node on a search path.
    Internal {
        /// Separator keys of the node.
        keys: Vec<CompoundKey>,
        /// Children, expanded or pruned.
        children: Vec<ProofNode>,
    },
}

/// A verifiable proof for an MB-tree range query.
///
/// Verification recomputes the root digest from the proof structure, checks
/// it against the trusted root, checks that every pruned subtree provably
/// cannot overlap the query range (using the separator keys, which are bound
/// by the digests), and returns the entries found inside the range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MbProof {
    root: ProofNode,
}

impl MbProof {
    pub(crate) fn new(root: ProofNode) -> Self {
        MbProof { root }
    }

    /// The root proof node (exposed for tests and size accounting).
    #[must_use]
    pub fn root_node(&self) -> &ProofNode {
        &self.root
    }

    /// Verifies the proof against `expected_root` for the query range
    /// `[lower, upper]`, returning the authenticated entries in that range.
    ///
    /// # Errors
    ///
    /// Returns [`ColeError::VerificationFailed`] if the recomputed digest
    /// does not match, if a pruned subtree could overlap the range, or if the
    /// proof structure is malformed.
    pub fn verify(
        &self,
        expected_root: Digest,
        lower: CompoundKey,
        upper: CompoundKey,
    ) -> Result<Vec<(CompoundKey, StateValue)>> {
        let (computed, results) = self.compute(lower, upper)?;
        if computed != expected_root {
            return Err(ColeError::VerificationFailed(
                "MB-tree proof root digest mismatch".into(),
            ));
        }
        Ok(results)
    }

    /// Recomputes the root digest implied by the proof for the query range
    /// `[lower, upper]` and returns it together with the authenticated
    /// entries in that range.
    ///
    /// This is the building block used when the expected root is itself
    /// derived from the proof (e.g. when reconstructing COLE's `Hstate` from
    /// a list of component roots).
    ///
    /// # Errors
    ///
    /// Returns [`ColeError::VerificationFailed`] if the proof structure is
    /// malformed or prunes a subtree that may overlap the range.
    pub fn compute(
        &self,
        lower: CompoundKey,
        upper: CompoundKey,
    ) -> Result<(Digest, Vec<(CompoundKey, StateValue)>)> {
        let mut results = Vec::new();
        let computed = Self::check_node(&self.root, lower, upper, false, &mut results)?;
        results.sort_by_key(|(k, _)| *k);
        Ok((computed, results))
    }

    /// Recursively recomputes the digest of `node` while collecting results
    /// and checking that pruned subtrees cannot overlap `[lower, upper]`.
    ///
    /// `pruned_context` is true when an ancestor determined this subtree
    /// cannot overlap the range (in which case overlap checks are skipped for
    /// descendants — they are only present for digest recomputation).
    fn check_node(
        node: &ProofNode,
        lower: CompoundKey,
        upper: CompoundKey,
        pruned_context: bool,
        results: &mut Vec<(CompoundKey, StateValue)>,
    ) -> Result<Digest> {
        match node {
            ProofNode::Pruned { digest } => {
                if !pruned_context {
                    return Err(ColeError::VerificationFailed(
                        "proof prunes a subtree that may overlap the query range".into(),
                    ));
                }
                Ok(*digest)
            }
            ProofNode::Leaf { keys, values } => {
                if keys.len() != values.len() {
                    return Err(ColeError::VerificationFailed(
                        "leaf proof node has mismatched keys and values".into(),
                    ));
                }
                if !keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err(ColeError::VerificationFailed(
                        "leaf proof node keys are not strictly sorted".into(),
                    ));
                }
                if !pruned_context {
                    for (k, v) in keys.iter().zip(values.iter()) {
                        if *k >= lower && *k <= upper {
                            results.push((*k, *v));
                        }
                    }
                }
                Ok(digest_leaf(keys, values))
            }
            ProofNode::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err(ColeError::VerificationFailed(
                        "internal proof node has inconsistent fanout".into(),
                    ));
                }
                if !keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err(ColeError::VerificationFailed(
                        "internal proof node keys are not sorted".into(),
                    ));
                }
                let mut child_digests = Vec::with_capacity(children.len());
                for (i, child) in children.iter().enumerate() {
                    // Child i covers [keys[i-1], keys[i]).
                    let cannot_overlap =
                        (i > 0 && keys[i - 1] > upper) || (i < keys.len() && keys[i] <= lower);
                    let child_pruned_context = pruned_context || cannot_overlap;
                    child_digests.push(Self::check_node(
                        child,
                        lower,
                        upper,
                        child_pruned_context,
                        results,
                    )?);
                }
                Ok(digest_internal(keys, &child_digests))
            }
        }
    }

    /// Serializes the proof.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        Self::encode_node(&self.root, &mut out);
        out
    }

    /// Size of the serialized proof in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// Deserializes a proof produced by [`MbProof::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`ColeError::InvalidEncoding`] if the byte string is malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let root = Self::decode_node(bytes, &mut pos, 0)?;
        if pos != bytes.len() {
            return Err(ColeError::InvalidEncoding(
                "trailing bytes after MB-tree proof".into(),
            ));
        }
        Ok(MbProof { root })
    }

    fn encode_node(node: &ProofNode, out: &mut Vec<u8>) {
        match node {
            ProofNode::Pruned { digest } => {
                out.push(TAG_PRUNED);
                out.extend_from_slice(digest.as_bytes());
            }
            ProofNode::Leaf { keys, values } => {
                out.push(TAG_LEAF);
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                for (k, v) in keys.iter().zip(values.iter()) {
                    out.extend_from_slice(&k.to_bytes());
                    out.extend_from_slice(v.as_bytes());
                }
            }
            ProofNode::Internal { keys, children } => {
                out.push(TAG_INTERNAL);
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                for k in keys {
                    out.extend_from_slice(&k.to_bytes());
                }
                for child in children {
                    Self::encode_node(child, out);
                }
            }
        }
    }

    fn decode_node(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<ProofNode> {
        if depth > 64 {
            return Err(ColeError::InvalidEncoding(
                "MB-tree proof nesting too deep".into(),
            ));
        }
        let tag = *bytes
            .get(*pos)
            .ok_or_else(|| ColeError::InvalidEncoding("truncated MB-tree proof".into()))?;
        *pos += 1;
        match tag {
            TAG_PRUNED => {
                let digest_bytes = take(bytes, pos, DIGEST_LEN)?;
                let mut d = [0u8; DIGEST_LEN];
                d.copy_from_slice(digest_bytes);
                Ok(ProofNode::Pruned {
                    digest: Digest::new(d),
                })
            }
            TAG_LEAF => {
                let n = take_u32(bytes, pos)? as usize;
                check_claim(n, bytes.len() - *pos, COMPOUND_KEY_LEN + VALUE_LEN)?;
                let mut keys = Vec::with_capacity(n);
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(CompoundKey::from_bytes(take(
                        bytes,
                        pos,
                        COMPOUND_KEY_LEN,
                    )?)?);
                    let mut v = [0u8; VALUE_LEN];
                    v.copy_from_slice(take(bytes, pos, VALUE_LEN)?);
                    values.push(StateValue::new(v));
                }
                Ok(ProofNode::Leaf { keys, values })
            }
            TAG_INTERNAL => {
                let n = take_u32(bytes, pos)? as usize;
                // n keys, then n + 1 children of at least a tag and a
                // 4-byte count each.
                check_claim(n, bytes.len() - *pos, COMPOUND_KEY_LEN + 5)?;
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(CompoundKey::from_bytes(take(
                        bytes,
                        pos,
                        COMPOUND_KEY_LEN,
                    )?)?);
                }
                let mut children = Vec::with_capacity(n + 1);
                for _ in 0..=n {
                    children.push(Self::decode_node(bytes, pos, depth + 1)?);
                }
                Ok(ProofNode::Internal { keys, children })
            }
            other => Err(ColeError::InvalidEncoding(format!(
                "unknown MB-tree proof tag {other}"
            ))),
        }
    }
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    if *pos + n > bytes.len() {
        return Err(ColeError::InvalidEncoding("truncated MB-tree proof".into()));
    }
    let out = &bytes[*pos..*pos + n];
    *pos += n;
    Ok(out)
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(take(bytes, pos, 4)?);
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MbTree;
    use cole_primitives::Address;

    fn key(addr: u64, blk: u64) -> CompoundKey {
        CompoundKey::new(Address::from_low_u64(addr), blk)
    }

    fn sample_tree() -> MbTree {
        let mut tree = MbTree::with_fanout(4);
        for addr in 0..40u64 {
            for blk in 1..=3u64 {
                tree.insert(key(addr, blk), StateValue::from_u64(addr * 10 + blk));
            }
        }
        tree
    }

    #[test]
    fn proof_serialization_roundtrip() {
        let tree = sample_tree();
        let (_, proof) = tree.range_with_proof(key(10, 0), key(12, 9));
        let bytes = proof.to_bytes();
        let restored = MbProof::from_bytes(&bytes).unwrap();
        assert_eq!(restored, proof);
        assert_eq!(proof.size_bytes(), bytes.len());
    }

    #[test]
    fn verification_detects_tampered_value() {
        let mut tree = sample_tree();
        let root = tree.root_hash();
        let lower = key(5, 1);
        let upper = key(5, 3);
        let (_, proof) = tree.range_with_proof(lower, upper);

        // Tamper with one leaf value inside the proof.
        let mut tampered = proof.clone();
        fn tamper(node: &mut ProofNode) -> bool {
            match node {
                ProofNode::Leaf { values, .. } if !values.is_empty() => {
                    values[0] = StateValue::from_u64(999_999);
                    true
                }
                ProofNode::Internal { children, .. } => children.iter_mut().any(tamper),
                _ => false,
            }
        }
        assert!(tamper(&mut tampered.root));
        assert!(tampered.verify(root, lower, upper).is_err());
    }

    #[test]
    fn verification_rejects_overlapping_pruned_subtree() {
        let mut tree = sample_tree();
        let root = tree.root_hash();
        let lower = key(5, 1);
        let upper = key(5, 3);
        let (_, proof) = tree.range_with_proof(lower, upper);
        // Verifying the same proof for a *wider* range must fail: subtrees
        // pruned for the narrow range may overlap the wider one.
        let err = proof.verify(root, key(0, 0), key(39, 9));
        assert!(err.is_err());
    }

    #[test]
    fn proof_of_empty_range_verifies_and_returns_nothing() {
        let mut tree = sample_tree();
        let root = tree.root_hash();
        // Address 100 was never written.
        let lower = key(100, 0);
        let upper = key(100, 9);
        let (results, proof) = tree.range_with_proof(lower, upper);
        assert!(results.is_empty());
        let verified = proof.verify(root, lower, upper).unwrap();
        assert!(verified.is_empty());
    }

    #[test]
    fn decoding_garbage_fails() {
        assert!(MbProof::from_bytes(&[]).is_err());
        assert!(MbProof::from_bytes(&[0xff, 0, 0]).is_err());
        let tree = sample_tree();
        let (_, proof) = tree.range_with_proof(key(1, 0), key(1, 9));
        let mut bytes = proof.to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(MbProof::from_bytes(&bytes).is_err());
    }

    #[test]
    fn digest_functions_are_content_sensitive() {
        let k1 = vec![key(1, 1)];
        let v1 = vec![StateValue::from_u64(1)];
        let v2 = vec![StateValue::from_u64(2)];
        assert_ne!(digest_leaf(&k1, &v1), digest_leaf(&k1, &v2));
        let d1 = digest_leaf(&k1, &v1);
        let d2 = digest_leaf(&k1, &v2);
        assert_ne!(
            digest_internal(&[key(2, 0)], &[d1, d2]),
            digest_internal(&[key(3, 0)], &[d1, d2])
        );
    }
}
