//! Provenance proofs over the whole COLE structure and the state root digest
//! `Hstate` they verify against (§3.2, §6.2).

use std::sync::Arc;

use cole_hash::{hash_entry, hash_pair, Sha256};
use cole_mbtree::MbProof;
use cole_mht::RangeProof;
use cole_primitives::{
    check_claim, Address, ColeError, CompoundKey, Digest, Result, StateValue, VersionedValue,
    COMPOUND_KEY_LEN, DIGEST_LEN, VALUE_LEN,
};

/// Tag identifying the kind of an entry of `root_hash_list`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RootEntryKind {
    /// An in-memory MB-tree group (the writing or merging group of level 0).
    Memtable,
    /// An on-disk run (its commitment `h(merkle_root ‖ bloom_digest)`).
    Run,
}

impl RootEntryKind {
    fn tag(self) -> u8 {
        match self {
            RootEntryKind::Memtable => 0x10,
            RootEntryKind::Run => 0x11,
        }
    }
}

/// Computes the blockchain state root digest `Hstate` from the ordered
/// `root_hash_list`: the digest of the concatenation of every component's
/// kind tag and digest (§3.2, Algorithm 1 line 13).
#[must_use]
pub fn compute_hstate(root_hash_list: &[(RootEntryKind, Digest)]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(&(root_hash_list.len() as u64).to_le_bytes());
    for (kind, digest) in root_hash_list {
        hasher.update(&[kind.tag()]);
        hasher.update(digest.as_bytes());
    }
    hasher.finalize()
}

/// The proof contribution of one `root_hash_list` component to a provenance
/// query (§6.2, Algorithm 8).
///
/// Components appear in the proof in exactly the order of `root_hash_list`,
/// which is also the order in which the engine searches them (young to old),
/// so the verifier can both reconstruct `Hstate` and check that the search
/// was allowed to stop where it stopped.
#[derive(Clone, Debug, PartialEq)]
pub enum ComponentProof {
    /// An in-memory MB-tree group that was searched; carries an MB-tree
    /// range proof from which the group's root digest is recomputed.
    MemSearched {
        /// The MB-tree range proof.
        proof: MbProof,
    },
    /// An in-memory group that was not searched because an earlier component
    /// already produced a version older than the queried range.
    MemUnsearched {
        /// The group's root digest, taken from `root_hash_list`.
        root: Digest,
    },
    /// An on-disk run that was searched.
    RunSearched {
        /// The contiguous value-file entries bracketing the query range.
        entries: Vec<(CompoundKey, StateValue)>,
        /// Merkle range proof over those entries' positions.
        merkle_proof: RangeProof,
        /// Digest of the run's Bloom filter (needed to recompute the run's
        /// commitment).
        bloom_digest: Digest,
    },
    /// A run skipped because its Bloom filter excludes the queried address,
    /// with the whole filter disclosed (footnote 1 of the paper).
    ///
    /// Neither produced nor accepted: the engine proves absence with a
    /// [`RunSearched`](Self::RunSearched) bracket instead, which is a few
    /// hundred bytes where a filter is up to tens of KB (see the `read`
    /// module), and [`ColeProof::verify`] returns `Ok(false)` for a proof
    /// that carries one. The variant and its encoding (tag 3) stay so that
    /// such a proof still decodes and can be reported as rejected.
    RunBloomNegative {
        /// The run's serialized Bloom filter.
        bloom: Arc<[u8]>,
        /// Root digest of the run's Merkle file.
        merkle_root: Digest,
    },
    /// A run that was not searched because of the early stop.
    RunUnsearched {
        /// The run's commitment, taken from `root_hash_list`.
        commitment: Digest,
    },
}

/// A complete provenance proof: one [`ComponentProof`] per entry of
/// `root_hash_list`, in order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColeProof {
    /// Per-component proofs in `root_hash_list` order.
    pub components: Vec<ComponentProof>,
}

impl ColeProof {
    /// Verifies the proof for the query `(addr, [blk_lower, blk_upper])`
    /// against the trusted state root digest `hstate`, and checks that the
    /// claimed `values` are exactly the authenticated versions in the range,
    /// newest first and each once.
    ///
    /// # Errors
    ///
    /// Returns an error if the proof is malformed. Returns `Ok(false)` if the
    /// proof is well-formed but does not authenticate the claimed results.
    pub fn verify(
        &self,
        addr: Address,
        blk_lower: u64,
        blk_upper: u64,
        values: &[VersionedValue],
        hstate: Digest,
    ) -> Result<bool> {
        let lower = CompoundKey::new(addr, blk_lower.saturating_sub(1));
        let upper = CompoundKey::new(addr, blk_upper.saturating_add(1));

        let mut root_hash_list = Vec::with_capacity(self.components.len());
        let mut collected: Vec<(CompoundKey, StateValue)> = Vec::new();
        // Set once a searched component shows a version of `addr` older than
        // the queried range (or shows the address is entirely absent there);
        // only then may later components be left unsearched.
        let mut early_stop_justified = false;

        for component in &self.components {
            match component {
                ComponentProof::MemSearched { proof } => {
                    let (root, entries) = proof.compute(lower, upper)?;
                    root_hash_list.push((RootEntryKind::Memtable, root));
                    for (k, _) in &entries {
                        if k.address() == addr && k.block_height() < blk_lower {
                            early_stop_justified = true;
                        }
                    }
                    collected.extend(entries);
                }
                ComponentProof::MemUnsearched { root } => {
                    if !early_stop_justified {
                        return Ok(false);
                    }
                    root_hash_list.push((RootEntryKind::Memtable, *root));
                }
                ComponentProof::RunSearched {
                    entries,
                    merkle_proof,
                    bloom_digest,
                } => {
                    if entries.is_empty() {
                        return Err(ColeError::VerificationFailed(
                            "searched run proof carries no entries".into(),
                        ));
                    }
                    let (first, last) = merkle_proof.range();
                    if last.checked_sub(first) != Some(entries.len() as u64 - 1) {
                        return Ok(false);
                    }
                    let leaves: Vec<Digest> =
                        entries.iter().map(|(k, v)| hash_entry(k, v)).collect();
                    let merkle_root = merkle_proof.compute_root(&leaves)?;
                    root_hash_list
                        .push((RootEntryKind::Run, hash_pair(&merkle_root, bloom_digest)));
                    // Completeness at the left boundary: unless the scan
                    // started at the first entry of the run, the first entry
                    // must lie at or before the lower search key.
                    if first > 0 && entries[0].0 > lower {
                        return Ok(false);
                    }
                    // Completeness at the right boundary: unless the scan
                    // reached the run's end, the last entry must lie beyond
                    // the upper search key.
                    let num_leaves = merkle_proof.num_leaves();
                    if last.saturating_add(1) < num_leaves && entries[entries.len() - 1].0 <= upper
                    {
                        return Ok(false);
                    }
                    for (k, _) in entries {
                        if k.address() == addr && k.block_height() < blk_lower {
                            early_stop_justified = true;
                        }
                    }
                    collected.extend(entries.iter().copied());
                }
                // No engine emits a disclosed filter, so a proof that carries
                // one is rejected without parsing the server's filter bytes.
                ComponentProof::RunBloomNegative { .. } => return Ok(false),
                ComponentProof::RunUnsearched { commitment } => {
                    if !early_stop_justified {
                        return Ok(false);
                    }
                    root_hash_list.push((RootEntryKind::Run, *commitment));
                }
            }
        }

        if compute_hstate(&root_hash_list) != hstate {
            return Ok(false);
        }

        // The authenticated result set: versions of `addr` within the range,
        // newest first.
        let mut authenticated: Vec<VersionedValue> = collected
            .into_iter()
            .filter(|(k, _)| {
                k.address() == addr
                    && k.block_height() >= blk_lower
                    && k.block_height() <= blk_upper
            })
            .map(|(k, v)| VersionedValue::new(k.block_height(), v))
            .collect();
        authenticated.sort_by_key(|v| std::cmp::Reverse(v.block_height));
        authenticated.dedup();

        // The claim must be that list exactly — the order the honest prover
        // emits — not merely the same set: a repeated or reordered version
        // would otherwise pass verification and reach the caller.
        Ok(authenticated == values)
    }

    /// Serializes the proof for transport (the paper's proof-size metric is
    /// the length of this encoding).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.components.len() as u32).to_le_bytes());
        for component in &self.components {
            match component {
                ComponentProof::MemSearched { proof } => {
                    out.push(0);
                    let bytes = proof.to_bytes();
                    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    out.extend_from_slice(&bytes);
                }
                ComponentProof::MemUnsearched { root } => {
                    out.push(1);
                    out.extend_from_slice(root.as_bytes());
                }
                ComponentProof::RunSearched {
                    entries,
                    merkle_proof,
                    bloom_digest,
                } => {
                    out.push(2);
                    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                    for (k, v) in entries {
                        out.extend_from_slice(&k.to_bytes());
                        out.extend_from_slice(v.as_bytes());
                    }
                    let bytes = merkle_proof.to_bytes();
                    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                    out.extend_from_slice(&bytes);
                    out.extend_from_slice(bloom_digest.as_bytes());
                }
                ComponentProof::RunBloomNegative { bloom, merkle_root } => {
                    out.push(3);
                    out.extend_from_slice(&(bloom.len() as u32).to_le_bytes());
                    out.extend_from_slice(bloom);
                    out.extend_from_slice(merkle_root.as_bytes());
                }
                ComponentProof::RunUnsearched { commitment } => {
                    out.push(4);
                    out.extend_from_slice(commitment.as_bytes());
                }
            }
        }
        out
    }

    /// Deserializes a proof produced by [`ColeProof::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`ColeError::InvalidEncoding`] if the byte string is malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let count = take_u32(bytes, &mut pos)? as usize;
        // The smallest component is a tag plus a 4-byte length.
        let mut components = Vec::with_capacity(check_claim(count, bytes.len() - pos, 5)?);
        for _ in 0..count {
            let tag = *bytes
                .get(pos)
                .ok_or_else(|| ColeError::InvalidEncoding("truncated COLE proof".into()))?;
            pos += 1;
            let component = match tag {
                0 => {
                    let len = take_u32(bytes, &mut pos)? as usize;
                    let proof = MbProof::from_bytes(take(bytes, &mut pos, len)?)?;
                    ComponentProof::MemSearched { proof }
                }
                1 => ComponentProof::MemUnsearched {
                    root: take_digest(bytes, &mut pos)?,
                },
                2 => {
                    let n = take_u32(bytes, &mut pos)? as usize;
                    let entry_len = COMPOUND_KEY_LEN + VALUE_LEN;
                    let mut entries =
                        Vec::with_capacity(check_claim(n, bytes.len() - pos, entry_len)?);
                    for _ in 0..n {
                        let key =
                            CompoundKey::from_bytes(take(bytes, &mut pos, COMPOUND_KEY_LEN)?)?;
                        let mut value = [0u8; VALUE_LEN];
                        value.copy_from_slice(take(bytes, &mut pos, VALUE_LEN)?);
                        entries.push((key, StateValue::new(value)));
                    }
                    let len = take_u32(bytes, &mut pos)? as usize;
                    let merkle_proof = RangeProof::from_bytes(take(bytes, &mut pos, len)?)?;
                    let bloom_digest = take_digest(bytes, &mut pos)?;
                    ComponentProof::RunSearched {
                        entries,
                        merkle_proof,
                        bloom_digest,
                    }
                }
                3 => {
                    let len = take_u32(bytes, &mut pos)? as usize;
                    let bloom: Arc<[u8]> = take(bytes, &mut pos, len)?.into();
                    let merkle_root = take_digest(bytes, &mut pos)?;
                    ComponentProof::RunBloomNegative { bloom, merkle_root }
                }
                4 => ComponentProof::RunUnsearched {
                    commitment: take_digest(bytes, &mut pos)?,
                },
                other => {
                    return Err(ColeError::InvalidEncoding(format!(
                        "unknown COLE proof component tag {other}"
                    )))
                }
            };
            components.push(component);
        }
        if pos != bytes.len() {
            return Err(ColeError::InvalidEncoding(
                "trailing bytes after COLE proof".into(),
            ));
        }
        Ok(ColeProof { components })
    }
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    if *pos + n > bytes.len() {
        return Err(ColeError::InvalidEncoding("truncated COLE proof".into()));
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

fn take_digest(bytes: &[u8], pos: &mut usize) -> Result<Digest> {
    let mut buf = [0u8; DIGEST_LEN];
    buf.copy_from_slice(take(bytes, pos, DIGEST_LEN)?);
    Ok(Digest::new(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hstate_is_order_and_kind_sensitive() {
        let d1 = Digest::new([1u8; 32]);
        let d2 = Digest::new([2u8; 32]);
        let a = compute_hstate(&[(RootEntryKind::Memtable, d1), (RootEntryKind::Run, d2)]);
        let b = compute_hstate(&[(RootEntryKind::Run, d2), (RootEntryKind::Memtable, d1)]);
        let c = compute_hstate(&[(RootEntryKind::Run, d1), (RootEntryKind::Run, d2)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(
            compute_hstate(&[]),
            compute_hstate(&[(RootEntryKind::Run, Digest::ZERO)])
        );
    }

    #[test]
    fn proof_serialization_roundtrip_simple_components() {
        let proof = ColeProof {
            components: vec![
                ComponentProof::MemUnsearched {
                    root: Digest::new([7u8; 32]),
                },
                ComponentProof::RunUnsearched {
                    commitment: Digest::new([9u8; 32]),
                },
                ComponentProof::RunBloomNegative {
                    bloom: vec![5u8; 24].into(),
                    merkle_root: Digest::new([3u8; 32]),
                },
            ],
        };
        let bytes = proof.to_bytes();
        assert_eq!(ColeProof::from_bytes(&bytes).unwrap(), proof);
        assert!(ColeProof::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn unsearched_without_justification_fails_verification() {
        let proof = ColeProof {
            components: vec![ComponentProof::RunUnsearched {
                commitment: Digest::new([9u8; 32]),
            }],
        };
        let hstate = compute_hstate(&[(RootEntryKind::Run, Digest::new([9u8; 32]))]);
        let ok = proof
            .verify(Address::from_low_u64(1), 1, 5, &[], hstate)
            .unwrap();
        assert!(!ok);
    }
}
