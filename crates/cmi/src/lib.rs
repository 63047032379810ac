//! CMI baseline: a Column-based Merkle Index without learned models
//! (§8.1.1).
//!
//! CMI keeps COLE's column-based idea — the historical versions of a state
//! are stored contiguously — but indexes them with traditional Merkle
//! structures on top of a RocksDB-style key–value backend:
//!
//! * the **lower index** of each address is its version history, stored
//!   contiguously in the backend and authenticated by an m-ary complete MHT
//!   whose root summarizes the history;
//! * the **upper index** is a non-persistent Merkle index keyed by address
//!   whose values are the lower-index root hashes (we use an in-memory
//!   MB-tree for it; the paper uses a non-persistent MPT — both are
//!   hash-aggregating ordered maps and contribute equally to `Hstate`).
//!
//! Every update must read the address's history from the backend, append the
//! new version, write it back and refresh the Merkle hashes along the upper
//! path — the read-plus-write IO per update that makes CMI 7×–22× slower
//! than MPT in the paper's evaluation and unable to scale past 10⁴ blocks.
//!
//! # Examples
//!
//! ```
//! use cole_cmi::CmiStorage;
//! use cole_primitives::{Address, AuthenticatedStorage, StateValue};
//! # fn main() -> cole_primitives::Result<()> {
//! let dir = std::env::temp_dir().join(format!("cole-cmi-doc-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let mut cmi = CmiStorage::open(&dir)?;
//! cmi.begin_block(1)?;
//! cmi.put(Address::from_low_u64(8), StateValue::from_u64(80))?;
//! let hstate = cmi.finalize_block()?;
//! assert_eq!(cmi.get(Address::from_low_u64(8))?, Some(StateValue::from_u64(80)));
//! let result = cmi.prov_query(Address::from_low_u64(8), 1, 1)?;
//! assert!(cmi.verify_prov(Address::from_low_u64(8), 1, 1, &result, hstate)?);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::Path;

use cole_hash::{hash_digests, Sha256};
use cole_mbtree::{MbProof, MbTree};
use cole_primitives::{
    Address, AuthenticatedStorage, ColeError, CompoundKey, Digest, ProvenanceResult, Result,
    StateValue, StorageStats, VersionedValue, DIGEST_LEN, VALUE_LEN,
};
use cole_storage::{FileKvStore, KvStore};

/// Fanout of the per-address history MHT.
const HISTORY_MHT_FANOUT: usize = 4;
/// Default backend memory budget (64 MB, as for the other baselines).
const DEFAULT_MEMORY_BUDGET: u64 = 64 * 1024 * 1024;

/// The CMI baseline storage engine.
#[derive(Debug)]
pub struct CmiStorage {
    kv: FileKvStore,
    /// Upper Merkle index: address → root digest of the address's history.
    upper: MbTree,
    current_block: u64,
}

/// One version entry of an address's history blob.
fn encode_history(history: &[(u64, StateValue)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(history.len() * (8 + VALUE_LEN));
    for (blk, value) in history {
        out.extend_from_slice(&blk.to_le_bytes());
        out.extend_from_slice(value.as_bytes());
    }
    out
}

fn decode_history(bytes: &[u8]) -> Result<Vec<(u64, StateValue)>> {
    if !bytes.len().is_multiple_of(8 + VALUE_LEN) {
        return Err(ColeError::InvalidEncoding(
            "malformed CMI history blob".into(),
        ));
    }
    let mut out = Vec::with_capacity(bytes.len() / (8 + VALUE_LEN));
    for chunk in bytes.chunks_exact(8 + VALUE_LEN) {
        let mut blk = [0u8; 8];
        blk.copy_from_slice(&chunk[..8]);
        let mut value = [0u8; VALUE_LEN];
        value.copy_from_slice(&chunk[8..]);
        out.push((u64::from_le_bytes(blk), StateValue::new(value)));
    }
    Ok(out)
}

/// Hashes one history version (a leaf of the per-address history MHT).
fn hash_version(blk: u64, value: &StateValue) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(&blk.to_le_bytes());
    hasher.update(value.as_bytes());
    hasher.finalize()
}

/// Computes the root of the m-ary complete MHT over a history.
fn history_root(history: &[(u64, StateValue)]) -> Digest {
    if history.is_empty() {
        return Digest::ZERO;
    }
    let mut layer: Vec<Digest> = history.iter().map(|(b, v)| hash_version(*b, v)).collect();
    while layer.len() > 1 {
        layer = layer.chunks(HISTORY_MHT_FANOUT).map(hash_digests).collect();
    }
    layer[0]
}

/// Stores a lower-index root digest inside the 32-byte value of the upper
/// MB-tree.
fn root_as_value(root: Digest) -> StateValue {
    StateValue::new(*root.as_bytes())
}

impl CmiStorage {
    /// Opens (or creates) a CMI store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns an error if the backing directory cannot be created.
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self> {
        Self::open_with_budget(dir, DEFAULT_MEMORY_BUDGET)
    }

    /// Opens a CMI store with an explicit backend memory budget in bytes.
    ///
    /// # Errors
    ///
    /// Returns an error if the backing directory cannot be created.
    pub fn open_with_budget<P: AsRef<Path>>(dir: P, memory_budget: u64) -> Result<Self> {
        Ok(CmiStorage {
            kv: FileKvStore::open(dir, memory_budget)?,
            upper: MbTree::new(),
            current_block: 0,
        })
    }

    fn history_of(&self, addr: &Address) -> Result<Vec<(u64, StateValue)>> {
        match self.kv.get(addr.as_slice())? {
            Some(bytes) => decode_history(&bytes),
            None => Ok(Vec::new()),
        }
    }

    /// The key under which an address's lower-index root is stored in the
    /// upper index.
    fn upper_key(addr: &Address) -> CompoundKey {
        CompoundKey::new(*addr, 0)
    }
}

impl AuthenticatedStorage for CmiStorage {
    fn put(&mut self, addr: Address, value: StateValue) -> Result<()> {
        // Read-modify-write of the whole history blob plus a Merkle refresh:
        // the per-update cost the paper attributes to CMI.
        let mut history = self.history_of(&addr)?;
        match history.last_mut() {
            Some((blk, v)) if *blk == self.current_block => *v = value,
            _ => history.push((self.current_block, value)),
        }
        let root = history_root(&history);
        self.kv
            .put(addr.as_slice().to_vec(), encode_history(&history))?;
        self.upper
            .insert(Self::upper_key(&addr), root_as_value(root));
        Ok(())
    }

    fn get(&self, addr: Address) -> Result<Option<StateValue>> {
        Ok(self.history_of(&addr)?.last().map(|(_, v)| *v))
    }

    fn prov_query(
        &self,
        addr: Address,
        blk_lower: u64,
        blk_upper: u64,
    ) -> Result<ProvenanceResult> {
        let history = self.history_of(&addr)?;
        let values: Vec<VersionedValue> = history
            .iter()
            .filter(|(blk, _)| *blk >= blk_lower && *blk <= blk_upper)
            .map(|(blk, v)| VersionedValue::new(*blk, *v))
            .rev()
            .collect();
        // Proof: the full history (so the lower root can be recomputed) plus
        // the upper-index MB-tree proof binding addr → lower root.
        let upper_key = Self::upper_key(&addr);
        let (_, upper_proof) = self.upper.range_with_proof(upper_key, upper_key);
        let mut proof = Vec::new();
        let history_bytes = encode_history(&history);
        proof.extend_from_slice(&(history_bytes.len() as u64).to_le_bytes());
        proof.extend_from_slice(&history_bytes);
        proof.extend_from_slice(&upper_proof.to_bytes());
        Ok(ProvenanceResult { values, proof })
    }

    fn verify_prov(
        &self,
        addr: Address,
        blk_lower: u64,
        blk_upper: u64,
        result: &ProvenanceResult,
        hstate: Digest,
    ) -> Result<bool> {
        let bytes = &result.proof;
        if bytes.len() < 8 {
            return Err(ColeError::InvalidEncoding("truncated CMI proof".into()));
        }
        let mut len_buf = [0u8; 8];
        len_buf.copy_from_slice(&bytes[..8]);
        let history_len = u64::from_le_bytes(len_buf) as usize;
        if bytes.len() < 8 + history_len {
            return Err(ColeError::InvalidEncoding("truncated CMI proof".into()));
        }
        let history = decode_history(&bytes[8..8 + history_len])?;
        let upper_proof = MbProof::from_bytes(&bytes[8 + history_len..])?;

        // Recompute the lower root from the disclosed history and check the
        // upper index binds it to the address under the published Hstate.
        let lower_root = history_root(&history);
        let upper_key = Self::upper_key(&addr);
        let entries = upper_proof.verify(hstate, upper_key, upper_key)?;
        let bound_root = match entries.as_slice() {
            [(key, value)] if *key == upper_key => Digest::new({
                let mut d = [0u8; DIGEST_LEN];
                d.copy_from_slice(value.as_bytes());
                d
            }),
            [] => Digest::ZERO,
            _ => {
                return Err(ColeError::VerificationFailed(
                    "unexpected upper-index proof contents".into(),
                ))
            }
        };
        if bound_root != lower_root {
            return Ok(false);
        }

        let expected: Vec<VersionedValue> = history
            .iter()
            .filter(|(blk, _)| *blk >= blk_lower && *blk <= blk_upper)
            .map(|(blk, v)| VersionedValue::new(*blk, *v))
            .rev()
            .collect();
        let mut claimed = result.values.clone();
        claimed.sort_by_key(|v| std::cmp::Reverse(v.block_height));
        let mut expected_sorted = expected;
        expected_sorted.sort_by_key(|v| std::cmp::Reverse(v.block_height));
        Ok(claimed == expected_sorted)
    }

    fn begin_block(&mut self, height: u64) -> Result<()> {
        if height <= self.current_block && self.current_block != 0 {
            return Err(ColeError::InvalidState(format!(
                "block height {height} does not advance the chain (current {})",
                self.current_block
            )));
        }
        self.current_block = height;
        Ok(())
    }

    fn finalize_block(&mut self) -> Result<Digest> {
        Ok(self.upper.root_hash())
    }

    fn current_block_height(&self) -> u64 {
        self.current_block
    }

    fn storage_stats(&self) -> Result<StorageStats> {
        Ok(StorageStats {
            index_bytes: self.kv.disk_size(),
            data_bytes: 0,
            memory_bytes: self.kv.memory_size() + self.upper.memory_bytes(),
        })
    }

    fn name(&self) -> &'static str {
        "CMI"
    }

    fn flush(&mut self) -> Result<()> {
        self.kv.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cole-cmi-test-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn addr(i: u64) -> Address {
        Address::from_low_u64(i)
    }

    #[test]
    fn put_get_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut cmi = CmiStorage::open(&dir).unwrap();
        for blk in 1..=10u64 {
            cmi.begin_block(blk).unwrap();
            for i in 0..20u64 {
                cmi.put(addr(i), StateValue::from_u64(blk * 100 + i))
                    .unwrap();
            }
            cmi.finalize_block().unwrap();
        }
        for i in 0..20u64 {
            assert_eq!(
                cmi.get(addr(i)).unwrap(),
                Some(StateValue::from_u64(1000 + i))
            );
        }
        assert_eq!(cmi.get(addr(999)).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn provenance_roundtrip_and_verification() {
        let dir = tmpdir("prov");
        let mut cmi = CmiStorage::open(&dir).unwrap();
        let target = addr(4);
        for blk in 1..=30u64 {
            cmi.begin_block(blk).unwrap();
            if blk % 3 == 0 {
                cmi.put(target, StateValue::from_u64(blk)).unwrap();
            }
            cmi.put(addr(100 + blk), StateValue::from_u64(blk)).unwrap();
            cmi.finalize_block().unwrap();
        }
        let hstate = cmi.finalize_block().unwrap();
        let result = cmi.prov_query(target, 6, 20).unwrap();
        let got: Vec<u64> = result.values.iter().map(|v| v.block_height).collect();
        assert_eq!(got, vec![18, 15, 12, 9, 6]);
        assert!(cmi.verify_prov(target, 6, 20, &result, hstate).unwrap());
        let mut tampered = result.clone();
        tampered.values[0].value = StateValue::from_u64(12345);
        assert!(!cmi.verify_prov(target, 6, 20, &tampered, hstate).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hstate_tracks_updates() {
        let dir = tmpdir("hstate");
        let mut cmi = CmiStorage::open(&dir).unwrap();
        cmi.begin_block(1).unwrap();
        cmi.put(addr(1), StateValue::from_u64(1)).unwrap();
        let d1 = cmi.finalize_block().unwrap();
        cmi.begin_block(2).unwrap();
        cmi.put(addr(1), StateValue::from_u64(2)).unwrap();
        let d2 = cmi.finalize_block().unwrap();
        assert_ne!(d1, d2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn storage_grows_with_history_rewrites() {
        let dir = tmpdir("growth");
        // A tiny backend budget forces every history rewrite onto disk, the
        // regime the paper's CMI operates in once data outgrows memory.
        let mut cmi = CmiStorage::open_with_budget(&dir, 512).unwrap();
        for blk in 1..=50u64 {
            cmi.begin_block(blk).unwrap();
            cmi.put(addr(1), StateValue::from_u64(blk)).unwrap();
            cmi.finalize_block().unwrap();
        }
        cmi.flush().unwrap();
        let stats = cmi.storage_stats().unwrap();
        // Fifty rewrites of an ever-growing history blob: far more bytes than
        // the 50 versions themselves.
        assert!(stats.total_bytes() > 50 * 40 * 3);
        assert_eq!(cmi.name(), "CMI");
        std::fs::remove_dir_all(&dir).ok();
    }
}
