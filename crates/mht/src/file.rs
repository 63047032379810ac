//! Reading Merkle files and extracting range proofs.

use std::path::Path;
use std::sync::Arc;

use cole_primitives::{ColeError, Digest, Result, DIGEST_LEN, PAGE_SIZE};
use cole_storage::{PageCache, PageFile, PageIoStats};

use crate::layout::MhtLayout;
use crate::proof::{LayerSiblings, RangeProof};

/// Number of digests per Merkle-file page. [`PAGE_SIZE`] is a multiple of
/// [`DIGEST_LEN`], so digests never straddle a page boundary.
const DIGESTS_PER_PAGE: u64 = (PAGE_SIZE / DIGEST_LEN) as u64;
const _: () = assert!(PAGE_SIZE.is_multiple_of(DIGEST_LEN));

/// A reader over a Merkle file produced by
/// [`MerkleFileBuilder`](crate::MerkleFileBuilder).
///
/// Nodes are addressed by global position (see [`MhtLayout`]); the root is
/// cached on open. All node reads are page-aligned [`PageFile::read_page`]
/// reads, so an attached [`PageCache`] serves sibling fetches from memory
/// and contiguous sibling runs cost one fetch per touched page.
#[derive(Debug)]
pub struct MerkleFile {
    file: PageFile,
    layout: MhtLayout,
    root: Digest,
}

impl MerkleFile {
    /// Opens an existing Merkle file with a known leaf count and fanout.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened or is too short for the
    /// declared layout.
    pub fn open<P: AsRef<Path>>(path: P, num_leaves: u64, fanout: u64) -> Result<Self> {
        let layout = MhtLayout::new(num_leaves, fanout)?;
        let file = PageFile::open(path)?;
        Self::from_parts(file, layout)
    }

    pub(crate) fn from_parts(mut file: PageFile, layout: MhtLayout) -> Result<Self> {
        // Merkle files written before the builder padded to a page boundary
        // have a legitimately short final page; newer files never trigger
        // this. Value/index files keep failing loudly on truncation.
        file.tolerate_short_final_page();
        let needed = layout.total_nodes() * DIGEST_LEN as u64;
        if file.len_bytes() < needed {
            return Err(ColeError::InvalidState(format!(
                "merkle file has {} bytes but layout needs {needed}",
                file.len_bytes()
            )));
        }
        let root_position = layout.root_position();
        let page = file.read_page(root_position / DIGESTS_PER_PAGE)?;
        let slot = (root_position % DIGESTS_PER_PAGE) as usize * DIGEST_LEN;
        let mut root = [0u8; DIGEST_LEN];
        root.copy_from_slice(&page[slot..slot + DIGEST_LEN]);
        Ok(MerkleFile {
            file,
            layout,
            root: Digest::new(root),
        })
    }

    /// Routes this Merkle file's page reads through `cache`, so proof
    /// sibling fetches are served from memory instead of the filesystem.
    pub fn attach_cache(&mut self, cache: Arc<PageCache>) {
        self.file.attach_cache(cache);
    }

    /// Reports this Merkle file's page reads into `stats` (the engine's
    /// `merkle_pages_read` / per-kind hit-miss counters).
    pub fn attach_stats(&mut self, stats: Arc<PageIoStats>) {
        self.file.attach_stats(stats);
    }

    /// Consults `faults` before every disk read of this Merkle file (site
    /// `page:read`; see `cole_storage::FaultPlan`).
    pub fn attach_faults(&mut self, faults: Arc<cole_storage::FaultPlan>) {
        self.file.attach_faults(faults);
    }

    /// Drops every cached page of this file from the attached cache, if
    /// any. Call before deleting the file from disk.
    pub fn invalidate_cached_pages(&self) {
        self.file.invalidate_cached_pages();
    }

    /// The root digest of the tree.
    #[must_use]
    pub fn root(&self) -> Digest {
        self.root
    }

    /// The tree layout.
    #[must_use]
    pub fn layout(&self) -> &MhtLayout {
        &self.layout
    }

    /// File size in bytes (the paper's storage-size accounting counts this as
    /// index overhead).
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.layout.total_nodes() * DIGEST_LEN as u64
    }

    /// Reads the digest stored at a global node position (one page-aligned
    /// read, cache-served when a cache is attached).
    ///
    /// # Errors
    ///
    /// Returns an error if `position` is out of bounds or the read fails.
    pub fn node_at(&self, position: u64) -> Result<Digest> {
        if position >= self.layout.total_nodes() {
            return Err(ColeError::NotFound(format!(
                "merkle node {position} out of bounds ({})",
                self.layout.total_nodes()
            )));
        }
        let page = self.file.read_page(position / DIGESTS_PER_PAGE)?;
        let slot = (position % DIGESTS_PER_PAGE) as usize * DIGEST_LEN;
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(&page[slot..slot + DIGEST_LEN]);
        Ok(Digest::new(out))
    }

    /// Reads the digests at the contiguous global positions
    /// `first..first + count`, fetching each covered page exactly once.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is out of bounds or a read fails.
    fn nodes_at(&self, first: u64, count: u64) -> Result<Vec<Digest>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        if first + count > self.layout.total_nodes() {
            return Err(ColeError::NotFound(format!(
                "merkle nodes [{first}, {}) out of bounds ({})",
                first + count,
                self.layout.total_nodes()
            )));
        }
        let mut out = Vec::with_capacity(count as usize);
        let mut pos = first;
        let end = first + count;
        while pos < end {
            let page_id = pos / DIGESTS_PER_PAGE;
            let page = self.file.read_page(page_id)?;
            let page_end = ((page_id + 1) * DIGESTS_PER_PAGE).min(end);
            while pos < page_end {
                let slot = (pos % DIGESTS_PER_PAGE) as usize * DIGEST_LEN;
                let mut digest = [0u8; DIGEST_LEN];
                digest.copy_from_slice(&page[slot..slot + DIGEST_LEN]);
                out.push(Digest::new(digest));
                pos += 1;
            }
        }
        Ok(out)
    }

    /// Builds a [`RangeProof`] authenticating the leaves in positions
    /// `[first, last]` (inclusive).
    ///
    /// The proof contains, for every layer, the sibling digests to the left
    /// and right of the range that are needed to recompute the parents of the
    /// boundary nodes (§6.2: "the Merkle paths of the hash values at posl and
    /// posu are used as the Merkle proof", with interior ancestors shared).
    ///
    /// # Errors
    ///
    /// Returns an error if the range is empty or out of bounds.
    pub fn range_proof(&self, first: u64, last: u64) -> Result<RangeProof> {
        if first > last || last >= self.layout.num_leaves() {
            return Err(ColeError::InvalidState(format!(
                "invalid leaf range [{first}, {last}] for {} leaves",
                self.layout.num_leaves()
            )));
        }
        let m = self.layout.fanout();
        let mut layers = Vec::with_capacity(self.layout.depth().saturating_sub(1));
        let mut lo = first;
        let mut hi = last;
        for layer in 0..self.layout.depth() - 1 {
            let layer_size = self.layout.layer_sizes()[layer];
            let group_lo = (lo / m) * m;
            let group_hi = (((hi / m) + 1) * m).min(layer_size);
            let offset = self.layout.layer_offset(layer);
            let left = self.nodes_at(offset + group_lo, lo - group_lo)?;
            let right = self.nodes_at(offset + hi + 1, group_hi - (hi + 1))?;
            layers.push(LayerSiblings { left, right });
            lo /= m;
            hi /= m;
        }
        Ok(RangeProof::new(
            self.layout.num_leaves(),
            m,
            first,
            last,
            layers,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MerkleFileBuilder;
    use cole_hash::sha256;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cole-mhtf-test-{}-{name}", std::process::id()))
    }

    fn build(n: u64, m: u64, name: &str) -> (Vec<Digest>, MerkleFile, PathBuf) {
        let path = tmp(name);
        let leaves: Vec<Digest> = (0..n).map(|i| sha256(&i.to_be_bytes())).collect();
        let mut b = MerkleFileBuilder::create(&path, n, m).unwrap();
        for leaf in &leaves {
            b.push_leaf(*leaf).unwrap();
        }
        (leaves, b.finish().unwrap(), path)
    }

    #[test]
    fn reopen_matches_built_root() {
        let (_, merkle, path) = build(25, 4, "reopen");
        let reopened = MerkleFile::open(&path, 25, 4).unwrap();
        assert_eq!(reopened.root(), merkle.root());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_with_wrong_leaf_count_fails() {
        let (_, _merkle, path) = build(4, 2, "wrongcount");
        assert!(MerkleFile::open(&path, 400, 2).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_proof_verifies_for_every_range() {
        let (leaves, merkle, path) = build(13, 3, "allranges");
        for first in 0..13u64 {
            for last in first..13u64 {
                let proof = merkle.range_proof(first, last).unwrap();
                let root = proof
                    .compute_root(&leaves[first as usize..=last as usize])
                    .unwrap();
                assert_eq!(root, merkle.root(), "range [{first}, {last}]");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn range_proof_rejects_bad_ranges() {
        let (_, merkle, path) = build(5, 2, "badrange");
        assert!(merkle.range_proof(3, 2).is_err());
        assert!(merkle.range_proof(0, 5).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_leaf_fails_verification() {
        let (mut leaves, merkle, path) = build(9, 4, "tamper");
        let proof = merkle.range_proof(2, 4).unwrap();
        leaves[3] = sha256(b"evil");
        let root = proof.compute_root(&leaves[2..=4]).unwrap();
        assert_ne!(root, merkle.root());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cached_range_proofs_are_served_from_memory() {
        use cole_storage::{PageCache, PageIoStats};
        let (leaves, _built, path) = build(500, 4, "cached");
        let mut merkle = MerkleFile::open(&path, 500, 4).unwrap();
        let stats = Arc::new(PageIoStats::new());
        let cache = Arc::new(PageCache::new(64));
        merkle.attach_stats(Arc::clone(&stats));
        merkle.attach_cache(Arc::clone(&cache));
        let proof = merkle.range_proof(17, 140).unwrap();
        let reads = stats.logical_reads();
        assert!(reads > 0, "a proof must read merkle pages");
        // Contiguous sibling runs cost one fetch per touched page, so the
        // whole proof touches far fewer pages than it reads digests.
        assert!(reads <= 2 * merkle.layout().depth() as u64 + 2);
        // The same proof again is fully cache-served, and still verifies.
        let misses_after_first = stats.misses();
        let again = merkle.range_proof(17, 140).unwrap();
        assert_eq!(
            stats.misses(),
            misses_after_first,
            "repeat proof must not miss the cache"
        );
        assert!(stats.hits() >= reads, "repeat proof must hit the cache");
        let root = again
            .compute_root(&leaves[17..=140])
            .expect("proof over scanned leaves");
        assert_eq!(root, merkle.root());
        assert_eq!(proof.compute_root(&leaves[17..=140]).unwrap(), root);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn node_at_out_of_bounds_errors() {
        let (_, merkle, path) = build(3, 2, "oob");
        assert!(merkle.node_at(merkle.layout().total_nodes()).is_err());
        std::fs::remove_file(&path).ok();
    }
}
