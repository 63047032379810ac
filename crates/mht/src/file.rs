//! Reading Merkle files and extracting range proofs.

use std::path::Path;
use std::sync::Arc;

use cole_primitives::{ColeError, Digest, Result, DIGEST_LEN, PAGE_SIZE};
use cole_storage::{PageCache, PageFile, PageIoStats};

use crate::layout::{LeafLayer, MhtLayout};
use crate::proof::{LayerSiblings, RangeProof};

/// Number of digests per Merkle-file page. [`PAGE_SIZE`] is a multiple of
/// [`DIGEST_LEN`], so digests never straddle a page boundary.
const DIGESTS_PER_PAGE: u64 = (PAGE_SIZE / DIGEST_LEN) as u64;
const _: () = assert!(PAGE_SIZE.is_multiple_of(DIGEST_LEN));

/// A reader over a Merkle file produced by
/// [`MerkleFileBuilder`](crate::MerkleFileBuilder).
///
/// Nodes are addressed by global position (see [`MhtLayout`]); the root is
/// cached on open. A file built with [`LeafLayer::Derived`] has no leaf
/// layer: its range proofs take the leaf-layer siblings from the caller
/// ([`MerkleFile::range_proof_with`]). All node reads are page-aligned
/// [`PageFile::read_page`] reads, so an attached [`PageCache`] serves
/// sibling fetches from memory and contiguous sibling runs cost one fetch
/// per touched page.
#[derive(Debug)]
pub struct MerkleFile {
    file: PageFile,
    layout: MhtLayout,
    root: Digest,
}

impl MerkleFile {
    /// Opens an existing Merkle file with a known leaf count and fanout
    /// that stores every layer ([`LeafLayer::Stored`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened or is too short for the
    /// declared layout.
    pub fn open<P: AsRef<Path>>(path: P, num_leaves: u64, fanout: u64) -> Result<Self> {
        Self::open_with_leaf_layer(path, num_leaves, fanout, LeafLayer::Stored)
    }

    /// [`MerkleFile::open`] for a file built with the given `leaves`.
    ///
    /// # Errors
    ///
    /// The same as [`MerkleFile::open`].
    pub fn open_with_leaf_layer<P: AsRef<Path>>(
        path: P,
        num_leaves: u64,
        fanout: u64,
        leaves: LeafLayer,
    ) -> Result<Self> {
        let layout = MhtLayout::with_leaf_layer(num_leaves, fanout, leaves)?;
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
        let root = digest_in(
            &file.read_page(root_position / DIGESTS_PER_PAGE)?,
            root_position,
        );
        Ok(MerkleFile { file, layout, root })
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

    /// Bytes of digests the file stores — only the stored layers — rounded
    /// down to whole digests rather than up to whole pages (the paper's
    /// storage-size accounting counts this as index overhead).
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
        Ok(digest_in(&page, position))
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
                out.push(digest_in(&page, pos));
                pos += 1;
            }
        }
        Ok(out)
    }

    /// Builds a [`RangeProof`] authenticating the leaves in positions
    /// `[first, last]` (inclusive), reading the leaf-layer siblings from the
    /// file's stored leaf layer.
    ///
    /// This is [`MerkleFile::range_proof_with`] fed from layer 0, each page
    /// of which is fetched once per proof.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is empty or out of bounds, or if the
    /// file does not store its leaf layer ([`LeafLayer::Derived`]).
    pub fn range_proof(&self, first: u64, last: u64) -> Result<RangeProof> {
        if self.layout.first_stored_layer() > 0 {
            return Err(ColeError::InvalidState(
                "merkle file does not store its leaf layer; use range_proof_with".into(),
            ));
        }
        let mut page: Option<(u64, Arc<[u8]>)> = None;
        self.range_proof_with(first, last, |position| {
            let page_id = position / DIGESTS_PER_PAGE;
            let bytes = match &page {
                Some((id, bytes)) if *id == page_id => Arc::clone(bytes),
                _ => {
                    let bytes = self.file.read_page(page_id)?;
                    page = Some((page_id, Arc::clone(&bytes)));
                    bytes
                }
            };
            Ok(digest_in(&bytes, position))
        })
    }

    /// Builds a [`RangeProof`] authenticating the leaves in positions
    /// `[first, last]` (inclusive), asking `leaf` for the digest of each
    /// leaf-layer sibling by leaf position.
    ///
    /// The proof contains, for every layer, the sibling digests to the left
    /// and right of the range that are needed to recompute the parents of the
    /// boundary nodes (§6.2: "the Merkle paths of the hash values at posl and
    /// posu are used as the Merkle proof", with interior ancestors shared).
    /// On the leaf layer those are the at most `m − 1` leaves on each side
    /// of the range inside its boundary groups, and `leaf` is called for
    /// exactly those, in position order; every layer above is read from the
    /// file. The proof is byte-identical to [`MerkleFile::range_proof`]'s
    /// whenever `leaf` returns the tree's leaves.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is empty or out of bounds, or whatever
    /// `leaf` returns.
    pub fn range_proof_with(
        &self,
        first: u64,
        last: u64,
        mut leaf: impl FnMut(u64) -> Result<Digest>,
    ) -> Result<RangeProof> {
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
            let siblings = if layer == 0 {
                LayerSiblings {
                    left: (group_lo..lo).map(&mut leaf).collect::<Result<_>>()?,
                    right: (hi + 1..group_hi).map(&mut leaf).collect::<Result<_>>()?,
                }
            } else {
                let offset = self.layout.layer_offset(layer);
                LayerSiblings {
                    left: self.nodes_at(offset + group_lo, lo - group_lo)?,
                    right: self.nodes_at(offset + hi + 1, group_hi - (hi + 1))?,
                }
            };
            layers.push(siblings);
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

/// The digest at global `position`, which lies on the fetched `page`.
fn digest_in(page: &[u8], position: u64) -> Digest {
    let slot = (position % DIGESTS_PER_PAGE) as usize * DIGEST_LEN;
    let mut out = [0u8; DIGEST_LEN];
    out.copy_from_slice(&page[slot..slot + DIGEST_LEN]);
    Digest::new(out)
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
        build_with(n, m, LeafLayer::Stored, name)
    }

    fn build_with(
        n: u64,
        m: u64,
        leaf_layer: LeafLayer,
        name: &str,
    ) -> (Vec<Digest>, MerkleFile, PathBuf) {
        let path = tmp(name);
        let leaves: Vec<Digest> = (0..n).map(|i| sha256(&i.to_be_bytes())).collect();
        let mut b = MerkleFileBuilder::create_with_leaf_layer(&path, n, m, leaf_layer).unwrap();
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
    fn derived_leaf_files_prove_what_stored_ones_do() {
        let (leaves, stored, stored_path) = build(301, 4, "diff-stored");
        let (_, built, derived_path) = build_with(301, 4, LeafLayer::Derived, "diff-derived");
        let derived = MerkleFile::open_with_leaf_layer(&derived_path, 301, 4, LeafLayer::Derived)
            .expect("reopen derived");
        assert_eq!(derived.root(), stored.root());
        assert_eq!(built.root(), stored.root());
        for (first, last) in [(0, 0), (3, 3), (5, 9), (64, 130), (297, 300), (0, 300)] {
            let mut asked = Vec::new();
            let proof = derived
                .range_proof_with(first, last, |pos| {
                    asked.push(pos);
                    Ok(leaves[pos as usize])
                })
                .unwrap();
            assert_eq!(
                proof.to_bytes(),
                stored.range_proof(first, last).unwrap().to_bytes(),
                "[{first}, {last}]"
            );
            // Only the leaf-layer siblings are asked for: at most m − 1 on
            // each side, none inside the range.
            assert!(asked.len() <= 6, "{asked:?}");
            assert!(asked.iter().all(|&p| p < first || p > last), "{asked:?}");
        }
        // The stored-leaf routine has no leaf layer to read here.
        assert!(derived.range_proof(5, 9).is_err());
        // A leaf the caller cannot produce fails the proof.
        let err = derived
            .range_proof_with(5, 9, |_| Err(ColeError::NotFound("leaf".into())))
            .unwrap_err();
        assert!(matches!(err, ColeError::NotFound(_)), "{err}");
        std::fs::remove_file(&stored_path).ok();
        std::fs::remove_file(&derived_path).ok();
    }

    #[test]
    fn size_bytes_counts_what_is_on_disk() {
        for n in [1u64, 2, 127, 128, 129, 1000, 5000] {
            for leaf_layer in [LeafLayer::Stored, LeafLayer::Derived] {
                let (_, merkle, path) = build_with(n, 4, leaf_layer, "sizes");
                let on_disk = std::fs::metadata(&path).unwrap().len();
                let size = merkle.size_bytes();
                assert!(
                    size <= on_disk && on_disk < size + PAGE_SIZE as u64,
                    "{n} leaves, {leaf_layer:?}: size_bytes {size}, file {on_disk}"
                );
                std::fs::remove_file(&path).ok();
            }
        }
        let (_, stored, stored_path) = build(1000, 4, "drop-stored");
        let (_, derived, derived_path) = build_with(1000, 4, LeafLayer::Derived, "drop-derived");
        assert_eq!(stored.size_bytes() - derived.size_bytes(), 1000 * 32);
        std::fs::remove_file(&stored_path).ok();
        std::fs::remove_file(&derived_path).ok();
    }

    #[test]
    fn node_at_out_of_bounds_errors() {
        let (_, merkle, path) = build(3, 2, "oob");
        assert!(merkle.node_at(merkle.layout().total_nodes()).is_err());
        std::fs::remove_file(&path).ok();
    }
}
