//! Streaming Merkle-file construction (Algorithm 4).

use std::path::Path;

use cole_hash::hash_digests;
use cole_primitives::{ColeError, Digest, Result, DIGEST_LEN};
use cole_storage::PageFile;

use crate::file::MerkleFile;
use crate::layout::{LeafLayer, MhtLayout};

/// Streamingly builds a Merkle file for a run whose number of entries is
/// known in advance (Algorithm 4).
///
/// All layers are built concurrently: one buffer of at most `m` digests is
/// kept per layer; whenever a buffer fills, the parent digest is pushed into
/// the next layer's buffer and the filled buffer is flushed to its
/// precomputed offset in the file. Memory usage is `O(m · ⌈log_m n⌉)`, which
/// matches the write-memory-footprint analysis of Table 1.
///
/// A builder made with [`LeafLayer::Derived`] still takes every leaf — the
/// leaves are hashed into layer 1 as usual — but writes nothing of layer 0.
#[derive(Debug)]
pub struct MerkleFileBuilder {
    file: PageFile,
    layout: MhtLayout,
    /// One pending-digest buffer per layer.
    buffers: Vec<Vec<Digest>>,
    /// Next write offset (in nodes, not bytes) per layer; unused for a
    /// layer the file does not store.
    write_cursor: Vec<u64>,
    leaves_pushed: u64,
}

impl MerkleFileBuilder {
    /// Creates a builder writing to `path` for a tree of `num_leaves` leaves
    /// with fanout `fanout`, storing every layer ([`LeafLayer::Stored`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be created or the parameters are
    /// degenerate.
    pub fn create<P: AsRef<Path>>(path: P, num_leaves: u64, fanout: u64) -> Result<Self> {
        Self::create_with_leaf_layer(path, num_leaves, fanout, LeafLayer::Stored)
    }

    /// [`MerkleFileBuilder::create`] for a file that stores the leaf layer
    /// or not, as `leaves` says. Open the finished file again with the same
    /// `leaves`.
    ///
    /// # Errors
    ///
    /// The same as [`MerkleFileBuilder::create`].
    pub fn create_with_leaf_layer<P: AsRef<Path>>(
        path: P,
        num_leaves: u64,
        fanout: u64,
        leaves: LeafLayer,
    ) -> Result<Self> {
        let layout = MhtLayout::with_leaf_layer(num_leaves, fanout, leaves)?;
        let file = PageFile::create(path)?;
        let depth = layout.depth();
        let mut write_cursor = vec![0; depth];
        for (layer, cursor) in write_cursor
            .iter_mut()
            .enumerate()
            .skip(layout.first_stored_layer())
        {
            *cursor = layout.layer_offset(layer);
        }
        Ok(MerkleFileBuilder {
            file,
            layout,
            buffers: vec![Vec::new(); depth],
            write_cursor,
            leaves_pushed: 0,
        })
    }

    /// Pushes the next leaf digest (the hash of a compound key–value pair).
    ///
    /// # Errors
    ///
    /// Returns an error if more than `num_leaves` leaves are pushed or a
    /// write fails.
    pub fn push_leaf(&mut self, digest: Digest) -> Result<()> {
        if self.leaves_pushed >= self.layout.num_leaves() {
            return Err(ColeError::InvalidState(format!(
                "merkle builder already received all {} leaves",
                self.layout.num_leaves()
            )));
        }
        self.leaves_pushed += 1;
        self.buffers[0].push(digest);
        self.propagate_full_buffers()
    }

    /// Finishes the construction, flushing partially filled buffers bottom-up
    /// (lines 15–18 of Algorithm 4), and returns a reader over the file.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer leaves than declared were pushed or a write
    /// fails.
    pub fn finish(mut self) -> Result<MerkleFile> {
        if self.leaves_pushed != self.layout.num_leaves() {
            return Err(ColeError::InvalidState(format!(
                "merkle builder received {} of {} leaves",
                self.leaves_pushed,
                self.layout.num_leaves()
            )));
        }
        let depth = self.layout.depth();
        for layer in 0..depth {
            if self.buffers[layer].is_empty() {
                continue;
            }
            if layer + 1 < depth {
                let parent = hash_digests(&self.buffers[layer]);
                self.buffers[layer + 1].push(parent);
            }
            self.flush_buffer(layer)?;
            // A push into layer+1 may have filled it exactly; full buffers in
            // upper layers are handled by the loop itself because we visit
            // layers bottom-up and flush whatever is pending.
        }
        // The offset-addressed writes above leave the final page short on
        // disk; pad it so the file is page-structured for `read_page`.
        self.file.pad_to_page_boundary()?;
        self.file.sync()?;
        MerkleFile::from_parts(self.file, self.layout)
    }

    fn propagate_full_buffers(&mut self) -> Result<()> {
        let fanout = self.layout.fanout() as usize;
        let depth = self.layout.depth();
        let mut layer = 0;
        while layer + 1 < depth && self.buffers[layer].len() == fanout {
            let parent = hash_digests(&self.buffers[layer]);
            self.buffers[layer + 1].push(parent);
            self.flush_buffer(layer)?;
            layer += 1;
        }
        Ok(())
    }

    fn flush_buffer(&mut self, layer: usize) -> Result<()> {
        let digests = std::mem::take(&mut self.buffers[layer]);
        if digests.is_empty() || layer < self.layout.first_stored_layer() {
            return Ok(());
        }
        let mut bytes = Vec::with_capacity(digests.len() * DIGEST_LEN);
        for d in &digests {
            bytes.extend_from_slice(d.as_bytes());
        }
        let offset = self.write_cursor[layer] * DIGEST_LEN as u64;
        self.file.write_at(offset, &bytes)?;
        self.write_cursor[layer] += digests.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cole_hash::sha256;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cole-mhtb-test-{}-{name}", std::process::id()))
    }

    /// Reference implementation: build the whole tree in memory.
    fn reference_tree(leaves: &[Digest], fanout: usize) -> Vec<Vec<Digest>> {
        let mut layers = vec![leaves.to_vec()];
        while layers.last().unwrap().len() > 1 {
            let prev = layers.last().unwrap();
            let next: Vec<Digest> = prev.chunks(fanout).map(hash_digests).collect();
            layers.push(next);
        }
        layers
    }

    fn check_against_reference(n: u64, fanout: u64, name: &str) {
        for leaves in [LeafLayer::Stored, LeafLayer::Derived] {
            check_layers_against_reference(n, fanout, leaves, name);
        }
    }

    fn check_layers_against_reference(n: u64, fanout: u64, leaf_layer: LeafLayer, name: &str) {
        let path = tmp(&format!("{name}-{leaf_layer:?}"));
        let leaves: Vec<Digest> = (0..n).map(|i| sha256(&i.to_be_bytes())).collect();
        let mut builder =
            MerkleFileBuilder::create_with_leaf_layer(&path, n, fanout, leaf_layer).unwrap();
        for leaf in &leaves {
            builder.push_leaf(*leaf).unwrap();
        }
        let merkle = builder.finish().unwrap();
        let reference = reference_tree(&leaves, fanout as usize);
        assert_eq!(merkle.root(), *reference.last().unwrap().last().unwrap());
        // Every stored node must match the reference tree, and the file
        // holds nothing else.
        let first_stored = merkle.layout().first_stored_layer();
        let stored: usize = reference[first_stored..].iter().map(Vec::len).sum();
        assert_eq!(merkle.layout().total_nodes(), stored as u64);
        for (layer, ref_layer) in reference.iter().enumerate().skip(first_stored) {
            for (i, expected) in ref_layer.iter().enumerate() {
                let pos = merkle.layout().layer_offset(layer) + i as u64;
                assert_eq!(
                    merkle.node_at(pos).unwrap(),
                    *expected,
                    "layer {layer} node {i}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn matches_reference_binary_even() {
        check_against_reference(8, 2, "bin8");
    }

    #[test]
    fn matches_reference_binary_odd() {
        check_against_reference(7, 2, "bin7");
    }

    #[test]
    fn matches_reference_quaternary_irregular() {
        check_against_reference(10, 4, "quad10");
    }

    #[test]
    fn matches_reference_wide_fanout() {
        check_against_reference(100, 16, "wide100");
    }

    #[test]
    fn matches_reference_single_leaf() {
        check_against_reference(1, 4, "single");
    }

    #[test]
    fn rejects_too_many_or_too_few_leaves() {
        let path = tmp("badcount");
        let mut b = MerkleFileBuilder::create(&path, 2, 2).unwrap();
        b.push_leaf(sha256(b"a")).unwrap();
        // Finishing early fails.
        assert!(b.finish().is_err());

        let mut b = MerkleFileBuilder::create(&path, 1, 2).unwrap();
        b.push_leaf(sha256(b"a")).unwrap();
        assert!(b.push_leaf(sha256(b"b")).is_err());
        std::fs::remove_file(&path).ok();
    }
}
