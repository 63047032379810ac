//! Shape arithmetic for m-ary complete Merkle hash trees.

use cole_primitives::{ColeError, Result};

/// Which layers of a tree its Merkle file stores.
///
/// Every leaf of a run's tree is `hash_entry(key, value)` of the entry at the
/// same position in the run's value file, so the leaf layer is a pure
/// function of data stored elsewhere. A [`Derived`](LeafLayer::Derived)
/// file omits it; a range proof over such a file gets its leaf-layer
/// siblings from the caller (see
/// [`MerkleFile::range_proof_with`](crate::MerkleFile::range_proof_with)).
/// The tree, its root and its proofs are the same either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafLayer {
    /// Layer 0 is stored: the file holds every node of the tree.
    Stored,
    /// Layer 0 is not stored: the file starts at layer 1. A single-leaf
    /// tree is the exception — its leaf is its root, which every file
    /// stores.
    Derived,
}

/// The layout of an m-ary complete MHT with `n` leaves.
///
/// Following Algorithm 4, the tree has `⌈log_m n⌉ + 1` layers containing
/// `n, ⌈n/m⌉, ⌈n/m²⌉, …, 1` hash values. Layer 0 is the leaf layer. The
/// stored layers sit contiguously in the Merkle file, lowest first, so a
/// stored node is addressed by its *global position*
/// `layer_offset(layer) + index_within_layer`. With
/// [`LeafLayer::Stored`] that is every layer and layer 0 starts at
/// position 0; with [`LeafLayer::Derived`] the file starts at layer 1,
/// which then sits at position 0, and positions, [`total_nodes`] and the
/// root position count only the stored layers.
///
/// [`total_nodes`]: MhtLayout::total_nodes
///
/// # Examples
///
/// ```
/// use cole_mht::{LeafLayer, MhtLayout};
///
/// let layout = MhtLayout::new(10, 4).unwrap();
/// assert_eq!(layout.layer_sizes(), &[10, 3, 1]);
/// assert_eq!(layout.total_nodes(), 14);
/// assert_eq!(layout.root_position(), 13);
///
/// let derived = MhtLayout::with_leaf_layer(10, 4, LeafLayer::Derived).unwrap();
/// assert_eq!(derived.first_stored_layer(), 1);
/// assert_eq!(derived.layer_offset(1), 0);
/// assert_eq!(derived.total_nodes(), 4);
/// assert_eq!(derived.root_position(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MhtLayout {
    num_leaves: u64,
    fanout: u64,
    layer_sizes: Vec<u64>,
    /// Global position of the first node of each stored layer, indexed by
    /// `layer - first_stored`.
    layer_offsets: Vec<u64>,
    first_stored: usize,
}

impl MhtLayout {
    /// Computes the layout of a tree with `num_leaves` leaves and fanout
    /// `fanout` whose file stores every layer ([`LeafLayer::Stored`]).
    ///
    /// # Errors
    ///
    /// Returns [`ColeError::InvalidConfig`] if `num_leaves` is zero,
    /// `fanout` is less than two, or the tree's node count overflows `u64`
    /// (only a hostile proof claims such a shape).
    pub fn new(num_leaves: u64, fanout: u64) -> Result<Self> {
        Self::with_leaf_layer(num_leaves, fanout, LeafLayer::Stored)
    }

    /// Computes the layout of a tree with `num_leaves` leaves and fanout
    /// `fanout` whose file stores the leaf layer or not, as `leaves` says.
    ///
    /// # Errors
    ///
    /// The same as [`MhtLayout::new`].
    pub fn with_leaf_layer(num_leaves: u64, fanout: u64, leaves: LeafLayer) -> Result<Self> {
        if num_leaves == 0 {
            return Err(ColeError::InvalidConfig(
                "merkle tree must have at least one leaf".into(),
            ));
        }
        if fanout < 2 {
            return Err(ColeError::InvalidConfig(
                "merkle tree fanout must be at least 2".into(),
            ));
        }
        let mut layer_sizes = vec![num_leaves];
        let mut size = num_leaves;
        while size > 1 {
            size = size.div_ceil(fanout);
            layer_sizes.push(size);
        }
        // The root layer is always stored, so a one-leaf tree keeps its leaf.
        let first_stored = match leaves {
            LeafLayer::Stored => 0,
            LeafLayer::Derived => 1.min(layer_sizes.len() - 1),
        };
        let mut layer_offsets = Vec::with_capacity(layer_sizes.len() - first_stored);
        let mut offset = 0u64;
        for &s in &layer_sizes[first_stored..] {
            layer_offsets.push(offset);
            offset = offset.checked_add(s).ok_or_else(|| {
                ColeError::InvalidConfig("merkle tree node count overflows u64".into())
            })?;
        }
        Ok(MhtLayout {
            num_leaves,
            fanout,
            layer_sizes,
            layer_offsets,
            first_stored,
        })
    }

    /// Number of leaves.
    #[must_use]
    pub fn num_leaves(&self) -> u64 {
        self.num_leaves
    }

    /// Tree fanout `m`.
    #[must_use]
    pub fn fanout(&self) -> u64 {
        self.fanout
    }

    /// Number of layers, including the leaf layer and the root layer.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layer_sizes.len()
    }

    /// Node count of each layer, leaf layer first.
    #[must_use]
    pub fn layer_sizes(&self) -> &[u64] {
        &self.layer_sizes
    }

    /// The lowest layer the Merkle file stores: 0 for
    /// [`LeafLayer::Stored`], 1 for [`LeafLayer::Derived`] (0 again for a
    /// one-leaf tree, whose leaf is its root).
    #[must_use]
    pub fn first_stored_layer(&self) -> usize {
        self.first_stored
    }

    /// Global position of the first node of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not stored (`layer < first_stored_layer()`) or
    /// `layer >= depth()`.
    #[must_use]
    pub fn layer_offset(&self, layer: usize) -> u64 {
        assert!(
            layer >= self.first_stored,
            "merkle layer {layer} is not stored"
        );
        self.layer_offsets[layer - self.first_stored]
    }

    /// Number of nodes over all stored layers (the number of digests in the
    /// Merkle file).
    #[must_use]
    pub fn total_nodes(&self) -> u64 {
        self.layer_offsets.last().unwrap() + 1
    }

    /// Global position of the root node.
    #[must_use]
    pub fn root_position(&self) -> u64 {
        self.total_nodes() - 1
    }

    /// Given the index of a node *within* `layer`, returns the index of its
    /// parent within `layer + 1` (i.e. `⌊index / m⌋`).
    #[must_use]
    pub fn parent_index(&self, index_in_layer: u64) -> u64 {
        index_in_layer / self.fanout
    }

    /// Range of child indices (within `layer - 1`) of the node at
    /// `index_in_layer` of `layer`. The last node of a layer may have fewer
    /// than `m` children.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is zero (leaves have no children) or out of range.
    #[must_use]
    pub fn child_range(&self, layer: usize, index_in_layer: u64) -> (u64, u64) {
        assert!(layer > 0 && layer < self.depth(), "invalid layer {layer}");
        let start = index_in_layer * self.fanout;
        let end = ((index_in_layer + 1) * self.fanout).min(self.layer_sizes[layer - 1]);
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leaf_tree() {
        let layout = MhtLayout::new(1, 2).unwrap();
        assert_eq!(layout.depth(), 1);
        assert_eq!(layout.total_nodes(), 1);
        assert_eq!(layout.root_position(), 0);
    }

    #[test]
    fn paper_example_binary_tree_with_four_leaves() {
        // Figure 6: Nnodes = [4, 2, 1], layer_offset = [0, 4, 6].
        let layout = MhtLayout::new(4, 2).unwrap();
        assert_eq!(layout.layer_sizes(), &[4, 2, 1]);
        assert_eq!(layout.layer_offset(0), 0);
        assert_eq!(layout.layer_offset(1), 4);
        assert_eq!(layout.layer_offset(2), 6);
        assert_eq!(layout.total_nodes(), 7);
    }

    #[test]
    fn irregular_last_node_has_fewer_children() {
        let layout = MhtLayout::new(10, 4).unwrap();
        assert_eq!(layout.layer_sizes(), &[10, 3, 1]);
        // Node 2 of layer 1 covers children 8..10 (only two of them).
        assert_eq!(layout.child_range(1, 2), (8, 10));
        // Root covers all three layer-1 nodes.
        assert_eq!(layout.child_range(2, 0), (0, 3));
    }

    #[test]
    fn parent_index_matches_division() {
        let layout = MhtLayout::new(100, 8).unwrap();
        assert_eq!(layout.parent_index(0), 0);
        assert_eq!(layout.parent_index(7), 0);
        assert_eq!(layout.parent_index(8), 1);
        assert_eq!(layout.parent_index(99), 12);
    }

    #[test]
    fn derived_layout_skips_the_leaf_layer() {
        let stored = MhtLayout::new(10, 4).unwrap();
        let derived = MhtLayout::with_leaf_layer(10, 4, LeafLayer::Derived).unwrap();
        assert_eq!(derived.layer_sizes(), stored.layer_sizes());
        assert_eq!(derived.total_nodes(), stored.total_nodes() - 10);
        for layer in 1..stored.depth() {
            assert_eq!(derived.layer_offset(layer), stored.layer_offset(layer) - 10);
        }
        // A one-leaf tree's leaf is its root, which is always stored.
        let single = MhtLayout::with_leaf_layer(1, 4, LeafLayer::Derived).unwrap();
        assert_eq!(single.first_stored_layer(), 0);
        assert_eq!(single.total_nodes(), 1);
    }

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(MhtLayout::new(0, 2).is_err());
        assert!(MhtLayout::new(5, 1).is_err());
    }

    #[test]
    fn depth_grows_logarithmically() {
        let layout = MhtLayout::new(1_000_000, 16).unwrap();
        assert_eq!(layout.depth(), 6); // 10^6, 62500, 3907, 245, 16, 1
        assert_eq!(layout.layer_sizes()[0], 1_000_000);
        assert_eq!(*layout.layer_sizes().last().unwrap(), 1);
    }
}
