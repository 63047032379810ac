//! The read path: paper Algorithm 6 (`Get`) and Algorithm 8 (`ProvQuery`),
//! written once.
//!
//! Every reader — a live [`Cole`](crate::Cole), a live
//! [`AsyncCole`](crate::AsyncCole), an owned [`Snapshot`](crate::Snapshot) —
//! only says *what* its components are by lending a [`ReadView`]: the
//! writing memtable group, any sealed groups, and the on-disk runs, all
//! young to old. The two query algorithms and the `root_hash_list` that
//! `Hstate` commits to are derived from that one view, so "the order a
//! query searches and proves components in" and "the order the state root
//! commits to them in" are the same order by construction
//! ([`ReadView::components`]), not by keeping copies in sync.
//!
//! Nothing here allocates on the `get` path and nothing is dynamically
//! dispatched: the view borrows slices and a monomorphised run iterator.

use std::sync::Arc;

use cole_mbtree::MbTree;
use cole_primitives::{
    Address, CompoundKey, Digest, ProvenanceResult, Result, StateValue, VersionedValue,
};

use crate::memtable::shard_index;
use crate::metrics::Metrics;
use crate::proof::{ColeProof, ComponentProof, RootEntryKind};
use crate::run::Run;

/// An immutable in-memory group: the shard trees (one per memtable write
/// head) and the root digests they verify against, in `root_hash_list`
/// order. The sealed merging group of the asynchronous engine is one (the
/// flush thread and every snapshot share its trees); so is the frozen copy
/// of the writing group inside a [`Snapshot`](crate::Snapshot).
#[derive(Debug, Clone)]
pub(crate) struct MemGroup {
    pub(crate) trees: Arc<Vec<MbTree>>,
    pub(crate) roots: Vec<Digest>,
}

impl MemGroup {
    /// Freezes `trees`; `roots` must be their just-recomputed digests, so
    /// the trees carry clean cached hashes and `&self` proof construction
    /// never recomputes.
    pub(crate) fn new(trees: Vec<MbTree>, roots: Vec<Digest>) -> Self {
        debug_assert_eq!(trees.len(), roots.len());
        MemGroup {
            trees: Arc::new(trees),
            roots,
        }
    }
}

/// Everything a query searches, borrowed from whoever owns it.
pub(crate) struct ReadView<'a, R> {
    /// The writing group's shard trees (group 0). A provenance query always
    /// searches all of them, so no fixed roots are needed here.
    pub(crate) writing: &'a [MbTree],
    /// Sealed groups, young to old; a provenance query that already
    /// early-stopped proves them by their fixed roots alone.
    pub(crate) sealed: &'a [MemGroup],
    /// Every live on-disk run, young to old.
    pub(crate) runs: R,
    pub(crate) metrics: &'a Metrics,
}

/// One entry of `root_hash_list`, in the order a query visits it.
enum Component<'a> {
    /// One shard of the writing group, with its index (which finds its
    /// root in `writing_roots`).
    Writing(usize, &'a MbTree),
    Sealed(&'a MbTree, Digest),
    Run(&'a Arc<Run>),
}

/// Whether `entries` hold a version of `addr` older than `blk_lower`: the
/// address's history within the queried range is then complete and every
/// older component can go unsearched (Algorithm 8's early stop).
fn reaches_below(entries: &[(CompoundKey, StateValue)], addr: Address, blk_lower: u64) -> bool {
    entries
        .iter()
        .any(|(k, _)| k.address() == addr && k.block_height() < blk_lower)
}

impl<'a, R: Iterator<Item = &'a Arc<Run>>> ReadView<'a, R> {
    /// The components in `root_hash_list` order: writing-group shards,
    /// sealed-group shards, then runs — each young to old. Both
    /// [`prov_query`](Self::prov_query) and
    /// [`root_hash_list`](Self::root_hash_list) are folds over this one
    /// sequence.
    fn components(self) -> impl Iterator<Item = Component<'a>> {
        let writing = self
            .writing
            .iter()
            .enumerate()
            .map(|(shard, tree)| Component::Writing(shard, tree));
        let sealed = self.sealed.iter().flat_map(|group| {
            group
                .trees
                .iter()
                .zip(&group.roots)
                .map(|(tree, root)| Component::Sealed(tree, *root))
        });
        writing.chain(sealed).chain(self.runs.map(Component::Run))
    }

    /// The ordered `root_hash_list` that `Hstate` digests (§3.2).
    /// `writing_roots` are the writing group's current per-shard digests
    /// (recomputing them needs `&mut` access the view does not have).
    pub(crate) fn root_hash_list(self, writing_roots: &[Digest]) -> Vec<(RootEntryKind, Digest)> {
        debug_assert_eq!(writing_roots.len(), self.writing.len());
        self.components()
            .map(|component| match component {
                Component::Writing(shard, _) => (RootEntryKind::Memtable, writing_roots[shard]),
                Component::Sealed(_, root) => (RootEntryKind::Memtable, root),
                Component::Run(run) => (RootEntryKind::Run, run.commitment()),
            })
            .collect()
    }

    /// Latest value of `addr` (Algorithm 6): memtable groups young to old —
    /// only the shard owning the address, every group being partitioned by
    /// the same stable address hash — then runs young to old, skipping
    /// those whose Bloom filter excludes the address.
    pub(crate) fn get(self, addr: Address) -> Result<Option<StateValue>> {
        Metrics::inc(&self.metrics.gets);
        let groups =
            std::iter::once(self.writing).chain(self.sealed.iter().map(|g| g.trees.as_slice()));
        for trees in groups {
            if let Some((_, value)) = trees[shard_index(&addr, trees.len())].get_latest(addr) {
                return Ok(Some(value));
            }
        }
        for run in self.runs {
            if !run.may_contain(&addr)? {
                Metrics::inc(&self.metrics.bloom_skips);
                continue;
            }
            Metrics::inc(&self.metrics.runs_searched);
            if let Some((_, value)) = run.get_latest(&addr)? {
                return Ok(Some(value));
            }
        }
        Ok(None)
    }

    /// Provenance query with integrity proof (Algorithm 8): one
    /// [`ComponentProof`] per `root_hash_list` entry, in order, so the
    /// verifier can rebuild `Hstate` and check the search stopped where it
    /// was allowed to.
    pub(crate) fn prov_query(
        self,
        addr: Address,
        blk_lower: u64,
        blk_upper: u64,
    ) -> Result<ProvenanceResult> {
        let metrics = self.metrics;
        Metrics::inc(&metrics.prov_queries);
        let lower = CompoundKey::new(addr, blk_lower.saturating_sub(1));
        let upper = CompoundKey::new(addr, blk_upper.saturating_add(1));

        let mut components = Vec::new();
        let mut collected: Vec<(CompoundKey, StateValue)> = Vec::new();
        let mut early_stop = false;

        for component in self.components() {
            components.push(match component {
                Component::Sealed(_, root) if early_stop => ComponentProof::MemUnsearched { root },
                // The writing group is searched unconditionally. The queried
                // address lives in one shard; the others contribute cheap
                // proofs of absence that complete the verifier's `Hstate`.
                Component::Writing(_, tree) | Component::Sealed(tree, _) => {
                    let (results, proof) = tree.range_with_proof(lower, upper);
                    early_stop |= reaches_below(&results, addr, blk_lower);
                    collected.extend(results);
                    ComponentProof::MemSearched { proof }
                }
                Component::Run(run) if early_stop => ComponentProof::RunUnsearched {
                    commitment: run.commitment(),
                },
                Component::Run(run) => {
                    if run.may_contain(&addr)? {
                        Metrics::inc(&metrics.runs_searched);
                        let scan = run.scan_range(&lower, &upper)?;
                        let merkle_proof = run.range_proof(scan.first_pos, scan.last_pos)?;
                        early_stop |= reaches_below(&scan.entries, addr, blk_lower);
                        collected.extend(scan.entries.iter().copied());
                        ComponentProof::RunSearched {
                            entries: scan.entries,
                            merkle_proof,
                            bloom_digest: run.bloom_digest(),
                        }
                    } else {
                        Metrics::inc(&metrics.bloom_skips);
                        ComponentProof::RunBloomNegative {
                            bloom: run.bloom_bytes()?,
                            merkle_root: run.merkle_root(),
                        }
                    }
                }
            });
        }

        let mut values: Vec<VersionedValue> = collected
            .into_iter()
            .filter(|(k, _)| {
                k.address() == addr
                    && k.block_height() >= blk_lower
                    && k.block_height() <= blk_upper
            })
            .map(|(k, v)| VersionedValue::new(k.block_height(), v))
            .collect();
        values.sort_by_key(|v| std::cmp::Reverse(v.block_height));
        values.dedup();

        Ok(ProvenanceResult {
            values,
            proof: ColeProof { components }.to_bytes(),
        })
    }
}
