//! The sharded in-memory level: N address-hash-partitioned MB-tree write
//! heads.
//!
//! The paper's level 0 is a single MB-tree; `ShardedMemtable` splits it into
//! [`ColeConfig::memtable_shards`](crate::ColeConfig::memtable_shards)
//! partitions so the write path scales with cores:
//!
//! * [`insert`](ShardedMemtable::insert) touches only the (smaller) shard
//!   that owns the address, and [`insert_batch`](ShardedMemtable::insert_batch)
//!   partitions a block's writes and inserts each shard's share on its own
//!   thread;
//! * [`root_hashes`](ShardedMemtable::root_hashes) recomputes the per-shard
//!   digests in parallel — with one shard this is exactly the single
//!   MB-tree root of the unsharded engine, so `Hstate` is unchanged at
//!   `memtable_shards = 1`;
//! * [`sorted_entries`](ShardedMemtable::sorted_entries) drains all shards
//!   through a k-way merge into **one** globally sorted entry list, so a
//!   flush produces byte-for-byte the same run files as a single-memtable
//!   flush of the same data (the on-disk format, manifest and recovery are
//!   untouched by sharding).
//!
//! Addresses are partitioned by an FNV-1a hash of the address bytes — stable
//! across platforms and releases, since the shard assignment shapes the
//! per-shard roots that feed `Hstate`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cole_mbtree::MbTree;
use cole_primitives::{Address, CompoundKey, Digest, StateValue};

/// FNV-1a 64-bit over the address bytes; the stable shard hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The shard owning `addr` among `num_shards` write heads. Standalone so
/// the read path (`crate::read`) routes a lookup over any group of shard
/// trees — live, sealed or frozen in a [`Snapshot`](crate::Snapshot) —
/// exactly like the [`ShardedMemtable`] that filled them.
pub(crate) fn shard_index(addr: &Address, num_shards: usize) -> usize {
    if num_shards == 1 {
        0
    } else {
        (fnv1a64(addr.as_slice()) % num_shards as u64) as usize
    }
}

/// K-way merges already-sorted entry lists into one sorted list (the same
/// heap discipline as [`merge_runs`](crate::merge_runs), applied to
/// in-memory shards). Keys are unique across lists — each address lives in
/// exactly one shard — so no deduplication is needed.
#[must_use]
pub fn merge_sorted_entry_lists(
    mut lists: Vec<Vec<(CompoundKey, StateValue)>>,
) -> Vec<(CompoundKey, StateValue)> {
    lists.retain(|l| !l.is_empty());
    if lists.len() <= 1 {
        return lists.pop().unwrap_or_default();
    }
    let total = lists.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursors = vec![0usize; lists.len()];
    let mut heap: BinaryHeap<Reverse<(CompoundKey, usize)>> = lists
        .iter()
        .enumerate()
        .map(|(i, l)| Reverse((l[0].0, i)))
        .collect();
    while let Some(Reverse((_, i))) = heap.pop() {
        let cursor = cursors[i];
        out.push(lists[i][cursor]);
        cursors[i] += 1;
        if let Some(&(next_key, _)) = lists[i].get(cursor + 1) {
            heap.push(Reverse((next_key, i)));
        }
    }
    out
}

/// The in-memory level of a COLE engine: one MB-tree per write head.
///
/// With a single shard this is a thin wrapper around one [`MbTree`] —
/// identical digests, identical flush output. See the module docs for what
/// changes with more shards.
#[derive(Debug, Clone)]
pub struct ShardedMemtable {
    shards: Vec<MbTree>,
    fanout: usize,
}

impl ShardedMemtable {
    /// Creates `shards` empty write heads with the given MB-tree fanout.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(shards: usize, fanout: usize) -> Self {
        assert!(shards > 0, "at least one memtable shard is required");
        ShardedMemtable {
            shards: (0..shards).map(|_| MbTree::with_fanout(fanout)).collect(),
            fanout,
        }
    }

    /// Number of write heads.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `addr` (stable address-hash partitioning).
    #[must_use]
    pub fn shard_of(&self, addr: &Address) -> usize {
        shard_index(addr, self.shards.len())
    }

    /// The shard trees, in `root_hash_list` order (shard 0 first).
    #[must_use]
    pub fn shards(&self) -> &[MbTree] {
        &self.shards
    }

    /// Total entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(MbTree::len).sum()
    }

    /// Returns `true` if every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(MbTree::is_empty)
    }

    /// Approximate memory footprint across all shards.
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        self.shards.iter().map(MbTree::memory_bytes).sum()
    }

    /// Removes all entries from every shard.
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.clear();
        }
    }

    /// Inserts `value` under `key` into the shard owning the key's address.
    pub fn insert(&mut self, key: CompoundKey, value: StateValue) {
        let shard = self.shard_of(&key.address());
        self.shards[shard].insert(key, value);
    }

    /// Inserts a batch of entries, partitioning by shard and inserting each
    /// shard's share on its own scoped thread when more than one shard
    /// receives work (single-shard tables insert inline — no thread spawn).
    ///
    /// Entries are routed in slice order, so intra-batch overwrites of one
    /// key behave exactly as repeated [`insert`](Self::insert) calls.
    pub fn insert_batch(&mut self, entries: &[(CompoundKey, StateValue)]) {
        if self.shards.len() == 1 {
            for (key, value) in entries {
                self.shards[0].insert(*key, *value);
            }
            return;
        }
        let mut per_shard: Vec<Vec<(CompoundKey, StateValue)>> =
            vec![Vec::new(); self.shards.len()];
        for (key, value) in entries {
            per_shard[self.shard_of(&key.address())].push((*key, *value));
        }
        let busy = per_shard.iter().filter(|b| !b.is_empty()).count();
        if busy <= 1 {
            for (shard, batch) in self.shards.iter_mut().zip(&per_shard) {
                for (key, value) in batch {
                    shard.insert(*key, *value);
                }
            }
            return;
        }
        std::thread::scope(|scope| {
            for (shard, batch) in self.shards.iter_mut().zip(&per_shard) {
                if !batch.is_empty() {
                    scope.spawn(move || {
                        for (key, value) in batch {
                            shard.insert(*key, *value);
                        }
                    });
                }
            }
        });
    }

    /// The latest value of `addr`, looked up in its owning shard only.
    #[must_use]
    pub fn get_latest(&self, addr: Address) -> Option<(CompoundKey, StateValue)> {
        self.shards[self.shard_of(&addr)].get_latest(addr)
    }

    /// Recomputes (in parallel when sharded) and returns the per-shard root
    /// digests, in `root_hash_list` order.
    pub fn root_hashes(&mut self) -> Vec<Digest> {
        if self.shards.len() == 1 {
            return vec![self.shards[0].root_hash()];
        }
        let mut roots = vec![Digest::ZERO; self.shards.len()];
        std::thread::scope(|scope| {
            for (shard, root) in self.shards.iter_mut().zip(roots.iter_mut()) {
                scope.spawn(move || *root = shard.root_hash());
            }
        });
        roots
    }

    /// Drains every shard into one globally sorted entry list (the flush
    /// input): per-shard in-order traversals, then a k-way merge. The result
    /// is byte-for-byte what a single memtable holding the same data would
    /// produce.
    #[must_use]
    pub fn sorted_entries(&self) -> Vec<(CompoundKey, StateValue)> {
        merge_sorted_entry_lists(self.shards.iter().map(MbTree::entries).collect())
    }

    /// Replaces the contents with fresh empty shards and returns the old
    /// trees (the seal step of the asynchronous engine).
    #[must_use]
    pub fn take_shards(&mut self) -> Vec<MbTree> {
        let fresh = (0..self.shards.len())
            .map(|_| MbTree::with_fanout(self.fanout))
            .collect();
        std::mem::replace(&mut self.shards, fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(addr: u64, blk: u64) -> CompoundKey {
        CompoundKey::new(Address::from_low_u64(addr), blk)
    }

    fn filled(shards: usize, n: u64) -> ShardedMemtable {
        let mut mem = ShardedMemtable::new(shards, 8);
        for i in 0..n {
            mem.insert(key(i % 97, i / 97 + 1), StateValue::from_u64(i));
        }
        mem
    }

    #[test]
    fn single_shard_matches_a_plain_mbtree() {
        let mut mem = ShardedMemtable::new(1, 8);
        let mut tree = MbTree::with_fanout(8);
        for i in 0..500u64 {
            mem.insert(key(i % 37, i / 37 + 1), StateValue::from_u64(i));
            tree.insert(key(i % 37, i / 37 + 1), StateValue::from_u64(i));
        }
        assert_eq!(mem.len(), tree.len());
        assert_eq!(mem.root_hashes(), vec![tree.root_hash()]);
        assert_eq!(mem.sorted_entries(), tree.entries());
        for a in 0..40u64 {
            assert_eq!(
                mem.get_latest(Address::from_low_u64(a)),
                tree.get_latest(Address::from_low_u64(a))
            );
        }
    }

    #[test]
    fn sharded_drain_equals_single_memtable_drain() {
        for shards in [2usize, 3, 4, 8] {
            let sharded = filled(shards, 1000);
            let single = filled(1, 1000);
            assert_eq!(
                sharded.sorted_entries(),
                single.sorted_entries(),
                "{shards} shards"
            );
            assert_eq!(sharded.len(), single.len());
        }
    }

    #[test]
    fn insert_batch_matches_sequential_inserts() {
        let entries: Vec<(CompoundKey, StateValue)> = (0..800u64)
            .map(|i| (key(i % 61, i / 61 + 1), StateValue::from_u64(i * 3)))
            .collect();
        for shards in [1usize, 4] {
            let mut batched = ShardedMemtable::new(shards, 8);
            batched.insert_batch(&entries);
            let mut sequential = ShardedMemtable::new(shards, 8);
            for (k, v) in &entries {
                sequential.insert(*k, *v);
            }
            assert_eq!(batched.root_hashes(), sequential.root_hashes());
            assert_eq!(batched.sorted_entries(), sequential.sorted_entries());
        }
    }

    #[test]
    fn batch_overwrites_keep_insertion_order_semantics() {
        let mut mem = ShardedMemtable::new(4, 8);
        // Same key twice in one batch: the later value must win, exactly as
        // with repeated insert calls.
        mem.insert_batch(&[
            (key(5, 1), StateValue::from_u64(1)),
            (key(5, 1), StateValue::from_u64(2)),
        ]);
        assert_eq!(
            mem.get_latest(Address::from_low_u64(5)).unwrap().1,
            StateValue::from_u64(2)
        );
        assert_eq!(mem.len(), 1);
    }

    #[test]
    fn lookups_route_to_the_owning_shard() {
        let mem = filled(4, 2000);
        for a in 0..97u64 {
            let got = mem.get_latest(Address::from_low_u64(a));
            assert!(got.is_some(), "address {a} lost by shard routing");
            assert_eq!(got.unwrap().0.address(), Address::from_low_u64(a));
        }
        assert!(mem.get_latest(Address::from_low_u64(9999)).is_none());
    }

    #[test]
    fn every_shard_gets_traffic_at_reasonable_scale() {
        let mem = filled(4, 2000);
        for (i, shard) in mem.shards().iter().enumerate() {
            assert!(!shard.is_empty(), "shard {i} received no addresses");
        }
    }

    #[test]
    fn merge_sorted_entry_lists_handles_edges() {
        assert!(merge_sorted_entry_lists(Vec::new()).is_empty());
        assert!(merge_sorted_entry_lists(vec![Vec::new(), Vec::new()]).is_empty());
        let single = vec![(key(1, 1), StateValue::from_u64(1))];
        assert_eq!(
            merge_sorted_entry_lists(vec![Vec::new(), single.clone()]),
            single
        );
        let a = vec![
            (key(1, 1), StateValue::from_u64(1)),
            (key(3, 1), StateValue::from_u64(3)),
        ];
        let b = vec![
            (key(2, 1), StateValue::from_u64(2)),
            (key(4, 1), StateValue::from_u64(4)),
        ];
        let merged = merge_sorted_entry_lists(vec![a, b]);
        let keys: Vec<u64> = merged.iter().map(|(k, _)| k.address().low_u64()).collect();
        assert_eq!(keys, vec![1, 2, 3, 4]);
    }

    #[test]
    fn take_shards_resets_to_empty_heads() {
        let mut mem = filled(3, 300);
        let sealed = mem.take_shards();
        assert_eq!(sealed.len(), 3);
        assert_eq!(sealed.iter().map(MbTree::len).sum::<usize>(), mem_len(300));
        assert!(mem.is_empty());
        assert_eq!(mem.num_shards(), 3);
    }

    /// Entries produced by [`filled`] for `n` inserts (keys collide on
    /// `(addr, blk)` only when i % 97 and i / 97 repeat, which they don't
    /// below 97 * 97).
    fn mem_len(n: usize) -> usize {
        n
    }
}
