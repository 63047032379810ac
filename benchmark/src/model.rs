//! The correctness oracle: a trivially correct in-memory model of the state.
//!
//! Every block the benchmark feeds an engine is first applied here, with the
//! same deterministic execution rules as `cole_workloads::execute_block`, so
//! the model knows every version of every address. Every answer an engine or
//! server gives is compared against it; a mismatch is a failed operation.

use std::collections::HashMap;

use cole_primitives::{Address, StateValue, VersionedValue};
use cole_workloads::{Block, Transaction, INITIAL_BALANCE};

/// Version history per address plus running version counts per block.
#[derive(Default)]
pub struct Model {
    /// `(height, value)` ascending; one entry per block that wrote the
    /// address (writes inside one block coalesce, as in the engines).
    history: HashMap<Address, Vec<(u64, StateValue)>>,
    /// `(height, versions written through that height)`, ascending.
    cumulative: Vec<(u64, u64)>,
    /// Distinct `(address, block)` pairs written so far.
    versions: u64,
}

impl Model {
    /// Applies `block` and returns its writes in execution order — exactly
    /// what `execute_block` will `put` (a `put_batch` of them is the block).
    pub fn apply(&mut self, block: &Block) -> Vec<(Address, StateValue)> {
        let mut writes = Vec::with_capacity(block.transactions.len() * 2);
        for tx in &block.transactions {
            match *tx {
                Transaction::Transfer { from, to, amount } => {
                    let balance = |model: &Model, a: Address| {
                        model.latest(a).map_or(INITIAL_BALANCE, |v| v.as_u64())
                    };
                    let from_balance = balance(self, from);
                    let to_balance = balance(self, to);
                    let moved = amount.min(from_balance);
                    for (addr, value) in [
                        (from, from_balance - moved),
                        (to, to_balance.saturating_add(moved)),
                    ] {
                        let value = StateValue::from_u64(value);
                        self.write(block.height, addr, value);
                        writes.push((addr, value));
                    }
                }
                Transaction::Write { addr, value } => {
                    self.write(block.height, addr, value);
                    writes.push((addr, value));
                }
                Transaction::Read { .. } => {}
            }
        }
        let total = self.versions();
        self.cumulative.push((block.height, total));
        writes
    }

    fn write(&mut self, height: u64, addr: Address, value: StateValue) {
        let versions = self.history.entry(addr).or_default();
        match versions.last_mut() {
            Some(last) if last.0 == height => last.1 = value,
            _ => {
                versions.push((height, value));
                self.versions += 1;
            }
        }
    }

    /// State versions written so far: distinct `(address, block)` pairs.
    pub fn versions(&self) -> u64 {
        self.versions
    }

    /// State versions written by blocks at or below `height`.
    pub fn versions_through(&self, height: u64) -> u64 {
        let idx = self.cumulative.partition_point(|&(h, _)| h <= height);
        idx.checked_sub(1).map_or(0, |i| self.cumulative[i].1)
    }

    /// The latest value of `addr`, or `None` if it was never written.
    pub fn latest(&self, addr: Address) -> Option<StateValue> {
        self.history.get(&addr)?.last().map(|&(_, v)| v)
    }

    /// The value of `addr` as of block `height` (inclusive).
    pub fn value_at(&self, addr: Address, height: u64) -> Option<StateValue> {
        let versions = self.history.get(&addr)?;
        let idx = versions.partition_point(|&(h, _)| h <= height);
        idx.checked_sub(1).map(|i| versions[i].1)
    }

    /// Every version of `addr` written in `[lo, hi]`, newest first — what a
    /// provenance query over that range must return.
    pub fn range(&self, addr: Address, lo: u64, hi: u64) -> Vec<VersionedValue> {
        self.history.get(&addr).map_or_else(Vec::new, |versions| {
            versions
                .iter()
                .rev()
                .filter(|&&(h, _)| h >= lo && h <= hi)
                .map(|&(h, v)| VersionedValue::new(h, v))
                .collect()
        })
    }

    /// Every `(address, height, value)` in key order, capped at `limit`
    /// entries: the workload's own data, as the sorted run a flush would
    /// build from it (fixture for the per-layer timings).
    pub fn sorted_entries(&self, limit: usize) -> Vec<(Address, u64, StateValue)> {
        let mut addrs: Vec<&Address> = self.history.keys().collect();
        addrs.sort();
        let mut out = Vec::with_capacity(limit.min(self.versions as usize));
        for addr in addrs {
            for &(h, v) in &self.history[addr] {
                if out.len() == limit {
                    return out;
                }
                out.push((*addr, h, v));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u64) -> Address {
        Address::from_low_u64(i)
    }
    fn v(i: u64) -> StateValue {
        StateValue::from_u64(i)
    }
    fn write_block(height: u64, writes: &[(u64, u64)]) -> Block {
        Block {
            height,
            transactions: writes
                .iter()
                .map(|&(addr, value)| Transaction::Write {
                    addr: a(addr),
                    value: v(value),
                })
                .collect(),
        }
    }

    #[test]
    fn versions_coalesce_within_a_block_and_count_across_blocks() {
        let mut m = Model::default();
        let writes = m.apply(&write_block(1, &[(1, 10), (2, 20), (1, 11)]));
        assert_eq!(writes.len(), 3, "the write list keeps duplicates, in order");
        assert_eq!(
            m.versions(),
            2,
            "two writes to one address in a block: one version"
        );
        m.apply(&write_block(3, &[(1, 30)]));
        assert_eq!(m.versions(), 3);
        assert_eq!(m.versions_through(0), 0);
        assert_eq!(m.versions_through(1), 2);
        assert_eq!(m.versions_through(2), 2);
        assert_eq!(m.versions_through(9), 3);
        assert_eq!(m.latest(a(1)), Some(v(30)));
        assert_eq!(m.value_at(a(1), 2), Some(v(11)));
        assert_eq!(m.value_at(a(1), 0), None);
        assert_eq!(m.latest(a(9)), None);
        let history = m.range(a(1), 1, 3);
        assert_eq!(
            history,
            vec![VersionedValue::new(3, v(30)), VersionedValue::new(1, v(11))]
        );
        assert!(m.range(a(1), 2, 2).is_empty());
    }

    #[test]
    fn transfers_follow_the_executor_rules() {
        let mut m = Model::default();
        let block = Block {
            height: 1,
            transactions: vec![
                Transaction::Write {
                    addr: a(1),
                    value: v(10),
                },
                // Only 10 can move; the receiver starts from INITIAL_BALANCE.
                Transaction::Transfer {
                    from: a(1),
                    to: a(2),
                    amount: 50,
                },
            ],
        };
        let writes = m.apply(&block);
        assert_eq!(writes.len(), 3);
        assert_eq!(m.latest(a(1)), Some(v(0)));
        assert_eq!(m.latest(a(2)), Some(v(INITIAL_BALANCE + 10)));
    }

    #[test]
    fn sorted_entries_are_in_key_order_and_capped() {
        let mut m = Model::default();
        m.apply(&write_block(1, &[(5, 1), (3, 1)]));
        m.apply(&write_block(2, &[(5, 2)]));
        let all = m.sorted_entries(10);
        assert_eq!(all, vec![(a(3), 1, v(1)), (a(5), 1, v(1)), (a(5), 2, v(2))]);
        assert_eq!(m.sorted_entries(2).len(), 2);
    }
}
