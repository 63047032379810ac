//! Seeded input generation: the blocks a workload writes and the requests it
//! reads with. The same seed gives the same inputs, byte for byte, and
//! [`Inputs::digest`] is the proof (`loadgen.workload_digest`). The engines
//! never see the seed — only the generated blocks and requests.

use cole_hash::Sha256;
use cole_primitives::{Address, StateValue};
use cole_workloads::{Block, KvWorkload, Mix, SmallBank, Transaction, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Transactions per block, everywhere (the paper's setting).
pub const TXS_PER_BLOCK: usize = 100;
/// Width, in blocks, of every provenance query window.
pub const PROV_WINDOW: u64 = 64;
/// Keys outside every dataset: never written, so `get` must answer `None`.
const ABSENT_BASE: u64 = 0xab5e_0000_0000;
/// Requests of each read stream covered by the digest.
const DIGEST_REQUESTS: usize = 4096;

/// Which data a workload writes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dataset {
    /// SmallBank transfers (two reads + two writes each) over `accounts`.
    SmallBank { accounts: u64 },
    /// KVStore: every record loaded once during set-up, then Zipfian
    /// (θ = 0.99) updates — `cole_workloads::KvWorkload`, `Mix::WriteOnly`.
    KvZipfUpdates { records: u64 },
    /// KVStore writes drawn uniformly over `records`, no load phase.
    KvUniform { records: u64 },
}

/// How a read stream picks its keys.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDist {
    Uniform,
    /// Zipf with the given θ over the dataset's addresses.
    Zipf(f64),
}

/// Everything a seed turns into.
pub struct Inputs {
    /// Every address the dataset can write, by index.
    pub addrs: Vec<Address>,
    /// Blocks ingested during set-up (heights `1..`).
    pub setup_blocks: Vec<Block>,
    /// Blocks of the measured phase (heights continue).
    pub run_blocks: Vec<Block>,
    /// First 48 bits of the SHA-256 over the blocks and the head of each
    /// read stream; equal seeds give equal digests.
    pub digest: u64,
}

/// Generates the inputs of one workload from `seed`.
pub fn generate(
    dataset: Dataset,
    seed: u64,
    setup_blocks: u64,
    run_blocks: u64,
    reads: &ReadSpec,
) -> Inputs {
    let (addrs, setup, run) = match dataset {
        Dataset::SmallBank { accounts } => {
            let mut bank = SmallBank::new(accounts, seed);
            let addrs = (0..accounts).map(|i| bank.account(i)).collect();
            let mut next = |h| bank.next_block(h, TXS_PER_BLOCK);
            let setup: Vec<Block> = (1..=setup_blocks).map(&mut next).collect();
            let run = (setup_blocks + 1..=setup_blocks + run_blocks)
                .map(&mut next)
                .collect();
            (addrs, setup, run)
        }
        Dataset::KvZipfUpdates { records } => {
            let mut kv = KvWorkload::new(records, Mix::WriteOnly, seed);
            let addrs = (0..records).map(|i| kv.record(i)).collect();
            let mut setup = kv.load_blocks(1, TXS_PER_BLOCK);
            let loaded = setup.len() as u64;
            let mut next = |h| kv.next_block(h, TXS_PER_BLOCK);
            setup.extend((loaded + 1..=loaded + setup_blocks).map(&mut next));
            let first_run = setup.len() as u64 + 1;
            let run = (first_run..first_run + run_blocks).map(&mut next).collect();
            (addrs, setup, run)
        }
        Dataset::KvUniform { records } => {
            let kv = KvWorkload::new(1, Mix::WriteOnly, 0);
            // `record` maps an index into the KVStore address space; the
            // one-record instance above is only borrowed for that mapping.
            let base = kv.record(0).low_u64();
            let addrs: Vec<Address> = (0..records)
                .map(|i| Address::from_low_u64(base + i))
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut next = |height| Block {
                height,
                transactions: (0..TXS_PER_BLOCK)
                    .map(|_| Transaction::Write {
                        addr: addrs[rng.gen_range(0..addrs.len())],
                        value: StateValue::from_u64(rng.gen()),
                    })
                    .collect(),
            };
            let setup: Vec<Block> = (1..=setup_blocks).map(&mut next).collect();
            let run = (setup_blocks + 1..=setup_blocks + run_blocks)
                .map(&mut next)
                .collect();
            (addrs, setup, run)
        }
    };
    let mut inputs = Inputs {
        addrs,
        setup_blocks: setup,
        run_blocks: run,
        digest: 0,
    };
    inputs.digest = digest_of(&inputs, seed, reads);
    inputs
}

fn digest_of(inputs: &Inputs, seed: u64, reads: &ReadSpec) -> u64 {
    let mut hasher = Sha256::new();
    for block in inputs.setup_blocks.iter().chain(&inputs.run_blocks) {
        hasher.update(&block.height.to_le_bytes());
        for tx in &block.transactions {
            match tx {
                Transaction::Transfer { from, to, amount } => {
                    hasher.update(&[0]);
                    hasher.update(from.as_slice());
                    hasher.update(to.as_slice());
                    hasher.update(&amount.to_le_bytes());
                }
                Transaction::Write { addr, value } => {
                    hasher.update(&[1]);
                    hasher.update(addr.as_slice());
                    hasher.update(value.as_bytes());
                }
                Transaction::Read { addr } => {
                    hasher.update(&[2]);
                    hasher.update(addr.as_slice());
                }
            }
        }
    }
    let head = inputs.setup_blocks.len() as u64;
    let mut stream = ReadGen::new(reads, &inputs.addrs, seed);
    for _ in 0..DIGEST_REQUESTS {
        hasher.update(stream.next_get().as_slice());
        let (addr, lo, hi) = stream.next_prov(head);
        hasher.update(addr.as_slice());
        hasher.update(&lo.to_le_bytes());
        hasher.update(&hi.to_le_bytes());
    }
    let d = hasher.finalize();
    d.as_bytes()[..6]
        .iter()
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

/// Shape of a workload's read stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReadSpec {
    pub dist: KeyDist,
    /// Share of `get`s that address keys no block ever wrote.
    pub absent_share: f64,
}

/// A seeded stream of read requests over a dataset's addresses.
pub struct ReadGen<'a> {
    rng: StdRng,
    addrs: &'a [Address],
    zipf: Option<Zipf>,
    absent_share: f64,
}

impl<'a> ReadGen<'a> {
    /// The stream for `seed`; distinct `salt`s of one seed give independent
    /// streams of the same distribution.
    pub fn salted(spec: &ReadSpec, addrs: &'a [Address], seed: u64, salt: u64) -> Self {
        ReadGen {
            // Decorrelated from the block generator, which uses `seed` itself.
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_7ead ^ salt.wrapping_mul(0x9e37_79b9)),
            addrs,
            zipf: match spec.dist {
                KeyDist::Uniform => None,
                KeyDist::Zipf(theta) => Some(Zipf::new(addrs.len(), theta)),
            },
            absent_share: spec.absent_share,
        }
    }

    pub fn new(spec: &ReadSpec, addrs: &'a [Address], seed: u64) -> Self {
        Self::salted(spec, addrs, seed, 0)
    }

    fn pick(&mut self) -> Address {
        let idx = match &self.zipf {
            Some(zipf) => zipf.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.addrs.len()),
        };
        self.addrs[idx]
    }

    /// A uniform draw from `[0, 1)` (the open loop picks request kinds with
    /// it, from a stream of its own).
    pub fn next_unit(&mut self) -> f64 {
        self.rng.gen()
    }

    /// The next `get` key.
    pub fn next_get(&mut self) -> Address {
        if self.absent_share > 0.0 && self.rng.gen_bool(self.absent_share) {
            Address::from_low_u64(ABSENT_BASE + self.rng.gen_range(0..1u64 << 32))
        } else {
            self.pick()
        }
    }

    /// The next provenance query `(addr, blk_lower, blk_upper)`: a
    /// [`PROV_WINDOW`]-block window ending at a uniformly drawn height of
    /// the chain up to `head`.
    pub fn next_prov(&mut self, head: u64) -> (Address, u64, u64) {
        let addr = self.pick();
        debug_assert!(head >= 1, "provenance queries need a finalized block");
        let hi = self.rng.gen_range(PROV_WINDOW.min(head)..=head);
        (addr, hi.saturating_sub(PROV_WINDOW - 1).max(1), hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const READS: ReadSpec = ReadSpec {
        dist: KeyDist::Uniform,
        absent_share: 0.1,
    };

    #[test]
    fn equal_seeds_give_equal_digests_and_inputs() {
        for dataset in [
            Dataset::SmallBank { accounts: 500 },
            Dataset::KvZipfUpdates { records: 300 },
            Dataset::KvUniform { records: 400 },
        ] {
            let a = generate(dataset, 11, 5, 7, &READS);
            let b = generate(dataset, 11, 5, 7, &READS);
            let c = generate(dataset, 12, 5, 7, &READS);
            assert_eq!(a.digest, b.digest, "{dataset:?}");
            assert_eq!(a.setup_blocks, b.setup_blocks);
            assert_eq!(a.run_blocks, b.run_blocks);
            assert_ne!(
                a.digest, c.digest,
                "{dataset:?}: another seed, another stream"
            );
            assert!(a.digest < 1 << 48);
        }
    }

    #[test]
    fn digest_covers_the_read_stream_too() {
        let dataset = Dataset::KvUniform { records: 400 };
        let uniform = generate(dataset, 11, 5, 7, &READS);
        let zipf = generate(
            dataset,
            11,
            5,
            7,
            &ReadSpec {
                dist: KeyDist::Zipf(0.99),
                absent_share: 0.1,
            },
        );
        assert_eq!(uniform.setup_blocks, zipf.setup_blocks);
        assert_ne!(uniform.digest, zipf.digest);
    }

    #[test]
    fn heights_are_consecutive_and_the_load_phase_comes_first() {
        let inputs = generate(Dataset::KvZipfUpdates { records: 250 }, 3, 4, 6, &READS);
        // 250 records load in 3 blocks, then 4 set-up and 6 run blocks.
        assert_eq!(inputs.setup_blocks.len(), 3 + 4);
        let heights: Vec<u64> = inputs
            .setup_blocks
            .iter()
            .chain(&inputs.run_blocks)
            .map(|b| b.height)
            .collect();
        assert_eq!(heights, (1..=13).collect::<Vec<u64>>());
        assert_eq!(inputs.addrs.len(), 250);
    }

    #[test]
    fn read_streams_respect_their_spec() {
        let addrs: Vec<Address> = (0..100).map(Address::from_low_u64).collect();
        let mut stream = ReadGen::new(&READS, &addrs, 5);
        let absent = (0..10_000)
            .filter(|_| !addrs.contains(&stream.next_get()))
            .count();
        assert!((700..1300).contains(&absent), "absent share off: {absent}");
        for head in [1u64, 10, 64, 500] {
            for _ in 0..200 {
                let (addr, lo, hi) = stream.next_prov(head);
                assert!(addrs.contains(&addr));
                assert!(
                    1 <= lo && lo <= hi && hi <= head,
                    "[{lo}, {hi}] at head {head}"
                );
                assert!(hi - lo < PROV_WINDOW);
            }
        }
        // Salted streams of one seed differ; equal salts agree.
        let mut a = ReadGen::salted(&READS, &addrs, 5, 1);
        let mut b = ReadGen::salted(&READS, &addrs, 5, 1);
        let mut c = ReadGen::salted(&READS, &addrs, 5, 2);
        let (xa, xb, xc): (Vec<_>, Vec<_>, Vec<_>) = (
            (0..32).map(|_| a.next_get()).collect(),
            (0..32).map(|_| b.next_get()).collect(),
            (0..32).map(|_| c.next_get()).collect(),
        );
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }
}
