//! The two engines behind one small trait, plus the embedded write path:
//! ingest with per-block timing, and the close → reopen → `Hstate` check.

use std::path::Path;
use std::time::Instant;

use cole_core::{compute_hstate, AsyncCole, Cole, ColeConfig};
use cole_primitives::{AuthenticatedStorage, Digest, Result};
use cole_server::ServableEngine;
use cole_workloads::{execute_block, Block};

use crate::model::Model;

/// What the benchmark needs from an engine beyond `ServableEngine`: the two
/// inherent functions `Cole` and `AsyncCole` both have but no trait names.
pub trait BenchEngine: ServableEngine + Sized {
    fn open_at(dir: &Path, config: ColeConfig) -> Result<Self>;

    /// The state root digest of the current contents.
    fn hstate(&mut self) -> Digest;

    /// State versions held in on-disk runs. Called on a freshly reopened
    /// engine, before any replay.
    fn resident_versions(&self, model: &Model) -> u64;
}

impl BenchEngine for Cole {
    fn open_at(dir: &Path, config: ColeConfig) -> Result<Self> {
        Cole::open(dir, config)
    }

    fn hstate(&mut self) -> Digest {
        compute_hstate(&self.root_hash_list())
    }

    /// With the WAL on, reopening restores the unflushed memtable, so the
    /// height says nothing about the runs; the memtable's length does.
    fn resident_versions(&self, model: &Model) -> u64 {
        model.versions_through(self.current_block_height()) - self.memtable_len() as u64
    }
}

impl BenchEngine for AsyncCole {
    fn open_at(dir: &Path, config: ColeConfig) -> Result<Self> {
        AsyncCole::open(dir, config)
    }

    fn hstate(&mut self) -> Digest {
        compute_hstate(&self.root_hash_list())
    }

    /// Only used without a WAL (the paper's §4.3 recovery model): the
    /// reopened engine resumes at the last flushed height with an empty
    /// memtable, so everything through that height is in runs.
    fn resident_versions(&self, model: &Model) -> u64 {
        model.versions_through(self.current_block_height())
    }
}

/// Per-block timings of an embedded ingest.
pub struct Ingested {
    /// `begin_block` + every `get`/`put` + `finalize_block`, per block, µs.
    pub block_us: Vec<f64>,
    pub txs: u64,
    pub elapsed_s: f64,
}

/// Executes `blocks` through `cole_workloads::execute_block`, one thread,
/// closed loop.
pub fn ingest<E: AuthenticatedStorage>(engine: &mut E, blocks: &[Block]) -> Result<Ingested> {
    let mut block_us = Vec::with_capacity(blocks.len());
    let mut txs = 0u64;
    let started = Instant::now();
    for block in blocks {
        let result = execute_block(engine, block)?;
        block_us.push(result.total.as_secs_f64() * 1e6);
        txs += block.transactions.len() as u64;
    }
    Ok(Ingested {
        block_us,
        txs,
        elapsed_s: started.elapsed().as_secs_f64(),
    })
}

/// A reopened engine and what closing and reopening it showed.
pub struct Reopened<E> {
    pub engine: E,
    pub facts: ReopenFacts,
}

/// What closing and reopening an engine showed.
#[derive(Clone, Copy, Debug)]
pub struct ReopenFacts {
    /// `storage_stats().total_bytes()` ÷ versions resident in runs.
    pub bytes_per_version: f64,
    pub data_bytes_share: f64,
    pub index_bytes_share: f64,
    /// `E::open` on the finished directory, WAL replay included.
    pub reopen_ms: f64,
    /// Whether the reopened engine (after replaying the blocks past its
    /// recovered height, as a node would) reproduces the pre-close `Hstate`.
    pub hstate_matches: bool,
}

/// Settles `engine` (`flush`: manifest commit, and for COLE* every background
/// merge), drops it, reopens `dir`, replays the blocks the reopened engine
/// does not hold (none with a WAL; the unflushed tail without), and compares
/// state roots. `blocks` is every block ingested so far, in height order.
pub fn close_and_reopen<E: BenchEngine>(
    mut engine: E,
    dir: &Path,
    config: ColeConfig,
    blocks: &[&[Block]],
    model: &Model,
) -> Result<Reopened<E>> {
    engine.flush()?;
    let before = engine.hstate();
    drop(engine);

    let started = Instant::now();
    let mut engine = E::open_at(dir, config)?;
    let reopen_ms = started.elapsed().as_secs_f64() * 1e3;

    let stats = engine.storage_stats()?;
    let resident = engine.resident_versions(model);
    let recovered = engine.current_block_height();
    for block in blocks.iter().flat_map(|b| b.iter()) {
        if block.height > recovered {
            execute_block(&mut engine, block)?;
        }
    }
    let total = stats.total_bytes().max(1) as f64;
    let facts = ReopenFacts {
        hstate_matches: engine.hstate() == before,
        bytes_per_version: stats.total_bytes() as f64 / resident.max(1) as f64,
        data_bytes_share: stats.data_bytes as f64 / total,
        index_bytes_share: stats.index_bytes as f64 / total,
        reopen_ms,
    };
    Ok(Reopened { engine, facts })
}
