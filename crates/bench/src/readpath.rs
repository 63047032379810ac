//! Shared fixtures for the read-path benchmarks.
//!
//! Both the criterion `read_path` group (`benches/micro.rs`) and the
//! `exp_ablation --studies read-path` study time the same two comparisons —
//! cold vs. cached learned-index descent, and per-entry vs. page-granular
//! range scan — so the fixture construction and the per-entry baseline live
//! here once. If the baseline semantics ever change, both the criterion
//! numbers and the committed `BENCH_read_path.json` move together.

use std::path::Path;
use std::sync::Arc;

use cole_core::{ColeConfig, Metrics, Run, RunBuilder, RunContext};
use cole_learned::{IndexFileBuilder, LearnedIndexFile};
use cole_primitives::{index_epsilon, Address, CompoundKey, Result, StateValue};
use cole_storage::PageCache;

/// A learned-index file opened twice over the same irregular key set: once
/// without a cache (every descent page is a filesystem read) and once with a
/// warmed [`PageCache`].
#[derive(Debug)]
pub struct DescentFixture {
    /// Uncached reader — the cold baseline.
    pub cold: LearnedIndexFile,
    /// Cache-attached, pre-warmed reader.
    pub cached: LearnedIndexFile,
    entries: u64,
}

impl DescentFixture {
    /// Builds the index file in `dir` over `entries` irregular keys and
    /// opens the cold and cached readers.
    ///
    /// # Errors
    ///
    /// Returns an error if a file operation fails.
    pub fn build(dir: &Path, entries: u64) -> Result<Self> {
        let path = dir.join("descent.idx");
        let mut builder = IndexFileBuilder::create(&path, index_epsilon())?;
        for a in 0..entries {
            builder.push(CompoundKey::new(Address::from_low_u64(a * 7 + a % 5), 1), a)?;
        }
        let built = builder.finish()?;
        let layer_counts = built.layer_counts().to_vec();
        let epsilon = built.epsilon();
        drop(built);
        let cold = LearnedIndexFile::open(&path, layer_counts.clone(), epsilon)?;
        let mut cached = LearnedIndexFile::open(&path, layer_counts, epsilon)?;
        cached.attach_cache(Arc::new(PageCache::new(4096)));
        let fixture = DescentFixture {
            cold,
            cached,
            entries,
        };
        for i in (0..entries).step_by(16) {
            fixture.cached.find_bottom_model(&fixture.probe(i))?;
        }
        Ok(fixture)
    }

    /// The `i`-th probe key (wraps around the key space).
    #[must_use]
    pub fn probe(&self, i: u64) -> CompoundKey {
        CompoundKey::latest(Address::from_low_u64((i % self.entries) * 7 + 3))
    }
}

/// One cache-attached [`Run`] plus a scan window of ~`scan_entries` entries,
/// pre-warmed so both scan variants measure the in-memory path.
#[derive(Debug)]
pub struct ScanFixture {
    /// The run both scan variants read.
    pub run: Run,
    /// Lower bound of the scan window.
    pub lower: CompoundKey,
    /// Upper bound of the scan window.
    pub upper: CompoundKey,
    /// Number of entries the window covers.
    pub scan_entries: u64,
}

impl ScanFixture {
    /// Builds a run of `entries` pairs in `dir` and warms the pages of a
    /// ~512-entry scan window in its middle.
    ///
    /// # Errors
    ///
    /// Returns an error if a file operation fails.
    pub fn build(dir: &Path, entries: u64) -> Result<Self> {
        let ctx = RunContext::new(
            Some(Arc::new(PageCache::new(4096))),
            Arc::new(Metrics::new()),
        );
        let config = ColeConfig::default();
        let mut builder = RunBuilder::create(dir, 1, entries, &config, ctx)?;
        for a in 0..entries {
            builder.push(
                CompoundKey::new(Address::from_low_u64(a * 7), 1),
                StateValue::from_u64(a),
            )?;
        }
        let run = builder.finish()?;
        let scan_entries = 512u64.min(entries / 2);
        let scan_start = entries / 2;
        let lower = CompoundKey::new(Address::from_low_u64(scan_start * 7), 0);
        let upper = CompoundKey::new(
            Address::from_low_u64((scan_start + scan_entries) * 7),
            u64::MAX,
        );
        run.range_with_proof(&lower, &upper)?; // warm the covered pages
        Ok(ScanFixture {
            run,
            lower,
            upper,
            scan_entries,
        })
    }

    /// The per-entry scan baseline: one `entry_at` — page fetch plus
    /// single-entry decode — per position.
    ///
    /// # Errors
    ///
    /// Returns an error if a read fails.
    pub fn scan_per_entry(&self) -> Result<Vec<(CompoundKey, StateValue)>> {
        let first = self.run.position_le(&self.lower)?.unwrap_or(0);
        let mut entries = Vec::new();
        for pos in first..self.run.num_entries() {
            let entry = self.run.entry_at(pos)?;
            let key = entry.0;
            entries.push(entry);
            if key > self.upper {
                break;
            }
        }
        Ok(entries)
    }

    /// The page-granular scan under test. The run proves its scans in the
    /// same pass (`Run::range_with_proof`), so this side also pays the
    /// window's Merkle proof: at most `2(m − 1)` entry rehashes plus the
    /// cached upper-layer siblings.
    ///
    /// # Errors
    ///
    /// Returns an error if a read fails.
    pub fn scan_page_granular(&self) -> Result<Vec<(CompoundKey, StateValue)>> {
        Ok(self
            .run
            .range_with_proof(&self.lower, &self.upper)?
            .0
            .entries)
    }
}
