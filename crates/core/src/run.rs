//! On-disk sorted runs: value file + learned index file + Merkle file +
//! Bloom filter (§3.2, §4).

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
// `OnceLock` stays `std` even under `--cfg loom`: the Bloom cell is
// initialize-once, idempotent, and carries its own internal synchronization
// (see `ORDERINGS.md`).
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use cole_bloom::{BloomFilter, BloomProbe};
use cole_hash::{hash_entry, hash_pair, sha256};
use cole_learned::{IndexFileBuilder, LearnedIndexFile};
use cole_mht::{LeafLayer, MerkleFile, MerkleFileBuilder, RangeProof};
use cole_primitives::{
    check_claim, Address, ColeError, CompoundKey, Digest, KeyNum, Result, StateValue, ADDRESS_LEN,
    COMPOUND_KEY_LEN, DIGEST_LEN, ENTRY_LEN, PAGE_SIZE, VALUE_LEN,
};
use cole_storage::{sync_dir, write_durable, PageCache, PageFile, PageWriter, SortedRecords};

use crate::config::ColeConfig;
use crate::failpoint::KillPoints;
use crate::metrics::{Metrics, MetricsSnapshot};

/// Shared read-path plumbing of one engine instance, cloned into every run
/// it builds or reopens: the page cache every run file (value, learned
/// index, Merkle) reads through, the [`Metrics`] instance those reads update
/// (with per-file-kind attribution), and the optional crash-injection
/// [`KillPoints`] hook the write path crosses.
///
/// All members are `Arc`-shared and cheap to clone; the default (no cache,
/// fresh metrics, no kill points) is what standalone runs — tests, tools —
/// use.
#[derive(Clone, Debug, Default)]
pub struct RunContext {
    /// Page cache shared by all runs of one engine; `None` disables caching.
    pub cache: Option<Arc<PageCache>>,
    /// Operation counters shared with the owning engine.
    pub metrics: Arc<Metrics>,
    /// Crash-injection hook crossed by every write-path step; `None` (the
    /// default outside crash tests) makes every crossing free.
    pub kill_points: Option<Arc<KillPoints>>,
    /// Recoverable fault injection consulted by the storage layer (page
    /// reads, WAL appends/fsyncs, manifest commits); `None` (the default
    /// outside chaos tests) makes every check free.
    pub faults: Option<Arc<cole_storage::FaultPlan>>,
}

impl RunContext {
    /// Creates a context sharing the given cache (if any) and metrics.
    #[must_use]
    pub fn new(cache: Option<Arc<PageCache>>, metrics: Arc<Metrics>) -> Self {
        RunContext {
            cache,
            metrics,
            kill_points: None,
            faults: None,
        }
    }

    /// Creates a fresh engine context from a configuration: a page cache of
    /// `config.page_cache_pages` pages (none if `0`) and zeroed metrics.
    #[must_use]
    pub fn from_config(config: &ColeConfig) -> Self {
        let cache = (config.page_cache_pages > 0)
            .then(|| Arc::new(PageCache::new(config.page_cache_pages)));
        RunContext::new(cache, Arc::new(Metrics::new()))
    }

    /// Attaches a crash-injection hook (see [`KillPoints`]).
    #[must_use]
    pub fn with_kill_points(mut self, kill_points: Arc<KillPoints>) -> Self {
        self.kill_points = Some(kill_points);
        self
    }

    /// Attaches a recoverable-fault plan (see [`cole_storage::FaultPlan`]):
    /// every run file the engine opens or builds from here on consults it
    /// before disk reads, and the engine wires it into its WAL and manifest.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<cole_storage::FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Crosses the kill point `name`; a no-op unless a hook is attached and
    /// armed for this crossing.
    ///
    /// # Errors
    ///
    /// Returns the injected crash error when armed for this crossing.
    pub fn kill(&self, name: &str) -> Result<()> {
        match &self.kill_points {
            Some(kp) => kp.hit(name),
            None => Ok(()),
        }
    }

    /// A point-in-time copy of the shared counters. The per-kind cache
    /// splits come from the [`Metrics`] IO stats; the totals are overwritten
    /// with the shared page cache's own counters when one is attached (they
    /// agree in engine context, where every cached file reports stats).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = self.metrics.snapshot();
        if let Some(cache) = &self.cache {
            snapshot.cache_hits = cache.hits();
            snapshot.cache_misses = cache.misses();
        }
        snapshot
    }
}

/// Wires a run's three page-structured files into the engine's shared page
/// cache (if any) and per-file-kind IO counters, so *every* read-path page
/// fetch — index descent, value page, Merkle sibling — is cache-served and
/// attributed to its kind.
fn attach_run_io(
    ctx: &RunContext,
    value_file: &mut PageFile,
    index: &mut LearnedIndexFile,
    merkle: &mut MerkleFile,
) {
    if let Some(cache) = &ctx.cache {
        value_file.attach_cache(Arc::clone(cache));
        index.attach_cache(Arc::clone(cache));
        merkle.attach_cache(Arc::clone(cache));
    }
    value_file.attach_stats(Arc::clone(&ctx.metrics.value_io));
    index.attach_stats(Arc::clone(&ctx.metrics.index_io));
    merkle.attach_stats(Arc::clone(&ctx.metrics.merkle_io));
    if let Some(faults) = &ctx.faults {
        value_file.attach_faults(Arc::clone(faults));
        index.attach_faults(Arc::clone(faults));
        merkle.attach_faults(Arc::clone(faults));
    }
}

/// Number of compound key–value entries per value-file page.
pub(crate) const ENTRIES_PER_PAGE: usize = PAGE_SIZE / ENTRY_LEN;

/// Identifier of a run, unique within one COLE instance.
pub type RunId = u64;

fn value_path(dir: &Path, id: RunId) -> PathBuf {
    dir.join(format!("run_{id:08}.val"))
}
fn index_path(dir: &Path, id: RunId) -> PathBuf {
    dir.join(format!("run_{id:08}.idx"))
}
fn merkle_path(dir: &Path, id: RunId) -> PathBuf {
    dir.join(format!("run_{id:08}.mrk"))
}
fn bloom_path(dir: &Path, id: RunId) -> PathBuf {
    dir.join(format!("run_{id:08}.blm"))
}
fn meta_path(dir: &Path, id: RunId) -> PathBuf {
    dir.join(format!("run_{id:08}.meta"))
}

fn encode_entry(key: &CompoundKey, value: &StateValue) -> [u8; ENTRY_LEN] {
    let mut out = [0u8; ENTRY_LEN];
    out[..COMPOUND_KEY_LEN].copy_from_slice(&key.to_bytes());
    out[COMPOUND_KEY_LEN..].copy_from_slice(value.as_bytes());
    out
}

fn decode_entry(bytes: &[u8]) -> Result<(CompoundKey, StateValue)> {
    if bytes.len() < ENTRY_LEN {
        return Err(ColeError::InvalidEncoding(
            "value-file entry is truncated".into(),
        ));
    }
    let key = CompoundKey::from_bytes(&bytes[..COMPOUND_KEY_LEN])?;
    let mut value = [0u8; VALUE_LEN];
    value.copy_from_slice(&bytes[COMPOUND_KEY_LEN..ENTRY_LEN]);
    Ok((key, StateValue::new(value)))
}

/// The bytes of the entry at `position` on its value page.
fn entry_bytes(page: &[u8], position: u64) -> &[u8] {
    let slot = (position % ENTRIES_PER_PAGE as u64) as usize;
    &page[slot * ENTRY_LEN..(slot + 1) * ENTRY_LEN]
}

/// Entries per batch handed to the pipelined builder's worker threads —
/// large enough that channel traffic is negligible next to the hashing the
/// workers do per batch.
const BUILD_BATCH_ENTRIES: usize = 512;

/// Bounded depth of each worker's batch queue: backpressure keeps a fast
/// producer from buffering an unbounded slice of the run in memory.
const BUILD_QUEUE_BATCHES: usize = 8;

/// Runs smaller than this are always built inline — two thread spawns cost
/// more than parallelizing a few pages of hashing saves.
const PARALLEL_BUILD_MIN_ENTRIES: u64 = 1024;

/// A batch of entries in run order, shared by the index and Merkle workers.
type BuildBatch = Arc<Vec<(CompoundKey, StateValue)>>;

/// Where a builder's learned-index and Merkle work happens.
///
/// `Inline` is the classic serial build. `Pipelined` feeds the two builders
/// from worker threads so the caller's loop only writes the value file (the
/// ordering authority) and the Bloom filter, while the per-entry SHA-256 of
/// the Merkle leaves and the ε-model training run concurrently. Both modes
/// produce byte-identical files.
#[derive(Debug)]
enum SideBuilders {
    Inline {
        // Boxed to keep the enum small next to the channel-based variant.
        index: Box<IndexFileBuilder>,
        merkle: Box<MerkleFileBuilder>,
    },
    Pipelined(Pipeline),
}

/// The channel state of a pipelined build. The senders and join handles are
/// `Option` because they leave in two different orders: a clean
/// [`finish`](SideBuilders::finish) drops the senders first (ending the
/// recv loops) then joins, while a failed dispatch [`abort`](Pipeline::abort)s
/// from `&mut self` — taking both out to surface the dead worker's root
/// cause immediately.
#[derive(Debug)]
struct Pipeline {
    batch: Vec<(CompoundKey, StateValue)>,
    index_tx: Option<SyncSender<BuildBatch>>,
    merkle_tx: Option<SyncSender<BuildBatch>>,
    index_thread: Option<JoinHandle<Result<LearnedIndexFile>>>,
    merkle_thread: Option<JoinHandle<Result<MerkleFile>>>,
}

impl Pipeline {
    /// Ships the pending batch to both workers. A send fails only when a
    /// worker already died on an error, in which case both workers are
    /// joined and the root cause returned.
    fn dispatch(&mut self) -> Result<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let shipped: BuildBatch = Arc::new(std::mem::replace(
            &mut self.batch,
            Vec::with_capacity(BUILD_BATCH_ENTRIES),
        ));
        let index_ok = match &self.index_tx {
            Some(tx) => tx.send(Arc::clone(&shipped)).is_ok(),
            None => false,
        };
        let merkle_ok = match &self.merkle_tx {
            Some(tx) => tx.send(shipped).is_ok(),
            None => false,
        };
        if index_ok && merkle_ok {
            Ok(())
        } else {
            Err(self.abort())
        }
    }

    /// Closes both queues and joins both workers, returning the first
    /// worker error — the root cause behind a failed send (e.g. the actual
    /// I/O error of a full disk), not a generic "worker exited".
    fn abort(&mut self) -> ColeError {
        self.index_tx = None;
        self.merkle_tx = None;
        let index_err = self.index_thread.take().and_then(|h| join_worker(h).err());
        let merkle_err = self.merkle_thread.take().and_then(|h| join_worker(h).err());
        index_err.or(merkle_err).unwrap_or_else(|| {
            ColeError::InvalidState("run-build worker exited before the stream ended".into())
        })
    }
}

/// Joins a builder worker, converting a panic into an error.
fn join_worker<T>(handle: JoinHandle<Result<T>>) -> Result<T> {
    handle
        .join()
        .map_err(|_| ColeError::InvalidState("run-build worker thread panicked".into()))?
}

/// Streaming builder of a run: the caller pushes key–value pairs in key
/// order; the value, index and Merkle files and the Bloom filter are built
/// concurrently (Algorithm 1 lines 5–6, Algorithms 3 and 4).
///
/// The Merkle file is written without its leaf layer
/// ([`LeafLayer::Derived`]) and the metadata as v3 (see [`RunMeta`]): every
/// leaf is the hash of the value-file entry at its position, which a proof
/// recomputes from the value page it reads anyway.
///
/// With [`ColeConfig::parallel_run_builds`] (the default) and a run of at
/// least a thousand entries, the learned index and the Merkle file are built
/// on two worker threads fed batches of the sorted entry stream, overlapping
/// their hashing and model training with the caller's value-file writes and
/// — during a flush or merge — with the k-way merge producing the stream.
#[derive(Debug)]
pub struct RunBuilder {
    dir: PathBuf,
    id: RunId,
    expected_entries: u64,
    mht_fanout: u64,
    merkle_leaves: LeafLayer,
    value_writer: PageWriter,
    side: SideBuilders,
    bloom: BloomFilter,
    count: u64,
    last_key: Option<CompoundKey>,
    ctx: RunContext,
}

impl RunBuilder {
    /// Creates a builder for run `id` holding exactly `expected_entries`
    /// pairs. The finished run reads through `ctx`'s cache and reports into
    /// its metrics.
    ///
    /// # Errors
    ///
    /// Returns an error if any of the run's files cannot be created.
    pub fn create(
        dir: &Path,
        id: RunId,
        expected_entries: u64,
        config: &ColeConfig,
        ctx: RunContext,
    ) -> Result<Self> {
        Self::create_with_leaf_layer(dir, id, expected_entries, config, ctx, LeafLayer::Derived)
    }

    /// [`RunBuilder::create`] with the Merkle file's leaf layer chosen:
    /// `Stored` writes the v2 format earlier releases wrote, which tests
    /// build to check that such runs still open, prove and merge.
    fn create_with_leaf_layer(
        dir: &Path,
        id: RunId,
        expected_entries: u64,
        config: &ColeConfig,
        ctx: RunContext,
        merkle_leaves: LeafLayer,
    ) -> Result<Self> {
        if expected_entries == 0 {
            return Err(ColeError::InvalidState(
                "a run must contain at least one entry".into(),
            ));
        }
        std::fs::create_dir_all(dir)?;
        let index = IndexFileBuilder::create(index_path(dir, id), config.epsilon)?;
        let merkle = MerkleFileBuilder::create_with_leaf_layer(
            merkle_path(dir, id),
            expected_entries,
            config.mht_fanout,
            merkle_leaves,
        )?;
        let side = if config.parallel_run_builds && expected_entries >= PARALLEL_BUILD_MIN_ENTRIES {
            SideBuilders::pipelined(index, merkle)
        } else {
            SideBuilders::Inline {
                index: Box::new(index),
                merkle: Box::new(merkle),
            }
        };
        Ok(RunBuilder {
            dir: dir.to_path_buf(),
            id,
            expected_entries,
            mht_fanout: config.mht_fanout,
            merkle_leaves,
            value_writer: PageWriter::create(value_path(dir, id), ENTRY_LEN)?,
            side,
            bloom: BloomFilter::with_capacity(expected_entries as usize, config.bloom_fpr),
            count: 0,
            last_key: None,
            ctx,
        })
    }

    /// Appends the next key–value pair (keys must be strictly increasing).
    ///
    /// # Errors
    ///
    /// Returns an error if keys are out of order, the declared size is
    /// exceeded, or a write fails.
    pub fn push(&mut self, key: CompoundKey, value: StateValue) -> Result<()> {
        if let Some(last) = self.last_key {
            if key <= last {
                return Err(ColeError::InvalidState(format!(
                    "run entries must be strictly increasing: {key:?} after {last:?}"
                )));
            }
        }
        if self.count >= self.expected_entries {
            return Err(ColeError::InvalidState(format!(
                "run {} already holds the declared {} entries",
                self.id, self.expected_entries
            )));
        }
        let position = self.count;
        self.value_writer.push(&encode_entry(&key, &value))?;
        let batch_full = match &mut self.side {
            SideBuilders::Inline { index, merkle } => {
                index.push(key, position)?;
                merkle.push_leaf(hash_entry(&key, &value))?;
                false
            }
            SideBuilders::Pipelined(pipeline) => {
                pipeline.batch.push((key, value));
                pipeline.batch.len() >= BUILD_BATCH_ENTRIES
            }
        };
        if batch_full {
            if let SideBuilders::Pipelined(pipeline) = &mut self.side {
                pipeline.dispatch()?;
            }
        }
        self.bloom.insert(&key.address());
        self.last_key = Some(key);
        self.count += 1;
        Ok(())
    }

    /// Number of entries pushed so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Returns `true` if no entries have been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finalizes the run: flushes and **fsyncs** all of the run's files (the
    /// value, index and Merkle files sync in their builders; the Bloom
    /// filter and metadata are written durably here), fsyncs the directory
    /// so the new files' entries survive a crash, and returns the readable
    /// [`Run`].
    ///
    /// Durability contract: once `finish` returns, every byte of the run is
    /// on stable storage — a manifest committed afterwards may reference it
    /// unconditionally. Until a manifest does, the files are orphans that
    /// recovery garbage-collects. (Pipelined workers finish — and fsync —
    /// their files before this method proceeds past the join.)
    ///
    /// # Errors
    ///
    /// Returns an error if fewer entries than declared were pushed or a
    /// write fails.
    pub fn finish(self) -> Result<Run> {
        if self.count != self.expected_entries {
            // Drain the pipeline before reporting, so worker threads never
            // outlive the builder.
            let _ = self.side.finish();
            return Err(ColeError::InvalidState(format!(
                "run {} received {} of {} declared entries",
                self.id, self.count, self.expected_entries
            )));
        }
        let mut value_file = self.value_writer.finish()?;
        let (mut index, mut merkle) = self.side.finish()?;
        attach_run_io(&self.ctx, &mut value_file, &mut index, &mut merkle);
        self.ctx.kill("run:files_synced")?;
        let bloom_ser = self.bloom.to_bytes();
        write_durable(bloom_path(&self.dir, self.id), &bloom_ser)?;
        self.ctx.kill("run:bloom_written")?;

        let bloom = RunBloom::loaded(bloom_path(&self.dir, self.id), self.bloom, &bloom_ser);
        let meta = RunMeta {
            id: self.id,
            num_entries: self.count,
            mht_fanout: self.mht_fanout,
            epsilon: index.epsilon(),
            index_layer_counts: index.layer_counts().to_vec(),
            merkle_root: merkle.root(),
            bloom_digest: bloom.digest,
            merkle_leaves: self.merkle_leaves,
        };
        meta.write(&meta_path(&self.dir, self.id))?;
        self.ctx.kill("run:meta_written")?;
        sync_dir(&self.dir)?;
        self.ctx.kill("run:dir_synced")?;

        Run::assemble(self.dir, meta, value_file, index, merkle, bloom)
    }
}

impl SideBuilders {
    /// Spawns the two worker threads and wires their bounded batch queues.
    fn pipelined(index: IndexFileBuilder, merkle: MerkleFileBuilder) -> Self {
        let (index_tx, index_rx): (SyncSender<BuildBatch>, Receiver<BuildBatch>) =
            sync_channel(BUILD_QUEUE_BATCHES);
        let (merkle_tx, merkle_rx): (SyncSender<BuildBatch>, Receiver<BuildBatch>) =
            sync_channel(BUILD_QUEUE_BATCHES);
        let index_thread = std::thread::spawn(move || -> Result<LearnedIndexFile> {
            let mut index = index;
            let mut position = 0u64;
            while let Ok(batch) = index_rx.recv() {
                for (key, _) in batch.iter() {
                    index.push(*key, position)?;
                    position += 1;
                }
            }
            index.finish()
        });
        let merkle_thread = std::thread::spawn(move || -> Result<MerkleFile> {
            let mut merkle = merkle;
            while let Ok(batch) = merkle_rx.recv() {
                for (key, value) in batch.iter() {
                    merkle.push_leaf(hash_entry(key, value))?;
                }
            }
            merkle.finish()
        });
        SideBuilders::Pipelined(Pipeline {
            batch: Vec::with_capacity(BUILD_BATCH_ENTRIES),
            index_tx: Some(index_tx),
            merkle_tx: Some(merkle_tx),
            index_thread: Some(index_thread),
            merkle_thread: Some(merkle_thread),
        })
    }

    /// Completes both side files: the tail batch is shipped, the queues are
    /// closed and the workers joined (inline builders just finish in place).
    fn finish(self) -> Result<(LearnedIndexFile, MerkleFile)> {
        match self {
            SideBuilders::Inline { index, merkle } => Ok((index.finish()?, merkle.finish()?)),
            SideBuilders::Pipelined(mut pipeline) => {
                // A failed tail dispatch already joined the workers and
                // carries the root cause.
                pipeline.dispatch()?;
                // Closing the channels ends the workers' recv loops.
                pipeline.index_tx = None;
                pipeline.merkle_tx = None;
                let join = |err: &str| ColeError::InvalidState(err.into());
                let index = pipeline
                    .index_thread
                    .take()
                    .ok_or_else(|| join("index worker already joined"))
                    .and_then(join_worker);
                let merkle = pipeline
                    .merkle_thread
                    .take()
                    .ok_or_else(|| join("merkle worker already joined"))
                    .and_then(join_worker);
                Ok((index?, merkle?))
            }
        }
    }
}

/// Magic bytes opening every run-metadata file.
const META_MAGIC: [u8; 4] = *b"CRUN";
/// Metadata version of runs whose Merkle file stores its leaf layer.
const META_V2: u32 = 2;
/// Metadata version of runs whose Merkle file starts at layer 1; the file
/// ends with a SHA-256 of the bytes before it.
const META_V3: u32 = 3;

/// Persistent metadata of a run, stored next to its files so the run can be
/// reopened after a restart.
///
/// Encoding (little-endian): `"CRUN"`, `version: u32`, `id`,
/// `num_entries`, `mht_fanout`, `epsilon: u64`, `layers: u32` and that many
/// `u64` model counts, `merkle_root`, `bloom_digest`; v3 then appends the
/// SHA-256 of all of that. The version says which leaf layer the Merkle file
/// has: v2 stores it, v3 derives it. Decoding is strict: anything but v2 or
/// v3, a truncated field, a count the bytes cannot hold, trailing bytes or
/// (v3) a checksum mismatch is [`ColeError::InvalidEncoding`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunMeta {
    /// Run identifier.
    pub id: RunId,
    /// Number of key–value pairs in the value file.
    pub num_entries: u64,
    /// MHT fanout used for the Merkle file.
    pub mht_fanout: u64,
    /// Learned-model error bound.
    pub epsilon: u64,
    /// Models per layer of the index file, bottom layer first.
    pub index_layer_counts: Vec<u64>,
    /// Root digest of the Merkle file.
    pub merkle_root: Digest,
    /// Digest of the serialized Bloom filter. Having it in the metadata lets
    /// [`Run::open`] compute the run commitment without reading or decoding
    /// the filter file — the filter loads lazily on the first query that
    /// needs it.
    pub bloom_digest: Digest,
    /// Whether the Merkle file stores its leaf layer (v2) or not (v3).
    pub merkle_leaves: LeafLayer,
}

impl RunMeta {
    fn write(&self, path: &Path) -> Result<()> {
        write_durable(path, &self.encode())?;
        Ok(())
    }

    fn encode(&self) -> Vec<u8> {
        let version = match self.merkle_leaves {
            LeafLayer::Stored => META_V2,
            LeafLayer::Derived => META_V3,
        };
        let mut out = Vec::new();
        out.extend_from_slice(&META_MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.num_entries.to_le_bytes());
        out.extend_from_slice(&self.mht_fanout.to_le_bytes());
        out.extend_from_slice(&self.epsilon.to_le_bytes());
        out.extend_from_slice(&(self.index_layer_counts.len() as u32).to_le_bytes());
        for &c in &self.index_layer_counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(self.merkle_root.as_bytes());
        out.extend_from_slice(self.bloom_digest.as_bytes());
        if version == META_V3 {
            let checksum = sha256(&out);
            out.extend_from_slice(checksum.as_bytes());
        }
        out
    }

    fn read(path: &Path) -> Result<Self> {
        Self::decode(&std::fs::read(path)?)
    }

    fn decode(bytes: &[u8]) -> Result<Self> {
        let invalid = |what: String| ColeError::InvalidEncoding(format!("run metadata {what}"));
        let mut header = MetaReader { rest: bytes };
        if header.take::<4>()? != META_MAGIC {
            return Err(invalid("has no CRUN magic".into()));
        }
        let (merkle_leaves, body) = match header.u32()? {
            META_V2 => (LeafLayer::Stored, bytes),
            META_V3 => {
                let (body, checksum) = bytes
                    .split_last_chunk::<DIGEST_LEN>()
                    .ok_or_else(|| invalid("is truncated".into()))?;
                if sha256(body).as_bytes() != checksum {
                    return Err(invalid("fails its checksum".into()));
                }
                (LeafLayer::Derived, body)
            }
            version => return Err(invalid(format!("version {version} is not supported"))),
        };
        let mut fields = MetaReader { rest: body };
        fields.take::<8>()?; // magic and version, checked above
        let id = fields.u64()?;
        let num_entries = fields.u64()?;
        let mht_fanout = fields.u64()?;
        let epsilon = fields.u64()?;
        let layer_count = fields.u32()? as usize;
        let mut index_layer_counts =
            Vec::with_capacity(check_claim(layer_count, fields.rest.len(), 8)?);
        for _ in 0..layer_count {
            index_layer_counts.push(fields.u64()?);
        }
        let merkle_root = fields.digest()?;
        let bloom_digest = fields.digest()?;
        if !fields.rest.is_empty() {
            return Err(invalid(format!("has {} trailing bytes", fields.rest.len())));
        }
        Ok(RunMeta {
            id,
            num_entries,
            mht_fanout,
            epsilon,
            index_layer_counts,
            merkle_root,
            bloom_digest,
            merkle_leaves,
        })
    }
}

/// A bounds-checked reader over run-metadata bytes: a field that does not
/// fit the remaining bytes is [`ColeError::InvalidEncoding`], never a panic.
struct MetaReader<'a> {
    rest: &'a [u8],
}

impl MetaReader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| ColeError::InvalidEncoding("run metadata is truncated".into()))?;
        self.rest = tail;
        Ok(*head)
    }

    fn u32(&mut self) -> Result<u32> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64> {
        self.take().map(u64::from_le_bytes)
    }

    fn digest(&mut self) -> Result<Digest> {
        self.take().map(Digest::new)
    }
}

/// A run's Bloom filter, decoded lazily on reopened runs.
///
/// The digest (which feeds the run commitment) comes from the metadata,
/// so [`Run::open`] only *stats* the filter file; the first
/// [`may_contain`](Run::may_contain) membership probe reads and decodes it
/// once, verifying the bytes against the trusted digest. Only the decoded
/// filter is kept — nothing serves the serialized bytes. Built runs start
/// fully loaded.
#[derive(Debug)]
struct RunBloom {
    path: PathBuf,
    /// Digest of the canonical serialization (= SHA-256 of the file bytes).
    digest: Digest,
    /// Size of the filter's bit array (file length minus the 24-byte
    /// header), known without loading.
    size_bytes: u64,
    /// The decoded filter, populated at build time or on first use.
    cell: OnceLock<BloomFilter>,
}

impl RunBloom {
    /// A freshly built filter; `ser` is its serialization, hashed for the
    /// digest.
    fn loaded(path: PathBuf, filter: BloomFilter, ser: &[u8]) -> Self {
        let digest = sha256(ser);
        let size_bytes = (ser.len() as u64).saturating_sub(24);
        let cell = OnceLock::new();
        cell.set(filter).expect("fresh cell");
        RunBloom {
            path,
            digest,
            size_bytes,
            cell,
        }
    }

    /// A filter left on disk until first use (`file_len` from a stat).
    fn lazy(path: PathBuf, digest: Digest, file_len: u64) -> Self {
        RunBloom {
            path,
            digest,
            size_bytes: file_len.saturating_sub(24),
            cell: OnceLock::new(),
        }
    }

    /// The decoded filter, loading it on first use. Concurrent first uses
    /// may both read the file; exactly one decode wins the cell.
    fn get(&self) -> Result<&BloomFilter> {
        if let Some(loaded) = self.cell.get() {
            return Ok(loaded);
        }
        let bytes = std::fs::read(&self.path).map_err(|e| {
            ColeError::Io(std::io::Error::new(
                e.kind(),
                format!("cannot load bloom filter at {}: {e}", self.path.display()),
            ))
        })?;
        if sha256(&bytes) != self.digest {
            return Err(ColeError::InvalidEncoding(format!(
                "bloom filter at {} does not match the digest committed in the run metadata",
                self.path.display()
            )));
        }
        let filter = BloomFilter::from_bytes(&bytes)?;
        let _ = self.cell.set(filter);
        Ok(self.cell.get().expect("just set"))
    }
}

/// The result of the provenance-oriented range scan of a run (§6.2): the
/// contiguous slice of the value file that brackets the query range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunRangeScan {
    /// Position of the first entry included in the scan.
    pub first_pos: u64,
    /// Position of the last entry included in the scan.
    pub last_pos: u64,
    /// The entries at positions `first_pos..=last_pos`.
    pub entries: Vec<(CompoundKey, StateValue)>,
}

/// An immutable on-disk sorted run.
#[derive(Debug)]
pub struct Run {
    dir: PathBuf,
    meta: RunMeta,
    value_file: PageFile,
    index: LearnedIndexFile,
    merkle: MerkleFile,
    /// The run's Bloom filter; reopened runs defer the file read and decode
    /// to the first query that needs the bits.
    bloom: RunBloom,
    commitment: Digest,
}

impl Run {
    fn assemble(
        dir: PathBuf,
        meta: RunMeta,
        value_file: PageFile,
        index: LearnedIndexFile,
        merkle: MerkleFile,
        bloom: RunBloom,
    ) -> Result<Self> {
        let commitment = hash_pair(&merkle.root(), &bloom.digest);
        Ok(Run {
            dir,
            meta,
            value_file,
            index,
            merkle,
            bloom,
            commitment,
        })
    }

    /// Reopens a run from its on-disk files and metadata, wiring its reads
    /// into `ctx`'s cache and metrics.
    ///
    /// The Bloom filter is *not* decoded here: the metadata carries its
    /// digest, so the commitment is computed immediately and the filter
    /// bits load lazily on the first query that consults them — reopening a
    /// store with hundreds of runs stats each filter file instead of
    /// reading and hashing them all up front. The metadata version says
    /// whether the Merkle file stores its leaf layer (v2) or not (v3); both
    /// open, prove and merge alike.
    ///
    /// # Errors
    ///
    /// Returns [`ColeError::NotFound`] naming the run id and file when one
    /// of the run's files is missing, and an error carrying the same
    /// context when a file is corrupt — recovery surfaces *which* run broke
    /// instead of a bare I/O error.
    pub fn open(dir: &Path, id: RunId, ctx: RunContext) -> Result<Self> {
        let context = |what: &str, path: &Path| {
            let what = what.to_string();
            let path = path.display().to_string();
            move |e: ColeError| match e {
                ColeError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => {
                    ColeError::NotFound(format!("run {id}: missing {what} file at {path}"))
                }
                // Transient/environmental I/O failures (EACCES, EIO, …) stay
                // I/O errors — only decode failures are corruption.
                ColeError::Io(io) => ColeError::Io(std::io::Error::new(
                    io.kind(),
                    format!("run {id}: cannot open {what} file at {path}: {io}"),
                )),
                other => ColeError::InvalidEncoding(format!(
                    "run {id}: cannot open {what} file at {path}: {other}"
                )),
            }
        };
        let path = meta_path(dir, id);
        let meta = RunMeta::read(&path).map_err(context("meta", &path))?;
        let path = value_path(dir, id);
        let mut value_file = PageFile::open(&path).map_err(context("value", &path))?;
        let path = index_path(dir, id);
        let mut index =
            LearnedIndexFile::open(&path, meta.index_layer_counts.clone(), meta.epsilon)
                .map_err(context("index", &path))?;
        let path = merkle_path(dir, id);
        let mut merkle = MerkleFile::open_with_leaf_layer(
            &path,
            meta.num_entries,
            meta.mht_fanout,
            meta.merkle_leaves,
        )
        .map_err(context("merkle", &path))?;
        attach_run_io(&ctx, &mut value_file, &mut index, &mut merkle);
        if merkle.root() != meta.merkle_root {
            return Err(ColeError::InvalidState(format!(
                "merkle root mismatch while reopening run {id}"
            )));
        }
        // Stat only: a missing filter file still fails the open loudly, but
        // the read + decode waits for the first use.
        let path = bloom_path(dir, id);
        let file_len = std::fs::metadata(&path)
            .map_err(ColeError::from)
            .map_err(context("bloom", &path))?
            .len();
        let bloom = RunBloom::lazy(path, meta.bloom_digest, file_len);
        Run::assemble(dir.to_path_buf(), meta, value_file, index, merkle, bloom)
    }

    /// The run identifier.
    #[must_use]
    pub fn id(&self) -> RunId {
        self.meta.id
    }

    /// Number of key–value pairs stored.
    #[must_use]
    pub fn num_entries(&self) -> u64 {
        self.meta.num_entries
    }

    /// The run's commitment `h(merkle_root ‖ bloom_digest)`, the entry that
    /// represents this run in `root_hash_list`.
    #[must_use]
    pub fn commitment(&self) -> Digest {
        self.commitment
    }

    /// Root digest of the run's Merkle file.
    #[must_use]
    pub fn merkle_root(&self) -> Digest {
        self.merkle.root()
    }

    /// Digest of the run's Bloom filter (known without decoding it).
    #[must_use]
    pub fn bloom_digest(&self) -> Digest {
        self.bloom.digest
    }

    /// Returns `true` if the Bloom filter admits that the address `probe`
    /// was hashed from may be present, loading the filter on first use. A
    /// lookup hashes the address once and probes every run with it.
    ///
    /// # Errors
    ///
    /// Returns an error if a lazily-deferred filter cannot be loaded or
    /// fails its digest check.
    pub fn may_contain(&self, probe: &BloomProbe) -> Result<bool> {
        Ok(self.bloom.get()?.contains_probe(probe))
    }

    /// Returns `true` if the Bloom filter has been decoded (at build time,
    /// or by a query since open).
    #[must_use]
    pub fn bloom_loaded(&self) -> bool {
        self.bloom.cell.get().is_some()
    }

    /// Bytes of state data (value file).
    #[must_use]
    pub fn data_bytes(&self) -> u64 {
        self.value_file.len_bytes()
    }

    /// Bytes of index overhead (index file + the Merkle file's stored layers
    /// + Bloom filter).
    #[must_use]
    pub fn index_bytes(&self) -> u64 {
        self.index.size_bytes() + self.merkle.size_bytes() + self.bloom.size_bytes
    }

    /// Reads the entry at `position`, fetching its page and decoding just
    /// that entry.
    ///
    /// This is the per-entry primitive; the key-addressed paths
    /// ([`position_le`](Run::position_le), [`get_latest`](Run::get_latest),
    /// [`range_with_proof`](Run::range_with_proof)) find their entries by
    /// searching the value pages in place instead.
    ///
    /// # Errors
    ///
    /// Returns an error if `position` is out of bounds or the read fails.
    pub fn entry_at(&self, position: u64) -> Result<(CompoundKey, StateValue)> {
        if position >= self.meta.num_entries {
            return Err(ColeError::NotFound(format!(
                "entry {position} out of bounds ({} entries)",
                self.meta.num_entries
            )));
        }
        let page = self
            .value_file
            .read_page(position / ENTRIES_PER_PAGE as u64)?;
        decode_entry(entry_bytes(&page, position))
    }

    /// Finds the last entry whose key is `≤ key` (Algorithm 7), the search
    /// step Algorithms 6 and 8 share. The learned index predicts a position
    /// within ε, and the value pages around it are searched in place
    /// ([`PageFile::locate`]): the query's 28-byte big-endian key is
    /// compared with each probed entry's key prefix on the cached page
    /// bytes, no entry is decoded, and the ε backstop steps to a neighbouring
    /// page only when the predicted page's first or last key says the answer
    /// lies there.
    ///
    /// Returns the entry's position (`None` if every entry is larger) and
    /// the raw value page holding it (page 0 when `None`).
    fn locate(&self, key: &CompoundKey) -> Result<(Option<u64>, Arc<[u8]>)> {
        let predicted = self
            .index
            .find_bottom_model(key)?
            .map_or(0, |model| model.predict(KeyNum::from(key)));
        let entries = SortedRecords {
            first_page: 0,
            len: self.meta.num_entries,
            record_len: ENTRY_LEN,
            key_offset: 0,
        };
        self.value_file.locate(&entries, &key.to_bytes(), predicted)
    }

    /// Finds the position of the last entry whose key is `≤ key`, using the
    /// learned index and an in-place search of the value pages around its
    /// prediction (Algorithm 7). Returns `None` if every entry is larger.
    ///
    /// # Errors
    ///
    /// Returns an error if a file read fails.
    pub fn position_le(&self, key: &CompoundKey) -> Result<Option<u64>> {
        Ok(self.locate(key)?.0)
    }

    /// Returns the latest value of `addr` stored in this run, if any
    /// (Algorithm 6's per-run step: search with `⟨addr, max_int⟩`).
    ///
    /// The search runs on the cached value-page bytes; the located entry's
    /// address bytes are compared with `addr` in place, and only a match is
    /// decoded.
    ///
    /// # Errors
    ///
    /// Returns an error if a file read fails.
    pub fn get_latest(&self, addr: &Address) -> Result<Option<(CompoundKey, StateValue)>> {
        let (Some(pos), page) = self.locate(&CompoundKey::latest(*addr))? else {
            return Ok(None);
        };
        let entry = entry_bytes(&page, pos);
        if entry[..ADDRESS_LEN] != addr.as_bytes()[..] {
            return Ok(None);
        }
        decode_entry(entry).map(Some)
    }

    /// Scans the value file for the provenance range `[lower, upper]`
    /// (Algorithm 8 lines 13–17) and proves the scanned slice against the
    /// run's Merkle root. The scan starts at the last entry `≤ lower` (or the
    /// beginning of the run) and stops at the first entry `> upper` (which is
    /// included as the right boundary witness).
    ///
    /// The start is found by the same in-place search as
    /// [`get_latest`](Run::get_latest), which hands over the raw page it
    /// ends on; the scan decodes only the entries from there to the first
    /// key above `upper`, fetching each further page once.
    ///
    /// The proof's leaf-layer siblings — at most `m − 1` entries on each
    /// side of the slice — are rehashed from the first and last raw pages
    /// the scan holds, so a run whose Merkle file has no leaf layer proves
    /// exactly what a stored-leaf one does, with one Merkle page fewer. Only
    /// when a fanout-`m` group straddles a value page, which needs
    /// `m ∤ 68`, is a neighbouring page read (through the page cache).
    ///
    /// # Errors
    ///
    /// Returns an error if a file read fails.
    pub fn range_with_proof(
        &self,
        lower: &CompoundKey,
        upper: &CompoundKey,
    ) -> Result<(RunRangeScan, RangeProof)> {
        let (start, mut page) = self.locate(lower)?;
        let first_pos = start.unwrap_or(0);
        let mut page_id = first_pos / ENTRIES_PER_PAGE as u64;
        let first_page = (page_id, Arc::clone(&page));
        let mut entries = Vec::new();
        let mut pos = first_pos;
        loop {
            let (key, value) = decode_entry(entry_bytes(&page, pos))?;
            entries.push((key, value));
            if key > *upper || pos + 1 == self.meta.num_entries {
                break;
            }
            pos += 1;
            if pos % ENTRIES_PER_PAGE as u64 == 0 {
                page_id += 1;
                page = self.value_file.read_page(page_id)?;
            }
        }
        let last_pos = pos;
        let edges = [first_page, (page_id, page)];
        let proof = self
            .merkle
            .range_proof_with(first_pos, last_pos, |position| {
                let page_id = position / ENTRIES_PER_PAGE as u64;
                let page = match edges.iter().find(|(id, _)| *id == page_id) {
                    Some((_, page)) => Arc::clone(page),
                    None => self.value_file.read_page(page_id)?,
                };
                let (key, value) = decode_entry(entry_bytes(&page, position))?;
                Ok(hash_entry(&key, &value))
            })?;
        let scan = RunRangeScan {
            first_pos,
            last_pos,
            entries,
        };
        Ok((scan, proof))
    }

    /// Returns an iterator over all entries in key order, reading the value
    /// file sequentially through a dedicated file handle (safe to use from a
    /// background merge thread while queries keep using this `Run`).
    ///
    /// # Errors
    ///
    /// Returns an error if the value file cannot be reopened.
    pub fn iter_entries(&self) -> Result<RunEntryIter> {
        RunEntryIter::open(&value_path(&self.dir, self.meta.id), self.meta.num_entries)
    }

    /// Deletes the run's files from disk. Call only after the run has been
    /// removed from every level (obsolete runs after a merge commit) *and*
    /// no published snapshot pins it: the engine routes every superseded
    /// run through its `retired` queue, and
    /// [`reclaim`](crate::Engine::reclaim) calls this only once the engine
    /// holds the run's last `Arc` (`strong_count == 1`). A crash
    /// between retire and deletion is safe — the committed manifest stopped
    /// referencing the run at merge time, so orphan GC removes the files on
    /// the next open.
    ///
    /// # Errors
    ///
    /// Returns an error if a file cannot be removed.
    pub fn delete_files(&self) -> Result<()> {
        // Drop cached pages first — for all three cached files — so the
        // shared cache can never serve pages of a deleted run (file ids are
        // unique, but eager invalidation also frees the memory immediately).
        self.value_file.invalidate_cached_pages();
        self.index.invalidate_cached_pages();
        self.merkle.invalidate_cached_pages();
        for path in [
            value_path(&self.dir, self.meta.id),
            index_path(&self.dir, self.meta.id),
            merkle_path(&self.dir, self.meta.id),
            bloom_path(&self.dir, self.meta.id),
            meta_path(&self.dir, self.meta.id),
        ] {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

/// A sequential reader over a run's value file with its own file handle.
#[derive(Debug)]
pub struct RunEntryIter {
    reader: BufReader<File>,
    remaining: u64,
    slot_in_page: usize,
}

impl RunEntryIter {
    fn open(path: &Path, num_entries: u64) -> Result<Self> {
        Ok(RunEntryIter {
            reader: BufReader::with_capacity(PAGE_SIZE * 4, File::open(path)?),
            remaining: num_entries,
            slot_in_page: 0,
        })
    }

    /// Reads the next entry, or `None` at the end of the run.
    ///
    /// # Errors
    ///
    /// Returns an error if the underlying read fails.
    pub fn next_entry(&mut self) -> Result<Option<(CompoundKey, StateValue)>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        // Skip the zero padding at the end of a page.
        if self.slot_in_page == ENTRIES_PER_PAGE {
            let mut pad = [0u8; PAGE_SIZE - ENTRIES_PER_PAGE * ENTRY_LEN];
            self.reader.read_exact(&mut pad)?;
            self.slot_in_page = 0;
        }
        let mut buf = [0u8; ENTRY_LEN];
        self.reader.read_exact(&mut buf)?;
        self.slot_in_page += 1;
        self.remaining -= 1;
        Ok(Some(decode_entry(&buf)?))
    }
}

impl Iterator for RunEntryIter {
    type Item = Result<(CompoundKey, StateValue)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_entry().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cole-run-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn key(addr: u64, blk: u64) -> CompoundKey {
        CompoundKey::new(Address::from_low_u64(addr), blk)
    }

    fn probe(addr: u64) -> BloomProbe {
        BloomProbe::new(&Address::from_low_u64(addr))
    }

    /// Builds a run with `versions` versions for each of `addresses` addresses.
    fn build_run(dir: &Path, addresses: u64, versions: u64) -> Run {
        let config = ColeConfig::default();
        let n = addresses * versions;
        let mut builder = RunBuilder::create(dir, 1, n, &config, RunContext::default()).unwrap();
        for addr in 0..addresses {
            for blk in 1..=versions {
                builder
                    .push(key(addr, blk), StateValue::from_u64(addr * 1000 + blk))
                    .unwrap();
            }
        }
        builder.finish().unwrap()
    }

    #[test]
    fn build_and_point_lookup() {
        let dir = tmpdir("lookup");
        let run = build_run(&dir, 50, 4);
        assert_eq!(run.num_entries(), 200);
        for addr in 0..50u64 {
            let (k, v) = run
                .get_latest(&Address::from_low_u64(addr))
                .unwrap()
                .unwrap();
            assert_eq!(k.block_height(), 4);
            assert_eq!(v.as_u64(), addr * 1000 + 4);
        }
        assert!(run
            .get_latest(&Address::from_low_u64(999))
            .unwrap()
            .is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn position_le_matches_linear_scan() {
        let dir = tmpdir("poslle");
        let run = build_run(&dir, 80, 3);
        let mut all = Vec::new();
        let mut iter = run.iter_entries().unwrap();
        while let Some(e) = iter.next_entry().unwrap() {
            all.push(e);
        }
        assert_eq!(all.len(), 240);
        for probe in [
            key(0, 0),
            key(0, 2),
            key(10, 3),
            key(40, 99),
            key(79, 3),
            key(200, 0),
        ] {
            let expected = all.iter().rposition(|(k, _)| *k <= probe);
            let got = run.position_le(&probe).unwrap();
            assert_eq!(got, expected.map(|p| p as u64), "probe {probe:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn range_scan_brackets_the_query() {
        let dir = tmpdir("scan");
        let run = build_run(&dir, 20, 5);
        let addr = Address::from_low_u64(7);
        // Query versions 2..=4 of address 7.
        let lower = CompoundKey::new(addr, 1); // blk_l - 1 = 1
        let upper = CompoundKey::new(addr, 5); // blk_u + 1 = 5
        let (scan, _) = run.range_with_proof(&lower, &upper).unwrap();
        let keys: Vec<u64> = scan
            .entries
            .iter()
            .filter(|(k, _)| k.address() == addr)
            .map(|(k, _)| k.block_height())
            .collect();
        assert!(keys.contains(&2) && keys.contains(&3) && keys.contains(&4));
        // The scan includes a right-boundary witness beyond the range.
        assert!(scan.entries.last().unwrap().0 > upper || scan.last_pos == run.num_entries() - 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merkle_proof_over_scanned_range_verifies() {
        let dir = tmpdir("proof");
        let run = build_run(&dir, 30, 4);
        let addr = Address::from_low_u64(12);
        let (scan, proof) = run
            .range_with_proof(&CompoundKey::new(addr, 0), &CompoundKey::new(addr, 10))
            .unwrap();
        let leaves: Vec<Digest> = scan.entries.iter().map(|(k, v)| hash_entry(k, v)).collect();
        assert_eq!(proof.compute_root(&leaves).unwrap(), run.merkle_root());
        // The run commitment binds the bloom filter as well.
        assert_eq!(
            run.commitment(),
            hash_pair(&run.merkle_root(), &run.bloom_digest())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bloom_filter_reflects_addresses() {
        let dir = tmpdir("bloom");
        let run = build_run(&dir, 40, 2);
        for addr in 0..40u64 {
            assert!(run.may_contain(&probe(addr)).unwrap());
        }
        let misses = (1000..2000u64)
            .filter(|&a| run.may_contain(&probe(a)).unwrap())
            .count();
        assert!(
            misses < 100,
            "bloom filter should reject most absent addresses"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopened_runs_defer_the_bloom_decode_until_first_use() {
        let dir = tmpdir("lazybloom");
        let run = build_run(&dir, 30, 2);
        assert!(run.bloom_loaded(), "a built run starts loaded");
        let commitment = run.commitment();
        drop(run);
        let reopened = Run::open(&dir, 1, RunContext::default()).unwrap();
        assert!(
            !reopened.bloom_loaded(),
            "open must not decode the filter (the meta carries its digest)"
        );
        // The commitment is available without the filter bits.
        assert_eq!(reopened.commitment(), commitment);
        // First membership probe loads the filter, checked against the
        // digest the metadata committed to (that of the file bytes).
        assert!(reopened.may_contain(&probe(3)).unwrap());
        assert!(reopened.bloom_loaded());
        assert_eq!(
            sha256(&std::fs::read(dir.join("run_00000001.blm")).unwrap()),
            reopened.bloom_digest()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_bloom_file_fails_the_lazy_digest_check() {
        let dir = tmpdir("tamperbloom");
        let run = build_run(&dir, 20, 2);
        drop(run);
        let path = dir.join("run_00000001.blm");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        // Open succeeds (the filter is deferred)…
        let reopened = Run::open(&dir, 1, RunContext::default()).unwrap();
        // …but the first use detects the corruption instead of silently
        // serving wrong membership answers.
        let err = reopened.may_contain(&probe(1)).unwrap_err();
        assert!(err.to_string().contains("digest"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_bloom_file_still_fails_open() {
        let dir = tmpdir("noblm");
        let run = build_run(&dir, 10, 2);
        drop(run);
        std::fs::remove_file(dir.join("run_00000001.blm")).unwrap();
        let err = Run::open(&dir, 1, RunContext::default()).unwrap_err();
        assert!(matches!(err, ColeError::NotFound(_)), "{err}");
        assert!(err.to_string().contains(".blm"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_and_inline_builds_produce_identical_files() {
        let dir_inline = tmpdir("inlinebuild");
        let dir_parallel = tmpdir("parbuild");
        // Enough entries to clear PARALLEL_BUILD_MIN_ENTRIES and span many
        // batches, with a non-multiple of the batch size as the tail.
        let n = (PARALLEL_BUILD_MIN_ENTRIES as usize) * 2 + 137;
        let entries: Vec<(CompoundKey, StateValue)> = (0..n as u64)
            .map(|i| (key(i / 3, i % 3 + 1), StateValue::from_u64(i * 7)))
            .collect();
        let serial_config = ColeConfig::default().with_parallel_run_builds(false);
        let parallel_config = ColeConfig::default();
        let build = |dir: &Path, config: &ColeConfig| {
            let mut builder =
                RunBuilder::create(dir, 1, n as u64, config, RunContext::default()).unwrap();
            for (k, v) in &entries {
                builder.push(*k, *v).unwrap();
            }
            builder.finish().unwrap()
        };
        let inline = build(&dir_inline, &serial_config);
        let parallel = build(&dir_parallel, &parallel_config);
        assert_eq!(inline.commitment(), parallel.commitment());
        for ext in ["val", "idx", "mrk", "blm", "meta"] {
            let a = std::fs::read(dir_inline.join(format!("run_00000001.{ext}"))).unwrap();
            let b = std::fs::read(dir_parallel.join(format!("run_00000001.{ext}"))).unwrap();
            assert_eq!(a, b, "pipelined build diverged in .{ext}");
        }
        std::fs::remove_dir_all(&dir_inline).ok();
        std::fs::remove_dir_all(&dir_parallel).ok();
    }

    #[test]
    fn pipelined_build_reports_underfill_errors() {
        let dir = tmpdir("parunderfill");
        let config = ColeConfig::default();
        let n = PARALLEL_BUILD_MIN_ENTRIES + 50;
        let mut builder = RunBuilder::create(&dir, 7, n, &config, RunContext::default()).unwrap();
        for i in 0..PARALLEL_BUILD_MIN_ENTRIES {
            builder.push(key(i, 1), StateValue::from_u64(i)).unwrap();
        }
        // Fewer entries than declared: finish must fail cleanly (and join
        // its workers) instead of hanging or leaking threads.
        assert!(builder.finish().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_run_from_disk() {
        let dir = tmpdir("reopen");
        let run = build_run(&dir, 25, 3);
        let commitment = run.commitment();
        drop(run);
        let reopened = Run::open(&dir, 1, RunContext::default()).unwrap();
        assert_eq!(reopened.commitment(), commitment);
        assert_eq!(reopened.num_entries(), 75);
        let (k, _) = reopened
            .get_latest(&Address::from_low_u64(10))
            .unwrap()
            .unwrap();
        assert_eq!(k.block_height(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_failures_name_the_run_and_file() {
        let dir = tmpdir("openctx");
        let run = build_run(&dir, 10, 2);
        drop(run);
        // Missing value file → NotFound naming the run id and the file.
        std::fs::remove_file(dir.join("run_00000001.val")).unwrap();
        let err = Run::open(&dir, 1, RunContext::default()).unwrap_err();
        assert!(matches!(err, ColeError::NotFound(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("run 1") && msg.contains(".val"), "{msg}");
        // Corrupt meta file → an error that still names the run.
        std::fs::write(dir.join("run_00000001.meta"), b"garbage").unwrap();
        let err = Run::open(&dir, 1, RunContext::default()).unwrap_err();
        assert!(!matches!(err, ColeError::NotFound(_)), "{err}");
        assert!(err.to_string().contains("run 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_files_removes_everything() {
        let dir = tmpdir("delete");
        let run = build_run(&dir, 5, 2);
        assert!(cole_storage::dir_size(&dir).unwrap() > 0);
        run.delete_files().unwrap();
        assert_eq!(cole_storage::dir_size(&dir).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn builder_rejects_misuse() {
        let dir = tmpdir("misuse");
        let config = ColeConfig::default();
        assert!(RunBuilder::create(&dir, 9, 0, &config, RunContext::default()).is_err());
        let mut b = RunBuilder::create(&dir, 9, 3, &config, RunContext::default()).unwrap();
        b.push(key(2, 1), StateValue::from_u64(1)).unwrap();
        // Out-of-order key.
        assert!(b.push(key(1, 1), StateValue::from_u64(2)).is_err());
        b.push(key(2, 5), StateValue::from_u64(2)).unwrap();
        // Too few entries at finish.
        assert!(b.finish().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn entry_iter_streams_in_order() {
        let dir = tmpdir("iter");
        let run = build_run(&dir, 70, 2);
        let entries: Vec<_> = run.iter_entries().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(entries.len(), 140);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_runs_hit_on_repeated_lookups() {
        let dir = tmpdir("cachehits");
        let cache = Arc::new(cole_storage::PageCache::new(256));
        let ctx = RunContext::new(Some(Arc::clone(&cache)), Arc::default());
        let config = ColeConfig::default();
        let mut builder = RunBuilder::create(&dir, 1, 100, &config, ctx.clone()).unwrap();
        for addr in 0..100u64 {
            builder
                .push(key(addr, 1), StateValue::from_u64(addr))
                .unwrap();
        }
        let run = builder.finish().unwrap();
        for _ in 0..3 {
            for addr in [3u64, 50, 97] {
                let (_, v) = run
                    .get_latest(&Address::from_low_u64(addr))
                    .unwrap()
                    .unwrap();
                assert_eq!(v.as_u64(), addr);
            }
        }
        assert!(cache.hits() > 0, "repeated lookups must hit the cache");
        let m = ctx.metrics.snapshot();
        assert_eq!(
            m.pages_read,
            cache.hits() + cache.misses(),
            "every logical page read (any kind) goes through the cache"
        );
        assert!(m.value_pages_read > 0, "lookups must read value pages");
        assert!(m.index_pages_read > 0, "lookups must read index pages");
        assert!(
            m.index_cache_hits > 0,
            "repeated descents must hit cached index pages"
        );
        // Proof construction reads (and caches) Merkle pages too.
        let upper = CompoundKey::new(Address::from_low_u64(12), 9);
        run.range_with_proof(&key(10, 0), &upper).unwrap();
        run.range_with_proof(&key(10, 0), &upper).unwrap();
        let m = ctx.metrics.snapshot();
        assert!(m.merkle_pages_read > 0, "proofs must read merkle pages");
        assert!(
            m.merkle_cache_hits > 0,
            "repeated proofs must hit cached merkle pages"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleting_a_run_never_leaves_stale_pages_in_a_shared_cache() {
        // The cache is shared across the runs of an engine; after a merge
        // deletes a run, a successor run written to the same directory (and
        // even the same run id) must never see the old run's pages.
        let dir = tmpdir("stale");
        let cache = Arc::new(cole_storage::PageCache::new(256));
        let ctx = RunContext::new(Some(Arc::clone(&cache)), Arc::default());
        let config = ColeConfig::default();

        let mut builder = RunBuilder::create(&dir, 1, 50, &config, ctx.clone()).unwrap();
        for addr in 0..50u64 {
            builder
                .push(key(addr, 1), StateValue::from_u64(addr + 1000))
                .unwrap();
        }
        let old = builder.finish().unwrap();
        // Warm the cache with all three kinds of the old run's pages: value
        // and index via lookups, Merkle via a proof.
        for addr in 0..50u64 {
            old.get_latest(&Address::from_low_u64(addr)).unwrap();
        }
        old.range_with_proof(&key(5, 0), &key(10, 0)).unwrap();
        let m = ctx.metrics.snapshot();
        assert!(
            m.value_pages_read > 0 && m.index_pages_read > 0 && m.merkle_pages_read > 0,
            "warm-up must touch every file kind: {m:?}"
        );
        assert!(!cache.is_empty());
        old.delete_files().unwrap();
        assert!(
            cache.is_empty(),
            "deletion must invalidate cached value, index and merkle pages"
        );

        // Same directory, same run id, different contents.
        let mut builder = RunBuilder::create(&dir, 1, 50, &config, ctx).unwrap();
        for addr in 0..50u64 {
            builder
                .push(key(addr, 2), StateValue::from_u64(addr + 2000))
                .unwrap();
        }
        let new = builder.finish().unwrap();
        for addr in 0..50u64 {
            let (k, v) = new
                .get_latest(&Address::from_low_u64(addr))
                .unwrap()
                .unwrap();
            assert_eq!(k.block_height(), 2);
            assert_eq!(v.as_u64(), addr + 2000, "stale page served for {addr}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_overhead_is_small_relative_to_data() {
        let dir = tmpdir("overhead");
        let run = build_run(&dir, 500, 4);
        // The Merkle file stores no leaf layer, so it is ~18% of the data
        // size (at fanout 4, one 32-byte digest per three 60-byte entries);
        // learned index and bloom are tiny. The total must stay well under
        // MPT-style multiples of the data size.
        assert!(run.index_bytes() < run.data_bytes() * 2);
        std::fs::remove_dir_all(&dir).ok();
    }
    /// Builds run `id` in `dir` from `entries` with the given Merkle leaf
    /// layer (`Stored` writes the v2 format earlier releases wrote).
    fn build_entries(
        dir: &Path,
        id: RunId,
        entries: &[(CompoundKey, StateValue)],
        config: &ColeConfig,
        leaves: LeafLayer,
    ) -> Run {
        let mut builder = RunBuilder::create_with_leaf_layer(
            dir,
            id,
            entries.len() as u64,
            config,
            RunContext::default(),
            leaves,
        )
        .unwrap();
        for (k, v) in entries {
            builder.push(*k, *v).unwrap();
        }
        builder.finish().unwrap()
    }

    fn one_version_each(n: u64) -> Vec<(CompoundKey, StateValue)> {
        (0..n)
            .map(|a| (key(a, 1), StateValue::from_u64(a * 3)))
            .collect()
    }

    /// `proof` over `scan` must verify against `run`'s root.
    fn assert_verifies(run: &Run, scan: &RunRangeScan, proof: &RangeProof) {
        let leaves: Vec<Digest> = scan.entries.iter().map(|(k, v)| hash_entry(k, v)).collect();
        assert_eq!(
            proof.compute_root(&leaves).unwrap(),
            run.merkle_root(),
            "[{}, {}]",
            scan.first_pos,
            scan.last_pos
        );
    }

    #[test]
    fn new_runs_write_v3_meta_without_a_merkle_leaf_layer() {
        let dir = tmpdir("v3meta");
        let run = build_run(&dir, 40, 2);
        assert_eq!(run.meta.merkle_leaves, LeafLayer::Derived);
        let bytes = std::fs::read(dir.join("run_00000001.meta")).unwrap();
        assert_eq!(&bytes[4..8], &META_V3.to_le_bytes());
        let (body, checksum) = bytes.split_last_chunk::<DIGEST_LEN>().unwrap();
        assert_eq!(sha256(body).as_bytes(), checksum);
        assert_eq!(RunMeta::decode(&bytes).unwrap(), run.meta);
        assert_eq!(run.merkle.layout().first_stored_layer(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_decoding_is_strict() {
        let dir = tmpdir("strictmeta");
        let run = build_run(&dir, 10, 2);
        let v3 = run.meta.encode();
        let v2 = RunMeta {
            merkle_leaves: LeafLayer::Stored,
            ..run.meta.clone()
        }
        .encode();
        assert_eq!(
            RunMeta::decode(&v2).unwrap().merkle_leaves,
            LeafLayer::Stored
        );
        assert_eq!(v2.len() + DIGEST_LEN, v3.len());
        let mut trailing = v2.clone();
        trailing.push(0);
        let mut huge_count = v2.clone();
        // The layer count sits after magic, version and four u64 fields.
        huge_count[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut v1 = v2.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        for (what, bytes) in [
            ("empty", &[][..]),
            ("truncated v2", &v2[..v2.len() - 1]),
            ("truncated v3", &v3[..v3.len() - 1]),
            ("trailing byte", &trailing[..]),
            ("forged layer count", &huge_count[..]),
            ("v1", &v1[..]),
        ] {
            match RunMeta::decode(bytes) {
                Err(ColeError::InvalidEncoding(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_bit_flip_of_v3_meta_fails_open_naming_the_run() {
        let dir = tmpdir("metaflips");
        let run = build_run(&dir, 30, 2);
        drop(run);
        let path = dir.join("run_00000001.meta");
        let honest = std::fs::read(&path).unwrap();
        for bit in 0..honest.len() * 8 {
            let mut flipped = honest.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            std::fs::write(&path, &flipped).unwrap();
            match Run::open(&dir, 1, RunContext::default()) {
                Err(ColeError::InvalidEncoding(msg)) => {
                    assert!(msg.contains("run 1"), "bit {bit}: {msg}");
                }
                Err(other) => panic!("bit {bit}: wrong error {other}"),
                Ok(_) => panic!("bit {bit}: a flipped meta file opened"),
            }
        }
        std::fs::write(&path, &honest).unwrap();
        Run::open(&dir, 1, RunContext::default()).expect("the honest file opens");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_bytes_fall_by_one_digest_per_entry_without_the_leaf_layer() {
        let dir = tmpdir("leafbytes");
        let entries = one_version_each(1000);
        let config = ColeConfig::default();
        let stored = build_entries(&dir, 1, &entries, &config, LeafLayer::Stored);
        let derived = build_entries(&dir, 2, &entries, &config, LeafLayer::Derived);
        assert_eq!(
            stored.index_bytes() - derived.index_bytes(),
            32 * stored.num_entries()
        );
        assert_eq!(stored.data_bytes(), derived.data_bytes());
        assert_eq!(stored.merkle_root(), derived.merkle_root());
        assert_eq!(stored.commitment(), derived.commitment());
        // The counter follows the file: what left the accounting left the
        // disk.
        let mrk = |id: RunId| std::fs::metadata(merkle_path(&dir, id)).unwrap().len();
        for (id, run) in [(1, &stored), (2, &derived)] {
            let size = run.merkle.size_bytes();
            assert!(size <= mrk(id) && mrk(id) < size + PAGE_SIZE as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fanout_8_proofs_straddling_a_value_page_verify() {
        // 68 entries to a page and 68 % 8 == 4: the leaf group 64..72
        // straddles pages 0 and 1, and 136..144 pages 1 and 2.
        let dir = tmpdir("straddle");
        let entries = one_version_each(300);
        let config = ColeConfig::default().with_mht_fanout(8);
        let derived = build_entries(&dir, 1, &entries, &config, LeafLayer::Derived);
        let stored = build_entries(&dir, 2, &entries, &config, LeafLayer::Stored);
        let reopened = Run::open(&dir, 1, RunContext::default()).unwrap();
        let mut straddled = 0;
        for first in (60..80).chain(128..146).chain(290..300) {
            for width in [0u64, 1, 3, 9] {
                // The scan runs from the last entry ≤ `lower` to the first
                // entry > `upper`: positions [first, first + width + 1].
                let lower = key(first, 1);
                let upper = CompoundKey::new(Address::from_low_u64(first + width), 5);
                for run in [&derived, &reopened] {
                    let (scan, proof) = run.range_with_proof(&lower, &upper).unwrap();
                    assert_eq!(scan.first_pos, first);
                    assert_verifies(run, &scan, &proof);
                    // Byte for byte what the stored leaf layer proves.
                    let expected = stored.merkle.range_proof(scan.first_pos, scan.last_pos);
                    assert_eq!(proof.to_bytes(), expected.unwrap().to_bytes());
                    let page = |pos: u64| pos / ENTRIES_PER_PAGE as u64;
                    let (lo, hi) = (scan.first_pos / 8 * 8, (scan.last_pos / 8 + 1) * 8 - 1);
                    if page(lo) != page(scan.first_pos) || page(hi.min(299)) != page(scan.last_pos)
                    {
                        straddled += 1;
                    }
                }
            }
        }
        assert!(straddled > 0, "no proven range straddled a value page");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_runs_open_prove_and_merge_next_to_v3_runs() {
        let dir = tmpdir("v2v3merge");
        let config = ColeConfig::default();
        let old: Vec<_> = (0..200)
            .map(|a| (key(a, 1), StateValue::from_u64(a)))
            .collect();
        let young: Vec<_> = (0..200)
            .map(|a| (key(a, 2), StateValue::from_u64(a + 7)))
            .collect();
        let v2 = build_entries(&dir, 1, &old, &config, LeafLayer::Stored);
        drop(v2);
        let v2 = Arc::new(Run::open(&dir, 1, RunContext::default()).unwrap());
        assert_eq!(v2.meta.merkle_leaves, LeafLayer::Stored);
        let v3 = Arc::new(build_entries(&dir, 2, &young, &config, LeafLayer::Derived));
        let probe = |run: &Run| {
            let addr = Address::from_low_u64(77);
            let (scan, proof) = run
                .range_with_proof(&CompoundKey::new(addr, 0), &CompoundKey::new(addr, 3))
                .unwrap();
            assert_verifies(run, &scan, &proof);
        };
        probe(&v2);
        probe(&v3);
        let merged = crate::merge::merge_runs(
            &dir,
            3,
            &[Arc::clone(&v3), Arc::clone(&v2)],
            &config,
            RunContext::default(),
        )
        .unwrap();
        assert_eq!(merged.meta.merkle_leaves, LeafLayer::Derived);
        assert_eq!(merged.num_entries(), 400);
        probe(&merged);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_entry_runs_keep_their_root_and_prove() {
        let dir = tmpdir("single");
        let run = build_entries(
            &dir,
            1,
            &one_version_each(1),
            &ColeConfig::default(),
            LeafLayer::Derived,
        );
        let root = run.merkle_root();
        drop(run);
        let reopened = Run::open(&dir, 1, RunContext::default()).unwrap();
        assert_eq!(reopened.merkle_root(), root);
        let (scan, proof) = reopened.range_with_proof(&key(0, 0), &key(0, 9)).unwrap();
        assert_verifies(&reopened, &scan, &proof);
        std::fs::remove_dir_all(&dir).ok();
    }
}
