//! The five named workloads and the untraced pass that measures the
//! end-to-end metrics on them. Sizes are for `--seconds 20` on a 2-core box;
//! the measured phases scale with `--seconds`, the datasets do not.
//!
//! Every workload reports every end-to-end metric. Its *primary* phase is the
//! one its rationale is about and gets most of the run; the other metrics
//! come from short secondary phases on the same data (an ingest workload
//! reads back what it wrote; a read workload ends by applying blocks), which
//! run after the primary phase and never inside it.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cole_core::{AsyncCole, Cole, ColeConfig, MetricsSnapshot};
use cole_primitives::{Address, ColeError, Digest, Result, StateValue};
use cole_protocol::{pipe_transport, Client, Message, PipeConnector, ProvResponse};
use cole_server::{serve, ServerConfig, ServerHandle, SharedEngine};
use cole_storage::WalSyncPolicy;
use cole_workloads::Block;

use crate::engine::{close_and_reopen, ingest, BenchEngine, Ingested, ReopenFacts};
use crate::env::peak_rss_mb;
use crate::json::Json;
use crate::loadgen::{
    generate, Dataset, Inputs, KeyDist, ReadGen, ReadSpec, PROV_WINDOW, TXS_PER_BLOCK,
};
use crate::model::Model;
use crate::openloop::{run_step, Ask, FrameWire, Judge, Step};
use crate::phases::{
    get_phase, prov_phase, Anchors, Embedded, Phase, ProvTargets, Reader, PROOF_SAMPLE,
};
use crate::report::Report;
use crate::stats::{median, percentile_sorted, segment_percentile, SegmentStat};

/// Blocks of a served workload's preload that go through
/// `SharedEngine::apply_block` instead of the embedded engine, so the
/// snapshot ring holds retained historical heights to query.
pub const TAIL_BLOCKS: usize = 8;
/// Arrival rates of the open-loop reader, requests per second: low, middle
/// (the gated one) and high. The high step stays below saturation at the
/// seed commit (one CPU shared with the writer, the server and its merges).
pub const RATES: [f64; 3] = [2_000.0, 4_000.0, 6_000.0];
/// Share of `--seconds` each rate step runs for.
pub const STEP_SHARES: [f64; 3] = [0.15, 0.7, 0.15];
/// The mixed workload's writer applies one block this often.
pub const BLOCK_EVERY: Duration = Duration::from_millis(5);
/// Share of open-loop reads that are verified provenance queries.
pub const PROV_SHARE: f64 = 0.1;
/// Latency limit behind `loadgen.max_rate_within_limit`: `get` p99, µs.
pub const GET_P99_LIMIT_US: f64 = 2_000.0;
/// Share of `--seconds` given to a served workload's primary read phase and
/// to its secondary one, and to the `get` and provenance phases that follow
/// an embedded ingest (provenance queries are a hundred times slower than
/// `get`s and need the longer phase to fill two segments).
const PRIMARY: f64 = 0.6;
const SECONDARY: f64 = 0.15;
const AFTER_INGEST_GET: f64 = 0.1;
const AFTER_INGEST_PROV: f64 = 0.3;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineKind {
    /// `Cole`: synchronous merges.
    Sync,
    /// `AsyncCole`, the paper's COLE*: merges on background threads.
    Async,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Embedded ingest; primary phase is the block stream.
    Ingest,
    /// Served; primary phase is closed-loop `get`.
    GetCold,
    /// Served; primary phase is closed-loop verified provenance queries.
    ProvHot,
    /// Served; open-loop reads beside paced block writes.
    Mixed,
}

/// One workload, at full scale.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub engine: EngineKind,
    pub kind: Kind,
    pub dataset: Dataset,
    pub reads: ReadSpec,
    /// `ColeConfig::page_cache_pages`.
    pub cache_pages: usize,
    /// WAL on, under `GroupCommit{max_blocks: 8, max_bytes: 1 MiB}` — the
    /// flush policy is part of the workload and never varies.
    pub wal: bool,
    /// Blocks ingested during set-up (after the dataset's own load phase).
    pub setup_blocks: u64,
    /// Blocks of the measured phase per second of `--seconds`.
    pub run_blocks_per_second: u64,
    /// Times the whole set-up is done; `setup_s` is the median.
    pub setup_repeats: usize,
    /// Ingest workloads: how many of those set-ups (the last ones) are
    /// followed by the measured block stream. The streams are the same and
    /// their per-block timings are pooled: more samples for the tail without
    /// a larger store, whose provenance proofs would be another workload's.
    pub ingests: usize,
}

impl Spec {
    /// Whether the workload's process is confined to one CPU: all but the
    /// COLE* workload are. On this box's two virtual CPUs, work that is
    /// handed between threads costs what the hypervisor makes it cost: a
    /// served `get` round trip measured 11 µs or 36 µs depending on where the
    /// host had placed the vCPUs, and a flush or merge (run builds on worker
    /// threads) ran at full or half speed depending on whether the two were
    /// hyperthreads of one core — flipping between runs and within them, 3×
    /// on the primary metric of `serve-get-cold`, 15 % on `ingest_tps` of
    /// `ingest-smallbank`. On one CPU a hand-off is a context switch and a
    /// worker thread is a time slice, every time. `ingest-kv-async` keeps
    /// both CPUs: merges that run beside the foreground are what it measures
    /// (on one CPU its `ingest_tps` falls from 167k to 98k tx/s).
    pub fn pinned(&self) -> bool {
        self.engine == EngineKind::Sync
    }
}

const UNIFORM: ReadSpec = ReadSpec {
    dist: KeyDist::Uniform,
    absent_share: 0.0,
};

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "ingest-smallbank",
        engine: EngineKind::Sync,
        kind: Kind::Ingest,
        dataset: Dataset::SmallBank { accounts: 100_000 },
        reads: UNIFORM,
        cache_pages: 4096,
        wal: true,
        setup_blocks: 0,
        run_blocks_per_second: 110,
        setup_repeats: 5,
        ingests: 2,
    },
    Spec {
        name: "ingest-kv-async",
        engine: EngineKind::Async,
        kind: Kind::Ingest,
        dataset: Dataset::KvZipfUpdates { records: 100_000 },
        reads: UNIFORM,
        cache_pages: 4096,
        wal: false,
        setup_blocks: 0,
        run_blocks_per_second: 200,
        setup_repeats: 4,
        ingests: 4,
    },
    Spec {
        name: "serve-get-cold",
        engine: EngineKind::Sync,
        kind: Kind::GetCold,
        dataset: Dataset::KvUniform { records: 40_000 },
        reads: ReadSpec {
            dist: KeyDist::Uniform,
            absent_share: 0.1,
        },
        cache_pages: 128,
        wal: false,
        setup_blocks: 1200,
        run_blocks_per_second: 80,
        setup_repeats: 3,
        ingests: 0,
    },
    Spec {
        name: "serve-prov-hot",
        engine: EngineKind::Sync,
        kind: Kind::ProvHot,
        dataset: Dataset::KvUniform { records: 2_000 },
        reads: UNIFORM,
        cache_pages: 4096,
        wal: false,
        setup_blocks: 500,
        run_blocks_per_second: 80,
        setup_repeats: 3,
        ingests: 0,
    },
    Spec {
        name: "serve-mixed-under-ingest",
        engine: EngineKind::Sync,
        kind: Kind::Mixed,
        dataset: Dataset::KvUniform { records: 50_000 },
        reads: ReadSpec {
            dist: KeyDist::Zipf(0.99),
            absent_share: 0.0,
        },
        cache_pages: 4096,
        wal: false,
        setup_blocks: 800,
        run_blocks_per_second: 200,
        setup_repeats: 3,
        ingests: 0,
    },
];

/// The arguments of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// `--scale smoke`: a tenth of every dataset and one set-up, for CI.
    pub smoke: bool,
    pub out: PathBuf,
    pub label: Option<String>,
}

impl Opts {
    pub fn scale_name(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    fn scaled(&self, n: u64) -> u64 {
        if self.smoke {
            n.div_ceil(10)
        } else {
            n
        }
    }

    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds as f64 * share)
    }

    /// Requests sent, untimed, before a served read phase is measured.
    fn warmup_reads(&self) -> u64 {
        if self.smoke {
            2_000
        } else {
            20_000
        }
    }
}

impl Spec {
    pub fn config(&self) -> ColeConfig {
        ColeConfig::default()
            .with_page_cache_pages(self.cache_pages)
            .with_wal_enabled(self.wal)
            .with_wal_sync_policy(WalSyncPolicy::GroupCommit {
                max_blocks: 8,
                max_bytes: 1 << 20,
            })
    }

    fn dataset_for(&self, opts: &Opts) -> Dataset {
        match self.dataset {
            Dataset::SmallBank { accounts } => Dataset::SmallBank {
                accounts: opts.scaled(accounts),
            },
            Dataset::KvZipfUpdates { records } => Dataset::KvZipfUpdates {
                records: opts.scaled(records),
            },
            Dataset::KvUniform { records } => Dataset::KvUniform {
                records: opts.scaled(records),
            },
        }
    }

    pub fn is_served(&self) -> bool {
        self.kind != Kind::Ingest
    }

    pub fn repeats(&self, opts: &Opts) -> usize {
        if opts.smoke || opts.trace {
            1
        } else {
            self.setup_repeats
        }
    }
}

/// A workload set up and ready to be measured: data generated, engine opened
/// and preloaded, and (served kinds) closed, reopened and checked once.
pub struct Stage<E> {
    pub dir: PathBuf,
    pub config: ColeConfig,
    pub inputs: Inputs,
    /// Holds every set-up block (the tail included).
    pub model: Model,
    pub engine: E,
    /// Write lists of the held-back tail of the preload (served kinds).
    pub tail: Vec<Vec<(Address, StateValue)>>,
    /// What the set-up's close-and-reopen found (served kinds).
    pub reopen: Option<ReopenFacts>,
    pub preload: Preload,
}

/// The engine's counters after the set-up ingest, kept because the reopen
/// that follows starts a fresh engine with fresh counters.
#[derive(Clone, Copy, Debug)]
pub struct Preload {
    pub metrics: MetricsSnapshot,
    pub versions: u64,
    pub blocks: usize,
}

/// Sets a workload up in a fresh `dir`.
pub fn prepare<E: BenchEngine>(spec: &Spec, opts: &Opts, dir: &Path) -> Result<Stage<E>> {
    let run_blocks = spec.run_blocks_per_second * opts.seconds;
    let inputs = generate(
        spec.dataset_for(opts),
        opts.seed,
        opts.scaled(spec.setup_blocks),
        run_blocks,
        &spec.reads,
    );
    let config = spec.config();
    let held_back = if spec.is_served() {
        TAIL_BLOCKS.min(inputs.setup_blocks.len())
    } else {
        0
    };
    let (bulk, tail_blocks) = inputs
        .setup_blocks
        .split_at(inputs.setup_blocks.len() - held_back);
    let mut model = Model::default();
    for block in bulk {
        model.apply(block);
    }

    std::fs::remove_dir_all(dir).ok();
    let mut engine = E::open_at(dir, config)?;
    ingest(&mut engine, bulk)?;
    let preload = Preload {
        metrics: engine.metrics_handle().snapshot(),
        versions: model.versions(),
        blocks: bulk.len(),
    };
    let mut reopen = None;
    if spec.is_served() {
        let reopened = close_and_reopen(engine, dir, config, &[bulk], &model)?;
        reopen = Some(reopened.facts);
        engine = reopened.engine;
    }
    let tail = tail_blocks.iter().map(|b| model.apply(b)).collect();
    Ok(Stage {
        dir: dir.to_path_buf(),
        config,
        inputs,
        model,
        engine,
        tail,
        reopen,
        preload,
    })
}

/// An engine behind `serve()` on the in-process pipe transport.
pub struct Served<E: BenchEngine> {
    pub shared: Arc<SharedEngine<E>>,
    server: ServerHandle,
    connector: PipeConnector,
    /// `Hstate` of every height this benchmark saw published.
    pub anchors: Anchors,
    /// Retained heights below the head.
    pub retained: Vec<u64>,
    pub head: u64,
}

impl<E: BenchEngine> Served<E> {
    /// Wraps `engine`, applies the held-back `tail` through
    /// `SharedEngine::apply_block`, and starts the server.
    pub fn start(engine: E, tail: &[Vec<(Address, StateValue)>]) -> Result<Self> {
        let shared = Arc::new(SharedEngine::new(engine));
        let mut anchors = Anchors::new();
        let (mut head, root) = shared.head();
        anchors.insert(head, root);
        for writes in tail {
            let (height, root) = shared.apply_block(writes)?;
            anchors.insert(height, root);
            head = height;
        }
        let (oldest, _) = shared.retained_heights();
        let (listener, connector) = pipe_transport();
        let server = serve(
            Arc::clone(&shared),
            Box::new(listener),
            ServerConfig::default(),
        );
        Ok(Served {
            shared,
            server,
            connector,
            anchors,
            retained: (oldest..head).collect(),
            head,
        })
    }

    pub fn connect(&self) -> Result<cole_protocol::PipeConn> {
        Ok(self.connector.connect()?)
    }

    pub fn client(&self) -> Result<Client> {
        Ok(Client::new(self.connect()?))
    }

    pub fn targets(&self, historical_every: u64) -> ProvTargets<'_> {
        ProvTargets {
            head: self.head,
            retained: &self.retained,
            historical_every,
        }
    }

    /// Stops the server (joining its threads) and hands the engine back.
    /// Every client must be dropped first.
    pub fn stop(self) -> Result<E> {
        self.server.shutdown();
        drop(self.connector);
        Arc::try_unwrap(self.shared)
            .map(SharedEngine::into_engine)
            .map_err(|_| ColeError::InvalidState("server threads still hold the engine".into()))
    }
}

/// Applies `blocks` through `Client::put_batch` back to back, timing each
/// round trip. The phase is bounded by work, not by the clock: which merges
/// fall inside it is then decided by the block count alone, and a level-3
/// merge that a faster run reaches and a slower one does not would move
/// `ingest_tps` by a quarter.
pub fn block_phase<E: BenchEngine>(
    served: &mut Served<E>,
    client: &mut Client,
    blocks: &[Block],
    model: &mut Model,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    for block in blocks {
        let writes = model.apply(block);
        let sent = Instant::now();
        let answer = client.put_batch(&writes);
        phase.lat_us.push(sent.elapsed().as_secs_f64() * 1e6);
        match answer {
            Ok((height, root)) if height == block.height => {
                served.anchors.insert(height, root);
                served.head = height;
            }
            _ => phase.failed += 1,
        }
    }
    phase.elapsed_s = started.elapsed().as_secs_f64();
    phase
}

fn note(stat: SegmentStat) -> Json {
    Json::obj()
        .set("samples_per_segment", stat.samples_per_segment)
        .set("segments", stat.segments)
}

/// The deciles of a phase's latencies and its upper tail (p95, p98, p99,
/// p99.5, p99.9), for the notes: a percentile that sits on the step between
/// two modes of a distribution is worth knowing about.
fn shape(lat_us: &[f64]) -> Json {
    let mut sorted = lat_us.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| Json::from(percentile_sorted(&sorted, q));
    Json::obj()
        .set(
            "deciles_us",
            Json::Arr((1..=9).map(|d| at(f64::from(d) / 10.0)).collect()),
        )
        .set(
            "tail_us",
            Json::Arr([0.95, 0.98, 0.99, 0.995, 0.999].map(at).to_vec()),
        )
}

/// Which pair of latency metrics a sample feeds.
#[derive(Clone, Copy)]
enum Op {
    Get,
    Prov,
    BlockCommit,
}

/// Books the p50 and p99 of one operation kind's latencies (in order of
/// occurrence), with the evidence behind them in the notes.
fn book_latency(report: &mut Report, op: Op, lat_us: &[f64]) {
    let (p50_name, p99_name, shape_name) = match op {
        Op::Get => ("get_p50_us", "get_p99_us", "get_shape"),
        Op::Prov => ("prov_p50_us", "prov_p99_us", "prov_shape"),
        Op::BlockCommit => (
            "block_commit_p50_us",
            "block_commit_p99_us",
            "block_commit_shape",
        ),
    };
    let p99 = segment_percentile(lat_us, 0.99);
    report.set(p50_name, segment_percentile(lat_us, 0.5).value);
    match op {
        // Demoted to a diagnostic for noise (see `report::PER_LAYER`): the
        // untraced pass keeps it in its notes, the traced pass reports it.
        Op::Prov => report
            .notes
            .insert(p99_name, note(p99).set("value", p99.value)),
        _ => {
            report.set(p99_name, p99.value);
            report.notes.insert(p99_name, note(p99));
        }
    }
    report.notes.insert(shape_name, shape(lat_us));
}

/// Books a closed-loop phase: its latencies and its failure count.
fn book_phase(report: &mut Report, op: Op, phase: &Phase) {
    book_latency(report, op, &phase.lat_us);
    report.count(phase.lat_us.len() as u64, phase.failed);
}

/// Runs one workload's untraced pass.
pub fn run_untraced(spec: &Spec, opts: &Opts) -> Result<Report> {
    match spec.engine {
        EngineKind::Sync => untraced::<Cole>(spec, opts),
        EngineKind::Async => untraced::<AsyncCole>(spec, opts),
    }
}

pub fn workdir(spec: &Spec, opts: &Opts) -> PathBuf {
    opts.out
        .join("work")
        .join(format!("{}-{}", spec.name, std::process::id()))
}

fn untraced<E: BenchEngine>(spec: &Spec, opts: &Opts) -> Result<Report> {
    let mut report = Report::new(spec.name, false);
    let dir = workdir(spec, opts);

    // Set-up, several times over; the last one is measured on. On an ingest
    // workload the last `ingests` set-ups each take the block stream.
    let repeats = spec.repeats(opts);
    let mut setup_s = Vec::new();
    let mut ingests = Vec::new();
    let mut stage: Option<Stage<E>> = None;
    for k in 0..repeats {
        drop(stage.take());
        let started = Instant::now();
        let mut prepared = prepare(spec, opts, &dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if spec.kind == Kind::Ingest && k + spec.ingests >= repeats {
            ingests.push(ingest(&mut prepared.engine, &prepared.inputs.run_blocks)?);
        }
        stage = Some(prepared);
    }
    let stage = stage.expect("at least one set-up");
    report.set("setup_s", median(&setup_s));
    report.notes.insert("setups", setup_s.len());
    report.notes.insert("workload_digest", stage.inputs.digest);

    let outcome = match spec.kind {
        Kind::Ingest => measure_ingest(spec, opts, stage, &ingests, &mut report),
        Kind::GetCold | Kind::ProvHot => measure_served_reads(spec, opts, stage, &mut report),
        Kind::Mixed => measure_mixed(spec, opts, stage, &mut report),
    };
    std::fs::remove_dir_all(&dir).ok();
    outcome?;
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Workloads 1 and 2: the block stream has gone into an embedded engine
/// (`ingests`, the last of them into `stage`'s); then close, reopen, compare
/// `Hstate`, and read back what was written.
fn measure_ingest<E: BenchEngine>(
    spec: &Spec,
    opts: &Opts,
    stage: Stage<E>,
    ingests: &[Ingested],
    report: &mut Report,
) -> Result<()> {
    let Stage {
        dir,
        config,
        inputs,
        mut model,
        engine,
        ..
    } = stage;
    let txs: u64 = ingests.iter().map(|i| i.txs).sum();
    let elapsed_s: f64 = ingests.iter().map(|i| i.elapsed_s).sum();
    let block_us: Vec<f64> = ingests.iter().flat_map(|i| &i.block_us).copied().collect();
    report.set("ingest_tps", txs as f64 / elapsed_s);
    book_latency(report, Op::BlockCommit, &block_us);
    report.count(txs, 0);
    report.notes.insert("ingests", ingests.len());

    for block in &inputs.run_blocks {
        model.apply(block);
    }
    let reopened = close_and_reopen(
        engine,
        &dir,
        config,
        &[&inputs.setup_blocks, &inputs.run_blocks],
        &model,
    )?;
    report.set(
        "storage_bytes_per_version",
        reopened.facts.bytes_per_version,
    );
    report.count(1, u64::from(!reopened.facts.hstate_matches));
    report.notes.insert("reopen_ms", reopened.facts.reopen_ms);
    report.notes.insert("versions_written", model.versions());

    let mut engine = reopened.engine;
    let head = engine.current_block_height();
    let mut reader = Embedded {
        hstate: engine.hstate(),
        engine: &engine,
        height: head,
    };
    // One stream per phase: what a phase asks does not depend on how many
    // requests the clock let the phase before it send.
    let mut keys = ReadGen::new(&spec.reads, &inputs.addrs, opts.seed);
    let gets = get_phase(
        &mut reader,
        &mut keys,
        &model,
        opts.budget(AFTER_INGEST_GET),
    );
    let mut keys = ReadGen::salted(&spec.reads, &inputs.addrs, opts.seed, 1);
    let targets = ProvTargets {
        head,
        retained: &[],
        historical_every: 0,
    };
    let provs = prov_phase(
        &mut reader,
        &mut keys,
        &model,
        &Anchors::new(),
        &targets,
        PROOF_SAMPLE,
        opts.budget(AFTER_INGEST_PROV),
    );
    book_phase(report, Op::Get, &gets);
    book_phase(report, Op::Prov, &provs);
    report.set("read_ops_per_s", gets.ops_per_s());
    report.set("proof_bytes_per_prov", provs.proof_bytes_per_op());
    Ok(())
}

/// Sends `n` untimed requests of the workload's primary kind, so the page
/// cache, the pinned pages and the allocator are in their steady state.
fn warm_up<E: BenchEngine>(
    spec: &Spec,
    served: &Served<E>,
    client: &mut Client,
    keys: &mut ReadGen<'_>,
    n: u64,
) {
    for _ in 0..n {
        if spec.kind == Kind::ProvHot {
            let (addr, lo, hi) = keys.next_prov(served.head);
            let _ = Reader::prov(client, addr, lo, hi, None);
        } else {
            let _ = Reader::get(client, keys.next_get());
        }
    }
}

/// Workloads 3 and 4: one connection, depth 1, closed loop. The primary
/// phase is `get` (cold cache) or verified provenance (hot cache); the other
/// read kind and a run of `put_batch` blocks follow as secondary phases.
fn measure_served_reads<E: BenchEngine>(
    spec: &Spec,
    opts: &Opts,
    stage: Stage<E>,
    report: &mut Report,
) -> Result<()> {
    let facts = stage.reopen.expect("served set-up reopens once");
    report.set("storage_bytes_per_version", facts.bytes_per_version);
    report.count(1, u64::from(!facts.hstate_matches));
    let mut model = stage.model;
    let mut served = Served::start(stage.engine, &stage.tail)?;
    let mut client = served.client()?;
    // One key stream per phase: what a phase asks does not depend on how
    // many requests the clock let the phase before it send.
    let addrs = &stage.inputs.addrs;
    let mut warm_keys = ReadGen::salted(&spec.reads, addrs, opts.seed, 9);
    let mut get_keys = ReadGen::new(&spec.reads, addrs, opts.seed);
    let mut prov_keys = ReadGen::salted(&spec.reads, addrs, opts.seed, 1);
    warm_up(
        spec,
        &served,
        &mut client,
        &mut warm_keys,
        opts.warmup_reads(),
    );

    // The primary phase first, then the other read kind.
    let cold = spec.kind == Kind::GetCold;
    let (mut gets, mut provs) = (Phase::default(), Phase::default());
    for gets_now in [cold, !cold] {
        let share = if gets_now == cold { PRIMARY } else { SECONDARY };
        if gets_now {
            let before = served.shared.metrics().snapshot();
            gets = get_phase(&mut client, &mut get_keys, &model, opts.budget(share));
            let after = served.shared.metrics().snapshot();
            report.notes.insert(
                "merkle_pages_read_during_gets",
                after.merkle_pages_read - before.merkle_pages_read,
            );
        } else {
            // Every 4th query goes to a retained historical height; a
            // primary phase answers tens of thousands, so averages more.
            provs = prov_phase(
                &mut client,
                &mut prov_keys,
                &model,
                &served.anchors,
                &served.targets(4),
                if cold {
                    PROOF_SAMPLE
                } else {
                    10 * PROOF_SAMPLE
                },
                opts.budget(share),
            );
        }
    }
    book_phase(report, Op::Get, &gets);
    book_phase(report, Op::Prov, &provs);
    let primary = if cold { &gets } else { &provs };
    report.set("read_ops_per_s", primary.ops_per_s());
    report.set("proof_bytes_per_prov", provs.proof_bytes_per_op());

    let blocks = block_phase(
        &mut served,
        &mut client,
        &stage.inputs.run_blocks,
        &mut model,
    );
    book_phase(report, Op::BlockCommit, &blocks);
    report.set(
        "ingest_tps",
        blocks.lat_us.len() as f64 * TXS_PER_BLOCK as f64 / blocks.elapsed_s,
    );

    let metrics = served.shared.metrics().snapshot();
    report.count(
        0,
        metrics.requests_shed + metrics.requests_timed_out + metrics.reads_blocked_on_writer,
    );
    drop(client);
    drop(served.stop()?);
    Ok(())
}

/// The answers the mixed workload's reader gets are judged against the
/// model's history at the heights the writer had acknowledged when the
/// request left and when its answer came back (plus the one block that may
/// be in flight): the chain moves while reads are outstanding.
pub struct MixedJudge<'a> {
    pub model: &'a Model,
    pub acks: Receiver<(u64, Digest)>,
    pub acked: u64,
    pub anchors: Anchors,
    /// Served `(height, Hstate)` pairs whose height had no anchor yet.
    pub unanchored: Vec<(u64, Digest)>,
}

impl MixedJudge<'_> {
    fn drain(&mut self) {
        while let Ok((height, root)) = self.acks.try_recv() {
            self.acked = self.acked.max(height);
            self.anchors.insert(height, root);
        }
    }

    /// After the writer is done: every served root must be one it was given.
    pub fn unanchored_failures(&mut self) -> u64 {
        self.drain();
        self.unanchored
            .iter()
            .filter(|(h, root)| self.anchors.get(h) != Some(root))
            .count() as u64
    }
}

impl Judge for MixedJudge<'_> {
    fn stamp(&mut self) -> u64 {
        self.drain();
        self.acked
    }

    fn judge(&mut self, ask: &Ask, stamp: u64, msg: Message) -> (bool, usize) {
        self.drain();
        let window = stamp..=self.acked + 1;
        match (*ask, msg) {
            (Ask::Get(addr), Message::GetOk { value }) => (
                window
                    .into_iter()
                    .any(|h| self.model.value_at(addr, h) == value),
                0,
            ),
            (
                Ask::Prov { addr, lo, hi },
                Message::ProvOk {
                    height,
                    hstate,
                    values,
                    proof,
                },
            ) => {
                let proof_bytes = proof.len();
                let response = ProvResponse {
                    height,
                    hstate,
                    values,
                    proof,
                };
                let verified = matches!(response.verify(addr, lo, hi), Ok(true));
                match self.anchors.get(&height) {
                    Some(root) if *root != hstate => return (false, proof_bytes),
                    Some(_) => {}
                    None => self.unanchored.push((height, hstate)),
                }
                (
                    verified
                        && window.contains(&height)
                        && response.values == self.model.range(addr, lo, hi),
                    proof_bytes,
                )
            }
            // Error frames (`Busy`, `Timeout`, engine errors) and answers of
            // the wrong kind.
            _ => (false, 0),
        }
    }
}

/// What the paced writer did.
pub struct WriterLog {
    /// `(sent at, round trip µs)` per block.
    pub blocks: Vec<(Instant, f64)>,
    pub failed: u64,
    /// Blocks that left more than a millisecond after they were due.
    pub late: u64,
    pub elapsed_s: f64,
}

/// Applies one write list every `every` through `Client::put_batch`,
/// reporting each acknowledged `(height, Hstate)` on `acks`.
pub fn paced_writer(
    client: &mut Client,
    blocks: &[Vec<(Address, StateValue)>],
    first_height: u64,
    every: Duration,
    acks: &Sender<(u64, Digest)>,
) -> WriterLog {
    let started = Instant::now();
    let mut log = WriterLog {
        blocks: Vec::with_capacity(blocks.len()),
        failed: 0,
        late: 0,
        elapsed_s: 0.0,
    };
    for (k, writes) in blocks.iter().enumerate() {
        let due = started + every.mul_f64(k as f64);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        log.late += u64::from(sent.duration_since(due) > crate::openloop::LATE);
        let answer = client.put_batch(writes);
        log.blocks.push((sent, sent.elapsed().as_secs_f64() * 1e6));
        match answer {
            Ok((height, root)) if height == first_height + k as u64 => {
                // The reader may already be gone; its loss, not an error.
                let _ = acks.send((height, root));
            }
            _ => log.failed += 1,
        }
    }
    log.elapsed_s = started.elapsed().as_secs_f64();
    log
}

/// What the open-loop reader and the paced writer measured together.
pub struct MixedRun {
    pub steps: Vec<Step>,
    pub writer: WriterLog,
    /// Served roots that matched no acknowledged block.
    pub bad_roots: u64,
}

/// Workload 5's measured phase, also used (shorter, without the writer) as
/// the traced pass's open-loop probe on every workload: thread A sends reads
/// at each of `RATES` in turn on one pipelined connection; thread B, if
/// `blocks` is non-empty, applies one block every `BLOCK_EVERY`.
pub fn open_loop<E: BenchEngine>(
    served: &Served<E>,
    spec: &Spec,
    seed: u64,
    addrs: &[Address],
    model: &Model,
    blocks: &[Vec<(Address, StateValue)>],
    step_durations: [Duration; 3],
) -> Result<MixedRun> {
    let (ack_tx, ack_rx) = mpsc::channel();
    let mut wire = FrameWire(served.connect()?);
    let mut writer_client = served.client()?;
    let mut judge = MixedJudge {
        model,
        acks: ack_rx,
        acked: served.head,
        anchors: served.anchors.clone(),
        unanchored: Vec::new(),
    };
    let first_height = served.head + 1;
    let (steps, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut keys = ReadGen::new(&spec.reads, addrs, seed);
            let mut picker = ReadGen::salted(&UNIFORM, addrs, seed, 7);
            let mut steps = Vec::new();
            let mut first_id = 0;
            for (rate, duration) in RATES.into_iter().zip(step_durations) {
                let step = run_step(&mut wire, &mut judge, rate, duration, first_id, |acked| {
                    // The kind of each request comes from its own stream so
                    // the key stream is the same whatever the mix.
                    // Which addresses are audited is not skewed the way the
                    // hot keys of `get` are: provenance addresses are uniform.
                    if picker.next_unit() < PROV_SHARE {
                        Ask::Prov {
                            addr: picker.next_get(),
                            lo: acked.saturating_sub(PROV_WINDOW - 1).max(1),
                            hi: acked,
                        }
                    } else {
                        Ask::Get(keys.next_get())
                    }
                });
                first_id += step.scheduled;
                steps.push(step);
            }
            steps
        });
        // The sender moves into the writer and is dropped with it, which is
        // how the judge's last drain knows no more acknowledgements come.
        let writer = scope.spawn(move || {
            paced_writer(
                &mut writer_client,
                blocks,
                first_height,
                BLOCK_EVERY,
                &ack_tx,
            )
        });
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    let bad_roots = judge.unanchored_failures();
    Ok(MixedRun {
        steps,
        writer,
        bad_roots,
    })
}

/// The highest of the three rates that kept `get` p99 within
/// [`GET_P99_LIMIT_US`] without a growing backlog (0 if none did).
pub fn max_rate_within_limit(steps: &[Step]) -> f64 {
    steps
        .iter()
        .filter(|s| {
            segment_percentile(&s.get_us, 0.99).value <= GET_P99_LIMIT_US && !s.backlog_grows()
        })
        .map(|s| s.rate_per_s)
        .fold(0.0, f64::max)
}

/// Workload 5.
fn measure_mixed<E: BenchEngine>(
    spec: &Spec,
    opts: &Opts,
    stage: Stage<E>,
    report: &mut Report,
) -> Result<()> {
    let facts = stage.reopen.expect("served set-up reopens once");
    report.set("storage_bytes_per_version", facts.bytes_per_version);
    report.count(1, u64::from(!facts.hstate_matches));
    let mut model = stage.model;
    let served = Served::start(stage.engine, &stage.tail)?;
    {
        let mut client = served.client()?;
        let mut keys = ReadGen::salted(&spec.reads, &stage.inputs.addrs, opts.seed, 1);
        warm_up(spec, &served, &mut client, &mut keys, opts.warmup_reads());
    }
    // The reader's oracle needs the whole future history; the writer only
    // feeds the server the write lists.
    let blocks: Vec<_> = stage
        .inputs
        .run_blocks
        .iter()
        .map(|b| model.apply(b))
        .collect();
    let run = open_loop(
        &served,
        spec,
        opts.seed,
        &stage.inputs.addrs,
        &model,
        &blocks,
        STEP_SHARES.map(|share| opts.budget(share)),
    )?;

    let mid = &run.steps[1];
    book_latency(report, Op::Get, &mid.get_us);
    book_latency(report, Op::Prov, &mid.prov_us);
    report.set("read_ops_per_s", mid.completed() as f64 / mid.elapsed_s());
    report.set(
        "proof_bytes_per_prov",
        mid.proof_bytes as f64 / mid.prov_us.len().max(1) as f64,
    );
    // Block commits that left while the middle rate was running.
    let commits: Vec<f64> = run
        .writer
        .blocks
        .iter()
        .filter(|(sent, _)| *sent >= mid.started && *sent < mid.ended)
        .map(|&(_, us)| us)
        .collect();
    book_latency(report, Op::BlockCommit, &commits);
    report.set(
        "ingest_tps",
        (run.writer.blocks.len() * TXS_PER_BLOCK) as f64 / run.writer.elapsed_s,
    );

    let metrics = served.shared.metrics().snapshot();
    for step in &run.steps {
        report.count(step.scheduled, step.failed);
    }
    report.count(
        run.writer.blocks.len() as u64,
        run.writer.failed
            + run.bad_roots
            + metrics.requests_shed
            + metrics.requests_timed_out
            + metrics.reads_blocked_on_writer,
    );
    report.notes.insert(
        "steps",
        Json::Arr(
            run.steps
                .iter()
                .map(|s| {
                    Json::obj()
                        .set("rate_per_s", s.rate_per_s)
                        .set("scheduled", s.scheduled)
                        .set("get_p50_us", segment_percentile(&s.get_us, 0.5).value)
                        .set("get_p99_us", segment_percentile(&s.get_us, 0.99).value)
                        .set("prov_p99_us", segment_percentile(&s.prov_us, 0.99).value)
                        .set("late_share", s.late_share())
                        .set("backlog_max", s.backlog_max)
                        .set("backlog_grows", s.backlog_grows())
                        .set("failed", s.failed)
                })
                .collect(),
        ),
    );
    report
        .notes
        .insert("max_rate_within_limit", max_rate_within_limit(&run.steps));
    report.notes.insert("writer_late_blocks", run.writer.late);
    // Where the big merges fell: `[seconds into the run, commit ms]`.
    let t0 = run.steps[0].started;
    report.notes.insert(
        "commits_over_50ms",
        Json::Arr(
            run.writer
                .blocks
                .iter()
                .filter(|(_, us)| *us > 50_000.0)
                .map(|&(sent, us)| {
                    Json::Arr(vec![
                        sent.saturating_duration_since(t0).as_secs_f64().into(),
                        (us / 1e3).into(),
                    ])
                })
                .collect(),
        ),
    );
    drop(served.stop()?);
    Ok(())
}
