//! Ablation studies beyond the paper's figures.
//!
//! 1. **ε sweep** — the learned-model error bound trades index size against
//!    lookup work: a smaller ε means more models (larger index file) but
//!    tighter predictions.
//! 2. **Bloom-filter effect** — point lookups of absent addresses with and
//!    without the benefit of Bloom-filter skips (measured through the
//!    engine's skip counters and the latency of negative lookups).
//! 3. **Read-path cache sweep** (`--studies read-path`) — the universal page
//!    cache across value, learned-index and Merkle pages: micro timings of
//!    cold vs. cached index descent and per-entry vs. page-granular range
//!    scan, plus an engine-level `page_cache_pages` sweep reporting per-get
//!    latency, logical pages read per get, and per-file-kind cache hit
//!    rates. Emits a machine-readable `BENCH_read_path.json` (schema
//!    documented in ROADMAP.md) and, with `--assert-cached-hits true`,
//!    fails if the cached configuration reports zero index- or Merkle-page
//!    cache hits — the CI guard against silent cache detachment.
//! 4. **Write-path sweep** (`--studies write-path`) — the sharded ingest
//!    path: memtable write heads × WAL sync policies
//!    (`Always` / `GroupCommit` / `OsBuffered`), each point driving the
//!    same `put_batch` workload and reporting ingest throughput, per-block
//!    latency and the `wal_appends` / `wal_fsyncs` split that makes group
//!    commit observable. Emits `BENCH_write_path.json` (schema in
//!    ROADMAP.md) and, with `--assert-grouped-fsyncs true`, fails if a
//!    group-commit point fsyncs once per block — i.e. if batching is
//!    silently disabled.

#![forbid(unsafe_code)]

use std::time::Instant;

use cole_bench::{
    cole_config_from, fmt_f64, fresh_workdir, parse_sync_policy, run_ingest, wal_append_us, Args,
    DescentFixture, IngestConfig, IngestResult, ScanFixture, Table,
};
use cole_core::{Cole, ColeConfig};
use cole_primitives::{Address, AuthenticatedStorage};
use cole_storage::WalSyncPolicy;
use cole_workloads::{execute_block, SmallBank};

fn run_epsilon(args: &Args, table: &mut Table) {
    let blocks = args.get_u64("blocks", 400);
    let txs_per_block = args.get_usize("txs-per-block", 100);
    let accounts = args.get_u64("accounts", 5000);
    for epsilon in args.get_u64_list("epsilons", &[4, 11, 23, 46]) {
        let config: ColeConfig = cole_config_from(args).with_epsilon(epsilon);
        let dir = fresh_workdir(args, &format!("ablation_eps_{epsilon}")).expect("workdir");
        let mut engine = Cole::open(&dir, config).expect("open COLE");
        let mut workload = SmallBank::new(accounts, 51);
        for height in 1..=blocks {
            let block = workload.next_block(height, txs_per_block);
            execute_block(&mut engine, &block).expect("block");
        }
        engine.flush().expect("flush");
        let stats = engine.storage_stats().expect("stats");
        let started = Instant::now();
        let probes = 500u64;
        for i in 0..probes {
            let _ = engine
                .get(Address::from_low_u64(
                    0x5b00_0000_0000 + (i * 13) % accounts,
                ))
                .expect("get");
        }
        let get_us = started.elapsed().as_secs_f64() * 1e6 / probes as f64;
        println!(
            "[ablation/epsilon] eps={epsilon:>3}: index {:>9.2} MiB  get {:>7.1}us",
            stats.index_bytes as f64 / (1024.0 * 1024.0),
            get_us
        );
        table.push_row(vec![
            "epsilon".into(),
            epsilon.to_string(),
            fmt_f64(stats.index_bytes as f64 / (1024.0 * 1024.0)),
            fmt_f64(stats.data_bytes as f64 / (1024.0 * 1024.0)),
            fmt_f64(get_us),
            String::new(),
        ]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn run_bloom(args: &Args, table: &mut Table) {
    let blocks = args.get_u64("blocks", 400);
    let txs_per_block = args.get_usize("txs-per-block", 100);
    let accounts = args.get_u64("accounts", 5000);
    let config = cole_config_from(args);
    let dir = fresh_workdir(args, "ablation_bloom").expect("workdir");
    let mut engine = Cole::open(&dir, config).expect("open COLE");
    let mut workload = SmallBank::new(accounts, 52);
    for height in 1..=blocks {
        let block = workload.next_block(height, txs_per_block);
        execute_block(&mut engine, &block).expect("block");
    }
    engine.flush().expect("flush");
    // Lookups of addresses that were never written: almost every run should
    // be skipped by its Bloom filter.
    let probes = 500u64;
    let started = Instant::now();
    for i in 0..probes {
        let _ = engine
            .get(Address::from_low_u64(0xdead_0000_0000 + i))
            .expect("get");
    }
    let negative_us = started.elapsed().as_secs_f64() * 1e6 / probes as f64;
    let metrics = engine.metrics();
    let skip_rate = if metrics.bloom_skips + metrics.runs_searched > 0 {
        metrics.bloom_skips as f64 / (metrics.bloom_skips + metrics.runs_searched) as f64
    } else {
        0.0
    };
    println!(
        "[ablation/bloom] negative get {negative_us:.1}us, bloom skip rate {:.1}%",
        skip_rate * 100.0
    );
    table.push_row(vec![
        "bloom".into(),
        "negative-get".into(),
        fmt_f64(negative_us),
        fmt_f64(skip_rate * 100.0),
        metrics.bloom_skips.to_string(),
        metrics.runs_searched.to_string(),
    ]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Mean wall-clock nanoseconds per call of `f` over `iters` calls (one
/// untimed warm-up call).
fn time_ns<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    f();
    let started = Instant::now();
    for _ in 0..iters {
        f();
    }
    started.elapsed().as_nanos() as f64 / iters as f64
}

/// Micro timings of the two read-path rewrites, on standalone files (no
/// engine): cold vs. cached learned-index descent and per-entry vs.
/// page-granular value scan.
struct MicroNumbers {
    entries: u64,
    scan_entries: u64,
    descent_cold_ns: f64,
    descent_cached_ns: f64,
    scan_per_entry_ns: f64,
    scan_page_granular_ns: f64,
}

fn run_read_path_micro(args: &Args) -> MicroNumbers {
    let entries = args.get_u64("micro-entries", 40_000);
    let iters = args.get_u64("micro-iters", 2_000);
    let dir = fresh_workdir(args, "ablation_read_path_micro").expect("workdir");
    // Same fixtures as the criterion `read_path` group, so the committed
    // JSON stays comparable to the bench numbers.
    let descent = DescentFixture::build(&dir, entries).expect("descent fixture");
    let scan = ScanFixture::build(&dir, entries).expect("scan fixture");

    let mut i = 0u64;
    let descent_cold_ns = time_ns(iters, || {
        i += 7919;
        descent
            .cold
            .find_bottom_model(&descent.probe(i))
            .expect("descent");
    });
    let mut j = 0u64;
    let descent_cached_ns = time_ns(iters, || {
        j += 7919;
        descent
            .cached
            .find_bottom_model(&descent.probe(j))
            .expect("descent");
    });
    let scan_iters = iters.min(500);
    let scan_per_entry_ns = time_ns(scan_iters, || {
        std::hint::black_box(scan.scan_per_entry().expect("scan"));
    });
    let scan_page_granular_ns = time_ns(scan_iters, || {
        std::hint::black_box(scan.scan_page_granular().expect("scan"));
    });
    let scan_entries = scan.scan_entries;
    drop((descent, scan));
    std::fs::remove_dir_all(&dir).ok();
    MicroNumbers {
        entries,
        scan_entries,
        descent_cold_ns,
        descent_cached_ns,
        scan_per_entry_ns,
        scan_page_granular_ns,
    }
}

/// The workload knobs of the read-path sweep, resolved from the command
/// line exactly once so the sweep and the JSON report can never disagree
/// about what was measured.
struct SweepConfig {
    blocks: u64,
    txs_per_block: usize,
    accounts: u64,
    memtable: usize,
    probes: u64,
}

impl SweepConfig {
    fn from_args(args: &Args) -> Self {
        SweepConfig {
            blocks: args.get_u64("blocks", 400),
            txs_per_block: args.get_usize("txs-per-block", 100),
            accounts: args.get_u64("accounts", 5000),
            memtable: args.get_usize("memtable", 4096),
            probes: args.get_u64("probes", 2000),
        }
    }
}

/// One engine-level sweep point: COLE driven through the workload with a
/// given `page_cache_pages`, then probed with gets and provenance queries.
///
/// All counter-derived fields are deltas over a measured phase (the warm-up
/// pass is excluded): `get_us`, `pages_read_per_get`, `value_hit_rate` and
/// `index_hit_rate`/`index_cache_hits` describe the **get phase**;
/// `prov_us` and `merkle_hit_rate`/`merkle_cache_hits` describe the
/// **provenance phase** (Merkle pages are only touched there).
struct SweepPoint {
    cache_pages: u64,
    get_us: f64,
    prov_us: f64,
    pages_read_per_get: f64,
    value_hit_rate: f64,
    index_hit_rate: f64,
    merkle_hit_rate: f64,
    index_cache_hits: u64,
    merkle_cache_hits: u64,
}

fn run_read_path_sweep(args: &Args, cfg: &SweepConfig) -> Vec<SweepPoint> {
    let probes = cfg.probes;
    let mut points = Vec::new();
    for cache_pages in args.get_u64_list("cache-pages", &[0, 256, 4096]) {
        let config = cole_config_from(args).with_page_cache_pages(cache_pages as usize);
        let dir =
            fresh_workdir(args, &format!("ablation_read_path_{cache_pages}")).expect("workdir");
        let mut engine = Cole::open(&dir, config).expect("open COLE");
        let mut workload = SmallBank::new(cfg.accounts, 53);
        for height in 1..=cfg.blocks {
            let block = workload.next_block(height, cfg.txs_per_block);
            execute_block(&mut engine, &block).expect("block");
        }
        engine.flush().expect("flush");
        let target = |i: u64| Address::from_low_u64(0x5b00_0000_0000 + (i * 13) % cfg.accounts);
        let prov_range = (cfg.blocks / 2, cfg.blocks / 2 + 8);
        // Warm-up pass so the measured phases report steady-state hit rates.
        for i in 0..probes {
            engine.get(target(i)).expect("get");
        }
        engine
            .prov_query(target(1), prov_range.0, prov_range.1)
            .expect("prov");

        // Get phase: value/index counters move here.
        let m0 = engine.metrics();
        let started = Instant::now();
        for i in 0..probes {
            engine.get(target(i)).expect("get");
        }
        let get_us = started.elapsed().as_secs_f64() * 1e6 / probes as f64;
        let m_get = engine.metrics();
        // Provenance phase: the only phase that touches Merkle pages.
        let prov_probes = (probes / 10).max(1);
        let started = Instant::now();
        for i in 0..prov_probes {
            engine
                .prov_query(target(i), prov_range.0, prov_range.1)
                .expect("prov");
        }
        let prov_us = started.elapsed().as_secs_f64() * 1e6 / prov_probes as f64;
        let m1 = engine.metrics();

        let rate = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        let point = SweepPoint {
            cache_pages,
            get_us,
            prov_us,
            pages_read_per_get: (m_get.pages_read - m0.pages_read) as f64 / probes as f64,
            value_hit_rate: rate(
                m_get.value_cache_hits - m0.value_cache_hits,
                m_get.value_cache_misses - m0.value_cache_misses,
            ),
            index_hit_rate: rate(
                m_get.index_cache_hits - m0.index_cache_hits,
                m_get.index_cache_misses - m0.index_cache_misses,
            ),
            merkle_hit_rate: rate(
                m1.merkle_cache_hits - m_get.merkle_cache_hits,
                m1.merkle_cache_misses - m_get.merkle_cache_misses,
            ),
            index_cache_hits: m_get.index_cache_hits - m0.index_cache_hits,
            merkle_cache_hits: m1.merkle_cache_hits - m_get.merkle_cache_hits,
        };
        println!(
            "[ablation/read-path] cache={cache_pages:>5} pages: get {get_us:>7.1}us  \
             prov {prov_us:>8.1}us  pages/get {:>5.2}  hit% value {:>5.1} index {:>5.1} \
             merkle {:>5.1}",
            point.pages_read_per_get,
            point.value_hit_rate * 100.0,
            point.index_hit_rate * 100.0,
            point.merkle_hit_rate * 100.0,
        );
        points.push(point);
        std::fs::remove_dir_all(&dir).ok();
    }
    points
}

/// Renders the read-path results as the `BENCH_read_path.json` document
/// (schema in ROADMAP.md).
fn read_path_json(cfg: &SweepConfig, micro: &MicroNumbers, sweep: &[SweepPoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"read_path\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!(
        "  \"workload\": {{\"blocks\": {}, \"txs_per_block\": {}, \"accounts\": {}, \
         \"memtable\": {}, \"probes\": {}, \"hash_backend\": \"{}\"}},\n",
        cfg.blocks,
        cfg.txs_per_block,
        cfg.accounts,
        cfg.memtable,
        cfg.probes,
        cole_hash::backend(),
    ));
    out.push_str(&format!(
        "  \"micro\": {{\n    \"index_entries\": {},\n    \"scan_entries\": {},\n    \
         \"index_descent_cold_ns\": {:.1},\n    \"index_descent_cached_ns\": {:.1},\n    \
         \"index_descent_speedup\": {:.2},\n    \"scan_per_entry_ns\": {:.1},\n    \
         \"scan_page_granular_ns\": {:.1},\n    \"scan_speedup\": {:.2}\n  }},\n",
        micro.entries,
        micro.scan_entries,
        micro.descent_cold_ns,
        micro.descent_cached_ns,
        micro.descent_cold_ns / micro.descent_cached_ns.max(1.0),
        micro.scan_per_entry_ns,
        micro.scan_page_granular_ns,
        micro.scan_per_entry_ns / micro.scan_page_granular_ns.max(1.0),
    ));
    out.push_str("  \"cache_sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"engine\": \"cole\", \"cache_pages\": {}, \"get_us\": {:.2}, \
             \"prov_us\": {:.2}, \"pages_read_per_get\": {:.3}, \"value_hit_rate\": {:.4}, \
             \"index_hit_rate\": {:.4}, \"merkle_hit_rate\": {:.4}, \
             \"index_cache_hits\": {}, \"merkle_cache_hits\": {}}}{}\n",
            p.cache_pages,
            p.get_us,
            p.prov_us,
            p.pages_read_per_get,
            p.value_hit_rate,
            p.index_hit_rate,
            p.merkle_hit_rate,
            p.index_cache_hits,
            p.merkle_cache_hits,
            if i + 1 < sweep.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_read_path(args: &Args, table: &mut Table) {
    let cfg = SweepConfig::from_args(args);
    let micro = run_read_path_micro(args);
    println!(
        "[ablation/read-path] micro: descent cold {:.0}ns vs cached {:.0}ns ({:.1}x), \
         scan per-entry {:.0}ns vs page-granular {:.0}ns ({:.1}x)",
        micro.descent_cold_ns,
        micro.descent_cached_ns,
        micro.descent_cold_ns / micro.descent_cached_ns.max(1.0),
        micro.scan_per_entry_ns,
        micro.scan_page_granular_ns,
        micro.scan_per_entry_ns / micro.scan_page_granular_ns.max(1.0),
    );
    table.push_row(vec![
        "read-path".into(),
        "descent-cold-vs-cached-ns".into(),
        fmt_f64(micro.descent_cold_ns),
        fmt_f64(micro.descent_cached_ns),
        fmt_f64(micro.descent_cold_ns / micro.descent_cached_ns.max(1.0)),
        String::new(),
    ]);
    table.push_row(vec![
        "read-path".into(),
        "scan-per-entry-vs-page-ns".into(),
        fmt_f64(micro.scan_per_entry_ns),
        fmt_f64(micro.scan_page_granular_ns),
        fmt_f64(micro.scan_per_entry_ns / micro.scan_page_granular_ns.max(1.0)),
        String::new(),
    ]);

    let sweep = run_read_path_sweep(args, &cfg);
    for p in &sweep {
        table.push_row(vec![
            "read-path".into(),
            format!("cache-{}", p.cache_pages),
            fmt_f64(p.get_us),
            fmt_f64(p.pages_read_per_get),
            fmt_f64(p.index_hit_rate * 100.0),
            fmt_f64(p.merkle_hit_rate * 100.0),
        ]);
    }

    let json = read_path_json(&cfg, &micro, &sweep);
    let json_out = args.get_str("json-out", "BENCH_read_path.json");
    if let Some(parent) = std::path::Path::new(&json_out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("json-out dir");
        }
    }
    std::fs::write(&json_out, &json).expect("write JSON");
    println!("wrote {json_out}");

    if args.get_str("assert-cached-hits", "false") == "true" {
        let best = sweep
            .iter()
            .filter(|p| p.cache_pages > 0)
            .max_by_key(|p| p.cache_pages);
        let ok = best.is_some_and(|p| p.index_cache_hits > 0 && p.merkle_cache_hits > 0);
        if !ok {
            eprintln!(
                "[ablation/read-path] FAIL: cached configuration reports zero index- or \
                 Merkle-page cache hits — the universal cache is detached from the read path"
            );
            std::process::exit(1);
        }
        println!("[ablation/read-path] cached index+merkle hit assertion passed");
    }
}

/// The workload knobs of the write-path sweep, resolved once so the sweep
/// and the JSON report agree on what was measured.
struct WriteSweepConfig {
    blocks: u64,
    writes_per_block: u64,
    accounts: u64,
    memtable: usize,
    group_blocks: u32,
}

impl WriteSweepConfig {
    fn from_args(args: &Args) -> Self {
        WriteSweepConfig {
            blocks: args.get_u64("blocks", 400),
            writes_per_block: args.get_u64("writes-per-block", 200),
            accounts: args.get_u64("accounts", 5000),
            memtable: args.get_usize("memtable", 4096),
            group_blocks: args.get_u64("group-blocks", 8) as u32,
        }
    }
}

/// One measured point of the (shards × sync policy) grid.
struct WritePoint {
    shards: u64,
    policy_name: String,
    result: IngestResult,
}

/// Micro timings: the isolated per-block WAL append cost under each policy.
struct WalMicro {
    blocks: u64,
    entries_per_block: usize,
    always_us: f64,
    group_us: f64,
    os_us: f64,
}

fn run_write_path_micro(args: &Args, cfg: &WriteSweepConfig) -> WalMicro {
    let blocks = args.get_u64("wal-micro-blocks", 500);
    let entries_per_block = args.get_usize("wal-micro-entries", 50);
    let dir = fresh_workdir(args, "ablation_write_path_micro").expect("workdir");
    let group = WalSyncPolicy::GroupCommit {
        max_blocks: cfg.group_blocks,
        max_bytes: 64 << 20,
    };
    let micro = WalMicro {
        blocks,
        entries_per_block,
        always_us: wal_append_us(&dir, WalSyncPolicy::Always, blocks, entries_per_block)
            .expect("wal micro"),
        group_us: wal_append_us(&dir, group, blocks, entries_per_block).expect("wal micro"),
        os_us: wal_append_us(&dir, WalSyncPolicy::OsBuffered, blocks, entries_per_block)
            .expect("wal micro"),
    };
    std::fs::remove_dir_all(&dir).ok();
    micro
}

fn run_write_path_sweep(args: &Args, cfg: &WriteSweepConfig) -> Vec<WritePoint> {
    let shards_list = args.get_u64_list("shards", &[1, 2, 4]);
    let policy_names =
        args.get_str_list("sync-policies", &["always", "group-commit", "os-buffered"]);
    let mut points = Vec::new();
    for &shards in &shards_list {
        for name in &policy_names {
            let policy = match parse_sync_policy(name, cfg.group_blocks) {
                Ok(p) => p,
                Err(msg) => {
                    eprintln!("{msg}");
                    std::process::exit(2);
                }
            };
            let dir =
                fresh_workdir(args, &format!("ablation_write_{shards}_{name}")).expect("workdir");
            let result = run_ingest(
                &dir,
                &IngestConfig {
                    blocks: cfg.blocks,
                    writes_per_block: cfg.writes_per_block,
                    accounts: cfg.accounts,
                    memtable: cfg.memtable,
                    shards: shards as usize,
                    policy,
                },
            )
            .expect("ingest");
            println!(
                "[ablation/write-path] shards={shards} sync={name:<11} \
                 {:>9.0} ops/s  block {:>7.1}us  wal appends {:>4} fsyncs {:>4}  \
                 flushes {:>3} merges {:>3}",
                result.ops_per_s,
                result.block_us,
                result.wal_appends,
                result.wal_fsyncs,
                result.flushes,
                result.merges,
            );
            points.push(WritePoint {
                shards,
                policy_name: name.clone(),
                result,
            });
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    points
}

/// Renders the write-path results as the `BENCH_write_path.json` document
/// (schema in ROADMAP.md).
fn write_path_json(cfg: &WriteSweepConfig, micro: &WalMicro, sweep: &[WritePoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"write_path\",\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!(
        "  \"workload\": {{\"blocks\": {}, \"writes_per_block\": {}, \"accounts\": {}, \
         \"memtable\": {}, \"group_blocks\": {}}},\n",
        cfg.blocks, cfg.writes_per_block, cfg.accounts, cfg.memtable, cfg.group_blocks,
    ));
    out.push_str(&format!(
        "  \"micro\": {{\n    \"wal_blocks\": {},\n    \"wal_entries_per_block\": {},\n    \
         \"wal_append_always_us\": {:.2},\n    \"wal_append_group_us\": {:.2},\n    \
         \"wal_append_os_buffered_us\": {:.2},\n    \"group_commit_speedup\": {:.2}\n  }},\n",
        micro.blocks,
        micro.entries_per_block,
        micro.always_us,
        micro.group_us,
        micro.os_us,
        micro.always_us / micro.group_us.max(1e-9),
    ));
    out.push_str("  \"sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"engine\": \"cole\", \"shards\": {}, \"sync_policy\": \"{}\", \
             \"ops_per_s\": {:.0}, \"block_us\": {:.2}, \"wal_appends\": {}, \
             \"wal_fsyncs\": {}, \"flushes\": {}, \"merges\": {}}}{}\n",
            p.shards,
            p.policy_name,
            p.result.ops_per_s,
            p.result.block_us,
            p.result.wal_appends,
            p.result.wal_fsyncs,
            p.result.flushes,
            p.result.merges,
            if i + 1 < sweep.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_write_path(args: &Args, table: &mut Table) {
    let cfg = WriteSweepConfig::from_args(args);
    let micro = run_write_path_micro(args, &cfg);
    println!(
        "[ablation/write-path] micro: wal append always {:.1}us vs group-commit {:.1}us \
         ({:.1}x) vs os-buffered {:.1}us",
        micro.always_us,
        micro.group_us,
        micro.always_us / micro.group_us.max(1e-9),
        micro.os_us,
    );
    table.push_row(vec![
        "write-path".into(),
        "wal-append-always-vs-group-us".into(),
        fmt_f64(micro.always_us),
        fmt_f64(micro.group_us),
        fmt_f64(micro.always_us / micro.group_us.max(1e-9)),
        fmt_f64(micro.os_us),
    ]);

    let sweep = run_write_path_sweep(args, &cfg);
    for p in &sweep {
        table.push_row(vec![
            "write-path".into(),
            format!("shards-{}-{}", p.shards, p.policy_name),
            fmt_f64(p.result.ops_per_s),
            fmt_f64(p.result.block_us),
            p.result.wal_appends.to_string(),
            p.result.wal_fsyncs.to_string(),
        ]);
    }

    let json = write_path_json(&cfg, &micro, &sweep);
    let json_out = args.get_str("write-json-out", "BENCH_write_path.json");
    if let Some(parent) = std::path::Path::new(&json_out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("json-out dir");
        }
    }
    std::fs::write(&json_out, &json).expect("write JSON");
    println!("wrote {json_out}");

    if args.get_str("assert-grouped-fsyncs", "false") == "true" {
        let grouped: Vec<&WritePoint> = sweep
            .iter()
            .filter(|p| p.policy_name.starts_with("group"))
            .collect();
        let ok = !grouped.is_empty()
            && grouped
                .iter()
                .all(|p| p.result.wal_fsyncs > 0 && p.result.wal_fsyncs < p.result.wal_appends);
        if !ok {
            eprintln!(
                "[ablation/write-path] FAIL: a group-commit configuration reports \
                 fsyncs == appended blocks (or none at all) — WAL batching is \
                 silently disabled"
            );
            std::process::exit(1);
        }
        println!("[ablation/write-path] grouped-fsync assertion passed");
    }
}

fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        println!(
            "exp_ablation — design-choice ablations for COLE\n\
             --studies epsilon,bloom,read-path,write-path   which studies to run\n\
             --epsilons 4,11,23,46  learned-model error bounds to sweep\n\
             --blocks 400 --txs-per-block 100 --accounts 5000\n\
             --cache-pages 0,256,4096  page-cache sweep (read-path study)\n\
             --probes 2000 --micro-entries 40000 --micro-iters 2000\n\
             --assert-cached-hits true  fail on zero index/merkle cache hits\n\
             --json-out BENCH_read_path.json  machine-readable read-path report\n\
             --shards 1,2,4  memtable write heads (write-path study)\n\
             --sync-policies always,group-commit,os-buffered  WAL fsync sweep\n\
             --writes-per-block 200 --group-blocks 8  write-path workload\n\
             --wal-micro-blocks 500 --wal-micro-entries 50  WAL append micro\n\
             --assert-grouped-fsyncs true  fail if group commit stops batching\n\
             --write-json-out BENCH_write_path.json  machine-readable report\n\
             --workdir bench_work --out results/ablation.csv"
        );
        return;
    }
    let mut table = Table::new(
        "Ablations: learned-index error bound, Bloom filter, read-path cache, write path",
        &[
            "study", "setting", "metric_a", "metric_b", "metric_c", "metric_d",
        ],
    );
    let studies = args.get_str_list("studies", &["epsilon", "bloom", "read-path", "write-path"]);
    for study in &studies {
        match study.as_str() {
            "epsilon" => run_epsilon(&args, &mut table),
            "bloom" => run_bloom(&args, &mut table),
            "read-path" => run_read_path(&args, &mut table),
            "write-path" => run_write_path(&args, &mut table),
            other => {
                eprintln!(
                    "unknown study '{other}' (expected epsilon, bloom, read-path or write-path)"
                );
                std::process::exit(2);
            }
        }
    }
    table.print();
    let out = args.get_str("out", "results/ablation.csv");
    table.write_csv(&out).expect("write CSV");
    println!("wrote {out}");
}
