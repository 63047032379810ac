//! Served-engine benchmark: closed-loop clients against a `cole_server`
//! instance, sweeping connections × pipelining depth — each point measured
//! twice, on a quiet server and again under paced write ingest.
//!
//! Starts the chosen engine behind [`cole_server::serve`], preloads it over
//! the wire, then for every `(connections, depth)` combination runs a
//! closed-loop workload of point lookups with a provenance query (verified
//! client-side) every `--prov-every`-th request; every
//! `--historical-every`-th provenance query targets a retained historical
//! snapshot via `at_height` and must be answered (and verify) at exactly
//! that height. The same workload then repeats while a dedicated writer
//! connection applies a small block every `--ingest-interval-us`
//! microseconds — the MVCC read-path claim under test is that read latency
//! barely moves, because readers pin immutable snapshots and never touch
//! the writer lock. Reports both passes per combination, writes a CSV under
//! `results/`, and emits the machine-readable `BENCH_server.json`
//! (schema_version 2; schema in ROADMAP.md).
//!
//! The default transport is the in-process duplex pipe, so the benchmark —
//! and the CI smoke run — needs no network capability; `--transport tcp`
//! exercises real loopback sockets where the environment permits them.
//!
//! With `--assert-served-ops true` the run fails unless the server's
//! `requests_served` counter accounts for exactly the requests the clients
//! (and the paced writer) issued. With `--assert-snapshot-reads true` the
//! run fails unless every read went through the snapshot path
//! (`reads_blocked_on_writer == 0`, `snapshot_reads > 0`) and historical
//! queries actually hit retained snapshots (`historical_provs > 0`) — the
//! CI gate that writers never block readers.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cole_bench::{
    fmt_f64, preload_over_wire, run_closed_loop, Args, ServerLoadConfig, ServerLoadResult, Table,
};
use cole_core::{AsyncCole, Cole, ColeConfig, Metrics};
use cole_primitives::{Address, Result, StateValue};
use cole_protocol::{pipe_transport, Client, Connection, TcpListenerTransport};
use cole_server::{serve, ServerConfig, ServerHandle, SharedEngine};

/// One sweep point of the report: the same workload measured on a quiet
/// server (`quiet`) and under paced write ingest (`ingest`).
struct Point {
    connections: usize,
    depth: usize,
    quiet: ServerLoadResult,
    ingest: ServerLoadResult,
    /// Blocks the paced writer applied while the `ingest` pass ran.
    writer_blocks: u64,
    /// Snapshots evicted from the retention ring across the point.
    snapshots_retired_delta: u64,
    served_delta: u64,
    /// Degradation-counter deltas across the point (shed, timed out, idle
    /// disconnects, transient I/O errors). All zero under this benchmark's
    /// default server config — the columns exist so a fault- or
    /// overload-configured run (and the chaos harness) reports through the
    /// same schema.
    shed_delta: u64,
    timed_out_delta: u64,
    idle_delta: u64,
    transient_io_delta: u64,
}

/// A started server plus the means to connect to it.
struct Served {
    handle: ServerHandle,
    metrics: Arc<Metrics>,
    connect: Box<dyn Fn() -> Result<Box<dyn Connection>> + Send + Sync>,
}

fn start_server(
    engine: &str,
    transport: &str,
    dir: &std::path::Path,
    config: ColeConfig,
    retain: usize,
) -> Served {
    macro_rules! with_engine {
        ($open:expr) => {{
            let shared = Arc::new(SharedEngine::with_retention(
                $open.expect("open engine"),
                retain,
            ));
            let metrics = Arc::clone(shared.metrics());
            match transport {
                "tcp" => {
                    let listener =
                        TcpListenerTransport::bind("127.0.0.1:0").expect("bind loopback listener");
                    let addr = listener.local_addr().expect("listener address");
                    let handle = serve(shared, Box::new(listener), ServerConfig::default());
                    let connect: Box<dyn Fn() -> Result<Box<dyn Connection>> + Send + Sync> =
                        Box::new(move || {
                            let stream = TcpListenerTransport::connect(addr)?;
                            Ok(Box::new(stream) as Box<dyn Connection>)
                        });
                    Served {
                        handle,
                        metrics,
                        connect,
                    }
                }
                "pipe" => {
                    let (listener, connector) = pipe_transport();
                    let handle = serve(shared, Box::new(listener), ServerConfig::default());
                    let connect: Box<dyn Fn() -> Result<Box<dyn Connection>> + Send + Sync> =
                        Box::new(move || Ok(Box::new(connector.connect()?) as Box<dyn Connection>));
                    Served {
                        handle,
                        metrics,
                        connect,
                    }
                }
                other => panic!("unknown --transport {other} (pipe|tcp)"),
            }
        }};
    }
    match engine {
        "cole" => with_engine!(Cole::open(dir, config)),
        "cole*" | "cole-async" | "async" => with_engine!(AsyncCole::open(dir, config)),
        other => panic!("unknown --engine {other} (cole|cole*)"),
    }
}

/// The paced writer of the ingest pass: applies a `batch`-write block over
/// its own connection every `interval` until `stop` flips, then returns the
/// number of blocks it applied.
fn paced_writer(
    connect: &(dyn Fn() -> Result<Box<dyn Connection>> + Send + Sync),
    stop: &AtomicBool,
    accounts: u64,
    interval: Duration,
    batch: u64,
) -> Result<u64> {
    let mut client = Client::from_boxed(connect()?);
    let mut blocks = 0u64;
    let mut next = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let entries: Vec<_> = (0..batch)
            .map(|_| {
                let addr = Address::from_low_u64(next % accounts);
                next += 1;
                (addr, StateValue::from_u64(blocks + 1))
            })
            .collect();
        client.put_batch(&entries)?;
        blocks += 1;
        std::thread::sleep(interval);
    }
    Ok(blocks)
}

/// The fixed (non-swept) parameters of one benchmark run, as they appear in
/// the report header.
struct RunMeta {
    engine: String,
    transport: String,
    preload_blocks: u64,
    writes_per_block: u64,
    accounts: u64,
    prov_every: u64,
    prov_span: u64,
    historical_every: u64,
    retain: usize,
    ingest_interval_us: u64,
    ingest_batch: u64,
}

/// Renders the results as the `BENCH_server.json` document (schema_version
/// 2, schema in ROADMAP.md): every row carries the quiet-pass figures under
/// the v1 names plus the ingest-pass figures (`*_during_ingest`,
/// `writer_blocks`, `snapshots_retired`).
fn server_json(meta: &RunMeta, points: &[Point]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"server\",\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!(
        "  \"engine\": \"{}\",\n  \"transport\": \"{}\",\n",
        meta.engine, meta.transport
    ));
    out.push_str(&format!(
        "  \"workload\": {{\"preload_blocks\": {}, \"writes_per_block\": {}, \
         \"accounts\": {}, \"prov_every\": {}, \"prov_span\": {}, \
         \"historical_every\": {}, \"retain\": {}, \"ingest_interval_us\": {}, \
         \"ingest_batch\": {}, \"hash_backend\": \"{}\"}},\n",
        meta.preload_blocks,
        meta.writes_per_block,
        meta.accounts,
        meta.prov_every,
        meta.prov_span,
        meta.historical_every,
        meta.retain,
        meta.ingest_interval_us,
        meta.ingest_batch,
        cole_hash::backend()
    ));
    out.push_str("  \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        let q = &p.quiet;
        let g = &p.ingest;
        out.push_str(&format!(
            "    {{\"connections\": {}, \"depth\": {}, \"total_ops\": {}, \"gets\": {}, \
             \"provs\": {}, \"historical_provs\": {}, \"verified_proofs\": {}, \
             \"ops_per_s\": {:.0}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \"p999_us\": {:.2}, \
             \"max_us\": {:.2}, \"writer_blocks\": {}, \"ops_per_s_during_ingest\": {:.0}, \
             \"read_p50_us_during_ingest\": {:.2}, \"read_p99_us_during_ingest\": {:.2}, \
             \"historical_provs_during_ingest\": {}, \"snapshots_retired\": {}, \
             \"requests_served_delta\": {}, \"client_retries\": {}, \"requests_shed\": {}, \
             \"requests_timed_out\": {}, \"idle_disconnects\": {}, \"transient_io_errors\": {}}}{}\n",
            p.connections,
            p.depth,
            q.total_ops,
            q.gets,
            q.provs,
            q.historical_provs,
            q.verified_proofs,
            q.ops_per_s(),
            q.latency.p50_us,
            q.latency.p99_us,
            q.latency.p999_us,
            q.latency.max_us,
            p.writer_blocks,
            g.ops_per_s(),
            g.latency.p50_us,
            g.latency.p99_us,
            g.historical_provs,
            p.snapshots_retired_delta,
            p.served_delta,
            q.client_retries + g.client_retries,
            p.shed_delta,
            p.timed_out_delta,
            p.idle_delta,
            p.transient_io_delta,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = Args::from_env();
    if args.help_requested() {
        println!(
            "exp_server — closed-loop load against the served engine, quiet and under ingest\n\
             --engine cole            cole | cole* (the async variant)\n\
             --transport pipe         pipe (in-process, no sockets) | tcp (loopback)\n\
             --connections 1,2,4      client connection counts to sweep\n\
             --depths 1,4,8           pipelining depths to sweep\n\
             --ops 4000               requests per sweep point (split across connections)\n\
             --preload-blocks 30      blocks written over the wire before the sweep\n\
             --writes-per-block 64    writes per preload block\n\
             --accounts 512           distinct addresses\n\
             --prov-every 10          every Nth request is a verified provenance query\n\
             --prov-span 16           block span of each provenance query\n\
             --historical-every 4     every Nth provenance query targets a retained snapshot\n\
             --retain 512             snapshots kept for point-in-time queries\n\
             --ingest-interval-us 2000  pacing of the ingest-pass writer\n\
             --ingest-batch 8         writes per ingest-pass block\n\
             --memtable 1024          engine memtable capacity\n\
             --assert-served-ops true fail unless requests_served matches the client count\n\
             --assert-snapshot-reads true  fail unless reads never blocked on the writer\n\
             --json-out BENCH_server.json  machine-readable report\n\
             --workdir bench_work --out results/server.csv"
        );
        return;
    }
    let engine = args.get_str("engine", "cole");
    let transport = args.get_str("transport", "pipe");
    let connections = args.get_u64_list("connections", &[1, 2, 4]);
    let depths = args.get_u64_list("depths", &[1, 4, 8]);
    let ops = args.get_u64("ops", 4_000);
    let preload_blocks = args.get_u64("preload-blocks", 30);
    let writes_per_block = args.get_u64("writes-per-block", 64);
    let accounts = args.get_u64("accounts", 512);
    let prov_every = args.get_u64("prov-every", 10);
    let prov_span = args.get_u64("prov-span", 16);
    let historical_every = args.get_u64("historical-every", 4);
    let retain = args.get_usize("retain", 512);
    let ingest_interval = Duration::from_micros(args.get_u64("ingest-interval-us", 2_000));
    let ingest_batch = args.get_u64("ingest-batch", 8);
    let config = ColeConfig::default().with_memtable_capacity(args.get_usize("memtable", 1024));

    let dir = cole_bench::fresh_workdir(&args, "server").expect("create working directory");
    let served = start_server(&engine, &transport, &dir, config, retain);

    let mut writer = Client::from_boxed((served.connect)().expect("connect writer"));
    let head = preload_over_wire(&mut writer, preload_blocks, writes_per_block, accounts)
        .expect("preload over the wire");
    drop(writer);
    println!(
        "served {engine} over {transport}: preloaded {preload_blocks} blocks \
         ({writes_per_block} writes each, {accounts} accounts), head at {head}, \
         retaining {retain} snapshots"
    );

    let mut table = Table::new(
        &format!("exp_server — {engine} over {transport} (quiet / under ingest)"),
        &[
            "conns",
            "depth",
            "ops",
            "provs",
            "hist",
            "ops/s",
            "p99 µs",
            "ops/s ing",
            "p99 µs ing",
            "wr_blks",
            "snap_ret",
            "shed",
        ],
    );
    let mut points = Vec::new();
    for &conns in &connections {
        for &depth in &depths {
            let conns = conns as usize;
            let cfg = ServerLoadConfig {
                connections: conns,
                depth: depth as usize,
                ops_per_connection: ops.div_ceil(conns as u64),
                accounts,
                prov_every,
                prov_span,
                historical_every,
            };
            let before = served.metrics.snapshot();

            // Pass 1 — quiet: no writer, the v1-comparable baseline.
            let quiet = run_closed_loop(&served.connect, &cfg).expect("quiet closed-loop run");

            // Pass 2 — the same workload while a paced writer applies
            // blocks; the writer is joined before the after-snapshot so the
            // served-request accounting below is exact.
            let stop = AtomicBool::new(false);
            let (ingest, writer_blocks) = std::thread::scope(|scope| {
                let connect = &served.connect;
                let w = scope.spawn(|| {
                    paced_writer(
                        connect.as_ref(),
                        &stop,
                        accounts,
                        ingest_interval,
                        ingest_batch,
                    )
                });
                let r = run_closed_loop(connect, &cfg);
                stop.store(true, Ordering::Relaxed);
                let blocks = w
                    .join()
                    .expect("paced writer thread")
                    .expect("paced writer");
                (r.expect("ingest closed-loop run"), blocks)
            });

            let after = served.metrics.snapshot();
            let served_delta = after.requests_served - before.requests_served;
            for (pass, r) in [("quiet", &quiet), ("ingest", &ingest)] {
                assert_eq!(
                    r.verified_proofs, r.provs,
                    "every provenance proof must verify client-side ({pass} pass)"
                );
            }
            table.push_row(vec![
                conns.to_string(),
                depth.to_string(),
                quiet.total_ops.to_string(),
                quiet.provs.to_string(),
                (quiet.historical_provs + ingest.historical_provs).to_string(),
                fmt_f64(quiet.ops_per_s()),
                fmt_f64(quiet.latency.p99_us),
                fmt_f64(ingest.ops_per_s()),
                fmt_f64(ingest.latency.p99_us),
                writer_blocks.to_string(),
                (after.snapshots_retired - before.snapshots_retired).to_string(),
                (after.requests_shed - before.requests_shed).to_string(),
            ]);
            points.push(Point {
                connections: conns,
                depth: depth as usize,
                quiet,
                ingest,
                writer_blocks,
                snapshots_retired_delta: after.snapshots_retired - before.snapshots_retired,
                served_delta,
                shed_delta: after.requests_shed - before.requests_shed,
                timed_out_delta: after.requests_timed_out - before.requests_timed_out,
                idle_delta: after.idle_disconnects - before.idle_disconnects,
                transient_io_delta: after.transient_io_errors - before.transient_io_errors,
            });
        }
    }
    table.print();
    let out = args.get_str("out", "results/server.csv");
    table.write_csv(&out).expect("write CSV");
    println!("wrote {out}");

    let meta = RunMeta {
        engine,
        transport,
        preload_blocks,
        writes_per_block,
        accounts,
        prov_every,
        prov_span,
        historical_every,
        retain,
        ingest_interval_us: ingest_interval.as_micros() as u64,
        ingest_batch,
    };
    let json = server_json(&meta, &points);
    let json_out = args.get_str("json-out", "BENCH_server.json");
    if let Some(parent) = std::path::Path::new(&json_out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("json-out dir");
        }
    }
    std::fs::write(&json_out, &json).expect("write JSON");
    println!("wrote {json_out}");

    if args.get_str("assert-served-ops", "false") == "true" {
        for p in &points {
            // Each pass issues one extra Info request per connection to
            // learn the chain head, and the ingest pass's paced writer adds
            // one PutBatch request per block it applied.
            let expected =
                p.quiet.total_ops + p.ingest.total_ops + 2 * p.connections as u64 + p.writer_blocks;
            assert_eq!(
                p.served_delta, expected,
                "server accounted {} requests for the {}x{} point, clients issued {expected}",
                p.served_delta, p.connections, p.depth
            );
        }
        println!(
            "assert-served-ops: request accounting matches across {} sweep points",
            points.len()
        );
    }

    if args.get_str("assert-snapshot-reads", "false") == "true" {
        let m = served.metrics.snapshot();
        assert_eq!(
            m.reads_blocked_on_writer, 0,
            "reads must never block on the writer lock (the MVCC invariant)"
        );
        assert!(
            m.snapshot_reads > 0,
            "no read went through the snapshot path — the MVCC read path is not wired"
        );
        assert!(
            m.historical_provs > 0,
            "no historical provenance query hit a retained snapshot"
        );
        println!(
            "assert-snapshot-reads: {} snapshot reads, {} historical provs, \
             0 reads blocked on the writer",
            m.snapshot_reads, m.historical_provs
        );
    }

    served.handle.shutdown();
}
