//! The traced pass: per-layer metrics of one workload, measured from outside.
//!
//! End-to-end metrics never come from here. After the workload's own set-up
//! this pass (1) counts, over an untraced closed-loop sample, what the
//! engine's public counters say each `get` / provenance query cost; (2)
//! replays a seeded sample of requests and blocks with spans around every
//! call into a layer; (3) probes the open-loop generator at the three rates
//! (workload 5 runs its full mixed phase instead); (4) times each substrate
//! crate directly on the workload's data (`layers.rs`). The close → reopen →
//! `Hstate` check happens before the server starts, as in the untraced pass.
//!
//! The same pass runs on every workload — what differs is the data, the cache
//! size, the engine and its configuration — so every per-layer metric has a
//! measured value on every workload.

use std::time::{Duration, Instant};

use cole_core::{AsyncCole, Cole, ColeProof, ComponentProof, MetricsSnapshot};
use cole_primitives::{Address, CompoundKey, Result, StateValue};
use cole_protocol::{Client, Frame, Message, ProvResponse};
use cole_server::ReadSnapshot;
use cole_workloads::{Block, Transaction};

use crate::engine::{close_and_reopen, ingest, BenchEngine};
use crate::json::Json;
use crate::layers::{self, WalPayload, FIXTURE_ENTRIES};
use crate::loadgen::ReadGen;
use crate::model::Model;
use crate::phases::{get_phase, prov_is_right, prov_phase, ProvAnswer};
use crate::report::Report;
use crate::span::SpanLog;
use crate::stats::{median, segment_percentile};
use crate::workloads::{
    max_rate_within_limit, open_loop, prepare, workdir, EngineKind, Kind, Opts, Served, Spec,
    Stage, STEP_SHARES,
};

/// Reads of each kind, and blocks, in the traced sample at full scale.
const TRACED_READS: u64 = 5_000;
const TRACED_BLOCKS: usize = 1_000;
/// Share of `--seconds` each untraced counting phase and each open-loop
/// probe step runs for.
const COUNTED: f64 = 0.1;
const PROBE_STEP: f64 = 0.05;

/// Runs one workload's traced pass.
pub fn run_traced(spec: &Spec, opts: &Opts) -> Result<Report> {
    match spec.engine {
        EngineKind::Sync => traced::<Cole>(spec, opts),
        EngineKind::Async => traced::<AsyncCole>(spec, opts),
    }
}

fn delta(
    after: &MetricsSnapshot,
    before: &MetricsSnapshot,
    field: fn(&MetricsSnapshot) -> u64,
) -> f64 {
    (field(after) - field(before)) as f64
}

fn rate(hits: f64, misses: f64) -> f64 {
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

fn traced<E: BenchEngine>(spec: &Spec, opts: &Opts) -> Result<Report> {
    let mut report = Report::new(spec.name, true);
    let dir = workdir(spec, opts);
    let scratch = dir.with_extension("scratch");
    let outcome = traced_in::<E>(spec, opts, &dir, &scratch, &mut report);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&scratch).ok();
    outcome?;
    report.set(
        "failed_ops_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    Ok(report)
}

fn traced_in<E: BenchEngine>(
    spec: &Spec,
    opts: &Opts,
    dir: &std::path::Path,
    scratch: &std::path::Path,
    report: &mut Report,
) -> Result<()> {
    let Stage {
        config,
        inputs,
        mut model,
        mut engine,
        tail,
        reopen,
        preload,
        ..
    } = prepare::<E>(spec, opts, dir)?;
    report.set("loadgen.workload_digest", inputs.digest as f64);

    // ---- The write side, counted over the workload's own ingest: the
    // measured block stream (ingest kinds) or the preload (served kinds).
    let (written, versions, blocks_in, facts) = if spec.kind == Kind::Ingest {
        let before = engine.metrics_handle().snapshot();
        let versions_before = model.versions();
        ingest(&mut engine, &inputs.run_blocks)?;
        for block in &inputs.run_blocks {
            model.apply(block);
        }
        let after = engine.metrics_handle().snapshot();
        let reopened = close_and_reopen(
            engine,
            dir,
            config,
            &[&inputs.setup_blocks, &inputs.run_blocks],
            &model,
        )?;
        let facts = reopened.facts;
        engine = reopened.engine;
        (
            (before, after),
            model.versions() - versions_before,
            inputs.run_blocks.len(),
            facts,
        )
    } else {
        (
            (MetricsSnapshot::default(), preload.metrics),
            preload.versions,
            preload.blocks,
            reopen.expect("served set-up reopens once"),
        )
    };
    let (before, after) = written;
    report.set("core.flushes", delta(&after, &before, |m| m.flushes));
    report.set("core.merges", delta(&after, &before, |m| m.merges));
    report.set(
        "core.pages_written",
        delta(&after, &before, |m| m.pages_written),
    );
    report.set(
        "core.write_amp",
        delta(&after, &before, |m| m.entries_merged) / versions.max(1) as f64,
    );
    report.set(
        "storage.wal_fsyncs_per_block",
        delta(&after, &before, |m| m.wal_fsyncs) / blocks_in.max(1) as f64,
    );
    report.set("core.reopen_ms", facts.reopen_ms);
    report.set("storage.data_bytes_share", facts.data_bytes_share);
    report.set("storage.index_bytes_share", facts.index_bytes_share);
    report.count(1, u64::from(!facts.hstate_matches));
    report
        .notes
        .insert("storage_bytes_per_version", facts.bytes_per_version);

    // ---- The read side, behind the server.
    let mut served = Served::start(engine, &tail)?;
    let mut client = served.client()?;
    let n_reads = if opts.smoke { 500 } else { TRACED_READS };
    let mut keys = ReadGen::new(&spec.reads, &inputs.addrs, opts.seed);
    for _ in 0..n_reads {
        let _ = client.get(keys.next_get());
    }

    // (1) Counts per operation, and the untraced medians the spans are
    // compared with.
    let m0 = served.shared.metrics().snapshot();
    let gets = get_phase(&mut client, &mut keys, &model, opts.budget(COUNTED));
    let m1 = served.shared.metrics().snapshot();
    let provs = prov_phase(
        &mut client,
        &mut keys,
        &model,
        &served.anchors,
        &served.targets(4),
        0,
        opts.budget(COUNTED),
    );
    let m2 = served.shared.metrics().snapshot();
    report.count(gets.lat_us.len() as u64, gets.failed);
    report.count(provs.lat_us.len() as u64, provs.failed);
    let (n_get, n_prov) = (gets.lat_us.len() as f64, provs.lat_us.len() as f64);
    report.set(
        "core.runs_searched_per_get",
        delta(&m1, &m0, |m| m.runs_searched) / n_get,
    );
    report.set(
        "core.bloom_skips_per_get",
        delta(&m1, &m0, |m| m.bloom_skips) / n_get,
    );
    report.set(
        "core.pages_read_per_get",
        delta(&m1, &m0, |m| m.pages_read) / n_get,
    );
    report.set(
        "core.pages_read_per_prov",
        delta(&m2, &m1, |m| m.pages_read) / n_prov,
    );
    report.set(
        "core.merkle_pages_per_prov",
        delta(&m2, &m1, |m| m.merkle_pages_read) / n_prov,
    );
    report.notes.insert(
        "merkle_pages_read_during_gets",
        delta(&m1, &m0, |m| m.merkle_pages_read),
    );
    // Value pages are what `get` reads; index and Merkle pages are judged
    // over both phases (a `get` reads no Merkle page at all).
    report.set(
        "storage.cache_hit_rate.value",
        rate(
            delta(&m1, &m0, |m| m.value_cache_hits),
            delta(&m1, &m0, |m| m.value_cache_misses),
        ),
    );
    report.set(
        "storage.cache_hit_rate.index",
        rate(
            delta(&m2, &m0, |m| m.index_cache_hits),
            delta(&m2, &m0, |m| m.index_cache_misses),
        ),
    );
    report.set(
        "storage.cache_hit_rate.merkle",
        rate(
            delta(&m2, &m0, |m| m.merkle_cache_hits),
            delta(&m2, &m0, |m| m.merkle_cache_misses),
        ),
    );
    report.notes.insert(
        "cache_hit_rate_value_during_provs",
        rate(
            delta(&m2, &m1, |m| m.value_cache_hits),
            delta(&m2, &m1, |m| m.value_cache_misses),
        ),
    );
    let untraced_get_p50 = median(&gets.lat_us);
    let untraced_prov_p50 = median(&provs.lat_us);

    // (2) The traced sample.
    let mut log = SpanLog::new();
    let sizes = trace_reads(
        &mut log,
        &served,
        &mut client,
        &model,
        spec,
        opts,
        &inputs.addrs,
        n_reads,
        report,
    );
    // `SharedEngine::get` / `prov_query` on the same keys the traced roots
    // used (same stream, later, so the cache is as cold as it was for them).
    let mut again = ReadGen::salted(&spec.reads, &inputs.addrs, opts.seed, 2);
    let shared_get_us: Vec<f64> = (0..n_reads)
        .map(|_| {
            let addr = again.next_get();
            let started = Instant::now();
            let _ = served.shared.get(addr);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let shared_prov_us: Vec<f64> = (0..n_reads)
        .map(|_| {
            let (addr, lo, hi) = again.next_prov(served.head);
            let started = Instant::now();
            let _ = served.shared.prov_query(addr, lo, hi);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.set("server.shared_get_us", median(&shared_get_us));
    report.set("server.shared_prov_us", median(&shared_prov_us));
    report.set(
        "protocol.wire_overhead_us",
        median(&log.durations_us("request", Some("get"))) - median(&shared_get_us),
    );

    let all_blocks: Vec<&Block> = inputs
        .setup_blocks
        .iter()
        .chain(&inputs.run_blocks)
        .collect();
    let n_blocks = if opts.smoke { 100 } else { TRACED_BLOCKS }.min(all_blocks.len());
    let payloads = trace_blocks::<E>(
        &mut log,
        spec,
        scratch,
        &all_blocks[..n_blocks],
        &mut served,
        &mut model,
        report,
    )?;

    let span_p50 = |name: &str, tag: &str| median(&log.durations_us(name, Some(tag)));
    report.set(
        "protocol.encode_req_ns",
        span_p50("protocol.encode_req", "get") * 1e3,
    );
    report.set(
        "protocol.encode_resp_us",
        span_p50("protocol.encode_resp", "prov"),
    );
    report.set(
        "protocol.decode_resp_us",
        span_p50("protocol.decode_resp", "prov"),
    );
    report.set(
        "protocol.proof_decode_us",
        span_p50("protocol.proof_decode", "prov"),
    );
    report.set("protocol.verify_us", span_p50("protocol.verify", "prov"));
    report.set(
        "protocol.resp_bytes_per_get",
        sizes.get_resp_bytes / n_reads as f64,
    );
    report.set(
        "protocol.resp_bytes_per_prov",
        sizes.prov_resp_bytes / n_reads as f64,
    );
    report.set(
        "core.proof_bloom_share",
        sizes.bloom_bytes / sizes.proof_bytes.max(1.0),
    );
    report.set(
        "server.snapshot_pin_ns",
        span_p50("server.snapshot_pin", "get") * 1e3,
    );
    report.set("core.snapshot_get_us", span_p50("core.snapshot_get", "get"));
    report.set(
        "core.snapshot_prov_us",
        span_p50("core.snapshot_prov", "prov"),
    );
    report.set(
        "core.put_batch_us",
        median(&log.durations_us("core.put_batch", None)),
    );
    report.set(
        "core.finalize_noflush_us",
        span_p50("core.finalize_block", "noflush"),
    );
    let mut flushing = log.durations_us("core.finalize_block", Some("flush"));
    flushing.extend(log.durations_us("core.finalize_block", Some("merge")));
    report.set("core.finalize_flush_us", median(&flushing));
    let apply_p50 = median(&log.durations_us("server.apply_block", None));
    let block = log.breakdown("block", "");
    report.set("server.apply_block_us", apply_p50);
    report.set("server.publish_overhead_us", apply_p50 - block.root_p50_us);

    let get = log.breakdown("request", "get");
    let prov = log.breakdown("request", "prov");
    report.set("trace.remainder_share.get", get.remainder_share());
    report.set("trace.remainder_share.prov", prov.remainder_share());
    report.set("trace.remainder_share.block", block.remainder_share());
    let (traced_p50, untraced_p50) = if spec.kind == Kind::ProvHot {
        (prov.root_p50_us, untraced_prov_p50)
    } else {
        (get.root_p50_us, untraced_get_p50)
    };
    report.set(
        "trace.overhead_share",
        (traced_p50 - untraced_p50) / untraced_p50,
    );
    let mut breakdowns = Json::obj();
    for (name, b) in [("get", &get), ("prov", &prov), ("block", &block)] {
        let mut children = Json::obj();
        for (child, p50) in &b.children {
            children.insert(child, *p50);
        }
        breakdowns.insert(
            name,
            Json::obj()
                .set("roots", b.roots)
                .set("root_p50_us", b.root_p50_us)
                .set("children_p50_us", children)
                .set("remainder_us", b.remainder_us)
                .set("remainder_share", b.remainder_share()),
        );
    }
    report.notes.insert("breakdown", breakdowns);
    // A layer's self time: its span minus the spans it caused.
    let mut self_times = Json::obj();
    for (name, p50) in log.self_p50_us_by_name() {
        self_times.insert(name, p50);
    }
    report.notes.insert("self_time_p50_us", self_times);
    report.notes.insert("untraced_get_p50_us", untraced_get_p50);
    report
        .notes
        .insert("untraced_prov_p50_us", untraced_prov_p50);
    // On the hot workload: how much of a verified provenance query is spent
    // hashing, in Merkle and MB-tree work and in the client-side check —
    // everything in the query and its verification except page reads.
    report.notes.insert(
        "proof_path_share_of_prov_p50",
        (span_p50("core.snapshot_prov", "prov") + span_p50("protocol.verify", "prov"))
            / prov.root_p50_us,
    );

    // (3) The generator itself, and the three arrival rates.
    let started = Instant::now();
    let mut drawn = ReadGen::salted(&spec.reads, &inputs.addrs, opts.seed, 5);
    let draws = 200_000u32;
    for _ in 0..draws {
        std::hint::black_box(drawn.next_get());
    }
    report.set(
        "loadgen.gen_ns_per_op",
        started.elapsed().as_nanos() as f64 / f64::from(draws),
    );
    drop(client);
    let (writes, durations): (Vec<_>, [Duration; 3]) = if spec.kind == Kind::Mixed {
        let first = served.head + 1;
        let writes = inputs
            .run_blocks
            .iter()
            .zip(first..)
            .map(|(block, height)| rewrite(&mut model, height, block))
            .collect();
        (writes, STEP_SHARES.map(|s| opts.budget(s)))
    } else {
        (Vec::new(), [opts.budget(PROBE_STEP); 3])
    };
    let run = open_loop(
        &served,
        spec,
        opts.seed,
        &inputs.addrs,
        &model,
        &writes,
        durations,
    )?;
    for step in &run.steps {
        report.count(step.scheduled, step.failed);
    }
    report.count(writes.len() as u64, run.writer.failed + run.bad_roots);
    let p99 = |i: usize| segment_percentile(&run.steps[i].get_us, 0.99).value;
    // On the mixed workload the provenance tail that matters is the one
    // beside the writer, at the middle rate.
    let prov_us = if spec.kind == Kind::Mixed {
        &run.steps[1].prov_us
    } else {
        &provs.lat_us
    };
    report.set("prov_p99_us", segment_percentile(prov_us, 0.99).value);
    report.set("loadgen.get_p99_us.low", p99(0));
    report.set("loadgen.get_p99_us.high", p99(2));
    report.set("loadgen.late_share", run.steps[1].late_share());
    report.set("loadgen.backlog_max", run.steps[1].backlog_max as f64);
    report.set(
        "loadgen.max_rate_within_limit",
        max_rate_within_limit(&run.steps),
    );
    report.notes.insert(
        "late_share_by_rate",
        Json::Arr(run.steps.iter().map(|s| s.late_share().into()).collect()),
    );

    let totals = served.shared.metrics().snapshot();
    report.set("server.requests_served", totals.requests_served as f64);
    report.set("server.requests_shed", totals.requests_shed as f64);
    report.set(
        "server.requests_timed_out",
        totals.requests_timed_out as f64,
    );
    report.set(
        "server.reads_blocked_on_writer",
        totals.reads_blocked_on_writer as f64,
    );
    report.set(
        "server.snapshots_published",
        totals.snapshots_published as f64,
    );
    report.set("server.snapshots_retired", totals.snapshots_retired as f64);
    report.set(
        "core.retired_runs_deleted",
        totals.retired_runs_deleted as f64,
    );
    report.count(
        0,
        totals.requests_shed + totals.requests_timed_out + totals.reads_blocked_on_writer,
    );
    drop(served.stop()?);

    // (4) Each substrate crate on the workload's data.
    let fixture: Vec<(CompoundKey, StateValue)> = model
        .sorted_entries(FIXTURE_ENTRIES)
        .into_iter()
        .map(|(addr, height, value)| (CompoundKey::new(addr, height), value))
        .collect();
    layers::measure(
        report,
        &scratch.join("layers"),
        &config,
        &fixture,
        &payloads,
    )?;

    let path = opts.out.join(format!(
        "{}{}.trace.json",
        spec.name,
        opts.label
            .as_ref()
            .map_or(String::new(), |l| format!(".{l}"))
    ));
    std::fs::create_dir_all(&opts.out)?;
    std::fs::write(path, log.to_json().to_line())?;
    report.notes.insert("spans", log.spans().len());
    Ok(())
}

/// The write list of `block`, re-dated to `height` and booked in `model`:
/// blocks applied through the server land at the served chain's next height,
/// whatever height they were generated for.
fn rewrite(model: &mut Model, height: u64, block: &Block) -> Vec<(Address, StateValue)> {
    let mut scratch = Model::default();
    let writes = scratch.apply(block);
    model.apply(&Block {
        height,
        transactions: writes
            .iter()
            .map(|&(addr, value)| Transaction::Write { addr, value })
            .collect(),
    })
}

struct Sizes {
    get_resp_bytes: f64,
    prov_resp_bytes: f64,
    proof_bytes: f64,
    bloom_bytes: f64,
}

/// Roots: `n` `Client::get` and `n` `Client::prov_query_verified` round
/// trips. Children: the same kind of request executed stage by stage through
/// the public functions of each layer. The replays use a second key from the
/// same distribution — a replay of the root's own key would find the pages
/// the root just loaded, and a cold workload's stages would all look warm.
#[allow(clippy::too_many_arguments)]
fn trace_reads<E: BenchEngine>(
    log: &mut SpanLog,
    served: &Served<E>,
    client: &mut Client,
    model: &Model,
    spec: &Spec,
    opts: &Opts,
    addrs: &[Address],
    n: u64,
    report: &mut Report,
) -> Sizes {
    let mut roots = ReadGen::salted(&spec.reads, addrs, opts.seed, 2);
    let mut replays = ReadGen::salted(&spec.reads, addrs, opts.seed, 3);
    let mut sizes = Sizes {
        get_resp_bytes: 0.0,
        prov_resp_bytes: 0.0,
        proof_bytes: 0.0,
        bloom_bytes: 0.0,
    };
    let mut failed = 0u64;
    for rid in 0..n {
        let addr = roots.next_get();
        let (root, got) = log.record(None, rid, "request", "get", || client.get(addr));
        failed += u64::from(!matches!(got, Ok(v) if v == model.latest(addr)));

        let addr = replays.next_get();
        let at = Some(root);
        let (_, _) = log.record(at, rid, "protocol.encode_req", "get", || {
            Frame {
                request_id: rid,
                msg: Message::Get { addr },
            }
            .encode()
        });
        let (_, snap) = log.record(at, rid, "server.snapshot_pin", "get", || {
            served.shared.head_snapshot()
        });
        let (_, value) = log.record(at, rid, "core.snapshot_get", "get", || snap.get(addr));
        let value = value.ok().flatten();
        failed += u64::from(value != model.latest(addr));
        let (_, bytes) = log.record(at, rid, "protocol.encode_resp", "get", || {
            Frame {
                request_id: rid,
                msg: Message::GetOk { value },
            }
            .encode()
        });
        let (_, decoded) = log.record(at, rid, "protocol.decode_resp", "get", || {
            Frame::decode_payload(&bytes[4..])
        });
        failed += u64::from(decoded.is_err());
        sizes.get_resp_bytes += bytes.len() as f64;
    }
    for rid in n..2 * n {
        let (addr, lo, hi) = roots.next_prov(served.head);
        let (root, got) = log.record(None, rid, "request", "prov", || {
            client.prov_query_verified(addr, lo, hi)
        });
        failed += u64::from(!got.is_ok_and(|r| r.values == model.range(addr, lo, hi)));

        let (addr, lo, hi) = replays.next_prov(served.head);
        let at = Some(root);
        log.record(at, rid, "protocol.encode_req", "prov", || {
            Frame {
                request_id: rid,
                msg: Message::ProvQuery {
                    addr,
                    blk_lower: lo,
                    blk_upper: hi,
                    at_height: None,
                },
            }
            .encode()
        });
        let (_, snap) = log.record(at, rid, "server.snapshot_pin", "prov", || {
            served.shared.head_snapshot()
        });
        let (_, result) = log.record(at, rid, "core.snapshot_prov", "prov", || {
            snap.prov_query(addr, lo, hi)
        });
        let Ok(result) = result else {
            failed += 1;
            continue;
        };
        let response = Message::ProvOk {
            height: snap.height(),
            hstate: snap.hstate(),
            values: result.values,
            proof: result.proof,
        };
        let (_, bytes) = log.record(at, rid, "protocol.encode_resp", "prov", || {
            Frame {
                request_id: rid,
                msg: response,
            }
            .encode()
        });
        let (_, decoded) = log.record(at, rid, "protocol.decode_resp", "prov", || {
            Frame::decode_payload(&bytes[4..])
        });
        sizes.prov_resp_bytes += bytes.len() as f64;
        let Ok(Frame {
            msg:
                Message::ProvOk {
                    height,
                    hstate,
                    values,
                    proof,
                },
            ..
        }) = decoded
        else {
            failed += 1;
            continue;
        };
        let response = ProvResponse {
            height,
            hstate,
            values,
            proof,
        };
        let (verify, verified) = log.record(at, rid, "protocol.verify", "prov", || {
            response.verify(addr, lo, hi)
        });
        // `verify` decodes the proof and then checks it; the decode alone,
        // again, is its child, so `verify`'s self time is the check.
        let (_, proof) = log.record(Some(verify), rid, "protocol.proof_decode", "prov", || {
            ColeProof::from_bytes(&response.proof)
        });
        sizes.proof_bytes += response.proof.len() as f64;
        if let Ok(proof) = proof {
            sizes.bloom_bytes += proof
                .components
                .iter()
                .map(|c| match c {
                    ComponentProof::RunBloomNegative { bloom, .. } => bloom.len() as f64,
                    _ => 0.0,
                })
                .sum::<f64>();
        }
        let answer = ProvAnswer {
            height: response.height,
            hstate: response.hstate,
            proof_bytes: response.proof.len(),
            values: response.values,
        };
        let right = prov_is_right(model, &served.anchors, addr, lo, hi, &answer);
        failed += u64::from(!(matches!(verified, Ok(true)) && right));
    }
    report.count(4 * n, failed);
    sizes
}

/// Roots: `block` — `begin_block` + `put_batch` + `finalize_block` on a bare
/// scratch engine of the workload's configuration — with the two calls as
/// children, `finalize_block` tagged by what the metrics delta says it did
/// and (with a WAL) a `storage.wal_append` replay of the same payload under
/// it. Beside them, `server.apply_block`: `SharedEngine::apply_block` of the
/// same write lists on the served engine. Returns the blocks' WAL payloads.
fn trace_blocks<E: BenchEngine>(
    log: &mut SpanLog,
    spec: &Spec,
    scratch: &std::path::Path,
    blocks: &[&Block],
    served: &mut Served<E>,
    model: &mut Model,
    report: &mut Report,
) -> Result<Vec<WalPayload>> {
    std::fs::remove_dir_all(scratch).ok();
    let config = spec.config();
    let mut bare = E::open_at(&scratch.join("engine"), config)?;
    let (mut wal, _) =
        cole_storage::WriteAheadLog::open(scratch.join("replay.wal"), config.wal_sync_policy)?;
    let metrics = bare.metrics_handle();
    let mut scratch_model = Model::default();
    let mut payloads = Vec::with_capacity(blocks.len());
    let mut failed = 0u64;
    for (i, block) in blocks.iter().enumerate() {
        let rid = 1_000_000 + i as u64;
        let writes = scratch_model.apply(block);
        let before = metrics.snapshot();
        let t0 = Instant::now();
        bare.begin_block(block.height)?;
        let t1 = Instant::now();
        bare.put_batch(&writes)?;
        let t2 = Instant::now();
        bare.finalize_block()?;
        let t3 = Instant::now();
        let after = metrics.snapshot();
        let tag = if after.merges > before.merges {
            "merge"
        } else if after.flushes > before.flushes {
            "flush"
        } else {
            "noflush"
        };
        let root = log.adopt(None, rid, "block", "", (t0, t3));
        log.adopt(Some(root), rid, "core.put_batch", "", (t1, t2));
        let finalize = log.adopt(Some(root), rid, "core.finalize_block", tag, (t2, t3));

        let keyed: Vec<(CompoundKey, StateValue)> = writes
            .iter()
            .map(|&(addr, value)| (CompoundKey::new(addr, block.height), value))
            .collect();
        let parent = spec.wal.then_some(finalize);
        let (_, appended) = log.record(parent, rid, "storage.wal_append", "", || {
            wal.append_block(block.height, &keyed)
        });
        appended?;
        payloads.push((block.height, keyed));

        let height = served.head + 1;
        let writes = rewrite(model, height, block);
        let (_, applied) = log.record(None, rid, "server.apply_block", "", || {
            served.shared.apply_block(&writes)
        });
        match applied {
            Ok((h, root)) if h == height => {
                served.anchors.insert(h, root);
                served.head = h;
            }
            _ => failed += 1,
        }
    }
    let (oldest, head) = served.shared.retained_heights();
    served.retained = (oldest..head).collect();
    report.count(2 * blocks.len() as u64, failed);
    drop(bare);
    Ok(payloads)
}
