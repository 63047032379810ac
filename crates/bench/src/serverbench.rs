//! Closed-loop load generator for the served engine (`exp_server`).
//!
//! Each connection runs its own thread and keeps up to `depth` requests in
//! flight (pipelining): it fills the window with sends, then consumes one
//! response per new send, timing every request from its send instant. The
//! server answers in request order, so responses pop the oldest pending
//! entry. Every provenance response is verified client-side before it
//! counts — a run that serves unverifiable proofs fails, it does not just
//! score lower.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cole_primitives::{Address, ColeError, Result, StateValue};
use cole_protocol::{Client, Connection, Message, ProvResponse};

use crate::stats::LatencyStats;

/// Workload shape of one closed-loop run.
#[derive(Clone, Copy, Debug)]
pub struct ServerLoadConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests each connection keeps in flight.
    pub depth: usize,
    /// Requests each connection issues in total.
    pub ops_per_connection: u64,
    /// Size of the preloaded key space the readers draw from.
    pub accounts: u64,
    /// Every `prov_every`-th request is a provenance query with client-side
    /// proof verification; `0` disables provenance traffic.
    pub prov_every: u64,
    /// Block span `[head - prov_span + 1, head]` of each provenance query.
    pub prov_span: u64,
    /// Every `historical_every`-th provenance query targets a retained
    /// *historical* snapshot (`at_height` = the head most recently learned
    /// from a provenance response), so the proof must verify against that
    /// height's own `Hstate`; `0` keeps all provenance traffic at the head.
    pub historical_every: u64,
}

/// Aggregate outcome of one closed-loop run.
#[derive(Clone, Copy, Debug)]
pub struct ServerLoadResult {
    /// Connections that ran.
    pub connections: usize,
    /// Pipelining depth per connection.
    pub depth: usize,
    /// Requests served across all connections.
    pub total_ops: u64,
    /// Point lookups among them.
    pub gets: u64,
    /// Provenance queries among them.
    pub provs: u64,
    /// Provenance queries answered from a retained historical snapshot
    /// (`at_height` set); a subset of `provs`.
    pub historical_provs: u64,
    /// Provenance proofs that verified client-side (must equal `provs`).
    pub verified_proofs: u64,
    /// Retries the clients performed. Structurally `0` here: the raw
    /// pipelined clients treat every error frame as fatal — retrying load
    /// comes from [`run_chaos_phase`](crate::run_chaos_phase), which
    /// reports real values in `BENCH_chaos.json`.
    pub client_retries: u64,
    /// Wall-clock time of the slowest connection.
    pub elapsed: Duration,
    /// Request latencies pooled across connections.
    pub latency: LatencyStats,
}

impl ServerLoadResult {
    /// Aggregate throughput in requests per second.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.total_ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Preloads the served engine over the wire: `blocks` blocks of
/// `writes_per_block` writes round-robin over `accounts` addresses, so every
/// address has at least one version once `blocks * writes_per_block >=
/// accounts`. Returns the final head height.
///
/// # Errors
///
/// Returns an error on transport failure or a server-side error.
pub fn preload_over_wire(
    client: &mut Client,
    blocks: u64,
    writes_per_block: u64,
    accounts: u64,
) -> Result<u64> {
    let mut height = 0;
    let mut next = 0u64;
    for blk in 1..=blocks {
        let batch: Vec<_> = (0..writes_per_block)
            .map(|_| {
                let addr = Address::from_low_u64(next % accounts);
                next += 1;
                (addr, StateValue::from_u64(blk))
            })
            .collect();
        height = client.put_batch(&batch)?.0;
    }
    Ok(height)
}

/// What a pending pipelined request expects back.
enum Expect {
    Get,
    Prov {
        addr: Address,
        lo: u64,
        hi: u64,
        /// The targeted historical height, `None` for a head query.
        at: Option<u64>,
    },
}

struct PerConnection {
    gets: u64,
    provs: u64,
    historical: u64,
    verified: u64,
    elapsed: Duration,
    latencies: Vec<Duration>,
}

/// Runs the closed-loop workload: `connections` threads, each connecting via
/// `connect` and issuing `ops_per_connection` requests with `depth` in
/// flight. Request latencies are measured send-to-receive per request.
///
/// # Errors
///
/// Returns the first connection error, server error, or proof-verification
/// failure of any thread.
pub fn run_closed_loop<F>(connect: F, cfg: &ServerLoadConfig) -> Result<ServerLoadResult>
where
    F: Fn() -> Result<Box<dyn Connection>> + Send + Sync,
{
    assert!(cfg.connections >= 1, "at least one connection");
    assert!(cfg.depth >= 1, "pipelining depth is at least one");
    let per: Vec<Result<PerConnection>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections)
            .map(|thread| {
                let connect = &connect;
                scope.spawn(move || run_connection(connect()?, cfg, thread as u64))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(ColeError::InvalidState("load thread panicked".into())))
            })
            .collect()
    });

    let mut latencies = Vec::new();
    let mut result = ServerLoadResult {
        connections: cfg.connections,
        depth: cfg.depth,
        total_ops: 0,
        gets: 0,
        provs: 0,
        historical_provs: 0,
        verified_proofs: 0,
        client_retries: 0,
        elapsed: Duration::ZERO,
        latency: LatencyStats::default(),
    };
    for outcome in per {
        let c = outcome?;
        result.gets += c.gets;
        result.provs += c.provs;
        result.historical_provs += c.historical;
        result.verified_proofs += c.verified;
        result.elapsed = result.elapsed.max(c.elapsed);
        latencies.extend(c.latencies);
    }
    result.total_ops = result.gets + result.provs;
    result.latency = LatencyStats::from_durations(&latencies);
    Ok(result)
}

fn run_connection(
    conn: Box<dyn Connection>,
    cfg: &ServerLoadConfig,
    thread: u64,
) -> Result<PerConnection> {
    let mut client = Client::from_boxed(conn);
    let (_, head, _, _) = client.info()?;
    let prov_lo = head.saturating_sub(cfg.prov_span.saturating_sub(1)).max(1);
    // Cheap deterministic key sequence, seeded per thread so connections do
    // not stampede the same address (splitmix64 step).
    let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(thread + 1);
    let mut next_key = move || {
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % cfg.accounts
    };

    let mut pending: VecDeque<(u64, Instant, Expect)> = VecDeque::with_capacity(cfg.depth);
    let mut out = PerConnection {
        gets: 0,
        provs: 0,
        historical: 0,
        verified: 0,
        elapsed: Duration::ZERO,
        latencies: Vec::with_capacity(cfg.ops_per_connection as usize),
    };
    // The most recent head height a provenance response reported; a
    // historical query targets this — a height the server provably served
    // moments ago, well inside any reasonable retention window even while
    // a writer advances the chain underneath.
    let mut last_known_height = head;
    let mut prov_seq = 0u64;
    let started = Instant::now();
    let mut sent = 0u64;
    let mut received = 0u64;
    while received < cfg.ops_per_connection {
        while sent < cfg.ops_per_connection && pending.len() < cfg.depth {
            let addr = Address::from_low_u64(next_key());
            let is_prov = cfg.prov_every > 0 && (sent + 1).is_multiple_of(cfg.prov_every);
            let (msg, expect) = if is_prov {
                prov_seq += 1;
                let at = (cfg.historical_every > 0
                    && prov_seq.is_multiple_of(cfg.historical_every))
                .then_some(last_known_height);
                (
                    Message::ProvQuery {
                        addr,
                        blk_lower: prov_lo,
                        blk_upper: head,
                        at_height: at,
                    },
                    Expect::Prov {
                        addr,
                        lo: prov_lo,
                        hi: head,
                        at,
                    },
                )
            } else {
                (Message::Get { addr }, Expect::Get)
            };
            let id = client.send(msg)?;
            pending.push_back((id, Instant::now(), expect));
            sent += 1;
        }
        let frame = client.recv()?;
        let (id, at, expect) = pending
            .pop_front()
            .ok_or_else(|| ColeError::InvalidState("response with nothing pending".into()))?;
        if frame.request_id != id {
            return Err(ColeError::InvalidState(format!(
                "response {} arrived while {id} was the oldest pending request",
                frame.request_id
            )));
        }
        out.latencies.push(at.elapsed());
        received += 1;
        match (expect, frame.msg) {
            (Expect::Get, Message::GetOk { .. }) => out.gets += 1,
            (
                Expect::Prov { addr, lo, hi, at },
                Message::ProvOk {
                    height,
                    hstate,
                    values,
                    proof,
                },
            ) => {
                out.provs += 1;
                match at {
                    Some(target) => {
                        if height != target {
                            return Err(ColeError::InvalidState(format!(
                                "historical query for height {target} was answered at {height}"
                            )));
                        }
                        out.historical += 1;
                    }
                    None => last_known_height = height,
                }
                let resp = ProvResponse {
                    height,
                    hstate,
                    values,
                    proof,
                };
                if !resp.verify(addr, lo, hi)? {
                    return Err(ColeError::VerificationFailed(format!(
                        "served proof for {addr:?} [{lo}, {hi}] failed verification \
                         (at_height {at:?})"
                    )));
                }
                out.verified += 1;
            }
            (_, Message::Error { code, message }) => {
                return Err(ColeError::InvalidState(format!(
                    "server error ({code:?}): {message}"
                )));
            }
            (_, other) => {
                return Err(ColeError::InvalidState(format!(
                    "response kind {} does not match the pending request",
                    other.op_name()
                )));
            }
        }
    }
    out.elapsed = started.elapsed();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cole_core::{Cole, ColeConfig};
    use cole_protocol::pipe_transport;
    use cole_server::{serve, ServerConfig, SharedEngine};
    use std::sync::Arc;

    #[test]
    fn closed_loop_verifies_every_proof() {
        let dir = std::env::temp_dir().join(format!("cole-sbench-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let engine = Cole::open(&dir, ColeConfig::default().with_memtable_capacity(64)).unwrap();
        let shared = Arc::new(SharedEngine::new(engine));
        let (listener, connector) = pipe_transport();
        let handle = serve(shared, Box::new(listener), ServerConfig::default());

        let mut writer = Client::new(connector.connect().unwrap());
        let head = preload_over_wire(&mut writer, 20, 16, 32).unwrap();
        assert_eq!(head, 20);

        let cfg = ServerLoadConfig {
            connections: 3,
            depth: 4,
            ops_per_connection: 60,
            accounts: 32,
            prov_every: 10,
            prov_span: 8,
            historical_every: 2,
        };
        let result = run_closed_loop(
            || Ok(Box::new(connector.connect()?) as Box<dyn Connection>),
            &cfg,
        )
        .unwrap();
        assert_eq!(result.total_ops, 180);
        assert_eq!(result.provs, 18);
        // Every second provenance query per connection was historical.
        assert_eq!(result.historical_provs, 9);
        assert_eq!(result.verified_proofs, result.provs);
        assert_eq!(result.latency.count as u64, result.total_ops);
        assert!(result.ops_per_s() > 0.0);

        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
