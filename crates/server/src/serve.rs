//! The accept loop, per-connection handlers, overload control, and
//! graceful shutdown.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cole_core::Metrics;
use cole_primitives::ColeError;
use cole_protocol::{
    read_frame, write_frame, Connection, ErrorCode, Frame, Listener, Message, PROTOCOL_VERSION,
};

use crate::inflight::InFlightGauge;
use crate::shared::{ServableEngine, SharedEngine};
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Knobs of the serve loop.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// How long one accept wait blocks before re-checking shutdown.
    pub accept_poll: Duration,
    /// How long a connection handler waits for request bytes before
    /// re-checking shutdown.
    pub read_poll: Duration,
    /// Connections beyond this are closed immediately on accept.
    pub max_connections: usize,
    /// Requests dispatched concurrently across all connections; a request
    /// arriving with the cap reached is *shed* — answered with
    /// [`ErrorCode::Busy`] before touching the engine, never silently
    /// dropped — so an overloaded server degrades to fast rejections
    /// instead of unbounded queueing.
    pub max_in_flight: usize,
    /// Per-request deadline. A **read-only** request whose handling ran
    /// past it is answered with [`ErrorCode::Timeout`] instead of its (now
    /// stale) result. Writes are exempt: a `put_batch` that ran long still
    /// completed, and reporting `Timeout` would bait the client into
    /// re-applying the block. `None` disables the deadline.
    pub request_deadline: Option<Duration>,
    /// Idle disconnect: a connection that neither delivers a request nor
    /// closes for this long is dropped, so slow or dead clients cannot pin
    /// handler threads (and their `max_connections` slots) forever. `None`
    /// disables it.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            accept_poll: Duration::from_millis(25),
            read_poll: Duration::from_millis(100),
            max_connections: 1024,
            max_in_flight: 256,
            request_deadline: None,
            idle_timeout: None,
        }
    }
}

/// Connection-level gauges of a running server. Everything counted per
/// request or per disconnect (`requests_shed`, `requests_timed_out`,
/// `idle_disconnects`, …) lives in the engine's [`Metrics`] and nowhere
/// else.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted and handed to a handler thread.
    pub connections_accepted: AtomicU64,
    /// Connections dropped because `max_connections` was reached.
    pub connections_rejected: AtomicU64,
    /// Handler threads currently alive.
    pub active_connections: AtomicUsize,
}

/// A running server; dropping it (or calling [`shutdown`]
/// (ServerHandle::shutdown)) stops the accept loop and joins every
/// connection handler. Handlers observe the flag at their next poll tick,
/// so shutdown is bounded by `read_poll` even with clients still connected.
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    stats: Arc<ServerStats>,
}

impl ServerHandle {
    /// Signals shutdown and joins the accept loop and all handlers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Connection counters of this server.
    #[must_use]
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    fn stop(&mut self) {
        // `Release` pairs with the `Acquire` polls in the accept loop and the
        // handlers: whoever sees the flag also sees everything the shutdown
        // caller wrote before raising it. Model-checked in
        // `tests/loom_shutdown.rs`; see `ORDERINGS.md`.
        self.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            accept.join().ok();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Starts serving `shared` over `listener`: an accept thread spawns one
/// handler thread per connection, each decoding request frames and writing
/// responses in request order (which is what lets clients pipeline).
pub fn serve<E: ServableEngine>(
    shared: Arc<SharedEngine<E>>,
    mut listener: Box<dyn Listener>,
    config: ServerConfig,
) -> ServerHandle {
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());
    let in_flight = Arc::new(InFlightGauge::new(config.max_in_flight));
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_stats = Arc::clone(&stats);
    let accept = std::thread::spawn(move || {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !accept_shutdown.load(Ordering::Acquire) {
            handlers.retain(|h| !h.is_finished());
            match listener.accept_timeout(config.accept_poll) {
                Ok(Some(conn)) => {
                    // The cap is advisory: only this accept thread admits, so
                    // a `Relaxed` load can at worst race one handler's exit
                    // decrement and reject a connection that would just have
                    // fit. See `ORDERINGS.md`.
                    if accept_stats.active_connections.load(Ordering::Relaxed)
                        >= config.max_connections
                    {
                        accept_stats
                            .connections_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        drop(conn);
                        continue;
                    }
                    accept_stats
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    accept_stats
                        .active_connections
                        .fetch_add(1, Ordering::Relaxed);
                    let shared = Arc::clone(&shared);
                    let shutdown = Arc::clone(&accept_shutdown);
                    let stats = Arc::clone(&accept_stats);
                    let in_flight = Arc::clone(&in_flight);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(&shared, conn, &shutdown, &in_flight, config);
                        stats.active_connections.fetch_sub(1, Ordering::Relaxed);
                    }));
                }
                Ok(None) => {}
                Err(e) => {
                    eprintln!("[cole_server] accept failed on {}: {e}", listener.label());
                    break;
                }
            }
        }
        for h in handlers {
            h.join().ok();
        }
    });
    ServerHandle {
        shutdown,
        accept: Some(accept),
        stats,
    }
}

/// Serves one connection until the client disconnects, the stream breaks,
/// a frame fails to decode (the stream is then desynchronized — closing is
/// the only safe answer), the idle watchdog fires, or shutdown is
/// signalled between requests.
///
/// An engine error inside a request is answered as an error *frame* — the
/// handler, its connection, and the server all stay alive (classification
/// lives in [`engine_error`]; see `ERRORS.md`).
fn handle_connection<E: ServableEngine>(
    shared: &SharedEngine<E>,
    mut conn: Box<dyn Connection>,
    shutdown: &AtomicBool,
    in_flight: &InFlightGauge,
    config: ServerConfig,
) {
    let peer = conn.peer();
    let mut last_activity = Instant::now();
    loop {
        match conn.wait_readable(config.read_poll) {
            Ok(true) => match read_frame(&mut conn) {
                Ok(Some(frame)) => {
                    last_activity = Instant::now();
                    let response = Frame {
                        request_id: frame.request_id,
                        msg: serve_request(shared, frame.msg, in_flight, &config),
                    };
                    if let Err(e) = write_frame(&mut conn, &response) {
                        eprintln!("[cole_server] write to {peer} failed: {e}");
                        return;
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    eprintln!("[cole_server] bad frame from {peer}: {e}");
                    return;
                }
            },
            Ok(false) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(idle) = config.idle_timeout {
                    if last_activity.elapsed() >= idle {
                        Metrics::inc(&shared.metrics().idle_disconnects);
                        return;
                    }
                }
            }
            Err(e) => {
                eprintln!("[cole_server] poll of {peer} failed: {e}");
                return;
            }
        }
    }
}

/// Admission control plus dispatch for one decoded request.
///
/// Overload: if no in-flight slot is free the request is shed — answered
/// [`ErrorCode::Busy`] *without* touching the engine, so a retry is safe
/// by construction. Deadline: a read-only request that ran past
/// `request_deadline` is answered [`ErrorCode::Timeout`]; a write is never
/// converted (it completed — its real result is the truth).
fn serve_request<E: ServableEngine>(
    shared: &SharedEngine<E>,
    msg: Message,
    in_flight: &InFlightGauge,
    config: &ServerConfig,
) -> Message {
    let Some(_permit) = in_flight.try_acquire() else {
        Metrics::inc(&shared.metrics().requests_shed);
        return Message::Error {
            code: ErrorCode::Busy,
            message: format!(
                "server is at its in-flight cap ({}); retry after a backoff",
                in_flight.cap()
            ),
        };
    };
    let read_only = !matches!(msg, Message::PutBatch { .. });
    let started = Instant::now();
    let response = dispatch(shared, msg);
    if let Some(deadline) = config.request_deadline {
        if read_only && started.elapsed() >= deadline {
            Metrics::inc(&shared.metrics().requests_timed_out);
            return Message::Error {
                code: ErrorCode::Timeout,
                message: format!(
                    "request exceeded the {}ms server deadline",
                    deadline.as_millis()
                ),
            };
        }
    }
    response
}

/// Executes one request against the shared engine; every path increments
/// `requests_served`, successful per-op paths their own counter.
fn dispatch<E: ServableEngine>(shared: &SharedEngine<E>, msg: Message) -> Message {
    let metrics = shared.metrics();
    Metrics::inc(&metrics.requests_served);
    match msg {
        Message::Get { addr } => {
            Metrics::inc(&metrics.get_requests);
            match shared.get(addr) {
                Ok(value) => Message::GetOk { value },
                Err(e) => engine_error(shared, &e),
            }
        }
        Message::PutBatch { entries } => {
            Metrics::inc(&metrics.put_batch_requests);
            match shared.apply_block(&entries) {
                Ok((height, hstate)) => Message::PutBatchOk { height, hstate },
                Err(e) => engine_error(shared, &e),
            }
        }
        Message::ProvQuery {
            addr,
            blk_lower,
            blk_upper,
            at_height,
        } => {
            Metrics::inc(&metrics.prov_requests);
            let answer = match at_height {
                None => shared.prov_query(addr, blk_lower, blk_upper).map(Some),
                Some(h) => shared.prov_query_at(addr, blk_lower, blk_upper, h),
            };
            match answer {
                Ok(Some((height, hstate, result))) => Message::ProvOk {
                    height,
                    hstate,
                    values: result.values,
                    proof: result.proof,
                },
                Ok(None) => {
                    let (oldest, head) = shared.retained_heights();
                    Message::Error {
                        code: ErrorCode::NotRetained,
                        message: format!(
                            "no snapshot retained at height {} (retained: {oldest}..={head})",
                            at_height.unwrap_or(0),
                        ),
                    }
                }
                Err(e) => engine_error(shared, &e),
            }
        }
        Message::Info => {
            let (height, hstate) = shared.head();
            Message::InfoOk {
                protocol: PROTOCOL_VERSION,
                height,
                hstate,
                engine: shared.engine_name().to_string(),
            }
        }
        other => Message::Error {
            code: ErrorCode::Malformed,
            message: format!("{} is not a request", other.op_name()),
        },
    }
}

/// Maps an engine failure onto the wire taxonomy (`ERRORS.md`): transient
/// I/O faults — the kind the engine survives in place — are
/// [`ErrorCode::Retryable`]; everything else (invalid state, corruption,
/// verification failures) is [`ErrorCode::Engine`] and not worth
/// re-sending. Either way the failure is *answered*, never crashed on:
/// the handler and the process stay up.
fn engine_error<E: ServableEngine>(shared: &SharedEngine<E>, e: &ColeError) -> Message {
    let code = match e {
        ColeError::Io(_) => {
            Metrics::inc(&shared.metrics().transient_io_errors);
            ErrorCode::Retryable
        }
        _ => ErrorCode::Engine,
    };
    Message::Error {
        code,
        message: e.to_string(),
    }
}
