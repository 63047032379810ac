//! End-to-end tests of the served engine over the in-process transport:
//! multi-client traffic with client-side proof verification, forged-proof
//! rejection over the wire, error responses, request metrics, and graceful
//! shutdown. TCP is exercised where the sandbox permits sockets.

use std::sync::Arc;
use std::time::Duration;

use cole_core::{AsyncCole, Cole, ColeConfig};
use cole_primitives::{Address, ColeError, StateValue};
use cole_protocol::{
    pipe_transport, read_frame, write_frame, Client, Frame, Listener, Message, PipeConnector,
    TcpListenerTransport,
};
use cole_server::{serve, ServerConfig, SharedEngine};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cole-server-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config() -> ColeConfig {
    // Small memtable so the data actually reaches disk runs: served proofs
    // then cover memtables and Merkle range proofs, for present and absent
    // addresses alike.
    ColeConfig::default().with_memtable_capacity(64)
}

fn preload(connector: &PipeConnector, blocks: u64, accounts: u64) -> (u64, Vec<u8>) {
    let mut writer = Client::new(connector.connect().unwrap());
    let mut last = (0u64, cole_primitives::Digest::ZERO);
    for blk in 1..=blocks {
        let batch: Vec<_> = (0..accounts)
            .map(|a| {
                (
                    Address::from_low_u64(a),
                    StateValue::from_u64(blk * 1000 + a),
                )
            })
            .collect();
        last = writer.put_batch(&batch).unwrap();
        assert_eq!(last.0, blk, "server assigns consecutive heights");
    }
    (last.0, last.1.as_bytes().to_vec())
}

#[test]
fn multi_client_traffic_with_verified_proofs() {
    let dir = tmpdir("multi");
    let shared = Arc::new(SharedEngine::new(Cole::open(&dir, config()).unwrap()));
    let (listener, connector) = pipe_transport();
    let handle = serve(
        Arc::clone(&shared),
        Box::new(listener),
        ServerConfig::default(),
    );

    let accounts = 10u64;
    let (height, _) = preload(&connector, 40, accounts);
    assert_eq!(height, 40);

    let readers: Vec<_> = (0..4)
        .map(|t| {
            let connector = connector.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(connector.connect().unwrap());
                // Point reads: every account has its block-40 value.
                for a in 0..accounts {
                    let got = client.get(Address::from_low_u64(a)).unwrap();
                    assert_eq!(
                        got,
                        Some(StateValue::from_u64(40 * 1000 + a)),
                        "reader {t}, account {a}"
                    );
                }
                // A never-written address is None (and its proof-of-absence
                // path is served too).
                assert_eq!(client.get(Address::from_low_u64(999)).unwrap(), None);
                // Verified provenance: values + proof + digest all travel
                // the wire; verification is local.
                let addr = Address::from_low_u64(t % accounts);
                let resp = client.prov_query_verified(addr, 5, 12).unwrap();
                assert_eq!(resp.height, 40);
                assert_eq!(resp.values.len(), 8, "one version per block in [5,12]");
                let ghost = client
                    .prov_query_verified(Address::from_low_u64(777), 1, 40)
                    .unwrap();
                assert!(ghost.values.is_empty(), "absence is proven, not assumed");
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }

    // Request-level counters landed in the engine's own metrics.
    let snapshot = shared.metrics().snapshot();
    assert_eq!(snapshot.put_batch_requests, 40);
    assert_eq!(snapshot.get_requests, 4 * (accounts + 1));
    assert_eq!(snapshot.prov_requests, 8);
    assert_eq!(
        snapshot.requests_served,
        snapshot.put_batch_requests + snapshot.get_requests + snapshot.prov_requests
    );
    assert!(
        handle
            .stats()
            .connections_accepted
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 5
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forged_proofs_are_rejected_over_the_wire() {
    let dir = tmpdir("forged");
    let shared = Arc::new(SharedEngine::new(Cole::open(&dir, config()).unwrap()));
    let (listener, connector) = pipe_transport();
    let handle = serve(shared, Box::new(listener), ServerConfig::default());
    preload(&connector, 30, 6);

    let addr = Address::from_low_u64(3);
    let mut client = Client::new(connector.connect().unwrap());
    let honest = client.prov_query_verified(addr, 4, 9).unwrap();
    assert!(honest.verify(addr, 4, 9).unwrap());

    // A man-in-the-middle "server" that relays the honest answer with one
    // proof byte flipped: the client-side check must fail.
    let (mut mitm_listener, mitm_connector) = pipe_transport();
    let forged = honest.clone();
    let relay = std::thread::spawn(move || {
        let mut conn = mitm_listener
            .accept_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("victim connected");
        let request = read_frame(&mut conn).unwrap().expect("one request");
        let mut proof = forged.proof.clone();
        proof[10] ^= 0x40;
        write_frame(
            &mut conn,
            &Frame {
                request_id: request.request_id,
                msg: Message::ProvOk {
                    height: forged.height,
                    hstate: forged.hstate,
                    values: forged.values.clone(),
                    proof,
                },
            },
        )
        .unwrap();
        // Second victim: correct proof, but a value swapped out.
        let request = read_frame(&mut conn).unwrap().expect("second request");
        let mut values = forged.values.clone();
        values[0].value = StateValue::from_u64(0xBAD);
        write_frame(
            &mut conn,
            &Frame {
                request_id: request.request_id,
                msg: Message::ProvOk {
                    height: forged.height,
                    hstate: forged.hstate,
                    values,
                    proof: forged.proof.clone(),
                },
            },
        )
        .unwrap();
    });
    let mut victim = Client::new(mitm_connector.connect().unwrap());
    for attempt in 0..2 {
        match victim.prov_query_verified(addr, 4, 9) {
            Err(ColeError::VerificationFailed(_) | ColeError::InvalidEncoding(_)) => {}
            other => panic!("forged answer {attempt} was accepted: {other:?}"),
        }
    }
    relay.join().unwrap();

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_requests_get_error_responses_and_the_connection_survives() {
    let dir = tmpdir("malformed");
    let shared = Arc::new(SharedEngine::new(Cole::open(&dir, config()).unwrap()));
    let (listener, connector) = pipe_transport();
    let handle = serve(shared, Box::new(listener), ServerConfig::default());

    // A response kind sent as a request is answered with Error, and the
    // connection keeps working afterwards.
    let mut conn = connector.connect().unwrap();
    write_frame(
        &mut conn,
        &Frame {
            request_id: 9,
            msg: Message::GetOk { value: None },
        },
    )
    .unwrap();
    let reply = read_frame(&mut conn).unwrap().expect("error response");
    assert_eq!(reply.request_id, 9);
    assert!(matches!(reply.msg, Message::Error { .. }), "{reply:?}");

    let mut client = Client::from_boxed(Box::new(conn));
    assert_eq!(client.get(Address::from_low_u64(1)).unwrap(), None);

    // An undecodable frame closes the connection (the stream is
    // desynchronized), rather than leaving the server guessing.
    let (mut raw, _other_keepalive) = {
        let c = connector.connect().unwrap();
        (c, connector.clone())
    };
    use std::io::Write as _;
    let mut bogus = 9u32.to_le_bytes().to_vec(); // header-only length…
    bogus.extend_from_slice(&1u64.to_le_bytes());
    bogus.push(0x42); // …with an unknown kind
    raw.write_all(&bogus).unwrap();
    let closed = read_frame(&mut raw);
    assert!(
        matches!(closed, Ok(None)),
        "server should close on undecodable frame, got {closed:?}"
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn async_engine_serves_identically() {
    let dir = tmpdir("async");
    let shared = Arc::new(SharedEngine::new(AsyncCole::open(&dir, config()).unwrap()));
    let (listener, connector) = pipe_transport();
    let handle = serve(shared, Box::new(listener), ServerConfig::default());
    preload(&connector, 35, 8);

    let mut client = Client::new(connector.connect().unwrap());
    let (protocol, height, _hstate, engine) = client.info().unwrap();
    assert_eq!(protocol, cole_protocol::PROTOCOL_VERSION);
    assert_eq!(height, 35);
    assert_eq!(engine, "COLE*");
    let addr = Address::from_low_u64(2);
    assert_eq!(
        client.get(addr).unwrap(),
        Some(StateValue::from_u64(35_002))
    );
    client.prov_query_verified(addr, 10, 20).unwrap();

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn historical_prov_queries_round_trip_over_the_wire() {
    let dir = tmpdir("historical");
    let shared = Arc::new(SharedEngine::with_retention(
        Cole::open(&dir, config()).unwrap(),
        16,
    ));
    let (listener, connector) = pipe_transport();
    let handle = serve(
        Arc::clone(&shared),
        Box::new(listener),
        ServerConfig::default(),
    );
    let accounts = 6u64;
    let (head, _) = preload(&connector, 40, accounts);
    assert_eq!(head, 40);

    let mut client = Client::new(connector.connect().unwrap());
    let addr = Address::from_low_u64(3);

    // A point-in-time query inside the retention window is answered — and
    // client-verified against that height's own Hstate — at exactly the
    // requested height, not the head.
    let resp = client.prov_query_at_verified(addr, 20, 30, 33).unwrap();
    assert_eq!(resp.height, 33, "answered at the requested height");
    assert_eq!(resp.values.len(), 11, "one version per block in [20, 30]");
    for v in &resp.values {
        assert_eq!(v.value, StateValue::from_u64(v.block_height * 1000 + 3));
    }

    // The pinned snapshot predates blocks 34..=40: a range reaching past
    // its height proves the later versions absent instead of serving them.
    let resp = client.prov_query_at_verified(addr, 30, 40, 33).unwrap();
    assert_eq!(resp.height, 33);
    assert_eq!(
        resp.values.len(),
        4,
        "only blocks 30..=33 existed at height 33"
    );

    // Heights outside the retention window — evicted or never published —
    // are NotRetained: fatal, since the window only moves forward.
    for gone in [3u64, 24, 41] {
        let err = client.prov_query_at(addr, 1, 40, gone).unwrap_err();
        assert!(
            err.to_string().contains("NotRetained"),
            "height {gone}: {err}"
        );
    }
    // The connection survives the error responses.
    assert_eq!(
        client.get(addr).unwrap(),
        Some(StateValue::from_u64(40_003))
    );

    let snapshot = shared.metrics().snapshot();
    assert_eq!(snapshot.historical_provs, 2);
    assert_eq!(snapshot.reads_blocked_on_writer, 0);
    assert!(snapshot.snapshots_published >= 40);
    assert!(snapshot.snapshots_retired >= 24, "ring evicted beyond 16");

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_shutdown_with_connected_clients_is_bounded() {
    let dir = tmpdir("shutdown");
    let shared = Arc::new(SharedEngine::new(Cole::open(&dir, config()).unwrap()));
    let (listener, connector) = pipe_transport();
    let handle = serve(
        shared,
        Box::new(listener),
        ServerConfig {
            read_poll: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    );
    // Idle clients stay connected across the shutdown — handlers must not
    // block on them forever.
    let mut idle = Client::new(connector.connect().unwrap());
    idle.info().unwrap();
    let _second = connector.connect().unwrap();
    let started = std::time::Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown hung on idle connections"
    );
    // The server is gone: the idle client sees a closed stream.
    assert!(idle.info().is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcp_end_to_end_if_sockets_allowed() {
    let dir = tmpdir("tcp");
    let Ok(listener) = TcpListenerTransport::bind("127.0.0.1:0") else {
        eprintln!("skipping TCP e2e: bind not permitted in this sandbox");
        return;
    };
    let addr = listener.local_addr().unwrap();
    let shared = Arc::new(SharedEngine::new(Cole::open(&dir, config()).unwrap()));
    let handle = serve(shared, Box::new(listener), ServerConfig::default());

    let mut client = Client::new(TcpListenerTransport::connect(addr).unwrap());
    let target = Address::from_low_u64(4);
    for blk in 1..=25u64 {
        client
            .put_batch(&[(target, StateValue::from_u64(blk))])
            .unwrap();
    }
    assert_eq!(client.get(target).unwrap(), Some(StateValue::from_u64(25)));
    let resp = client.prov_query_verified(target, 8, 14).unwrap();
    assert_eq!(resp.values.len(), 7);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
