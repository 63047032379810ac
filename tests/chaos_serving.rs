//! Chaos test of the served engine: transient storage faults + overload
//! shedding against retrying clients, end to end through the facade.
//!
//! The graceful-degradation contract under test (ERRORS.md):
//!
//! * a fault never makes a false proof verify — an unverifiable proof
//!   panics the test on the spot,
//! * every operation eventually succeeds or surfaces a classified error,
//! * shed requests are *answered* `Busy`, not dropped,
//! * idle clients are disconnected, counted, and nothing else is harmed,
//! * after the faults clear the server serves normally, and nothing
//!   manifest-covered is lost across a reopen.

use std::sync::Arc;
use std::time::Duration;

use cole::cole_protocol::{pipe_transport, Connection};
use cole::prelude::*;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cole-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn patient_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        base_delay: Duration::from_micros(300),
        max_delay: Duration::from_millis(10),
        jitter: 0.5,
        call_deadline: Some(Duration::from_secs(60)),
        ..RetryPolicy::with_seed(0xC4A05)
    }
}

#[test]
fn retrying_clients_survive_transient_faults_and_recover() {
    let dir = tmpdir("recover");
    let faults = Arc::new(FaultPlan::new());
    let config = ColeConfig::default()
        .with_memtable_capacity(32)
        .with_wal_enabled(true);
    let engine = Cole::open_with_faults(&dir, config, Arc::clone(&faults)).unwrap();
    let shared = Arc::new(SharedEngine::new(engine));
    let (listener, connector) = pipe_transport();
    let server_config = ServerConfig {
        max_in_flight: 2,
        request_deadline: Some(Duration::from_secs(2)),
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&shared), Box::new(listener), server_config);
    let connect = {
        let connector = connector.clone();
        move || Ok(Box::new(connector.connect()?) as Box<dyn Connection>)
    };

    // Preload 12 blocks over the wire so reads and provenance queries have
    // history to hit.
    let accounts = 16u64;
    let mut writer = Client::new(connector.connect().unwrap());
    let mut head = (0, Digest::ZERO);
    for blk in 1..=12u64 {
        let batch: Vec<_> = (0..8)
            .map(|i| {
                (
                    Address::from_low_u64((blk * 3 + i) % accounts),
                    StateValue::from_u64(blk * 100 + i),
                )
            })
            .collect();
        head = writer.put_batch(&batch).unwrap();
    }
    assert_eq!(head.0, 12);
    drop(writer);

    // Storm: transient faults at every instrumented site while three
    // retrying clients hammer a mixed workload through the capped server.
    faults.fail("page:read", FaultKind::Io, 6);
    faults.fail("wal:append", FaultKind::Io, 2);
    faults.fail("wal:fsync", FaultKind::FsyncFail, 2);
    faults.fail("manifest:commit", FaultKind::Io, 1);

    let storm: Vec<_> = (0..3u64)
        .map(|t| {
            let connect = connect.clone();
            std::thread::spawn(move || {
                let mut client = RetryingClient::new(
                    connect,
                    RetryPolicy {
                        seed: t,
                        ..patient_policy()
                    },
                );
                let mut classified_failures = 0u64;
                for op in 0..30u64 {
                    let addr = Address::from_low_u64((t * 7 + op) % 16);
                    let outcome = match op % 5 {
                        // A failed proof verification panics here: faults
                        // must degrade availability, never integrity.
                        0 => client
                            .prov_query_verified(addr, 5, 12)
                            .map(|resp| {
                                assert!(
                                    !resp.values.is_empty() || resp.height >= 12,
                                    "a verified response is served with its head"
                                );
                            })
                            .map_err(|e| {
                                assert!(
                                    !matches!(e, cole::ColeError::VerificationFailed(_)),
                                    "proof verification failed under faults: {e}"
                                );
                                e
                            }),
                        4 => client
                            .put_batch(&[(addr, StateValue::from_u64(t * 1000 + op))])
                            .map(|_| ()),
                        _ => client.get(addr).map(|_| ()),
                    };
                    if outcome.is_err() {
                        // Exhausted retries surface a classified error;
                        // nothing hangs, nothing panics the handler.
                        classified_failures += 1;
                    }
                }
                (client.stats(), classified_failures)
            })
        })
        .collect();
    let mut retries = 0u64;
    for h in storm {
        let (stats, _failures) = h.join().unwrap();
        retries += stats.retries;
    }
    assert!(
        faults.injected() > 0,
        "the storm must actually have hit armed faults"
    );
    assert!(
        retries > 0,
        "retrying clients must have absorbed Busy/Retryable answers"
    );

    // Faults clear: the server must serve normally again. One sequential
    // client can never be shed (cap 2, one request in flight), so every
    // operation here must succeed outright.
    faults.clear_all();
    let mut client = RetryingClient::new(connect, patient_policy());
    for a in 0..accounts {
        client.get(Address::from_low_u64(a)).unwrap();
    }
    let resp = client
        .prov_query_verified(Address::from_low_u64(3), 5, 12)
        .unwrap();
    assert!(resp.height >= 12, "head advanced past the preload");
    let (after_height, _) = client
        .put_batch(&[(Address::from_low_u64(1), StateValue::from_u64(424242))])
        .unwrap();
    assert!(after_height > 12, "writes land after recovery");
    assert!(
        shared.metrics().snapshot().transient_io_errors > 0
            || shared.metrics().snapshot().requests_shed > 0,
        "the storm left its trace in the degradation counters"
    );

    // Nothing manifest-covered is lost: read ground truth over the wire,
    // then reopen the store cold (no faults) and compare.
    let mut expected = Vec::new();
    for a in 0..accounts {
        let addr = Address::from_low_u64(a);
        expected.push((addr, client.get(addr).unwrap()));
    }
    drop(client);
    shared.flush().unwrap();
    handle.shutdown();
    drop(connector);
    let shared = Arc::try_unwrap(shared).unwrap_or_else(|_| panic!("sole owner after shutdown"));
    drop(shared.into_engine());

    let reopened = Cole::open(&dir, config).unwrap();
    for (addr, want) in &expected {
        assert_eq!(
            reopened.get(*addr).unwrap(),
            *want,
            "reopen lost the served value of {addr:?}"
        );
    }
    let result = reopened
        .prov_query(Address::from_low_u64(3), 5, 12)
        .unwrap();
    let mut reopened = reopened;
    let hstate = cole::cole_core::compute_hstate(&reopened.root_hash_list());
    assert!(
        reopened
            .verify_prov(Address::from_low_u64(3), 5, 12, &result, hstate)
            .unwrap(),
        "the authenticated structure survived the chaos"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shed_requests_are_answered_busy_not_dropped() {
    let dir = tmpdir("shed");
    let engine = Cole::open(&dir, ColeConfig::default().with_memtable_capacity(64)).unwrap();
    let shared = Arc::new(SharedEngine::new(engine));
    let (listener, connector) = pipe_transport();
    // Cap 0: every request is shed — deterministically.
    let server_config = ServerConfig {
        max_in_flight: 0,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&shared), Box::new(listener), server_config);

    let connect = {
        let connector = connector.clone();
        move || Ok(Box::new(connector.connect()?) as Box<dyn Connection>)
    };
    let mut client = RetryingClient::new(
        connect,
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(1),
            ..RetryPolicy::with_seed(9)
        },
    );
    // The request is *answered* (a Busy error frame, retried, then surfaced
    // as a classified error) — not dropped on the floor.
    let err = client.get(Address::from_low_u64(1)).unwrap_err();
    assert!(
        err.to_string().contains("in-flight cap"),
        "the Busy answer carries the shed reason, got: {err}"
    );
    assert_eq!(
        client.stats().busy_seen,
        3,
        "every attempt was answered Busy"
    );
    assert_eq!(
        shared.metrics().snapshot().requests_shed,
        3,
        "the server counted every shed request"
    );
    // The server is alive and still answers (sheds) — nothing crashed.
    assert!(client.get(Address::from_low_u64(2)).is_err());
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_clients_are_disconnected_and_counted() {
    let dir = tmpdir("idle");
    let engine = Cole::open(&dir, ColeConfig::default().with_memtable_capacity(64)).unwrap();
    let shared = Arc::new(SharedEngine::new(engine));
    let (listener, connector) = pipe_transport();
    let server_config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(50)),
        read_poll: Duration::from_millis(20),
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&shared), Box::new(listener), server_config);

    // An active client inside the window is fine.
    let mut active = Client::new(connector.connect().unwrap());
    assert_eq!(active.get(Address::from_low_u64(1)).unwrap(), None);

    // A silent client is disconnected by the watchdog.
    let idle_conn = connector.connect().unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let mut idle = Client::new(idle_conn);
    assert!(
        idle.get(Address::from_low_u64(1)).is_err(),
        "the idle connection was closed by the server"
    );
    assert!(
        shared.metrics().snapshot().idle_disconnects >= 1,
        "the disconnect was counted"
    );

    // The active client keeps working if it stays within the window — and
    // the server as a whole is unharmed by the disconnect.
    let mut fresh = Client::new(connector.connect().unwrap());
    assert_eq!(fresh.get(Address::from_low_u64(1)).unwrap(), None);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
