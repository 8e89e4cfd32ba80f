//! Chaos suite for the `tecopt-serve` evaluation service: torn frames,
//! half-closed connections, clients that die mid-request, mid-request
//! evaluation panics, deadline storms, overload, and graceful drain.
//!
//! The invariants under test, from DESIGN.md §13:
//!
//! - every failure surfaces as a *typed* error (`overloaded`, `decode`,
//!   `disconnected`, `deadline`, `panic`, ...), never a hang, never a
//!   process abort;
//! - a shed request is refused *before* work is spent on it, with
//!   `overloaded` — not by timing out;
//! - a dead client frees its handler slot and cancels its evaluation;
//! - graceful shutdown drains admitted work, and keyed designer sweeps
//!   checkpoint so a retry after restart resumes bit-identically.
//!
//! The heavyweight soak test is `#[ignore]`d; the dedicated serve chaos
//! pass in `scripts/check.sh` runs this suite with `--test-threads=1
//! --include-ignored`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tecopt::{
    score_candidates, CancelToken, CoolingSystem, CurrentSettings, PackageConfig, RunContext,
    TecParams, TileIndex,
};
use tecopt_faultinject::{torn_frame, MidRequestPanic, SlowEvaluator};
use tecopt_serve::{
    Client, ClientError, Engine, EngineConfig, Evaluator, Listener, Request, RetryPolicy, Server,
    ServerConfig, ServerReport,
};
use tecopt_units::{Amperes, Watts};

fn small_system() -> CoolingSystem {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let mut powers = vec![Watts(0.05); 16];
    powers[5] = Watts(0.7);
    CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[TileIndex::new(1, 1), TileIndex::new(2, 2)],
        powers,
    )
    .unwrap()
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tecopt-serve-chaos-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running server on an ephemeral TCP port plus the means to stop it.
struct Harness {
    addr: String,
    shutdown: CancelToken,
    handle: std::thread::JoinHandle<ServerReport>,
}

impl Harness {
    fn start<E: Evaluator + 'static>(
        eval: E,
        engine: EngineConfig,
        server: ServerConfig,
    ) -> Harness {
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let engine = Arc::new(Engine::new(eval, engine));
        let server = Arc::new(Server::new(listener, engine, server));
        let shutdown = server.shutdown_token();
        let handle = std::thread::spawn(move || server.run());
        Harness {
            addr,
            shutdown,
            handle,
        }
    }

    fn stop(self) -> ServerReport {
        self.shutdown.cancel();
        self.handle.join().expect("server thread never panics")
    }
}

fn fast_server_config() -> ServerConfig {
    ServerConfig {
        handlers: 4,
        eval_workers: 2,
        poll_interval: Duration::from_millis(5),
        drain_timeout: Duration::from_secs(10),
    }
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(40),
        response_timeout: Duration::from_secs(30),
    }
}

fn steady(current: f64) -> Request {
    Request::Steady {
        current: Amperes(current),
    }
}

/// Reads one `\n`-terminated line from a raw socket.
fn read_line(s: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match s.read(&mut byte) {
            Ok(0) => break,
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => buf.push(byte[0]),
            Err(e) => panic!("read_line failed: {e}"),
        }
    }
    String::from_utf8(buf).unwrap()
}

// ---------------------------------------------------------------------------
// Wire-level failure containment
// ---------------------------------------------------------------------------

#[test]
fn garbage_frames_get_typed_decode_errors_and_the_connection_survives() {
    let h = Harness::start(
        tecopt_serve::TecEvaluator::new(small_system(), CurrentSettings::default()),
        EngineConfig::default(),
        fast_server_config(),
    );

    let mut s = TcpStream::connect(&h.addr).unwrap();
    // Three malformed frames on one connection, each answered typed.
    for bad in [
        "not a frame",
        "req toolong!! - steady 00",
        "req - - steady nothex",
    ] {
        s.write_all(format!("{bad}\n").as_bytes()).unwrap();
        let reply = read_line(&mut s);
        assert!(reply.starts_with("err - decode "), "got `{reply}`");
    }
    // The same connection still serves a well-formed request afterwards.
    let frame = tecopt_serve::wire::encode_request(&tecopt_serve::RequestFrame {
        key: None,
        deadline_ms: None,
        request: steady(1.0),
    });
    s.write_all(format!("{frame}\n").as_bytes()).unwrap();
    let reply = read_line(&mut s);
    assert!(reply.starts_with("ok - steady "), "got `{reply}`");
    drop(s);

    let report = h.stop();
    assert_eq!(report.decode_errors, 3);
    assert_eq!(report.engine.completed_ok, 1);
}

#[test]
fn a_torn_frame_then_death_is_a_counted_disconnect_and_frees_the_slot() {
    let h = Harness::start(
        tecopt_serve::TecEvaluator::new(small_system(), CurrentSettings::default()),
        EngineConfig::default(),
        ServerConfig {
            handlers: 1, // a leaked slot would wedge the follow-up client
            ..fast_server_config()
        },
    );

    let frame = tecopt_serve::wire::encode_request(&tecopt_serve::RequestFrame {
        key: None,
        deadline_ms: None,
        request: steady(1.0),
    });
    let full = format!("{frame}\n");
    {
        // The client dies halfway through writing its request.
        let mut s = TcpStream::connect(&h.addr).unwrap();
        s.write_all(&torn_frame(&full, full.len() / 2)).unwrap();
        s.flush().unwrap();
        // Give the server a beat to buffer the partial frame, then die.
        std::thread::sleep(Duration::from_millis(30));
    }

    // With the single handler slot freed, a healthy client is served.
    let mut c = Client::tcp(h.addr.clone()).with_policy(fast_policy());
    let resp = c.request(steady(1.0), None).expect("follow-up succeeds");
    assert!(matches!(resp, tecopt_serve::Response::Steady { .. }));

    let report = h.stop();
    assert_eq!(report.disconnects, 1);
    assert_eq!(
        report.engine.submitted, 1,
        "torn frame never reached admission"
    );
}

#[test]
fn a_client_dying_mid_request_cancels_its_evaluation() {
    // Evaluations take ≥2 s unless cancelled — if disconnect-cancellation
    // failed, this test would visibly stall and the drain would not be
    // clean.
    let h = Harness::start(
        SlowEvaluator::new(
            tecopt_serve::TecEvaluator::new(small_system(), CurrentSettings::default()),
            Duration::from_secs(2),
        ),
        EngineConfig::default(),
        ServerConfig {
            handlers: 1,
            eval_workers: 1,
            ..fast_server_config()
        },
    );

    let frame = tecopt_serve::wire::encode_request(&tecopt_serve::RequestFrame {
        key: Some("doomed".into()),
        deadline_ms: None,
        request: steady(1.0),
    });
    let t0 = Instant::now();
    {
        let mut s = TcpStream::connect(&h.addr).unwrap();
        s.write_all(format!("{frame}\n").as_bytes()).unwrap();
        // Let the request reach the worker, then die without reading.
        std::thread::sleep(Duration::from_millis(50));
    }

    // The sole worker must come free long before the 2 s spin would end.
    let mut c = Client::tcp(h.addr.clone()).with_policy(fast_policy());
    let resp = c.request(steady(1.0), Some(30_000));
    // The follow-up rides a healthy slot; its own evaluation still takes
    // 2 s of spin, so only the *total* bound proves cancellation: without
    // it, serving both sequentially needs >4 s of evaluation time.
    assert!(resp.is_ok(), "follow-up failed: {resp:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "disconnect did not cancel the abandoned evaluation"
    );

    let report = h.stop();
    assert!(report.disconnects >= 1);
    assert!(report.drained_cleanly);
}

// ---------------------------------------------------------------------------
// Admission control and deadlines
// ---------------------------------------------------------------------------

#[test]
fn overload_sheds_with_typed_overloaded_not_timeouts() {
    const BURST: usize = 12;
    // (queue capacity, evaluation workers, expect shedding): a queue with
    // room for the whole burst serves every request; one slow worker
    // behind a queue of 2 must shed most of it.
    for (queue_capacity, eval_workers, overloaded) in [(64, 2, false), (2, 1, true)] {
        let h = Harness::start(
            SlowEvaluator::new(
                tecopt_serve::TecEvaluator::new(small_system(), CurrentSettings::default()),
                Duration::from_millis(150),
            ),
            EngineConfig {
                queue_capacity,
                ..EngineConfig::default()
            },
            ServerConfig {
                handlers: 6,
                eval_workers,
                ..fast_server_config()
            },
        );

        let shed = Arc::new(AtomicUsize::new(0));
        let served = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..BURST)
            .map(|i| {
                let addr = h.addr.clone();
                let shed = Arc::clone(&shed);
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    // No retries: each request reports its first outcome.
                    let mut c = Client::tcp(addr).with_policy(RetryPolicy {
                        max_attempts: 1,
                        ..fast_policy()
                    });
                    match c.request(steady(0.5 + i as f64 * 0.01), None) {
                        Ok(_) => served.fetch_add(1, Ordering::SeqCst),
                        Err(ClientError::RetriesExhausted { last, .. }) => match *last {
                            ClientError::Server { ref code, .. } if code == "overloaded" => {
                                shed.fetch_add(1, Ordering::SeqCst)
                            }
                            ref other => panic!("expected overloaded, got {other:?}"),
                        },
                        Err(other) => panic!("expected overloaded or ok, got {other:?}"),
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }

        let report = h.stop();
        let (shed, served) = (shed.load(Ordering::SeqCst), served.load(Ordering::SeqCst));
        // Every request is accounted for exactly once, on both sides.
        assert_eq!(shed + served, BURST);
        assert_eq!(report.engine.submitted, BURST as u64);
        assert_eq!(report.engine.shed_overload, shed as u64);
        // Shedding is immediate refusal: nothing may fail by timing out.
        assert_eq!(report.engine.completed_ok, served as u64);
        assert!(report.drained_cleanly);
        if overloaded {
            assert!(shed > 0, "nothing was shed");
            assert!(served > 0, "nothing was served");
        } else {
            assert_eq!(served, BURST, "a capacity-matched burst must fully succeed");
        }
    }
}

#[test]
fn deadline_storms_produce_typed_deadline_errors() {
    let h = Harness::start(
        SlowEvaluator::new(
            tecopt_serve::TecEvaluator::new(small_system(), CurrentSettings::default()),
            Duration::from_millis(100),
        ),
        EngineConfig::default(),
        fast_server_config(),
    );

    let mut c = Client::tcp(h.addr.clone()).with_policy(fast_policy());
    // A 1 ms budget against a 100 ms evaluation: typed deadline error
    // (non-retryable — the identical budget would fail identically).
    match c.request(steady(1.0), Some(1)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "deadline"),
        other => panic!("expected a deadline error, got {other:?}"),
    }
    // An adequate budget on the same connection succeeds.
    assert!(c.request(steady(1.0), Some(20_000)).is_ok());

    let report = h.stop();
    assert!(report.drained_cleanly);
}

// ---------------------------------------------------------------------------
// Panic containment and idempotent retries
// ---------------------------------------------------------------------------

#[test]
fn mid_request_panics_are_contained_and_retries_recover() {
    // Every 2nd evaluation panics (calls 2, 4, 6: request 1 succeeds on
    // call 1; requests 2–4 each lose their first attempt and win the
    // retry under the same idempotency key).
    let h = Harness::start(
        MidRequestPanic::every(
            tecopt_serve::TecEvaluator::new(small_system(), CurrentSettings::default()),
            2,
        ),
        EngineConfig::default(),
        ServerConfig {
            eval_workers: 1,
            ..fast_server_config()
        },
    );

    let mut c = Client::tcp(h.addr.clone()).with_policy(fast_policy());
    for i in 0..4 {
        let resp = c.request(steady(1.0 + f64::from(i) * 0.1), None);
        assert!(resp.is_ok(), "request {i} failed: {resp:?}");
    }

    let report = h.stop();
    assert_eq!(report.engine.panics_contained, 3);
    assert_eq!(report.engine.completed_ok, 4);
}

// ---------------------------------------------------------------------------
// Graceful drain and checkpointed resume
// ---------------------------------------------------------------------------

#[test]
fn graceful_drain_finishes_in_flight_work_and_refuses_new_work() {
    let h = Harness::start(
        SlowEvaluator::new(
            tecopt_serve::TecEvaluator::new(small_system(), CurrentSettings::default()),
            Duration::from_millis(300),
        ),
        EngineConfig::default(),
        fast_server_config(),
    );

    // Launch a request, then raise shutdown while it is in flight.
    let addr = h.addr.clone();
    let inflight = std::thread::spawn(move || {
        let mut c = Client::tcp(addr).with_policy(RetryPolicy {
            max_attempts: 1,
            ..fast_policy()
        });
        c.request(steady(1.0), None)
    });
    std::thread::sleep(Duration::from_millis(100));
    h.shutdown.cancel();

    // The in-flight request completes normally despite the shutdown.
    let resp = inflight.join().unwrap();
    assert!(resp.is_ok(), "drain dropped in-flight work: {resp:?}");

    let report = h.handle.join().unwrap();
    assert!(report.drained_cleanly);
    assert_eq!(report.engine.completed_ok, 1);
}

#[test]
fn cancelled_designer_sweep_checkpoints_and_resumes_bit_identically() {
    let system = small_system();
    let candidates: Vec<Vec<TileIndex>> = (0..4)
        .map(|r| vec![TileIndex::new(r, 1), TileIndex::new(r, 2)])
        .collect();
    let reference = score_candidates(
        &system,
        &candidates,
        CurrentSettings::default(),
        &RunContext::unbounded(),
    )
    .unwrap();

    let ckpt_dir = scratch_dir("designer-resume");
    let engine_cfg = || EngineConfig {
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..EngineConfig::default()
    };
    let request = Request::Designer {
        candidates: candidates.clone(),
    };

    // Round 1: submit keyed, then kill the server with a zero-length
    // drain window so the sweep is cancelled mid-flight.
    let h = Harness::start(
        SlowEvaluator::new(
            tecopt_serve::TecEvaluator::new(system.clone(), CurrentSettings::default()),
            Duration::from_millis(200),
        ),
        engine_cfg(),
        ServerConfig {
            drain_timeout: Duration::ZERO,
            ..fast_server_config()
        },
    );
    let addr = h.addr.clone();
    let req = request.clone();
    let round1 = std::thread::spawn(move || {
        let mut c = Client::tcp(addr).with_policy(RetryPolicy {
            max_attempts: 1,
            ..fast_policy()
        });
        c.request_keyed("sweep-A", req, None)
    });
    std::thread::sleep(Duration::from_millis(80));
    let report = h.stop();
    let outcome = round1.join().unwrap();
    match outcome {
        Err(ClientError::RetriesExhausted { .. })
        | Err(ClientError::Server { .. })
        | Err(ClientError::Io(_)) => {}
        other => panic!("round 1 should have been interrupted, got {other:?}"),
    }
    assert!(!report.drained_cleanly, "zero drain window cannot be clean");

    // Round 2: a fresh server over the same checkpoint directory; the
    // same key resumes the sweep and completes it.
    let h = Harness::start(
        tecopt_serve::TecEvaluator::new(system.clone(), CurrentSettings::default()),
        engine_cfg(),
        fast_server_config(),
    );
    let mut c = Client::tcp(h.addr.clone()).with_policy(fast_policy());
    let resumed = c
        .request_keyed("sweep-A", request, None)
        .expect("resumed sweep completes");
    let report = h.stop();
    assert!(report.drained_cleanly);

    match resumed {
        tecopt_serve::Response::Designer { scores } => {
            assert_eq!(scores.len(), reference.len());
            for (got, want) in scores.iter().zip(&reference) {
                assert_eq!(got.device_count, want.device_count);
                assert_eq!(
                    got.current.value().to_bits(),
                    want.current.value().to_bits()
                );
                assert_eq!(got.peak.value().to_bits(), want.peak.value().to_bits());
                assert_eq!(
                    got.tec_power.value().to_bits(),
                    want.tec_power.value().to_bits()
                );
            }
        }
        other => panic!("expected designer scores, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Soak: sustained mixed chaos (run by the dedicated serve chaos pass)
// ---------------------------------------------------------------------------

#[test]
#[ignore = "multi-second soak; run via scripts/check.sh serve chaos pass"]
fn soak_concurrent_clients_panics_deadline_storms_and_disconnects() {
    const CLIENTS: usize = 8;
    const KILLERS: usize = 2;
    const REQUESTS_PER_CLIENT: usize = 10;

    let h = Harness::start(
        SlowEvaluator::new(
            MidRequestPanic::every(
                tecopt_serve::TecEvaluator::new(small_system(), CurrentSettings::default()),
                7,
            ),
            Duration::from_millis(20),
        ),
        EngineConfig {
            queue_capacity: 8,
            ..EngineConfig::default()
        },
        ServerConfig {
            handlers: CLIENTS + KILLERS,
            eval_workers: 3,
            poll_interval: Duration::from_millis(5),
            drain_timeout: Duration::from_secs(20),
        },
    );

    let ok = Arc::new(AtomicUsize::new(0));
    let typed_err = Arc::new(AtomicUsize::new(0));

    // 8 well-behaved (but demanding) clients: steady solves, runaway
    // sweeps, periodic 1 ms deadline storms, full retry policy.
    let mut threads: Vec<std::thread::JoinHandle<()>> = (0..CLIENTS)
        .map(|who| {
            let addr = h.addr.clone();
            let ok = Arc::clone(&ok);
            let typed_err = Arc::clone(&typed_err);
            std::thread::spawn(move || {
                let mut c = Client::tcp(addr).with_policy(RetryPolicy {
                    max_attempts: 6,
                    base_backoff: Duration::from_millis(5),
                    max_backoff: Duration::from_millis(80),
                    response_timeout: Duration::from_secs(30),
                });
                for i in 0..REQUESTS_PER_CLIENT {
                    let deadline = if i % 4 == 3 { Some(1) } else { Some(30_000) };
                    let request = if i % 5 == 4 {
                        Request::Runaway {
                            lambda_tolerance: 1e-9,
                            fractions: vec![0.2, 0.6, 0.9],
                        }
                    } else {
                        steady(0.5 + (who * REQUESTS_PER_CLIENT + i) as f64 * 0.003)
                    };
                    match c.request(request, deadline) {
                        Ok(_) => {
                            ok.fetch_add(1, Ordering::SeqCst);
                        }
                        // Every failure must be TYPED: a server-reported
                        // code, or retries exhausted on typed shed codes.
                        Err(ClientError::Server { .. })
                        | Err(ClientError::RetriesExhausted { .. }) => {
                            typed_err.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(other) => panic!("untyped failure reached a client: {other:?}"),
                    }
                }
            })
        })
        .collect();

    // 2 hostile clients: torn frames and mid-request deaths, repeatedly.
    for k in 0..KILLERS {
        let addr = h.addr.clone();
        threads.push(std::thread::spawn(move || {
            let frame = tecopt_serve::wire::encode_request(&tecopt_serve::RequestFrame {
                key: None,
                deadline_ms: None,
                request: steady(1.0),
            });
            let full = format!("{frame}\n");
            for round in 0..6 {
                let Ok(mut s) = TcpStream::connect(&addr) else {
                    continue;
                };
                if (round + k) % 2 == 0 {
                    // Die mid-frame.
                    let _ = s.write_all(&torn_frame(&full, full.len() / 2));
                } else {
                    // Die mid-request, after the frame is accepted.
                    let _ = s.write_all(full.as_bytes());
                }
                let _ = s.flush();
                std::thread::sleep(Duration::from_millis(25));
                drop(s);
            }
        }));
    }

    for t in threads {
        t.join().expect("no client thread may panic");
    }
    let report = h.stop();

    // Everything client-visible resolved, and resolved typed.
    assert_eq!(
        ok.load(Ordering::SeqCst) + typed_err.load(Ordering::SeqCst),
        CLIENTS * REQUESTS_PER_CLIENT
    );
    assert!(ok.load(Ordering::SeqCst) > 0, "soak served nothing");
    // The injected chaos actually happened and was contained.
    assert!(report.engine.panics_contained > 0, "no panic was injected");
    assert!(report.disconnects > 0, "no disconnect was seen");
    // The storm produced typed deadline errors, not hangs: every
    // submitted request is accounted for by the engine counters.
    assert_eq!(
        report.engine.submitted,
        report.engine.completed_ok
            + report.engine.completed_err
            + report.engine.shed_overload
            + report.engine.shed_shutdown
            + report.engine.deduplicated
    );
    // Graceful shutdown drained every in-flight request.
    assert!(report.drained_cleanly, "drain was forced: {report:?}");
}
