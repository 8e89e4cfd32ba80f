//! `serve_mixed`: an in-process `Server` on loopback TCP serving the
//! greedy-deployed Alpha system, driven from this process over two
//! connections (never more than two generator threads).
//!
//! Connection A sends an open-loop steady stream over a fixed ladder of
//! rates; a stated share re-sends an earlier idempotency key so the
//! engine's result cache answers it. Connection B sends an open-loop
//! sweep stream at a fixed rate: runaway sweeps, designer sweeps with 1–2
//! candidates and short transient playbacks. Every request is timed from
//! its due time, so a stall also counts against the requests it delays.

use crate::calib::Calibration;
use crate::common::{timed_setup, Args, RunResult};
use crate::layers::replay_system;
use crate::schedule::{
    steady_schedule, sweep_schedule, Rung, SplitMix64, SteadyCall, SweepCall, SweepKind,
};
use crate::stats::{mean, median, tail_percentile};
use crate::trace::{Scope, Tracer};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tecopt::transient::ControllerSpec;
use tecopt::{
    greedy_deploy, CancelToken, CoolingSystem, CurrentSettings, DeploySettings, EnvelopeSettings,
    OptError, RunContext, TileIndex,
};
use tecopt_bench::{alpha_system, THETA_LIMIT};
use tecopt_linalg::Cholesky;
use tecopt_serve::wire::{decode_request, decode_response, encode_request, encode_response};
use tecopt_serve::{
    Client, Engine, EngineConfig, Evaluator, Listener, Request, RequestFrame, Response,
    RetryPolicy, Server, ServerConfig, ServerReport, TecEvaluator,
};
use tecopt_units::{Amperes, Kelvin, Watts};

/// Offered steady rates (req/s) and their shares of the window. The rates
/// are assumed, not taken from measured traffic. The first rung is the
/// nominal rate the latency figures are read at: at the reference
/// machine's ~1.8 ms median it keeps one sequential connection busy a
/// fifth of the time, so its median is service, not queueing. The rungs
/// then double to 3200 req/s. On the reference machine the highest rung
/// that passed was 200 to 800 req/s and 1600 never passed, so
/// `serve.max_rps` reads capacity rather than the top of the ladder.
/// Every rung holds at least a thousand requests in a window of 30 s or
/// more, so its p99 has ten samples beyond it.
const LADDER: [(f64, f64); 6] = [
    (100.0, 0.5),
    (200.0, 0.2),
    (400.0, 0.1),
    (800.0, 0.1),
    (1600.0, 0.05),
    (3200.0, 0.05),
];

/// The ladder of the short traced stream the other workloads' traced runs
/// include: (rate, seconds), each rung holding about 1200 requests.
const PROBE_LADDER: [(f64, f64); 5] = [
    (200.0, 6.0),
    (400.0, 3.0),
    (800.0, 1.5),
    (1600.0, 0.75),
    (3200.0, 0.375),
];

/// A rung above the nominal one is abandoned once a request is this late
/// to be sent, seconds: the rung is past capacity, and every later rung
/// is faster still, so the rest of the ladder is not sent.
const ABANDON_LAG_S: f64 = 1.0;

/// Gap between sweeps, seconds; assumed, not measured traffic. A
/// sweep holds one of the two cores for about 0.05–1.4 s, so one every
/// 3 s keeps sweep work beside the steady stream for roughly a quarter of
/// the window without saturating the server, and a 30 s window holds
/// about ten sweeps.
const SWEEP_PERIOD: f64 = 3.0;

/// A rung passes only if its steady p99 is within this limit, ms. Sweeps
/// alone push the nominal rung's p99 to 10–30 ms on the reference
/// machine; a rung past capacity builds a backlog that passes 100 ms
/// within a second. The limit sits between the two, so `serve.max_rps`
/// reads capacity rather than the sweeps' tail.
pub const P99_LIMIT_MS: f64 = 100.0;

/// A rung's backlog counts as growing when the median generator lag of
/// its last quarter exceeds that of its first quarter by more than this,
/// ms.
const LAG_GROWTH_MS: f64 = 5.0;

/// Steady responses checked against a dense Cholesky solve per run.
const DENSE_CHECKS: usize = 20;

/// Agreement required with the dense solve, °C.
const DENSE_TOL: f64 = 1e-6;

/// A running server with the system it serves.
pub struct Service {
    /// The served system (kept for checks and replays).
    system: CoolingSystem,
    /// λ_m of the served system.
    lambda: f64,
    /// Listening address.
    addr: SocketAddr,
    engine: Arc<Engine<TecEvaluator>>,
    shutdown: CancelToken,
    handle: Option<JoinHandle<ServerReport>>,
}

impl Service {
    /// Deploys Alpha greedily at 85 °C, binds a server for the deployment
    /// and sends one steady and one transient warm-up request, so the
    /// server's lazy λ_m cache is filled before timing starts.
    ///
    /// # Errors
    ///
    /// Deployment, bind or warm-up failures.
    pub fn start(seed: u64) -> Result<Service, OptError> {
        let base = alpha_system()?;
        let outcome = greedy_deploy(&base, DeploySettings::with_limit(THETA_LIMIT))?;
        let d = outcome.deployment();
        if d.device_count() == 0 {
            return Err(OptError::NoDevicesDeployed);
        }
        let system = d.system().clone();
        let lambda = d.optimum().lambda().value();
        let engine = Arc::new(Engine::new(
            TecEvaluator::new(system.clone(), CurrentSettings::default()),
            EngineConfig {
                queue_capacity: 64,
                cache_capacity: 4096,
                ..EngineConfig::default()
            },
        ));
        let io = |e: std::io::Error| OptError::InvalidParameter(format!("server: {e}"));
        let listener = Listener::bind_tcp("127.0.0.1:0").map_err(io)?;
        let addr = listener
            .local_addr()
            .ok_or_else(|| OptError::InvalidParameter("listener has no address".into()))?;
        let server = Server::new(
            listener,
            Arc::clone(&engine),
            ServerConfig {
                handlers: 2,
                eval_workers: 2,
                poll_interval: Duration::from_millis(5),
                drain_timeout: Duration::from_secs(10),
            },
        );
        let shutdown = server.shutdown_token();
        let handle = std::thread::spawn(move || server.run());
        let service = Service {
            system,
            lambda,
            addr,
            engine,
            shutdown,
            handle: Some(handle),
        };
        let mut client = service.client();
        let warm = |r: Result<Response, tecopt_serve::ClientError>| {
            r.map(drop)
                .map_err(|e| OptError::InvalidParameter(format!("warm-up: {e}")))
        };
        warm(client.request_keyed(
            "warm-steady",
            Request::Steady {
                current: Amperes(0.5 * lambda),
            },
            None,
        ))?;
        let transient = service.sweep_request(&fresh_sweep(SweepKind::Transient, seed ^ 0x77a7));
        warm(client.request_keyed("warm-transient", transient, None))?;
        Ok(service)
    }

    /// A client that never retries, so every failure is counted.
    pub fn client(&self) -> Client {
        Client::tcp(self.addr.to_string()).with_policy(RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        })
    }

    /// Stops the server and returns its report.
    pub fn stop(mut self) -> Option<ServerReport> {
        self.shutdown.cancel();
        self.handle.take().and_then(|h| h.join().ok())
    }

    /// The body of a sweep request, generated from its body seed.
    fn sweep_request(&self, call: &SweepCall) -> Request {
        let mut rng = SplitMix64::new(call.body_seed);
        match call.kind {
            SweepKind::Runaway => Request::Runaway {
                lambda_tolerance: 1e-9,
                fractions: vec![
                    rng.range(0.3, 0.6),
                    rng.range(0.6, 0.9),
                    rng.range(0.9, 0.99),
                    rng.range(1.05, 1.3),
                ],
            },
            SweepKind::Designer => {
                let grid = self.system.config().grid();
                let deployed = self.system.tec_tiles().to_vec();
                let candidates = (0..call.designer_candidates)
                    .map(|_| {
                        let mut tiles = deployed.clone();
                        let extra = TileIndex::new(rng.index(grid.rows()), rng.index(grid.cols()));
                        if !tiles.contains(&extra) {
                            tiles.push(extra);
                        }
                        tiles
                    })
                    .collect();
                Request::Designer { candidates }
            }
            SweepKind::Transient => {
                let powers = self.system.tile_powers();
                let segment = |rng: &mut SplitMix64| {
                    let scale = rng.range(0.9, 1.1);
                    (
                        0.04,
                        powers.iter().map(|p| Watts(p.value() * scale)).collect(),
                    )
                };
                Request::Transient {
                    dt: 2e-3,
                    limit: THETA_LIMIT,
                    envelope: EnvelopeSettings::default(),
                    controller: ControllerSpec::Constant {
                        current: Amperes(self.lambda * rng.range(0.2, 0.6)),
                    },
                    schedule: vec![segment(&mut rng), segment(&mut rng)],
                }
            }
        }
    }
}

/// A sweep outside the schedule (warm-ups, and replays of a kind a short
/// stream never sent).
fn fresh_sweep(kind: SweepKind, body_seed: u64) -> SweepCall {
    SweepCall {
        due: 0.0,
        kind,
        body_seed,
        designer_candidates: 1,
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown.cancel();
        if let Some(h) = self.handle.take() {
            // A panicked server thread has nothing left to report here.
            let _ = h.join();
        }
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
struct Answer {
    /// Due time to completion, ms.
    latency_ms: f64,
    /// Due time to send, ms.
    lag_ms: f64,
    /// Send to completion, ms.
    service_ms: f64,
    result: Result<Response, String>,
}

/// Sends `request` at `due` (or as soon as the connection is free).
fn send(
    client: &mut Client,
    scope: Scope<'_>,
    start: Instant,
    due: f64,
    key: &str,
    request: Request,
    span: &'static str,
) -> Answer {
    let due = start + Duration::from_secs_f64(due);
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
    let sent = Instant::now();
    let result = scope
        .span(span, |_| client.request_keyed(key, request, None))
        .map_err(|e| e.to_string());
    let done = Instant::now();
    Answer {
        latency_ms: (done - due).as_secs_f64() * 1e3,
        lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
        service_ms: (done - sent).as_secs_f64() * 1e3,
        result,
    }
}

/// What one stream produced.
struct Stream {
    steady: Vec<(SteadyCall, Answer)>,
    /// The rung whose remaining steady calls were not sent (see
    /// [`ABANDON_LAG_S`]), with the count of calls not sent.
    abandoned: Option<(usize, usize)>,
    sweeps: Vec<(SweepCall, Request, Answer)>,
    submitted: u64,
    deduplicated: u64,
    shed: u64,
}

/// Drives both connections through their schedules. Every idempotency
/// key is prefixed with `tag`, so streams with different tags never share
/// cached results.
fn drive(
    service: &Service,
    steady: &[SteadyCall],
    sweeps: &[SweepCall],
    tag: &str,
    tracer: Option<&Tracer>,
) -> Stream {
    let before = service.engine.metrics();
    let start = Instant::now();
    let ((steady, abandoned), sweeps) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let mut client = service.client();
            let mut answers = Vec::with_capacity(steady.len());
            for (k, c) in steady.iter().enumerate() {
                if c.rung > 0 && start.elapsed().as_secs_f64() - c.due > ABANDON_LAG_S {
                    return (answers, Some((c.rung, steady.len() - k)));
                }
                let request = Request::Steady {
                    current: Amperes(c.fraction * service.lambda),
                };
                let scope = Scope::op(tracer);
                let ans = send(
                    &mut client,
                    scope,
                    start,
                    c.due,
                    &format!("{tag}{}", c.key),
                    request,
                    "serve.request_steady",
                );
                answers.push((c.clone(), ans));
            }
            (answers, None)
        });
        let b = s.spawn(|| {
            let mut client = service.client();
            sweeps
                .iter()
                .enumerate()
                .map(|(k, c)| {
                    let request = service.sweep_request(c);
                    let key = format!("{tag}w{:x}-{k}", c.body_seed);
                    let scope = Scope::op(tracer);
                    let ans = send(
                        &mut client,
                        scope,
                        start,
                        c.due,
                        &key,
                        request.clone(),
                        "serve.request_sweep",
                    );
                    (c.clone(), request, ans)
                })
                .collect::<Vec<_>>()
        });
        (
            a.join().expect("steady generator thread panicked"),
            b.join().expect("sweep generator thread panicked"),
        )
    });
    let after = service.engine.metrics();
    Stream {
        steady,
        abandoned,
        sweeps,
        submitted: after.submitted - before.submitted,
        deduplicated: after.deduplicated - before.deduplicated,
        shed: after.shed_overload - before.shed_overload,
    }
}

fn response_matches(request: &Request, response: &Response) -> bool {
    match (request, response) {
        (Request::Steady { .. }, Response::Steady { peak, .. }) => peak.value().is_finite(),
        (Request::Runaway { fractions, .. }, Response::Runaway { lambda, points }) => {
            points.len() == fractions.len() && lambda.value() > 0.0
        }
        (Request::Designer { candidates }, Response::Designer { scores }) => {
            scores.len() == candidates.len()
        }
        (Request::Transient { .. }, Response::Transient { steps, .. }) => *steps > 0,
        _ => false,
    }
}

/// Peak silicon temperature from a dense Cholesky solve of `system` at
/// `current`, °C.
fn dense_peak(system: &CoolingSystem, current: Amperes) -> Result<f64, OptError> {
    let st = system.stamped();
    let a = st.system_matrix(current)?;
    let p = st.power_vector(system.tile_powers(), current)?;
    let theta = Cholesky::factor(&a)
        .and_then(|c| c.solve(&p))
        .map_err(OptError::Linalg)?;
    let temps: Vec<Kelvin> = theta.into_iter().map(Kelvin).collect();
    Ok(st
        .model()
        .silicon_temperatures(&temps)
        .into_iter()
        .map(|c| c.value())
        .fold(f64::NEG_INFINITY, f64::max))
}

/// Counts every request as an op and checks every response; a seeded
/// sample of steady answers is re-solved densely.
fn check(service: &Service, stream: &Stream, seed: u64, out: &mut RunResult) {
    for (c, ans) in &stream.steady {
        let request = Request::Steady {
            current: Amperes(c.fraction * service.lambda),
        };
        out.op(match &ans.result {
            Ok(r) if response_matches(&request, r) => None,
            Ok(r) => Some(format!("steady {}: wrong response {r:?}", c.key)),
            Err(e) => Some(format!("steady {}: {e}", c.key)),
        });
    }
    for (c, request, ans) in &stream.sweeps {
        out.op(match &ans.result {
            Ok(r) if response_matches(request, r) => None,
            Ok(_) => Some(format!("{:?}: response of the wrong shape", c.kind)),
            Err(e) => Some(format!("{:?}: {e}", c.kind)),
        });
    }
    let answered: Vec<(f64, f64)> = stream
        .steady
        .iter()
        .filter_map(|(c, ans)| match ans.result {
            Ok(Response::Steady { peak, .. }) => Some((c.fraction, peak.value())),
            _ => None,
        })
        .collect();
    let mut rng = SplitMix64::stream(seed, 5);
    for _ in 0..DENSE_CHECKS.min(answered.len()) {
        let (fraction, peak) = answered[rng.index(answered.len())];
        let current = Amperes(fraction * service.lambda);
        match dense_peak(&service.system, current) {
            Ok(dense) if (dense - peak).abs() <= DENSE_TOL => {}
            Ok(dense) => out.fail(format!(
                "steady at {current:?}: served {peak} vs dense {dense}"
            )),
            Err(e) => out.fail(format!("dense check at {current:?}: {e}")),
        }
    }
}

/// The ladder at a window of `seconds`.
fn ladder(seconds: f64) -> Vec<Rung> {
    LADDER
        .iter()
        .map(|&(rate, share)| Rung {
            rate,
            seconds: seconds * share,
        })
        .collect()
}

/// Steady latencies (from due time) of one rung's calls that `keep`
/// selects, ms.
fn rung_latencies(stream: &Stream, rung: usize, keep: impl Fn(&SteadyCall) -> bool) -> Vec<f64> {
    stream
        .steady
        .iter()
        .filter(|(c, _)| c.rung == rung && keep(c))
        .map(|(_, a)| a.latency_ms)
        .collect()
}

/// The highest rung that was sent in full and met the p99 limit with no
/// failures and no growing backlog, as the rate it actually carried,
/// req/s.
fn max_rps(stream: &Stream) -> f64 {
    let mut best = 0.0;
    for rung in 0.. {
        if stream.abandoned.is_some_and(|(r, _)| r == rung) {
            break;
        }
        let calls: Vec<&(SteadyCall, Answer)> = stream
            .steady
            .iter()
            .filter(|(c, _)| c.rung == rung)
            .collect();
        if calls.len() < 8 {
            break;
        }
        let lat: Vec<f64> = calls.iter().map(|(_, a)| a.latency_ms).collect();
        let failed = calls.iter().any(|(_, a)| a.result.is_err());
        let quarter = calls.len() / 4;
        let lag = |xs: &[&(SteadyCall, Answer)]| {
            median(&xs.iter().map(|(_, a)| a.lag_ms).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        let growing = lag(&calls[calls.len() - quarter..]) > lag(&calls[..quarter]) + LAG_GROWTH_MS;
        let p99_ok = tail_percentile(&lat, 99.0).is_some_and(|p| p <= P99_LIMIT_MS);
        if failed || growing || !p99_ok {
            break;
        }
        let first = calls[0].0.due;
        let (last, ans) = calls[calls.len() - 1];
        let span_s = last.due - first + ans.latency_ms / 1e3;
        best = (calls.len() - 1) as f64 / span_s;
    }
    best
}

/// Records the stream's serve-layer figures as counters.
fn stream_counters(scope: Scope<'_>, stream: &Stream) {
    let nominal = rung_latencies(stream, 0, |_| true);
    let nan = f64::NAN;
    scope.count(
        "serve.steady_p99_ms",
        tail_percentile(&nominal, 99.0).unwrap_or(nan),
    );
    let fresh = rung_latencies(stream, 0, |c| !c.repeat);
    scope.count("serve.fresh_p50_ms", median(&fresh).unwrap_or(nan));
    let sweeps: Vec<f64> = stream.sweeps.iter().map(|(_, _, a)| a.latency_ms).collect();
    scope.count("serve.sweep_p50_ms", median(&sweeps).unwrap_or(nan));
    scope.count("serve.max_rps", max_rps(stream));
    scope.count(
        "serve.cache_hit_share",
        stream.deduplicated as f64 / stream.submitted.max(1) as f64,
    );
    scope.count("serve.shed", stream.shed as f64);
    let errors = stream
        .steady
        .iter()
        .filter(|(_, a)| a.result.is_err())
        .count()
        + stream
            .sweeps
            .iter()
            .filter(|(_, _, a)| a.result.is_err())
            .count();
    scope.count("serve.errors", errors as f64);
    let lags: Vec<f64> = stream
        .steady
        .iter()
        .filter(|(c, _)| c.rung == 0)
        .map(|(_, a)| a.lag_ms)
        .collect();
    scope.count(
        "serve.generator_lag_ms",
        lags.iter().sum::<f64>() / lags.len().max(1) as f64,
    );
    for (c, a) in &stream.steady {
        if c.rung == 0 && !c.repeat {
            scope.count("serve.steady_service_ms", a.service_ms);
        }
    }
}

/// Replays a sample of the stream's requests through
/// `TecEvaluator::evaluate` and the wire codecs, and the served system
/// through every solver layer.
fn replay(
    scope: Scope<'_>,
    service: &Service,
    stream: &Stream,
    rng: &mut SplitMix64,
) -> Result<(), OptError> {
    let evaluator = TecEvaluator::new(service.system.clone(), CurrentSettings::default());
    let ctx = RunContext::unbounded();
    // Fill the evaluator's lazy λ_m cache, as the server's warm-up did.
    evaluator.evaluate(
        &service.sweep_request(&fresh_sweep(SweepKind::Transient, 1)),
        &ctx,
    )?;
    let mut sample: Vec<Request> = stream
        .steady
        .iter()
        .filter(|(c, _)| !c.repeat)
        .take(20)
        .map(|(c, _)| Request::Steady {
            current: Amperes(c.fraction * service.lambda),
        })
        .collect();
    // One sweep of each kind: the stream's own, or a fresh one of that
    // kind when a short stream sent none.
    for kind in [
        SweepKind::Runaway,
        SweepKind::Designer,
        SweepKind::Transient,
    ] {
        let sent = stream.sweeps.iter().find(|(c, _, _)| c.kind == kind);
        sample.push(match sent {
            Some((_, r, _)) => r.clone(),
            None => service.sweep_request(&fresh_sweep(kind, rng.next_u64())),
        });
    }
    for (k, request) in sample.into_iter().enumerate() {
        let op = Scope::op(scope.tracer());
        let name = match request {
            Request::Steady { .. } => "serve.evaluate_steady",
            Request::Runaway { .. } => "serve.evaluate_runaway",
            Request::Designer { .. } => "serve.evaluate_designer",
            Request::Transient { .. } => "serve.evaluate_transient",
            Request::Explore { .. } => "serve.evaluate_explore",
        };
        if let Request::Designer { candidates } = &request {
            for tiles in candidates {
                op.span("thermal.assemble", |_| service.system.with_tiles(tiles))?;
            }
        }
        let response = op.span(name, |_| evaluator.evaluate(&request, &ctx))?;
        let frame = RequestFrame {
            key: Some(format!("r{k}")),
            deadline_ms: None,
            request,
        };
        let result = Ok(response);
        let (req_line, resp_line) = op.span("wire.encode", |_| {
            (
                encode_request(&frame),
                encode_response(frame.key.as_deref(), &result),
            )
        });
        let (req_back, resp_back) = op.span("wire.decode", |_| {
            (decode_request(&req_line), decode_response(&resp_line))
        });
        let round_trip = req_back.is_ok_and(|r| r == frame)
            && resp_back.is_ok_and(|r| r.result.ok() == result.clone().ok());
        if !round_trip {
            return Err(OptError::InvalidParameter(format!(
                "wire round trip changed request {k}"
            )));
        }
    }
    replay_system(scope, &service.system, rng)
}

/// A traced nominal-rate stream on a fresh service, with its replays — the
/// serve-layer probe the other workloads' traced runs include.
pub fn probe(tracer: &Tracer, seed: u64, out: &mut RunResult) -> Result<(), OptError> {
    let service = Service::start(seed)?;
    let ladder: Vec<Rung> = PROBE_LADDER
        .iter()
        .map(|&(rate, seconds)| Rung { rate, seconds })
        .collect();
    let steady = steady_schedule(seed, &ladder);
    let seconds = ladder.iter().map(|r| r.seconds).sum();
    let sweeps = sweep_schedule(seed, seconds, SWEEP_PERIOD);
    let stream = drive(&service, &steady, &sweeps, "", Some(tracer));
    check(&service, &stream, seed, out);
    let scope = Scope::op(Some(tracer));
    stream_counters(scope, &stream);
    let mut rng = SplitMix64::stream(seed, 6);
    replay(scope, &service, &stream, &mut rng)?;
    service.stop();
    Ok(())
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut RunResult) -> Result<(), OptError> {
    let (service, setup_s) =
        timed_setup(out, &mut Calibration::new(), || Service::start(args.seed))?;
    let steady = steady_schedule(args.seed, &ladder(args.seconds));
    let sweeps = sweep_schedule(args.seed, args.seconds, SWEEP_PERIOD);
    if !args.trace {
        let stream = drive(&service, &steady, &sweeps, "", None);
        let report = service_report(service, &stream, args.seed, out);
        let nominal = rung_latencies(&stream, 0, |_| true);
        // Raw latency, not scaled: the workload is not gated, and its
        // latency follows thread hand-offs the kernel does not see.
        out.metric("setup_s", setup_s, "s");
        out.metric("op_mean_ms", mean(&nominal).unwrap_or(f64::NAN), "ms");
        // The headline mixes cache hits in at the assumed repeat share;
        // the split shows how much it depends on that share.
        for (name, repeat) in [
            ("nominal_fresh_latency_ms", false),
            ("nominal_repeat_latency_ms", true),
        ] {
            let xs = rung_latencies(&stream, 0, |c| c.repeat == repeat);
            out.samples.push((name.to_string(), xs));
        }
        out.samples
            .push(("nominal_steady_latency_ms".to_string(), nominal));
        let sweep_ms = stream.sweeps.iter().map(|(_, _, a)| a.latency_ms).collect();
        out.samples.push(("sweep_latency_ms".to_string(), sweep_ms));
        let unsent = stream.abandoned.map_or(0, |(_, n)| n);
        out.samples
            .push(("steady_unsent".to_string(), vec![unsent as f64]));
        let rung_p99 = (0..LADDER.len())
            .map(|r| tail_percentile(&rung_latencies(&stream, r, |_| true), 99.0))
            .map(|p| p.unwrap_or(f64::NAN))
            .collect();
        out.samples.push(("rung_p99_ms".to_string(), rung_p99));
        out.samples
            .push(("max_rps".to_string(), vec![max_rps(&stream)]));
        if let Some(r) = report {
            out.samples.push((
                "server_report".to_string(),
                vec![
                    r.connections as f64,
                    r.disconnects as f64,
                    r.decode_errors as f64,
                ],
            ));
        }
        return Ok(());
    }
    let tracer = Tracer::default();
    // The untraced baseline: the stream's first fifth, sweeps included,
    // under keys of its own so the traced stream does not hit its results.
    // Tracing overhead compares it with the same fifth of the traced
    // stream.
    let head = args.seconds / 5.0;
    let in_head = |c: &SteadyCall| c.due < head;
    let head_steady: Vec<SteadyCall> = steady.iter().filter(|c| in_head(c)).cloned().collect();
    let head_sweeps: Vec<SweepCall> = sweeps.iter().filter(|c| c.due < head).cloned().collect();
    let untraced = drive(&service, &head_steady, &head_sweeps, "u", None);
    check(&service, &untraced, args.seed, out);
    let cpu0 = crate::common::cpu_seconds().unwrap_or(0.0);
    let t = Instant::now();
    let stream = drive(&service, &steady, &sweeps, "", Some(&tracer));
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = crate::common::cpu_seconds().unwrap_or(0.0) - cpu0;
    let peak_rss_mb = crate::common::peak_rss_mb().unwrap_or(f64::NAN);
    check(&service, &stream, args.seed, out);
    let scope = Scope::op(Some(&tracer));
    stream_counters(scope, &stream);
    let mut rng = SplitMix64::stream(args.seed, 6);
    replay(scope, &service, &stream, &mut rng)?;
    let seg = crate::layers::SegmentFigures {
        traced_op_ms: median(&rung_latencies(&stream, 0, in_head)).unwrap_or(f64::NAN),
        untraced_op_ms: median(&rung_latencies(&untraced, 0, in_head)).unwrap_or(f64::NAN),
        cpu_s,
        wall_s,
        peak_rss_mb,
    };
    service.stop();
    let mut rng = SplitMix64::stream(args.seed, 7);
    crate::deploy::probe(&tracer, &mut rng, out)?;
    crate::explore::probe(&tracer, args.seed, out)?;
    crate::finish_traced(args, &tracer, seg, out)
}

/// Checks the stream and stops the server.
fn service_report(
    service: Service,
    stream: &Stream,
    seed: u64,
    out: &mut RunResult,
) -> Option<ServerReport> {
    check(&service, stream, seed, out);
    service.stop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{samples_beyond, TAIL_SAMPLES_BEYOND};
    use tecopt_units::Celsius;

    /// The window `BENCHMARK.json` commits to, seconds.
    const WINDOW: f64 = 30.0;

    #[test]
    fn every_rung_holds_a_p99_at_the_committed_window() {
        let rungs = ladder(WINDOW).into_iter().chain(
            PROBE_LADDER
                .iter()
                .map(|&(rate, seconds)| Rung { rate, seconds }),
        );
        for r in rungs {
            // Jittered gaps average the mean gap; keep a tenth in hand.
            let n = (0.9 * r.rate * r.seconds) as usize;
            assert!(samples_beyond(n, 99.0) >= TAIL_SAMPLES_BEYOND, "{r:?}");
        }
        let shares: f64 = LADDER.iter().map(|&(_, share)| share).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    fn answered(rung: usize, due: f64) -> (SteadyCall, Answer) {
        let call = SteadyCall {
            due,
            rung,
            key: format!("k{rung}-{due}"),
            fraction: 0.5,
            repeat: false,
        };
        let answer = Answer {
            latency_ms: 1.0,
            lag_ms: 0.0,
            service_ms: 1.0,
            result: Ok(Response::Steady {
                peak: Celsius(80.0),
                tec_power: Watts(1.0),
            }),
        };
        (call, answer)
    }

    fn stream(abandoned: Option<(usize, usize)>) -> Stream {
        let mut steady = Vec::new();
        for (rung, rate) in [(0, 100.0), (1, 200.0)] {
            let start = rung as f64 * 10.0;
            for k in 0..1000 {
                steady.push(answered(rung, start + f64::from(k) / rate));
            }
        }
        Stream {
            steady,
            abandoned,
            sweeps: Vec::new(),
            submitted: 0,
            deduplicated: 0,
            shed: 0,
        }
    }

    #[test]
    fn max_rps_is_the_carried_rate_of_the_highest_full_rung() {
        let full = max_rps(&stream(None));
        assert!((full - 200.0).abs() < 1.0, "{full}");
        // A rung the generator abandoned fails, whatever its sent part did.
        let cut = max_rps(&stream(Some((1, 5))));
        assert!((cut - 100.0).abs() < 1.0, "{cut}");
    }
}
