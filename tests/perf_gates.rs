//! Wall-clock acceptance gates: every timing bound the workspace enforces,
//! each next to the equivalence property that makes its fast path safe.
//!
//! Timings only mean something optimized and without competing tests, so
//! every gate is `#[ignore]`d and runs as one stage of `scripts/check.sh`
//! (add `--nocapture` to see the measured values):
//!
//! ```text
//! cargo test --release -q --test perf_gates -- --ignored --test-threads=1
//! ```

use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use tecopt::transient::{ConstantCurrent, TecController, TransientSimulator, TransientTrace};
use tecopt::{
    greedy_deploy, optimize_current_with, runaway_limit, CancelToken, CoolingSystem,
    CurrentSettings, DeploySettings, EnvelopeSettings, EnvelopedController, FactorStrategy,
    OptError, PackageConfig, RunContext, SafetyEnvelope, TecParams, TileIndex,
};
use tecopt_explore::{
    Candidate, CandidateEval, CandidateFailure, DesignSpace, ExploreReport, ExploreSettings,
    Explorer, ParetoPoint, Placement,
};
use tecopt_faultinject::ShardKill;
use tecopt_linalg::SolverBackend;
use tecopt_serve::{
    Engine, EngineConfig, Evaluator, HealthPolicy, HedgePolicy, LocalShard, Request, RequestFrame,
    Response, Router, RouterConfig, ShardHandle,
};
use tecopt_units::{Amperes, Celsius, Watts};

/// The 4x4 hotspot41-like package with one strong hotspot and two TECs.
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

// ---------------------------------------------------------------------------
// Transient playback: factorization reuse and the safety envelope
// ---------------------------------------------------------------------------

const DT: f64 = 0.5;
const STEPS: usize = 20_000;
/// The refactor oracle is two orders of magnitude slower per step; a
/// shorter schedule keeps its wall time bounded without biasing the
/// steps/s ratio (both rates are normalized per step).
const REFACTOR_STEPS: usize = 1_000;
/// Best-of repetitions for every timed configuration.
const REPS: usize = 5;
const MIN_REUSE_SPEEDUP: f64 = 5.0;
const MAX_ENVELOPE_OVERHEAD_PCT: f64 = 2.0;

/// One timed playback of `system`'s own powers on a fresh simulator with
/// the solve-site guard armed at `guard`: `(wall seconds, trace)`.
fn time_playback(
    system: &CoolingSystem,
    guard: Amperes,
    steps: usize,
    reuse: bool,
    controller: &mut (dyn TecController + Send),
) -> (f64, TransientTrace) {
    let schedule = vec![(steps as f64 * DT, system.tile_powers().to_vec())];
    let mut sim = TransientSimulator::new(system.clone(), DT).unwrap();
    sim.set_guard(guard).unwrap();
    sim.set_factorization_reuse(reuse);
    let start = Instant::now();
    let trace = sim
        .run_schedule_supervised(&schedule, controller, &RunContext::unbounded())
        .unwrap_or_else(|f| panic!("playback failed: {}", f.error));
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(trace.samples().len(), steps, "short trace");
    (elapsed, trace)
}

/// Three configurations drive the guarded implicit stepper through
/// `run_schedule_supervised` under a constant-current policy (one
/// factorization key: the cache's best case and the refactor path's
/// representative worst case):
///
/// - **reuse** — factorization caching on (the default): one Cholesky up
///   front, two triangular solves per step after;
/// - **refactor** — caching off, the dense equivalence oracle: a full
///   refactorization every step. reuse/refactor steps/s must be ≥ 5×;
/// - **enveloped** — reuse with the policy wrapped in a `SafetyEnvelope`,
///   whose per-step clamp must cost ≤ 2%.
///
/// The envelope's cost is sub-percent while the host's run-to-run noise
/// is not, so reuse and enveloped playbacks are timed as back-to-back
/// pairs and each takes the minimum over its repetitions.
#[test]
#[ignore = "release-mode timing gate; run via scripts/check.sh"]
fn transient_reuse_speedup_and_envelope_overhead() {
    let system = small_system();
    let lambda = runaway_limit(&system, 1e-9).unwrap().lambda();
    let safe = Amperes(lambda.value() * 0.4);

    let run =
        |ctl: &mut (dyn TecController + Send)| time_playback(&system, lambda, STEPS, true, ctl);
    // One untimed playback warms caches and clock scaling.
    run(&mut ConstantCurrent(safe));

    let mut enveloped = EnvelopedController::new(
        ConstantCurrent(safe),
        SafetyEnvelope::new(lambda, EnvelopeSettings::default()).unwrap(),
    );
    let mut reuse_s = f64::INFINITY;
    let mut envelope_s = f64::INFINITY;
    let mut reuse_trace = TransientTrace::default();
    let mut envelope_trace = TransientTrace::default();
    for _ in 0..REPS {
        let (t, trace) = run(&mut ConstantCurrent(safe));
        reuse_s = reuse_s.min(t);
        reuse_trace = trace;
        let (t, trace) = run(&mut enveloped);
        envelope_s = envelope_s.min(t);
        envelope_trace = trace;
    }

    let mut refactor_s = f64::INFINITY;
    let mut refactor_trace = TransientTrace::default();
    for _ in 0..REPS {
        let (t, trace) = time_playback(
            &system,
            lambda,
            REFACTOR_STEPS,
            false,
            &mut ConstantCurrent(safe),
        );
        refactor_s = refactor_s.min(t);
        refactor_trace = trace;
    }

    // The cached path is the oracle's trajectory, bit for bit, over the
    // oracle's (shorter) schedule prefix.
    for (a, b) in reuse_trace.samples().iter().zip(refactor_trace.samples()) {
        assert_eq!(
            a.peak.value().to_bits(),
            b.peak.value().to_bits(),
            "reuse/refactor divergence at t={}: {:?} vs {:?}",
            a.time,
            a.peak,
            b.peak
        );
    }
    // A clean command stream passes through the envelope unchanged.
    assert!(
        envelope_trace.samples() == reuse_trace.samples(),
        "envelope perturbed a clean command stream"
    );

    let reuse_rate = STEPS as f64 / reuse_s;
    let refactor_rate = REFACTOR_STEPS as f64 / refactor_s;
    let speedup = reuse_rate / refactor_rate;
    let overhead_pct = (envelope_s / reuse_s - 1.0) * 100.0;
    eprintln!(
        "reuse={reuse_rate:.0} steps/s refactor={refactor_rate:.0} steps/s \
         speedup={speedup:.2}x envelope_overhead={overhead_pct:+.3}%"
    );
    assert!(
        speedup >= MIN_REUSE_SPEEDUP,
        "factorization reuse speedup {speedup:.2}x is below {MIN_REUSE_SPEEDUP}x"
    );
    assert!(
        overhead_pct <= MAX_ENVELOPE_OVERHEAD_PCT,
        "envelope overhead {overhead_pct:.3}% exceeds {MAX_ENVELOPE_OVERHEAD_PCT}%"
    );
}

// ---------------------------------------------------------------------------
// Greedy deployment: rank-k updates against refactor-per-probe
// ---------------------------------------------------------------------------

const GRID: usize = 32;
/// Dense probe solves wall-clocked for the per-probe baseline cost.
const BASELINE_PROBES: usize = 3;
/// Timed repetitions of the fast greedy deployment (best wall time wins).
const GREEDY_REPS: usize = 2;
const MIN_RANK_K_SPEEDUP: f64 = 5.0;
const MAX_PEAK_DRIFT: f64 = 1e-8;

/// A full `greedy_deploy` on a 32x32 hotspot41-like package (≈2.3k
/// thermal nodes) with `FactorStrategy::RankKUpdate`: one dense `i = 0`
/// Cholesky per placement evaluation, O(k³) inertia certificates for the
/// `λ_m` probes, rank-k SMW corrections for the line-search solves.
///
/// The baseline — a fresh dense factorization per probe — takes minutes
/// in full at this size, so it is measured as a slice: a few real dense
/// probe solves, normalized per probe, times the exact probe count the
/// refactor path would spend (both strategies follow the same bracket and
/// golden-section schedules, so the fast optimizer's counters are that
/// count). Every accepted iteration is re-solved from scratch at the same
/// tiles and current, and the peaks must agree to 1e-8 °C.
#[test]
#[ignore = "release-mode timing gate; run via scripts/check.sh"]
fn rank_k_greedy_speedup_and_peak_drift() {
    let config = PackageConfig::hotspot41_like(GRID, GRID).unwrap();
    let mut powers = vec![Watts(0.05); GRID * GRID];
    // A few strong hotspots so the greedy loop deploys devices.
    powers[8 * GRID + 8] = Watts(0.7);
    powers[20 * GRID + 20] = Watts(0.65);
    powers[10 * GRID + 22] = Watts(0.6);
    // Dense rank-k updates versus dense refactorization: at this size
    // `Auto` would route both to the sparse CG backend and measure neither.
    let base = CoolingSystem::without_devices(&config, TecParams::superlattice_thin_film(), powers)
        .unwrap()
        .with_backend(SolverBackend::DenseCholesky);
    let passive_peak = base.solve(Amperes(0.0)).unwrap().peak();
    let limit = Celsius(passive_peak.value() - 1.0);
    let settings = DeploySettings::with_limit(limit).with_strategy(FactorStrategy::RankKUpdate);

    // One untimed deployment warms the allocator and clock scaling.
    greedy_deploy(&base, settings).unwrap();
    let mut fast_s = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..GREEDY_REPS {
        let start = Instant::now();
        let out = greedy_deploy(&base, settings).unwrap();
        fast_s = fast_s.min(start.elapsed().as_secs_f64());
        outcome = Some(out);
    }
    let outcome = outcome.unwrap();
    assert!(outcome.is_satisfied(), "{limit:?} should be achievable");
    let iterations = outcome.deployment().iterations();
    assert!(!iterations.is_empty(), "the workload must deploy a device");

    // Equivalence oracle: fresh assembly, fresh factorization, matched
    // tiles and current for every accepted iteration.
    let mut covered: BTreeSet<TileIndex> = BTreeSet::new();
    let mut max_drift = 0.0_f64;
    let mut placements: Vec<Vec<TileIndex>> = Vec::with_capacity(iterations.len());
    for it in iterations {
        covered.extend(it.added.iter().copied());
        let tiles: Vec<TileIndex> = covered.iter().copied().collect();
        let fresh = base.with_tiles(&tiles).unwrap().solve(it.current).unwrap();
        let drift = (fresh.peak().value() - it.peak.value()).abs();
        assert!(
            drift <= MAX_PEAK_DRIFT,
            "update/refactor peak drift {drift:.3e} °C at {} tiles exceeds {MAX_PEAK_DRIFT:.0e}",
            tiles.len()
        );
        max_drift = max_drift.max(drift);
        placements.push(tiles);
    }

    // Probe ledger: the dense factorizations the refactor path would pay.
    let mut dense_probes = 0usize;
    for tiles in &placements {
        let system = base.with_tiles(tiles).unwrap();
        let opt = optimize_current_with(
            &system,
            CurrentSettings::default(),
            FactorStrategy::RankKUpdate,
        )
        .unwrap();
        dense_probes += opt.probes() + opt.evaluations();
    }

    // Per-probe dense cost: from-scratch solves on the final placement at
    // distinct feasible currents (distinct keys defeat the cache).
    let final_system = base.with_tiles(placements.last().unwrap()).unwrap();
    let feasible = runaway_limit(&final_system, 1e-9)
        .unwrap()
        .feasible()
        .value();
    let start = Instant::now();
    for p in 0..BASELINE_PROBES {
        final_system
            .solve(Amperes(feasible * (0.3 + 0.2 * p as f64)))
            .unwrap();
    }
    let per_probe_s = start.elapsed().as_secs_f64() / BASELINE_PROBES as f64;
    let baseline_s = per_probe_s * dense_probes as f64;
    let speedup = baseline_s / fast_s;
    eprintln!(
        "grid={GRID}x{GRID} devices={} iterations={} fast={fast_s:.2}s \
         baseline={baseline_s:.1}s ({dense_probes} probes x {per_probe_s:.3}s) \
         speedup={speedup:.1}x max_drift={max_drift:.2e}",
        outcome.deployment().device_count(),
        iterations.len(),
    );
    assert!(
        speedup >= MIN_RANK_K_SPEEDUP,
        "rank-k update speedup {speedup:.2}x is below {MIN_RANK_K_SPEEDUP}x"
    );
}

// ---------------------------------------------------------------------------
// Serve fleet: failover and hedging tails
// ---------------------------------------------------------------------------

/// Requests per scenario. p99 at this count is the 2nd-slowest request,
/// so a single scheduler hiccup cannot carry the verdict alone.
const REQUESTS: usize = 150;
/// Service delay of a healthy shard's evaluator.
const SERVICE_DELAY: Duration = Duration::from_millis(2);
/// Service delay of the straggler shard in the hedging scenario.
const SLOW_DELAY: Duration = Duration::from_millis(40);
/// Fixed hedge delay (floor path: `min_observations` is never reached).
const HEDGE_FLOOR: Duration = Duration::from_millis(5);
const MAX_FAILOVER_RATIO: f64 = 5.0;
const MAX_HEDGED_RATIO: f64 = 0.75;

/// Answers steady requests after a fixed service delay. It sleeps where
/// `tecopt_faultinject::SlowEvaluator` spins, so three shards' service
/// time does not compete for the cores the latencies are measured on.
struct DelayEval {
    delay: Duration,
}

impl Evaluator for DelayEval {
    fn evaluate(&self, request: &Request, _ctx: &RunContext) -> Result<Response, OptError> {
        std::thread::sleep(self.delay);
        match request {
            Request::Steady { current } => Ok(Response::Steady {
                peak: Celsius(current.value() * 10.0),
                tec_power: Watts(current.value()),
            }),
            _ => Err(OptError::InvalidParameter(
                "the gate evaluator only answers steady requests".into(),
            )),
        }
    }
}

/// Three single-worker engine shards, one per delay, behind a router;
/// every shard is killable.
struct Fleet {
    engines: Vec<Arc<Engine<DelayEval>>>,
    shards: Vec<Arc<ShardKill>>,
    router: Router,
}

impl Fleet {
    fn new(delays: &[Duration], hedge: Option<HedgePolicy>) -> Fleet {
        let engines: Vec<Arc<Engine<DelayEval>>> = delays
            .iter()
            .map(|&delay| Arc::new(Engine::new(DelayEval { delay }, EngineConfig::default())))
            .collect();
        let shards: Vec<Arc<ShardKill>> = engines
            .iter()
            .enumerate()
            .map(|(i, engine)| {
                let local = LocalShard::new(format!("shard-{i}"), Arc::clone(engine))
                    .with_poll_interval(Duration::from_millis(1));
                Arc::new(ShardKill::wrap(Arc::new(local)))
            })
            .collect();
        let router = Router::new(
            shards
                .iter()
                .map(|s| Arc::clone(s) as Arc<dyn ShardHandle>)
                .collect(),
            RouterConfig {
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
                health: HealthPolicy::default(),
                hedge,
                ..RouterConfig::default()
            },
        );
        Fleet {
            engines,
            shards,
            router,
        }
    }

    /// Submits `REQUESTS` keyed steady requests through the router with
    /// one evaluation worker per shard, then drains. Every request must
    /// complete. Returns the nearest-rank p99 latency in microseconds.
    fn p99_micros(&self, key_prefix: &str) -> u64 {
        let micros: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(REQUESTS));
        // The client stops at the first failure but still drains, so the
        // engine workers exit and the error reaches the assertion below.
        let failure: Mutex<Option<String>> = Mutex::new(None);
        let workers = self.engines.len();
        let panics = tecopt::parallel::service_workers(workers + 1, |w| {
            if w < workers {
                self.engines[w].worker_loop(0);
                return;
            }
            let cancel = CancelToken::new();
            for i in 0..REQUESTS {
                let frame = RequestFrame {
                    key: Some(format!("{key_prefix}-{i}")),
                    deadline_ms: None,
                    request: Request::Steady {
                        current: Amperes(0.5 + i as f64 * 0.001),
                    },
                };
                let start = Instant::now();
                let outcome = self.router.submit(frame, &cancel);
                let elapsed = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                if let Err(e) = outcome {
                    *failure.lock().unwrap() =
                        Some(format!("{key_prefix} request {i} failed: {e}"));
                    break;
                }
                micros.lock().unwrap().push(elapsed);
            }
            for engine in &self.engines {
                engine.begin_drain();
            }
        });
        assert!(panics.iter().all(Option::is_none), "{panics:?}");
        if let Some(failure) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
            panic!("{failure}");
        }
        let mut micros = micros.into_inner().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(micros.len(), REQUESTS);
        micros.sort_unstable();
        micros[(REQUESTS * 99).div_ceil(100) - 1]
    }
}

/// A 3-shard in-process fleet whose evaluator answers after a fixed
/// service delay:
///
/// - **healthy** — every shard up: the p99 baseline;
/// - **one shard down** — one shard is killed, refusing every call as a
///   crashed peer would, so its keys pay one typed refusal plus a capped
///   jittered backoff before the next replica answers. Failover p99 must
///   stay ≤ 5× healthy;
/// - **tail hedging** — one shard is 20× slower; the same workload runs
///   unhedged, then with a fixed-floor hedge. Hedged p99 must be ≤ 0.75×
///   unhedged.
#[test]
#[ignore = "release-mode timing gate; run via scripts/check.sh"]
fn fleet_failover_and_hedged_tails() {
    let healthy_delays = [SERVICE_DELAY; 3];
    let healthy_p99 = Fleet::new(&healthy_delays, None).p99_micros("healthy");

    let fleet = Fleet::new(&healthy_delays, None);
    fleet.shards[0].kill();
    let failover_p99 = fleet.p99_micros("one-down");
    let failovers = fleet.router.metrics().failovers;
    assert!(failovers > 0, "the dead shard was never a primary");
    let failover_ratio = failover_p99 as f64 / healthy_p99 as f64;

    let slow_delays = [SLOW_DELAY, SERVICE_DELAY, SERVICE_DELAY];
    let unhedged_p99 = Fleet::new(&slow_delays, None).p99_micros("unhedged");
    let fleet = Fleet::new(
        &slow_delays,
        Some(HedgePolicy {
            floor: HEDGE_FLOOR,
            p99_factor: 1.5,
            min_observations: usize::MAX,
        }),
    );
    let hedged_p99 = fleet.p99_micros("hedged");
    let hedges = fleet.router.metrics();
    assert!(hedges.hedges_won > 0, "no hedge ever covered the straggler");
    let hedged_ratio = hedged_p99 as f64 / unhedged_p99 as f64;

    eprintln!(
        "healthy_p99={healthy_p99}us failover_p99={failover_p99}us \
         (ratio {failover_ratio:.2}, {failovers} failovers) \
         unhedged_p99={unhedged_p99}us hedged_p99={hedged_p99}us \
         (ratio {hedged_ratio:.2}, {} hedges launched, {} won)",
        hedges.hedges_launched, hedges.hedges_won,
    );
    assert!(
        failover_ratio <= MAX_FAILOVER_RATIO,
        "failover p99 is {failover_ratio:.2}x healthy, above {MAX_FAILOVER_RATIO}x"
    );
    assert!(
        hedged_ratio <= MAX_HEDGED_RATIO,
        "hedged p99 is {hedged_ratio:.2}x unhedged, above {MAX_HEDGED_RATIO}x"
    );
}

// ---------------------------------------------------------------------------
// Design-space exploration: resume overhead and parallel speedup
// ---------------------------------------------------------------------------

/// 100 thickness scales x 25 contact scales x 4 placements.
const CANDIDATES: usize = 10_000;
/// Admission budget for the killed run: the kill lands at ~50%.
const KILL_AT: usize = CANDIDATES / 2;
/// Deterministic FP spin per evaluation (a few hundred µs of engine-
/// independent work), standing in for a per-candidate solve chain.
const SPIN_ITERS: u64 = 60_000;
/// Timed repetitions per scenario; the fastest one counts.
const SWEEP_REPS: usize = 2;
const MAX_RESUME_OVERHEAD: f64 = 1.02;
/// The 8× parallel speedup target, binding at ≥ 8 workers.
const SPEEDUP_TARGET: f64 = 8.0;

/// A fixed-cost spin whose result is a pure function of the candidate
/// id, so every run — serial, parallel, or stitched across a kill — must
/// produce the same bits.
fn spin_eval(cand: &Candidate) -> CandidateEval {
    let mut acc = cand.id as f64 / u64::MAX as f64 + 1.5;
    for i in 0..SPIN_ITERS {
        acc = (acc * 1.000_000_11 + i as f64 * 1e-12).fract() + 1.0;
    }
    black_box(acc);
    let frac = |shift: u32| ((cand.id >> shift) & 0xffff) as f64 / 65536.0;
    let peak = 55.0 + 35.0 * frac(7);
    CandidateEval {
        feasible: peak <= 85.0,
        devices: 1 + (cand.id % 5) as usize,
        current: Amperes(0.4 + frac(17)),
        peak: Celsius(peak),
        tec_power: Watts(0.1 + 4.0 * frac(31)),
        evaluations: 12,
    }
}

fn front_bits(front: &[ParetoPoint]) -> Vec<[u64; 3]> {
    front
        .iter()
        .map(|p| {
            [
                p.id(),
                p.peak().value().to_bits(),
                p.tec_power().value().to_bits(),
            ]
        })
        .collect()
}

/// One ledger sweep at `path` under `budget` admissions (`None`:
/// unbounded), counting evaluator calls into `calls`.
fn ledger_sweep(
    explorer: &Explorer,
    path: &Path,
    budget: Option<usize>,
    calls: &AtomicUsize,
) -> Result<ExploreReport, OptError> {
    let ctx = RunContext::unbounded().checkpoint(path);
    let ctx = match budget {
        Some(n) => ctx.probe_budget(n),
        None => ctx,
    };
    explorer.explore_with(
        &ctx,
        |cand: &Candidate| -> Result<CandidateEval, CandidateFailure> {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(spin_eval(cand))
        },
        |_| false,
    )
}

/// A 10k-candidate grid swept by `tecopt-explore` with a synthetic
/// fixed-cost evaluator, so the gate measures the engine, not the
/// physics:
///
/// - **serial** — a plain loop over the candidates: the no-engine baseline;
/// - **clean** — `explore_with` against a fresh durable ledger. Speedup
///   over serial must be ≥ min(0.85 × workers, 8);
/// - **killed + resume** — the same sweep killed by an admission budget at
///   ~50%, then resumed from the ledger. Total wall time ≤ 1.02× clean,
///   and exactly one evaluator call per candidate across both halves.
///
/// Every scenario's Pareto front must be bit-identical.
#[test]
#[ignore = "release-mode timing gate; run via scripts/check.sh"]
fn explore_resume_overhead_and_parallel_speedup() {
    let space = DesignSpace::new(
        (0..100).map(|i| 0.5 + f64::from(i) * 0.015).collect(),
        (0..25).map(|i| 0.8 + f64::from(i) * 0.02).collect(),
        (0..4)
            .map(|c| Placement::Tiles(vec![TileIndex::new(0, c)]))
            .collect(),
        Celsius(85.0),
    )
    .unwrap();
    assert_eq!(space.len(), CANDIDATES);
    // The synthetic evaluator never solves the base package, but the
    // ledger fingerprint digests it like any production sweep.
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let base = CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[],
        vec![Watts(0.1); 16],
    )
    .unwrap();
    let explorer = Explorer::new(&base, space, ExploreSettings::default());
    let workers = tecopt::parallel::worker_count();
    let scratch = |name: &str| -> PathBuf {
        std::env::temp_dir().join(format!("tecopt-perf-gates-{}-{name}", std::process::id()))
    };

    let candidates = explorer.space().candidates();
    let mut serial = Duration::MAX;
    for _ in 0..SWEEP_REPS {
        let start = Instant::now();
        for cand in &candidates {
            black_box(spin_eval(cand));
        }
        serial = serial.min(start.elapsed());
    }

    let path = scratch("clean.ledger");
    let mut clean = Duration::MAX;
    let mut reference: Option<Vec<[u64; 3]>> = None;
    for _ in 0..SWEEP_REPS {
        let _ = std::fs::remove_file(&path);
        let calls = AtomicUsize::new(0);
        let start = Instant::now();
        let report = ledger_sweep(&explorer, &path, None, &calls).unwrap();
        clean = clean.min(start.elapsed());
        assert_eq!(calls.load(Ordering::Relaxed), CANDIDATES);
        let front = front_bits(&report.front);
        let first = reference.get_or_insert_with(|| front.clone());
        assert!(*first == front, "clean repetitions disagree on the front");
    }
    let _ = std::fs::remove_file(&path);
    let reference = reference.unwrap();

    let path = scratch("killed.ledger");
    let mut killed = Duration::MAX;
    let mut duplicates = 0usize;
    for _ in 0..SWEEP_REPS {
        let _ = std::fs::remove_file(&path);
        let calls = AtomicUsize::new(0);
        let start = Instant::now();
        match ledger_sweep(&explorer, &path, Some(KILL_AT), &calls) {
            Err(
                OptError::Cancelled { .. }
                | OptError::DeadlineExceeded { .. }
                | OptError::BudgetExhausted { .. },
            ) => {}
            other => panic!("the killed half must stop on its budget, got {other:?}"),
        }
        let report = ledger_sweep(&explorer, &path, None, &calls).unwrap();
        killed = killed.min(start.elapsed());
        assert!(
            report.resumed,
            "the resumed sweep did not recover the ledger"
        );
        assert!(
            front_bits(&report.front) == reference,
            "the stitched front is not bit-identical to the clean front"
        );
        duplicates += calls.load(Ordering::Relaxed).saturating_sub(CANDIDATES);
    }
    let _ = std::fs::remove_file(&path);

    let speedup = serial.as_secs_f64() / clean.as_secs_f64();
    let required_speedup = (0.85 * workers as f64).min(SPEEDUP_TARGET);
    let overhead = killed.as_secs_f64() / clean.as_secs_f64();
    eprintln!(
        "serial={}ms clean={}ms killed+resume={}ms workers={workers} \
         speedup={speedup:.2} (>= {required_speedup:.2}) overhead={overhead:.3} \
         duplicates={duplicates}",
        serial.as_millis(),
        clean.as_millis(),
        killed.as_millis(),
    );
    assert_eq!(duplicates, 0, "duplicated evaluations across the kill");
    assert!(
        overhead <= MAX_RESUME_OVERHEAD,
        "killed+resume is {overhead:.3}x the clean sweep, above {MAX_RESUME_OVERHEAD}x"
    );
    assert!(
        speedup >= required_speedup,
        "parallel speedup {speedup:.2}x is below {required_speedup:.2}x for {workers} workers"
    );
}
