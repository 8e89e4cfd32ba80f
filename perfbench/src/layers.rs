//! Replays of an op's constituent public calls, one span per call, and
//! the per-layer metrics the traced run derives from those spans.
//!
//! Replays run outside the timed top-level call, on the same inputs, so
//! tracing never slows the call it explains.

use crate::common::{Metric, RunResult};
use crate::schedule::SplitMix64;
use crate::stats::median;
use crate::trace::{self_ms, Scope, Tracer};
use std::path::Path;
use std::time::Instant;
use tecopt::transient::TransientSimulator;
use tecopt::{
    optimize_current, optimize_current_with, runaway_limit, runaway_limit_fast, CoolingSystem,
    CurrentSettings, FactorStrategy, OptError,
};
use tecopt_explore::{pareto_front, EvalRecord, Ledger, ParetoPoint};
use tecopt_linalg::{Cholesky, DiagonalUpdate, SolverBackend, UpdatableFactor};
use tecopt_units::{Amperes, Celsius, Watts};

/// Relative tolerance of every replayed `λ_m` search (the default of
/// [`CurrentSettings`]).
pub const LAMBDA_TOL: f64 = 1e-9;

/// Timestep of replayed transient steps, seconds.
const STEP_DT: f64 = 1e-3;

/// Transient steps replayed per system.
const STEPS: usize = 20;

fn linalg(e: tecopt_linalg::LinalgError) -> OptError {
    OptError::Linalg(e)
}

/// Replays every solver-layer call on one deployed `system`: the dense
/// and the rank-k `λ_m` searches, a full current optimization, a dense
/// factorization with its triangular solves, a rank-k SMW apply and
/// inertia probe, Auto-backend solves at fresh currents, the rank-k
/// fallback rate, and transient steps.
///
/// # Errors
///
/// Any failure of a replayed call.
pub fn replay_system(
    scope: Scope<'_>,
    system: &CoolingSystem,
    rng: &mut SplitMix64,
) -> Result<(), OptError> {
    let lim = scope.span("lambda.runaway_limit", |_| {
        runaway_limit(system, LAMBDA_TOL)
    })?;
    scope.count("lambda.probes", lim.probes() as f64);
    let fast = scope.span("lambda.fast", |_| runaway_limit_fast(system, LAMBDA_TOL))?;
    scope.count("lambda.fast_probes", fast.probes() as f64);
    let opt = scope.span("current.optimize", |_| {
        optimize_current(system, CurrentSettings::default())
    })?;
    scope.count("current.golden_evals", opt.evaluations() as f64);
    scope.count("current.line_search_ms", line_search_ms(system)?);
    let lambda = lim.feasible().value();

    // Dense Cholesky of G − i·D at a mid-range current, and its solves.
    let i = Amperes(lambda * rng.range(0.2, 0.8));
    let stamped = system.stamped();
    let a = stamped.system_matrix(i)?;
    let p = stamped.power_vector(system.tile_powers(), i)?;
    let n = a.rows() as f64;
    let t = Instant::now();
    let chol = scope
        .span("linalg.factor", |_| Cholesky::factor(&a))
        .map_err(linalg)?;
    scope.count(
        "linalg.factor_gflops",
        n * n * n / 3.0 / t.elapsed().as_secs_f64() / 1e9,
    );
    for _ in 0..5 {
        let x = scope
            .span("linalg.trisolve", |_| chol.solve(&p))
            .map_err(linalg)?;
        std::hint::black_box(x);
    }

    // Rank-k SMW over the i = 0 factor, as the RankKUpdate strategy does.
    let delta = stamped.placement_delta();
    let g0 = Cholesky::factor(&stamped.system_matrix(Amperes(0.0))?).map_err(linalg)?;
    let upd = UpdatableFactor::new(g0, delta.nodes()).map_err(linalg)?;
    let update = DiagonalUpdate::new(delta.deltas_at(i)).map_err(linalg)?;
    let applied = scope
        .span("linalg.smw_apply", |_| upd.apply(&update))
        .map_err(linalg)?;
    std::hint::black_box(applied);
    let pd = scope
        .span("linalg.inertia_probe", |_| {
            upd.is_positive_definite(&update)
        })
        .map_err(linalg)?;
    std::hint::black_box(pd);

    // Auto-backend solves at fresh currents.
    let mut solver = system.solver()?;
    for _ in 0..3 {
        let i = Amperes(lambda * rng.range(0.0, 0.9));
        let state = scope.span("system.solve", |_| solver.solve(i))?;
        std::hint::black_box(state);
    }

    // Rank-k fallback rate over a golden-section-like probe sequence, on
    // the dense backend (rank-k updates are a no-op on the sparse one).
    let dense = system.clone().with_backend(SolverBackend::DenseCholesky);
    let mut ranked = dense.solver()?.with_strategy(FactorStrategy::RankKUpdate);
    for _ in 0..5 {
        ranked.solve(Amperes(lambda * rng.range(0.0, 0.95)))?;
    }
    scope.count("system.smw_updates", ranked.rank_k_updates() as f64);
    scope.count("system.smw_fallbacks", ranked.refactor_fallbacks() as f64);

    // Transient steps with the factorization cached (one warm-up step).
    let mut sim = TransientSimulator::new(system.clone(), STEP_DT)?;
    let on = Amperes(lambda * 0.5);
    sim.step(system.tile_powers(), on)?;
    for _ in 0..STEPS {
        let s = scope.span("transient.step", |_| sim.step(system.tile_powers(), on))?;
        std::hint::black_box(s);
    }
    Ok(())
}

/// The current search beyond its `λ_m` bound, ms: the rank-k
/// optimization's wall minus the rank-k `λ_m` search's wall on the same
/// system, medians of three. (The dense bound's own noise is larger than
/// the whole line search, so the difference is read on the rank-k path,
/// whose line search is the same golden section.)
fn line_search_ms(system: &CoolingSystem) -> Result<f64, OptError> {
    let mut optimize = Vec::new();
    let mut bound = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        optimize_current_with(
            system,
            CurrentSettings::default(),
            FactorStrategy::RankKUpdate,
        )?;
        optimize.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        runaway_limit_fast(system, LAMBDA_TOL)?;
        bound.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&optimize).unwrap_or(f64::NAN) - median(&bound).unwrap_or(f64::NAN))
}

/// Appends `count` claim + record pairs to a scratch ledger in `dir`, one
/// span per pair.
///
/// # Errors
///
/// Ledger I/O.
pub fn replay_ledger(scope: Scope<'_>, dir: &Path, count: usize) -> Result<(), OptError> {
    let path = dir.join("scratch.ledger");
    let (ledger, _) = Ledger::open(&path, 0x5eed, count)?;
    for k in 0..count as u64 {
        let rec = EvalRecord::Evaluated {
            id: k,
            feasible: true,
            devices: 4,
            current: Amperes(1.5),
            peak: Celsius(84.0),
            tec_power: Watts(0.5),
            evaluations: 30,
        };
        scope.span("explore.ledger_append", |_| {
            ledger.claim(k, 1)?;
            ledger.record(&rec)
        })?;
    }
    std::fs::remove_file(&path).map_err(|e| OptError::InvalidParameter(e.to_string()))
}

/// Times [`pareto_front`] over `points` (the workload's own results).
pub fn replay_pareto(scope: Scope<'_>, points: Vec<ParetoPoint>) -> usize {
    scope.span("explore.pareto", |_| pareto_front(points).len())
}

/// Self times of `name`, ms, median.
fn span_ms(spans: &[crate::trace::Span], name: &str) -> Option<f64> {
    median(&self_ms(spans, name))
}

fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

fn share(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 46] = [
    ("deploy.greedy_s", "s"),
    ("deploy.full_cover_s", "s"),
    ("deploy.greedy_runs", "count"),
    ("deploy.useful_greedy_share", "ratio"),
    ("lambda.runaway_limit_ms", "ms"),
    ("lambda.probes", "count"),
    ("lambda.fast_ms", "ms"),
    ("lambda.fast_probes", "count"),
    ("current.optimize_ms", "ms"),
    ("current.golden_evals", "count"),
    ("current.line_search_ms", "ms"),
    ("thermal.assemble_ms", "ms"),
    ("linalg.factor_ms", "ms"),
    ("linalg.factor_gflops", "GFLOP/s"),
    ("linalg.trisolve_us", "us"),
    ("linalg.smw_apply_us", "us"),
    ("linalg.inertia_probe_us", "us"),
    ("system.solve_ms", "ms"),
    ("system.smw_fallback_share", "ratio"),
    ("serve.evaluate_steady_ms", "ms"),
    ("serve.evaluate_runaway_ms", "ms"),
    ("serve.evaluate_designer_ms", "ms"),
    ("serve.evaluate_transient_ms", "ms"),
    ("serve.stack_ms", "ms"),
    ("serve.steady_p99_ms", "ms"),
    ("serve.fresh_p50_ms", "ms"),
    ("serve.sweep_p50_ms", "ms"),
    ("serve.max_rps", "req/s"),
    ("serve.cache_hit_share", "ratio"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("transient.step_us", "us"),
    ("transient.steps_per_s", "1/s"),
    ("explore.candidates_per_s", "1/s"),
    ("explore.eval_tiles_ms", "ms"),
    ("explore.eval_greedy_ms", "ms"),
    ("explore.ledger_append_us", "us"),
    ("explore.pareto_ms", "ms"),
    ("explore.pruned_share", "ratio"),
    ("explore.quarantined", "count"),
    ("parallel.core_utilization", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("process.peak_rss_mb", "MiB"),
];

/// What the traced run measured outside the tracer's spans and counters.
#[derive(Debug, Clone, Copy)]
pub struct SegmentFigures {
    /// Median top-level op wall with tracing on, ms.
    pub traced_op_ms: f64,
    /// Median top-level op wall of the same ops with tracing off, ms.
    pub untraced_op_ms: f64,
    /// Process CPU seconds over the traced segment.
    pub cpu_s: f64,
    /// Wall seconds of the traced segment.
    pub wall_s: f64,
    /// Peak resident set after the traced segment, MiB: set-up and the
    /// workload's own ops, before any replay or probe.
    pub peak_rss_mb: f64,
}

/// Derives every per-layer metric from the traced run.
///
/// # Errors
///
/// Names the first metric the run could not measure.
pub fn layer_metrics(
    tracer: &Tracer,
    seg: SegmentFigures,
    out: &mut RunResult,
) -> Result<(), String> {
    let spans = tracer.spans();
    let c = |name: &str| tracer.counts(name);
    let ms = |name: &str| span_ms(&spans, name);
    let us = |name: &str| ms(name).map(|v| v * 1e3);
    let secs = |name: &str| ms(name).map(|v| v / 1e3);
    let first = |name: &str| c(name).first().copied();
    let step_us = us("transient.step");
    let nproc = crate::common::nproc() as f64;
    for (name, unit) in LAYER_METRICS {
        let value = match name {
            "deploy.greedy_s" => secs("deploy.greedy"),
            "deploy.full_cover_s" => secs("deploy.full_cover"),
            "deploy.greedy_runs" => mean(&c("deploy.greedy_runs")),
            "deploy.useful_greedy_share" => share(
                sum(&c("deploy.satisfied_runs")),
                sum(&c("deploy.greedy_runs")),
            ),
            "lambda.runaway_limit_ms" => ms("lambda.runaway_limit"),
            "lambda.probes" => mean(&c("lambda.probes")),
            "lambda.fast_ms" => ms("lambda.fast"),
            "lambda.fast_probes" => mean(&c("lambda.fast_probes")),
            "current.optimize_ms" => ms("current.optimize"),
            "current.golden_evals" => mean(&c("current.golden_evals")),
            "current.line_search_ms" => median(&c("current.line_search_ms")),
            "thermal.assemble_ms" => ms("thermal.assemble"),
            "linalg.factor_ms" => ms("linalg.factor"),
            "linalg.factor_gflops" => median(&c("linalg.factor_gflops")),
            "linalg.trisolve_us" => us("linalg.trisolve"),
            "linalg.smw_apply_us" => us("linalg.smw_apply"),
            "linalg.inertia_probe_us" => us("linalg.inertia_probe"),
            "system.solve_ms" => ms("system.solve"),
            "system.smw_fallback_share" => {
                let f = sum(&c("system.smw_fallbacks"));
                share(f, f + sum(&c("system.smw_updates")))
            }
            "serve.evaluate_steady_ms" => ms("serve.evaluate_steady"),
            "serve.evaluate_runaway_ms" => ms("serve.evaluate_runaway"),
            "serve.evaluate_designer_ms" => ms("serve.evaluate_designer"),
            "serve.evaluate_transient_ms" => ms("serve.evaluate_transient"),
            "serve.stack_ms" => median(&c("serve.steady_service_ms"))
                .zip(ms("serve.evaluate_steady"))
                .map(|(client, direct)| client - direct),
            "serve.steady_p99_ms" => first("serve.steady_p99_ms"),
            "serve.fresh_p50_ms" => first("serve.fresh_p50_ms"),
            "serve.sweep_p50_ms" => first("serve.sweep_p50_ms"),
            "serve.max_rps" => first("serve.max_rps"),
            "serve.cache_hit_share" => first("serve.cache_hit_share"),
            "serve.shed" => first("serve.shed"),
            "serve.errors" => first("serve.errors"),
            "serve.generator_lag_ms" => first("serve.generator_lag_ms"),
            "wire.encode_us" => us("wire.encode"),
            "wire.decode_us" => us("wire.decode"),
            "transient.step_us" => step_us,
            "transient.steps_per_s" => step_us.map(|u| 1e6 / u),
            "explore.candidates_per_s" => first("explore.candidates_per_s"),
            "explore.eval_tiles_ms" => ms("explore.eval_tiles"),
            "explore.eval_greedy_ms" => ms("explore.eval_greedy"),
            "explore.ledger_append_us" => us("explore.ledger_append"),
            "explore.pareto_ms" => ms("explore.pareto"),
            "explore.pruned_share" => first("explore.pruned_share"),
            "explore.quarantined" => first("explore.quarantined"),
            "parallel.core_utilization" => share(seg.cpu_s, seg.wall_s * nproc),
            "trace.overhead_share" => {
                share(seg.traced_op_ms - seg.untraced_op_ms, seg.untraced_op_ms)
            }
            "process.peak_rss_mb" => Some(seg.peak_rss_mb),
            _ => None,
        };
        match value {
            Some(v) if v.is_finite() => out.metrics.push(Metric {
                name,
                value: v,
                unit,
            }),
            _ => return Err(format!("per-layer metric {name} was not measured")),
        }
    }
    Ok(())
}
