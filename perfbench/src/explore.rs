//! `explore_sweep`: `Explorer::explore` with the real physics evaluator on
//! the Alpha base, over seeded design spaces (film thickness × contact
//! scales × placements: Greedy plus fixed tile masks). Each exploration
//! gets a fresh durable ledger and the default worker count. One op is one
//! exploration; the run makes whole passes over a few seeded spaces, so
//! every space is explored equally often, more than once, and its fronts
//! can be compared bit for bit.

use crate::calib::Calibration;
use crate::common::{another_pass, scratch_dir, timed_setup, Args, RunResult};
use crate::layers::{replay_ledger, replay_pareto, replay_system};
use crate::schedule::SplitMix64;
use crate::stats::median;
use crate::trace::{Scope, Tracer};
use std::path::Path;
use std::time::Instant;
use tecopt::{
    greedy_deploy, optimize_current_with, CoolingSystem, DeploySettings, OptError, RunContext,
    TileIndex,
};
use tecopt_bench::{alpha_system, THETA_LIMIT};
use tecopt_explore::{
    DesignSpace, ExploreReport, ExploreSettings, Explorer, ParetoPoint, Placement,
};
use tecopt_units::Amperes;

/// Distinct seeded spaces per run.
const SPACES: usize = 3;

/// Fixed placement masks per space, with these tile counts.
const MASK_SIZES: [usize; 3] = [2, 4, 6];

/// Masks draw their tiles from this many hottest uncooled tiles.
const HOT_TILES: usize = 16;

/// Ledger records appended by the ledger replay.
const LEDGER_RECORDS: usize = 200;

/// The seeded design spaces of one run.
///
/// # Errors
///
/// Substrate errors.
pub fn spaces(base: &CoolingSystem, seed: u64) -> Result<Vec<DesignSpace>, OptError> {
    let state = base.clone().solve(Amperes(0.0))?;
    let mut hot: Vec<(f64, TileIndex)> = base
        .config()
        .grid()
        .tiles()
        .zip(state.silicon_temperatures())
        .map(|(t, c)| (c.value(), t))
        .collect();
    hot.sort_by(|a, b| b.0.total_cmp(&a.0));
    let hot: Vec<TileIndex> = hot.into_iter().take(HOT_TILES).map(|(_, t)| t).collect();
    let mut rng = SplitMix64::stream(seed, 8);
    (0..SPACES)
        .map(|_| {
            let mut placements = vec![Placement::Greedy];
            for size in MASK_SIZES {
                let mut pool = hot.clone();
                let mask = (0..size)
                    .map(|_| pool.remove(rng.index(pool.len())))
                    .collect();
                placements.push(Placement::Tiles(mask));
            }
            DesignSpace::new(
                vec![rng.range(0.7, 1.0), rng.range(1.0, 1.5)],
                vec![rng.range(0.8, 1.2), rng.range(1.2, 2.0)],
                placements,
                THETA_LIMIT,
            )
        })
        .collect()
}

/// A front's exact identity: ids and the bits of every coordinate.
fn front_bits(front: &[ParetoPoint]) -> Vec<(u64, u64, u64, u64)> {
    front
        .iter()
        .map(|p| {
            (
                p.id(),
                p.current().value().to_bits(),
                p.peak().value().to_bits(),
                p.tec_power().value().to_bits(),
            )
        })
        .collect()
}

/// The correctness checks of one exploration; `None` when all hold.
fn check(
    space: &DesignSpace,
    report: &ExploreReport,
    first: Option<&ExploreReport>,
) -> Option<String> {
    let settled = report.evaluated + report.pruned + report.quarantined.len();
    if settled != space.len() {
        return Some(format!("settled {settled} of {} candidates", space.len()));
    }
    if let Some(q) = report.quarantined.first() {
        return Some(format!(
            "candidate {:016x} quarantined: {}",
            q.id, q.message
        ));
    }
    for p in &report.front {
        if report.front.iter().any(|q| q.dominates(p)) {
            return Some(format!("front point {:016x} is dominated", p.id()));
        }
    }
    if let Some(first) = first {
        if front_bits(&first.front) != front_bits(&report.front) {
            return Some("front differs from an earlier exploration of the same space".into());
        }
    }
    None
}

/// Re-runs a sample of `space`'s candidates through the evaluator's
/// public calls under `RankKUpdate`, and one candidate system through
/// every solver layer.
fn replay(
    scope: Scope<'_>,
    base: &CoolingSystem,
    space: &DesignSpace,
    dir: &Path,
    rng: &mut SplitMix64,
) -> Result<(), OptError> {
    let settings = ExploreSettings::default();
    let params = base.stamped().params();
    let mut points = Vec::new();
    let mut layered = false;
    for cand in space.candidates() {
        let op = Scope::op(scope.tracer());
        let scaled = cand.scaled_params(params)?;
        match &cand.placement {
            Placement::Tiles(tiles) => {
                let system = op.span("thermal.assemble", |_| {
                    CoolingSystem::new(base.config(), scaled, tiles, base.tile_powers().to_vec())
                })?;
                let opt = op.span("explore.eval_tiles", |_| {
                    optimize_current_with(&system, settings.current, settings.strategy)
                })?;
                let s = opt.state();
                points.extend(ParetoPoint::new(
                    cand.id,
                    opt.current(),
                    s.peak(),
                    s.tec_power(),
                ));
                if !layered {
                    replay_system(op, &system, rng)?;
                    layered = true;
                }
            }
            Placement::Greedy => {
                let scaled_base =
                    CoolingSystem::new(base.config(), scaled, &[], base.tile_powers().to_vec())?;
                let mut deploy = DeploySettings::with_limit(space.theta_limit())
                    .with_strategy(settings.strategy);
                deploy.current = settings.current;
                op.span("explore.eval_greedy", |_| {
                    greedy_deploy(&scaled_base, deploy)
                })?;
            }
        }
    }
    replay_pareto(scope, points);
    replay_ledger(scope, dir, LEDGER_RECORDS)
}

/// Whole passes of explorations over `spaces`: exactly `count` of them, or
/// as many as fit in `seconds` (at least one). Returns exploration walls,
/// ms, and records the segment's explore counters when traced.
fn passes(
    base: &CoolingSystem,
    spaces: &[DesignSpace],
    seconds: f64,
    count: Option<usize>,
    tracer: Option<&Tracer>,
    calib: &mut Calibration,
    out: &mut RunResult,
) -> Result<Vec<f64>, OptError> {
    let dir = scratch_dir("explore").map_err(|e| OptError::InvalidParameter(e.to_string()))?;
    let mut firsts: Vec<Option<ExploreReport>> = vec![None; spaces.len()];
    let mut walls = Vec::new();
    let (mut settled, mut pruned, mut quarantined) = (0usize, 0usize, 0usize);
    let start = Instant::now();
    let mut done = 0;
    while match count {
        Some(n) => done < n,
        None => another_pass(done, start.elapsed().as_secs_f64(), seconds),
    } {
        done += 1;
        for (slot, space) in spaces.iter().enumerate() {
            let k = walls.len();
            let ledger = dir.join(format!("e{k}.ledger"));
            let explorer = Explorer::new(base, space.clone(), ExploreSettings::default());
            let ctx = RunContext::unbounded().checkpoint(&ledger);
            let scope = Scope::op(tracer);
            let (report, wall) =
                calib.time(|| scope.span("explore.explore", |_| explorer.explore(&ctx)));
            walls.push(wall);
            match report {
                Ok(report) => {
                    out.op(check(space, &report, firsts[slot].as_ref())
                        .map(|p| format!("space {slot}: {p}")));
                    settled += report.evaluated + report.pruned + report.quarantined.len();
                    pruned += report.pruned;
                    quarantined += report.quarantined.len();
                    firsts[slot].get_or_insert(report);
                }
                Err(e) => out.op(Some(format!("space {slot}: {e}"))),
            }
        }
    }
    let wall = walls.iter().sum::<f64>() / 1e3;
    if let Some(t) = tracer {
        t.count("explore.candidates_per_s", settled as f64 / wall);
        t.count(
            "explore.pruned_share",
            pruned as f64 / settled.max(1) as f64,
        );
        t.count("explore.quarantined", quarantined as f64);
    }
    std::fs::remove_dir_all(&dir).map_err(|e| OptError::InvalidParameter(e.to_string()))?;
    Ok(walls)
}

/// Replays every space in `spaces` (see [`replay`]).
fn replay_all(
    tracer: &Tracer,
    base: &CoolingSystem,
    spaces: &[DesignSpace],
    seed: u64,
) -> Result<(), OptError> {
    let dir = scratch_dir("replay").map_err(|e| OptError::InvalidParameter(e.to_string()))?;
    let mut rng = SplitMix64::stream(seed, 9);
    for space in spaces {
        replay(Scope::op(Some(tracer)), base, space, &dir, &mut rng)?;
    }
    std::fs::remove_dir_all(&dir).map_err(|e| OptError::InvalidParameter(e.to_string()))
}

/// One traced exploration of a seeded space on Alpha, with its replays —
/// the explore-layer probe the other workloads' traced runs include.
pub fn probe(tracer: &Tracer, seed: u64, out: &mut RunResult) -> Result<(), OptError> {
    let base = alpha_system()?;
    let spaces = spaces(&base, seed)?;
    passes(
        &base,
        &spaces[..1],
        0.0,
        Some(1),
        Some(tracer),
        &mut Calibration::new(),
        out,
    )?;
    replay_all(tracer, &base, &spaces[..1], seed)
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut RunResult) -> Result<(), OptError> {
    // The set-up runs on one thread, explorations on one worker per
    // hardware thread; each is calibrated on as many.
    let ((base, spaces), setup_s) =
        timed_setup(out, &mut Calibration::new(), || -> Result<_, OptError> {
            let base = alpha_system()?;
            let spaces = spaces(&base, args.seed)?;
            Ok((base, spaces))
        })?;
    let mut calib = Calibration::with_threads(crate::common::nproc());
    if !args.trace {
        let walls = passes(&base, &spaces, args.seconds, None, None, &mut calib, out)?;
        crate::common::end_to_end(out, setup_s, &walls, &calib, "exploration_wall_ms");
        return Ok(());
    }
    let tracer = Tracer::default();
    let untraced = passes(
        &base,
        &spaces,
        args.seconds / 4.0,
        None,
        None,
        &mut calib,
        out,
    )?;
    let cpu0 = crate::common::cpu_seconds().unwrap_or(0.0);
    let t = Instant::now();
    let count = untraced.len() / spaces.len();
    let traced = passes(
        &base,
        &spaces,
        0.0,
        Some(count),
        Some(&tracer),
        &mut calib,
        out,
    )?;
    let seg = crate::layers::SegmentFigures {
        traced_op_ms: median(&traced).unwrap_or(f64::NAN),
        untraced_op_ms: median(&untraced).unwrap_or(f64::NAN),
        cpu_s: crate::common::cpu_seconds().unwrap_or(0.0) - cpu0,
        wall_s: t.elapsed().as_secs_f64(),
        peak_rss_mb: crate::common::peak_rss_mb().unwrap_or(f64::NAN),
    };
    replay_all(&tracer, &base, &spaces, args.seed)?;
    let mut rng = SplitMix64::stream(args.seed, 7);
    crate::deploy::probe(&tracer, &mut rng, out)?;
    crate::serve::probe(&tracer, args.seed, out)?;
    crate::finish_traced(args, &tracer, seg, out)
}
