//! `deploy_batch`: the Table I pipeline, run serially as the `table1`
//! harness runs it, over Alpha plus seed-generated 12×12 hypothetical
//! chips. Each chip gets an uncooled solve, then `greedy_deploy` at 85 °C
//! with the paper's +1 °C relaxation until it is satisfied, then
//! `full_cover`. One op is one chip; a run makes whole passes over a chip
//! set fixed by the seed.

use crate::calib::Calibration;
use crate::common::{another_pass, timed_setup, Args, RunResult};
use crate::layers::{replay_pareto, replay_system};
use crate::schedule::SplitMix64;
use crate::stats::median;
use crate::trace::{Scope, Tracer};
use std::collections::BTreeSet;
use std::time::Instant;
use tecopt::{
    full_cover, greedy_deploy, CoolingSystem, CurrentSettings, DeployOutcome, DeploySettings,
    Deployment, OptError, TileIndex,
};
use tecopt_bench::{alpha_system, paper_package, paper_tec, THETA_LIMIT};
use tecopt_explore::ParetoPoint;
use tecopt_power::{HypotheticalChip, HypotheticalSettings};
use tecopt_units::{Amperes, Celsius};

/// Uncooled peaks the hypothetical chips must have, °C: every chip needs
/// cooling, and of 49 generated chips sampled in or near this band 46 met
/// 85 °C with one greedy run of one iteration. Above about 92.5 °C chips
/// often need two to six relaxed runs and cost up to four times as much,
/// so a few of them would let the seed's chip mix, not the code, set the
/// median. Alpha still relaxes (to 87 °C) in every pass, so the
/// relaxation waste stays measured.
pub const PEAK_BAND: (f64, f64) = (88.0, 92.0);

/// Hypothetical chips generated per run, in seed order; the first
/// [`BAND_CHIPS`] whose uncooled peak lies in [`PEAK_BAND`] are kept. About
/// a fifth of generated chips fall in the band, so 80 leave a wide margin
/// over the four needed; a fixed count keeps set-up work the same for
/// every seed.
const CANDIDATES: usize = 80;

/// In-band hypothetical chips per pass, after Alpha: a pass of five chips
/// takes 20–27 s on the reference machine, so the committed 50 s window
/// holds one or two.
const BAND_CHIPS: usize = 4;

/// Chips of the traced run's passes: Alpha and the first in-band chip.
const TRACED_CHIPS: usize = 2;

/// Re-solving the deployed system must reproduce the reported peak this
/// closely, °C.
const RESOLVE_TOL: f64 = 1e-6;

/// One benchmark chip, no devices deployed.
pub struct Chip {
    /// `Alpha` or `HC<k>`.
    pub name: String,
    /// The uncooled system.
    pub base: CoolingSystem,
}

/// Alpha, then the first [`BAND_CHIPS`] of [`CANDIDATES`] hypothetical
/// chips generated from `seed` whose uncooled peak lies in [`PEAK_BAND`].
///
/// # Errors
///
/// Substrate errors, or fewer than [`BAND_CHIPS`] chips in the band.
pub fn chips(seed: u64) -> Result<Vec<Chip>, OptError> {
    let config = paper_package()?;
    let mut out = vec![Chip {
        name: "Alpha".to_string(),
        base: alpha_system()?,
    }];
    let mut rng = SplitMix64::stream(seed, 3);
    for k in 0..CANDIDATES {
        let name = format!("HC{k}");
        let chip =
            HypotheticalChip::generate(&name, rng.next_u64(), &HypotheticalSettings::default())
                .map_err(|e| OptError::InvalidParameter(e.to_string()))?;
        let base = CoolingSystem::without_devices(&config, paper_tec(), chip.tile_powers())?;
        // Probe on a clone: a clone starts with a cold solver cache, so the
        // op's own uncooled solve is not served from this probe.
        let peak = base.clone().solve(Amperes(0.0))?.peak().value();
        if (PEAK_BAND.0..=PEAK_BAND.1).contains(&peak) && out.len() <= BAND_CHIPS {
            out.push(Chip { name, base });
        }
    }
    if out.len() <= BAND_CHIPS {
        return Err(OptError::InvalidParameter(format!(
            "only {} of {CANDIDATES} chips in the peak band, {BAND_CHIPS} needed",
            out.len() - 1
        )));
    }
    Ok(out)
}

/// What one chip's pipeline produced.
pub struct Pipeline {
    /// The limit the last greedy run used.
    pub theta: Celsius,
    /// Every greedy run, in relaxation order.
    pub runs: Vec<DeployOutcome>,
    /// The Full-Cover baseline.
    pub full: Deployment,
}

impl Pipeline {
    /// The last greedy run.
    pub fn outcome(&self) -> &DeployOutcome {
        self.runs
            .last()
            .expect("the pipeline runs greedy at least once")
    }
}

/// Runs the Table I pipeline on one chip, one span per public call, each
/// call timed after a calibration point; returns the chip's wall, the sum
/// of those times, ms.
///
/// # Errors
///
/// Any optimizer error.
pub fn pipeline(
    scope: Scope<'_>,
    base: &CoolingSystem,
    calib: &mut Calibration,
) -> Result<(Pipeline, f64), OptError> {
    let mut wall = 0.0;
    let (solved, w) =
        calib.time(|| scope.span("deploy.uncooled_solve", |_| base.solve(Amperes(0.0))));
    wall += w;
    let peak_no_tec = solved?.peak();
    let mut theta = THETA_LIMIT;
    let mut runs = Vec::new();
    loop {
        let (outcome, w) = calib.time(|| {
            scope.span("deploy.greedy", |_| {
                greedy_deploy(base, DeploySettings::with_limit(theta))
            })
        });
        wall += w;
        let outcome = outcome?;
        let satisfied = outcome.is_satisfied();
        runs.push(outcome);
        if satisfied || theta.value() >= peak_no_tec.value() {
            break;
        }
        theta = Celsius(theta.value() + 1.0);
    }
    let (full, w) = calib.time(|| {
        scope.span("deploy.full_cover", |_| {
            full_cover(base, CurrentSettings::default())
        })
    });
    wall += w;
    let full = full?;
    scope.count("deploy.greedy_runs", runs.len() as f64);
    scope.count(
        "deploy.satisfied_runs",
        runs.iter().filter(|r| r.is_satisfied()).count() as f64,
    );
    Ok((Pipeline { theta, runs, full }, wall))
}

/// The correctness checks of one chip's outputs; `None` when all hold.
pub fn check(name: &str, base: &CoolingSystem, p: &Pipeline) -> Option<String> {
    let outcome = p.outcome();
    if !outcome.is_satisfied() {
        return Some(format!(
            "{name}: greedy never met the limit (last {:?})",
            p.theta
        ));
    }
    let d = outcome.deployment();
    let peak = d.optimum().state().peak().value();
    if peak > p.theta.value() {
        return Some(format!(
            "{name}: greedy peak {peak} above limit {:?}",
            p.theta
        ));
    }
    let i_opt = d.optimum().current();
    if i_opt.value() >= d.optimum().lambda().value() {
        return Some(format!("{name}: i_opt {i_opt:?} not below lambda"));
    }
    let resolved = base
        .with_tiles(d.tiles())
        .and_then(|s| s.solve(i_opt))
        .map(|s| s.peak().value());
    match resolved {
        Ok(r) if (r - peak).abs() <= RESOLVE_TOL => {}
        Ok(r) => return Some(format!("{name}: re-solved peak {r} vs reported {peak}")),
        Err(e) => return Some(format!("{name}: re-solve failed: {e}")),
    }
    let tiles = base.config().grid().tile_count();
    let distinct: BTreeSet<TileIndex> = p.full.tiles().iter().copied().collect();
    if p.full.device_count() != tiles || distinct.len() != tiles {
        return Some(format!(
            "{name}: full cover deployed {} devices on {} tiles, grid has {tiles}",
            p.full.device_count(),
            distinct.len()
        ));
    }
    None
}

/// Replays the satisfied deployment's per-iteration systems, rebuilt from
/// `Deployment::iterations()`, through every solver layer.
///
/// # Errors
///
/// Any failure of a replayed call.
pub fn replay(
    scope: Scope<'_>,
    base: &CoolingSystem,
    p: &Pipeline,
    rng: &mut SplitMix64,
) -> Result<(), OptError> {
    let d = p.outcome().deployment();
    let mut tiles: Vec<TileIndex> = Vec::new();
    for it in d.iterations() {
        tiles.extend(&it.added);
        let system = scope.span("thermal.assemble", |_| base.with_tiles(&tiles))?;
        replay_system(scope, &system, rng)?;
    }
    let points = p
        .runs
        .iter()
        .map(DeployOutcome::deployment)
        .chain(std::iter::once(&p.full))
        .enumerate()
        .filter_map(|(k, d)| {
            let s = d.optimum();
            ParetoPoint::new(
                k as u64,
                s.current(),
                s.state().peak(),
                s.state().tec_power(),
            )
        })
        .collect();
    replay_pareto(scope, points);
    Ok(())
}

/// Chip walls, ms, of whole passes over `chips`: exactly `count` of
/// them, or as many as fit in `seconds` (at least one). Checks every chip;
/// replays each when traced.
fn passes(
    chips: &[Chip],
    seconds: f64,
    count: Option<usize>,
    tracer: Option<&Tracer>,
    rng: &mut SplitMix64,
    calib: &mut Calibration,
    out: &mut RunResult,
) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut done = 0;
    while match count {
        Some(n) => done < n,
        None => another_pass(done, start.elapsed().as_secs_f64(), seconds),
    } {
        done += 1;
        for chip in chips {
            // A clone starts with a cold solver cache, as a fresh chip would.
            let base = chip.base.clone();
            let scope = Scope::op(tracer);
            let result = scope.span("deploy.chip", |s| pipeline(s, &base, calib));
            match result {
                Ok((p, wall)) => {
                    walls.push(wall);
                    out.op(check(&chip.name, &base, &p));
                    out.sample("chip_greedy_runs", p.runs.len() as f64);
                    out.sample(
                        "chip_iterations",
                        p.runs
                            .iter()
                            .map(|r| r.deployment().iterations().len())
                            .sum::<usize>() as f64,
                    );
                    if tracer.is_some() {
                        if let Err(e) = replay(scope, &base, &p, rng) {
                            out.fail(format!("{}: replay failed: {e}", chip.name));
                        }
                    }
                }
                Err(e) => out.op(Some(format!("{}: {e}", chip.name))),
            }
        }
    }
    walls
}

/// One traced chip on Alpha with its replays — the deploy-layer probe the
/// other workloads' traced runs include.
pub fn probe(tracer: &Tracer, rng: &mut SplitMix64, out: &mut RunResult) -> Result<(), OptError> {
    let chip = Chip {
        name: "Alpha".to_string(),
        base: alpha_system()?,
    };
    passes(
        &[chip],
        0.0,
        Some(1),
        Some(tracer),
        rng,
        &mut Calibration::new(),
        out,
    );
    Ok(())
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut RunResult) -> Result<(), OptError> {
    let mut calib = Calibration::new();
    let (chips, setup_s) = timed_setup(out, &mut calib, || chips(args.seed))?;
    let mut rng = SplitMix64::stream(args.seed, 4);
    if !args.trace {
        let walls = passes(&chips, args.seconds, None, None, &mut rng, &mut calib, out);
        crate::common::end_to_end(out, setup_s, &walls, &calib, "chip_wall_ms");
        return Ok(());
    }
    let tracer = Tracer::default();
    let subset = &chips[..TRACED_CHIPS];
    let untraced = passes(subset, 0.0, Some(1), None, &mut rng, &mut calib, out);
    let cpu0 = crate::common::cpu_seconds().unwrap_or(0.0);
    let t = Instant::now();
    let traced = passes(
        subset,
        0.0,
        Some(1),
        Some(&tracer),
        &mut rng,
        &mut calib,
        out,
    );
    let seg = crate::layers::SegmentFigures {
        traced_op_ms: median(&traced).unwrap_or(f64::NAN),
        untraced_op_ms: median(&untraced).unwrap_or(f64::NAN),
        cpu_s: crate::common::cpu_seconds().unwrap_or(0.0) - cpu0,
        wall_s: t.elapsed().as_secs_f64(),
        peak_rss_mb: crate::common::peak_rss_mb().unwrap_or(f64::NAN),
    };
    crate::serve::probe(&tracer, args.seed, out)?;
    crate::explore::probe(&tracer, args.seed, out)?;
    crate::finish_traced(args, &tracer, seg, out)
}
