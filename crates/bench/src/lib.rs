//! Shared harness utilities for the experiment binaries that regenerate
//! the paper's tables and figures.
//!
//! See `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for the
//! recorded paper-vs-measured outcomes. Binaries:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table I (Alpha + HC01–HC10) |
//! | `fig6_hkl` | Fig. 6, `h_kl(i)` curves |
//! | `fig7_deployment` | Fig. 7, floorplan + TEC deployment map |
//! | `validation` | Sec. VI compact-vs-reference model validation |
//! | `runaway` | the thermal-runaway demonstration |
//! | `conjecture` | Conjecture 1 randomized campaign |
//! | `device_level` | Sec. III.A device-level sanity (E8) |
//! | `ablations` | ablation studies A1–A3 |
//! | `theory` | executable Lemmas 1–3 / Theorems 1–3 |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use std::time::Instant;
use tecopt::report::TableOneRow;
use tecopt::{
    full_cover, greedy_deploy, CoolingSystem, CurrentSettings, DeploySettings, OptError,
    PackageConfig, TecParams,
};
use tecopt_power::{HypotheticalChip, WorkloadModel};
use tecopt_units::{Amperes, Celsius, Watts};

/// The worst-case power margin the paper adds on top of the simulated
/// maxima ("added a 20% margin").
pub const POWER_MARGIN: f64 = 0.2;

/// The customary maximum allowable temperature ("the given limit of 85 ºC,
/// commonly used in practice").
pub const THETA_LIMIT: Celsius = Celsius(85.0);

/// Builds the 12×12 package used by every Table-I benchmark.
///
/// # Errors
///
/// Propagates configuration errors (none for the defaults).
pub fn paper_package() -> Result<PackageConfig, OptError> {
    Ok(PackageConfig::hotspot41_like(12, 12)?)
}

/// The TEC technology used throughout the experiments.
pub fn paper_tec() -> TecParams {
    TecParams::superlattice_thin_film()
}

/// Builds the Alpha-21364-like benchmark system (no TECs deployed).
///
/// # Errors
///
/// Propagates substrate errors.
pub fn alpha_system() -> Result<CoolingSystem, OptError> {
    let config = paper_package()?;
    let model = WorkloadModel::alpha_spec2000_like()
        .map_err(|e| OptError::InvalidParameter(e.to_string()))?;
    let envelope = model
        .worst_case_envelope(POWER_MARGIN)
        .map_err(|e| OptError::InvalidParameter(e.to_string()))?;
    let tile_powers = envelope
        .rasterize(config.grid())
        .map_err(|e| OptError::InvalidParameter(e.to_string()))?;
    CoolingSystem::without_devices(&config, paper_tec(), tile_powers)
}

/// Builds the HC01–HC10 benchmark systems (no TECs deployed).
///
/// # Errors
///
/// Propagates substrate errors.
pub fn hypothetical_systems() -> Result<Vec<(String, CoolingSystem)>, OptError> {
    let config = paper_package()?;
    HypotheticalChip::standard_suite()
        .into_iter()
        .map(|chip| {
            let sys = CoolingSystem::without_devices(&config, paper_tec(), chip.tile_powers())?;
            Ok((chip.name().to_string(), sys))
        })
        .collect()
}

/// Every Table-I benchmark in paper order: Alpha first, then HC01–HC10.
///
/// # Errors
///
/// Propagates substrate errors.
pub fn all_benchmarks() -> Result<Vec<(String, CoolingSystem)>, OptError> {
    let mut out = vec![("Alpha".to_string(), alpha_system()?)];
    out.extend(hypothetical_systems()?);
    Ok(out)
}

/// Runs one benchmark through the paper's full pipeline (greedy deployment,
/// current optimization, full-cover baseline) and assembles a Table-I row.
///
/// As in the paper, if the greedy deployment fails at `limit`, the limit is
/// raised in 1 °C steps until it succeeds (the paper reports 89 °C for HC06
/// and 88 °C for HC09), and the row records the limit actually used.
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn run_table_row(
    name: &str,
    base: &CoolingSystem,
    limit: Celsius,
) -> Result<TableOneRow, OptError> {
    let start = Instant::now();
    let peak_no_tec = base.solve(Amperes(0.0))?.peak();
    let mut theta = limit;
    let mut outcome = greedy_deploy(base, DeploySettings::with_limit(theta))?;
    while !outcome.is_satisfied() && theta.value() < peak_no_tec.value() {
        theta = Celsius(theta.value() + 1.0);
        outcome = greedy_deploy(base, DeploySettings::with_limit(theta))?;
    }
    let deployment = outcome.deployment();
    let greedy_seconds = start.elapsed().as_secs_f64();
    let full = full_cover(base, CurrentSettings::default())?;
    Ok(TableOneRow {
        name: name.to_string(),
        peak_no_tec,
        theta_limit: theta,
        tec_count: deployment.device_count(),
        i_opt: deployment.optimum().current(),
        p_tec: deployment.optimum().state().tec_power(),
        greedy_peak: deployment.optimum().state().peak(),
        full_cover_peak: full.optimum().state().peak(),
        satisfied: outcome.is_satisfied(),
        runtime_seconds: greedy_seconds,
    })
}

/// Formats a sequence of `(x, column values)` records as CSV.
pub fn to_csv(header: &[&str], rows: &[Vec<f64>]) -> String {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Sum of a system's tile powers (convenience for harness printouts).
pub fn total_power(system: &CoolingSystem) -> Watts {
    system.total_chip_power()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmarks_assemble() {
        let all = all_benchmarks().unwrap();
        assert_eq!(all.len(), 11);
        assert_eq!(all[0].0, "Alpha");
        assert_eq!(all[1].0, "HC01");
        // Total powers in the paper's ranges.
        let alpha_p = total_power(&all[0].1).value();
        assert!((19.0..22.0).contains(&alpha_p), "alpha total {alpha_p}");
        for (name, sys) in &all[1..] {
            let p = total_power(sys).value();
            assert!((15.0..=25.0).contains(&p), "{name} total {p}");
        }
    }

    #[test]
    fn csv_formatting() {
        let s = to_csv(&["i", "peak"], &[vec![0.0, 91.8], vec![1.0, 90.0]]);
        assert!(s.starts_with("i,peak\n0,91.8\n"));
    }
}
