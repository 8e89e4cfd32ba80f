//! Property-based robustness sweeps over the full pipeline: degenerate
//! floorplans, extreme power vectors, and operating points pushed against
//! the runaway limit must produce typed errors (or valid solutions), never
//! panics and never unbounded loops.

use proptest::prelude::*;
use tecopt::transient::{TransientSample, TransientTrace};
use tecopt::{runaway_limit, CoolingSystem, OptError, PackageConfig, TecParams, TileIndex};
use tecopt_power::{Floorplan, Unit};
use tecopt_thermal::Rect;
use tecopt_units::{Amperes, Celsius, Meters, Watts};

fn base_system(tile_power: f64) -> Result<CoolingSystem, OptError> {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let mut powers = vec![Watts(0.05); 16];
    powers[5] = Watts(tile_power);
    CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[TileIndex::new(1, 1), TileIndex::new(1, 2)],
        powers,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn degenerate_floorplans_never_panic(
        w0 in -1.0f64..2.0,
        h0 in -1.0f64..2.0,
        w1 in -1.0f64..2.0,
        gap in -0.5f64..0.5,
    ) {
        // Randomly mis-sized and mis-placed unit rectangles: the constructor
        // must classify each case instead of panicking, and acceptance must
        // imply an exact tiling.
        let mm = 1e-3;
        let units = vec![
            Unit::new("a", Rect::new(0.0, 0.0, w0 * mm, h0 * mm)),
            Unit::new("b", Rect::new((w0 + gap) * mm, 0.0, (w0 + gap + w1) * mm, h0 * mm)),
        ];
        let die_w = (w0 + gap + w1) * mm;
        match Floorplan::new("fuzz", Meters(die_w), Meters(h0 * mm), units) {
            Ok(plan) => {
                let covered: f64 = plan.units().iter().map(|u| u.area().value()).sum();
                prop_assert!((covered - plan.die_area().value()).abs()
                    <= 1e-6 * plan.die_area().value().abs());
            }
            Err(e) => {
                // Any documented construction failure is acceptable; what is
                // not acceptable is reaching here via unwind.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    #[test]
    fn extreme_power_vectors_are_classified_not_propagated(
        log_mag in -30f64..30.0,
        poison in 0usize..4,
    ) {
        // Powers spanning sixty decades, with occasional NaN/∞/negative
        // poisoning, either build a solvable system or fail with a typed
        // error at the construction boundary.
        let mag = 10f64.powf(log_mag);
        let mut raw = vec![mag; 16];
        match poison {
            1 => raw[3] = f64::NAN,
            2 => raw[3] = f64::INFINITY,
            3 => raw[3] = -mag,
            _ => {}
        }
        let config = PackageConfig::hotspot41_like(4, 4).unwrap();
        let built = CoolingSystem::new(
            &config,
            TecParams::superlattice_thin_film(),
            &[TileIndex::new(0, 0)],
            raw.into_iter().map(Watts).collect(),
        );
        match built {
            Ok(system) => {
                prop_assert!(poison == 0);
                let state = system.solve(Amperes(0.0)).unwrap();
                prop_assert!(state.peak().value().is_finite());
            }
            Err(e) => {
                prop_assert!(matches!(e, OptError::InvalidParameter(_)), "got {e:?}");
                prop_assert!(poison != 0);
            }
        }
    }

    #[test]
    fn near_runaway_currents_error_cleanly(frac in 0.90f64..1.10) {
        // Operating points straddling λ_m: below it the solve must succeed,
        // past it the failure must be the typed runaway signal (or an
        // ill-conditioning report) — and the search itself must have
        // terminated within its probe budget to get here at all.
        let system = base_system(0.4).unwrap();
        let lim = runaway_limit(&system, 1e-9).unwrap();
        let i = Amperes(lim.lambda().value() * frac);
        match system.solve(i) {
            Ok(state) => {
                prop_assert!(state.peak().value().is_finite());
                prop_assert!(state.condition_estimate() >= 1.0);
            }
            Err(OptError::BeyondRunaway { current }) => {
                prop_assert!((current - i.value()).abs() <= 1e-12 * i.value().abs());
                // The oracle may conservatively reject slightly-below-λ_m
                // points, but never clearly-feasible ones.
                prop_assert!(frac > 0.99, "rejected clearly feasible {frac}");
            }
            Err(OptError::Linalg(e)) => {
                prop_assert!(matches!(
                    e,
                    tecopt_linalg::LinalgError::IllConditioned { .. }
                ), "got {e:?}");
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }
}

/// A trace of `(peak °C, TEC power W)` pairs with bounded finite values —
/// the raw material for the summary-statistic properties below.
fn trace_samples() -> impl Strategy<Value = Vec<TransientSample>> {
    collection::vec((-50.0f64..200.0, 0.0f64..10.0), 0..64).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (peak, power))| TransientSample {
                time: (i + 1) as f64 * 0.25,
                peak: Celsius(peak),
                current: Amperes(1.0),
                tec_power: Watts(power),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn violation_fraction_is_a_nan_free_monotone_fraction(
        samples in trace_samples(),
        limit in -100.0f64..250.0,
        slack in 0.0f64..50.0,
    ) {
        let trace = TransientTrace::from_samples(samples.clone());
        let f = trace.violation_fraction(Celsius(limit));
        // Always a well-defined fraction — an empty trace included (0.0,
        // not 0/0), and never NaN for any finite limit.
        prop_assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
        // It is exactly the count of strictly-over samples.
        let over = samples.iter().filter(|s| s.peak.value() > limit).count();
        if samples.is_empty() {
            prop_assert!(f == 0.0);
        } else {
            prop_assert!(f == over as f64 / samples.len() as f64);
        }
        // Loosening the limit can only shrink the fraction.
        let looser = trace.violation_fraction(Celsius(limit + slack));
        prop_assert!(looser <= f, "loosening {limit} by {slack} grew {f} to {looser}");
    }

    #[test]
    fn tec_energy_is_the_finite_rectangle_sum(
        samples in trace_samples(),
        dt in 1e-6f64..10.0,
    ) {
        let trace = TransientTrace::from_samples(samples.clone());
        let e = trace.tec_energy_joules(dt);
        // Nonnegative powers integrate to a finite, nonnegative energy;
        // the empty trace integrates to exactly zero.
        prop_assert!(e.is_finite() && e >= 0.0, "energy {e}");
        if samples.is_empty() {
            prop_assert!(e == 0.0);
        }
        let expected: f64 = samples.iter().map(|s| s.tec_power.value() * dt).sum();
        prop_assert!(e == expected, "{e} != rectangle sum {expected}");
        // Doubling the timestep doubles the energy bit-exactly: scaling
        // every term and every partial sum by 2 is lossless in binary.
        prop_assert!(trace.tec_energy_joules(2.0 * dt) == 2.0 * e);
    }

    #[test]
    fn single_sample_statistics_are_exact(
        peak in -50.0f64..200.0,
        power in 0.0f64..10.0,
        dt in 1e-6f64..10.0,
    ) {
        let trace = TransientTrace::from_samples(vec![TransientSample {
            time: dt,
            peak: Celsius(peak),
            current: Amperes(0.5),
            tec_power: Watts(power),
        }]);
        prop_assert!(trace.tec_energy_joules(dt) == power * dt);
        // A one-sample fraction is exactly 0 or 1, decided strictly.
        prop_assert!(trace.violation_fraction(Celsius(peak)) == 0.0);
        prop_assert!(trace.violation_fraction(Celsius(peak - 1.0)) == 1.0);
        prop_assert_eq!(trace.peak(), Some(Celsius(peak)));
    }
}
