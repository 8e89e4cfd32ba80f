//! Golden pins for the offline random generator and the hypothetical
//! chip suite it feeds.
//!
//! The HC01–HC10 benchmarks are generated from `StdRng` seeds, and the
//! workspace's `StdRng` is the xoshiro256++ stand-in in `shims/rand`. Any
//! edit to that shim, or to the chip generator, silently changes every
//! hypothetical chip and so every Table I row. These tests make such an
//! edit fail loudly instead: the literals below were produced by the
//! current generator and must only change together with a deliberate,
//! documented regeneration of `results/` and EXPERIMENTS.md.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use tecopt_power::HypotheticalChip;

#[test]
fn std_rng_stream_for_seed_34_is_pinned() {
    let mut rng = StdRng::seed_from_u64(34);
    let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        words,
        [
            0xf0e2_4f5b_cfe0_d3ed,
            0xdcc3_249c_1a70_7d18,
            0x72ba_30b2_c660_73fc,
            0x3a2b_9c80_5f48_6b7f,
        ]
    );
}

#[test]
fn standard_suite_total_powers_are_pinned() {
    const TOTAL_POWER_W: [(&str, f64); 10] = [
        ("HC01", 23.949868283121365),
        ("HC02", 24.464519805786203),
        ("HC03", 21.63088202498763),
        ("HC04", 17.37963262462296),
        ("HC05", 19.49585281706132),
        ("HC06", 17.347567309538174),
        ("HC07", 17.221271825724887),
        ("HC08", 19.997710757478327),
        ("HC09", 24.507472397019026),
        ("HC10", 20.139468235990243),
    ];
    let suite = HypotheticalChip::standard_suite();
    assert_eq!(suite.len(), TOTAL_POWER_W.len());
    for (chip, (name, watts)) in suite.iter().zip(TOTAL_POWER_W) {
        assert_eq!(chip.name(), name);
        // Bit-exact: a last-place change means the generator changed.
        assert_eq!(
            chip.total_power().value().to_bits(),
            watts.to_bits(),
            "{name}: total power {:?} W, pinned {watts:?} W",
            chip.total_power().value()
        );
    }
}
