//! The seeded open-loop request schedule of `serve_mixed`.
//!
//! Everything here is a pure function of the seed: the same seed gives the
//! same due times, the same request mix and the same repeated keys, so two
//! runs of one seed offer the server identical traffic.

/// SplitMix64: a small, well-mixed generator whose output depends only on
/// its seed (the benchmark's inputs must not depend on any library's RNG).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A generator for an independent stream `stream` of `seed`.
    pub fn stream(seed: u64, stream: u64) -> SplitMix64 {
        let mut mix = SplitMix64(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        SplitMix64(mix.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `[0, n)`; `n` must be positive.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One rung of the offered-load ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered steady requests per second.
    pub rate: f64,
    /// How long the rung lasts, seconds.
    pub seconds: f64,
}

/// One steady request of connection A.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyCall {
    /// When it is due, seconds from the start of the stream.
    pub due: f64,
    /// Index of the ladder rung it belongs to.
    pub rung: usize,
    /// Idempotency key; a repeat reuses an earlier call's key.
    pub key: String,
    /// Supply current as a fraction of λ_m.
    pub fraction: f64,
    /// `true` when this call re-sends an earlier key (a cache hit).
    pub repeat: bool,
}

/// The kinds of sweep connection B sends, one of each per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// `Request::Runaway`.
    Runaway,
    /// `Request::Designer` with 1–2 candidates.
    Designer,
    /// A short `Request::Transient` playback.
    Transient,
}

/// One sweep request of connection B.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCall {
    /// When it is due, seconds from the start of the stream.
    pub due: f64,
    /// What to send.
    pub kind: SweepKind,
    /// Per-call seed for the request's body.
    pub body_seed: u64,
    /// Candidates of a designer sweep: 1 and 2 alternate over the stream,
    /// so every seed offers the same designer work.
    pub designer_candidates: usize,
}

/// One steady call in every `REPEAT_EVERY` re-sends an earlier key, at a
/// seeded position in its block, so every seed offers the same repeat
/// share (1/4; the very first block may hold no repeat). The share is
/// assumed, not measured traffic: enough cache hits per run for a cache
/// change to show, few enough that the median steady call is still a
/// fresh solve (hits are about ten times faster, so at 1/4 the median is
/// near the 33rd percentile of fresh latencies; at 1/2 it would be a hit).
pub const REPEAT_EVERY: usize = 4;

/// Repeats pick among this many most recent fresh keys, well inside the
/// engine's result-cache capacity, so every repeat is a cache hit.
pub const REPEAT_WINDOW: usize = 64;

/// Steady currents are drawn from `[0, MAX_STEADY_FRACTION · λ_m)`.
pub const MAX_STEADY_FRACTION: f64 = 0.9;

/// The steady stream: jittered arrivals at each rung's rate (gaps uniform
/// in `[0.5, 1.5]` of the mean gap), one call per block of
/// [`REPEAT_EVERY`] re-sending one of the last [`REPEAT_WINDOW`] fresh
/// keys.
pub fn steady_schedule(seed: u64, ladder: &[Rung]) -> Vec<SteadyCall> {
    let mut rng = SplitMix64::stream(seed, 1);
    let mut calls: Vec<SteadyCall> = Vec::new();
    let mut fresh: Vec<usize> = Vec::new();
    let mut repeat_at = 0;
    let mut rung_start = 0.0;
    for (rung, r) in ladder.iter().enumerate() {
        let gap = 1.0 / r.rate;
        let mut t = rung_start + gap * rng.range(0.0, 1.0);
        while t < rung_start + r.seconds {
            if calls.len().is_multiple_of(REPEAT_EVERY) {
                repeat_at = calls.len() + rng.index(REPEAT_EVERY);
            }
            let recent = fresh.len().saturating_sub(REPEAT_WINDOW);
            let call = if calls.len() == repeat_at && !fresh.is_empty() {
                let earlier = &calls[fresh[recent + rng.index(fresh.len() - recent)]];
                SteadyCall {
                    due: t,
                    rung,
                    key: earlier.key.clone(),
                    fraction: earlier.fraction,
                    repeat: true,
                }
            } else {
                fresh.push(calls.len());
                SteadyCall {
                    due: t,
                    rung,
                    key: format!("s{seed:x}-{}", calls.len()),
                    fraction: rng.range(0.0, MAX_STEADY_FRACTION),
                    repeat: false,
                }
            };
            calls.push(call);
            t += gap * rng.range(0.5, 1.5);
        }
        rung_start += r.seconds;
    }
    calls
}

/// The sweep stream over `seconds`: one call every `period` from a seeded
/// start in `[0.1, 0.5)` of it, cycling runaway, designer, transient. A
/// fixed gap and order give every seed the same sweep load over every part
/// of the window; only the phase and the request bodies are seeded.
pub fn sweep_schedule(seed: u64, seconds: f64, period: f64) -> Vec<SweepCall> {
    const CYCLE: [SweepKind; 3] = [
        SweepKind::Runaway,
        SweepKind::Designer,
        SweepKind::Transient,
    ];
    let mut rng = SplitMix64::stream(seed, 2);
    let mut calls = Vec::new();
    let mut designers = 0;
    let mut t = period * rng.range(0.1, 0.5);
    while t < seconds {
        let kind = CYCLE[calls.len() % CYCLE.len()];
        let designer_candidates = 1 + designers % 2;
        if kind == SweepKind::Designer {
            designers += 1;
        }
        calls.push(SweepCall {
            due: t,
            kind,
            body_seed: rng.next_u64(),
            designer_candidates,
        });
        t += period;
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    const LADDER: [Rung; 2] = [
        Rung {
            rate: 100.0,
            seconds: 2.0,
        },
        Rung {
            rate: 400.0,
            seconds: 1.0,
        },
    ];

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(steady_schedule(7, &LADDER), steady_schedule(7, &LADDER));
        assert_eq!(sweep_schedule(7, 30.0, 2.0), sweep_schedule(7, 30.0, 2.0));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(steady_schedule(7, &LADDER), steady_schedule(8, &LADDER));
        assert_ne!(sweep_schedule(7, 30.0, 2.0), sweep_schedule(8, 30.0, 2.0));
    }

    #[test]
    fn steady_rates_follow_the_ladder() {
        let calls = steady_schedule(3, &LADDER);
        let first = calls.iter().filter(|c| c.rung == 0).count();
        let second = calls.iter().filter(|c| c.rung == 1).count();
        assert!((170..=230).contains(&first), "{first}");
        assert!((340..=460).contains(&second), "{second}");
        assert!(calls.windows(2).all(|w| w[0].due < w[1].due));
        assert!(calls.iter().all(|c| c.due < 3.0));
    }

    #[test]
    fn repeats_reuse_recent_keys_at_the_stated_share() {
        let ladder = [Rung {
            rate: 1000.0,
            seconds: 4.0,
        }];
        for seed in [11, 12, 13] {
            let calls = steady_schedule(seed, &ladder);
            let repeats = calls.iter().filter(|c| c.repeat).count();
            // One per block of REPEAT_EVERY, the first block possibly none.
            let blocks = calls.len().div_ceil(REPEAT_EVERY);
            assert!(
                (blocks - 1..=blocks).contains(&repeats),
                "{repeats} of {}",
                calls.len()
            );
            for (i, c) in calls.iter().enumerate() {
                let first = calls.iter().position(|o| o.key == c.key).unwrap();
                assert_eq!(c.repeat, first != i);
                assert_eq!(c.fraction, calls[first].fraction);
                assert!(i - first <= REPEAT_WINDOW * REPEAT_EVERY);
                assert!((0.0..MAX_STEADY_FRACTION).contains(&c.fraction));
            }
        }
    }

    #[test]
    fn every_seed_offers_the_same_sweep_load() {
        let (a, b) = (sweep_schedule(5, 60.0, 1.0), sweep_schedule(6, 60.0, 1.0));
        assert!(a.len() >= 59);
        for chunk in a.chunks_exact(3) {
            let kinds: Vec<SweepKind> = chunk.iter().map(|c| c.kind).collect();
            assert_eq!(
                kinds,
                [
                    SweepKind::Runaway,
                    SweepKind::Designer,
                    SweepKind::Transient
                ]
            );
        }
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.kind, x.designer_candidates),
                (y.kind, y.designer_candidates)
            );
            assert!((x.due - y.due).abs() < 0.5);
        }
    }

    #[test]
    fn designer_sizes_alternate_whatever_the_seed() {
        for seed in [1, 2, 3] {
            let sizes: Vec<usize> = sweep_schedule(seed, 60.0, 1.0)
                .iter()
                .filter(|c| c.kind == SweepKind::Designer)
                .map(|c| c.designer_candidates)
                .collect();
            assert!(sizes.len() >= 15);
            assert!(
                sizes.iter().enumerate().all(|(k, &n)| n == 1 + k % 2),
                "{sizes:?}"
            );
        }
    }
}
