//! Machine-speed calibration. The reference machine is a shared VM whose
//! speed moves by tens of percent from minute to minute, with no CPU steal
//! to account for it, so a wall time alone says as much about the host as
//! about the code. Each run therefore times a fixed kernel of the
//! benchmark's own before every timed piece of work, and reports its times
//! scaled by [`REFERENCE_MS`] ÷ the mean of those kernel times: as they
//! would read with the host at the speed at which the kernel takes
//! [`REFERENCE_MS`]. The kernel is not the workspace's code, so a change to
//! the workspace moves the scaled times exactly as it moves the raw ones;
//! raw times and kernel times stay in the run's samples.
//!
//! The kernel is an in-place dense Cholesky factorization written the way
//! the workspace's dense code is written: scalar loops over explicit
//! `row * n + column` indices, each access bounds-checked. Code of that
//! shape is bound by instruction throughput, so it slows down with the host
//! as the workspace does. On the reference machine, over 90 s, the median
//! of `Cholesky::factor` (n = 536) in 5 s bins moved by a tenth (standard
//! deviation ÷ mean) and its ratio to this kernel's median by 2 %; a
//! vectorizable iterator version of the same loop moved only 3 % and so
//! tracked it to no better than 8 %. The kernel works in one buffer
//! allocated once: a version that allocated a fresh factor every time
//! flipped between two speeds 1.8× apart that the workloads did not show.
//!
//! Kernel times come in two modes about 1.6× apart, and a run's share of
//! slow ones is what says how slow its host was, so the scale uses their
//! mean: a median would jump from one mode to the other.
//!
//! Work that runs on several threads is calibrated with as many copies of
//! the kernel at once, and a point is the wall until the last one ends:
//! the two vCPUs of the reference machine slow down apart, and a
//! single-threaded kernel samples only the one it happens to run on.

use std::hint::black_box;
use std::time::Instant;

/// Order of the calibration matrix, the order of the dense systems the
/// workloads factor on Alpha.
pub const N: usize = 536;

/// Kernel time that defines the reference speed, ms: about the mean on
/// the reference machine (2-vCPU Xeon VM).
pub const REFERENCE_MS: f64 = 35.0;

/// The calibration matrix and the kernel times taken so far in this run.
pub struct Calibration {
    /// `A`, row-major.
    matrix: Vec<f64>,
    /// Where each kernel thread factors a copy of `A`.
    work: Vec<Vec<f64>>,
    points: Vec<f64>,
}

impl Calibration {
    /// A single-threaded calibration.
    pub fn new() -> Calibration {
        Calibration::with_threads(1)
    }

    /// A calibration whose points run the kernel on `threads` threads at
    /// once (at least one), for work that runs on that many. The matrix is
    /// `A[i][j] = 1 / (1 + |i − j|)` plus `N` on the diagonal: diagonally
    /// dominant, so its Cholesky factor exists.
    pub fn with_threads(threads: usize) -> Calibration {
        let mut matrix = vec![0.0; N * N];
        for i in 0..N {
            for j in 0..N {
                matrix[i * N + j] = 1.0 / (1.0 + i.abs_diff(j) as f64);
            }
            matrix[i * N + i] += N as f64;
        }
        Calibration {
            work: vec![matrix.clone(); threads.max(1)],
            matrix,
            points: Vec::new(),
        }
    }

    /// Times the kernel once on every thread and records the wall until
    /// the last one ends, ms.
    pub fn point(&mut self) {
        let matrix = &self.matrix;
        let factor = |work: &mut Vec<f64>| {
            work.copy_from_slice(matrix);
            cholesky(work, black_box(N));
        };
        let start = Instant::now();
        match self.work.as_mut_slice() {
            [one] => factor(one),
            many => std::thread::scope(|s| {
                for work in many {
                    s.spawn(|| factor(work));
                }
            }),
        }
        self.points.push(start.elapsed().as_secs_f64() * 1e3);
        for work in &self.work {
            assert!(work[N * N - 1] > 0.0, "calibration factor failed");
        }
    }

    /// Takes a calibration point, then runs `work`; returns its result and
    /// its wall, ms.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64) {
        self.point();
        let start = Instant::now();
        let result = work();
        (result, start.elapsed().as_secs_f64() * 1e3)
    }

    /// Every kernel time so far, ms.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// [`REFERENCE_MS`] ÷ the mean kernel time: multiply a raw time of
    /// this run by it to scale it to the reference speed. NaN before the
    /// first point.
    pub fn scale(&self) -> f64 {
        self.scale_since(0)
    }

    /// [`Calibration::scale`] from the points after the first `first` only,
    /// for work timed between them; NaN when there are none.
    pub fn scale_since(&self, first: usize) -> f64 {
        let points = self.points.get(first..).unwrap_or(&[]);
        REFERENCE_MS / crate::stats::mean(points).unwrap_or(f64::NAN)
    }
}

/// Overwrites the lower triangle of `a` (`n × n`, row-major, symmetric
/// positive definite) with its Cholesky factor `L`. `n` comes through
/// [`black_box`] at the call, so the compiler cannot drop the bounds checks.
fn cholesky(a: &mut [f64], n: usize) {
    for j in 0..n {
        let mut diag = a[j * n + j];
        for k in 0..j {
            diag -= a[j * n + k] * a[j * n + k];
        }
        let ljj = diag.sqrt();
        a[j * n + j] = ljj;
        for i in (j + 1)..n {
            let mut v = a[i * n + j];
            for k in 0..j {
                v -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = v / ljj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_factors_its_matrix() {
        let c = Calibration::new();
        let mut l = c.matrix.clone();
        cholesky(&mut l, N);
        for (i, j) in [(0, 0), (5, 3), (N - 1, 0), (N - 1, N - 2), (N - 1, N - 1)] {
            let llt: f64 = (0..=j).map(|k| l[i * N + k] * l[j * N + k]).sum();
            assert!(
                (llt - c.matrix[i * N + j]).abs() < 1e-9 * N as f64,
                "({i}, {j})"
            );
        }
    }

    #[test]
    fn scale_is_reference_over_the_mean_point() {
        let mut c = Calibration::new();
        assert!(c.scale().is_nan());
        let (x, ms) = c.time(|| 7);
        assert_eq!((x, c.points().len()), (7, 1));
        assert!(ms >= 0.0);
        c.points = vec![20.0, 5.0, 35.0];
        assert_eq!(c.scale(), REFERENCE_MS / 20.0);
        assert_eq!(c.scale_since(1), REFERENCE_MS / 20.0);
        assert_eq!(c.scale_since(2), REFERENCE_MS / 35.0);
        assert!(c.scale_since(3).is_nan());
    }

    #[test]
    fn every_kernel_thread_factors_the_matrix() {
        let mut c = Calibration::with_threads(2);
        c.point();
        assert_eq!(c.points().len(), 1);
        assert_eq!(c.work[0], c.work[1]);
        assert_ne!(c.work[0], c.matrix);
    }
}
