//! Solver-backend selection: dense Cholesky vs. sparse CG on one interface.
//!
//! Every steady-state evaluation in the paper is a solve of
//! `(G − i·D)·θ = p(i)` where `G − i·D` is symmetric positive definite below
//! the runaway limit. The compact models are *sparse* (a 32×32-tile package
//! yields n ≈ 2300 nodes at ~0.3 % density), so a dense `O(n³)` Cholesky
//! factorization per probe leaves two orders of magnitude on the table once
//! the grid grows. This module routes each solve to the cheaper backend:
//!
//! - [`SolverBackend::DenseCholesky`] — exact factorization; best for small
//!   or dense systems, and the authoritative positive-definiteness oracle.
//! - [`SolverBackend::SparseCg`] — Jacobi-preconditioned conjugate gradients
//!   on a CSR copy; `O(nnz · iters)` per solve, no factorization at all.
//! - [`SolverBackend::Auto`] — the density/size crossover heuristic of
//!   DESIGN.md §10: sparse iff `n ≥ 512` **and** density `≤ 2 %`.
//!
//! The crossover is deliberately conservative: at n = 512 a dense
//! factorization costs ~`n³/3 ≈ 4.5e7` multiplies while a CG solve on a
//! 2 %-dense matrix costs ~`2·nnz ≈ 1e4` multiplies per iteration — even a
//! thousand iterations win, and the gap only widens with n.

use crate::{
    conjugate_gradient_cancellable, AppliedUpdate, CancelToken, CgSettings, Cholesky, CsrMatrix,
    DenseMatrix, DiagonalUpdate, LinalgError, UpdatableFactor,
};

/// Which backend produced a solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Dense Cholesky: a fresh factor, or a rank-k update over one.
    Cholesky,
    /// Jacobi-preconditioned conjugate gradients on a CSR copy.
    SparseCg,
}

/// Dense-vs-sparse crossover: minimum dimension for the sparse backend.
pub const SPARSE_MIN_DIM: usize = 512;
/// Dense-vs-sparse crossover: maximum density (nnz/n²) for the sparse
/// backend.
pub const SPARSE_MAX_DENSITY: f64 = 0.02;

/// Which linear-solver backend a [`CoolingSystem`](../../tecopt) probe uses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolverBackend {
    /// Pick per matrix via the size/density heuristic (see module docs).
    #[default]
    Auto,
    /// Always factor densely (`L·Lᵀ`).
    DenseCholesky,
    /// Always solve with Jacobi-preconditioned CG on a CSR copy.
    SparseCg(CgSettings),
}

/// The concrete backend [`SolverBackend::resolve`] chose for one matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResolvedBackend {
    /// Dense Cholesky factorization.
    DenseCholesky,
    /// Sparse CG with these settings.
    SparseCg(CgSettings),
}

impl SolverBackend {
    /// Resolves `Auto` against the matrix shape: sparse iff
    /// `n ≥ SPARSE_MIN_DIM` and `nnz/n² ≤ SPARSE_MAX_DENSITY`.
    pub fn resolve(self, n: usize, nnz: usize) -> ResolvedBackend {
        match self {
            SolverBackend::DenseCholesky => ResolvedBackend::DenseCholesky,
            SolverBackend::SparseCg(s) => ResolvedBackend::SparseCg(s),
            SolverBackend::Auto => {
                let density = if n == 0 {
                    1.0
                } else {
                    nnz as f64 / (n as f64 * n as f64)
                };
                if n >= SPARSE_MIN_DIM && density <= SPARSE_MAX_DENSITY {
                    ResolvedBackend::SparseCg(CgSettings::default())
                } else {
                    ResolvedBackend::DenseCholesky
                }
            }
        }
    }
}

/// A system "factored" for repeated right-hand sides under one backend.
///
/// For the dense backend this holds a genuine `L·Lᵀ` factor; for the sparse
/// backend it holds the CSR copy (CG needs no factorization, so "factoring"
/// is just the format conversion plus a diagonal-positivity screen).
#[derive(Debug, Clone)]
pub enum FactoredSystem {
    /// Dense Cholesky factor.
    Dense(Cholesky),
    /// CSR copy plus the CG settings to solve with.
    Sparse {
        /// The system matrix in CSR form.
        matrix: CsrMatrix,
        /// CG iteration controls.
        settings: CgSettings,
    },
    /// A dense factor carrying a Sherman–Morrison–Woodbury rank-k diagonal
    /// correction (see [`crate::UpdatableFactor`]): solves go through the
    /// *base* Cholesky factor plus an `O(k·n)` correction instead of a
    /// fresh `O(n³)` factorization.
    Updated(AppliedUpdate),
}

/// One backend solve with its diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSolve {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Condition estimate: the Cholesky pivot ratio (dense) or the
    /// CG-iteration-count heuristic `κ ≈ (2·iters / ln(2/tol))²` (sparse).
    pub condition_estimate: f64,
    /// CG iterations spent (0 for the direct backend).
    pub iterations: usize,
}

impl FactoredSystem {
    /// Prepares `a` for solves under the resolved backend.
    ///
    /// The sparse path screens the diagonal: a symmetric matrix with a
    /// nonpositive diagonal entry `a_kk = e_kᵀ·A·e_k ≤ 0` cannot be positive
    /// definite, so it is rejected with the same
    /// [`LinalgError::NotPositiveDefinite`] signal dense Cholesky gives —
    /// keeping runaway detection uniform across backends.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] for a non-square input.
    /// - [`LinalgError::NotPositiveDefinite`] from the dense factorization
    ///   or the sparse diagonal screen.
    pub fn factor(
        a: &DenseMatrix,
        backend: ResolvedBackend,
    ) -> Result<FactoredSystem, LinalgError> {
        match backend {
            ResolvedBackend::DenseCholesky => Ok(FactoredSystem::Dense(Cholesky::factor(a)?)),
            ResolvedBackend::SparseCg(settings) => {
                if !a.is_square() {
                    return Err(LinalgError::NotSquare {
                        rows: a.rows(),
                        cols: a.cols(),
                    });
                }
                for k in 0..a.rows() {
                    let d = a[(k, k)];
                    if d <= 0.0 || !d.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: k });
                    }
                }
                Ok(FactoredSystem::Sparse {
                    matrix: CsrMatrix::from_dense(a),
                    settings,
                })
            }
        }
    }

    /// Resolves `Auto` against `a`'s shape and nonzero count, then factors.
    ///
    /// # Errors
    ///
    /// Same contract as [`FactoredSystem::factor`].
    pub fn factor_auto(
        a: &DenseMatrix,
        backend: SolverBackend,
    ) -> Result<FactoredSystem, LinalgError> {
        let nnz = a.as_slice().iter().filter(|&&v| v != 0.0).count();
        FactoredSystem::factor(a, backend.resolve(a.rows(), nnz))
    }

    /// Which [`SolveMethod`] solves through this factored system report.
    ///
    /// The updated variant still solves through triangular substitutions of
    /// the base Cholesky factor, so it reports [`SolveMethod::Cholesky`].
    pub fn method(&self) -> SolveMethod {
        match self {
            FactoredSystem::Dense(_) | FactoredSystem::Updated(_) => SolveMethod::Cholesky,
            FactoredSystem::Sparse { .. } => SolveMethod::SparseCg,
        }
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        match self {
            FactoredSystem::Dense(chol) => chol.dim(),
            FactoredSystem::Sparse { matrix, .. } => matrix.rows(),
            FactoredSystem::Updated(applied) => applied.dim(),
        }
    }

    /// Re-keys this factored system to the diagonally perturbed matrix
    /// `A + Δ` without a full refactorization.
    ///
    /// - **Dense**: builds an [`UpdatableFactor`] over the perturbed nodes
    ///   and applies the Sherman–Morrison–Woodbury correction (`O(k)`
    ///   triangular solves once, then `O(k³)`). Callers updating the same
    ///   node set repeatedly should hold an [`UpdatableFactor`] themselves
    ///   and pay the setup once; this entry point is the uniform-interface
    ///   form.
    /// - **Sparse**: patches the CSR diagonal in place via
    ///   [`CsrMatrix::set_diagonal_entry`] (inserting structurally missing
    ///   diagonals) and re-screens positivity, exactly like
    ///   [`FactoredSystem::factor`] does.
    /// - **Updated**: merges the new deltas into the existing correction
    ///   over the shared base factor (same node-set restriction as
    ///   [`UpdatableFactor::apply`]).
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotPositiveDefinite`] if the perturbed matrix is no
    ///   longer positive definite (past thermal runaway).
    /// - [`LinalgError::IllConditioned`] when the update's small pivots are
    ///   too degraded to trust — fall back to a fresh factorization.
    /// - [`LinalgError::InvalidInput`] for out-of-bounds nodes, or (on the
    ///   updated variant) nodes outside the prepared set.
    pub fn update_rank_k(&self, update: &DiagonalUpdate) -> Result<FactoredSystem, LinalgError> {
        match self {
            FactoredSystem::Dense(chol) => {
                let nodes: Vec<usize> = update.entries().iter().map(|&(k, _)| k).collect();
                let factor = UpdatableFactor::new(chol.clone(), &nodes)?;
                Ok(FactoredSystem::Updated(factor.apply(update)?))
            }
            FactoredSystem::Sparse { matrix, settings } => {
                let mut patched = matrix.clone();
                for &(k, delta) in update.entries() {
                    if k >= patched.rows() || k >= patched.cols() {
                        return Err(LinalgError::InvalidInput(format!(
                            "update node {k} out of bounds for {}x{}",
                            patched.rows(),
                            patched.cols()
                        )));
                    }
                    let value = patched.get(k, k) + delta;
                    if value <= 0.0 || !value.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { pivot: k });
                    }
                    patched.set_diagonal_entry(k, value)?;
                }
                Ok(FactoredSystem::Sparse {
                    matrix: patched,
                    settings: *settings,
                })
            }
            FactoredSystem::Updated(applied) => {
                let mut merged: Vec<(usize, f64)> = applied.entries().to_vec();
                for &(node, delta) in update.entries() {
                    match merged.binary_search_by_key(&node, |&(n, _)| n) {
                        Ok(pos) => merged[pos].1 += delta,
                        Err(pos) => merged.insert(pos, (node, delta)),
                    }
                }
                let combined = DiagonalUpdate::new(merged)?;
                Ok(FactoredSystem::Updated(applied.factor().apply(&combined)?))
            }
        }
    }

    /// Solves `A·X = B` for a block of right-hand sides.
    ///
    /// The dense and updated backends use the blocked triangular sweeps of
    /// [`Cholesky::solve_many`] (one pass over the factor for the whole
    /// block); the sparse backend runs CG per column against the shared CSR
    /// matrix. Diagnostics are per column, exactly as
    /// [`FactoredSystem::solve`] would report them.
    ///
    /// # Errors
    ///
    /// Same contract as [`FactoredSystem::solve`], applied per column.
    pub fn solve_many(&self, rhs: &[Vec<f64>]) -> Result<Vec<BackendSolve>, LinalgError> {
        match self {
            FactoredSystem::Dense(chol) => {
                let condition_estimate = chol.condition_estimate();
                Ok(chol
                    .solve_many(rhs)?
                    .into_iter()
                    .map(|x| BackendSolve {
                        x,
                        condition_estimate,
                        iterations: 0,
                    })
                    .collect())
            }
            FactoredSystem::Updated(applied) => {
                let condition_estimate = applied.condition_estimate();
                Ok(applied
                    .solve_many(rhs)?
                    .into_iter()
                    .map(|x| BackendSolve {
                        x,
                        condition_estimate,
                        iterations: 0,
                    })
                    .collect())
            }
            FactoredSystem::Sparse { .. } => rhs.iter().map(|b| self.solve(b)).collect(),
        }
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] for a wrong-length `b`.
    /// - [`LinalgError::NotPositiveDefinite`] if CG encounters nonpositive
    ///   curvature (the matrix is indefinite — past runaway).
    /// - [`LinalgError::NoConvergence`] if CG stalls within its iteration
    ///   budget (callers may fall back to the dense backend).
    pub fn solve(&self, b: &[f64]) -> Result<BackendSolve, LinalgError> {
        self.solve_with_cancel(b, None)
    }

    /// [`FactoredSystem::solve`] with a cooperative cancellation token.
    ///
    /// The dense backend checks the token once before its (short,
    /// non-iterative) triangular solves; the sparse backend polls at every
    /// CG iteration boundary. With `cancel: None` the result is
    /// bit-identical to [`FactoredSystem::solve`].
    ///
    /// # Errors
    ///
    /// Same contract as [`FactoredSystem::solve`], plus
    /// [`LinalgError::Cancelled`] once the token is raised.
    pub fn solve_with_cancel(
        &self,
        b: &[f64],
        cancel: Option<&CancelToken>,
    ) -> Result<BackendSolve, LinalgError> {
        match self {
            FactoredSystem::Dense(chol) => {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    return Err(LinalgError::Cancelled { iterations: 0 });
                }
                Ok(BackendSolve {
                    x: chol.solve(b)?,
                    condition_estimate: chol.condition_estimate(),
                    iterations: 0,
                })
            }
            FactoredSystem::Sparse { matrix, settings } => {
                let out = conjugate_gradient_cancellable(matrix, b, *settings, cancel)?;
                Ok(BackendSolve {
                    condition_estimate: cg_condition_estimate(out.iterations, settings.tolerance),
                    iterations: out.iterations,
                    x: out.x,
                })
            }
            FactoredSystem::Updated(applied) => Ok(BackendSolve {
                x: applied.solve_with_cancel(b, cancel)?,
                condition_estimate: applied.condition_estimate(),
                iterations: 0,
            }),
        }
    }
}

/// Inverts the classical CG iteration bound `iters ≈ ½·√κ·ln(2/ε)` into a
/// cheap condition-number *proxy*. It is a heuristic — preconditioning and
/// eigenvalue clustering make CG converge faster than the bound — but it
/// grows with the true `κ` and therefore preserves the "distance to
/// runaway" reading of the dense pivot-ratio estimate.
fn cg_condition_estimate(iterations: usize, tolerance: f64) -> f64 {
    let log_term = (2.0 / tolerance.max(f64::MIN_POSITIVE)).ln().max(1.0);
    let sqrt_kappa = 2.0 * iterations as f64 / log_term;
    (sqrt_kappa * sqrt_kappa).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stieltjes::{random_stieltjes, seeded_rng, StieltjesSampler};

    fn spd(dim: usize, density: f64, seed: u64) -> DenseMatrix {
        random_stieltjes(
            StieltjesSampler {
                dim,
                density,
                ..StieltjesSampler::default()
            },
            &mut seeded_rng(seed),
        )
    }

    #[test]
    fn auto_resolves_by_size_and_density() {
        // Small: dense regardless of density.
        assert_eq!(
            SolverBackend::Auto.resolve(100, 100),
            ResolvedBackend::DenseCholesky
        );
        // Large and sparse: CG.
        assert!(matches!(
            SolverBackend::Auto.resolve(1000, 10_000),
            ResolvedBackend::SparseCg(_)
        ));
        // Large but dense: stay with Cholesky.
        assert_eq!(
            SolverBackend::Auto.resolve(1000, 500_000),
            ResolvedBackend::DenseCholesky
        );
        // Forced backends ignore the shape.
        assert_eq!(
            SolverBackend::DenseCholesky.resolve(10_000, 10),
            ResolvedBackend::DenseCholesky
        );
        assert!(matches!(
            SolverBackend::SparseCg(CgSettings::default()).resolve(2, 4),
            ResolvedBackend::SparseCg(_)
        ));
    }

    #[test]
    fn backends_agree_on_random_stieltjes() {
        for (seed, dim) in [(7_u64, 40_usize), (8, 80), (9, 120)] {
            let a = spd(dim, 0.08, seed);
            let b: Vec<f64> = (0..dim).map(|k| (k as f64 * 0.37).sin() + 1.5).collect();
            let dense = FactoredSystem::factor(&a, ResolvedBackend::DenseCholesky)
                .expect("SPD")
                .solve(&b)
                .expect("solves");
            let sparse =
                FactoredSystem::factor(&a, ResolvedBackend::SparseCg(CgSettings::default()))
                    .expect("positive diagonal")
                    .solve(&b)
                    .expect("CG converges");
            let num: f64 = dense
                .x
                .iter()
                .zip(&sparse.x)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt();
            let den: f64 = dense.x.iter().map(|u| u * u).sum::<f64>().sqrt();
            assert!(num <= 1e-8 * den, "dim {dim}: rel err {}", num / den);
            assert!(sparse.iterations > 0);
            assert_eq!(dense.iterations, 0);
        }
    }

    #[test]
    fn sparse_screen_rejects_nonpositive_diagonal() {
        let a = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, -2.0]]).expect("square");
        let err = FactoredSystem::factor(&a, ResolvedBackend::SparseCg(CgSettings::default()))
            .expect_err("indefinite");
        assert_eq!(err, LinalgError::NotPositiveDefinite { pivot: 1 });
    }

    #[test]
    fn sparse_detects_indefiniteness_during_solve() {
        // Positive diagonal but indefinite: the screen passes, CG reports
        // nonpositive curvature.
        let a = DenseMatrix::from_rows(&[&[1.0, 3.0], &[3.0, 1.0]]).expect("square");
        let f = FactoredSystem::factor(&a, ResolvedBackend::SparseCg(CgSettings::default()))
            .expect("diagonal is positive");
        let err = f.solve(&[1.0, -1.0]).expect_err("indefinite");
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn method_and_dim_reported() {
        let a = spd(12, 0.3, 3);
        let d = FactoredSystem::factor(&a, ResolvedBackend::DenseCholesky).expect("SPD");
        let s = FactoredSystem::factor(&a, ResolvedBackend::SparseCg(CgSettings::default()))
            .expect("positive diagonal");
        assert_eq!(d.method(), SolveMethod::Cholesky);
        assert_eq!(s.method(), SolveMethod::SparseCg);
        assert_eq!(d.dim(), 12);
        assert_eq!(s.dim(), 12);
    }

    fn rel_err(a: &[f64], b: &[f64]) -> f64 {
        let num: f64 = a
            .iter()
            .zip(b)
            .map(|(u, v)| (u - v) * (u - v))
            .sum::<f64>()
            .sqrt();
        let den: f64 = a.iter().map(|u| u * u).sum::<f64>().sqrt().max(1e-30);
        num / den
    }

    #[test]
    fn rank_k_update_matches_fresh_factor_on_all_backends() {
        let dim = 48;
        let a = spd(dim, 0.1, 17);
        let update = DiagonalUpdate::new([(3, 0.6), (20, -0.05), (41, 1.2)]).expect("finite");
        let mut perturbed = a.clone();
        let mut diag = vec![0.0; dim];
        for &(k, v) in update.entries() {
            diag[k] = v;
        }
        perturbed
            .add_scaled_diagonal(&diag, 1.0)
            .expect("dims match");
        let b: Vec<f64> = (0..dim).map(|k| (k as f64 * 0.23).cos() + 1.0).collect();
        let oracle = FactoredSystem::factor(&perturbed, ResolvedBackend::DenseCholesky)
            .expect("SPD")
            .solve(&b)
            .expect("solves");

        for backend in [
            ResolvedBackend::DenseCholesky,
            ResolvedBackend::SparseCg(CgSettings::default()),
        ] {
            let base = FactoredSystem::factor(&a, backend).expect("SPD");
            let updated = base.update_rank_k(&update).expect("updatable");
            let got = updated.solve(&b).expect("solves");
            assert!(
                rel_err(&oracle.x, &got.x) < 1e-8,
                "{backend:?}: rel err {}",
                rel_err(&oracle.x, &got.x)
            );
            assert_eq!(updated.dim(), dim);
        }
    }

    #[test]
    fn stacked_updates_compose_on_the_updated_variant() {
        let dim = 24;
        let a = spd(dim, 0.2, 23);
        let first = DiagonalUpdate::new([(2, 0.5), (11, -0.1)]).expect("finite");
        let second = DiagonalUpdate::new([(2, -0.2), (11, 0.3)]).expect("finite");
        let base = FactoredSystem::factor(&a, ResolvedBackend::DenseCholesky).expect("SPD");
        let once = base.update_rank_k(&first).expect("updatable");
        let twice = once.update_rank_k(&second).expect("stacks");

        let mut perturbed = a.clone();
        let mut diag = vec![0.0; dim];
        diag[2] = 0.3;
        diag[11] = 0.2;
        perturbed
            .add_scaled_diagonal(&diag, 1.0)
            .expect("dims match");
        let b: Vec<f64> = (0..dim).map(|k| (k as f64 * 0.7).sin()).collect();
        let oracle = Cholesky::factor(&perturbed)
            .expect("SPD")
            .solve(&b)
            .expect("solves");
        let got = twice.solve(&b).expect("solves");
        assert!(rel_err(&oracle, &got.x) < 1e-10);
        assert_eq!(twice.method(), SolveMethod::Cholesky);
    }

    #[test]
    fn indefinite_update_is_rejected_uniformly() {
        let a = spd(20, 0.2, 31);
        let update = DiagonalUpdate::new([(7, -1e9)]).expect("finite");
        for backend in [
            ResolvedBackend::DenseCholesky,
            ResolvedBackend::SparseCg(CgSettings::default()),
        ] {
            let base = FactoredSystem::factor(&a, backend).expect("SPD");
            assert!(
                matches!(
                    base.update_rank_k(&update),
                    Err(LinalgError::NotPositiveDefinite { .. })
                ),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn solve_many_matches_per_rhs_solve_on_all_variants() {
        let dim = 40;
        let a = spd(dim, 0.1, 41);
        let update = DiagonalUpdate::new([(5, 0.4)]).expect("finite");
        let rhs: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                (0..dim)
                    .map(|k| ((k + 3 * c) as f64 * 0.37).sin() + 1.5)
                    .collect()
            })
            .collect();
        let dense = FactoredSystem::factor(&a, ResolvedBackend::DenseCholesky).expect("SPD");
        let sparse = FactoredSystem::factor(&a, ResolvedBackend::SparseCg(CgSettings::default()))
            .expect("positive diagonal");
        let updated = dense.update_rank_k(&update).expect("updatable");
        for f in [&dense, &sparse, &updated] {
            let block = f.solve_many(&rhs).expect("solves");
            assert_eq!(block.len(), rhs.len());
            for (col, b) in block.iter().zip(&rhs) {
                let one = f.solve(b).expect("solves");
                assert!(rel_err(&one.x, &col.x) < 1e-10);
            }
        }
        assert!(dense.solve_many(&[]).expect("empty").is_empty());
    }

    #[test]
    fn condition_heuristic_is_monotone_and_bounded_below() {
        let c1 = cg_condition_estimate(0, 1e-10);
        let c2 = cg_condition_estimate(50, 1e-10);
        let c3 = cg_condition_estimate(500, 1e-10);
        assert_eq!(c1, 1.0);
        assert!(c2 > c1 && c3 > c2);
    }
}
