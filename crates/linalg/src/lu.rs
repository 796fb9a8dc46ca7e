use crate::{LinalgError, Matrix, Result, Vector};

/// Pivot magnitude below which a matrix is declared numerically singular.
const SINGULARITY_THRESHOLD: f64 = 1e-300;

/// Deterministic fault hook: asks the installed `shc-fault` plan (if any)
/// whether this call should fail, mapping the fault kind onto this layer's
/// error vocabulary. A single thread-local read when no plan is installed.
fn injected_fault(site: shc_fault::Site) -> Option<LinalgError> {
    let kind = shc_fault::check(site)?;
    shc_obs::count(shc_obs::Metric::FaultsInjected, 1);
    // Every LU failure mode presents as a singular pivot; a NaN-residual
    // fault reports a NaN pivot magnitude, like a real blow-up would.
    let value = match kind {
        shc_fault::FaultKind::NanResidual => f64::NAN,
        _ => 0.0,
    };
    Some(LinalgError::Singular { pivot: 0, value })
}

/// LU factorization with partial (row) pivoting: `P·A = L·U`.
///
/// The factorization is computed once and can then be reused for many
/// right-hand sides. This pattern is central to the paper's efficiency
/// argument: the transient Newton step factors `(C/Δt + G)` once, and the
/// two sensitivity solves (its eqs. (11) and (13)) reuse the factors.
///
/// # Example
///
/// ```rust
/// use shc_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), shc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
/// let lu = a.lu()?;
/// let x1 = lu.solve(&Vector::from_slice(&[3.0, 4.0]))?;
/// let x2 = lu.solve(&Vector::from_slice(&[1.0, 0.0]))?; // factors reused
/// assert!(x1.is_finite() && x2.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: row `i` of the factored matrix came from `perm[i]`.
    perm: Vec<usize>,
}

impl LuFactor {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square;
    /// - [`LinalgError::Singular`] if a pivot magnitude falls below the
    ///   numerical-singularity threshold.
    ///
    /// effects: alloc
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        shc_obs::count(shc_obs::Metric::LuFactorizations, 1);
        // Cold, allocating entry point — the warm Newton loop refactors in
        // place — so a full profiler frame is affordable here.
        let _frame = shc_prof::enter(shc_prof::Phase::LuFactor);
        shc_prof::add_work(n as u64);
        if let Some(e) = injected_fault(shc_fault::Site::LuFactor) {
            return Err(e);
        }
        let mut factor = LuFactor {
            lu: a.clone(),
            perm: (0..n).collect(),
        };
        factor.factor_in_place()?;
        Ok(factor)
    }

    /// The factorization of the `n×n` identity, written down without
    /// elimination: allocated storage for later [`LuFactor::refactor`]
    /// calls. Unlike [`LuFactor::new`] it counts no factorization and
    /// draws no injected fault, so a solver can size its factor up front
    /// and keep every factorization in its stepping loop a refactor.
    ///
    /// effects: alloc
    pub fn identity(n: usize) -> Self {
        LuFactor {
            lu: Matrix::identity(n),
            perm: (0..n).collect(),
        }
    }

    /// Re-factors `a` reusing this factor's existing buffers.
    ///
    /// Equivalent to `*self = LuFactor::new(a)?` but allocation-free when
    /// `a` has the same dimension as the previously factored matrix — the
    /// case in transient Newton loops, where the Jacobian shape is fixed
    /// and only its entries change step to step.
    ///
    /// On error the factor contents are unspecified; call `refactor` again
    /// (or rebuild with [`LuFactor::new`]) before the next solve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LuFactor::new`].
    ///
    /// effects: assert
    // lint: hot-fn
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        shc_obs::count(shc_obs::Metric::LuRefactors, 1);
        if let Some(e) = injected_fault(shc_fault::Site::LuFactor) {
            return Err(e);
        }
        if self.dim() == n {
            self.lu.copy_from(a)?;
        } else {
            // lint: allow(hot-path-certify, reason = "cold re-shape path: a dimension change rebuilds storage once; the steady-state arm above copies in place")
            self.lu = a.clone();
            // lint: allow(hot-path-certify, reason = "same cold re-shape path as the clone above")
            self.perm.resize(n, 0);
        }
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.factor_in_place()
    }

    /// Gaussian elimination with partial pivoting over the prepared
    /// `(lu, perm)` state; `lu` must hold the matrix entries on
    /// entry and holds the packed L/U factors on successful exit.
    fn factor_in_place(&mut self) -> Result<()> {
        let n = self.lu.rows();
        let lu = &mut self.lu;
        for k in 0..n {
            // Partial pivoting: largest magnitude in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_mag = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let mag = lu[(i, k)].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_mag < SINGULARITY_THRESHOLD || !pivot_mag.is_finite() {
                return Err(LinalgError::Singular {
                    pivot: k,
                    value: pivot_mag,
                });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                self.perm.swap(k, pivot_row);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                // lint: allow(float-eq, reason = "exact-zero skip is a sparsity fast path; any nonzero factor must be applied")
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let delta = factor * lu[(k, j)];
                        lu[(i, j)] -= delta;
                    }
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let mut x = Vector::zeros(self.dim());
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-provided buffer (no allocation).
    ///
    /// `b` and `x` may not alias (distinct `&`/`&mut` borrows enforce this).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b` or `x` has length
    /// other than `dim()`.
    ///
    /// effects: none
    // lint: hot-fn
    pub fn solve_into(&self, b: &Vector, x: &mut Vector) -> Result<()> {
        shc_obs::count(shc_obs::Metric::LuSolves, 1);
        if let Some(e) = injected_fault(shc_fault::Site::LuSolve) {
            return Err(e);
        }
        let n = self.dim();
        if b.len() != n || x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len().max(x.len()), 1),
            });
        }
        // Apply permutation, then forward-substitute L·y = P·b.
        for i in 0..n {
            x[i] = b[self.perm[i]];
        }
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back-substitute U·x = y.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Solves `Aᵀ·x = b` using the stored factors (no re-factorization).
    ///
    /// Useful for adjoint computations.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve_transposed(&self, b: &Vector) -> Result<Vector> {
        shc_obs::count(shc_obs::Metric::LuSolves, 1);
        if let Some(e) = injected_fault(shc_fault::Site::LuSolve) {
            return Err(e);
        }
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve_transposed",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Aᵀ = Uᵀ·Lᵀ·P, so solve Uᵀ·y = b, then Lᵀ·z = y, then x = Pᵀ·z.
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= self.lu[(j, i)] * y[j];
            }
            y[i] = acc / self.lu[(i, i)];
        }
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.lu[(j, i)] * y[j];
            }
            y[i] = acc;
        }
        let mut x = Vector::zeros(n);
        for i in 0..n {
            x[self.perm[i]] = y[i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]).unwrap();
        let b = Vector::from_slice(&[5.0, -2.0, 9.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = a.mul_vec(&x).sub(&b);
        assert!(r.norm_inf() < 1e-12, "residual {}", r.norm_inf());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let b = Vector::from_slice(&[2.0, 3.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match a.lu() {
            Err(LinalgError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn transposed_solve_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[2.0, 5.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0]);
        let x1 = a.lu().unwrap().solve_transposed(&b).unwrap();
        let x2 = a.transpose().lu().unwrap().solve(&b).unwrap();
        assert!(x1.sub(&x2).norm_inf() < 1e-12);
    }

    #[test]
    fn factor_reuse_many_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let lu = a.lu().unwrap();
        for k in 0..5 {
            let b = Vector::from_slice(&[k as f64, 1.0 - k as f64]);
            let x = lu.solve(&b).unwrap();
            assert!(a.mul_vec(&x).sub(&b).norm_inf() < 1e-12);
        }
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(2);
        let lu = a.lu().unwrap();
        assert!(lu.solve(&Vector::zeros(3)).is_err());
        assert!(lu.solve_transposed(&Vector::zeros(1)).is_err());
    }

    #[test]
    fn refactor_matches_fresh_factorization_without_alloc() {
        let a = Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[3.0, 4.0, 5.0], &[6.0, 8.0, 1.0]]).unwrap();
        let b_mat =
            Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]).unwrap();
        let mut lu = LuFactor::new(&a).unwrap();
        let rhs = Vector::from_slice(&[1.0, -2.0, 3.0]);

        let before = crate::matrix_allocations();
        lu.refactor(&b_mat).unwrap();
        let mut x = Vector::zeros(3);
        lu.solve_into(&rhs, &mut x).unwrap();
        assert_eq!(crate::matrix_allocations(), before, "refactor allocated");

        let fresh = LuFactor::new(&b_mat).unwrap().solve(&rhs).unwrap();
        assert!(
            x.sub(&fresh).norm_inf() == 0.0,
            "refactor diverged from new"
        );
    }

    #[test]
    fn identity_storage_refactors_like_a_fresh_factor() {
        let plan = shc_fault::FaultPlan {
            probability: 1.0,
            site: Some(shc_fault::Site::LuFactor),
            kind: shc_fault::FaultKind::SingularMatrix,
            seed: 7,
        };
        let injector = shc_fault::Injector::new(plan);
        let mut lu = {
            let _guard = shc_fault::install_scoped(&injector);
            LuFactor::identity(3)
        };
        assert_eq!(injector.injected(), 0, "identity storage drew a fault");
        let b = Vector::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(lu.solve(&b).unwrap(), b);

        let a = Matrix::from_rows(&[&[0.0, 1.0, 2.0], &[3.0, 4.0, 5.0], &[6.0, 8.0, 1.0]]).unwrap();
        lu.refactor(&a).unwrap();
        let fresh = LuFactor::new(&a).unwrap().solve(&b).unwrap();
        assert_eq!(lu.solve(&b).unwrap().as_slice(), fresh.as_slice());
    }

    #[test]
    fn refactor_recovers_after_singular_input() {
        let good = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let mut lu = LuFactor::new(&good).unwrap();
        assert!(lu.refactor(&singular).is_err());
        lu.refactor(&good).unwrap();
        let b = Vector::from_slice(&[3.0, 4.0]);
        let x = lu.solve(&b).unwrap();
        assert!(good.mul_vec(&x).sub(&b).norm_inf() < 1e-12);
    }

    #[test]
    fn refactor_handles_dimension_change() {
        let small = Matrix::identity(2);
        let big =
            Matrix::from_rows(&[&[2.0, 0.0, 1.0], &[0.0, 3.0, 0.0], &[1.0, 0.0, 2.0]]).unwrap();
        let mut lu = LuFactor::new(&small).unwrap();
        lu.refactor(&big).unwrap();
        assert_eq!(lu.dim(), 3);
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = lu.solve(&b).unwrap();
        assert!(big.mul_vec(&x).sub(&b).norm_inf() < 1e-12);
    }

    #[test]
    fn solve_into_checks_output_length() {
        let lu = Matrix::identity(2).lu().unwrap();
        let mut wrong = Vector::zeros(3);
        assert!(lu.solve_into(&Vector::zeros(2), &mut wrong).is_err());
    }

    #[test]
    fn injected_factor_fault_surfaces_as_singular_error() {
        let plan = shc_fault::FaultPlan {
            probability: 1.0,
            site: Some(shc_fault::Site::LuFactor),
            kind: shc_fault::FaultKind::SingularMatrix,
            seed: 7,
        };
        let injector = shc_fault::Injector::new(plan);
        let _guard = shc_fault::install_scoped(&injector);
        let a = Matrix::identity(2);
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
        assert_eq!(injector.injected(), 1);
    }

    #[test]
    fn injected_solve_fault_spares_the_factorization() {
        let plan = shc_fault::FaultPlan {
            probability: 1.0,
            site: Some(shc_fault::Site::LuSolve),
            kind: shc_fault::FaultKind::NanResidual,
            seed: 7,
        };
        let lu = Matrix::identity(2).lu().unwrap();
        let injector = shc_fault::Injector::new(plan);
        let _guard = shc_fault::install_scoped(&injector);
        let err = lu.solve(&Vector::zeros(2)).unwrap_err();
        match err {
            LinalgError::Singular { value, .. } => assert!(value.is_nan()),
            other => panic!("expected Singular, got {other:?}"),
        }
        assert_eq!(injector.injected(), 1);
    }
}
