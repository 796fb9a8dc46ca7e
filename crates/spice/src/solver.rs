//! Sparse-vs-dense linear-solver dispatch for the Newton loops.
//!
//! The seed cells of this project have a few dozen unknowns, where the
//! dense [`shc_linalg::LuFactor`] path is unbeatable and — crucially for
//! the golden-contour gates — bitwise reproducible. Larger circuits
//! (e.g. the register-bank cell) cross into the regime where dense
//! `O(n³)` factorization dominates the transient runtime; there the
//! KLU-style [`SparseLu`] path wins by an order of magnitude while
//! agreeing with the dense solve to solver tolerance.
//!
//! [`SolverChoice`] selects the backend (the default `Auto` dispatches on
//! the unknown count), and [`SparseJacSolver`] packages the machinery the
//! sparse path needs: the probed Jacobian sparsity pattern, a CSR
//! template whose values are gathered from the densely assembled
//! Jacobian, and the `SparseLu` factors that are refactored in place —
//! allocation-free — on every Newton iteration after the first.

use shc_linalg::{CsrMatrix, LinalgError, Matrix, SparseLu, Vector};

use crate::circuit::Circuit;
use crate::stamp::Stamps;
use crate::waveform::Params;

/// Unknown-count threshold at which [`SolverChoice::Auto`] switches from
/// the dense to the sparse path.
///
/// MNA circuit matrices at this size are already very sparse (a handful
/// of entries per row), and the `O(n³)` dense factorization overtakes the
/// sparse solve's bookkeeping well below 64 unknowns; the threshold is
/// kept above the crossover so every seed cell stays on the dense path
/// and keeps producing bitwise-identical contours.
pub const SPARSE_DISPATCH_MIN_UNKNOWNS: usize = 64;

/// Which linear solver backs the Newton iterations of the transient and
/// DC analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Per-circuit dispatch: sparse from
    /// [`SPARSE_DISPATCH_MIN_UNKNOWNS`] unknowns, dense below.
    #[default]
    Auto,
    /// Always the dense [`shc_linalg::LuFactor`] path.
    Dense,
    /// Always the sparse-direct [`SparseLu`] path.
    Sparse,
}

impl SolverChoice {
    /// Whether a circuit with `n` unknowns should use the sparse path.
    #[must_use]
    pub fn wants_sparse(self, n: usize) -> bool {
        match self {
            SolverChoice::Auto => n >= SPARSE_DISPATCH_MIN_UNKNOWNS,
            SolverChoice::Dense => false,
            SolverChoice::Sparse => true,
        }
    }

    /// Stable lowercase name (CLI value / JSON output).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SolverChoice::Auto => "auto",
            SolverChoice::Dense => "dense",
            SolverChoice::Sparse => "sparse",
        }
    }
}

impl std::fmt::Display for SolverChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SolverChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(SolverChoice::Auto),
            "dense" => Ok(SolverChoice::Dense),
            "sparse" => Ok(SolverChoice::Sparse),
            other => Err(format!(
                "unknown solver '{other}' (expected auto, dense or sparse)"
            )),
        }
    }
}

/// Sparse linear-solve state for one circuit topology.
///
/// Construction probes the step-Jacobian sparsity pattern once (see
/// [`Circuit::jacobian_pattern`]); every Newton iteration then gathers
/// the current values out of the densely assembled Jacobian into the CSR
/// template and refactors in place. Cloning copies the symbolic analysis
/// (tracked buffer allocations, cold) so the sensitivity path can share
/// it without re-running the fill-reducing ordering.
#[derive(Debug, Clone)]
pub struct SparseJacSolver {
    /// Probed Jacobian positions, sorted by `(row, col)` and
    /// duplicate-free — exactly the CSR storage order, so entry `k`
    /// gathers into `csr.values_mut()[k]`.
    entries: Vec<(usize, usize)>,
    /// Scratch for per-run pattern re-probes.
    probe: Vec<(usize, usize)>,
    /// CSR template holding the most recently gathered values.
    csr: CsrMatrix,
    /// Numeric factors; `None` until the first factorization.
    lu: Option<SparseLu>,
}

impl SparseJacSolver {
    /// Probes `circuit`'s Jacobian pattern and builds the CSR template.
    /// Cold: runs once per topology.
    pub fn new(circuit: &Circuit, params: &Params) -> crate::Result<Self> {
        let n = circuit.unknown_count();
        let entries = circuit.jacobian_pattern(params);
        let triplets: Vec<(usize, usize, f64)> =
            entries.iter().map(|&(i, j)| (i, j, 1.0)).collect();
        let csr = CsrMatrix::from_triplets(n, n, &triplets)?;
        debug_assert_eq!(csr.nnz(), entries.len());
        Ok(SparseJacSolver {
            entries,
            probe: Vec::new(),
            csr,
            lu: None,
        })
    }

    /// Unknown count of the analyzed circuit.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.csr.rows()
    }

    /// The probed Jacobian positions, sorted by `(row, col)` and
    /// duplicate-free. The transient hot loop uses this to confine its
    /// stamp clears and Jacobian combines to the structural nonzeros.
    #[must_use]
    pub fn pattern(&self) -> &[(usize, usize)] {
        &self.entries
    }

    /// True when `circuit` probes to exactly the analyzed pattern, i.e.
    /// this solver (including any symbolic analysis it carries) can be
    /// reused as-is. `stamps`/`x_zero` are clobbered as probe scratch
    /// and must match the circuit's unknown count.
    pub fn matches_pattern(
        &mut self,
        circuit: &Circuit,
        stamps: &mut Stamps,
        x_zero: &Vector,
        params: &Params,
    ) -> bool {
        if circuit.unknown_count() != self.dim() {
            return false;
        }
        circuit.assemble_pattern_into(stamps, x_zero, params, &mut self.probe);
        self.probe == self.entries
    }

    /// Gathers the pattern's values out of the densely assembled Jacobian
    /// and (re)factors. The first call performs the symbolic analysis and
    /// allocates the factors; every later call refactors in place without
    /// allocating (falling back to a fresh repivoting factorization only
    /// on a pivot-collapse event — see [`SparseLu::refactor`]).
    ///
    /// effects: assert
    // lint: hot-fn
    pub fn factor_from(&mut self, jac: &Matrix) -> crate::Result<()> {
        let vals = self.csr.values_mut();
        let mut finite = true;
        for (k, &(i, j)) in self.entries.iter().enumerate() {
            vals[k] = jac[(i, j)];
            finite &= vals[k].is_finite();
        }
        // Blow-up detection lives here, on the gathered O(nnz) values:
        // the sparse Newton path never scans the dense matrix (whose
        // off-pattern entries are structurally zero anyway).
        if !finite {
            return Err(crate::SpiceError::NumericalBlowup { time: f64::NAN });
        }
        match self.lu.as_mut() {
            Some(lu) => lu.refactor(&self.csr)?,
            None => {
                // lint: allow(hot-path-certify, reason = "cold path: the first call performs the symbolic analysis (allocating, span-instrumented); every later call takes the in-place refactor arm")
                self.lu = Some(SparseLu::new(&self.csr)?);
            }
        }
        Ok(())
    }

    /// Solves `J·x = b` with the current factors.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidInput`] if called before any
    /// [`SparseJacSolver::factor_from`]; otherwise whatever
    /// [`SparseLu::solve_into`] reports.
    ///
    /// effects: none
    // lint: hot-fn
    pub fn solve_into(&mut self, b: &Vector, x: &mut Vector) -> crate::Result<()> {
        match self.lu.as_mut() {
            Some(lu) => {
                lu.solve_into(b, x)?;
                Ok(())
            }
            None => Err(LinalgError::InvalidInput {
                reason: "sparse solver used before factorization",
            }
            .into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Resistor, VoltageSource};
    use crate::waveform::Waveform;
    use crate::Circuit;

    fn rc_chain(stages: usize) -> Circuit {
        let mut c = Circuit::new();
        let mut prev = c.node("in");
        c.add(VoltageSource::new(
            "V1",
            prev,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        for s in 0..stages {
            let node = c.node(&format!("n{s}"));
            c.add(Resistor::new(&format!("R{s}"), prev, node, 1e3));
            c.add(Capacitor::new(
                &format!("C{s}"),
                node,
                Circuit::GROUND,
                1e-12,
            ));
            prev = node;
        }
        c
    }

    #[test]
    fn auto_dispatch_threshold() {
        assert!(!SolverChoice::Auto.wants_sparse(SPARSE_DISPATCH_MIN_UNKNOWNS - 1));
        assert!(SolverChoice::Auto.wants_sparse(SPARSE_DISPATCH_MIN_UNKNOWNS));
        assert!(!SolverChoice::Dense.wants_sparse(10_000));
        assert!(SolverChoice::Sparse.wants_sparse(2));
    }

    #[test]
    fn choice_parses_and_displays() {
        for c in [
            SolverChoice::Auto,
            SolverChoice::Dense,
            SolverChoice::Sparse,
        ] {
            assert_eq!(c.name().parse::<SolverChoice>(), Ok(c));
            assert_eq!(c.to_string(), c.name());
        }
        assert!("cholesky".parse::<SolverChoice>().is_err());
        assert_eq!(SolverChoice::default(), SolverChoice::Auto);
    }

    #[test]
    fn sparse_solver_matches_dense_lu_on_stamped_jacobian() {
        let circuit = rc_chain(12);
        let params = Params::default();
        let n = circuit.unknown_count();
        let mut solver = SparseJacSolver::new(&circuit, &params).unwrap();
        assert_eq!(solver.dim(), n);
        // Not factored yet: a solve is refused rather than answered.
        let mut out = Vector::zeros(n);
        assert!(solver.solve_into(&Vector::zeros(n), &mut out).is_err());

        // Assemble at a nonzero state so C and G carry real values.
        let mut x = Vector::zeros(n);
        for i in 0..n {
            x[i] = 0.1 * (i as f64 + 1.0);
        }
        let stamps = circuit.assemble(&x, 1e-9, &params, 1.0);
        let jac = Circuit::combine_jacobian(&stamps.c, &stamps.g, 1.0 / 1e-12).unwrap();

        let mut b = Vector::zeros(n);
        for i in 0..n {
            b[i] = (i as f64).sin();
        }
        solver.factor_from(&jac).unwrap();
        let mut xs = Vector::zeros(n);
        solver.solve_into(&b, &mut xs).unwrap();

        let xd = jac.lu().unwrap().solve(&b).unwrap();
        assert!(xs.sub(&xd).norm_inf() < 1e-12 * xd.norm_inf().max(1.0));

        // Refactor path: scale the Jacobian, solve again, compare again.
        let jac2 = Circuit::combine_jacobian(&stamps.c, &stamps.g, 1.0 / 2e-12).unwrap();
        solver.factor_from(&jac2).unwrap();
        solver.solve_into(&b, &mut xs).unwrap();
        let xd2 = jac2.lu().unwrap().solve(&b).unwrap();
        assert!(xs.sub(&xd2).norm_inf() < 1e-12 * xd2.norm_inf().max(1.0));
    }

    #[test]
    fn pattern_recheck_accepts_same_topology_and_rejects_other() {
        let circuit = rc_chain(6);
        let other = rc_chain(7);
        let params = Params::default();
        let mut solver = SparseJacSolver::new(&circuit, &params).unwrap();

        let mut stamps = Stamps::new(circuit.unknown_count());
        let x0 = Vector::zeros(circuit.unknown_count());
        assert!(solver.matches_pattern(&circuit, &mut stamps, &x0, &params));
        // Different unknown count: rejected before probing.
        assert!(!solver.matches_pattern(&other, &mut stamps, &x0, &params));
    }

    #[test]
    fn solve_before_factor_is_an_error() {
        let circuit = rc_chain(3);
        let params = Params::default();
        let mut solver = SparseJacSolver::new(&circuit, &params).unwrap();
        let b = Vector::zeros(circuit.unknown_count());
        let mut x = Vector::zeros(circuit.unknown_count());
        assert!(solver.solve_into(&b, &mut x).is_err());
    }
}
