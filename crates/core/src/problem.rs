//! Problem formulation: the scalar equation `h(τs, τh) = 0`.

use std::sync::atomic::{AtomicUsize, Ordering};

use shc_cells::{OutputTransition, Register};
use shc_spice::batch::{run_lockstep, BatchPolicy};
use shc_spice::transient::{
    CrossingDirection, Integrator, PrefixCache, RecordMode, TransientAnalysis, TransientOptions,
    TransientStats,
};
use shc_spice::waveform::{Param, Params};
use shc_spice::SolverChoice;

use crate::{CharError, Result};

/// One evaluation of `h` and (optionally) its 1×2 Jacobian.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HEvaluation {
    /// `h(τs, τh) = cᵀx(t_f) − r`.
    /// unit: V
    pub h: f64,
    /// `∂h/∂τs` from forward sensitivity analysis.
    /// unit: V/s
    pub dh_dtau_s: f64,
    /// `∂h/∂τh` from forward sensitivity analysis.
    /// unit: V/s
    pub dh_dtau_h: f64,
    /// Work counters of the transient run behind this evaluation.
    pub stats: TransientStats,
}

impl HEvaluation {
    /// Euclidean norm of the Jacobian row.
    pub fn jacobian_norm(&self) -> f64 {
        (self.dh_dtau_s * self.dh_dtau_s + self.dh_dtau_h * self.dh_dtau_h).sqrt()
    }

    /// The unit tangent to the solution curve induced by the Jacobian —
    /// paper eq. (16): `T = (−∂h/∂τh, ∂h/∂τs) / ‖·‖`.
    ///
    /// Returns `None` if the Jacobian vanishes.
    pub fn tangent(&self) -> Option<(f64, f64)> {
        let n = self.jacobian_norm();
        if n == 0.0 || !n.is_finite() {
            return None;
        }
        Some((-self.dh_dtau_h / n, self.dh_dtau_s / n))
    }

    /// The Moore-Penrose Newton update `Δτ = −h·H⁺` — paper eqs. (23)/(24).
    ///
    /// For the 1×2 Jacobian, `H⁺ = Hᵀ/(H Hᵀ)`, so
    /// `Δτ = −h·(∂h/∂τs, ∂h/∂τh) / ‖H‖²`.
    ///
    /// Returns `None` if the Jacobian vanishes.
    pub fn mpnr_step(&self) -> Option<(f64, f64)> {
        let n2 = self.dh_dtau_s * self.dh_dtau_s + self.dh_dtau_h * self.dh_dtau_h;
        if n2 == 0.0 || !n2.is_finite() {
            return None;
        }
        let scale = -self.h / n2;
        Some((scale * self.dh_dtau_s, scale * self.dh_dtau_h))
    }
}

/// The interdependent setup/hold characterization problem for one register:
/// holds the measured characteristic delay, the degraded target `(t_f, r)`,
/// and evaluates `h(τs, τh)` by transient simulation.
///
/// Construct with [`CharacterizationProblem::builder`]; building runs one
/// reference simulation (generous skews) to measure the characteristic
/// clock-to-Q delay and derive `t_f` and `r` exactly as in the paper's
/// Sec. IV.
#[derive(Debug)]
pub struct CharacterizationProblem {
    register: Register,
    degradation: f64,
    capture_fraction: f64,
    dt: f64,
    integrator: Integrator,
    solver: SolverChoice,
    batch: BatchPolicy,
    reference: Params,
    t_cq: f64,
    tf: f64,
    r: f64,
    sim_count: AtomicUsize,
    calibration_sims: usize,
    /// The data-at-rest trajectory every evaluation resumes from, scalar or
    /// lockstep, recorded by the first evaluation that may use it.
    prefix: PrefixCache,
}

// The parallel sweeps in [`crate::parallel`] share problems across worker
// threads by reference: every field is plain data except `sim_count`,
// whose atomic updates make `evaluate` callable from many threads at once,
// and `prefix`, which is written once (racing threads wait for the one
// recording) and only read after, so the hot path takes no lock. This
// assertion turns any future non-thread-safe field (e.g. a `RefCell`
// scratch cache) into a compile error instead of a broken sweep.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CharacterizationProblem>();
};

impl CharacterizationProblem {
    /// Starts building a problem around a register fixture.
    pub fn builder(register: Register) -> ProblemBuilder {
        ProblemBuilder {
            register,
            degradation: 0.10,
            capture_fraction: None,
            dt: None,
            integrator: Integrator::BackwardEuler,
            solver: SolverChoice::Auto,
            batch: BatchPolicy::default(),
            reference_skew: None,
            reference_setup: None,
        }
    }

    /// The register under characterization.
    pub fn register(&self) -> &Register {
        &self.register
    }

    /// The clock-to-Q degradation defining the contour (e.g. `0.10`).
    pub fn degradation(&self) -> f64 {
        self.degradation
    }

    /// The characteristic (undegraded) clock-to-Q delay, in seconds.
    pub fn characteristic_delay(&self) -> f64 {
        self.t_cq
    }

    /// The evaluation time `t_f` (absolute simulation time, seconds).
    pub fn t_f(&self) -> f64 {
        self.tf
    }

    /// The target output level `r`, in volts.
    pub fn r(&self) -> f64 {
        self.r
    }

    /// The fixed transient time step used for `h` evaluations.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Generous-skew parameters used for reference measurements.
    pub fn reference_params(&self) -> Params {
        self.reference
    }

    /// Whether an `h` value corresponds to a *successful* capture
    /// (output past the target level in the monitored direction).
    pub fn is_pass(&self, h: f64) -> bool {
        match self.register.transition() {
            OutputTransition::Rising => h > 0.0,
            OutputTransition::Falling => h < 0.0,
        }
    }

    /// Number of transient simulations performed through this problem since
    /// construction (or the last [`Self::reset_simulation_count`]).
    ///
    /// This is the user-visible simulation budget; the reference
    /// (calibration) run performed by the builder is accounted separately
    /// in [`Self::calibration_simulations`].
    pub fn simulation_count(&self) -> usize {
        self.sim_count.load(Ordering::Relaxed)
    }

    /// Number of transient simulations spent outside the per-contour
    /// budget: the build-time measurement of the characteristic delay, plus
    /// one once the first evaluation has recorded the data-at-rest prefix
    /// ladder that later evaluations resume from. Reported separately so
    /// the budget in [`Self::simulation_count`] stays an honest O(n)
    /// figure.
    pub fn calibration_simulations(&self) -> usize {
        self.calibration_sims + usize::from(self.prefix.recorded())
    }

    /// Resets the simulation counter to zero.
    pub fn reset_simulation_count(&self) {
        self.sim_count.store(0, Ordering::Relaxed);
    }

    fn transient_options(&self, with_sensitivities: bool) -> TransientOptions {
        let mut builder = TransientOptions::builder(self.tf)
            .dt(self.dt)
            .integrator(self.integrator)
            .solver(self.solver)
            .record(RecordMode::FinalOnly);
        if with_sensitivities {
            builder = builder.sensitivities(&Param::ALL);
        }
        builder.build()
    }

    /// Evaluates `h(τs, τh)` with one transient simulation (no
    /// sensitivities).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn evaluate(&self, params: &Params) -> Result<f64> {
        self.sim_count.fetch_add(1, Ordering::Relaxed);
        let res = TransientAnalysis::new(self.register.circuit(), self.transient_options(false))
            .with_prefix(&self.prefix)
            .run(params)?;
        Ok(res.final_state()[self.register.output_unknown()] - self.r)
    }

    /// Evaluates `h` *and* its Jacobian `[∂h/∂τs, ∂h/∂τh]` in one transient
    /// with forward sensitivity propagation (paper eqs. (21)–(22)).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn evaluate_with_jacobian(&self, params: &Params) -> Result<HEvaluation> {
        self.sim_count.fetch_add(1, Ordering::Relaxed);
        let res = TransientAnalysis::new(self.register.circuit(), self.transient_options(true))
            .with_prefix(&self.prefix)
            .run(params)?;
        let out = self.register.output_unknown();
        let ms = res
            .final_sensitivity(Param::Setup)
            .ok_or(CharError::Internal {
                reason: "transient ran with sensitivities on but returned no setup sensitivity",
            })?;
        let mh = res
            .final_sensitivity(Param::Hold)
            .ok_or(CharError::Internal {
                reason: "transient ran with sensitivities on but returned no hold sensitivity",
            })?;
        Ok(HEvaluation {
            h: res.final_state()[out] - self.r,
            dh_dtau_s: ms[out],
            dh_dtau_h: mh[out],
            stats: *res.stats(),
        })
    }

    /// Evaluates `h(τs, τh)` at many skew points with one lockstep batch
    /// (no sensitivities), falling back to a scalar loop whenever the
    /// problem's [`BatchPolicy`] or the batched engine's envelope says so.
    /// The batch starts from the problem's data-at-rest prefix ladder, as
    /// [`Self::evaluate`] does, recording it on first use. Results are in
    /// input order and bitwise identical to calling [`Self::evaluate`] per
    /// point.
    ///
    /// # Errors
    ///
    /// Propagates the lowest-index simulation failure, matching a serial
    /// left-to-right loop.
    pub fn evaluate_batch(&self, params: &[Params]) -> Result<Vec<f64>> {
        let opts = self.transient_options(false);
        if !self
            .batch
            .use_batched(self.register.circuit(), &opts, params.len())
        {
            return params.iter().map(|p| self.evaluate(p)).collect();
        }
        self.sim_count.fetch_add(params.len(), Ordering::Relaxed);
        let circuit = self.register.circuit();
        let out = self.register.output_unknown();
        let ladder = TransientAnalysis::new(circuit, opts.clone())
            .with_prefix(&self.prefix)
            .prefix_ladder();
        run_lockstep(circuit, params, &opts, ladder)
            .map_err(CharError::from)?
            .into_iter()
            .map(|lane| Ok(lane?.final_state()[out] - self.r))
            .collect()
    }

    /// Evaluates `h` and its Jacobian via the **discrete adjoint** method
    /// (one backward sweep) instead of forward sensitivities — an
    /// independent derivation useful for cross-checks and for extensions
    /// with many parameters. Requires the Backward-Euler integrator.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; rejects non-BE integrators.
    pub fn evaluate_with_jacobian_adjoint(&self, params: &Params) -> Result<HEvaluation> {
        if self.integrator != Integrator::BackwardEuler {
            return Err(CharError::BadOption {
                reason: "adjoint evaluation requires the Backward Euler integrator",
            });
        }
        self.sim_count.fetch_add(1, Ordering::Relaxed);
        let opts = TransientOptions::builder(self.tf)
            .dt(self.dt)
            .solver(self.solver)
            .record(RecordMode::Full)
            .build();
        let res = TransientAnalysis::new(self.register.circuit(), opts).run(params)?;
        let out = self.register.output_unknown();
        let adj = shc_spice::adjoint::backward_sensitivities(
            self.register.circuit(),
            &res,
            params,
            out,
            &Param::ALL,
        )?;
        Ok(HEvaluation {
            h: res.final_state()[out] - self.r,
            dh_dtau_s: adj.gradient(Param::Setup).ok_or(CharError::Internal {
                reason: "adjoint sweep over Param::ALL returned no setup gradient",
            })?,
            dh_dtau_h: adj.gradient(Param::Hold).ok_or(CharError::Internal {
                reason: "adjoint sweep over Param::ALL returned no hold gradient",
            })?,
            stats: *res.stats(),
        })
    }

    /// Convenience: seed and trace an `n`-point constant clock-to-Q contour
    /// with default options.
    ///
    /// # Errors
    ///
    /// Propagates seeding, MPNR, and tracing failures.
    pub fn trace_contour(&self, n: usize) -> Result<crate::Contour> {
        self.trace_contour_with(
            n,
            &crate::SeedOptions::default(),
            &crate::TracerOptions::default(),
        )
    }

    /// Like [`Self::trace_contour`] with explicit seeding and tracing
    /// options.
    ///
    /// # Errors
    ///
    /// Propagates seeding, MPNR, and tracing failures.
    pub fn trace_contour_with(
        &self,
        n: usize,
        seed_opts: &crate::SeedOptions,
        tracer_opts: &crate::TracerOptions,
    ) -> Result<crate::Contour> {
        let seed = crate::seed::find_first_point(self, seed_opts)?;
        crate::tracer::trace(self, seed.params, n, tracer_opts)
    }
}

/// Builder for [`CharacterizationProblem`].
#[derive(Debug)]
pub struct ProblemBuilder {
    register: Register,
    degradation: f64,
    capture_fraction: Option<f64>,
    dt: Option<f64>,
    integrator: Integrator,
    solver: SolverChoice,
    batch: BatchPolicy,
    reference_skew: Option<f64>,
    reference_setup: Option<f64>,
}

impl ProblemBuilder {
    /// Sets the clock-to-Q degradation fraction defining the contour
    /// (default `0.10`, the paper's 10% criterion).
    pub fn degradation(mut self, degradation: f64) -> Self {
        self.degradation = degradation;
        self
    }

    /// Overrides the capture fraction (default: the register's own,
    /// 0.5 for TSPC, 0.9 for C²MOS).
    pub fn capture_fraction(mut self, fraction: f64) -> Self {
        self.capture_fraction = Some(fraction);
        self
    }

    /// Overrides the fixed transient step (default: 4 ps, 25 points per
    /// 0.1 ns signal edge).
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = Some(dt);
        self
    }

    /// Selects the integration method (default Backward Euler).
    pub fn integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Selects the linear-solver backend for every transient this problem
    /// runs (default [`SolverChoice::Auto`]: dense for the seed-cell-sized
    /// circuits, sparse-direct above the dispatch threshold).
    pub fn solver(mut self, solver: SolverChoice) -> Self {
        self.solver = solver;
        self
    }

    /// Selects the batched-engine policy for this problem's surface
    /// sweeps ([`CharacterizationProblem::evaluate_batch`]), the only
    /// evaluations the lockstep engine runs. Default [`BatchPolicy::Auto`]:
    /// batch inside the supported envelope unless a fault injector is
    /// installed.
    pub fn batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Overrides the generous skew used for the reference measurement
    /// (default: 30% of the clock period).
    pub fn reference_skew(mut self, skew: f64) -> Self {
        self.reference_skew = Some(skew);
        self
    }

    /// Overrides the reference *setup* skew specifically. Level-sensitive
    /// latches need this near the closing edge (the output must still be
    /// in flight at the edge for a clock-referenced delay to exist);
    /// built-in latch fixtures set it automatically via
    /// [`shc_cells::Register::reference_setup_hint`].
    pub fn reference_setup(mut self, skew: f64) -> Self {
        self.reference_setup = Some(skew);
        self
    }

    /// Measures the characteristic clock-to-Q delay and finalizes the
    /// problem.
    ///
    /// # Errors
    ///
    /// - [`CharError::BadOption`] for invalid settings;
    /// - [`CharError::NoCharacteristicDelay`] if the output never crosses
    ///   the target level with generous skews;
    /// - propagated simulation failures.
    pub fn build(self) -> Result<CharacterizationProblem> {
        if !(0.0..1.0).contains(&self.degradation) && self.degradation != 0.0 {
            return Err(CharError::BadOption {
                reason: "degradation must be in [0, 1)",
            });
        }
        let capture_fraction = self
            .capture_fraction
            .unwrap_or_else(|| self.register.capture_fraction());
        if !(0.0..1.0).contains(&capture_fraction) || capture_fraction <= 0.0 {
            return Err(CharError::BadOption {
                reason: "capture fraction must be in (0, 1)",
            });
        }
        let dt = self.dt.unwrap_or(4e-12);
        if dt <= 0.0 || !dt.is_finite() {
            return Err(CharError::BadOption {
                reason: "dt must be positive and finite",
            });
        }
        let reference_hold = self
            .reference_skew
            .unwrap_or(0.3 * self.register.clock().period);
        // Level-sensitive latches need their reference capture near the
        // closing edge; edge-triggered registers use the generous skew.
        let reference_setup = self
            .reference_setup
            .or_else(|| self.register.reference_setup_hint())
            .unwrap_or(reference_hold);
        if reference_hold <= 0.0 || reference_setup <= 0.0 {
            return Err(CharError::BadOption {
                reason: "reference skew must be positive",
            });
        }

        // Reference simulation with generous skews: measure t_c and derive
        // t_f = t_edge + (1 + degradation)·t_CQ, r = capture level.
        let register = self.register;
        let edge = register.active_edge_time();
        let r = register.target_level(capture_fraction);
        let settle = 0.45 * register.clock().period;
        let opts = TransientOptions::builder(edge + settle)
            .dt(dt)
            .solver(self.solver)
            .record(RecordMode::Probe(register.output_unknown()))
            .build();
        let params = Params::new(reference_setup, reference_hold);
        let res = {
            let _span = shc_obs::span(shc_obs::SpanKind::Calibration);
            TransientAnalysis::new(register.circuit(), opts).run(&params)?
        };
        let direction = match register.transition() {
            OutputTransition::Rising => CrossingDirection::Rising,
            OutputTransition::Falling => CrossingDirection::Falling,
        };
        let tc = res
            .crossing_time(register.output_unknown(), r, edge, direction)
            .ok_or(CharError::NoCharacteristicDelay { level: r })?;
        let t_cq = tc - edge;
        let tf = edge + (1.0 + self.degradation) * t_cq;

        Ok(CharacterizationProblem {
            register,
            degradation: self.degradation,
            capture_fraction,
            dt,
            integrator: self.integrator,
            solver: self.solver,
            batch: self.batch,
            reference: params,
            t_cq,
            tf,
            r,
            // The calibration run above is accounted in `calibration_sims`,
            // not in the user-visible budget.
            sim_count: AtomicUsize::new(0),
            calibration_sims: 1,
            prefix: PrefixCache::new(),
        })
    }
}

impl CharacterizationProblem {
    /// The capture fraction in effect.
    pub fn capture_fraction(&self) -> f64 {
        self.capture_fraction
    }

    /// The integration method in effect.
    pub fn integrator(&self) -> Integrator {
        self.integrator
    }

    /// The linear-solver backend in effect.
    pub fn solver(&self) -> SolverChoice {
        self.solver
    }

    /// The batched-engine policy in effect.
    pub fn batch(&self) -> BatchPolicy {
        self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_cells::{tspc_register_with, ClockSpec, Technology};

    fn fast_problem() -> CharacterizationProblem {
        let tech = Technology::default_250nm();
        CharacterizationProblem::builder(tspc_register_with(&tech, ClockSpec::fast()))
            .build()
            .expect("problem builds")
    }

    #[test]
    fn characteristic_delay_is_plausible() {
        let p = fast_problem();
        // A few tens to a few hundred ps for this technology.
        assert!(
            p.characteristic_delay() > 10e-12 && p.characteristic_delay() < 1e-9,
            "t_CQ = {:.1} ps",
            p.characteristic_delay() * 1e12
        );
        assert!(p.t_f() > p.register().active_edge_time());
        assert!((p.r() - 1.25).abs() < 1e-12); // 50% of 2.5 V, rising
                                               // Calibration is accounted separately from the user budget.
        assert_eq!(p.simulation_count(), 0);
        assert_eq!(p.calibration_simulations(), 1);
    }

    #[test]
    fn h_sign_separates_pass_and_fail() {
        let p = fast_problem();
        let generous = p.evaluate(&p.reference_params()).unwrap();
        assert!(
            p.is_pass(generous),
            "generous skews must pass: h = {generous}"
        );
        // A data pulse entirely before the edge cannot be captured.
        let hopeless = p.evaluate(&Params::new(0.9e-9, -0.6e-9)).unwrap();
        assert!(
            !p.is_pass(hopeless),
            "hopeless skews must fail: h = {hopeless}"
        );
    }

    #[test]
    fn jacobian_matches_finite_differences_on_transition() {
        let p = fast_problem();
        // Find a point near the transition: shrink hold skew until h drops
        // into a responsive region.
        let tau_s = 0.35e-9;
        let mut tau_h = 0.30e-9;
        let mut chosen = None;
        for _ in 0..14 {
            let ev = p
                .evaluate_with_jacobian(&Params::new(tau_s, tau_h))
                .unwrap();
            if ev.jacobian_norm() > 1e6 {
                chosen = Some((tau_h, ev));
                break;
            }
            tau_h -= 0.02e-9;
        }
        let (tau_h, ev) = chosen.expect("found a responsive point");
        let d = 2e-13;
        let fd_s = (p.evaluate(&Params::new(tau_s + d, tau_h)).unwrap()
            - p.evaluate(&Params::new(tau_s - d, tau_h)).unwrap())
            / (2.0 * d);
        let fd_h = (p.evaluate(&Params::new(tau_s, tau_h + d)).unwrap()
            - p.evaluate(&Params::new(tau_s, tau_h - d)).unwrap())
            / (2.0 * d);
        let scale = ev.jacobian_norm();
        assert!(
            (ev.dh_dtau_s - fd_s).abs() < 0.08 * scale,
            "dh/dτs: sens {:.4e} vs fd {:.4e}",
            ev.dh_dtau_s,
            fd_s
        );
        assert!(
            (ev.dh_dtau_h - fd_h).abs() < 0.08 * scale,
            "dh/dτh: sens {:.4e} vs fd {:.4e}",
            ev.dh_dtau_h,
            fd_h
        );
    }

    #[test]
    fn tangent_is_unit_and_orthogonal_to_gradient() {
        let ev = HEvaluation {
            h: 0.1,
            dh_dtau_s: 3.0,
            dh_dtau_h: 4.0,
            stats: TransientStats::default(),
        };
        let (ts, th) = ev.tangent().unwrap();
        assert!((ts * ts + th * th - 1.0).abs() < 1e-12);
        assert!((ts * ev.dh_dtau_s + th * ev.dh_dtau_h).abs() < 1e-12);
    }

    #[test]
    fn mpnr_step_solves_linear_case_exactly() {
        // h(τ) = 2τs + τh − 4 at τ = (0,0): step must land on the line at
        // the closest point: Δ = 4·(2,1)/5.
        let ev = HEvaluation {
            h: -4.0,
            dh_dtau_s: 2.0,
            dh_dtau_h: 1.0,
            stats: TransientStats::default(),
        };
        let (ds, dh) = ev.mpnr_step().unwrap();
        assert!((ds - 1.6).abs() < 1e-12);
        assert!((dh - 0.8).abs() < 1e-12);
    }

    #[test]
    fn degenerate_jacobian_yields_none() {
        let ev = HEvaluation {
            h: 1.0,
            dh_dtau_s: 0.0,
            dh_dtau_h: 0.0,
            stats: TransientStats::default(),
        };
        assert!(ev.tangent().is_none());
        assert!(ev.mpnr_step().is_none());
    }

    #[test]
    fn builder_validates_options() {
        let tech = Technology::default_250nm();
        let reg = tspc_register_with(&tech, ClockSpec::fast());
        assert!(matches!(
            CharacterizationProblem::builder(reg)
                .degradation(1.5)
                .build(),
            Err(CharError::BadOption { .. })
        ));
        let reg = tspc_register_with(&tech, ClockSpec::fast());
        assert!(matches!(
            CharacterizationProblem::builder(reg).dt(-1.0).build(),
            Err(CharError::BadOption { .. })
        ));
    }
}
