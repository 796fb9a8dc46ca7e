//! Transient analysis with forward sensitivity propagation.
//!
//! Integrates the circuit DAE `d/dt q(x) + f(x, t) = 0` with Backward Euler
//! or the Trapezoidal rule on a fixed step, cut only when Newton diverges
//! and grown back after each accepted step. Alongside the state,
//! it can propagate the forward sensitivities `m_p(t) = ∂x/∂p` for the skew
//! parameters, using the recursions of the paper's eqs. (11) and (13):
//!
//! ```text
//! BE:   (C_i + Δt·G_i) m_i = C_{i−1} m_{i−1} − Δt·(∂f/∂p)_i
//! TRAP: (C_i + Δt/2·G_i) m_i = (C_{i−1} − Δt/2·G_{i−1}) m_{i−1}
//!                               − Δt/2·[(∂f/∂p)_i + (∂f/∂p)_{i−1}]
//! ```
//!
//! The step Jacobian is factored once per accepted step and **reused** for
//! every sensitivity solve, so the 1×2 characterization Jacobian costs only
//! two extra back-substitutions per step — the paper's key efficiency
//! observation.

use std::mem;

use shc_linalg::{LuFactor, Matrix, Vector};

use crate::circuit::Circuit;
use crate::dcop::{self, DcOptions};
use crate::newton::{self, NewtonOptions};
use crate::solver::{SolverChoice, SparseJacSolver};
use crate::stamp::Stamps;
use crate::waveform::{Param, Params};
use crate::{Result, SpiceError};

/// Jittered damped-Newton retries granted when a step diverges at the
/// `dt_min` floor (where there is no smaller step to cut to).
pub(crate) const NEWTON_FLOOR_RETRIES: usize = 2;

/// Same-`dt` retries granted per diverged step while a fault injector is
/// installed, *before* the step-cut policy engages.
///
/// An injected Newton fault draws a fresh decision on every solve, so a
/// same-`dt` retry usually clears it and the accepted step sequence — and
/// with it the trajectory the characterization corrector differentiates —
/// stays identical to the fault-free run. Cutting `dt` instead would
/// "recover" but perturb every downstream step, turning a transient fault
/// into a millivolt-scale bias on the measured state transition. Genuine
/// divergence is unaffected: retries exhaust quickly and the normal cut
/// policy below takes over. Sized so that at a 10% per-solve injection
/// rate the leak-through probability per step is ~1e-7.
pub(crate) const NEWTON_FAULT_RETRIES: usize = 6;

/// Re-runs a deterministic LU operation when a fault injector is active.
///
/// The sensitivity propagation after an accepted step factors and solves
/// outside the Newton loop, so injected LU faults there would kill the
/// whole run with no recovery rung. Each re-run draws a fresh fault
/// decision and recomputes from unchanged inputs, so absorption cannot
/// alter the result; without an injector the operation runs exactly once.
pub(crate) fn with_lu_fault_retries<T, E>(
    mut op: impl FnMut() -> std::result::Result<T, E>,
) -> std::result::Result<T, E> {
    let mut last = op();
    if shc_fault::enabled() {
        for _ in 0..NEWTON_FAULT_RETRIES {
            if last.is_ok() {
                break;
            }
            last = op();
        }
    }
    last
}

/// Relative slack for "is this step at the `dt_min` floor?" tests.
///
/// The effective step is `(t_prev + dt) - t_prev`, which re-rounds the
/// nominal `dt`; near large `t_prev` a floor-sized step can come back a
/// few ulps *above* `dt_min`, and an exact comparison then keeps cutting
/// to the same floor value forever instead of engaging the floor policy.
pub(crate) const DT_FLOOR_SLACK: f64 = 1.0 + 1e-9;

/// Relative endpoint slack for the outer time loop: integration stops
/// once `t_prev` is within this fraction of `tstop` (scaled by
/// `tstop.max(1.0)` so a zero-length window still terminates). Guards
/// against a final ulp-sized step that Newton would reject.
pub(crate) const TSTOP_ENDPOINT_SLACK: f64 = 1e-18;

/// Per-step lap slots (see `shc_prof::Laps`): the stepping loop is a
/// contiguous chain NEWTON → SENS → STEP_SELF, one clock read per
/// boundary, so the default profiling detail costs ~3 reads per step.
const LAP_NEWTON: usize = 0;
/// Accepted-point re-stamp plus the sensitivity factor/solves — the
/// re-stamp exists to furnish exact `C_i`, `G_i` for this recursion, so
/// it is charged here.
const LAP_SENS: usize = 1;
/// History rotation and result recording; never flushed — it remains the
/// `Transient` frame's own self-time.
const LAP_STEP_SELF: usize = 2;

/// Flushes the per-run lap accumulators into the profile tree, exactly
/// once, when the run exits — on success, on error returns, and on
/// fault-injected aborts alike. Lives inside the open
/// `shc_prof::Phase::Transient` frame so every recorded path lands under
/// it.
struct ProfFlush<'l> {
    step: &'l shc_prof::Laps,
    iter: &'l shc_prof::Laps,
    sparse: bool,
}

impl Drop for ProfFlush<'_> {
    fn drop(&mut self) {
        if !(self.step.active() || self.iter.active()) {
            return;
        }
        use crate::newton::lap;
        use shc_prof::{record, Phase, Sample};
        let dev = self.iter.sample(lap::DEV);
        let stamp = self.iter.sample(lap::STAMP);
        let factor = self.iter.sample(lap::FACTOR);
        let solve = self.iter.sample(lap::SOLVE);
        // The iteration slots carry exact counts at every detail level
        // and ticks only at `Detail::Iter`; phase names follow the
        // solver backend.
        let (dev_phase, factor_phase, solve_phase) = if self.sparse {
            (
                Phase::AssembleSparse,
                Phase::SparseRefactor,
                Phase::SparseSolve,
            )
        } else {
            (Phase::DeviceEval, Phase::LuRefactor, Phase::LuSolve)
        };
        record(&[Phase::NewtonOverhead, dev_phase], dev);
        record(&[Phase::NewtonOverhead, Phase::Stamp], stamp);
        record(&[Phase::NewtonOverhead, factor_phase], factor);
        record(&[Phase::NewtonOverhead, solve_phase], solve);
        // Newton self-time is the per-step lap total minus the four
        // iteration regions; at `Detail::Step` those are zero and the
        // whole solve is Newton self.
        let newton = self.step.sample(LAP_NEWTON);
        let children = dev.ticks + stamp.ticks + factor.ticks + solve.ticks;
        record(
            &[Phase::NewtonOverhead],
            Sample {
                ticks: newton.ticks.saturating_sub(children),
                ..newton
            },
        );
        record(&[Phase::SensSolve], self.step.sample(LAP_SENS));
    }
}

/// Time-integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler: L-stable, first order — robust default for stiff
    /// latch circuits.
    #[default]
    BackwardEuler,
    /// Trapezoidal rule: A-stable, second order.
    Trapezoidal,
}

/// What state history to retain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordMode {
    /// Keep every state vector (small circuits only).
    #[default]
    Full,
    /// Keep only one unknown's trajectory.
    Probe(usize),
    /// Keep nothing but the final state.
    FinalOnly,
}

/// How the initial condition is obtained.
#[derive(Debug, Clone, Default)]
pub enum InitialCondition {
    /// Solve the DC operating point at `t = 0` (the default).
    #[default]
    DcOperatingPoint,
    /// Start from the given state vector.
    Given(Vector),
}

/// Transient analysis options. Build with [`TransientOptions::builder`].
#[derive(Debug, Clone)]
pub struct TransientOptions {
    /// Stop time in seconds.
    pub tstop: f64,
    /// Time step in seconds.
    pub dt: f64,
    /// Floor for Newton step cuts: a step that diverges is retried at a
    /// quarter of its size, never below this; a divergence at the floor
    /// gets jittered damped-Newton retries before the run fails.
    pub dt_min: f64,
    /// Integration method.
    pub integrator: Integrator,
    /// Newton settings per time step.
    pub newton: NewtonOptions,
    /// DC operating-point settings (for the initial condition).
    pub dc: DcOptions,
    /// Parameters whose sensitivities `∂x/∂p` to propagate.
    pub sensitivities: Vec<Param>,
    /// History retention.
    pub record: RecordMode,
    /// Initial condition.
    pub initial: InitialCondition,
    /// Linear-solver backend for the per-step Newton solves (and, via
    /// [`DcOptions::solver`], the DC operating point).
    pub solver: SolverChoice,
}

impl TransientOptions {
    /// Starts a builder with the mandatory stop time.
    pub fn builder(tstop: f64) -> TransientOptionsBuilder {
        TransientOptionsBuilder {
            opts: TransientOptions {
                tstop,
                dt: tstop / 1000.0,
                dt_min: tstop * 1e-9,
                integrator: Integrator::default(),
                newton: NewtonOptions::default(),
                dc: DcOptions::default(),
                sensitivities: Vec::new(),
                record: RecordMode::default(),
                initial: InitialCondition::default(),
                solver: SolverChoice::Auto,
            },
        }
    }
}

/// Builder for [`TransientOptions`].
#[derive(Debug, Clone)]
pub struct TransientOptionsBuilder {
    opts: TransientOptions,
}

impl TransientOptionsBuilder {
    /// Sets the time step.
    pub fn dt(mut self, dt: f64) -> Self {
        self.opts.dt = dt;
        self
    }

    /// Selects the integration method.
    pub fn integrator(mut self, method: Integrator) -> Self {
        self.opts.integrator = method;
        self
    }

    /// Requests sensitivity propagation for the given parameters.
    pub fn sensitivities(mut self, params: &[Param]) -> Self {
        self.opts.sensitivities = params.to_vec();
        self
    }

    /// Sets the history retention mode.
    pub fn record(mut self, mode: RecordMode) -> Self {
        self.opts.record = mode;
        self
    }

    /// Sets the initial condition.
    pub fn initial(mut self, ic: InitialCondition) -> Self {
        self.opts.initial = ic;
        self
    }

    /// Overrides the per-step Newton options.
    pub fn newton(mut self, newton: NewtonOptions) -> Self {
        self.opts.newton = newton;
        self
    }

    /// Selects the linear-solver backend for both the transient Newton
    /// solves and the DC operating point.
    pub fn solver(mut self, solver: SolverChoice) -> Self {
        self.opts.solver = solver;
        self.opts.dc.solver = solver;
        self
    }

    /// Finalizes the options.
    ///
    /// # Panics
    ///
    /// Panics if `tstop` or `dt` is not positive and finite.
    pub fn build(self) -> TransientOptions {
        let o = &self.opts;
        assert!(
            o.tstop.is_finite() && o.tstop > 0.0 && o.dt.is_finite() && o.dt > 0.0,
            "transient options: tstop and dt must be positive and finite"
        );
        self.opts
    }
}

/// Counters describing the work a transient run performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransientStats {
    /// Accepted time steps.
    pub steps: usize,
    /// Total Newton iterations across all steps.
    pub newton_iterations: usize,
    /// Newton step cuts: attempted steps rejected because Newton diverged.
    pub rejected_steps: usize,
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    states: Vec<Vector>,
    probe: Vec<f64>,
    probe_index: Option<usize>,
    final_state: Vector,
    final_sensitivities: Vec<(Param, Vector)>,
    stats: TransientStats,
}

impl TransientResult {
    /// Assembles a final-only result from parts — for the batched lockstep
    /// engine, which builds the same fields outside [`run_core`].
    pub(crate) fn from_parts(
        times: Vec<f64>,
        final_state: Vector,
        final_sensitivities: Vec<(Param, Vector)>,
        stats: TransientStats,
    ) -> Self {
        TransientResult {
            times,
            states: Vec::new(),
            probe: Vec::new(),
            probe_index: None,
            final_state,
            final_sensitivities,
            stats,
        }
    }

    /// Accepted time points (includes `t = 0`).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Full state history (empty unless [`RecordMode::Full`]).
    pub fn states(&self) -> &[Vector] {
        &self.states
    }

    /// The state at `tstop`.
    pub fn final_state(&self) -> &Vector {
        &self.final_state
    }

    /// Final sensitivity `∂x/∂p (tstop)` for a propagated parameter.
    pub fn final_sensitivity(&self, param: Param) -> Option<&Vector> {
        self.final_sensitivities
            .iter()
            .find(|(p, _)| *p == param)
            .map(|(_, v)| v)
    }

    /// Work counters.
    pub fn stats(&self) -> &TransientStats {
        &self.stats
    }

    /// The trajectory of one unknown.
    ///
    /// Works in [`RecordMode::Full`] (any index) and [`RecordMode::Probe`]
    /// (the probed index); returns `None` otherwise.
    pub fn trajectory(&self, unknown: usize) -> Option<Vec<f64>> {
        self.series(unknown).map(|s| s.into_owned())
    }

    /// Borrowing access to a trajectory: the probe series is returned
    /// without copying; full-record series are extracted column-wise.
    fn series(&self, unknown: usize) -> Option<std::borrow::Cow<'_, [f64]>> {
        if let Some(p) = self.probe_index {
            if p == unknown {
                return Some(std::borrow::Cow::Borrowed(&self.probe));
            }
        }
        if !self.states.is_empty() {
            return Some(std::borrow::Cow::Owned(
                self.states.iter().map(|x| x[unknown]).collect(),
            ));
        }
        None
    }

    /// Linearly interpolates one unknown's value at time `t`.
    ///
    /// Returns `None` if the trajectory is unavailable or `t` is outside the
    /// simulated range.
    pub fn value_at(&self, unknown: usize, t: f64) -> Option<f64> {
        let traj = self.series(unknown)?;
        let times = &self.times;
        if times.is_empty() || t < times[0] || t > *times.last()? {
            return None;
        }
        let idx = times.partition_point(|&ti| ti < t);
        if idx == 0 {
            return Some(traj[0]);
        }
        let (t0, t1) = (times[idx - 1], times[idx.min(times.len() - 1)]);
        let (v0, v1) = (traj[idx - 1], traj[idx.min(traj.len() - 1)]);
        if t1 == t0 {
            return Some(v1);
        }
        Some(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    }

    /// First time after `t_after` at which the unknown crosses `level` in
    /// the given direction, found by linear interpolation.
    pub fn crossing_time(
        &self,
        unknown: usize,
        level: f64,
        t_after: f64,
        direction: CrossingDirection,
    ) -> Option<f64> {
        let traj = self.series(unknown)?;
        for i in 1..self.times.len() {
            if self.times[i] <= t_after {
                continue;
            }
            let (v0, v1) = (traj[i - 1], traj[i]);
            let rising = v0 < level && v1 >= level;
            let falling = v0 > level && v1 <= level;
            let hit = match direction {
                CrossingDirection::Rising => rising,
                CrossingDirection::Falling => falling,
                CrossingDirection::Any => rising || falling,
            };
            if hit {
                let (t0, t1) = (self.times[i - 1], self.times[i]);
                let frac = if v1 == v0 {
                    0.0
                } else {
                    (level - v0) / (v1 - v0)
                };
                return Some(t0 + frac * (t1 - t0));
            }
        }
        None
    }
}

/// Direction selector for [`TransientResult::crossing_time`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingDirection {
    /// Upward crossing.
    Rising,
    /// Downward crossing.
    Falling,
    /// Either direction.
    Any,
}

/// A configured transient analysis, ready to run for any skew values.
#[derive(Debug)]
pub struct TransientAnalysis<'a> {
    circuit: &'a Circuit,
    opts: TransientOptions,
}

impl<'a> TransientAnalysis<'a> {
    /// Binds options to a circuit.
    pub fn new(circuit: &'a Circuit, opts: TransientOptions) -> Self {
        TransientAnalysis { circuit, opts }
    }

    /// The options in effect.
    pub fn options(&self) -> &TransientOptions {
        &self.opts
    }

    /// Runs the transient for the given skew parameters.
    ///
    /// Allocates a fresh [`TransientScratch`] for the run; callers that
    /// perform many runs on the same circuit (characterization sweeps)
    /// should hold one scratch per thread and use
    /// [`TransientAnalysis::run_with_scratch`] instead.
    ///
    /// # Errors
    ///
    /// Propagates DC, Newton, and step-control failures.
    pub fn run(&self, params: &Params) -> Result<TransientResult> {
        let mut scratch = TransientScratch::new(self.circuit.unknown_count());
        self.run_with_scratch(params, &mut scratch)
    }

    /// Runs the transient reusing a caller-owned workspace.
    ///
    /// After the scratch buffers are warm (one prior step anywhere in the
    /// scratch's lifetime), the stepping loop performs no matrix
    /// allocation: Newton residual/Jacobian/LU, the per-step stamps, and
    /// every sensitivity temporary live in `scratch`. The scratch is
    /// resized automatically if the circuit dimension changed.
    ///
    /// # Errors
    ///
    /// Propagates DC, Newton, and step-control failures.
    pub fn run_with_scratch(
        &self,
        params: &Params,
        scratch: &mut TransientScratch,
    ) -> Result<TransientResult> {
        // One span + one counter flush per *run* (not per step): the
        // stepping loop itself stays untouched by telemetry. The flush
        // happens on success AND failure so counters reconcile with the
        // work actually performed by aborted runs. The profiler frame
        // follows the same shape: run_core's lap accumulators flush
        // beneath it before it closes.
        let _span = shc_obs::span(shc_obs::SpanKind::Transient);
        let _frame = shc_prof::enter(shc_prof::Phase::Transient);
        shc_obs::count(shc_obs::Metric::TransientRuns, 1);
        let mut stats = TransientStats::default();
        let result = match self.injected_run_fault() {
            Some(e) => Err(e),
            None => self.run_core(params, scratch, &mut stats),
        };
        shc_prof::add_work(stats.steps as u64);
        if shc_obs::enabled() {
            shc_obs::observe(shc_obs::Metric::TransientSteps, stats.steps as u64);
            shc_obs::observe(
                shc_obs::Metric::NewtonIterations,
                stats.newton_iterations as u64,
            );
            shc_obs::observe(shc_obs::Metric::LteRejections, stats.rejected_steps as u64);
        }
        result
    }

    /// Deterministic fault hook for the whole-run site: maps an injected
    /// fault onto the error each real failure mode would produce.
    fn injected_run_fault(&self) -> Option<SpiceError> {
        let kind = shc_fault::check(shc_fault::Site::Transient)?;
        shc_obs::count(shc_obs::Metric::FaultsInjected, 1);
        Some(match kind {
            shc_fault::FaultKind::SingularMatrix => {
                SpiceError::Linalg(shc_linalg::LinalgError::Singular {
                    pivot: 0,
                    value: 0.0,
                })
            }
            shc_fault::FaultKind::NanResidual => SpiceError::NumericalBlowup { time: 0.0 },
            shc_fault::FaultKind::LteStall => SpiceError::TimestepTooSmall {
                time: 0.0,
                dt: self.opts.dt_min,
                rejected_steps: 0,
            },
            shc_fault::FaultKind::NonConvergence => SpiceError::NewtonDiverged {
                context: "transient run (injected fault)",
                iterations: 0,
                residual: f64::INFINITY,
            },
        })
    }

    /// The stepping loop proper; accumulates work counters into `stats`
    /// so [`TransientAnalysis::run_with_scratch`] can flush them to
    /// telemetry on both the success and the failure path.
    fn run_core(
        &self,
        params: &Params,
        scratch: &mut TransientScratch,
        stats: &mut TransientStats,
    ) -> Result<TransientResult> {
        let circuit = self.circuit;
        let opts = &self.opts;
        let n = circuit.unknown_count();
        scratch.ensure(n);
        scratch.configure_solver(circuit, params, opts.solver)?;

        let x0 = match &opts.initial {
            InitialCondition::DcOperatingPoint => dcop::solve_dc(circuit, params, &opts.dc)?.x,
            InitialCondition::Given(x) => {
                if x.len() != n {
                    return Err(SpiceError::BadCircuit {
                        reason: format!(
                            "initial condition has {} entries, circuit has {n} unknowns",
                            x.len()
                        ),
                    });
                }
                x.clone()
            }
        };

        let mut times = vec![0.0];
        let mut states = Vec::new();
        let mut probe = Vec::new();
        let probe_index = match opts.record {
            RecordMode::Probe(i) => Some(i),
            _ => None,
        };
        match opts.record {
            RecordMode::Full => states.push(x0.clone()),
            RecordMode::Probe(i) => probe.push(x0[i]),
            RecordMode::FinalOnly => {}
        }

        // Sensitivities start at zero: x(0) is held fixed across skews
        // (the data pulse is at its rest level at t = 0).
        let mut sens: Vec<(Param, Vector)> = opts
            .sensitivities
            .iter()
            .map(|&p| (p, Vector::zeros(n)))
            .collect();

        // Borrow every workspace buffer up front as disjoint fields so the
        // Newton closure (which mutates `nr_stamps`) can coexist with the
        // shared borrow of the previous step's stamps.
        let TransientScratch {
            newton: nw,
            nr_stamps,
            stamps_prev,
            stamps_new,
            sens_jac,
            sens_lu,
            sens_sparse,
            sens_rhs,
            cg_tmp,
            dfdp_tmp,
            zero_x,
            jac_pattern,
        } = scratch;

        // Sparse fast path: with the solver installed, every stamp clear
        // and Jacobian combine below touches only the probed pattern
        // positions — O(nnz) per Newton iteration instead of O(n²).
        let pattern: Option<&[(usize, usize)]> =
            nw.sparse_solver().is_some().then_some(&jac_pattern[..]);

        // Profiling accumulators, shared by `&` (all-`Cell` state) between
        // this loop, the assembly closure, and the Newton solver. With no
        // profiler installed both are inert: every call below reduces to a
        // branch on a struct flag, no clock read, no thread-local access.
        // The guard flushes them into the open `Transient` frame on every
        // exit path, including fault-injected aborts.
        let lap_step = shc_prof::Laps::step();
        let lap_iter = shc_prof::Laps::iter();
        let _prof_flush = ProfFlush {
            step: &lap_step,
            iter: &lap_iter,
            sparse: pattern.is_some(),
        };
        let device_work = circuit.device_count() as u64;

        // Previous-step quantities for the recursions.
        let mut x_prev = x0;
        let mut t_prev = 0.0;
        circuit.assemble_into(stamps_prev, &x_prev, 0.0, params, 1.0);
        let mut dfdp_prev: Vec<Vector> = opts
            .sensitivities
            .iter()
            .map(|&p| circuit.assemble_dfdp(0.0, params, p))
            .collect();

        let mut dt = opts.dt.min(opts.tstop);

        while t_prev < opts.tstop - TSTOP_ENDPOINT_SLACK * opts.tstop.max(1.0) {
            let t_new = (t_prev + dt).min(opts.tstop);
            let dt_eff = t_new - t_prev;

            // Newton solve of the discretized step equation. Residual and
            // Jacobian are built directly in the workspace buffers; no
            // allocation happens per iteration.
            let integ = opts.integrator;
            let mut assemble = |x: &Vector, r: &mut Vector, j: &mut Matrix| {
                // Re-arm the lap cursor so time between iterations is
                // never charged to the device loop.
                lap_iter.end_region(newton::lap::ITER_SELF);
                match pattern {
                    Some(p) => circuit.assemble_sparse_into(nr_stamps, x, t_new, params, 1.0, p),
                    None => circuit.assemble_into(nr_stamps, x, t_new, params, 1.0),
                }
                lap_iter.end_region(newton::lap::DEV);
                lap_iter.bump(newton::lap::DEV, 1, device_work);
                let s = &*nr_stamps;
                let a = match integ {
                    Integrator::BackwardEuler => {
                        r.copy_from(&s.q);
                        r.axpy(-1.0, &stamps_prev.q);
                        r.axpy(dt_eff, &s.f);
                        dt_eff
                    }
                    Integrator::Trapezoidal => {
                        let half = 0.5 * dt_eff;
                        r.copy_from(&s.q);
                        r.axpy(-1.0, &stamps_prev.q);
                        r.axpy(half, &s.f);
                        r.axpy(half, &stamps_prev.f);
                        half
                    }
                };
                combine_step_jacobian_into(j, &s.c, &s.g, a, pattern)?;
                lap_iter.end_region(newton::lap::STAMP);
                lap_iter.bump(newton::lap::STAMP, 1, n as u64);
                Ok(())
            };
            let solve_result = match newton::solve_in_place_lapped(
                nw,
                &x_prev,
                &opts.newton,
                Some(&lap_iter),
                &mut assemble,
            ) {
                // At the dt floor there is no smaller step to cut to, so a
                // divergence used to kill the whole run; try the damped
                // jittered-retry policy before giving up.
                Err(e @ SpiceError::NewtonDiverged { .. })
                    if dt_eff <= opts.dt_min * DT_FLOOR_SLACK =>
                {
                    newton::retry_in_place(
                        nw,
                        &x_prev,
                        &opts.newton,
                        NEWTON_FLOOR_RETRIES,
                        e,
                        &mut assemble,
                    )
                }
                // Under fault injection, retry at the same dt first: a fresh
                // solve draws a fresh fault decision, so this absorbs the
                // injected failure without perturbing the accepted step
                // sequence (see `NEWTON_FAULT_RETRIES`). Covers injected
                // LU faults surfacing through the solve as well; failures
                // that survive the retries fall through to the step-cut
                // policy below.
                Err(e) if shc_fault::enabled() && newton::retryable(&e) => newton::retry_in_place(
                    nw,
                    &x_prev,
                    &opts.newton,
                    NEWTON_FAULT_RETRIES,
                    e,
                    &mut assemble,
                ),
                other => other,
            };
            lap_step.end_region(LAP_NEWTON);

            let iterations = match solve_result {
                Ok(iters) => iters,
                Err(SpiceError::NewtonDiverged { .. }) if dt_eff > opts.dt_min * DT_FLOOR_SLACK => {
                    dt = (dt_eff / 4.0).max(opts.dt_min);
                    stats.rejected_steps += 1;
                    lap_step.bump(LAP_NEWTON, 1, 0);
                    continue;
                }
                Err(e) => return Err(e),
            };
            stats.newton_iterations += iterations;
            lap_step.bump(LAP_NEWTON, 1, iterations as u64);
            let x_new = nw.x();
            if !x_new.is_finite() {
                return Err(SpiceError::NumericalBlowup { time: t_new });
            }

            // Accepted: re-stamp at the converged point for exact C_i, G_i,
            // q_i, f_i and the sensitivity solves.
            match pattern {
                Some(p) => circuit.assemble_sparse_into(stamps_new, x_new, t_new, params, 1.0, p),
                None => circuit.assemble_into(stamps_new, x_new, t_new, params, 1.0),
            }
            if !sens.is_empty() {
                let a = match opts.integrator {
                    Integrator::BackwardEuler => dt_eff,
                    Integrator::Trapezoidal => 0.5 * dt_eff,
                };
                combine_step_jacobian_into(sens_jac, &stamps_new.c, &stamps_new.g, a, pattern)?;
                // The sensitivity solves reuse whichever backend the
                // Newton path runs on, factoring the sensitivity Jacobian
                // once per accepted step and back-substituting per
                // parameter.
                enum SensSolver<'s> {
                    Dense(&'s mut LuFactor),
                    Sparse(&'s mut SparseJacSolver),
                }
                let mut sens_solver = if let Some(src) = nw.sparse_solver() {
                    let sp = match sens_sparse.as_mut() {
                        Some(sp) => sp,
                        // Cold, once per scratch lifetime: the clone
                        // shares the Newton solver's symbolic analysis.
                        None => sens_sparse.insert(src.clone()),
                    };
                    with_lu_fault_retries(|| sp.factor_from(sens_jac))?;
                    SensSolver::Sparse(sp)
                } else {
                    let lu = match sens_lu.as_mut() {
                        Some(lu) => {
                            with_lu_fault_retries(|| lu.refactor(sens_jac))?;
                            lu
                        }
                        None => sens_lu.insert(with_lu_fault_retries(|| LuFactor::new(sens_jac))?),
                    };
                    SensSolver::Dense(lu)
                };
                for (k, (param, m)) in sens.iter_mut().enumerate() {
                    circuit.assemble_dfdp_into(dfdp_tmp, zero_x, t_new, params, *param);
                    stamps_prev.c.mul_vec_into(m, sens_rhs);
                    match opts.integrator {
                        Integrator::BackwardEuler => {
                            sens_rhs.axpy(-dt_eff, dfdp_tmp);
                        }
                        Integrator::Trapezoidal => {
                            let half = 0.5 * dt_eff;
                            stamps_prev.g.mul_vec_into(m, cg_tmp);
                            sens_rhs.axpy(-half, cg_tmp);
                            sens_rhs.axpy(-half, dfdp_tmp);
                            sens_rhs.axpy(-half, &dfdp_prev[k]);
                        }
                    }
                    // The right-hand side is complete, so the solve may
                    // overwrite `m` in place (a fault retry re-solves from
                    // the unchanged `sens_rhs`).
                    match &mut sens_solver {
                        SensSolver::Dense(lu) => {
                            with_lu_fault_retries(|| lu.solve_into(sens_rhs, m))?;
                        }
                        SensSolver::Sparse(sp) => {
                            with_lu_fault_retries(|| sp.solve_into(sens_rhs, m))?;
                        }
                    }
                    mem::swap(&mut dfdp_prev[k], dfdp_tmp);
                }
            }
            lap_step.end_region(LAP_SENS);
            lap_step.bump(LAP_SENS, 1, sens.len() as u64);

            stats.steps += 1;
            times.push(t_new);
            match opts.record {
                RecordMode::Full => states.push(x_new.clone()),
                RecordMode::Probe(i) => probe.push(x_new[i]),
                RecordMode::FinalOnly => {}
            }

            // History rotation, allocation-free: the freshly stamped step
            // becomes the previous one, and the displaced buffers are
            // recycled as the next step's assembly target.
            x_prev.copy_from(x_new);
            mem::swap(stamps_prev, stamps_new);
            t_prev = t_new;

            // A Newton-failure cut must not persist: recover toward the
            // configured step after each accepted step.
            if dt < opts.dt {
                dt = (dt * 2.0).min(opts.dt);
            }
            lap_step.end_region(LAP_STEP_SELF);
        }

        Ok(TransientResult {
            times,
            states,
            probe,
            probe_index,
            final_state: x_prev,
            final_sensitivities: sens,
            stats: *stats,
        })
    }
}

/// Writes the step Jacobian `C + a·G` into `j`: densely, or — when the
/// sparse path supplies the probed pattern — only at the pattern
/// positions, leaving the structurally-zero remainder untouched. The dense
/// branch preserves the exact copy/axpy arithmetic order so the dense path
/// stays bitwise identical to its golden history.
// lint: hot-fn
fn combine_step_jacobian_into(
    j: &mut Matrix,
    c: &Matrix,
    g: &Matrix,
    a: f64,
    pattern: Option<&[(usize, usize)]>,
) -> Result<()> {
    match pattern {
        Some(entries) => {
            for &(row, col) in entries {
                j[(row, col)] = c[(row, col)] + a * g[(row, col)];
            }
        }
        None => {
            j.copy_from(c)?;
            j.axpy(a, g)?;
        }
    }
    Ok(())
}

/// Reusable per-run workspace for [`TransientAnalysis::run_with_scratch`].
///
/// A characterization sweep performs thousands of transient runs over a
/// fixed-dimension circuit; this workspace owns every per-step buffer —
/// the Newton iterate/residual/Jacobian/LU factors, the assembly stamps
/// for the current and previous time points, and the sensitivity solve
/// temporaries — so the stepping loop performs no matrix allocation once
/// the buffers are warm.
/// Not `Sync`: create one per thread when running sweeps in parallel.
#[derive(Debug)]
pub struct TransientScratch {
    newton: newton::NewtonWorkspace,
    nr_stamps: Stamps,
    stamps_prev: Stamps,
    stamps_new: Stamps,
    sens_jac: Matrix,
    sens_lu: Option<LuFactor>,
    /// Sparse-path sensitivity solver; created (cold) by cloning the
    /// Newton solver so both share one symbolic analysis.
    sens_sparse: Option<SparseJacSolver>,
    sens_rhs: Vector,
    cg_tmp: Vector,
    dfdp_tmp: Vector,
    zero_x: Vector,
    /// Copy of the sparse solver's Jacobian pattern (empty on the dense
    /// path), held outside the Newton workspace so the assembly closure
    /// can address the stamp matrices sparsely while the workspace is
    /// mutably borrowed by the solve.
    jac_pattern: Vec<(usize, usize)>,
}

impl TransientScratch {
    /// Creates a workspace for circuits with `n` MNA unknowns.
    pub fn new(n: usize) -> Self {
        TransientScratch {
            newton: newton::NewtonWorkspace::new(n),
            nr_stamps: Stamps::new(n),
            stamps_prev: Stamps::new(n),
            stamps_new: Stamps::new(n),
            sens_jac: Matrix::zeros(n, n),
            sens_lu: None,
            sens_sparse: None,
            sens_rhs: Vector::zeros(n),
            cg_tmp: Vector::zeros(n),
            dfdp_tmp: Vector::zeros(n),
            zero_x: Vector::zeros(n),
            jac_pattern: Vec::new(),
        }
    }

    /// The MNA dimension this workspace is currently sized for.
    pub fn dim(&self) -> usize {
        self.zero_x.len()
    }

    /// Resizes (re-allocating) only when the circuit dimension changed
    /// since the last run.
    fn ensure(&mut self, n: usize) {
        if self.dim() != n {
            *self = TransientScratch::new(n);
        }
    }

    /// Installs or validates the sparse solve path for one run.
    ///
    /// The guard is one pattern probe per run (an assembly at `x = 0`,
    /// no allocation once the probe buffer is warm); the symbolic
    /// analysis carried by an already-installed solver is reused whenever
    /// the circuit still probes to the same pattern, so repeated runs
    /// over one topology analyze exactly once.
    fn configure_solver(
        &mut self,
        circuit: &Circuit,
        params: &Params,
        choice: SolverChoice,
    ) -> Result<()> {
        if choice.wants_sparse(circuit.unknown_count()) {
            let reuse = match self.newton.sparse_solver_mut() {
                Some(sp) => sp.matches_pattern(circuit, &mut self.nr_stamps, &self.zero_x, params),
                None => false,
            };
            if !reuse {
                self.newton
                    .set_sparse_solver(Some(SparseJacSolver::new(circuit, params)?));
                self.sens_sparse = None;
            }
            // The hot loop addresses the stamp and Jacobian matrices only
            // at the pattern positions (O(nnz) per iteration); copy the
            // pattern out of the solver so the assembly closure can use it
            // while the Newton workspace is mutably borrowed, and give
            // every assembly buffer one full O(n²) clear per run to
            // establish the zero-outside-pattern invariant (a previous
            // dense run over a different same-size circuit may have left
            // stale off-pattern entries).
            self.jac_pattern.clear();
            if let Some(sp) = self.newton.sparse_solver() {
                self.jac_pattern.extend_from_slice(sp.pattern());
            }
            self.nr_stamps.clear();
            self.stamps_prev.clear();
            self.stamps_new.clear();
            self.sens_jac.fill_zero();
        } else {
            self.newton.set_sparse_solver(None);
            self.sens_sparse = None;
            self.jac_pattern.clear();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Resistor, VoltageSource};
    use crate::waveform::{DataPulse, RampShape, Waveform};
    use crate::Circuit;

    fn rc_circuit() -> (Circuit, usize) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.add(VoltageSource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::dc(1.0),
        ));
        c.add(Resistor::new("R1", vin, vout, 1e3));
        c.add(Capacitor::new("C1", vout, Circuit::GROUND, 1e-9));
        let out = c.unknown_of(vout).unwrap();
        (c, out)
    }

    #[test]
    fn rc_charging_matches_analytic_be() {
        let (c, out) = rc_circuit();
        // Start from v_out = 0 explicitly (DC would give the charged state).
        let mut x0 = Vector::zeros(c.unknown_count());
        x0[c.unknown_of(c.find_node("in").unwrap()).unwrap()] = 1.0;
        let opts = TransientOptions::builder(2e-6)
            .dt(2e-9)
            .initial(InitialCondition::Given(x0))
            .build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        // tau = 1us; at t = 1us, v = 1 - e^{-1} ≈ 0.6321.
        let v = res.value_at(out, 1e-6).unwrap();
        assert!((v - 0.6321).abs() < 5e-3, "v(tau) = {v}");
        let v_end = res.final_state()[out];
        assert!((v_end - (1.0 - (-2.0f64).exp())).abs() < 5e-3);
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_be() {
        let (c, out) = rc_circuit();
        let mut x0 = Vector::zeros(c.unknown_count());
        x0[0] = 1.0;
        let exact = 1.0 - (-1.0f64).exp();
        let mut errs = Vec::new();
        for method in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            let opts = TransientOptions::builder(1e-6)
                .dt(2e-8)
                .integrator(method)
                .initial(InitialCondition::Given(x0.clone()))
                .build();
            let res = TransientAnalysis::new(&c, opts)
                .run(&Params::default())
                .unwrap();
            errs.push((res.final_state()[out] - exact).abs());
        }
        assert!(
            errs[1] < errs[0] / 5.0,
            "trap err {} should beat BE err {}",
            errs[1],
            errs[0]
        );
    }

    #[test]
    fn dc_initial_condition_starts_settled() {
        let (c, out) = rc_circuit();
        let opts = TransientOptions::builder(1e-7).dt(1e-9).build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        // Already charged at t=0 from the DC solution: stays at 1V.
        assert!((res.final_state()[out] - 1.0).abs() < 1e-6);
    }

    /// RC driven by the data pulse: sensitivity of the final state w.r.t.
    /// τs/τh must match a finite-difference estimate.
    #[test]
    fn forward_sensitivity_matches_finite_difference() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        let pulse = DataPulse {
            v_rest: 0.0,
            v_active: 1.0,
            t_edge: 5e-7,
            rise: 1e-7,
            fall: 1e-7,
            shape: RampShape::Smoothstep,
        };
        c.add(VoltageSource::new(
            "Vd",
            vin,
            Circuit::GROUND,
            Waveform::Data(pulse),
        ));
        c.add(Resistor::new("R1", vin, vout, 1e3));
        c.add(Capacitor::new("C1", vout, Circuit::GROUND, 1e-10));
        let out = c.unknown_of(vout).unwrap();

        for method in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            let make_opts = || {
                TransientOptions::builder(8e-7)
                    .dt(1e-9)
                    .integrator(method)
                    .sensitivities(&Param::ALL)
                    .record(RecordMode::FinalOnly)
                    .build()
            };
            let base = Params::new(1e-7, 1e-7);
            let res = TransientAnalysis::new(&c, make_opts()).run(&base).unwrap();
            for param in Param::ALL {
                let analytic = res.final_sensitivity(param).unwrap()[out];
                let h = 1e-12;
                let plus = TransientAnalysis::new(&c, make_opts())
                    .run(&base.with(param, base.get(param) + h))
                    .unwrap()
                    .final_state()[out];
                let minus = TransientAnalysis::new(&c, make_opts())
                    .run(&base.with(param, base.get(param) - h))
                    .unwrap()
                    .final_state()[out];
                let fd = (plus - minus) / (2.0 * h);
                assert!(
                    (analytic - fd).abs() <= 2e-3 * fd.abs().max(1e3),
                    "{method:?} {param:?}: analytic {analytic:.6e}, fd {fd:.6e}"
                );
            }
        }
    }

    /// Acceptance guard for the hot-loop optimization: once the scratch is
    /// warm, a full transient run — Newton iterations, sensitivity solves,
    /// LU refactorizations, history rotation — must allocate zero matrices,
    /// for every integrator.
    #[test]
    fn warm_stepping_loop_allocates_no_matrices() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        let pulse = DataPulse {
            v_rest: 0.0,
            v_active: 1.0,
            t_edge: 2e-7,
            rise: 1e-7,
            fall: 1e-7,
            shape: RampShape::Smoothstep,
        };
        c.add(VoltageSource::new(
            "Vd",
            vin,
            Circuit::GROUND,
            Waveform::Data(pulse),
        ));
        c.add(Resistor::new("R1", vin, vout, 1e3));
        c.add(Capacitor::new("C1", vout, Circuit::GROUND, 1e-10));

        for method in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            let opts = TransientOptions::builder(6e-7)
                .dt(1e-9)
                .integrator(method)
                .sensitivities(&Param::ALL)
                .record(RecordMode::FinalOnly)
                .initial(InitialCondition::Given(Vector::zeros(c.unknown_count())))
                .build();
            let analysis = TransientAnalysis::new(&c, opts);
            let params = Params::new(1e-7, 1e-7);
            let mut scratch = TransientScratch::new(c.unknown_count());
            let warm = analysis.run_with_scratch(&params, &mut scratch).unwrap();
            assert!(warm.stats().steps > 100, "test wants a real stepping loop");

            let before = shc_linalg::matrix_allocations();
            let res = analysis.run_with_scratch(&params, &mut scratch).unwrap();
            let allocated = shc_linalg::matrix_allocations() - before;
            assert_eq!(
                allocated,
                0,
                "{method:?}: {} steps allocated {allocated} matrices",
                res.stats().steps
            );
        }
    }

    /// Builds an RC delay chain behind the parameterized data pulse so
    /// sensitivity propagation has something real to track.
    fn rc_chain_with_pulse(stages: usize) -> Circuit {
        let mut c = Circuit::new();
        let mut prev = c.node("in");
        let pulse = DataPulse {
            v_rest: 0.0,
            v_active: 1.0,
            t_edge: 2e-7,
            rise: 1e-7,
            fall: 1e-7,
            shape: RampShape::Smoothstep,
        };
        c.add(VoltageSource::new(
            "Vd",
            prev,
            Circuit::GROUND,
            Waveform::Data(pulse),
        ));
        for s in 0..stages {
            let node = c.node(&format!("n{s}"));
            c.add(Resistor::new(&format!("R{s}"), prev, node, 1e3));
            c.add(Capacitor::new(
                &format!("C{s}"),
                node,
                Circuit::GROUND,
                1e-11,
            ));
            prev = node;
        }
        c
    }

    /// The sparse path must reproduce the dense trajectory (state AND
    /// sensitivities) to solver tolerance on the same circuit, and the
    /// warm sparse stepping loop must stay matrix-allocation-free —
    /// including the per-run pattern re-probe and the shared-symbolic
    /// sensitivity solver.
    #[test]
    fn sparse_transient_matches_dense_and_keeps_warm_loop_allocation_free() {
        let c = rc_chain_with_pulse(30);
        let n = c.unknown_count();
        let params = Params::new(1e-7, 1e-7);
        let run = |choice: crate::SolverChoice, scratch: &mut TransientScratch| {
            let opts = TransientOptions::builder(6e-7)
                .dt(2e-9)
                .sensitivities(&Param::ALL)
                .record(RecordMode::FinalOnly)
                .initial(InitialCondition::Given(Vector::zeros(n)))
                .solver(choice)
                .build();
            TransientAnalysis::new(&c, opts)
                .run_with_scratch(&params, scratch)
                .unwrap()
        };

        let mut scratch = TransientScratch::new(n);
        let dense = run(crate::SolverChoice::Dense, &mut scratch);
        let sparse = run(crate::SolverChoice::Sparse, &mut scratch);
        assert_eq!(dense.stats().steps, sparse.stats().steps);
        let diff = dense.final_state().sub(sparse.final_state()).norm_inf();
        assert!(diff < 1e-9, "sparse vs dense final state: {diff:e}");
        for p in Param::ALL {
            let md = dense.final_sensitivity(p).unwrap();
            let ms = sparse.final_sensitivity(p).unwrap();
            let sdiff = md.sub(ms).norm_inf();
            assert!(sdiff < 1e-6 * md.norm_inf().max(1.0), "{p:?}: {sdiff:e}");
        }

        // The sparse scratch is warm now: a repeat run (pattern re-probe,
        // Newton refactors, sensitivity solves) must allocate nothing.
        let before = shc_linalg::matrix_allocations();
        let warm = run(crate::SolverChoice::Sparse, &mut scratch);
        let allocated = shc_linalg::matrix_allocations() - before;
        assert!(warm.stats().steps > 100, "test wants a real stepping loop");
        assert_eq!(
            allocated, 0,
            "warm sparse run allocated {allocated} matrix/sparse buffers"
        );
    }

    /// The sparse work counters must reconcile with the run shape: one
    /// analysis per topology, one fresh factor, refactors on every later
    /// Newton iteration, and a solve per iteration plus two per accepted
    /// step for the sensitivities.
    #[test]
    fn sparse_transient_work_counters_reconcile() {
        let c = rc_chain_with_pulse(20);
        let n = c.unknown_count();
        let params = Params::new(1e-7, 1e-7);
        let opts = TransientOptions::builder(4e-7)
            .dt(4e-9)
            .sensitivities(&Param::ALL)
            .record(RecordMode::FinalOnly)
            .initial(InitialCondition::Given(Vector::zeros(n)))
            .solver(crate::SolverChoice::Sparse)
            .build();
        let collector = shc_obs::Collector::new();
        let stats = {
            let _guard = shc_obs::install_scoped(&collector);
            *TransientAnalysis::new(&c, opts)
                .run(&params)
                .unwrap()
                .stats()
        };
        let snap = collector.snapshot();
        assert_eq!(snap.counter(shc_obs::Metric::SparseAnalyses), 1);
        let factors = snap.counter(shc_obs::Metric::SparseFactors);
        let refactors = snap.counter(shc_obs::Metric::SparseRefactors);
        let solves = snap.counter(shc_obs::Metric::SparseSolves);
        // The Newton path factors once per iteration (the first via
        // `SparseLu::new`, later ones as refactors); the sensitivity
        // solver — a clone carrying warm factors — refactors once per
        // accepted step.
        assert!(factors >= 1, "factors = {factors}");
        assert_eq!(
            factors + refactors,
            stats.newton_iterations as u64 + stats.steps as u64,
            "factor work must match newton + sensitivity factorizations"
        );
        assert_eq!(
            solves,
            stats.newton_iterations as u64 + 2 * stats.steps as u64,
            "solve count must match newton iterations + 2 sens solves/step"
        );
    }

    /// Telemetry must be free where it matters: with a collector installed
    /// the warm stepping loop still allocates zero matrices, produces a
    /// bitwise-identical final state, and the collector's per-run flush
    /// sees the true step counts — for every integrator.
    #[test]
    fn telemetry_keeps_warm_loop_allocation_free_and_bitwise_identical() {
        let (c, _) = rc_circuit();
        for method in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            // Pin the initial condition so the (allocating) DC
            // operating-point solve stays out of the measured loop, as in
            // the test above.
            let opts = TransientOptions::builder(2e-6)
                .dt(2e-9)
                .integrator(method)
                .initial(InitialCondition::Given(Vector::zeros(c.unknown_count())))
                .build();
            let analysis = TransientAnalysis::new(&c, opts);
            let params = Params::default();
            let mut scratch = TransientScratch::new(c.unknown_count());
            let quiet = analysis.run_with_scratch(&params, &mut scratch).unwrap();
            let quiet_state = quiet.final_state().clone();
            let quiet_stats = *quiet.stats();

            let collector = shc_obs::Collector::new();
            let _guard = shc_obs::install_scoped(&collector);
            let before = shc_linalg::matrix_allocations();
            let observed = analysis.run_with_scratch(&params, &mut scratch).unwrap();
            let allocated = shc_linalg::matrix_allocations() - before;

            assert_eq!(
                allocated, 0,
                "{method:?}: telemetry allocated {allocated} matrices"
            );
            assert_eq!(observed.final_state().as_slice(), quiet_state.as_slice());
            assert_eq!(*observed.stats(), quiet_stats);
            let snap = collector.snapshot();
            assert_eq!(snap.counter(shc_obs::Metric::TransientRuns), 1);
            assert_eq!(
                snap.counter(shc_obs::Metric::TransientSteps),
                quiet_stats.steps as u64
            );
            assert_eq!(
                snap.counter(shc_obs::Metric::NewtonIterations),
                quiet_stats.newton_iterations as u64
            );
            assert_eq!(snap.counter(shc_obs::Metric::MatrixAllocations), 0);
        }
    }

    /// A Newton budget that can never converge: every step diverges, is
    /// cut to a quarter down to the `dt_min` floor, and the run aborts
    /// there. The cuts are counted as rejected steps, and the telemetry
    /// flushed on the failure path must reconcile with them.
    #[test]
    fn newton_step_cuts_are_counted_and_flushed_on_abort() {
        let (c, _) = rc_circuit();
        let mut opts = TransientOptions::builder(1e-9)
            .dt(1e-10)
            .initial(InitialCondition::Given(Vector::zeros(c.unknown_count())))
            .build();
        opts.newton.max_iters = 0;
        opts.dt_min = 1e-12;

        let collector = shc_obs::Collector::new();
        let err = {
            let _guard = shc_obs::install_scoped(&collector);
            TransientAnalysis::new(&c, opts)
                .run(&Params::default())
                .unwrap_err()
        };
        assert!(matches!(err, SpiceError::NewtonDiverged { .. }), "{err}");
        // 100 ps → 25 ps → 6.25 ps → 1.5625 ps are cut; the next step is
        // clamped to the 1 ps floor, where the run gives up.
        let snap = collector.snapshot();
        assert_eq!(snap.counter(shc_obs::Metric::TransientRuns), 1);
        assert_eq!(snap.counter(shc_obs::Metric::LteRejections), 4);
        assert_eq!(snap.counter(shc_obs::Metric::TransientSteps), 0);
    }

    /// `run` and `run_with_scratch` must be observably identical.
    #[test]
    fn scratch_reuse_is_bitwise_identical_to_fresh_runs() {
        let (c, out) = rc_circuit();
        for method in [Integrator::BackwardEuler, Integrator::Trapezoidal] {
            let make_opts = || {
                TransientOptions::builder(2e-6)
                    .dt(2e-9)
                    .integrator(method)
                    .build()
            };
            let fresh = TransientAnalysis::new(&c, make_opts())
                .run(&Params::default())
                .unwrap();
            let mut scratch = TransientScratch::new(c.unknown_count());
            let analysis = TransientAnalysis::new(&c, make_opts());
            for _ in 0..2 {
                let reused = analysis
                    .run_with_scratch(&Params::default(), &mut scratch)
                    .unwrap();
                assert_eq!(reused.times(), fresh.times());
                assert_eq!(
                    reused.final_state().as_slice(),
                    fresh.final_state().as_slice()
                );
                assert_eq!(reused.series(out), fresh.series(out));
            }
        }
    }

    #[test]
    fn crossing_time_and_interpolation() {
        let (c, out) = rc_circuit();
        let mut x0 = Vector::zeros(c.unknown_count());
        x0[0] = 1.0;
        let opts = TransientOptions::builder(5e-6)
            .dt(5e-9)
            .initial(InitialCondition::Given(x0))
            .build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        // v crosses 0.5 at t = tau·ln2 ≈ 0.693 µs.
        let t50 = res
            .crossing_time(out, 0.5, 0.0, CrossingDirection::Rising)
            .unwrap();
        assert!((t50 - 0.693e-6).abs() < 1e-8, "t50 = {t50:e}");
        assert!(res
            .crossing_time(out, 0.5, 4e-6, CrossingDirection::Rising)
            .is_none());
        assert!(res
            .crossing_time(out, 0.5, 0.0, CrossingDirection::Falling)
            .is_none());
        assert!(res.value_at(out, -1.0).is_none());
        assert!(res.value_at(out, 9e-6).is_none());
    }

    #[test]
    fn probe_mode_records_single_trajectory() {
        let (c, out) = rc_circuit();
        let opts = TransientOptions::builder(1e-7)
            .dt(1e-9)
            .record(RecordMode::Probe(out))
            .build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        assert!(res.states().is_empty());
        assert!(res.trajectory(out).is_some());
        assert!(res.trajectory(out + 1).is_none());
        assert_eq!(res.trajectory(out).unwrap().len(), res.times().len());
    }

    #[test]
    fn final_only_mode_keeps_nothing_but_final() {
        let (c, out) = rc_circuit();
        let opts = TransientOptions::builder(1e-7)
            .dt(1e-9)
            .record(RecordMode::FinalOnly)
            .build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        assert!(res.states().is_empty());
        assert!(res.trajectory(out).is_none());
        assert_eq!(res.final_state().len(), c.unknown_count());
    }

    #[test]
    fn bad_initial_condition_length_rejected() {
        let (c, _) = rc_circuit();
        let opts = TransientOptions::builder(1e-7)
            .dt(1e-9)
            .initial(InitialCondition::Given(Vector::zeros(1)))
            .build();
        let err = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap_err();
        assert!(matches!(err, SpiceError::BadCircuit { .. }));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn builder_rejects_bad_tstop() {
        let _ = TransientOptions::builder(-1.0).build();
    }
}
