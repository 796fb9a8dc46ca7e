//! The lockstep stepping engine.
//!
//! [`run_lockstep`] advances `B` transients of one circuit through shared
//! *element-major* structure-of-arrays buffers (`buf[element·B + lane]`):
//! one block per state/residual role, one per Jacobian role, and one
//! [`SoaLu`] for the shared-pattern factorizations. Control flow is
//! *round-based*: every active lane attempts one time step per round, and
//! the Newton solve inside a round runs stage-by-stage across lanes
//! (assemble all → combine all → factor all → solve/update all).
//!
//! Every numeric stage follows **compute-all, masked-commit**: the SoA
//! kernels run unconditionally over all `B` lanes — that is what lets
//! them vectorize across lanes — while retired/converged lanes' results
//! are either discarded (never read) or excluded by a select-style commit
//! mask. Fault draws and telemetry counts loop over *active* lanes only,
//! in lane order, before each numeric stage, preserving the scalar
//! per-lane draw cadence.
//!
//! Per lane, the engine replicates the scalar
//! [`crate::transient`] Backward-Euler fixed-step path *operation for
//! operation* — same residual/Jacobian arithmetic order, same damped
//! Newton update, same floor/fault retry policy, same step-cut and
//! recovery rules — so lane results are bitwise identical to scalar runs
//! without sensitivities. A lane that fails terminally *retires*: it keeps
//! its typed [`SpiceError`] and the remaining lanes continue unaffected.

// lint: soa-module
use shc_linalg::{lane_dispatch, multiversioned, SoaLu, Vector};

use crate::batch::compile::{CompiledCircuit, SoaCircuit};
use crate::circuit::Circuit;
use crate::dcop;
use crate::newton::{self, NewtonOptions};
use crate::transient::{
    PrefixLadder, TransientOptions, TransientResult, TransientStats, DT_FLOOR_SLACK,
    NEWTON_FAULT_RETRIES, NEWTON_FLOOR_RETRIES, REST_SKEWS, TSTOP_ENDPOINT_SLACK,
};
use crate::waveform::Params;
use crate::{Result, SpiceError};

/// Per-step lap slots, mirroring the scalar transient's private chain so
/// the profile tree shows identical phase structure for batched runs.
const LAP_NEWTON: usize = 0;
const LAP_SENS: usize = 1;
const LAP_STEP_SELF: usize = 2;

/// Flushes the batch's lap accumulators into the open
/// `shc_prof::Phase::Transient` frame on every exit path — the batched
/// counterpart of the scalar transient's flush guard (dense arm only; the
/// batched envelope excludes sparse solves).
struct BatchProfFlush<'l> {
    step: &'l shc_prof::Laps,
    iter: &'l shc_prof::Laps,
}

impl Drop for BatchProfFlush<'_> {
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
        record(&[Phase::NewtonOverhead, Phase::DeviceEval], dev);
        record(&[Phase::NewtonOverhead, Phase::Stamp], stamp);
        record(&[Phase::NewtonOverhead, Phase::LuRefactor], factor);
        record(&[Phase::NewtonOverhead, Phase::LuSolve], solve);
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneStatus {
    Active,
    Done,
    Failed,
}

/// Per-lane bookkeeping: integration clock, statistics, and the transient
/// per-round / per-Newton-solve scratch state.
#[derive(Debug)]
struct LaneState {
    params: Params,
    t_prev: f64,
    dt: f64,
    status: LaneStatus,
    /// The logical full-run counters, as the scalar run reports them.
    stats: TransientStats,
    /// The part of `stats` this lane took over instead of executing: its
    /// rung's counters, or the trunk's for lanes the trunk did not run.
    skipped: TransientStats,
    err: Option<SpiceError>,
    /// This round's step attempt.
    stepping: bool,
    t_new: f64,
    dt_eff: f64,
    /// Newton-solve state (valid while a solve over this lane runs).
    nw_active: bool,
    nw_iters: usize,
    nw_err: Option<SpiceError>,
    nw_last_norm: f64,
}

/// Canonical element-major offset: element `i`'s slot for lane `l` in a
/// batch of `b` lanes. Cold paths index through this accessor so the
/// layout convention is spelled once; hot kernels use `chunks_exact`
/// row windows instead and never index.
#[inline(always)]
fn soa_idx(i: usize, l: usize, b: usize) -> usize {
    debug_assert!(l < b);
    i * b + l
}

/// Strided per-lane finiteness check on an element-major block — used on
/// the cold accept path where only one lane is inspected.
#[inline]
fn lane_all_finite(v: &[f64], l: usize, n: usize, b: usize) -> bool {
    (0..n).all(|i| v[soa_idx(i, l, b)].is_finite())
}

// SAFETY: expands to `#[target_feature]` clones; each wide clone is
// called only after its `is_x86_feature_detected!` check passes.
multiversioned! {
    /// Fused Backward-Euler residual and step Jacobian over all lanes:
    /// `r = q − q_prev + dt·f` and `J = C + dt·G`, element-major, in the
    /// scalar path's per-element evaluation order.
    fn fuse_kernel(
        residual: &mut [f64],
        jac: &mut [f64],
        q: &[f64],
        f: &[f64],
        c: &[f64],
        g: &[f64],
        q_prev: &[f64],
        dt: &[f64],
        n: usize,
        b: usize,
    ) {
        lane_dispatch!(b, fuse_impl(residual, jac, q, f, c, g, q_prev, dt, n));
    }
}

// lint: soa-kernel
/// [`fuse_kernel`]'s body, called with a literal lane count for the
/// common widths (see [`lane_dispatch!`]) under each feature level.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fuse_impl(
    residual: &mut [f64],
    jac: &mut [f64],
    q: &[f64],
    f: &[f64],
    c: &[f64],
    g: &[f64],
    q_prev: &[f64],
    dt: &[f64],
    n: usize,
    b: usize,
) {
    debug_assert_eq!(residual.len(), n * b);
    debug_assert_eq!(jac.len(), n * n * b);
    // Chunked zips, not indexed accesses: row windows of length `b`
    // with no bounds checks are what lets the lane loop vectorize.
    for (((rw, qw), fw), qpw) in residual
        .chunks_exact_mut(b)
        .zip(q.chunks_exact(b))
        .zip(f.chunks_exact(b))
        .zip(q_prev.chunks_exact(b))
    {
        for ((((r, qv), fv), qpv), d) in rw
            .iter_mut()
            .zip(qw.iter())
            .zip(fw.iter())
            .zip(qpw.iter())
            .zip(dt.iter())
        {
            *r = *qv - *qpv + *d * *fv;
        }
    }
    for ((jw, cw), gw) in jac
        .chunks_exact_mut(b)
        .zip(c.chunks_exact(b))
        .zip(g.chunks_exact(b))
    {
        for (((j, cv), gv), d) in jw.iter_mut().zip(cw.iter()).zip(gw.iter()).zip(dt.iter()) {
            *j = *cv + *d * *gv;
        }
    }
}

// SAFETY: expands to `#[target_feature]` clones; each wide clone is
// called only after its `is_x86_feature_detected!` check passes.
multiversioned! {
    /// Per-lane finiteness probe over `rows` element-major rows of `v`:
    /// `out[l]` accumulates `v − v`, which is `+0.0` for every finite
    /// element (including `±0.0`) and NaN as soon as any element is `±∞`
    /// or NaN — so `out[l] != 0.0` is exactly "lane `l` has a non-finite
    /// element". A verdict-only check: it produces no numeric state, so
    /// it need not replicate the scalar `is_finite` loop's shape.
    fn badness_kernel(out: &mut [f64], v: &[f64], rows: usize, b: usize) {
        lane_dispatch!(b, badness_impl(out, v, rows));
    }
}

// lint: soa-kernel
/// [`badness_kernel`]'s body, called with a literal lane count for the
/// common widths (see [`lane_dispatch!`]) under each feature level.
#[inline(always)]
fn badness_impl(out: &mut [f64], v: &[f64], rows: usize, b: usize) {
    debug_assert_eq!(v.len(), rows * b);
    for o in out.iter_mut() {
        *o = 0.0;
    }
    for row in v.chunks_exact(b) {
        for (o, x) in out.iter_mut().zip(row.iter()) {
            // `x - x` is 0.0 for finite x and NaN for NaN/±Inf: the
            // accumulator stays 0.0 exactly when every element is finite.
            #[allow(clippy::eq_op)]
            {
                *o += *x - *x;
            }
        }
    }
}

// SAFETY: expands to `#[target_feature]` clones; each wide clone is
// called only after its `is_x86_feature_detected!` check passes.
multiversioned! {
    /// Newton direction post-processing for all lanes: negate (the solve
    /// produces `+J⁻¹F`; the update is `x ← x − J⁻¹F`) and clamp each
    /// component to `±max_step` — the scalar loop's exact operation
    /// order, elementwise, so running it on retired lanes' garbage is
    /// harmless.
    fn negate_clamp_kernel(delta: &mut [f64], max_step: f64) {
        for d in delta.iter_mut() {
            *d = -*d;
            if d.abs() > max_step {
                *d = d.signum() * max_step;
            }
        }
    }
}

// SAFETY: expands to `#[target_feature]` clones; each wide clone is
// called only after its `is_x86_feature_detected!` check passes.
multiversioned! {
    /// Per-lane weighted max-norms: `out[l] = max_i |d_i| / (reltol·|x_i|
    /// + abstol)`, folded in row order with `f64::max` from `0.0` —
    /// `Vector::weighted_norm` per lane, bit for bit.
    fn weighted_norm_kernel(
        out: &mut [f64],
        delta: &[f64],
        x: &[f64],
        reltol: f64,
        abstol: f64,
        n: usize,
        b: usize,
    ) {
        lane_dispatch!(b, weighted_norm_impl(out, delta, x, reltol, abstol, n));
    }
}

// lint: soa-kernel
/// [`weighted_norm_kernel`]'s body, called with a literal lane count for
/// the common widths (see [`lane_dispatch!`]) under each feature level.
#[inline(always)]
fn weighted_norm_impl(
    out: &mut [f64],
    delta: &[f64],
    x: &[f64],
    reltol: f64,
    abstol: f64,
    n: usize,
    b: usize,
) {
    debug_assert_eq!(delta.len(), n * b);
    for o in out.iter_mut() {
        *o = 0.0;
    }
    for (dw, xw) in delta.chunks_exact(b).zip(x.chunks_exact(b)) {
        for ((o, d), xv) in out.iter_mut().zip(dw.iter()).zip(xw.iter()) {
            let v = d.abs() / (reltol * xv.abs() + abstol);
            *o = (*o).max(v);
        }
    }
}

// SAFETY: expands to `#[target_feature]` clones; each wide clone is
// called only after its `is_x86_feature_detected!` check passes.
multiversioned! {
    /// Masked Newton update: `x += delta` on active lanes only, spelled
    /// as a select so inactive lanes keep their bits exactly (an
    /// unconditional `+= 0.0` would flip a stored `-0.0`).
    fn update_kernel(x: &mut [f64], delta: &[f64], active: &[bool], n: usize, b: usize) {
        lane_dispatch!(b, update_impl(x, delta, active, n));
    }
}

// lint: soa-kernel
/// [`update_kernel`]'s body, called with a literal lane count for the
/// common widths (see [`lane_dispatch!`]) under each feature level.
#[inline(always)]
fn update_impl(x: &mut [f64], delta: &[f64], active: &[bool], n: usize, b: usize) {
    debug_assert_eq!(delta.len(), n * b);
    // `x` may carry the assembly spill row past `n·b`; the zip against
    // `delta`'s `n` rows leaves it untouched (it must stay `+0.0`).
    for (xw, dw) in x.chunks_exact_mut(b).zip(delta.chunks_exact(b)) {
        for ((xv, dv), a) in xw.iter_mut().zip(dw.iter()).zip(active.iter()) {
            let nx = *xv + *dv;
            *xv = if *a { nx } else { *xv };
        }
    }
}

// SAFETY: expands to `#[target_feature]` clones; each wide clone is
// called only after its `is_x86_feature_detected!` check passes.
multiversioned! {
    /// Masked end-of-step history rotation: `q_prev ← q`, `x_prev ← x`
    /// for lanes that accepted a step (selects — non-stepping lanes keep
    /// their history bits).
    fn rotate_kernel(
        q_prev: &mut [f64],
        x_prev: &mut [f64],
        q: &[f64],
        x: &[f64],
        stepped: &[bool],
        n: usize,
        b: usize,
    ) {
        lane_dispatch!(b, rotate_impl(q_prev, x_prev, q, x, stepped, n));
    }
}

// lint: soa-kernel
/// [`rotate_kernel`]'s body, called with a literal lane count for the
/// common widths (see [`lane_dispatch!`]) under each feature level.
#[inline(always)]
fn rotate_impl(
    q_prev: &mut [f64],
    x_prev: &mut [f64],
    q: &[f64],
    x: &[f64],
    stepped: &[bool],
    n: usize,
    b: usize,
) {
    debug_assert_eq!(q_prev.len(), n * b);
    for (((qpw, xpw), qw), xw) in q_prev
        .chunks_exact_mut(b)
        .zip(x_prev.chunks_exact_mut(b))
        .zip(q.chunks_exact(b))
        .zip(x.chunks_exact(b))
    {
        for ((((qp, xp), qv), xv), s) in qpw
            .iter_mut()
            .zip(xpw.iter_mut())
            .zip(qw.iter())
            .zip(xw.iter())
            .zip(stepped.iter())
        {
            *qp = if *s { *qv } else { *qp };
            *xp = if *s { *xv } else { *xp };
        }
    }
}

/// Per-lane replica of the scalar transient's whole-run fault hook
/// (`Site::Transient`), drawn once per lane during batch setup so a
/// lane-count sweep sees the same per-run draw cadence as scalar runs.
fn injected_run_fault(opts: &TransientOptions) -> Option<SpiceError> {
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
            dt: opts.dt_min,
            rejected_steps: 0,
        },
        shc_fault::FaultKind::NonConvergence => SpiceError::NewtonDiverged {
            context: "transient run (injected fault)",
            iterations: 0,
            residual: f64::INFINITY,
        },
    })
}

/// Where [`Engine::init`] starts its lanes.
#[derive(Debug, Clone, Copy)]
enum Start<'l> {
    /// Each lane's own DC operating point at `t = 0`.
    Dc,
    /// Rung `k` of the batch circuit's prefix ladder, valid for every lane
    /// (see [`ladder_rung`]).
    Rung(&'l PrefixLadder, usize),
}

impl Start<'_> {
    /// The simulation time the lanes start at.
    fn time(self) -> f64 {
        match self {
            Start::Dc => 0.0,
            Start::Rung(ladder, k) => ladder.rung(k).t,
        }
    }
}

/// The rung of `ladder` every lane of the batch may start from: the last
/// one whose reach lies strictly before the earliest agreement horizon of
/// [`REST_SKEWS`] and a lane's skews. Requires the ladder to be recorded
/// on `circuit` under options that serve `opts`, and no fault injector (a
/// resumed lane would skip its prefix's fault draws).
fn ladder_rung(
    ladder: &PrefixLadder,
    circuit: &Circuit,
    params: &[Params],
    opts: &TransientOptions,
) -> Option<usize> {
    if shc_fault::enabled() || !ladder.recorded_on(circuit) || !ladder.serves(circuit, opts) {
        return None;
    }
    let horizon = params
        .iter()
        .map(|p| circuit.agreement_horizon(&REST_SKEWS, p))
        .fold(f64::INFINITY, f64::min);
    ladder.rung_below(horizon)
}

/// Runs one lane per skew point of `params` over `circuit` to
/// `opts.tstop` in lockstep.
///
/// Returns one `Result` per lane, in lane order: `Ok` with a final-only
/// [`TransientResult`] bitwise identical to the scalar path, or the typed
/// error the scalar run would have produced. The outer `Result` reports
/// a configuration outside the batched envelope before any simulation
/// starts.
///
/// With `prefix`, the ladder of `circuit`
/// ([`crate::transient::TransientAnalysis::prefix_ladder`]), the batch
/// starts from the last rung valid for every lane instead of the DC
/// point, when no fault injector is installed; otherwise it starts from
/// DC. Results are bitwise the same either way.
///
/// Telemetry: one `Transient` span/phase frame and one `TransientRuns`
/// count of `params.len()` covers the whole batch; per-lane steps, Newton
/// iterations, and rejections are observed individually at the end so
/// distribution metrics match `params.len()` scalar runs. They count
/// executed work only: the shared trunk's steps once, a rung's none.
///
/// # Errors
///
/// [`SpiceError::BadCircuit`] when `opts.tstop` is not positive or the
/// configuration is outside the batched envelope (callers should gate on
/// [`crate::batch::supported`] / [`crate::batch::BatchPolicy`]).
pub fn run_lockstep(
    circuit: &Circuit,
    params: &[Params],
    opts: &TransientOptions,
    prefix: Option<&PrefixLadder>,
) -> Result<Vec<Result<TransientResult>>> {
    if params.is_empty() {
        return Ok(Vec::new());
    }
    if !(opts.tstop.is_finite() && opts.tstop > 0.0) {
        return Err(SpiceError::BadCircuit {
            reason: format!("lockstep batch has non-positive stop time {}", opts.tstop),
        });
    }
    if !crate::batch::supported(circuit, opts) {
        return Err(SpiceError::BadCircuit {
            reason: "lockstep batch is outside the batched envelope (needs Backward Euler, \
                     fixed steps, final-only recording, DC start, dense solves, no \
                     sensitivities, and batchable devices)"
                .to_string(),
        });
    }
    let compiled = CompiledCircuit::compile(circuit).expect("supported() verified compilability");
    let soa = SoaCircuit::new(&compiled, params.len());

    // One span + frame + run count per batch; the lap accumulators flush
    // beneath the frame on every exit path, mirroring the scalar run.
    let _span = shc_obs::span(shc_obs::SpanKind::Transient);
    let _frame = shc_prof::enter(shc_prof::Phase::Transient);
    shc_obs::count(shc_obs::Metric::TransientRuns, params.len() as u64);
    let lap_step = shc_prof::Laps::step();
    let lap_iter = shc_prof::Laps::iter();
    let _prof_flush = BatchProfFlush {
        step: &lap_step,
        iter: &lap_iter,
    };

    // Shared-prefix trunk: lanes differ only in source timing, so every
    // lane's inputs — device values, waveforms, and skew derivatives — are
    // provably bitwise identical up to an *agreement horizon* (the
    // earliest time any two lanes' waveforms stop being the same
    // function). On that prefix all lanes perform the identical
    // computation; running it once on a single-lane engine and
    // broadcasting the state is therefore bitwise-exact and skips `b − 1`
    // redundant DC solves and prefix transients. Fault-injection campaigns
    // skip the trunk: sharing would collapse the documented per-lane draw
    // cadence. The trunk starts where the lanes would: at the batch's
    // rung, or at the DC point.
    let start = prefix
        .and_then(|ladder| {
            ladder_rung(ladder, circuit, params, opts).map(|k| Start::Rung(ladder, k))
        })
        .unwrap_or(Start::Dc);
    let horizon = if params.len() >= 2 && !shc_fault::enabled() {
        soa.agreement_horizon(params)
    } else {
        0.0
    };

    let mut engine = Engine::new(params, soa, opts);
    if horizon > start.time() {
        let mut trunk = Engine::new(&params[..1], SoaCircuit::new(&compiled, 1), opts);
        trunk.t_limit = horizon;
        trunk.init(circuit, start);
        trunk.run(&lap_step, &lap_iter);
        engine.adopt_trunk(trunk);
    } else {
        engine.init(circuit, start);
    }
    engine.run(&lap_step, &lap_iter);
    engine.flush_observations();
    Ok(engine.into_results())
}

/// The SoA state of one batch. All numeric buffers are flat `Vec<f64>`
/// in *element-major* blocks (`element·b + lane`), allocated once in
/// [`Engine::new`]; the stepping rounds are allocation-free.
///
/// Buffer geometry (`b` lanes, `n` unknowns): plain blocks are `n·b`
/// (vectors) / `n²·b` (matrices); the blocks fed to
/// [`SoaCircuit::assemble_all`] carry one extra *spill* row/cell
/// absorbing ground stamps — `x`, `q`, `f` are `(n+1)·b` and `c`, `g`
/// are `(n²+1)·b`. `x`'s spill row is the ground potential and must stay
/// all `+0.0`; no kernel writes it.
struct Engine<'e> {
    n: usize,
    b: usize,
    /// Hard stepping ceiling: a lane only attempts a step whose endpoint
    /// is strictly below this. The shared-prefix trunk runs with the
    /// batch's agreement horizon here; a full run uses `+∞`. Pausing at
    /// the ceiling never alters the arithmetic of the steps taken.
    t_limit: f64,
    /// Accepted steps every lane took from a prefix-ladder rung instead of
    /// executing; `0` after a DC start.
    rung_steps: usize,
    opts: &'e TransientOptions,
    soa: SoaCircuit,
    lanes: Vec<LaneState>,
    // Element-major n·b blocks.
    /// soa: element-major, state
    x_prev: Vec<f64>,
    /// soa: element-major, scratch
    delta: Vec<f64>,
    /// soa: element-major, scratch
    residual: Vec<f64>,
    /// soa: element-major, state
    q_prev: Vec<f64>,
    // Element-major (n+1)·b blocks (assembly spill row).
    /// soa: element-major, state
    x: Vec<f64>,
    /// soa: element-major, scratch
    q: Vec<f64>,
    /// soa: element-major, scratch
    f: Vec<f64>,
    // Element-major matrix blocks, (n²+1)·b (assembly spill cell). The
    // step Jacobian `C + dt·G` has no block of its own: it is fused
    // straight into the [`SoaLu`] factor buffer.
    /// soa: element-major, scratch
    c: Vec<f64>,
    /// soa: element-major, scratch
    g: Vec<f64>,
    lu: SoaLu,
    // Per-lane scratch (length b): assembly times, effective steps, the
    // compute-all commit mask, solver error slots, finiteness probes, and
    // weighted norms.
    params_v: Vec<Params>,
    t_v: Vec<f64>,
    dt_v: Vec<f64>,
    active: Vec<bool>,
    errs: Vec<Option<shc_linalg::LinalgError>>,
    bad: Vec<f64>,
    norms: Vec<f64>,
    // Single-lane scratch (a retry's previous state and jittered start
    // are consumed within one lane's turn, so one pair serves all lanes).
    prev: Vec<f64>,
    start: Vec<f64>,
}

impl<'e> Engine<'e> {
    fn new(params: &[Params], soa: SoaCircuit, opts: &'e TransientOptions) -> Engine<'e> {
        let n = soa.dim();
        let b = params.len();
        let lane_states = params
            .iter()
            .map(|&params| LaneState {
                params,
                t_prev: 0.0,
                dt: opts.dt.min(opts.tstop),
                status: LaneStatus::Active,
                stats: TransientStats::default(),
                skipped: TransientStats::default(),
                err: None,
                stepping: false,
                t_new: 0.0,
                dt_eff: 0.0,
                nw_active: false,
                nw_iters: 0,
                nw_err: None,
                nw_last_norm: f64::INFINITY,
            })
            .collect();
        Engine {
            n,
            b,
            t_limit: f64::INFINITY,
            rung_steps: 0,
            opts,
            soa,
            lanes: lane_states,
            x_prev: vec![0.0; n * b],
            delta: vec![0.0; n * b],
            residual: vec![0.0; n * b],
            q_prev: vec![0.0; n * b],
            x: vec![0.0; (n + 1) * b],
            q: vec![0.0; (n + 1) * b],
            f: vec![0.0; (n + 1) * b],
            c: vec![0.0; (n * n + 1) * b],
            g: vec![0.0; (n * n + 1) * b],
            lu: SoaLu::new(b, n),
            params_v: params.to_vec(),
            t_v: vec![0.0; b],
            dt_v: vec![0.0; b],
            active: vec![false; b],
            errs: vec![None; b],
            bad: vec![0.0; b],
            norms: vec![0.0; b],
            prev: vec![0.0; n],
            start: vec![0.0; n],
        }
    }

    fn fail(&mut self, l: usize, e: SpiceError) {
        let lane = &mut self.lanes[l];
        lane.status = LaneStatus::Failed;
        lane.err = Some(e);
        lane.stepping = false;
    }

    /// Per-lane setup — run-site fault draws and the initial states in
    /// lane order (preserving the scalar per-run draw cadence) — then one
    /// SoA assembly at the start time for the history stamps (`q_prev`).
    /// Assembly draws nothing, so batching it after the per-lane loop
    /// leaves the cadence untouched.
    ///
    /// From [`Start::Dc`] each lane solves its DC operating point on
    /// `circuit`. From [`Start::Rung`] each lane takes x, t, dt and the
    /// counters from the rung, as a resumed scalar run does; the assembly
    /// then re-stamps the accepted point the full run's last step stamped,
    /// so the lanes continue bitwise as full runs.
    fn init(&mut self, circuit: &Circuit, start: Start<'_>) {
        let n = self.n;
        let b = self.b;
        for l in 0..self.lanes.len() {
            if let Some(e) = injected_run_fault(self.opts) {
                self.fail(l, e);
                continue;
            }
            let dc;
            let x0 = match start {
                Start::Dc => match dcop::solve_dc(circuit, &self.lanes[l].params, &self.opts.dc) {
                    Ok(sol) => {
                        dc = sol.x;
                        dc.as_slice()
                    }
                    Err(e) => {
                        self.fail(l, e);
                        continue;
                    }
                },
                Start::Rung(ladder, k) => {
                    let rung = ladder.rung(k);
                    let lane = &mut self.lanes[l];
                    lane.t_prev = rung.t;
                    lane.dt = rung.dt;
                    lane.stats = rung.stats;
                    lane.skipped = rung.stats;
                    self.rung_steps = rung.stats.steps;
                    ladder.rung_state(k)
                }
            };
            for (i, v) in x0.iter().enumerate() {
                self.x_prev[soa_idx(i, l, b)] = *v;
            }
        }
        {
            let Engine {
                soa,
                lanes,
                x,
                x_prev,
                t_v,
                params_v,
                q,
                f,
                c,
                g,
                ..
            } = self;
            x[..n * b].copy_from_slice(x_prev);
            for (t, lane) in t_v.iter_mut().zip(lanes.iter()) {
                *t = lane.t_prev;
            }
            soa.assemble_all(x, t_v, params_v, q, f, c, g);
        }
        self.q_prev.copy_from_slice(&self.q[..n * b]);
    }

    // lint: trunk-fence
    /// Adopts a finished single-lane *trunk* engine's state into every
    /// lane of this batch, replacing [`Engine::init`].
    ///
    /// The trunk ran lane 0's simulation over the prefix on which every
    /// lane's inputs are provably bitwise identical (the agreement
    /// horizon), so each lane's state after that prefix *is* the trunk's
    /// state: histories, statistics, and accepted times are broadcast
    /// verbatim. A trunk that finished (`Done`) or retired
    /// (`Failed`) determines every lane's outcome the same way, because
    /// each lane's scalar run would have performed the identical
    /// computation. The trunk's executed work is accounted to lane 0, the
    /// lane it ran; the other lanes skipped it.
    fn adopt_trunk(&mut self, trunk: Engine<'_>) {
        debug_assert_eq!(trunk.b, 1);
        debug_assert_eq!(trunk.n, self.n);
        let (n, b) = (self.n, self.b);
        for i in 0..n {
            let (xv, qv) = (trunk.x_prev[i], trunk.q_prev[i]);
            for l in 0..b {
                self.x_prev[soa_idx(i, l, b)] = xv;
                self.q_prev[soa_idx(i, l, b)] = qv;
            }
        }
        let src = &trunk.lanes[0];
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            lane.t_prev = src.t_prev;
            lane.dt = src.dt;
            lane.status = src.status;
            lane.stats = src.stats;
            lane.skipped = if l == 0 { src.skipped } else { src.stats };
            lane.err = src.err.clone();
        }
        self.rung_steps = trunk.rung_steps;
    }

    /// Arms lane `l` for a Newton solve: entry fault draw, then the
    /// iterate is seeded from `x_prev` (first attempt) or the jittered
    /// `start` buffer (retries).
    fn newton_start(&mut self, l: usize, from_start: bool) {
        {
            let lane = &mut self.lanes[l];
            lane.nw_iters = 0;
            lane.nw_err = None;
            lane.nw_last_norm = f64::INFINITY;
            if let Some(e) = newton::injected_fault() {
                lane.nw_active = false;
                lane.nw_err = Some(e);
                return;
            }
            lane.nw_active = true;
        }
        let (n, b) = (self.n, self.b);
        if from_start {
            for i in 0..n {
                self.x[soa_idx(i, l, b)] = self.start[i];
            }
        } else {
            for i in 0..n {
                self.x[soa_idx(i, l, b)] = self.x_prev[soa_idx(i, l, b)];
            }
        }
    }

    /// The staged lockstep Newton iteration over every `nw_active` lane:
    /// assemble all → residual/Jacobian all → factor all → solve/update
    /// all, per iteration, with lanes leaving the commit mask as they
    /// converge or error. Every numeric stage is a compute-all SoA kernel
    /// over all `b` lanes; outcomes land in each lane's
    /// `nw_iters`/`nw_err`.
    // lint: hot-fn
    fn newton_iterate(&mut self, lap_iter: &shc_prof::Laps, nopts: &NewtonOptions) {
        let n = self.n;
        let b = self.b;
        // Per-round kernel constants; entries of non-stepping lanes are
        // stale and feed only discarded computations.
        for (l, lane) in self.lanes.iter().enumerate() {
            self.t_v[l] = lane.t_new;
            self.dt_v[l] = lane.dt_eff;
        }
        // lint: hot-loop
        for iter in 1..=nopts.max_iters {
            let active_count = self.lanes.iter().filter(|l| l.nw_active).count() as u64;
            if active_count == 0 {
                break;
            }

            // Stage 1: one SoA device evaluation + stamping pass over all
            // lanes (inactive lanes' results are never committed).
            lap_iter.end_region(newton::lap::ITER_SELF);
            {
                let Engine {
                    soa,
                    x,
                    t_v,
                    params_v,
                    q,
                    f,
                    c,
                    g,
                    ..
                } = self;
                soa.assemble_all(x, t_v, params_v, q, f, c, g);
            }
            lap_iter.end_region(newton::lap::DEV);
            lap_iter.bump(
                newton::lap::DEV,
                active_count,
                active_count * self.soa.device_count() as u64,
            );

            // Stage 2: Backward-Euler residual and step Jacobian. Fused
            // per element but in the scalar copy/axpy evaluation order, so
            // every value rounds identically. The Jacobian is written
            // straight into the factor buffer, skipping a staging block.
            {
                let Engine {
                    residual,
                    lu,
                    q,
                    f,
                    c,
                    g,
                    q_prev,
                    dt_v,
                    ..
                } = self;
                fuse_kernel(
                    residual,
                    lu.matrix_mut(),
                    &q[..n * b],
                    &f[..n * b],
                    &c[..n * n * b],
                    &g[..n * n * b],
                    q_prev,
                    dt_v,
                    n,
                    b,
                );
            }
            lap_iter.end_region(newton::lap::STAMP);
            lap_iter.bump(newton::lap::STAMP, active_count, active_count * n as u64);

            // Stage 3: finiteness verdicts (residual first, Jacobian
            // second, as in the scalar dense path — lanes that fail skip
            // the factorization and its fault draw), then one SoA
            // factorization with draws over the surviving active lanes.
            let mut factored = 0u64;
            {
                let Engine {
                    lanes,
                    residual,
                    lu,
                    active,
                    errs,
                    bad,
                    ..
                } = self;
                badness_kernel(bad, residual, n, b);
                for (l, lane) in lanes.iter_mut().enumerate() {
                    // lint: allow(float-eq, reason = "exact +0.0 is the badness probe's 'all finite' verdict")
                    if lane.nw_active && bad[l] != 0.0 {
                        lane.nw_active = false;
                        lane.nw_err = Some(SpiceError::NumericalBlowup { time: f64::NAN });
                    }
                }
                badness_kernel(bad, lu.matrix(), n * n, b);
                for (l, lane) in lanes.iter_mut().enumerate() {
                    // lint: allow(float-eq, reason = "exact +0.0 is the badness probe's 'all finite' verdict")
                    if lane.nw_active && bad[l] != 0.0 {
                        lane.nw_active = false;
                        lane.nw_err = Some(SpiceError::NumericalBlowup { time: f64::NAN });
                    }
                }
                for (l, lane) in lanes.iter().enumerate() {
                    active[l] = lane.nw_active;
                    errs[l] = None;
                }
                lu.factor_all_in_place(active, errs);
                for (l, lane) in lanes.iter_mut().enumerate() {
                    if !lane.nw_active {
                        continue;
                    }
                    match errs[l].take() {
                        None => factored += 1,
                        Some(e) => {
                            lane.nw_active = false;
                            lane.nw_err = Some(SpiceError::from(e));
                        }
                    }
                }
            }
            lap_iter.end_region(newton::lap::FACTOR);
            lap_iter.bump(newton::lap::FACTOR, factored, factored * n as u64);

            // Stage 4: back-substitute all lanes, then damp, norm, and
            // commit (masked) — the scalar per-lane order: solve →
            // negate/clamp → weighted norm (pre-update x) → update →
            // finiteness → convergence.
            let mut solved = 0u64;
            {
                let Engine {
                    lanes,
                    residual,
                    delta,
                    x,
                    lu,
                    active,
                    errs,
                    bad,
                    norms,
                    ..
                } = self;
                for (l, lane) in lanes.iter().enumerate() {
                    active[l] = lane.nw_active;
                    errs[l] = None;
                }
                lu.solve_all(residual, delta, active, errs);
                for (l, lane) in lanes.iter_mut().enumerate() {
                    if !lane.nw_active {
                        continue;
                    }
                    match errs[l].take() {
                        None => solved += 1,
                        Some(e) => {
                            lane.nw_active = false;
                            lane.nw_err = Some(SpiceError::from(e));
                        }
                    }
                }
                for (l, lane) in lanes.iter().enumerate() {
                    active[l] = lane.nw_active;
                }
                negate_clamp_kernel(delta, nopts.max_step);
                weighted_norm_kernel(norms, delta, &x[..n * b], nopts.reltol, nopts.abstol, n, b);
                update_kernel(x, delta, active, n, b);
                badness_kernel(bad, &x[..n * b], n, b);
                for (l, lane) in lanes.iter_mut().enumerate() {
                    if !lane.nw_active {
                        continue;
                    }
                    // lint: allow(float-eq, reason = "exact +0.0 is the badness probe's 'all finite' verdict")
                    if bad[l] != 0.0 {
                        lane.nw_active = false;
                        lane.nw_err = Some(SpiceError::NumericalBlowup { time: f64::NAN });
                        continue;
                    }
                    lane.nw_last_norm = norms[l];
                    if norms[l] <= 1.0 {
                        lane.nw_iters = iter;
                        lane.nw_active = false; // converged: `nw_err` stays `None`
                    }
                }
            }
            lap_iter.end_region(newton::lap::SOLVE);
            lap_iter.bump(newton::lap::SOLVE, solved, solved * n as u64);
        }
        // lint: end-hot-loop

        // Iteration budget exhausted for whoever is still active.
        for lane in self.lanes.iter_mut() {
            if lane.nw_active {
                lane.nw_active = false;
                lane.nw_err = Some(SpiceError::NewtonDiverged {
                    context: "newton solve",
                    iterations: nopts.max_iters,
                    residual: lane.nw_last_norm,
                });
            }
        }
    }

    /// The damped jittered-retry policy for one lane — a lockstep replica
    /// of `newton::retry_in_place` sharing its exact jitter stream and
    /// damping schedule.
    fn retry_lane(
        &mut self,
        lap_iter: &shc_prof::Laps,
        l: usize,
        retries: usize,
        first: SpiceError,
    ) {
        let mut last = first;
        if !newton::retryable(&last) {
            self.lanes[l].nw_err = Some(last);
            return;
        }
        let b = self.b;
        let base = self.opts.newton;
        for attempt in 1..=retries as u32 {
            let damped = NewtonOptions {
                max_step: base.max_step * 0.5f64.powi(attempt as i32),
                ..base
            };
            {
                // `x_prev` is element-major: lane `l`'s previous state is
                // the stride-`b` column, not a contiguous block. Gather it
                // first so the retry seed is jittered from the same values
                // `retry_in_place` would use on the scalar path.
                let Engine {
                    start,
                    prev,
                    x_prev,
                    ..
                } = self;
                for (i, v) in prev.iter_mut().enumerate() {
                    *v = x_prev[soa_idx(i, l, b)];
                }
                newton::jitter_slice(start, prev, attempt);
            }
            self.newton_start(l, true);
            if self.lanes[l].nw_active {
                self.newton_iterate(lap_iter, &damped);
            }
            match self.lanes[l].nw_err.take() {
                None => {
                    shc_obs::count(shc_obs::Metric::NewtonRecoveries, 1);
                    return;
                }
                Some(e) if newton::retryable(&e) => last = e,
                Some(e) => {
                    self.lanes[l].nw_err = Some(e);
                    return;
                }
            }
        }
        self.lanes[l].nw_err = Some(last);
    }

    /// Applies the scalar per-step outcome policy to every stepping lane:
    /// floor/fault retries, the dt-quarter cut on divergence, terminal
    /// retirement, then the re-stamp of accepted steps.
    fn resolve_round(&mut self, lap_step: &shc_prof::Laps, lap_iter: &shc_prof::Laps) {
        let n = self.n;
        let b = self.b;
        let dt_min = self.opts.dt_min;

        // Retry policies, in the scalar solve's arm order.
        for l in 0..self.lanes.len() {
            if !self.lanes[l].stepping {
                continue;
            }
            let Some(e) = self.lanes[l].nw_err.take() else {
                continue;
            };
            let at_floor = self.lanes[l].dt_eff <= dt_min * DT_FLOOR_SLACK;
            if matches!(e, SpiceError::NewtonDiverged { .. }) && at_floor {
                self.retry_lane(lap_iter, l, NEWTON_FLOOR_RETRIES, e);
            } else if shc_fault::enabled() && newton::retryable(&e) {
                self.retry_lane(lap_iter, l, NEWTON_FAULT_RETRIES, e);
            } else {
                self.lanes[l].nw_err = Some(e);
            }
        }
        lap_step.end_region(LAP_NEWTON);

        // Outcomes: cut, retire, or accept.
        for l in 0..self.lanes.len() {
            if !self.lanes[l].stepping {
                continue;
            }
            match self.lanes[l].nw_err.take() {
                Some(SpiceError::NewtonDiverged { .. })
                    if self.lanes[l].dt_eff > dt_min * DT_FLOOR_SLACK =>
                {
                    let lane = &mut self.lanes[l];
                    lane.dt = (lane.dt_eff / 4.0).max(dt_min);
                    lane.stats.rejected_steps += 1;
                    lane.stepping = false; // re-attempted next round
                    lap_step.bump(LAP_NEWTON, 1, 0);
                }
                Some(e) => self.fail(l, e),
                None => {
                    let iters = self.lanes[l].nw_iters;
                    self.lanes[l].stats.newton_iterations += iters;
                    lap_step.bump(LAP_NEWTON, 1, iters as u64);
                    if !lane_all_finite(&self.x, l, n, b) {
                        let t_new = self.lanes[l].t_new;
                        self.fail(l, SpiceError::NumericalBlowup { time: t_new });
                    }
                }
            }
        }

        // Accepted lanes: one SoA re-stamp at the converged points (exact
        // `q_i` for the history). Retired lanes' blocks are clobbered with
        // garbage, which is fine: the history rotation is masked and they
        // never read them.
        let accepted = self.lanes.iter().filter(|lane| lane.stepping).count() as u64;
        if accepted > 0 {
            let Engine {
                lanes,
                soa,
                x,
                t_v,
                params_v,
                q,
                f,
                c,
                g,
                ..
            } = self;
            for (l, lane) in lanes.iter().enumerate() {
                t_v[l] = lane.t_new;
            }
            soa.assemble_all(x, t_v, params_v, q, f, c, g);
        }
        lap_step.end_region(LAP_SENS);
        lap_step.bump(LAP_SENS, accepted, 0);
    }

    /// End-of-round bookkeeping for accepted lanes: statistics, history
    /// rotation, and fixed-step dt recovery.
    fn finish_round(&mut self, lap_step: &shc_prof::Laps) {
        let n = self.n;
        let b = self.b;
        let opts_dt = self.opts.dt;
        {
            let Engine {
                lanes,
                x,
                x_prev,
                q,
                q_prev,
                active,
                ..
            } = self;
            for (l, lane) in lanes.iter().enumerate() {
                active[l] = lane.stepping;
            }
            rotate_kernel(q_prev, x_prev, &q[..n * b], &x[..n * b], active, n, b);
        }
        for lane in self.lanes.iter_mut() {
            if !lane.stepping {
                continue;
            }
            lane.stepping = false;
            lane.stats.steps += 1;
            lane.t_prev = lane.t_new;
            // Fixed-step recovery after a Newton-failure cut.
            if lane.dt < opts_dt {
                lane.dt = (lane.dt * 2.0).min(opts_dt);
            }
        }
        lap_step.end_region(LAP_STEP_SELF);
    }

    /// The round loop: every active lane attempts one step per round
    /// until all lanes are done or retired.
    fn run(&mut self, lap_step: &shc_prof::Laps, lap_iter: &shc_prof::Laps) {
        let nopts = self.opts.newton;
        let t_limit = self.t_limit;
        let tstop = self.opts.tstop;
        loop {
            let mut any = false;
            for lane in self.lanes.iter_mut() {
                lane.stepping = false;
                if lane.status != LaneStatus::Active {
                    continue;
                }
                if lane.t_prev < tstop - TSTOP_ENDPOINT_SLACK * tstop.max(1.0) {
                    let t_new = (lane.t_prev + lane.dt).min(tstop);
                    // Strictly below the ceiling: at exactly `t_limit` a
                    // linear-ramp skew derivative may already differ
                    // across lanes, so the trunk must not evaluate there.
                    // A lane at the ceiling pauses (stays `Active`); with
                    // the default `+∞` ceiling this branch is always
                    // taken.
                    if t_new < t_limit {
                        lane.t_new = t_new;
                        lane.dt_eff = t_new - lane.t_prev;
                        lane.stepping = true;
                        any = true;
                    }
                } else {
                    lane.status = LaneStatus::Done;
                }
            }
            if !any {
                break;
            }
            for l in 0..self.lanes.len() {
                if self.lanes[l].stepping {
                    self.newton_start(l, false);
                }
            }
            self.newton_iterate(lap_iter, &nopts);
            self.resolve_round(lap_step, lap_iter);
            self.finish_round(lap_step);
        }
    }

    /// Per-lane work counters, flushed once at the end so distribution
    /// metrics match `lanes` individual scalar runs. Like a resumed scalar
    /// run's, they count executed work only (`stats − skipped`).
    fn flush_observations(&self) {
        use shc_obs::Metric;
        let executed = |lane: &LaneState, f: fn(&TransientStats) -> usize| {
            (f(&lane.stats) - f(&lane.skipped)) as u64
        };
        let total_steps: u64 = self.lanes.iter().map(|l| executed(l, |s| s.steps)).sum();
        shc_prof::add_work(total_steps);
        if shc_obs::enabled() {
            for lane in &self.lanes {
                shc_obs::observe(Metric::TransientSteps, executed(lane, |s| s.steps));
                shc_obs::observe(
                    Metric::NewtonIterations,
                    executed(lane, |s| s.newton_iterations),
                );
                shc_obs::observe(Metric::LteRejections, executed(lane, |s| s.rejected_steps));
                if self.rung_steps > 0 {
                    shc_obs::count(Metric::PrefixResumes, 1);
                    shc_obs::observe(Metric::PrefixStepsSkipped, self.rung_steps as u64);
                }
            }
        }
    }

    fn into_results(self) -> Vec<Result<TransientResult>> {
        let Engine {
            n,
            b,
            lanes,
            x_prev,
            ..
        } = self;
        lanes
            .into_iter()
            .enumerate()
            .map(|(l, lane)| match lane.status {
                LaneStatus::Failed => Err(lane.err.expect("failed lane carries its error")),
                LaneStatus::Done | LaneStatus::Active => {
                    let final_state = Vector::from_iter((0..n).map(|i| x_prev[soa_idx(i, l, b)]));
                    Ok(TransientResult::from_parts(final_state, lane.stats))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, MosParams, Mosfet, Resistor, VoltageSource};
    use crate::transient::{RecordMode, TransientAnalysis};
    use crate::waveform::{DataPulse, Param, RampShape, Waveform};
    use crate::Circuit;

    /// Satellite width-parity sweep for the masked select kernels:
    /// every [`lane_dispatch!`] width 1..=16 (literal arms and runtime
    /// fallback) of [`update_kernel`] must match the scalar select
    /// semantics bit for bit — including `-0.0` preservation on
    /// inactive lanes (an unconditional `+=` would flip it) and the
    /// untouched assembly spill row.
    #[test]
    fn update_kernel_every_width_matches_scalar_select_bitwise() {
        let n = 3;
        for b in 1..=16usize {
            let mut x = vec![0.0; (n + 1) * b];
            let mut delta = vec![0.0; n * b];
            let mut active = vec![false; b];
            for l in 0..b {
                active[l] = l % 3 != 1;
                for i in 0..n {
                    // `-0.0` on inactive lanes is the bit the select must
                    // keep; active lanes get lane-distinct values.
                    x[soa_idx(i, l, b)] = if active[l] {
                        0.25 * (i as f64) - (l as f64)
                    } else {
                        -0.0
                    };
                    delta[soa_idx(i, l, b)] = 1.5 * (i as f64 + 1.0) + 0.125 * (l as f64);
                }
                // Spill row: must stay exactly +0.0.
                x[soa_idx(n, l, b)] = 0.0;
            }
            let expect: Vec<f64> = (0..(n + 1) * b)
                .map(|idx| {
                    let (i, l) = (idx / b, idx % b);
                    if i < n && active[l] {
                        x[idx] + delta[idx]
                    } else {
                        x[idx]
                    }
                })
                .collect();
            update_kernel(&mut x, &delta, &active, n, b);
            for (idx, (got, want)) in x.iter().zip(expect.iter()).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "width {b} slot {idx} diverged (got {got}, want {want})"
                );
            }
            // The inactive lanes' `-0.0` survived as `-0.0`.
            for l in 0..b {
                if !active[l] {
                    assert!(
                        x[soa_idx(0, l, b)].is_sign_negative(),
                        "width {b}: -0.0 flipped"
                    );
                }
            }
        }
    }

    #[test]
    fn rotate_kernel_every_width_matches_scalar_select_bitwise() {
        let n = 2;
        for b in 1..=16usize {
            let mut q_prev = vec![0.0; n * b];
            let mut x_prev = vec![0.0; n * b];
            let mut q = vec![0.0; n * b];
            let mut x = vec![0.0; n * b];
            let mut stepped = vec![false; b];
            for l in 0..b {
                stepped[l] = l % 2 == 0;
                for i in 0..n {
                    q_prev[soa_idx(i, l, b)] = -0.0;
                    x_prev[soa_idx(i, l, b)] = 10.0 + i as f64 + 100.0 * l as f64;
                    q[soa_idx(i, l, b)] = 0.5 * (i as f64) - l as f64;
                    x[soa_idx(i, l, b)] = -3.0 * (i as f64 + 1.0) + 0.25 * l as f64;
                }
            }
            let (eq, ex): (Vec<f64>, Vec<f64>) = (0..n * b)
                .map(|idx| {
                    let l = idx % b;
                    if stepped[l] {
                        (q[idx], x[idx])
                    } else {
                        (q_prev[idx], x_prev[idx])
                    }
                })
                .unzip();
            rotate_kernel(&mut q_prev, &mut x_prev, &q, &x, &stepped, n, b);
            for idx in 0..n * b {
                assert_eq!(
                    q_prev[idx].to_bits(),
                    eq[idx].to_bits(),
                    "width {b} q_prev[{idx}]"
                );
                assert_eq!(
                    x_prev[idx].to_bits(),
                    ex[idx].to_bits(),
                    "width {b} x_prev[{idx}]"
                );
            }
        }
    }

    fn pulse() -> Waveform {
        Waveform::Data(DataPulse {
            v_rest: 0.0,
            v_active: 2.5,
            t_edge: 5e-9,
            rise: 0.5e-9,
            fall: 0.5e-9,
            shape: RampShape::Smoothstep,
        })
    }

    /// An RC divider driven by the parameterized data pulse so the skew
    /// parameters matter.
    fn rc_circuit() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.add(VoltageSource::new("Vd", vin, Circuit::GROUND, pulse()));
        c.add(Resistor::new("R1", vin, vout, 10e3));
        c.add(Capacitor::new("C1", vout, Circuit::GROUND, 50e-15));
        c
    }

    /// A CMOS inverter loaded with a capacitor — nonlinear devices, a DC
    /// rail, and ground-connected MOS terminals.
    fn inverter_circuit() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let din = c.node("din");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "Vdd",
            vdd,
            Circuit::GROUND,
            Waveform::dc(2.5),
        ));
        c.add(VoltageSource::new("Vd", din, Circuit::GROUND, pulse()));
        c.add(Mosfet::new(
            "Mp",
            out,
            din,
            vdd,
            MosParams::pmos_250nm(),
            2e-6,
            0.25e-6,
        ));
        c.add(Mosfet::new(
            "Mn",
            out,
            din,
            Circuit::GROUND,
            MosParams::nmos_250nm(),
            1e-6,
            0.25e-6,
        ));
        c.add(Capacitor::new("Cl", out, Circuit::GROUND, 10e-15));
        c
    }

    fn opts(tstop: f64) -> TransientOptions {
        TransientOptions::builder(tstop)
            .dt(tstop / 200.0)
            .record(RecordMode::FinalOnly)
            .build()
    }

    fn assert_lane_matches_scalar(
        batched: &TransientResult,
        circuit: &Circuit,
        params: &Params,
        opts: &TransientOptions,
    ) {
        let scalar = TransientAnalysis::new(circuit, opts.clone())
            .run(params)
            .expect("scalar run");
        assert_eq!(batched.times().len(), scalar.times().len(), "step counts");
        for (a, b) in batched.times().iter().zip(scalar.times().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "time grids");
        }
        let (fb, fs) = (batched.final_state(), scalar.final_state());
        assert_eq!(fb.len(), fs.len());
        for i in 0..fb.len() {
            assert_eq!(fb[i].to_bits(), fs[i].to_bits(), "final_state[{i}]");
        }
        assert_eq!(batched.stats().steps, scalar.stats().steps);
        assert_eq!(
            batched.stats().newton_iterations,
            scalar.stats().newton_iterations
        );
        assert_eq!(
            batched.stats().rejected_steps,
            scalar.stats().rejected_steps
        );
    }

    #[test]
    fn rc_lanes_are_bitwise_identical_to_scalar() {
        let circuit = rc_circuit();
        let base = opts(20e-9);
        let skews = [
            Params::new(0.0, 0.0),
            Params::new(0.4e-9, -0.2e-9),
            Params::new(-0.3e-9, 0.5e-9),
            Params::new(1.0e-9, 1.0e-9),
        ];
        let results =
            run_lockstep(&circuit, &skews, &base, None).expect("structurally valid batch");
        assert_eq!(results.len(), skews.len());
        for (params, result) in skews.iter().zip(results.iter()) {
            let r = result.as_ref().expect("lane converges");
            assert_lane_matches_scalar(r, &circuit, params, &base);
        }
    }

    #[test]
    fn inverter_lanes_are_bitwise_identical_to_scalar() {
        let circuit = inverter_circuit();
        let base = opts(12e-9);
        let skews = [
            Params::new(0.0, 0.0),
            Params::new(0.6e-9, -0.4e-9),
            Params::new(-0.5e-9, 0.3e-9),
        ];
        let results =
            run_lockstep(&circuit, &skews, &base, None).expect("structurally valid batch");
        for (params, result) in skews.iter().zip(results.iter()) {
            let r = result.as_ref().expect("lane converges");
            assert_lane_matches_scalar(r, &circuit, params, &base);
        }
    }

    #[test]
    fn identical_lanes_share_the_whole_run_and_match_scalar() {
        // Bitwise-equal skews give an unbounded agreement horizon: the
        // trunk carries every lane to tstop and the wide engine only
        // adopts the finished state. Results must still be bitwise equal
        // to the scalar path, stats included.
        let circuit = inverter_circuit();
        let base = opts(12e-9);
        let params = Params::new(0.3e-9, 0.2e-9);
        let results =
            run_lockstep(&circuit, &[params; 4], &base, None).expect("structurally valid batch");
        assert_eq!(results.len(), 4);
        for result in &results {
            let r = result.as_ref().expect("lane converges");
            assert_lane_matches_scalar(r, &circuit, &params, &base);
        }
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let results =
            run_lockstep(&rc_circuit(), &[], &opts(10e-9), None).expect("empty batch is fine");
        assert!(results.is_empty());
    }

    #[test]
    fn sensitivity_requests_are_rejected() {
        let base = TransientOptions {
            sensitivities: Param::ALL.to_vec(),
            ..opts(10e-9)
        };
        let err = run_lockstep(&rc_circuit(), &[Params::default()], &base, None)
            .expect_err("sensitivities are outside the envelope");
        assert!(matches!(err, SpiceError::BadCircuit { .. }));
    }

    #[test]
    fn injected_lane_fault_retires_lane_and_leaves_survivors_bitwise() {
        let circuit = rc_circuit();
        let base = opts(16e-9);
        let skews = [
            Params::new(0.0, 0.0),
            Params::new(0.2e-9, 0.1e-9),
            Params::new(-0.2e-9, 0.3e-9),
            Params::new(0.5e-9, -0.1e-9),
        ];

        // Find a seed whose per-lane run-site draws produce a mixed batch:
        // at least one retired lane and at least one survivor. Draws that
        // do not fire never perturb lane arithmetic, so survivors must be
        // bitwise identical to scalar runs without any injector.
        let mut chosen = None;
        for seed in 0..64 {
            let injector = shc_fault::Injector::new(shc_fault::FaultPlan {
                probability: 0.4,
                site: Some(shc_fault::Site::Transient),
                kind: shc_fault::FaultKind::NonConvergence,
                seed,
            });
            let guard = shc_fault::install_scoped(&injector);
            let results = run_lockstep(&circuit, &skews, &base, None).expect("structurally valid");
            drop(guard);
            let failed = results.iter().filter(|r| r.is_err()).count();
            if failed > 0 && failed < skews.len() {
                chosen = Some(results);
                break;
            }
        }
        let results = chosen.expect("some seed yields a mixed batch");
        for (params, result) in skews.iter().zip(results.iter()) {
            match result {
                Err(SpiceError::NewtonDiverged { context, .. }) => {
                    assert_eq!(*context, "transient run (injected fault)");
                }
                Err(other) => panic!("unexpected lane error: {other:?}"),
                Ok(r) => assert_lane_matches_scalar(r, &circuit, params, &base),
            }
        }
    }

    #[test]
    fn newton_site_faults_are_absorbed_by_lane_retries() {
        let circuit = rc_circuit();
        let base = opts(10e-9);
        let skews: Vec<Params> = (0..3)
            .map(|i| Params::new(0.1e-9 * i as f64, 0.0))
            .collect();
        let injector = shc_fault::Injector::new(shc_fault::FaultPlan {
            probability: 0.05,
            site: Some(shc_fault::Site::Newton),
            kind: shc_fault::FaultKind::NonConvergence,
            seed: 7,
        });
        let guard = shc_fault::install_scoped(&injector);
        let results = run_lockstep(&circuit, &skews, &base, None).expect("structurally valid");
        drop(guard);
        assert!(injector.injected() > 0, "plan should fire at this rate");
        for result in &results {
            let r = result.as_ref().expect("retries absorb sparse faults");
            // Final-only lanes keep no step times.
            assert!(r.times().is_empty() && r.stats().steps > 0);
        }
    }

    #[test]
    fn stepping_rounds_allocate_no_matrices() {
        let circuit = inverter_circuit();
        let base = opts(10e-9);
        let skews: Vec<Params> = (0..4)
            .map(|i| Params::new(0.1e-9 * i as f64, -0.05e-9 * i as f64))
            .collect();
        let compiled = CompiledCircuit::compile(&circuit).unwrap();
        let mut engine = Engine::new(&skews, SoaCircuit::new(&compiled, skews.len()), &base);
        engine.init(&circuit, Start::Dc); // DC solves allocate; that's setup, not stepping
        let lap_step = shc_prof::Laps::step();
        let lap_iter = shc_prof::Laps::iter();
        let before = shc_linalg::matrix_allocations();
        engine.run(&lap_step, &lap_iter);
        let after = shc_linalg::matrix_allocations();
        assert_eq!(
            after - before,
            0,
            "lockstep stepping rounds must not allocate matrices"
        );
        let results = engine.into_results();
        // Final-only lanes keep nothing but the final state: no step times.
        assert!(results
            .iter()
            .all(|r| r.as_ref().is_ok_and(|r| r.times().is_empty())));
    }

    #[test]
    fn lanes_resume_from_the_ladder_and_count_executed_work_only() {
        use crate::transient::PrefixCache;
        use shc_obs::Metric;
        let circuit = inverter_circuit();
        let base = opts(12e-9);
        let cache = PrefixCache::new();
        let ladder = TransientAnalysis::new(&circuit, base.clone())
            .with_prefix(&cache)
            .prefix_ladder()
            .expect("inside the resume envelope");
        // One batch under a collector: its results and the executed
        // steps, resumes and resumed steps it reports.
        let run = |skews: &[Params], prefix: Option<&PrefixLadder>| {
            let collector = shc_obs::Collector::new();
            let results = {
                let _guard = shc_obs::install_scoped(&collector);
                run_lockstep(&circuit, skews, &base, prefix).expect("structurally valid batch")
            };
            let snap = collector.snapshot();
            let counts = [
                Metric::TransientSteps,
                Metric::PrefixResumes,
                Metric::PrefixStepsSkipped,
            ]
            .map(|m| snap.counter(m));
            (results, counts)
        };
        let check = |skews: &[Params], results: &[Result<TransientResult>]| {
            for (params, result) in skews.iter().zip(results) {
                let r = result.as_ref().expect("lane converges");
                assert_lane_matches_scalar(r, &circuit, params, &base);
            }
        };

        // Identical lanes: the trunk runs the whole simulation, and its
        // steps count once, not once per lane; from a rung, the rung's
        // steps count zero.
        let same = [Params::new(0.3e-9, 0.2e-9); 4];
        let k = ladder_rung(ladder, &circuit, &same, &base).expect("a rung before the data edge");
        let skipped = ladder.rung_steps(k).expect("rung exists") as u64;
        assert!(skipped > 0);
        let full = TransientAnalysis::new(&circuit, base.clone())
            .run(&same[0])
            .expect("scalar run")
            .stats()
            .steps as u64;
        let (dc, dc_counts) = run(&same, None);
        let (resumed, counts) = run(&same, Some(ladder));
        check(&same, &dc);
        check(&same, &resumed);
        assert_eq!(dc_counts, [full, 0, 0]);
        assert_eq!(counts, [full - skipped, 4, 4 * skipped]);

        // Lanes over two setup skews: the trunk stops at their horizon,
        // and the rung is the one below the earliest lane's.
        let mixed = [
            Params::new(0.3e-9, 0.2e-9),
            Params::new(0.3e-9, 0.6e-9),
            Params::new(0.7e-9, -0.1e-9),
        ];
        let k = ladder_rung(ladder, &circuit, &mixed, &base).expect("a rung before the data edge");
        let skipped = ladder.rung_steps(k).expect("rung exists") as u64;
        let (dc, dc_counts) = run(&mixed, None);
        let (resumed, counts) = run(&mixed, Some(ladder));
        check(&mixed, &dc);
        check(&mixed, &resumed);
        assert_eq!(counts[0], dc_counts[0] - skipped);
        assert_eq!(counts[1..], [3, 3 * skipped]);

        // Another circuit's ladder, or a fault injector, keeps the batch
        // at the DC start.
        let other = inverter_circuit();
        assert_eq!(ladder_rung(ladder, &other, &mixed, &base), None);
        let injector = shc_fault::Injector::new(shc_fault::FaultPlan {
            probability: 0.0,
            site: None,
            kind: shc_fault::FaultKind::NonConvergence,
            seed: 1,
        });
        let _faults = shc_fault::install_scoped(&injector);
        assert_eq!(ladder_rung(ladder, &circuit, &mixed, &base), None);
    }
}
