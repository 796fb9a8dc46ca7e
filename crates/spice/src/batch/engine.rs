//! The lockstep stepping engine.
//!
//! [`run_lockstep`] advances `B` same-topology transients through shared
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
//! recovery rules, same sensitivity recursion — so lane results are
//! bitwise identical to scalar runs. A lane that fails terminally
//! *retires*: it keeps its typed [`SpiceError`] and the remaining lanes
//! continue unaffected. A batch whose lanes are structurally mismatched
//! (same dimension, different topology) is split into per-lane singleton
//! batches — an element-major layout with one lane is exactly the scalar
//! layout, so per-lane results are unchanged.

// lint: soa-module
use shc_linalg::{lane_dispatch, multiversioned, LuFactor, Matrix, SoaLu, Vector};

use crate::batch::compile::{CompiledCircuit, SoaCircuit};
use crate::circuit::Circuit;
use crate::dcop;
use crate::newton::{self, NewtonOptions};
use crate::transient::{
    with_lu_fault_retries, TransientOptions, TransientResult, TransientStats, DT_FLOOR_SLACK,
    NEWTON_FAULT_RETRIES, NEWTON_FLOOR_RETRIES, TSTOP_ENDPOINT_SLACK,
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

/// One simulation of a lockstep batch: a circuit (same unknown count as
/// every other lane), its parameter point, and its stop time (overriding
/// the shared options' `tstop`).
#[derive(Debug, Clone, Copy)]
pub struct BatchLane<'a> {
    /// The lane's circuit; all lanes must share one unknown count, and in
    /// practice one topology (each lane is compiled independently, so
    /// only the dimension is structurally required to match).
    pub circuit: &'a Circuit,
    /// Skew parameters for this lane.
    pub params: Params,
    /// Stop time for this lane (lanes may stop at different times; a lane
    /// that reaches its endpoint simply stops stepping).
    pub tstop: f64,
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
    tstop: f64,
    t_prev: f64,
    dt: f64,
    status: LaneStatus,
    stats: TransientStats,
    times: Vec<f64>,
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

/// Row-major `out = a·b` — the exact `Matrix::mul_vec_into` loop.
#[inline]
fn mul_vec(a: &[f64], b: &[f64], n: usize, out: &mut [f64]) {
    for i in 0..n {
        let mut acc = 0.0;
        let row = &a[i * n..(i + 1) * n];
        for (aij, bj) in row.iter().zip(b.iter()) {
            acc += aij * bj;
        }
        out[i] = acc;
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

/// Runs every lane to its stop time in lockstep.
///
/// Returns one `Result` per lane, in lane order: `Ok` with a final-only
/// [`TransientResult`] bitwise identical to the scalar path, or the typed
/// error the scalar run would have produced. The outer `Result` reports
/// *structural* problems (mixed dimensions, an unsupported configuration,
/// an uncompilable lane circuit) before any simulation starts.
///
/// Telemetry: one `Transient` span/phase frame and one `TransientRuns`
/// count of `lanes.len()` covers the whole batch; per-lane steps, Newton
/// iterations, and rejections are observed individually at the end so
/// distribution metrics match `lanes.len()` scalar runs.
///
/// # Errors
///
/// [`SpiceError::BadCircuit`] when the batch is structurally invalid or
/// outside the batched envelope (callers should gate on
/// [`crate::batch::supported`] / [`crate::batch::BatchPolicy`]).
pub fn run_lockstep(
    lanes: &[BatchLane<'_>],
    opts: &TransientOptions,
) -> Result<Vec<Result<TransientResult>>> {
    if lanes.is_empty() {
        return Ok(Vec::new());
    }
    let n = lanes[0].circuit.unknown_count();
    for (l, lane) in lanes.iter().enumerate() {
        if lane.circuit.unknown_count() != n {
            return Err(SpiceError::BadCircuit {
                reason: format!(
                    "lockstep batch requires one dimension: lane 0 has {n} unknowns, lane {l} has {}",
                    lane.circuit.unknown_count()
                ),
            });
        }
        if !(lane.tstop.is_finite() && lane.tstop > 0.0) {
            return Err(SpiceError::BadCircuit {
                reason: format!("lane {l} has non-positive stop time {}", lane.tstop),
            });
        }
        if !crate::batch::supported(lane.circuit, opts) {
            return Err(SpiceError::BadCircuit {
                reason: format!(
                    "lane {l} is outside the batched envelope (needs Backward Euler, fixed \
                     steps, final-only recording, DC start, dense solves, and batchable devices)"
                ),
            });
        }
    }
    let compiled: Vec<CompiledCircuit> = lanes
        .iter()
        .map(|lane| {
            CompiledCircuit::compile(lane.circuit).expect("supported() verified compilability")
        })
        .collect();
    let Some(soa) = SoaCircuit::merge(&compiled) else {
        // Structurally mismatched lanes (same dimension, different
        // topology): split into per-lane singleton batches. A single lane
        // always merges with itself, and one-lane element-major layout is
        // exactly the scalar layout, so per-lane results are bitwise
        // unchanged; only the lockstep sharing (and the one-span-per-batch
        // telemetry grouping) is lost.
        let mut results = Vec::with_capacity(lanes.len());
        for lane in lanes {
            results.extend(run_lockstep(std::slice::from_ref(lane), opts)?);
        }
        return Ok(results);
    };

    // One span + frame + run count per batch; the lap accumulators flush
    // beneath the frame on every exit path, mirroring the scalar run.
    let _span = shc_obs::span(shc_obs::SpanKind::Transient);
    let _frame = shc_prof::enter(shc_prof::Phase::Transient);
    shc_obs::count(shc_obs::Metric::TransientRuns, lanes.len() as u64);
    let lap_step = shc_prof::Laps::step();
    let lap_iter = shc_prof::Laps::iter();
    let _prof_flush = BatchProfFlush {
        step: &lap_step,
        iter: &lap_iter,
    };

    // Shared-prefix trunk: characterization sweeps vary only source
    // timing, so every lane's inputs — device values, waveforms, and skew
    // derivatives — are often provably bitwise identical up to an
    // *agreement horizon* (the earliest time any two lanes' waveforms
    // stop being the same function). On that prefix all lanes perform the
    // identical computation; running it once on a single-lane engine and
    // broadcasting the state is therefore bitwise-exact and skips
    // `b − 1` redundant DC solves and prefix transients. Fault-injection
    // campaigns skip the trunk: sharing would collapse the documented
    // per-lane draw cadence. Lanes with different stop times keep their
    // own step schedules, so they forgo the trunk too.
    let horizon = if lanes.len() >= 2
        && !shc_fault::enabled()
        && lanes
            .iter()
            .all(|lane| lane.tstop.to_bits() == lanes[0].tstop.to_bits())
    {
        let params_v: Vec<Params> = lanes.iter().map(|lane| lane.params).collect();
        soa.agreement_horizon(&params_v)
    } else {
        0.0
    };

    let mut engine = Engine::new(lanes, soa, opts);
    if horizon > 0.0 {
        let trunk_soa =
            SoaCircuit::merge(&compiled[..1]).expect("a single lane always merges with itself");
        let mut trunk = Engine::new(&lanes[..1], trunk_soa, opts);
        trunk.t_limit = horizon;
        trunk.init(&lanes[..1]);
        trunk.run(&lap_step, &lap_iter);
        engine.adopt_trunk(trunk);
    } else {
        engine.init(lanes);
    }
    engine.run(&lap_step, &lap_iter);
    engine.flush_observations();
    Ok(engine.into_results())
}

/// The SoA state of one batch. All numeric buffers are flat `Vec<f64>`
/// in *element-major* blocks (`element·b + lane`), allocated once in
/// [`Engine::new`]; the stepping rounds are allocation-free apart from
/// the amortized per-step `times` push.
///
/// Buffer geometry (`b` lanes, `n` unknowns): plain blocks are `n·b`
/// (vectors) / `n²·b` (matrices); the blocks fed to
/// [`SoaCircuit::assemble_all`] carry one extra *spill* row/cell
/// absorbing ground stamps — `x`, `q`, `f` are `(n+1)·b` and `c`, `g`
/// are `(n²+1)·b`. `x`'s spill row is the ground potential and must stay
/// all `+0.0`; no kernel writes it. The sensitivity history `c_prev` is
/// *lane-major* (the recursion consumes one lane at a time).
struct Engine<'e> {
    n: usize,
    n_sens: usize,
    b: usize,
    /// Hard stepping ceiling: a lane only attempts a step whose endpoint
    /// is strictly below this. The shared-prefix trunk runs with the
    /// batch's agreement horizon here; a full run uses `+∞`. Pausing at
    /// the ceiling never alters the arithmetic of the steps taken.
    t_limit: f64,
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
    /// Previous accepted step's `C` per lane, lane-major (sensitivity
    /// recursion only; de-interleaved from `c` on step acceptance).
    /// soa: lane-major, state
    c_prev: Vec<f64>,
    lu: SoaLu,
    /// Sensitivity-step factor, refactored for each accepted lane in
    /// turn (factor and solves complete within one lane's turn, like the
    /// single-lane scratch below).
    sens_lu: LuFactor,
    /// Sensitivity states, `lanes·n_sens` stacked n-vectors, lane-major.
    /// soa: lane-major, state
    m: Vec<f64>,
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
    // Single-lane scratch (retry starts and sensitivity temporaries are
    // consumed within one lane's turn, so one buffer serves all lanes).
    start: Vec<f64>,
    dfdp: Vec<f64>,
    sens_rhs: Vector,
    sens_tmp: Vector,
    jac_s: Matrix,
}

impl<'e> Engine<'e> {
    fn new(lanes: &[BatchLane<'_>], soa: SoaCircuit, opts: &'e TransientOptions) -> Engine<'e> {
        let n = soa.dim();
        let n_sens = opts.sensitivities.len();
        let b = lanes.len();
        let lane_states = lanes
            .iter()
            .map(|lane| {
                let dt = opts.dt.min(lane.tstop);
                let cap = (lane.tstop / dt).ceil() as usize + 2;
                LaneState {
                    params: lane.params,
                    tstop: lane.tstop,
                    t_prev: 0.0,
                    dt,
                    status: LaneStatus::Active,
                    stats: TransientStats::default(),
                    times: Vec::with_capacity(cap),
                    err: None,
                    stepping: false,
                    t_new: 0.0,
                    dt_eff: 0.0,
                    nw_active: false,
                    nw_iters: 0,
                    nw_err: None,
                    nw_last_norm: f64::INFINITY,
                }
            })
            .collect();
        Engine {
            n,
            n_sens,
            b,
            t_limit: f64::INFINITY,
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
            c_prev: vec![0.0; if n_sens > 0 { b * n * n } else { 0 }],
            lu: SoaLu::new(b, n),
            sens_lu: LuFactor::identity(n),
            m: vec![0.0; b * n_sens * n],
            params_v: lanes.iter().map(|lane| lane.params).collect(),
            t_v: vec![0.0; b],
            dt_v: vec![0.0; b],
            active: vec![false; b],
            errs: vec![None; b],
            bad: vec![0.0; b],
            norms: vec![0.0; b],
            start: vec![0.0; n],
            dfdp: vec![0.0; n],
            sens_rhs: Vector::zeros(n),
            sens_tmp: Vector::zeros(n),
            jac_s: Matrix::zeros(n, n),
        }
    }

    fn fail(&mut self, l: usize, e: SpiceError) {
        let lane = &mut self.lanes[l];
        lane.status = LaneStatus::Failed;
        lane.err = Some(e);
        lane.stepping = false;
    }

    /// Per-lane setup — run-site fault draws and scalar DC operating
    /// points in lane order (preserving the scalar per-run draw cadence)
    /// — then one SoA assembly for the `t = 0` history stamps (`q_prev`,
    /// `c_prev`). Assembly draws nothing, so batching it after the
    /// per-lane loop leaves the cadence untouched.
    fn init(&mut self, input: &[BatchLane<'_>]) {
        let n = self.n;
        let b = self.b;
        for (l, lane_in) in input.iter().enumerate().take(self.lanes.len()) {
            if let Some(e) = injected_run_fault(self.opts) {
                self.fail(l, e);
                continue;
            }
            let x0 = match dcop::solve_dc(lane_in.circuit, &self.lanes[l].params, &self.opts.dc) {
                Ok(dc) => dc.x,
                Err(e) => {
                    self.fail(l, e);
                    continue;
                }
            };
            for (i, v) in x0.as_slice().iter().enumerate() {
                self.x_prev[soa_idx(i, l, b)] = *v;
            }
        }
        {
            let Engine {
                soa,
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
            t_v.fill(0.0);
            soa.assemble_all(x, t_v, params_v, q, f, c, g);
        }
        self.q_prev.copy_from_slice(&self.q[..n * b]);
        for l in 0..self.lanes.len() {
            if self.lanes[l].status != LaneStatus::Active {
                continue;
            }
            if self.n_sens > 0 {
                let m0 = l * n * n;
                for idx in 0..n * n {
                    self.c_prev[m0 + idx] = self.c[idx * b + l];
                }
            }
            self.lanes[l].times.push(0.0);
        }
    }

    // lint: trunk-fence
    /// Adopts a finished single-lane *trunk* engine's state into every
    /// lane of this batch, replacing [`Engine::init`].
    ///
    /// The trunk ran lane 0's simulation over the prefix on which every
    /// lane's inputs are provably bitwise identical (the agreement
    /// horizon), so each lane's state after that prefix *is* the trunk's
    /// state: histories, sensitivities, statistics, and accepted times
    /// are broadcast verbatim. A trunk that finished (`Done`) or retired
    /// (`Failed`) determines every lane's outcome the same way, because
    /// each lane's scalar run would have performed the identical
    /// computation.
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
        if self.n_sens > 0 {
            let (sn, nn) = (self.n_sens * n, n * n);
            for l in 0..b {
                self.m[l * sn..(l + 1) * sn].copy_from_slice(&trunk.m);
                self.c_prev[l * nn..(l + 1) * nn].copy_from_slice(&trunk.c_prev);
            }
        }
        let src = &trunk.lanes[0];
        for lane in self.lanes.iter_mut() {
            lane.t_prev = src.t_prev;
            lane.dt = src.dt;
            lane.status = src.status;
            lane.stats = src.stats;
            lane.times = src.times.clone();
            lane.err = src.err.clone();
        }
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
                    sens_tmp,
                    x_prev,
                    ..
                } = self;
                for (i, v) in sens_tmp.iter_mut().enumerate() {
                    *v = x_prev[soa_idx(i, l, b)];
                }
                newton::jitter_slice(start, sens_tmp.as_slice(), attempt);
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
    /// retirement, then re-stamp + sensitivity recursion for accepted
    /// steps.
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
        // `C_i`/`G_i`/`q_i` for the history and sensitivity recursion).
        // Retired lanes' blocks are clobbered with garbage, which is fine:
        // the history rotation is masked and they never read them.
        let mut accepted = 0u64;
        if self.lanes.iter().any(|lane| lane.stepping) {
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
            for l in 0..self.lanes.len() {
                if !self.lanes[l].stepping {
                    continue;
                }
                if self.n_sens > 0 {
                    if let Err(e) = self.lane_sens(l) {
                        self.fail(l, e);
                        continue;
                    }
                }
                accepted += 1;
            }
        }
        lap_step.end_region(LAP_SENS);
        lap_step.bump(LAP_SENS, accepted, accepted * self.n_sens as u64);
    }

    /// The Backward-Euler sensitivity recursion for one accepted lane:
    /// `(C_i + dt·G_i)·m_i = C_{i−1}·m_{i−1} − dt·∂f/∂p`, factored once
    /// per step and back-substituted per parameter — the scalar path's
    /// arithmetic on lane blocks.
    fn lane_sens(&mut self, l: usize) -> Result<()> {
        let n = self.n;
        let b = self.b;
        let n_sens = self.n_sens;
        let dt_eff = self.lanes[l].dt_eff;
        let t_new = self.lanes[l].t_new;
        let (m0, m1) = (l * n * n, (l + 1) * n * n);
        {
            // Gather the lane's step Jacobian from the element-major
            // blocks into dense row-major scratch (the scalar `C + dt·G`
            // arithmetic on this lane's values, bit for bit).
            let Engine { jac_s, c, g, .. } = self;
            for row in 0..n {
                for col in 0..n {
                    let idx = row * n + col;
                    jac_s[(row, col)] = c[idx * b + l] + dt_eff * g[idx * b + l];
                }
            }
        }
        {
            let Engine { sens_lu, jac_s, .. } = self;
            with_lu_fault_retries(|| sens_lu.refactor(jac_s))?;
        }
        for k in 0..n_sens {
            let param = self.opts.sensitivities[k];
            let s0 = (l * n_sens + k) * n;
            {
                let Engine {
                    soa, lanes, dfdp, ..
                } = self;
                soa.assemble_dfdp(l, t_new, &lanes[l].params, param, dfdp);
            }
            {
                let Engine {
                    c_prev,
                    m,
                    sens_rhs,
                    dfdp,
                    ..
                } = self;
                mul_vec(&c_prev[m0..m1], &m[s0..s0 + n], n, sens_rhs.as_mut_slice());
                for (r, d) in sens_rhs.iter_mut().zip(dfdp.iter()) {
                    *r += -dt_eff * d;
                }
            }
            {
                let Engine {
                    sens_lu,
                    sens_rhs,
                    sens_tmp,
                    ..
                } = self;
                with_lu_fault_retries(|| sens_lu.solve_into(sens_rhs, sens_tmp))?;
            }
            self.m[s0..s0 + n].copy_from_slice(self.sens_tmp.as_slice());
        }
        Ok(())
    }

    /// End-of-round bookkeeping for accepted lanes: statistics, time
    /// record, history rotation, and fixed-step dt recovery.
    fn finish_round(&mut self, lap_step: &shc_prof::Laps) {
        let n = self.n;
        let b = self.b;
        let opts_dt = self.opts.dt;
        let has_sens = self.n_sens > 0;
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
        let Engine {
            lanes, c, c_prev, ..
        } = self;
        for (l, lane) in lanes.iter_mut().enumerate() {
            if !lane.stepping {
                continue;
            }
            lane.stepping = false;
            lane.stats.steps += 1;
            // lint: allow(hot-loop-alloc, reason = "amortized: one push per accepted step into a capacity-reserved Vec")
            lane.times.push(lane.t_new);
            if has_sens {
                // De-interleave this lane's accepted-step `C` into the
                // lane-major sensitivity history.
                let m0 = l * n * n;
                for idx in 0..n * n {
                    c_prev[m0 + idx] = c[idx * b + l];
                }
            }
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
        loop {
            let mut any = false;
            for lane in self.lanes.iter_mut() {
                lane.stepping = false;
                if lane.status != LaneStatus::Active {
                    continue;
                }
                if lane.t_prev < lane.tstop - TSTOP_ENDPOINT_SLACK * lane.tstop.max(1.0) {
                    let t_new = (lane.t_prev + lane.dt).min(lane.tstop);
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
    /// metrics match `lanes` individual scalar runs.
    fn flush_observations(&self) {
        let total_steps: u64 = self.lanes.iter().map(|l| l.stats.steps as u64).sum();
        shc_prof::add_work(total_steps);
        if shc_obs::enabled() {
            for lane in &self.lanes {
                shc_obs::observe(shc_obs::Metric::TransientSteps, lane.stats.steps as u64);
                shc_obs::observe(
                    shc_obs::Metric::NewtonIterations,
                    lane.stats.newton_iterations as u64,
                );
                shc_obs::observe(
                    shc_obs::Metric::LteRejections,
                    lane.stats.rejected_steps as u64,
                );
            }
        }
    }

    fn into_results(self) -> Vec<Result<TransientResult>> {
        let Engine {
            n,
            n_sens,
            b,
            opts,
            lanes,
            x_prev,
            m,
            ..
        } = self;
        lanes
            .into_iter()
            .enumerate()
            .map(|(l, lane)| match lane.status {
                LaneStatus::Failed => Err(lane.err.expect("failed lane carries its error")),
                LaneStatus::Done | LaneStatus::Active => {
                    let final_state = Vector::from_iter((0..n).map(|i| x_prev[soa_idx(i, l, b)]));
                    let sens = (0..n_sens)
                        .map(|k| {
                            let s0 = (l * n_sens + k) * n;
                            (opts.sensitivities[k], Vector::from_slice(&m[s0..s0 + n]))
                        })
                        .collect();
                    Ok(TransientResult::from_parts(
                        lane.times,
                        final_state,
                        sens,
                        lane.stats,
                    ))
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
    /// parameters matter and the sensitivities are nonzero.
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

    fn opts(tstop: f64, sens: bool) -> TransientOptions {
        let mut b = TransientOptions::builder(tstop)
            .dt(tstop / 200.0)
            .record(RecordMode::FinalOnly);
        if sens {
            b = b.sensitivities(&Param::ALL);
        }
        b.build()
    }

    fn assert_lane_matches_scalar(
        batched: &TransientResult,
        circuit: &Circuit,
        params: &Params,
        lane_opts: TransientOptions,
    ) {
        let scalar = TransientAnalysis::new(circuit, lane_opts.clone())
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
        for p in lane_opts.sensitivities.iter() {
            let (mb, ms) = (
                batched.final_sensitivity(*p).expect("batched sens"),
                scalar.final_sensitivity(*p).expect("scalar sens"),
            );
            for i in 0..mb.len() {
                assert_eq!(mb[i].to_bits(), ms[i].to_bits(), "sens {p:?}[{i}]");
            }
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
        let base = opts(20e-9, true);
        let lanes: Vec<BatchLane<'_>> = [
            (Params::new(0.0, 0.0), 20e-9),
            (Params::new(0.4e-9, -0.2e-9), 20e-9),
            (Params::new(-0.3e-9, 0.5e-9), 14e-9), // shorter lane: early finish
            (Params::new(1.0e-9, 1.0e-9), 20e-9),
        ]
        .iter()
        .map(|&(params, tstop)| BatchLane {
            circuit: &circuit,
            params,
            tstop,
        })
        .collect();
        let results = run_lockstep(&lanes, &base).expect("structurally valid batch");
        assert_eq!(results.len(), lanes.len());
        for (lane, result) in lanes.iter().zip(results.iter()) {
            let r = result.as_ref().expect("lane converges");
            let lane_opts = TransientOptions {
                tstop: lane.tstop,
                dt: base.dt.min(lane.tstop),
                ..base.clone()
            };
            assert_lane_matches_scalar(r, lane.circuit, &lane.params, lane_opts);
        }
    }

    #[test]
    fn inverter_lanes_are_bitwise_identical_to_scalar() {
        let circuit = inverter_circuit();
        let base = opts(12e-9, true);
        let skews = [
            Params::new(0.0, 0.0),
            Params::new(0.6e-9, -0.4e-9),
            Params::new(-0.5e-9, 0.3e-9),
        ];
        let lanes: Vec<BatchLane<'_>> = skews
            .iter()
            .map(|&params| BatchLane {
                circuit: &circuit,
                params,
                tstop: base.tstop,
            })
            .collect();
        let results = run_lockstep(&lanes, &base).expect("structurally valid batch");
        for (lane, result) in lanes.iter().zip(results.iter()) {
            let r = result.as_ref().expect("lane converges");
            assert_lane_matches_scalar(r, lane.circuit, &lane.params, base.clone());
        }
    }

    #[test]
    fn identical_lanes_share_the_whole_run_and_match_scalar() {
        // Bitwise-equal skews give an unbounded agreement horizon: the
        // trunk carries every lane to tstop and the wide engine only
        // adopts the finished state. Results must still be bitwise equal
        // to the scalar path, stats included.
        let circuit = inverter_circuit();
        let base = opts(12e-9, true);
        let params = Params::new(0.3e-9, 0.2e-9);
        let lanes: Vec<BatchLane<'_>> = (0..4)
            .map(|_| BatchLane {
                circuit: &circuit,
                params,
                tstop: base.tstop,
            })
            .collect();
        let results = run_lockstep(&lanes, &base).expect("structurally valid batch");
        assert_eq!(results.len(), 4);
        for result in &results {
            let r = result.as_ref().expect("lane converges");
            assert_lane_matches_scalar(r, &circuit, &params, base.clone());
        }
    }

    #[test]
    fn mixed_topology_batch_falls_back_to_singletons() {
        // Same unknown count, different topology: the RC divider and a
        // two-resistor divider both have 2 unknowns + 1 branch current,
        // but their device lists differ, so `SoaCircuit::merge` refuses
        // and `run_lockstep` must split into bitwise-preserving singleton
        // batches rather than rejecting the batch.
        let rc = rc_circuit();
        let mut rr = Circuit::new();
        let vin = rr.node("in");
        let vout = rr.node("out");
        rr.add(VoltageSource::new("Vd", vin, Circuit::GROUND, pulse()));
        rr.add(Resistor::new("R1", vin, vout, 10e3));
        rr.add(Resistor::new("R2", vout, Circuit::GROUND, 20e3));
        assert_eq!(rc.unknown_count(), rr.unknown_count());

        let base = opts(16e-9, true);
        let lanes = [
            BatchLane {
                circuit: &rc,
                params: Params::new(0.2e-9, -0.1e-9),
                tstop: base.tstop,
            },
            BatchLane {
                circuit: &rr,
                params: Params::new(-0.3e-9, 0.4e-9),
                tstop: base.tstop,
            },
        ];
        let results = run_lockstep(&lanes, &base).expect("mixed topology splits, not rejects");
        assert_eq!(results.len(), 2);
        for (lane, result) in lanes.iter().zip(results.iter()) {
            let r = result.as_ref().expect("lane converges");
            assert_lane_matches_scalar(r, lane.circuit, &lane.params, base.clone());
        }
    }

    #[test]
    fn mixed_dimension_batch_is_rejected() {
        let rc = rc_circuit();
        let inv = inverter_circuit();
        let base = opts(10e-9, false);
        let lanes = [
            BatchLane {
                circuit: &rc,
                params: Params::default(),
                tstop: 10e-9,
            },
            BatchLane {
                circuit: &inv,
                params: Params::default(),
                tstop: 10e-9,
            },
        ];
        let err = run_lockstep(&lanes, &base).expect_err("mixed dimensions");
        assert!(matches!(err, SpiceError::BadCircuit { .. }));
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let base = opts(10e-9, false);
        let results = run_lockstep(&[], &base).expect("empty batch is fine");
        assert!(results.is_empty());
    }

    #[test]
    fn injected_lane_fault_retires_lane_and_leaves_survivors_bitwise() {
        let circuit = rc_circuit();
        let base = opts(16e-9, true);
        let skews = [
            Params::new(0.0, 0.0),
            Params::new(0.2e-9, 0.1e-9),
            Params::new(-0.2e-9, 0.3e-9),
            Params::new(0.5e-9, -0.1e-9),
        ];
        let lanes: Vec<BatchLane<'_>> = skews
            .iter()
            .map(|&params| BatchLane {
                circuit: &circuit,
                params,
                tstop: base.tstop,
            })
            .collect();

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
            let results = run_lockstep(&lanes, &base).expect("structurally valid");
            drop(guard);
            let failed = results.iter().filter(|r| r.is_err()).count();
            if failed > 0 && failed < lanes.len() {
                chosen = Some(results);
                break;
            }
        }
        let results = chosen.expect("some seed yields a mixed batch");
        for (lane, result) in lanes.iter().zip(results.iter()) {
            match result {
                Err(SpiceError::NewtonDiverged { context, .. }) => {
                    assert_eq!(*context, "transient run (injected fault)");
                }
                Err(other) => panic!("unexpected lane error: {other:?}"),
                Ok(r) => {
                    assert_lane_matches_scalar(r, lane.circuit, &lane.params, base.clone());
                }
            }
        }
    }

    #[test]
    fn newton_site_faults_are_absorbed_by_lane_retries() {
        let circuit = rc_circuit();
        let base = opts(10e-9, false);
        let lanes: Vec<BatchLane<'_>> = (0..3)
            .map(|i| BatchLane {
                circuit: &circuit,
                params: Params::new(0.1e-9 * i as f64, 0.0),
                tstop: base.tstop,
            })
            .collect();
        let injector = shc_fault::Injector::new(shc_fault::FaultPlan {
            probability: 0.05,
            site: Some(shc_fault::Site::Newton),
            kind: shc_fault::FaultKind::NonConvergence,
            seed: 7,
        });
        let guard = shc_fault::install_scoped(&injector);
        let results = run_lockstep(&lanes, &base).expect("structurally valid");
        drop(guard);
        assert!(injector.injected() > 0, "plan should fire at this rate");
        for result in &results {
            let r = result.as_ref().expect("retries absorb sparse faults");
            assert_eq!(r.times().len(), r.stats().steps + 1);
        }
    }

    #[test]
    fn stepping_rounds_allocate_no_matrices() {
        let circuit = inverter_circuit();
        let base = opts(10e-9, true);
        let lanes: Vec<BatchLane<'_>> = (0..4)
            .map(|i| BatchLane {
                circuit: &circuit,
                params: Params::new(0.1e-9 * i as f64, -0.05e-9 * i as f64),
                tstop: base.tstop,
            })
            .collect();
        let compiled: Vec<CompiledCircuit> = lanes
            .iter()
            .map(|lane| CompiledCircuit::compile(lane.circuit).unwrap())
            .collect();
        let soa = SoaCircuit::merge(&compiled).expect("same topology merges");
        let mut engine = Engine::new(&lanes, soa, &base);
        engine.init(&lanes); // DC solves allocate; that's setup, not stepping
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
        assert!(results.iter().all(|r| r.is_ok()));
    }
}
