//! Per-layer metrics of a traced run, per timed pass: the benchmark's own
//! span self times, the `shc-obs` counters and Transient span total, and
//! the `shc-prof` phase tree at `Iter` detail.

use shc_obs::{Metric as Counter, MetricsSnapshot, SpanKind};
use shc_prof::{Phase, ProfileReport};

use crate::spans::{Call, Layer, Spans};
use crate::workloads::Cell;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Value {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Value {
        Value {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything a traced run measured.
pub struct Traced<'a> {
    /// Timed passes run under tracing.
    pub passes: usize,
    /// Operations they attempted (Monte Carlo: samples).
    pub attempted: u64,
    /// Their timed calls.
    pub calls: &'a [Call],
    /// Span self times over those passes.
    pub spans: &'a Spans,
    /// `build` self time of one traced set-up, in seconds.
    pub build_s: f64,
    pub snapshot: &'a MetricsSnapshot,
    pub profile: &'a ProfileReport,
    /// Mean wall seconds of a traced and of an untraced pass.
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    pub threads: usize,
    pub host_cpus: usize,
    pub surface_batched: [f64; 3],
    pub fail_ratio: f64,
}

/// The per-layer metrics, in a fixed order; every workload reports all
/// of them (zero where a layer did no work).
pub fn per_layer(t: &Traced<'_>) -> Vec<Value> {
    let passes = t.passes.max(1) as f64;
    let per_pass = |v: f64| v / passes;
    let counter = |c: Counter| t.snapshot.counter(c) as f64;
    let span_s = |layer: Layer| per_pass(t.spans.self_seconds(layer));
    let sims = |layer: Layer| -> f64 {
        let n: u64 = t
            .calls
            .iter()
            .filter(|c| c.layer == layer)
            .map(|c| c.sims)
            .sum();
        n as f64
    };
    let phase = |p: Phase| t.profile.phase(p.name());

    let transient_busy_ns: u64 = t
        .snapshot
        .spans
        .iter()
        .filter(|e| e.kind == SpanKind::Transient)
        .map(|e| e.nanos)
        .sum();
    let newton_total_ns = phase(Phase::NewtonOverhead).map_or(0, |a| a.total_ns) as f64;

    let mut out = vec![
        Value::new("problem.build_s", "s", t.build_s),
        Value::new("seed.s", "s", span_s(Layer::Seed)),
        Value::new("seed.sims", "count", per_pass(sims(Layer::Seed))),
        Value::new("tracer.s", "s", span_s(Layer::Tracer)),
        Value::new("tracer.sims", "count", per_pass(sims(Layer::Tracer))),
        Value::new(
            "tracer.points",
            "count",
            per_pass(counter(Counter::ContourPoints)),
        ),
        Value::new(
            "tracer.accept_ratio",
            "ratio",
            ratio(
                counter(Counter::ContourPoints),
                counter(Counter::MpnrSolves),
            ),
        ),
        Value::new(
            "tracer.restarts",
            "count",
            per_pass(counter(Counter::TracerRestarts)),
        ),
        Value::new(
            "tracer.alpha_adaptations",
            "count",
            per_pass(counter(Counter::AlphaAdaptations)),
        ),
        Value::new(
            "mpnr.solves",
            "count",
            per_pass(counter(Counter::MpnrSolves)),
        ),
        Value::new(
            "mpnr.iters_per_point",
            "iters/solve",
            ratio(
                counter(Counter::MpnrIterations),
                counter(Counter::MpnrSolves),
            ),
        ),
        Value::new(
            "mpnr.failures",
            "count",
            per_pass(counter(Counter::MpnrFailures)),
        ),
        Value::new(
            "mpnr.fallbacks",
            "count",
            per_pass(counter(Counter::MpnrFallbacks)),
        ),
        Value::new("surface.s", "s", span_s(Layer::Surface)),
        Value::new("surface.sims", "count", per_pass(sims(Layer::Surface))),
    ];
    for (cell, batched) in Cell::ALL.iter().zip(t.surface_batched) {
        out.push(Value::new(
            format!("surface.batched.{}", cell.name()),
            "bool",
            batched,
        ));
    }
    out.extend([
        Value::new("montecarlo.s", "s", span_s(Layer::MonteCarlo)),
        Value::new(
            "montecarlo.sims_per_sample",
            "sims/sample",
            ratio(sims(Layer::MonteCarlo), t.attempted as f64),
        ),
        Value::new("parallel.threads", "count", t.threads as f64),
        Value::new("host_cpus", "count", t.host_cpus as f64),
        Value::new(
            "transient.runs",
            "count",
            per_pass(counter(Counter::TransientRuns)),
        ),
        Value::new(
            "transient.steps",
            "count",
            per_pass(counter(Counter::TransientSteps)),
        ),
        Value::new(
            "transient.steps_per_run",
            "steps/run",
            ratio(
                counter(Counter::TransientSteps),
                counter(Counter::TransientRuns),
            ),
        ),
        Value::new(
            "transient.busy_s",
            "s",
            per_pass(transient_busy_ns as f64 / 1e9),
        ),
        Value::new(
            "transient.lte_rejections",
            "count",
            per_pass(counter(Counter::LteRejections)),
        ),
        Value::new("bank.transient_s", "s", span_s(Layer::Transient)),
        Value::new(
            "newton.iters",
            "count",
            per_pass(counter(Counter::NewtonIterations)),
        ),
        Value::new(
            "newton.iters_per_step",
            "iters/step",
            ratio(
                counter(Counter::NewtonIterations),
                counter(Counter::TransientSteps),
            ),
        ),
        Value::new(
            "newton.recoveries",
            "count",
            per_pass(counter(Counter::NewtonRecoveries)),
        ),
        Value::new(
            "newton.ns_per_iter",
            "ns/iter",
            ratio(newton_total_ns, counter(Counter::NewtonIterations)),
        ),
        Value::new(
            "lu.factorizations",
            "count",
            per_pass(counter(Counter::LuFactorizations)),
        ),
        Value::new(
            "lu.refactors",
            "count",
            per_pass(counter(Counter::LuRefactors)),
        ),
        Value::new("lu.solves", "count", per_pass(counter(Counter::LuSolves))),
        Value::new(
            "linalg.matrix_allocations",
            "count",
            per_pass(counter(Counter::MatrixAllocations)),
        ),
        Value::new(
            "sparse.analyses",
            "count",
            per_pass(counter(Counter::SparseAnalyses)),
        ),
        Value::new(
            "sparse.refactors",
            "count",
            per_pass(counter(Counter::SparseRefactors)),
        ),
        Value::new(
            "sparse.solves",
            "count",
            per_pass(counter(Counter::SparseSolves)),
        ),
        Value::new(
            "sparse.fill_nnz",
            "count",
            per_pass(counter(Counter::SparseFillNnz)),
        ),
    ]);
    for p in Phase::ALL {
        let (self_ns, count, units) = phase(p).map_or((0, 0, 0), |a| (a.self_ns, a.count, a.work));
        let self_ns = self_ns as f64;
        // Per work unit where the phase counts work, else per frame.
        let per_unit = if units > 0 {
            self_ns / units as f64
        } else {
            ratio(self_ns, count as f64)
        };
        out.push(Value::new(
            format!("prof.{}", p.name()),
            "s",
            per_pass(self_ns / 1e9),
        ));
        out.push(Value::new(
            format!("prof.{}.ns_per_unit", p.name()),
            "ns/unit",
            per_unit,
        ));
    }
    out.extend([
        Value::new("harness.s", "s", span_s(Layer::Pass)),
        Value::new("traced.wall_s", "s", t.traced_wall_s),
        Value::new("trace_overhead", "s", t.traced_wall_s - t.untraced_wall_s),
        Value::new("fail_ratio", "ratio", t.fail_ratio),
    ]);
    out
}

/// Sum of the benchmark's span self times per pass over the timed work
/// (every layer but set-up): closes on the traced pass wall time.
pub fn closure_s(spans: &Spans, passes: usize) -> f64 {
    Layer::ALL
        .iter()
        .filter(|&&l| l != Layer::Build)
        .map(|&l| spans.self_seconds(l))
        .sum::<f64>()
        / passes.max(1) as f64
}
