//! The four workloads. Each builds its fixtures (the timed set-up), runs
//! one fixed unit of work per timed pass, and checks every pass's outputs
//! after the timed region. Inputs come from the `--seed` only.

use shc_cells::{
    c2mos_register_with, register_bank_with, tg_register_with, tspc_register_with, ClockSpec,
    Register, Technology, C2MOS_CLKB_SKEW,
};
use shc_core::montecarlo::{self, MonteCarloOptions, SampleResult};
use shc_core::{
    seed, surface, tracer, BatchPolicy, CharacterizationProblem, OutputSurface, Parallelism,
    SeedOptions, SurfaceOptions, TracerOptions,
};
use shc_linalg::Vector;
use shc_spice::batch::DEFAULT_LANES;
use shc_spice::transient::{RecordMode, TransientAnalysis, TransientOptions};
use shc_spice::waveform::{Param, Params};
use shc_spice::SolverChoice;

use crate::spans::{Layer, Spans};

/// Contour resolution and surface grid size: the paper's n = 40.
pub const N: usize = 40;
/// Degradation criteria the seed picks from: a narrow band around the
/// paper's 10%. Each level has stored reference contours.
pub const DEGRADATION_LEVELS: [f64; 5] = [0.095, 0.0975, 0.10, 0.1025, 0.105];
/// Relative tolerance of the contour check (the `verify_golden` gate's).
const CONTOUR_RTOL: f64 = 1e-6;
/// Absolute floor of the contour check, in seconds.
const CONTOUR_ATOL: f64 = 1e-18;
/// Reference contours, one block per (degradation level, cell); written
/// by `--write-references`.
const REFERENCES: &str = include_str!("../references/contours.txt");
/// Grid cells per cell re-evaluated on the scalar path by the surface check.
const SURFACE_CHECK_CELLS: usize = 8;
/// Monte Carlo runs per pass. Each run warm-starts its samples from its
/// own first sample, so one run's cost swings with where that anchor
/// lands; several runs per pass average the anchors out.
const MC_RUNS: usize = 4;
/// Process samples per Monte Carlo run.
const MC_SAMPLES: usize = 16;
/// Register-bank width: 228 unknowns, on the sparse side of `Auto`.
const BANK_BITS: usize = 32;
/// Capture transients per bank pass.
const BANK_TRANSIENTS: usize = 4;
/// Label of the bank's calls.
const BANK_LABEL: &str = "bank32";
/// Largest final-state deviation allowed between sparse and dense, in volts.
const BANK_DENSE_TOL: f64 = 1e-9;

/// The workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["trace-paper", "surface-paper", "mc-threads", "bank-sparse"];

/// A pass's operation accounting. Its simulations and times are in the
/// [`Spans`] calls it made.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Operations attempted (contour points, grid cells, samples, runs).
    pub attempted: u64,
    /// Operations that errored or came back incomplete.
    pub failed: u64,
}

/// Result of the output checks: failed operations and why.
#[derive(Debug, Default)]
pub struct Checked {
    /// Operations whose outputs did not pass a check.
    pub failed: u64,
    /// One line per distinct problem found.
    pub notes: Vec<String>,
}

impl Checked {
    fn fail(&mut self, n: u64, note: String) {
        self.failed += n;
        self.notes.push(note);
    }
}

/// A workload with its fixtures built.
pub trait Workload {
    /// Runs one timed pass, timing each public call through `spans`, and
    /// keeps its outputs for [`Workload::check`].
    fn pass(&mut self, spans: &mut Spans) -> Pass;
    /// Checks the outputs of every pass run so far.
    fn check(&self) -> Checked;
    /// Worker threads the workload's sweeps fan out over.
    fn threads(&self) -> usize {
        1
    }
    /// Per cell (in [`Cell::ALL`] order): 1 if this workload sweeps the
    /// cell's surface on the batched engine, else 0.
    fn surface_batched(&self) -> [f64; 3] {
        [0.0; 3]
    }
}

/// Builds the named workload's fixtures for `seed`.
///
/// # Errors
///
/// Unknown workload names and fixture-construction failures.
pub fn setup(name: &str, seed: u64, spans: &mut Spans) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "trace-paper" => Box::new(TracePaper::setup(seed, spans)?),
        "surface-paper" => Box::new(SurfacePaper::setup(seed, spans)?),
        "mc-threads" => Box::new(McThreads::setup(seed, spans)?),
        "bank-sparse" => Box::new(BankSparse::setup(seed, spans)?),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {NAMES:?})"
            ))
        }
    })
}

/// SplitMix64 over `(seed, stream)`: independent, order-free draws.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `(seed, stream)`.
fn unit(seed: u64, stream: u64) -> f64 {
    (mix(seed, stream) >> 11) as f64 / (1u64 << 53) as f64
}

/// The degradation level index `seed` picks.
pub fn level_of(seed: u64) -> usize {
    (mix(seed, 0) % DEGRADATION_LEVELS.len() as u64) as usize
}

/// The paper's cells (plus the TG flip-flop), on the paper clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    Tspc,
    C2mos,
    Tg,
}

impl Cell {
    pub const ALL: [Cell; 3] = [Cell::Tspc, Cell::C2mos, Cell::Tg];

    pub fn name(self) -> &'static str {
        match self {
            Cell::Tspc => "tspc",
            Cell::C2mos => "c2mos",
            Cell::Tg => "tg",
        }
    }

    fn register(self) -> Register {
        let tech = Technology::default_250nm();
        let clock = ClockSpec::paper();
        match self {
            Cell::Tspc => tspc_register_with(&tech, clock),
            Cell::C2mos => c2mos_register_with(&tech, clock, C2MOS_CLKB_SKEW),
            Cell::Tg => tg_register_with(&tech, clock),
        }
    }

    /// Builds the characterization problem inside a `build` span.
    fn problem(
        self,
        degradation: f64,
        batch: BatchPolicy,
        spans: &mut Spans,
    ) -> Result<CharacterizationProblem, String> {
        let register = self.register();
        spans
            .call(Layer::Build, self.name(), || {
                let built = CharacterizationProblem::builder(register)
                    .degradation(degradation)
                    .batch(batch)
                    .build();
                let calibration = built.as_ref().map_or(0, |p| p.calibration_simulations());
                (built, calibration as u64)
            })
            .map_err(|e| format!("{}: problem build failed: {e}", self.name()))
    }
}

/// Seeds and traces one `N`-point contour of `cell`; returns the points
/// traced (the seed first), none if seeding or tracing errored.
fn seed_and_trace(
    cell: Cell,
    problem: &CharacterizationProblem,
    spans: &mut Spans,
) -> Vec<(f64, f64)> {
    problem.reset_simulation_count();
    let seeded = spans.call(Layer::Seed, cell.name(), || {
        let found = seed::find_first_point(problem, &SeedOptions::default());
        (found, problem.simulation_count() as u64)
    });
    let Ok(first) = seeded else {
        return Vec::new();
    };
    problem.reset_simulation_count();
    let traced = spans.call(Layer::Tracer, cell.name(), || {
        let contour = tracer::trace(problem, first.params, N, &TracerOptions::default());
        (contour, problem.simulation_count() as u64)
    });
    traced.map_or_else(
        |_| Vec::new(),
        |c| c.points().iter().map(|p| (p.tau_s, p.tau_h)).collect(),
    )
}

/// `trace-paper`: seed + 40-point Euler-Newton trace of each cell.
struct TracePaper {
    level: usize,
    problems: Vec<(Cell, CharacterizationProblem)>,
    /// Per pass, per cell: the traced points.
    runs: Vec<Vec<Vec<(f64, f64)>>>,
}

impl TracePaper {
    fn setup(seed: u64, spans: &mut Spans) -> Result<TracePaper, String> {
        let level = level_of(seed);
        let problems = Cell::ALL
            .iter()
            .map(|&cell| {
                let problem = cell.problem(DEGRADATION_LEVELS[level], BatchPolicy::Auto, spans)?;
                Ok((cell, problem))
            })
            .collect::<Result<_, String>>()?;
        Ok(TracePaper {
            level,
            problems,
            runs: Vec::new(),
        })
    }
}

impl Workload for TracePaper {
    fn pass(&mut self, spans: &mut Spans) -> Pass {
        let mut pass = Pass::default();
        let mut contours = Vec::with_capacity(self.problems.len());
        for (cell, problem) in &self.problems {
            let points = seed_and_trace(*cell, problem, spans);
            pass.attempted += N as u64;
            pass.failed += N.saturating_sub(points.len()) as u64;
            contours.push(points);
        }
        self.runs.push(contours);
        pass
    }

    fn check(&self) -> Checked {
        let mut checked = Checked::default();
        for (c, (cell, _)) in self.problems.iter().enumerate() {
            let Some(reference) = reference_contour(self.level, cell.name()) else {
                let n = (self.runs.len() * N) as u64;
                checked.fail(n, format!("{}: no reference contour", cell.name()));
                continue;
            };
            for (k, run) in self.runs.iter().enumerate() {
                let bad = run[c]
                    .iter()
                    .zip(&reference)
                    .filter(|(&(s, h), &(rs, rh))| !close(s, rs) || !close(h, rh))
                    .count();
                if bad > 0 {
                    checked.fail(
                        bad as u64,
                        format!(
                            "{} pass {k}: {bad} contour points off the reference",
                            cell.name()
                        ),
                    );
                }
            }
        }
        checked
    }
}

/// Whether `measured` matches `reference` within the golden tolerance.
fn close(measured: f64, reference: f64) -> bool {
    (measured - reference).abs() <= CONTOUR_RTOL * reference.abs() + CONTOUR_ATOL
}

/// The stored reference contour of `cell` at degradation level `level`.
fn reference_contour(level: usize, cell: &str) -> Option<Vec<(f64, f64)>> {
    let mut points = Vec::new();
    for line in REFERENCES.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [lv, name, _, s, h] = fields[..] {
            if lv.parse() == Ok(level) && name == cell {
                points.push((s.parse().ok()?, h.parse().ok()?));
            }
        }
    }
    (points.len() == N).then_some(points)
}

/// Traces every cell at every degradation level and renders the
/// reference file (`level cell index tau_s tau_h` per line).
///
/// # Errors
///
/// Fixture-construction failures and incomplete traces.
pub fn render_references() -> Result<String, String> {
    let mut out = String::from(
        "# Reference contours for the trace-paper workload: one line per point,\n\
         # `level cell index tau_s tau_h` (seconds, shortest round-trip digits).\n\
         # Regenerate with `--write-references` only when a change is meant to\n\
         # move the contours.\n",
    );
    let mut spans = Spans::quiet();
    for (level, &degradation) in DEGRADATION_LEVELS.iter().enumerate() {
        for cell in Cell::ALL {
            let problem = cell.problem(degradation, BatchPolicy::Auto, &mut spans)?;
            let points = seed_and_trace(cell, &problem, &mut spans);
            if points.len() != N {
                return Err(format!(
                    "{} level {level}: traced {} points",
                    cell.name(),
                    points.len()
                ));
            }
            for (i, (s, h)) in points.iter().enumerate() {
                out.push_str(&format!("{level} {} {i} {s:e} {h:e}\n", cell.name()));
            }
        }
    }
    Ok(out)
}

/// Fixed surface windows per cell, `(tau_s range, tau_h range)` in
/// seconds: the 40-point contour at 10% degradation plus 20% padding.
const WINDOWS: [((f64, f64), (f64, f64)); 3] = [
    ((-113.45e-12, 1787.45e-12), (19.16e-12, 160.91e-12)),
    ((-146.36e-12, 2199.41e-12), (90.33e-12, 235.25e-12)),
    ((-185.69e-12, 1972.36e-12), (15.02e-12, 147.32e-12)),
];

/// `surface-paper`: the 40×40 brute-force output surface of each cell.
struct SurfacePaper {
    problems: Vec<(Cell, CharacterizationProblem, SurfaceOptions)>,
    /// Grid cells `(i, j)` the check re-evaluates on the scalar path.
    samples: Vec<(usize, usize)>,
    /// Per pass, per cell: the surface (`None` if generation errored).
    runs: Vec<Vec<Option<OutputSurface>>>,
}

impl SurfacePaper {
    fn setup(seed: u64, spans: &mut Spans) -> Result<SurfacePaper, String> {
        let mut problems = Vec::with_capacity(Cell::ALL.len());
        for (k, (cell, ((s0, s1), (h0, h1)))) in Cell::ALL.iter().zip(WINDOWS).enumerate() {
            let problem = cell.problem(0.10, BatchPolicy::Auto, spans)?;
            // Shift the window by a seeded fraction of one grid cell.
            let ds = unit(seed, 1 + 2 * k as u64) * (s1 - s0) / (N - 1) as f64;
            let dh = unit(seed, 2 + 2 * k as u64) * (h1 - h0) / (N - 1) as f64;
            let grid = SurfaceOptions {
                tau_s_range: (s0 + ds, s1 + ds),
                tau_h_range: (h0 + dh, h1 + dh),
                n: N,
                parallelism: Parallelism::Serial,
            };
            problems.push((*cell, problem, grid));
        }
        let samples = (0..SURFACE_CHECK_CELLS as u64)
            .map(|k| {
                let cell = mix(seed, 100 + k) % (N * N) as u64;
                ((cell / N as u64) as usize, (cell % N as u64) as usize)
            })
            .collect();
        Ok(SurfacePaper {
            problems,
            samples,
            runs: Vec::new(),
        })
    }
}

/// Whether a serial sweep of `problem` takes the batched engine: the
/// same public test `evaluate_batch` applies, on the same options.
fn sweeps_batched(problem: &CharacterizationProblem) -> bool {
    let opts = TransientOptions::builder(problem.t_f())
        .dt(problem.dt())
        .integrator(problem.integrator())
        .solver(problem.solver())
        .record(RecordMode::FinalOnly)
        .build();
    problem
        .batch()
        .use_batched(problem.register().circuit(), &opts, DEFAULT_LANES)
}

impl Workload for SurfacePaper {
    fn pass(&mut self, spans: &mut Spans) -> Pass {
        let mut pass = Pass::default();
        let mut surfaces = Vec::with_capacity(self.problems.len());
        for (cell, problem, grid) in &self.problems {
            let generated = spans.call(Layer::Surface, cell.name(), || {
                let generated = surface::generate(problem, grid);
                let sims = generated.as_ref().map_or(0, |s| s.simulations() as u64);
                (generated, sims)
            });
            pass.attempted += (N * N) as u64;
            if generated.is_err() {
                pass.failed += (N * N) as u64;
            }
            surfaces.push(generated.ok());
        }
        self.runs.push(surfaces);
        pass
    }

    fn check(&self) -> Checked {
        let mut checked = Checked::default();
        let mut spans = Spans::quiet();
        for (c, (cell, problem, _)) in self.problems.iter().enumerate() {
            let Some(first) = self.runs.iter().find_map(|run| run[c].as_ref()) else {
                continue;
            };
            let scalar = match cell.problem(problem.degradation(), BatchPolicy::Scalar, &mut spans)
            {
                Ok(p) => p,
                Err(e) => {
                    let n = (self.runs.len() * self.samples.len()) as u64;
                    checked.fail(n, e);
                    continue;
                }
            };
            for &(i, j) in &self.samples {
                let params = Params::new(first.tau_s_grid()[i], first.tau_h_grid()[j]);
                let expected = scalar.evaluate(&params).map(|h| h + scalar.r());
                for (k, run) in self.runs.iter().enumerate() {
                    let Some(surf) = &run[c] else { continue };
                    let got = surf.values()[i][j];
                    let same = expected
                        .as_ref()
                        .is_ok_and(|v| v.to_bits() == got.to_bits());
                    if !same {
                        checked.fail(
                            1,
                            format!(
                                "{} pass {k}: cell ({i}, {j}) = {got:e}, scalar {expected:?}",
                                cell.name()
                            ),
                        );
                    }
                }
            }
        }
        checked
    }

    fn surface_batched(&self) -> [f64; 3] {
        let mut verdicts = [0.0; 3];
        for (v, (_, problem, _)) in verdicts.iter_mut().zip(&self.problems) {
            *v = f64::from(u8::from(sweeps_batched(problem)));
        }
        verdicts
    }
}

/// `mc-threads`: TSPC Monte Carlo runs on the paper clock over all CPUs.
struct McThreads {
    tech: Technology,
    /// One option set per run, differing in `rng_seed`.
    opts: Vec<MonteCarloOptions>,
    /// Nominal clock-to-Q, for the sample range check.
    nominal_t_cq: f64,
    /// Per pass, per run: the samples (`None` if the run errored).
    runs: Vec<Vec<Option<Vec<SampleResult>>>>,
}

impl McThreads {
    fn setup(seed: u64, spans: &mut Spans) -> Result<McThreads, String> {
        let nominal = Cell::Tspc.problem(0.10, BatchPolicy::Auto, spans)?;
        let opts = (0..MC_RUNS as u64)
            .map(|k| MonteCarloOptions {
                samples: MC_SAMPLES,
                rng_seed: mix(seed, 500 + k),
                parallelism: Parallelism::Auto,
                ..MonteCarloOptions::default()
            })
            .collect();
        Ok(McThreads {
            tech: Technology::default_250nm(),
            opts,
            nominal_t_cq: nominal.characteristic_delay(),
            runs: Vec::new(),
        })
    }
}

impl Workload for McThreads {
    fn pass(&mut self, spans: &mut Spans) -> Pass {
        let mut pass = Pass::default();
        let mut runs = Vec::with_capacity(self.opts.len());
        for opts in &self.opts {
            let result = spans.call(Layer::MonteCarlo, Cell::Tspc.name(), || {
                let result = montecarlo::run(
                    &self.tech,
                    |tech| tspc_register_with(tech, ClockSpec::paper()),
                    opts,
                );
                let sims = result
                    .as_ref()
                    .map_or(0, |(_, stats)| stats.total_simulations as u64);
                (result, sims)
            });
            let samples = result.as_ref().map_or(0, |(samples, _)| samples.len());
            pass.attempted += MC_SAMPLES as u64;
            pass.failed += MC_SAMPLES.saturating_sub(samples) as u64;
            runs.push(result.ok().map(|(samples, _)| samples));
        }
        self.runs.push(runs);
        pass
    }

    fn check(&self) -> Checked {
        let mut checked = Checked::default();
        let bound = TracerOptions::default().skew_bound;
        for r in 0..self.opts.len() {
            let first = self.runs.iter().find_map(|pass| pass[r].as_ref());
            for (k, pass) in self.runs.iter().enumerate() {
                let Some(samples) = &pass[r] else { continue };
                let bad = samples
                    .iter()
                    .enumerate()
                    .filter(|&(i, s)| {
                        let in_range = s.index == i
                            && s.t_cq > 0.5 * self.nominal_t_cq
                            && s.t_cq < 2.0 * self.nominal_t_cq
                            && s.tau_s.abs() <= bound
                            && s.tau_h.abs() <= bound;
                        // Samples draw from index-derived streams: every
                        // pass must repeat the first one exactly.
                        let repeats = first.and_then(|f| f.get(i)).is_some_and(|f| f == s);
                        !in_range || !repeats
                    })
                    .count();
                if bad > 0 {
                    checked.fail(
                        bad as u64,
                        format!("pass {k} run {r}: {bad} samples out of range or not repeatable"),
                    );
                }
            }
        }
        checked
    }

    fn threads(&self) -> usize {
        Parallelism::Auto.thread_count()
    }
}

/// `bank-sparse`: capture transients of the 32-bit register bank.
struct BankSparse {
    register: Register,
    opts: TransientOptions,
    skews: Vec<Params>,
    /// Index of the skew the dense cross-check re-runs.
    checked: usize,
    /// Per pass, per skew: the final state (`None` if the run errored).
    runs: Vec<Vec<Option<Vector>>>,
}

impl BankSparse {
    fn setup(seed: u64, spans: &mut Spans) -> Result<BankSparse, String> {
        let register = spans.call(Layer::Build, BANK_LABEL, || {
            let bank =
                register_bank_with(&Technology::default_250nm(), ClockSpec::fast(), BANK_BITS);
            (bank, 0)
        });
        // Setup of 1.0-1.15x the bank's hint: enough for the data edge to
        // ripple through the chain before the closing edge, while the edge
        // stays inside the simulated window (0.33-0.9 ns after t = 0 on
        // the fast clock). A data edge at t = 0 makes the DC operating
        // point diverge (tau_s = 4.7464 ns, tau_h = 0.4476 ns).
        let hint = register.reference_setup_hint().unwrap_or(0.5e-9);
        let skews = (0..BANK_TRANSIENTS as u64)
            .map(|k| {
                Params::new(
                    hint * (1.0 + 0.15 * unit(seed, 200 + k)),
                    0.4e-9 + 0.2e-9 * unit(seed, 300 + k),
                )
            })
            .collect();
        let opts = bank_options(&register, SolverChoice::Auto);
        Ok(BankSparse {
            register,
            opts,
            skews,
            checked: (mix(seed, 400) % BANK_TRANSIENTS as u64) as usize,
            runs: Vec::new(),
        })
    }
}

/// Capture transient options: fixed 4 ps steps with sensitivities, run
/// half a nanosecond past the closing edge.
fn bank_options(register: &Register, solver: SolverChoice) -> TransientOptions {
    TransientOptions::builder(register.active_edge_time() + 0.5e-9)
        .dt(4e-12)
        .solver(solver)
        .sensitivities(&Param::ALL)
        .build()
}

impl Workload for BankSparse {
    fn pass(&mut self, spans: &mut Spans) -> Pass {
        let mut pass = Pass::default();
        let mut states = Vec::with_capacity(self.skews.len());
        for params in &self.skews {
            let result = spans.call(Layer::Transient, BANK_LABEL, || {
                let analysis = TransientAnalysis::new(self.register.circuit(), self.opts.clone());
                (analysis.run(params), 1)
            });
            pass.attempted += 1;
            match result {
                Ok(res) => states.push(Some(res.final_state().clone())),
                Err(_) => {
                    pass.failed += 1;
                    states.push(None);
                }
            }
        }
        self.runs.push(states);
        pass
    }

    fn check(&self) -> Checked {
        let mut checked = Checked::default();
        let dense_opts = bank_options(&self.register, SolverChoice::Dense);
        let dense = TransientAnalysis::new(self.register.circuit(), dense_opts)
            .run(&self.skews[self.checked]);
        let dense = match dense {
            Ok(res) => res.final_state().clone(),
            Err(e) => {
                checked.fail(
                    self.runs.len() as u64,
                    format!("dense reference run failed: {e}"),
                );
                return checked;
            }
        };
        for (k, states) in self.runs.iter().enumerate() {
            let finite = states
                .iter()
                .flatten()
                .all(|s| s.iter().all(|v| v.is_finite()));
            if !finite {
                checked.fail(1, format!("pass {k}: non-finite final state"));
            }
            if let Some(Some(state)) = states.get(self.checked) {
                let diff = state.sub(&dense).norm_inf();
                if diff.is_nan() || diff > BANK_DENSE_TOL {
                    checked.fail(
                        1,
                        format!("pass {k}: sparse vs dense final state off by {diff:e}"),
                    );
                }
            }
        }
        checked
    }
}
