//! Batched-vs-scalar wall-time benchmark for CI.
//!
//! One measurement, two gates:
//!
//! 1. **Identity**: the 400-simulation TSPC surface sweep (20×20 grid
//!    around an 8-point contour) generated through the lockstep batched
//!    engine, serially and with its lane groups fanned over two threads,
//!    must be *bitwise* identical to the scalar sweep — every grid value
//!    compared by `to_bits` — and the scalar sweep, whose evaluations
//!    resume from the problem's prefix ladder, must be bitwise identical
//!    to a *full-run* sweep: every cell its own transient from the DC
//!    point.
//! 2. **Speedup**: the batched sweep must be at least `--min-speedup`
//!    (default [`MIN_BATCHED_SPEEDUP`]) times faster than the scalar one
//!    on a single core — the SoA/lockstep payoff on 1-CPU hosts where
//!    threading cannot help. The full-run sweep's time is reported
//!    (`batched_vs_full_run`) but not gated.
//!
//! Writes `BENCH_batched.json` with the measured wall times and the
//! per-simulation costs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p shc-bench --bin bench_batched
//! cargo run --release -p shc-bench --bin bench_batched -- --out BENCH_batched.json
//! cargo run --release -p shc-bench --bin bench_batched -- --min-speedup 3.0
//! cargo run --release -p shc-bench --bin bench_batched -- --profile
//! ```
//!
//! `--profile` additionally runs one scalar and one batched sweep under an
//! `shc-prof` profiler and prints both phase tables — the attribution view
//! for chasing where the batched engine spends its time.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use shc_bench::{Cell, Timing};
use shc_core::{
    surface, BatchPolicy, CharacterizationProblem, OutputSurface, Parallelism, SurfaceOptions,
};
use shc_obs::json;
use shc_spice::batch::DEFAULT_LANES;
use shc_spice::transient::{RecordMode, TransientAnalysis, TransientOptions, TransientScratch};
use shc_spice::waveform::Params;

/// Required batched speedup on the one-core surface sweep (ISSUE 9 /
/// ROADMAP item 2 target), overridable with `--min-speedup` so CI can
/// rehearse the gate's failure path without editing source.
const MIN_BATCHED_SPEEDUP: f64 = 3.0;
/// Grid points per axis: 20×20 = the 400-simulation sweep.
const GRID_N: usize = 20;
/// Contour points seeding the grid window.
const CONTOUR_POINTS: usize = 8;
/// Wall-time repetitions; the minimum is reported.
const REPS: usize = 3;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_batched: error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// This binary exists to measure wall-clock (the batched-vs-scalar gate),
/// so it gets its own sanctioned timer beside shc-obs spans (clippy.toml).
#[allow(clippy::disallowed_methods)]
fn min_time<F: FnMut() -> Result<(), Box<dyn std::error::Error>>>(
    mut f: F,
) -> Result<f64, Box<dyn std::error::Error>> {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        f()?;
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Ok(best)
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = PathBuf::from(flag_value("--out").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batched.json").to_string()
    }));
    let min_speedup: f64 = match flag_value("--min-speedup") {
        Some(v) => v.parse().map_err(|_| format!("bad --min-speedup '{v}'"))?,
        None => MIN_BATCHED_SPEEDUP,
    };

    let mut ok = true;
    let mut out = String::from("{");
    let mut first = true;
    json::push_str_field(&mut out, &mut first, "schema", "shc-bench-batched-v2");
    json::push_str_field(&mut out, &mut first, "cell", "tspc");
    json::push_str_field(&mut out, &mut first, "clock", "fast");

    // The same cell on both paths; the policy is fixed per problem so the
    // surface driver's auto dispatch cannot blur the comparison.
    let scalar_problem = Cell::Tspc.problem_with_batch(Timing::Fast, BatchPolicy::Scalar)?;
    let batched_problem = Cell::Tspc.problem_with_batch(Timing::Fast, BatchPolicy::Batched)?;
    let contour = scalar_problem.trace_contour(CONTOUR_POINTS)?;
    let grid = SurfaceOptions::around_contour(&contour, GRID_N);

    // Gate 1: bitwise identity, lane for lane: scalar == serial-batched ==
    // threaded-batched.
    let scalar_surface = surface::generate(&scalar_problem, &grid)?;
    let batched_surface = surface::generate(&batched_problem, &grid)?;
    let threaded_surface = surface::generate(
        &batched_problem,
        &grid.with_parallelism(Parallelism::Threads(2)),
    )?;
    let sims = scalar_surface.simulations();
    let full = full_run_values(&scalar_problem, &scalar_surface)?;
    let full_mismatches = scalar_surface
        .values()
        .iter()
        .flatten()
        .zip(&full)
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count();
    if full_mismatches > 0 {
        ok = false;
        eprintln!("surface: {full_mismatches}/{sims} scalar grid values differ from full runs");
    }
    let mismatches = mismatched_values(&scalar_surface, &batched_surface);
    let threaded_mismatches = mismatched_values(&scalar_surface, &threaded_surface);
    if mismatches > 0 {
        ok = false;
        eprintln!("surface: {mismatches}/{sims} grid values differ from the scalar sweep");
    }
    if threaded_mismatches > 0 {
        ok = false;
        eprintln!(
            "surface: {threaded_mismatches}/{sims} threaded grid values differ from the scalar sweep"
        );
    }

    if args.iter().any(|a| a == "--profile") {
        for (label, problem) in [("scalar", &scalar_problem), ("batched", &batched_problem)] {
            let profiler = shc_prof::Profiler::with_detail(shc_prof::Detail::Iter);
            {
                let _guard = shc_prof::install_scoped(&profiler);
                surface::generate(problem, &grid)?;
            }
            print!("\n{}", profiler.report(label).table());
        }
    }

    // Gate 2: one-core wall-time speedup.
    let t_full = min_time(|| full_run_values(&scalar_problem, &scalar_surface).map(|_| ()))?;
    let t_scalar = min_time(|| Ok(surface::generate(&scalar_problem, &grid).map(|_| ())?))?;
    let t_batched = min_time(|| Ok(surface::generate(&batched_problem, &grid).map(|_| ())?))?;
    let speedup = t_scalar / t_batched;

    json::push_u64_field(&mut out, &mut first, "surface_n", GRID_N as u64);
    json::push_u64_field(&mut out, &mut first, "grid_simulations", sims as u64);
    json::push_u64_field(&mut out, &mut first, "lanes", DEFAULT_LANES as u64);
    json::push_f64_field(&mut out, &mut first, "surface_full_run_seconds", t_full);
    json::push_f64_field(&mut out, &mut first, "surface_scalar_seconds", t_scalar);
    json::push_f64_field(&mut out, &mut first, "surface_batched_seconds", t_batched);
    json::push_f64_field(
        &mut out,
        &mut first,
        "scalar_seconds_per_sim",
        t_scalar / sims as f64,
    );
    json::push_f64_field(
        &mut out,
        &mut first,
        "batched_seconds_per_sim",
        t_batched / sims as f64,
    );
    json::push_f64_field(&mut out, &mut first, "batched_speedup", speedup);
    json::push_f64_field(
        &mut out,
        &mut first,
        "batched_vs_full_run",
        t_full / t_batched,
    );
    json::push_u64_field(
        &mut out,
        &mut first,
        "full_run_mismatches",
        full_mismatches as u64,
    );
    json::push_u64_field(&mut out, &mut first, "value_mismatches", mismatches as u64);
    json::push_u64_field(
        &mut out,
        &mut first,
        "threaded_value_mismatches",
        threaded_mismatches as u64,
    );
    json::push_f64_field(&mut out, &mut first, "min_speedup", min_speedup);
    println!(
        "surface (n = {GRID_N}, {sims} sims, {DEFAULT_LANES} lanes): \
         scalar {t_scalar:.3} s, batched {t_batched:.3} s — {speedup:.1}x; \
         full runs {t_full:.3} s ({:.1}x); \
         bitwise identical (full runs, serial, 2 threads): {}",
        t_full / t_batched,
        full_mismatches == 0 && mismatches == 0 && threaded_mismatches == 0
    );
    if speedup < min_speedup {
        ok = false;
        eprintln!("surface: batched speedup {speedup:.2}x below the required {min_speedup}x");
    }

    out.push_str("}\n");
    std::fs::write(&out_path, &out)?;
    println!("wrote {}", out_path.display());
    if !ok {
        eprintln!("batched benchmark gate failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The output of every cell of `grid`'s skew grid, row-major, each from
/// its own full transient of `problem` (no prefix reuse): the values the
/// scalar sweep must reproduce bit for bit.
fn full_run_values(
    problem: &CharacterizationProblem,
    grid: &OutputSurface,
) -> Result<Vec<f64>, Box<dyn std::error::Error>> {
    let circuit = problem.register().circuit();
    let opts = TransientOptions::builder(problem.t_f())
        .dt(problem.dt())
        .integrator(problem.integrator())
        .solver(problem.solver())
        .record(RecordMode::FinalOnly)
        .build();
    let analysis = TransientAnalysis::new(circuit, opts);
    let mut scratch = TransientScratch::new(circuit.unknown_count());
    let (out, r) = (problem.register().output_unknown(), problem.r());
    let mut values = Vec::with_capacity(grid.simulations());
    for &s in grid.tau_s_grid() {
        for &h in grid.tau_h_grid() {
            let res = analysis.run_with_scratch(&Params::new(s, h), &mut scratch)?;
            // Round-trip through `h = x − r` exactly as the surface does.
            values.push((res.final_state()[out] - r) + r);
        }
    }
    Ok(values)
}

/// Grid values of `b` whose bit patterns differ from `a`'s.
fn mismatched_values(a: &OutputSurface, b: &OutputSurface) -> usize {
    a.values()
        .iter()
        .flatten()
        .zip(b.values().iter().flatten())
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count()
}
