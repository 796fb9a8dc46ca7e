//! Profiler smoke gate for CI.
//!
//! Three checks on the compressed-clock TSPC workload:
//!
//! 1. **Identity** — tracing the contour with a profiler installed (at the
//!    deepest `Detail::Iter` level) must produce bitwise the same points
//!    as the unprofiled trace. Observation may not perturb the physics.
//! 2. **Overhead** — `Detail::Step` profiling (the `--profile` default)
//!    must cost at most [`OVERHEAD_LIMIT_PCT`] of wall clock on the
//!    contour trace, measured as block-accumulated ABBA floors with a
//!    base-vs-base null arm that widens the budget by the measured
//!    noise of the runner.
//! 3. **Ratchet** — the phase-share breakdown of the contour trace and a
//!    20x20 (400-simulation) surface sweep must stay within
//!    `--tol-pp` percentage points of the committed
//!    `PROFILE_baseline.json`: a phase silently eating a bigger share of
//!    the run fails CI even when total wall clock drifts with the runner.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p shc-bench --bin profile_smoke                      # gate
//! cargo run --release -p shc-bench --bin profile_smoke -- --write-baseline  # re-pin
//! cargo run --release -p shc-bench --bin profile_smoke -- --skip-overhead   # ratchet only
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use shc_bench::{Cell, Timing};
use shc_core::{surface, SurfaceOptions};
use shc_obs::json;
use shc_prof::{check, parse_baseline, render_baseline, Detail, Phase, ProfileReport, Profiler};

/// Contour resolution the smoke trace uses.
const SMOKE_POINTS: usize = 16;
/// Surface grid edge: 20x20 = 400 transient simulations.
const SURFACE_N: usize = 20;
/// ABBA rounds for the overhead measurement; each letter times a block
/// of back-to-back traces lasting about [`OVERHEAD_BLOCK_SECONDS`].
const OVERHEAD_ROUNDS: usize = 4;
/// Target wall time of one timed block: single traces are too short for
/// stable floors on a shared runner, ~1 s blocks are not. The trace count
/// per block is picked at run time from the fastest of three timed traces.
const OVERHEAD_BLOCK_SECONDS: f64 = 1.0;
/// Bounds on the traces per block, whatever one trace measured.
const OVERHEAD_BLOCK_TRACES: std::ops::RangeInclusive<usize> = 4..=64;
/// Maximum tolerated Step-detail profiling overhead, percent of wall clock.
const OVERHEAD_LIMIT_PCT: f64 = 2.0;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("profile_smoke: error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Wall-clock timing is this gate's subject, so it gets its own
/// sanctioned timer beside shc-obs spans (clippy.toml).
#[allow(clippy::disallowed_methods)]
fn seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let skip_overhead = args.iter().any(|a| a == "--skip-overhead");
    let baseline_path = PathBuf::from(flag_value("--baseline").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../PROFILE_baseline.json").to_string()
    }));
    let report_path =
        PathBuf::from(flag_value("--report").unwrap_or_else(|| "profile-smoke-report.json".into()));
    let tol_pp: f64 = match flag_value("--tol-pp") {
        Some(v) => v.parse().map_err(|_| format!("bad --tol-pp '{v}'"))?,
        None => shc_prof::DEFAULT_TOLERANCE_PP,
    };

    let problem = Cell::Tspc.problem(Timing::Fast)?;

    // --- 1. Identity: profiled trace must be bitwise the unprofiled one.
    let reference = problem.trace_contour(SMOKE_POINTS)?;
    let iter_profiler = Profiler::with_detail(Detail::Iter);
    let profiled = {
        let _profile = shc_prof::install_scoped(&iter_profiler);
        problem.trace_contour(SMOKE_POINTS)?
    };
    let identical = reference
        .points()
        .iter()
        .zip(profiled.points().iter())
        .all(|(a, b)| {
            a.tau_s.to_bits() == b.tau_s.to_bits()
                && a.tau_h.to_bits() == b.tau_h.to_bits()
                && a.residual.to_bits() == b.residual.to_bits()
                && a.corrector_iterations == b.corrector_iterations
        })
        && reference.points().len() == profiled.points().len();
    if identical {
        println!(
            "identity: profiled contour bitwise identical ({} points) OK",
            reference.points().len()
        );
    } else {
        eprintln!("identity: installing the profiler changed the traced contour");
    }
    let tspc_report = iter_profiler.report("tspc_contour");

    // --- Surface sweep section (the 400-simulation workload whose
    // device-eval share the baseline pins).
    let surface_profiler = Profiler::with_detail(Detail::Iter);
    {
        let _profile = shc_prof::install_scoped(&surface_profiler);
        let grid = SurfaceOptions::around_contour(&reference, SURFACE_N);
        surface::generate(&problem, &grid)?;
    }
    let surface_report = surface_profiler.report("surface_sweep");
    for report in [&tspc_report, &surface_report] {
        if let Some(p) = report.phase(Phase::DeviceEval.name()) {
            println!(
                "{}: device_eval {:.1}% of {:.1} ms covered",
                report.label,
                100.0 * p.self_share(report.wall_ns),
                report.wall_ns as f64 / 1e6
            );
        }
    }

    // --- 2. Overhead: block-accumulated ABBA comparison at Step detail
    // (the default --profile level). Shared runners jitter by several
    // percent run to run — more than the ~1.5% signal — so two defenses:
    // each timed sample accumulates back-to-back traces for about
    // [`OVERHEAD_BLOCK_SECONDS`] (long enough that the fastest block
    // converges on the true floor), and each round times off/on/on/off so
    // slow drift cancels across the palindrome. The two off positions
    // measure the same thing, so the spread between their floors is pure
    // measurement noise; the on arm must stay within the budget *plus that
    // measured noise*. On a quiet machine the noise term vanishes and the 2%
    // budget binds exactly; on a loaded one the gate degrades gracefully
    // instead of flaking. One unmeasured warmup block settles caches.
    let mut floors = [f64::INFINITY; 3]; // [off-lead, on, off-trail]
    if !skip_overhead {
        let mut one = f64::INFINITY;
        for _ in 0..3 {
            let (r, s) = seconds(|| problem.trace_contour(SMOKE_POINTS));
            r?;
            one = one.min(s);
        }
        let block = ((OVERHEAD_BLOCK_SECONDS / one).ceil() as usize)
            .clamp(*OVERHEAD_BLOCK_TRACES.start(), *OVERHEAD_BLOCK_TRACES.end());
        println!(
            "overhead: {block} traces per block ({:.0} ms per trace)",
            1e3 * one
        );
        let time_block = |profiled: bool| -> Result<f64, shc_core::CharError> {
            let (r, s) = seconds(|| -> Result<(), shc_core::CharError> {
                for _ in 0..block {
                    if profiled {
                        let step = Profiler::with_detail(Detail::Step);
                        let _profile = shc_prof::install_scoped(&step);
                        problem.trace_contour(SMOKE_POINTS)?;
                    } else {
                        problem.trace_contour(SMOKE_POINTS)?;
                    }
                }
                Ok(())
            });
            r.map(|()| s)
        };
        time_block(true)?;
        for _ in 0..OVERHEAD_ROUNDS {
            floors[0] = floors[0].min(time_block(false)?);
            floors[1] = floors[1].min(time_block(true)?);
            floors[1] = floors[1].min(time_block(true)?);
            floors[2] = floors[2].min(time_block(false)?);
        }
    }
    let [base_s, prof_s] = [floors[0].min(floors[2]), floors[1]];
    let (overhead_pct, noise_pct) = if skip_overhead {
        (0.0, 0.0)
    } else {
        (
            100.0 * (prof_s / base_s - 1.0),
            100.0 * (floors[0].max(floors[2]) / base_s - 1.0),
        )
    };
    let overhead_ok = skip_overhead || overhead_pct <= OVERHEAD_LIMIT_PCT + noise_pct;
    if skip_overhead {
        println!("overhead: skipped (--skip-overhead)");
    } else if overhead_ok {
        println!(
            "overhead: {overhead_pct:+.2}% at Step detail \
             ({base_s:.3} s off, {prof_s:.3} s on; budget {OVERHEAD_LIMIT_PCT:.1}% \
             + {noise_pct:.2}% null spread) OK"
        );
    } else {
        eprintln!(
            "overhead: {overhead_pct:+.2}% at Step detail exceeds the \
             {OVERHEAD_LIMIT_PCT:.1}% budget + {noise_pct:.2}% null spread \
             ({base_s:.3} s off, {prof_s:.3} s on)"
        );
    }

    let sections = [tspc_report, surface_report];
    if write_baseline {
        std::fs::write(&baseline_path, render_baseline(&sections))?;
        println!("wrote {}", baseline_path.display());
        return Ok(ExitCode::SUCCESS);
    }

    // --- 3. Ratchet: phase shares vs the committed baseline.
    let baseline_text = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "cannot read {} (run --write-baseline?): {e}",
            baseline_path.display()
        )
    })?;
    let baseline = parse_baseline(&baseline_text)?;
    let mut ratchet_ok = true;
    for current in &sections {
        let base = baseline
            .iter()
            .find(|s| s.label == current.label)
            .ok_or_else(|| format!("baseline has no '{}' section", current.label))?;
        match check(current, base, tol_pp) {
            Ok(lines) => {
                for line in lines {
                    println!("{}: {line}", current.label);
                }
            }
            Err(violations) => {
                ratchet_ok = false;
                for line in violations {
                    eprintln!("RATCHET VIOLATION {}: {line}", current.label);
                }
            }
        }
    }

    std::fs::write(
        &report_path,
        render_report(
            &sections,
            identical,
            base_s,
            prof_s,
            overhead_pct,
            noise_pct,
            skip_overhead,
        ),
    )?;
    println!("wrote {}", report_path.display());

    if identical && overhead_ok && ratchet_ok {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "profile smoke gate failed; if the phase-share shift is intentional, \
             re-pin with --write-baseline and commit PROFILE_baseline.json"
        );
        Ok(ExitCode::FAILURE)
    }
}

#[allow(clippy::fn_params_excessive_bools)]
fn render_report(
    sections: &[ProfileReport],
    identical: bool,
    base_s: f64,
    prof_s: f64,
    overhead_pct: f64,
    noise_pct: f64,
    skip_overhead: bool,
) -> String {
    let mut out = String::from("{");
    let mut first = true;
    json::push_str_field(&mut out, &mut first, "schema", "shc-prof-smoke-v1");
    json::push_u64_field(&mut out, &mut first, "smoke_points", SMOKE_POINTS as u64);
    json::push_u64_field(&mut out, &mut first, "surface_n", SURFACE_N as u64);
    json::push_raw_field(
        &mut out,
        &mut first,
        "bitwise_identical",
        if identical { "true" } else { "false" },
    );
    if !skip_overhead {
        json::push_f64_field(&mut out, &mut first, "base_seconds", base_s);
        json::push_f64_field(&mut out, &mut first, "profiled_seconds", prof_s);
        json::push_f64_field(&mut out, &mut first, "overhead_percent", overhead_pct);
        json::push_f64_field(&mut out, &mut first, "null_spread_percent", noise_pct);
        json::push_f64_field(
            &mut out,
            &mut first,
            "overhead_limit_percent",
            OVERHEAD_LIMIT_PCT,
        );
    }
    // The measured sections ride along in baseline format, so a failing
    // run's artifact is directly diffable against PROFILE_baseline.json.
    json::push_raw_field(
        &mut out,
        &mut first,
        "current",
        render_baseline(sections).trim_end(),
    );
    out.push_str("}\n");
    out
}
