//! Perf-regression smoke gate for CI.
//!
//! Runs quick-mode (compressed clock) traces of the paper's two cells under
//! a telemetry collector and compares the deterministic work counters —
//! transient runs, tracer simulations, points traced — against the
//! committed `BENCH_baseline.json`. Counter drift beyond ±10% fails the
//! run: a cheap, wall-clock-free canary for algorithmic perf regressions
//! (extra Newton retries, corrector iterations, Newton step cuts all show up
//! as more transient runs).
//!
//! The v2 baseline adds the sparse-direct solver's work counters: a
//! register-bank transient pins symbolic analyses (exactly one per
//! topology), numeric factors/refactors, and solves, while the seed-cell
//! traces assert *zero* sparse work — the auto dispatch must keep them on
//! the dense, bitwise-reproducible path.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p shc-bench --bin perf_smoke                      # gate
//! cargo run --release -p shc-bench --bin perf_smoke -- --write-baseline  # re-pin
//! cargo run --release -p shc-bench --bin perf_smoke -- --report perf-smoke.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use shc_bench::{bank_register, run_bank_transient, Cell, Timing, REGISTER_BANK_DEFAULT_BITS};
use shc_obs::{json, Collector, Metric};
use shc_spice::SolverChoice;

/// Contour resolution the smoke trace uses.
const SMOKE_POINTS: usize = 12;
/// Allowed drift on counter ratios, both directions (re-pin on purpose).
const RATCHET: f64 = 0.10;

struct CellCounters {
    cell: &'static str,
    points_traced: u64,
    trace_simulations: u64,
    transient_runs: u64,
    /// Sparse-LU work done while tracing this (seed) cell. Must stay zero:
    /// the auto dispatch keeps seed cells on the dense, bitwise-reproducible
    /// path, and this counter is the canary that proves it.
    sparse_work: u64,
}

/// Work counters of the register-bank transient (the sparse-path workload).
struct BankCounters {
    transient_steps: u64,
    sparse_analyses: u64,
    sparse_factors: u64,
    sparse_refactors: u64,
    sparse_solves: u64,
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perf_smoke: error: {e}");
            ExitCode::FAILURE
        }
    }
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
    let baseline_path = PathBuf::from(flag_value("--baseline").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json").to_string()
    }));
    let report_path =
        PathBuf::from(flag_value("--report").unwrap_or_else(|| "perf-smoke-report.json".into()));

    let mut measured = Vec::new();
    for cell in Cell::PAPER {
        measured.push(measure(cell)?);
    }
    let bank = measure_bank()?;

    if write_baseline {
        std::fs::write(
            &baseline_path,
            render(&measured, &bank, "shc-perf-baseline-v2"),
        )?;
        println!("wrote {}", baseline_path.display());
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = std::fs::read_to_string(&baseline_path).map_err(|e| {
        format!(
            "cannot read {} (run --write-baseline?): {e}",
            baseline_path.display()
        )
    })?;
    let mut ok = true;
    for m in &measured {
        for (metric, value) in [
            ("points_traced", m.points_traced),
            ("trace_simulations", m.trace_simulations),
            ("transient_runs", m.transient_runs),
        ] {
            let key = format!("{}_{metric}", m.cell);
            let base = json::scan_u64(&baseline, &key)
                .ok_or_else(|| format!("baseline missing key '{key}'"))?;
            let pass = if metric == "points_traced" {
                value == base
            } else {
                let ratio = value as f64 / base.max(1) as f64;
                (1.0 - RATCHET..=1.0 + RATCHET).contains(&ratio)
            };
            if pass {
                println!("{key}: {value} (baseline {base}) OK");
            } else {
                ok = false;
                eprintln!(
                    "{key}: {value} vs baseline {base} — outside the ±{:.0}% ratchet",
                    RATCHET * 100.0
                );
            }
        }
        // Hard identity check, not baselined: seed cells must never touch
        // the sparse path under the auto dispatch.
        if m.sparse_work == 0 {
            println!("{}_sparse_work: 0 (dense path) OK", m.cell);
        } else {
            ok = false;
            eprintln!(
                "{}_sparse_work: {} — seed cell took the sparse path; \
                 auto dispatch threshold regressed",
                m.cell, m.sparse_work
            );
        }
    }
    // Every bank counter is deterministic for a fixed netlist and step
    // grid; the analysis count is pinned exactly (one per topology — more
    // means the pattern-reuse guard broke), the rest ride the ratchet.
    for (metric, value, exact) in [
        ("transient_steps", bank.transient_steps, false),
        ("sparse_analyses", bank.sparse_analyses, true),
        ("sparse_factors", bank.sparse_factors, false),
        ("sparse_refactors", bank.sparse_refactors, false),
        ("sparse_solves", bank.sparse_solves, false),
    ] {
        let key = format!("bank_{metric}");
        let base = json::scan_u64(&baseline, &key)
            .ok_or_else(|| format!("baseline missing key '{key}'"))?;
        let pass = if exact {
            value == base
        } else {
            let ratio = value as f64 / base.max(1) as f64;
            (1.0 - RATCHET..=1.0 + RATCHET).contains(&ratio)
        };
        if pass {
            println!("{key}: {value} (baseline {base}) OK");
        } else {
            ok = false;
            eprintln!(
                "{key}: {value} vs baseline {base} — outside the ±{:.0}% ratchet",
                RATCHET * 100.0
            );
        }
    }
    std::fs::write(&report_path, render(&measured, &bank, "shc-perf-smoke-v2"))?;
    println!("wrote {}", report_path.display());
    if !ok {
        eprintln!(
            "perf smoke gate failed; if the counter change is intentional, \
             re-pin with --write-baseline and commit BENCH_baseline.json"
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Traces one cell under a private collector and extracts its counters.
fn measure(cell: Cell) -> Result<CellCounters, Box<dyn std::error::Error>> {
    let problem = cell.problem(Timing::Fast)?;
    problem.reset_simulation_count();
    let collector = Collector::new();
    let contour = {
        let _telemetry = shc_obs::install_scoped(&collector);
        problem.trace_contour(SMOKE_POINTS)?
    };
    let snapshot = collector.snapshot();
    Ok(CellCounters {
        cell: cell.name(),
        points_traced: contour.points().len() as u64,
        trace_simulations: problem.simulation_count() as u64,
        transient_runs: snapshot.counter(Metric::TransientRuns),
        sparse_work: snapshot.counter(Metric::SparseAnalyses)
            + snapshot.counter(Metric::SparseFactors)
            + snapshot.counter(Metric::SparseRefactors)
            + snapshot.counter(Metric::SparseSolves),
    })
}

/// Runs the register-bank transient (auto dispatch → sparse path) under a
/// private collector and extracts the sparse work counters.
fn measure_bank() -> Result<BankCounters, Box<dyn std::error::Error>> {
    let bank = bank_register(Timing::Fast, REGISTER_BANK_DEFAULT_BITS);
    let collector = Collector::new();
    let result = {
        let _telemetry = shc_obs::install_scoped(&collector);
        run_bank_transient(&bank, SolverChoice::Auto)?
    };
    let snapshot = collector.snapshot();
    let counters = BankCounters {
        transient_steps: result.stats().steps as u64,
        sparse_analyses: snapshot.counter(Metric::SparseAnalyses),
        sparse_factors: snapshot.counter(Metric::SparseFactors),
        sparse_refactors: snapshot.counter(Metric::SparseRefactors),
        sparse_solves: snapshot.counter(Metric::SparseSolves),
    };
    if counters.sparse_solves == 0 {
        return Err("bank transient did no sparse solves — auto dispatch regressed".into());
    }
    Ok(counters)
}

fn render(cells: &[CellCounters], bank: &BankCounters, schema: &str) -> String {
    let mut out = String::from("{");
    let mut first = true;
    json::push_str_field(&mut out, &mut first, "schema", schema);
    json::push_str_field(&mut out, &mut first, "clock", "fast");
    json::push_u64_field(&mut out, &mut first, "smoke_points", SMOKE_POINTS as u64);
    for m in cells {
        json::push_u64_field(
            &mut out,
            &mut first,
            &format!("{}_points_traced", m.cell),
            m.points_traced,
        );
        json::push_u64_field(
            &mut out,
            &mut first,
            &format!("{}_trace_simulations", m.cell),
            m.trace_simulations,
        );
        json::push_u64_field(
            &mut out,
            &mut first,
            &format!("{}_transient_runs", m.cell),
            m.transient_runs,
        );
        json::push_u64_field(
            &mut out,
            &mut first,
            &format!("{}_sparse_work", m.cell),
            m.sparse_work,
        );
    }
    json::push_u64_field(
        &mut out,
        &mut first,
        "bank_transient_steps",
        bank.transient_steps,
    );
    json::push_u64_field(
        &mut out,
        &mut first,
        "bank_sparse_analyses",
        bank.sparse_analyses,
    );
    json::push_u64_field(
        &mut out,
        &mut first,
        "bank_sparse_factors",
        bank.sparse_factors,
    );
    json::push_u64_field(
        &mut out,
        &mut first,
        "bank_sparse_refactors",
        bank.sparse_refactors,
    );
    json::push_u64_field(
        &mut out,
        &mut first,
        "bank_sparse_solves",
        bank.sparse_solves,
    );
    out.push_str("}\n");
    out
}
