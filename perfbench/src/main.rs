//! The shc repository benchmark: end-to-end and per-layer metrics of the
//! characterization pipeline on four workloads (see README.md).
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload trace-paper --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --headline --seed 1
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --write-references
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured untraced;
//! `--trace 1` spends half the time untraced and half traced and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--headline` prints the paper's trace-vs-surface speedups per cell;
//! `--write-references` regenerates the stored reference contours.

mod host;
mod layers;
mod spans;
mod workloads;

use std::process::ExitCode;

use shc_obs::Collector;
use shc_prof::{Detail, Profiler};

use host::now;
use layers::{ratio, Value};
use spans::{Call, Layer, Spans};
use workloads::{Pass, Workload};

/// Set-ups per run: at least this many, and more until they add up to
/// [`SETUP_MIN_S`]; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
/// Least total set-up time per run, so sub-millisecond set-ups get
/// enough repetitions for a steady median.
const SETUP_MIN_S: f64 = 0.5;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --headline [--seed <n>]\n       \
                     perfbench --write-references";

#[derive(Debug)]
enum Mode {
    Run {
        workload: String,
        seconds: f64,
        trace: bool,
    },
    Headline,
    WriteReferences,
}

fn parse_args(args: &[String]) -> Result<(Mode, u64), String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let seed = match value("--seed") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--seed: not an integer: '{v}'"))?,
        None => 1,
    };
    if args.iter().any(|a| a == "--write-references") {
        return Ok((Mode::WriteReferences, seed));
    }
    if args.iter().any(|a| a == "--headline") {
        return Ok((Mode::Headline, seed));
    }
    let workload = value("--workload").ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {:?})",
            workloads::NAMES
        ));
    }
    let seconds: f64 = value("--seconds")
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|_| "--seconds: not a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok((
        Mode::Run {
            workload: workload.to_string(),
            seconds,
            trace,
        },
        seed,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, seed) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::Run {
            workload,
            seconds,
            trace,
        } => run(&workload, seed, seconds, trace),
        Mode::Headline => headline(seed),
        Mode::WriteReferences => write_references(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One timed pass: its wall seconds, accounting and timed calls.
struct Sample {
    wall_s: f64,
    pass: Pass,
    calls: Vec<Call>,
}

/// Runs passes until another one would overrun `budget` seconds (at
/// least one pass).
fn measure(w: &mut dyn Workload, budget: f64, spans: &mut Spans) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut elapsed = 0.0;
    loop {
        let t0 = now();
        let pass = spans.run(Layer::Pass, |s| w.pass(s));
        let wall_s = t0.elapsed().as_secs_f64();
        samples.push(Sample {
            wall_s,
            pass,
            calls: spans.take_calls(),
        });
        elapsed += wall_s;
        if elapsed + wall_s > budget {
            return samples;
        }
    }
}

/// A typical pass at nominal host speed: the sum, over the calls of a
/// pass, of the median across passes of that call's `field` (seconds)
/// times the host speed around it (see [`host::speed`]).
fn median_pass(samples: &[Sample], field: fn(&Call) -> f64) -> f64 {
    let calls = samples.iter().map(|s| s.calls.len()).max().unwrap_or(0);
    (0..calls)
        .map(|j| {
            median(
                samples
                    .iter()
                    .filter_map(|s| s.calls.get(j))
                    .map(|c| field(c) * c.speed)
                    .collect(),
            )
        })
        .sum()
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => 0.5 * (values[n / 2 - 1] + values[n / 2]),
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}

/// Sets the workload up repeatedly; returns the last fixture and the
/// median set-up seconds at nominal host speed.
fn timed_setup(name: &str, seed: u64) -> Result<(Box<dyn Workload>, f64), String> {
    let mut times = Vec::new();
    let mut elapsed = 0.0;
    loop {
        let speed_before = host::speed();
        let t0 = now();
        let w = workloads::setup(name, seed, &mut Spans::quiet())?;
        let seconds = t0.elapsed().as_secs_f64();
        elapsed += seconds;
        times.push(seconds * 0.5 * (speed_before + host::speed()));
        if times.len() >= SETUP_MIN_REPS && elapsed >= SETUP_MIN_S {
            return Ok((w, median(times)));
        }
    }
}

fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let (mut w, setup_s) = timed_setup(name, seed)?;
    let budget = if trace { seconds / 2.0 } else { seconds };
    let untraced = measure(w.as_mut(), budget, &mut Spans::untraced());
    let rss_peak_mb = host::peak_rss_mb()?;

    let traced = if trace {
        // One more set-up under spans, for the `build` layer.
        let mut setup_spans = Spans::traced();
        workloads::setup(name, seed, &mut setup_spans)?;
        let mut spans = Spans::traced();
        let collector = Collector::new();
        let profiler = Profiler::with_detail(Detail::Iter);
        let samples = {
            let _telemetry = shc_obs::install_scoped(&collector);
            let _profile = shc_prof::install_scoped(&profiler);
            measure(w.as_mut(), budget, &mut spans)
        };
        let build_s = setup_spans.self_seconds(Layer::Build);
        Some((
            samples,
            spans,
            collector.snapshot(),
            profiler.report(name),
            build_s,
        ))
    } else {
        None
    };

    let checked = w.check();
    let passes: Vec<&Sample> = untraced
        .iter()
        .chain(traced.iter().flat_map(|t| t.0.iter()))
        .collect();
    let attempted = passes.iter().map(|s| s.pass.attempted).sum::<u64>().max(1);
    let failed = passes.iter().map(|s| s.pass.failed).sum::<u64>() + checked.failed;
    let fail_ratio = failed as f64 / attempted as f64;

    println!(
        "workload {name}, seed {seed}, {} untraced passes",
        untraced.len()
    );
    if let Some(last) = untraced.last() {
        for call in &last.calls {
            println!(
                "  {:?} {}: {} sims in {:.3} s at host speed {:.3}",
                call.layer, call.label, call.sims, call.wall_s, call.speed
            );
        }
    }
    for note in &checked.notes {
        println!("  check failed: {note}");
    }
    println!("  fail_ratio = {fail_ratio} ({failed} of {attempted} operations)");

    let metrics = match traced {
        None => vec![
            Value::new("wall_s", "s", median_pass(&untraced, |c| c.wall_s)),
            Value::new("setup_s", "s", setup_s),
            Value::new("cpu_s", "s", median_pass(&untraced, |c| c.cpu_s)),
            Value::new(
                "sims",
                "count",
                median(
                    untraced
                        .iter()
                        .map(|s| s.calls.iter().map(|c| c.sims).sum::<u64>() as f64)
                        .collect(),
                ),
            ),
            Value::new("rss_peak_mb", "MB", rss_peak_mb),
        ],
        Some((samples, spans, snapshot, profile, build_s)) => {
            let traced_wall_s = mean(samples.iter().map(|s| s.wall_s));
            let closure = layers::closure_s(&spans, samples.len());
            println!(
                "  {} traced passes: layer self times sum to {closure:.4} s of {traced_wall_s:.4} s \
                 traced wall; shc-prof frames cover {:.4} s",
                samples.len(),
                profile.wall_ns as f64 / 1e9 / samples.len() as f64,
            );
            let calls: Vec<Call> = samples
                .iter()
                .flat_map(|s| s.calls.iter().copied())
                .collect();
            layers::per_layer(&layers::Traced {
                passes: samples.len(),
                attempted: samples.iter().map(|s| s.pass.attempted).sum(),
                calls: &calls,
                spans: &spans,
                build_s,
                snapshot: &snapshot,
                profile: &profile,
                traced_wall_s,
                untraced_wall_s: mean(untraced.iter().map(|s| s.wall_s)),
                threads: w.threads(),
                host_cpus: host::host_cpus(),
                surface_batched: w.surface_batched(),
                fail_ratio,
            })
        }
    };
    for m in &metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics)?);
    Ok(())
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Value],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

/// One pass of `trace-paper` and of `surface-paper`, then the paper's
/// headline per cell: surface over seed+trace, by simulations and by wall
/// clock. Derived figures, not gated: a faster surface would read as a
/// regression of the tracer.
fn headline(seed: u64) -> Result<(), String> {
    // Per workload, per cell: (simulations, wall seconds) of one pass.
    let mut figures: Vec<Vec<(&'static str, u64, f64)>> = Vec::new();
    for name in ["trace-paper", "surface-paper"] {
        let mut spans = Spans::untraced();
        let mut w = workloads::setup(name, seed, &mut spans)?;
        spans.take_calls();
        let pass = w.pass(&mut spans);
        if pass.failed > 0 {
            return Err(format!(
                "{name}: {} of {} operations failed",
                pass.failed, pass.attempted
            ));
        }
        let mut cells: Vec<(&'static str, u64, f64)> = Vec::new();
        for call in spans.take_calls() {
            match cells.iter_mut().find(|c| c.0 == call.label) {
                Some(cell) => {
                    cell.1 += call.sims;
                    cell.2 += call.wall_s;
                }
                None => cells.push((call.label, call.sims, call.wall_s)),
            }
        }
        figures.push(cells);
    }
    println!(
        "{:<6} {:>10} {:>12} {:>13} {:>9} {:>11} {:>13}",
        "cell",
        "trace sims",
        "surface sims",
        "speedup_sims",
        "trace s",
        "surface s",
        "speedup_wall"
    );
    for (&(cell, trace_sims, trace_s), &(_, surface_sims, surface_s)) in
        figures[0].iter().zip(&figures[1])
    {
        println!(
            "{cell:<6} {trace_sims:>10} {surface_sims:>12} {:>12.1}x {trace_s:>9.3} \
             {surface_s:>11.3} {:>12.2}x",
            ratio(surface_sims as f64, trace_sims as f64),
            ratio(surface_s, trace_s),
        );
    }
    Ok(())
}

fn write_references() -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/references/contours.txt");
    let text = workloads::render_references()?;
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}
