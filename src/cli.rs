//! Command-line front end: characterize a cell described by a SPICE deck.
//!
//! Backs the `shc-char` binary; the argument parsing and the run pipeline
//! live here so they are unit-testable.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use shc_cells::{OutputTransition, Register};
use shc_core::report::ContourTable;
use shc_core::seed::find_first_point;
use shc_core::tracer::trace_session;
use shc_core::{
    CharacterizationProblem, CheckpointConfig, SeedOptions, TraceOutcome, TraceStart, TracerOptions,
};
use shc_obs::{Collector, FileSink, Sink};
use shc_spice::batch::BatchPolicy;
use shc_spice::{netlist, SolverChoice};

/// Parsed command-line configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CliConfig {
    /// Path to the SPICE deck.
    pub netlist_path: String,
    /// Name of the monitored output node.
    pub output: String,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Time of the active clock edge's 50% crossing, seconds.
    pub edge: f64,
    /// Clock period, seconds.
    pub period: f64,
    /// Monitored output transition.
    pub transition: OutputTransition,
    /// Capture fraction (0.5 = the 50% criterion).
    pub fraction: f64,
    /// Clock-to-Q degradation defining the contour.
    pub degradation: f64,
    /// Contour points to trace.
    pub points: usize,
    /// Reference setup skew override (needed for transparent latches).
    pub reference_setup: Option<f64>,
    /// Linear-solver backend (`--solver dense|sparse|auto`).
    pub solver: SolverChoice,
    /// Batched-engine policy for the problem's surface sweeps
    /// (`--batch auto|scalar|batched`).
    pub batch: BatchPolicy,
    /// JSONL run-journal path (one event per traced contour point).
    pub journal: Option<String>,
    /// End-of-run metrics JSON path.
    pub metrics: Option<String>,
    /// Deterministic fault-injection plan (`--fault-plan`).
    pub fault_plan: Option<shc_fault::FaultPlan>,
    /// JSONL trace-checkpoint path (`--checkpoint`).
    pub checkpoint: Option<String>,
    /// Accepted points between checkpoints (`--checkpoint-every`).
    pub checkpoint_every: usize,
    /// Checkpoint file to resume a killed trace from (`--resume`).
    pub resume: Option<String>,
    /// Profile-report JSON path (`--profile`); a collapsed-stack
    /// `.folded` flamegraph is written next to it and the phase table is
    /// appended to the run output.
    pub profile: Option<String>,
    /// Profiler detail level (`--profile-detail step|iter`).
    pub profile_detail: shc_prof::Detail,
}

/// A CLI usage error.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// The usage banner printed on argument errors.
pub const USAGE: &str = "\
usage: shc-char <netlist.sp> --output <node> --edge <time> [options]

The deck must contain the clock source and a DATA(...) source whose t_edge
equals --edge (see `shc_spice::netlist` for the accepted grammar).

required:
  --output <node>       monitored output node name
  --edge <time>         active clock edge 50% time (e.g. 11.05n)
options:
  --vdd <volts>         supply voltage            [2.5]
  --period <time>       clock period              [10n]
  --transition <dir>    rising | falling          [rising]
  --fraction <frac>     capture fraction          [0.5]
  --degradation <frac>  clock-to-Q degradation    [0.1]
  --points <n>          contour points to trace   [20]
  --reference-setup <t> reference setup skew (transparent latches need a
                        near-edge value, e.g. 0.12n)
  --solver <backend>    dense | sparse | auto     [auto]
                        linear solver behind the Newton loops; auto picks
                        sparse-direct LU for large netlists and the dense
                        (bitwise-reproducible) path for small ones
  --batch <policy>      auto | scalar | batched   [auto]
                        problem policy for surface sweeps, the only
                        sweeps the lockstep batched engine runs (this
                        seed-and-trace pipeline runs none); auto batches
                        inside the supported envelope (and defers to
                        scalar under --fault-plan), scalar always takes
                        the per-point path, batched asserts the lockstep
                        path wherever the envelope allows. All three
                        produce bitwise-identical results
telemetry:
  --journal <path>      write a JSONL run journal: one event per traced
                        contour point (tau_s, tau_h, residual, Jacobian
                        norm, tangent, corrector iterations, transient
                        step/rejection counts)
  --metrics <path>      write end-of-run solver metrics (counters, log2
                        histograms, span timings) as JSON
  --profile <path>      profile the run with shc-prof: write the phase
                        report as JSON to <path>, a collapsed-stack
                        flamegraph next to it (<path stem>.folded, ready
                        for flamegraph.pl / inferno), and append the
                        per-phase table to the printed summary
  --profile-detail <d>  step | iter               [step]
                        step times whole solver steps (<2% overhead);
                        iter adds per-Newton-iteration device/stamp/
                        factor/solve laps (~5% overhead). Neither level
                        changes any numeric result
fault injection & recovery:
  --fault-plan <spec>   install a deterministic fault injector for the run,
                        e.g. p=0.1,site=newton,kind=non_convergence,seed=42
                        (sites: lu_factor lu_solve newton transient mpnr, or
                        all; kinds: singular_matrix non_convergence
                        nan_residual lte_stall); the tracer's recovery
                        ladder absorbs injected faults where possible
  --checkpoint <path>   append a JSONL trace checkpoint (last accepted
                        point, tangent, step length, RNG cursors) every K
                        accepted points
  --checkpoint-every <k>  checkpoint interval, in accepted points  [5]
  --resume <ckpt>       continue a killed trace from the last complete
                        checkpoint in <ckpt> instead of re-seeding; the
                        resumed contour is identical to an uninterrupted one

--degradation picks the contour (capture deadline t_f = t_edge +
(1 + degradation) * t_CQ); --points bounds how far the Euler-Newton walk
follows that contour, so the journal holds at most --points events — fewer
if the walk stops early at a skew bound. With --journal or --metrics the
telemetry summary is printed even when tracing fails partway; the journal
then holds the points traced before the failure.";

/// Parses CLI arguments (without the program name).
///
/// # Errors
///
/// Returns [`UsageError`] on unknown flags, missing values, or unparsable
/// numbers; the message is user-facing.
pub fn parse_args(args: &[String]) -> Result<CliConfig, UsageError> {
    let mut cfg = CliConfig {
        netlist_path: String::new(),
        output: String::new(),
        vdd: 2.5,
        edge: 0.0,
        period: 10e-9,
        transition: OutputTransition::Rising,
        fraction: 0.5,
        degradation: 0.1,
        points: 20,
        reference_setup: None,
        solver: SolverChoice::Auto,
        batch: BatchPolicy::Auto,
        journal: None,
        metrics: None,
        fault_plan: None,
        checkpoint: None,
        checkpoint_every: 5,
        resume: None,
        profile: None,
        profile_detail: shc_prof::Detail::Step,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| -> Result<String, UsageError> {
            it.next()
                .cloned()
                .ok_or_else(|| UsageError(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--output" => cfg.output = value_for("--output")?,
            "--edge" => {
                let v = value_for("--edge")?;
                cfg.edge = netlist::parse_value(&v)
                    .ok_or_else(|| UsageError(format!("bad --edge value '{v}'")))?;
            }
            "--vdd" => {
                let v = value_for("--vdd")?;
                cfg.vdd = netlist::parse_value(&v)
                    .ok_or_else(|| UsageError(format!("bad --vdd value '{v}'")))?;
            }
            "--period" => {
                let v = value_for("--period")?;
                cfg.period = netlist::parse_value(&v)
                    .ok_or_else(|| UsageError(format!("bad --period value '{v}'")))?;
            }
            "--transition" => {
                cfg.transition = match value_for("--transition")?.as_str() {
                    "rising" => OutputTransition::Rising,
                    "falling" => OutputTransition::Falling,
                    other => {
                        return Err(UsageError(format!(
                            "--transition must be rising or falling, got '{other}'"
                        )))
                    }
                };
            }
            "--fraction" => {
                let v = value_for("--fraction")?;
                cfg.fraction = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad --fraction value '{v}'")))?;
            }
            "--degradation" => {
                let v = value_for("--degradation")?;
                cfg.degradation = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad --degradation value '{v}'")))?;
            }
            "--reference-setup" => {
                let v = value_for("--reference-setup")?;
                cfg.reference_setup = Some(
                    netlist::parse_value(&v)
                        .ok_or_else(|| UsageError(format!("bad --reference-setup value '{v}'")))?,
                );
            }
            "--solver" => {
                let v = value_for("--solver")?;
                cfg.solver = v
                    .parse()
                    .map_err(|e| UsageError(format!("bad --solver: {e}")))?;
            }
            "--batch" => {
                let v = value_for("--batch")?;
                cfg.batch = v
                    .parse()
                    .map_err(|e| UsageError(format!("bad --batch: {e}")))?;
            }
            "--journal" => cfg.journal = Some(value_for("--journal")?),
            "--metrics" => cfg.metrics = Some(value_for("--metrics")?),
            "--fault-plan" => {
                let v = value_for("--fault-plan")?;
                cfg.fault_plan = Some(
                    shc_fault::FaultPlan::parse(&v)
                        .map_err(|e| UsageError(format!("bad --fault-plan '{v}': {e}")))?,
                );
            }
            "--checkpoint" => cfg.checkpoint = Some(value_for("--checkpoint")?),
            "--checkpoint-every" => {
                let v = value_for("--checkpoint-every")?;
                cfg.checkpoint_every = v
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| UsageError(format!("bad --checkpoint-every value '{v}'")))?;
            }
            "--resume" => cfg.resume = Some(value_for("--resume")?),
            "--profile" => cfg.profile = Some(value_for("--profile")?),
            "--profile-detail" => {
                cfg.profile_detail = match value_for("--profile-detail")?.as_str() {
                    "step" => shc_prof::Detail::Step,
                    "iter" => shc_prof::Detail::Iter,
                    other => {
                        return Err(UsageError(format!(
                            "--profile-detail must be step or iter, got '{other}'"
                        )))
                    }
                };
            }
            "--points" => {
                let v = value_for("--points")?;
                cfg.points = v
                    .parse()
                    .map_err(|_| UsageError(format!("bad --points value '{v}'")))?;
            }
            flag if flag.starts_with("--") => {
                return Err(UsageError(format!("unknown flag '{flag}'")));
            }
            path => {
                if cfg.netlist_path.is_empty() {
                    cfg.netlist_path = path.to_string();
                } else {
                    return Err(UsageError(format!("unexpected argument '{path}'")));
                }
            }
        }
    }
    if cfg.netlist_path.is_empty() {
        return Err(UsageError("missing netlist path".to_string()));
    }
    if cfg.output.is_empty() {
        return Err(UsageError("missing --output".to_string()));
    }
    if cfg.edge <= 0.0 {
        return Err(UsageError("missing or non-positive --edge".to_string()));
    }
    if cfg.points < 2 {
        return Err(UsageError("--points must be at least 2".to_string()));
    }
    Ok(cfg)
}

/// Builds the fixture from a deck string and the configuration.
///
/// # Errors
///
/// Returns a user-facing error for parse failures or an unknown output
/// node.
pub fn build_register(deck: &str, cfg: &CliConfig) -> Result<Register, Box<dyn std::error::Error>> {
    let circuit = netlist::parse(deck)?;
    let output = circuit
        .find_node(&cfg.output.to_ascii_lowercase())
        .ok_or_else(|| UsageError(format!("output node '{}' not found in deck", cfg.output)))?;
    Ok(Register::custom(
        circuit,
        output,
        cfg.vdd,
        cfg.transition,
        cfg.fraction,
        cfg.edge,
        cfg.period,
    ))
}

/// Runs the full characterization pipeline and renders the report.
///
/// With `--journal`/`--metrics` a telemetry collector is installed for the
/// duration of the run; the journal is flushed and the metrics summary
/// produced on *both* the success and the failure path, so a run that
/// dies mid-contour still leaves the points traced so far on disk and
/// reports where the simulation budget went (the error message then
/// carries the summary table).
///
/// # Errors
///
/// Propagates netlist, configuration, and characterization failures.
pub fn run(deck: &str, cfg: &CliConfig) -> Result<String, Box<dyn std::error::Error>> {
    // Install the fault injector (if any) outermost so every solver layer
    // below — LU, Newton, transient, MPNR — sees the same plan, and so the
    // tracer can snapshot its cursors into checkpoints.
    let injector = cfg.fault_plan.map(shc_fault::Injector::new);
    let _faults = injector.as_ref().map(shc_fault::install_scoped);
    let collector = if cfg.journal.is_some() || cfg.metrics.is_some() {
        Some(match &cfg.journal {
            Some(path) => {
                let sink: Arc<dyn Sink> = Arc::new(FileSink::create(Path::new(path))?);
                Collector::with_sink(sink)
            }
            None => Collector::new(),
        })
    } else {
        None
    };
    let _telemetry = collector.as_ref().map(shc_obs::install_scoped);
    let profiler = cfg
        .profile
        .as_ref()
        .map(|_| shc_prof::Profiler::with_detail(cfg.profile_detail));

    // The install guard must drop before reporting (threads merge their
    // trees on uninstall), so the profiled scope is exactly the pipeline.
    let outcome = {
        let _profile = profiler.as_ref().map(shc_prof::install_scoped);
        run_pipeline(deck, cfg)
    };
    let outcome = match (outcome, injector.as_ref()) {
        (Ok(mut out), Some(inj)) => {
            out.push_str(&format!("fault injection: {} injected\n", inj.injected()));
            Ok(out)
        }
        (other, _) => other,
    };
    // Profile artifacts are written on both paths: a failed run's profile
    // still shows where the time went before it died.
    let outcome = match (&cfg.profile, profiler) {
        (Some(path), Some(profiler)) => {
            let report = profiler.report("shc_char");
            let folded_path = Path::new(path).with_extension("folded");
            let written = std::fs::write(path, report.to_json())
                .and_then(|()| std::fs::write(&folded_path, report.to_folded()));
            match outcome {
                Ok(mut out) => {
                    written?;
                    out.push('\n');
                    out.push_str(&report.table());
                    out.push_str(&format!(
                        "profile written to {path} (flamegraph: {})\n",
                        folded_path.display()
                    ));
                    Ok(out)
                }
                err => err,
            }
        }
        _ => outcome,
    };
    let Some(collector) = collector else {
        return outcome;
    };

    // Finalize telemetry regardless of the pipeline outcome: a partial
    // journal and a metrics summary are exactly what a failed run needs.
    let flushed = collector.flush();
    let snapshot = collector.snapshot();
    let metrics_written = match &cfg.metrics {
        Some(path) => std::fs::write(path, snapshot.to_json()),
        None => Ok(()),
    };
    match outcome {
        Ok(mut out) => {
            flushed?;
            metrics_written?;
            out.push('\n');
            out.push_str(&snapshot.to_string());
            Ok(out)
        }
        Err(e) => Err(format!("{e}\n\n{snapshot}").into()),
    }
}

/// The characterization pipeline proper (no telemetry plumbing).
fn run_pipeline(deck: &str, cfg: &CliConfig) -> Result<String, Box<dyn std::error::Error>> {
    let _span = shc_obs::span(shc_obs::SpanKind::CliRun);
    let register = build_register(deck, cfg)?;
    let mut builder = CharacterizationProblem::builder(register)
        .degradation(cfg.degradation)
        .solver(cfg.solver)
        .batch(cfg.batch);
    if let Some(rs) = cfg.reference_setup {
        builder = builder.reference_setup(rs);
    }
    let problem = builder.build()?;
    let mut out = format!(
        "characteristic clock-to-Q: {:.2} ps  (t_f = {:.6} ns, r = {:.3} V)\n\n",
        problem.characteristic_delay() * 1e12,
        problem.t_f() * 1e9,
        problem.r(),
    );
    let start = match &cfg.resume {
        Some(path) => {
            let ckpt = shc_obs::TraceCheckpoint::read_last(Path::new(path))
                .map_err(|e| UsageError(format!("cannot read --resume checkpoint '{path}': {e}")))?
                .ok_or_else(|| UsageError(format!("no checkpoint found in '{path}'")))?;
            TraceStart::Resume(ckpt)
        }
        None => {
            let seed = find_first_point(&problem, &SeedOptions::default())?;
            TraceStart::Seed(seed.params)
        }
    };
    let checkpoint_cfg = cfg.checkpoint.as_ref().map(|p| CheckpointConfig {
        path: PathBuf::from(p),
        every: cfg.checkpoint_every,
    });
    let outcome = trace_session(
        &problem,
        start,
        cfg.points,
        &TracerOptions::default(),
        checkpoint_cfg.as_ref(),
    )?;
    let (contour, failure) = match outcome {
        TraceOutcome::Complete(contour) => (contour, None),
        TraceOutcome::Partial { contour, failure } => (contour, Some(failure)),
    };
    out.push_str(&ContourTable::from_contour("custom", &contour).to_string());
    out.push_str(&format!(
        "\n{} points, {} transient simulations (+{} calibration), {:.1} MPNR iterations/point\n",
        contour.points().len(),
        problem.simulation_count(),
        problem.calibration_simulations(),
        contour.mean_corrector_iterations(),
    ));
    if let Some(failure) = failure {
        out.push_str(&format!(
            "partial contour: recovery exhausted, trace stopped early ({failure})\n"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let cfg = parse_args(&args(&[
            "cell.sp",
            "--output",
            "q",
            "--edge",
            "11.05n",
            "--vdd",
            "2.5",
            "--period",
            "10n",
            "--transition",
            "falling",
            "--fraction",
            "0.9",
            "--degradation",
            "0.2",
            "--points",
            "8",
        ]))
        .unwrap();
        assert_eq!(cfg.netlist_path, "cell.sp");
        assert_eq!(cfg.output, "q");
        assert!((cfg.edge - 11.05e-9).abs() < 1e-20);
        assert_eq!(cfg.transition, OutputTransition::Falling);
        assert_eq!(cfg.points, 8);
        assert_eq!(cfg.fraction, 0.9);
        assert_eq!(cfg.degradation, 0.2);
    }

    #[test]
    fn parses_fault_and_checkpoint_flags() {
        let cfg = parse_args(&args(&[
            "cell.sp",
            "--output",
            "q",
            "--edge",
            "1n",
            "--fault-plan",
            "p=0.1,site=newton,kind=non_convergence,seed=42",
            "--checkpoint",
            "trace.ckpt",
            "--checkpoint-every",
            "3",
            "--resume",
            "old.ckpt",
        ]))
        .unwrap();
        let plan = cfg.fault_plan.unwrap();
        assert_eq!(plan.probability, 0.1);
        assert_eq!(plan.site, Some(shc_fault::Site::Newton));
        assert_eq!(plan.kind, shc_fault::FaultKind::NonConvergence);
        assert_eq!(plan.seed, 42);
        assert_eq!(cfg.checkpoint.as_deref(), Some("trace.ckpt"));
        assert_eq!(cfg.checkpoint_every, 3);
        assert_eq!(cfg.resume.as_deref(), Some("old.ckpt"));
    }

    #[test]
    fn rejects_bad_fault_plan_and_checkpoint_interval() {
        let e = parse_args(&args(&[
            "cell.sp",
            "--output",
            "q",
            "--edge",
            "1n",
            "--fault-plan",
            "p=0.1,site=warp_core",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("--fault-plan"));
        let e = parse_args(&args(&[
            "cell.sp",
            "--output",
            "q",
            "--edge",
            "1n",
            "--checkpoint-every",
            "0",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("--checkpoint-every"));
    }

    #[test]
    fn parses_solver_choices_and_rejects_unknown() {
        for (v, want) in [
            ("dense", SolverChoice::Dense),
            ("sparse", SolverChoice::Sparse),
            ("auto", SolverChoice::Auto),
        ] {
            let cfg = parse_args(&args(&[
                "cell.sp", "--output", "q", "--edge", "1n", "--solver", v,
            ]))
            .unwrap();
            assert_eq!(cfg.solver, want);
        }
        let cfg = parse_args(&args(&["cell.sp", "--output", "q", "--edge", "1n"])).unwrap();
        assert_eq!(cfg.solver, SolverChoice::Auto);
        let e = parse_args(&args(&[
            "cell.sp", "--output", "q", "--edge", "1n", "--solver", "cholesky",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("--solver"));
    }

    #[test]
    fn parses_batch_policies_and_rejects_unknown() {
        for (v, want) in [
            ("auto", BatchPolicy::Auto),
            ("scalar", BatchPolicy::Scalar),
            ("batched", BatchPolicy::Batched),
        ] {
            let cfg = parse_args(&args(&[
                "cell.sp", "--output", "q", "--edge", "1n", "--batch", v,
            ]))
            .unwrap();
            assert_eq!(cfg.batch, want);
        }
        let cfg = parse_args(&args(&["cell.sp", "--output", "q", "--edge", "1n"])).unwrap();
        assert_eq!(cfg.batch, BatchPolicy::Auto);
        let e = parse_args(&args(&[
            "cell.sp", "--output", "q", "--edge", "1n", "--batch", "turbo",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("--batch"));
    }

    #[test]
    fn parses_profile_flags_and_rejects_unknown_detail() {
        let cfg = parse_args(&args(&["cell.sp", "--output", "q", "--edge", "1n"])).unwrap();
        assert_eq!(cfg.profile, None);
        assert_eq!(cfg.profile_detail, shc_prof::Detail::Step);
        let cfg = parse_args(&args(&[
            "cell.sp",
            "--output",
            "q",
            "--edge",
            "1n",
            "--profile",
            "run_profile.json",
            "--profile-detail",
            "iter",
        ]))
        .unwrap();
        assert_eq!(cfg.profile.as_deref(), Some("run_profile.json"));
        assert_eq!(cfg.profile_detail, shc_prof::Detail::Iter);
        let e = parse_args(&args(&[
            "cell.sp",
            "--output",
            "q",
            "--edge",
            "1n",
            "--profile-detail",
            "nanosecond",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("--profile-detail"));
    }

    #[test]
    fn rejects_degenerate_point_counts() {
        let e = parse_args(&args(&[
            "cell.sp", "--output", "q", "--edge", "1n", "--points", "1",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("at least 2"));
    }

    #[test]
    fn rejects_missing_required() {
        assert!(parse_args(&args(&["--output", "q"])).is_err());
        assert!(parse_args(&args(&["cell.sp", "--edge", "1n"])).is_err());
        assert!(parse_args(&args(&["cell.sp", "--output", "q"])).is_err());
        assert!(parse_args(&args(&["cell.sp", "--output"])).is_err());
        assert!(parse_args(&args(&["cell.sp", "--bogus", "1"])).is_err());
        assert!(parse_args(&args(&["a.sp", "b.sp", "--output", "q", "--edge", "1n"])).is_err());
    }

    #[test]
    fn build_register_reports_unknown_output() {
        let cfg = parse_args(&args(&["x.sp", "--output", "nope", "--edge", "1n"])).unwrap();
        let deck = "R1 a 0 1k\n.end";
        let e = build_register(deck, &cfg).unwrap_err();
        assert!(e.to_string().contains("nope"));
    }
}
