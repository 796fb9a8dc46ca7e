//! End-to-end fault-injection acceptance tests: a realistic fault plan on a
//! full-length TSPC trace must be absorbed by the recovery ladder, leaving
//! the same contour the fault-free run produces plus a telemetry record of
//! the recovery work.

use std::path::Path;
use std::sync::Arc;

use shc::cells::{tspc_register, ClockSpec, Technology};
use shc::core::seed::find_first_point;
use shc::core::tracer::trace_session;
use shc::core::{CharacterizationProblem, SeedOptions, TraceOutcome, TraceStart, TracerOptions};
use shc::fault::{FaultKind, FaultPlan, Injector, Site};
use shc::spice::waveform::Params;
use shc_obs::{Collector, FileSink, Metric, Sink};

fn fast_problem() -> CharacterizationProblem {
    let tech = Technology::default_250nm();
    CharacterizationProblem::builder(tspc_register(&tech).with_clock(ClockSpec::fast()))
        .build()
        .expect("problem builds")
}

#[test]
fn ten_percent_newton_faults_recover_to_the_fault_free_contour() {
    let n = 40;
    let opts = TracerOptions::default();

    // Reference: fault-free trace.
    let problem = fast_problem();
    let seed = find_first_point(&problem, &SeedOptions::default()).expect("seed");
    let reference = trace_session(&problem, TraceStart::Seed(seed.params), n, &opts, None)
        .expect("fault-free trace")
        .into_contour();

    // Same trace under a 10% Newton non-convergence plan, journaled.
    let dir = std::env::temp_dir().join(format!(
        "shc-fault-recovery-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("faulted.jsonl");
    let _ = std::fs::remove_file(&journal);

    let plan = FaultPlan {
        probability: 0.10,
        site: Some(Site::Newton),
        kind: FaultKind::NonConvergence,
        seed: 42,
    };
    let injector = Injector::new(plan);
    let sink: Arc<dyn Sink> = Arc::new(FileSink::create(Path::new(&journal)).unwrap());
    let collector = Collector::with_sink(sink);
    let problem2 = fast_problem();
    let outcome = {
        let _faults = shc::fault::install_scoped(&injector);
        let _telemetry = shc_obs::install_scoped(&collector);
        trace_session(&problem2, TraceStart::Seed(seed.params), n, &opts, None)
            .expect("faulted trace survives")
    };
    collector.flush().unwrap();
    let snapshot = collector.snapshot();

    // The plan actually fired, and the solver stack spent recovery work
    // absorbing it (rejected timesteps from dt cuts and/or floor retries).
    assert!(injector.injected() > 0, "fault plan never fired");
    assert_eq!(
        snapshot.counter(Metric::FaultsInjected),
        injector.injected(),
        "injector and telemetry disagree on injected faults"
    );
    let recovery_work =
        snapshot.counter(Metric::LteRejections) + snapshot.counter(Metric::NewtonRecoveries);
    assert!(recovery_work > 0, "no recovery work recorded in telemetry");

    // Recovery reached a *complete* contour...
    let contour = match outcome {
        TraceOutcome::Complete(c) => c,
        TraceOutcome::Partial { contour, failure } => panic!(
            "trace degraded to a partial contour ({} points): {failure}",
            contour.points().len()
        ),
    };
    // ...whose every point lies on the fault-free contour: re-evaluating
    // `h` at each faulted point with a clean simulator must land inside the
    // corrector's residual band. (Recovery may re-space points *along* the
    // contour — dt cuts perturb trajectories and step-halving changes the
    // predictor — so point-for-point τ equality is not the contract;
    // membership in the level set is.)
    assert_eq!(contour.points().len(), reference.points().len());
    let band = reference
        .points()
        .iter()
        .map(|p| p.residual)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    for (i, p) in contour.points().iter().enumerate() {
        let h = problem
            .evaluate(&Params::new(p.tau_s, p.tau_h))
            .expect("fault-free evaluation of a faulted-trace point");
        assert!(
            h.abs() <= 10.0 * band,
            "point {i} off the contour: |h| = {:.3e} V vs corrector band {:.3e} V",
            h.abs(),
            band
        );
    }

    // The journal records per-point recovery attempts (the field exists on
    // every traced-point event; the trace may or may not have needed
    // tracer-level recovery on top of the in-simulator retries).
    let text = std::fs::read_to_string(&journal).unwrap();
    let rows: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(rows.len(), contour.points().len());
    for row in &rows {
        assert!(
            shc_obs::json::scan_u64(row, "recovery_attempts").is_some(),
            "journal row missing recovery_attempts: {row}"
        );
    }

    std::fs::remove_file(&journal).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn per_run_transient_faults_yield_partial_or_recovered_contours_never_panics() {
    let problem = fast_problem();
    let seed = find_first_point(&problem, &SeedOptions::default()).expect("seed");
    let opts = TracerOptions::default();
    // Transient-site faults surface as simulation errors, which only the
    // restart rung can absorb; at 30% per run, exhaustion is plausible and
    // must come out as a clean partial contour or typed error.
    let plan = FaultPlan {
        probability: 0.30,
        site: Some(Site::Transient),
        kind: FaultKind::NanResidual,
        seed: 7,
    };
    let injector = Injector::new(plan);
    let result = {
        let _faults = shc::fault::install_scoped(&injector);
        trace_session(&problem, TraceStart::Seed(seed.params), 12, &opts, None)
    };
    assert!(injector.injected() > 0, "fault plan never fired");
    match result {
        Ok(TraceOutcome::Complete(c)) => assert!(c.points().len() >= 2),
        Ok(TraceOutcome::Partial { contour, .. }) => assert!(contour.points().len() >= 2),
        Err(_) => {} // typed error is an acceptable (graceful) outcome
    }
}

#[test]
fn threaded_monte_carlo_and_corner_sweeps_survive_every_fault_site() {
    use shc::cells::tspc_register_with;
    use shc::core::corners::{self, SweepOptions};
    use shc::core::montecarlo::{self, MonteCarloOptions};
    use shc::core::Parallelism;

    let base = Technology::default_250nm();
    let fast = |tech: &Technology| tspc_register_with(tech, ClockSpec::fast());
    let corners = || {
        [2.3, 2.5, 2.7]
            .iter()
            .map(|&vdd| {
                let mut tech = base;
                tech.vdd = vdd;
                (format!("vdd_{vdd}"), fast(&tech))
            })
            .collect::<Vec<_>>()
    };
    let mc_opts = MonteCarloOptions {
        samples: 4,
        rng_seed: 11,
        parallelism: Parallelism::Threads(2),
        ..MonteCarloOptions::default()
    };
    let sweep_opts = SweepOptions {
        points: 4,
        parallelism: Parallelism::Threads(2),
        ..SweepOptions::default()
    };
    // Per-site rates: the solver sites are drawn thousands of times per
    // sweep and their faults are absorbed by retries; the per-run and
    // per-solve sites are drawn a few dozen times.
    let rates = [
        (Site::LuFactor, 0.01),
        (Site::LuSolve, 0.01),
        (Site::Newton, 0.01),
        (Site::Transient, 0.05),
        (Site::Mpnr, 0.2),
    ];
    assert_eq!(rates.len(), Site::COUNT, "every site is covered");
    for (site, probability) in rates {
        // Workers share the injector, so which call draws a fault depends
        // on thread timing; only the shape of the outcome is the contract:
        // complete results or a typed error, never a panic.
        let injector = Injector::new(FaultPlan {
            probability,
            site: Some(site),
            kind: FaultKind::NonConvergence,
            seed: 5,
        });
        let _faults = shc::fault::install_scoped(&injector);
        // An `Err` is a typed `CharError`, a graceful outcome; a result
        // must be complete.
        if let Ok((samples, stats)) = montecarlo::run(&base, fast, &mc_opts) {
            assert_eq!(samples.len(), 4, "{site:?}: Monte Carlo lost samples");
            assert_eq!(stats.samples, 4, "{site:?}");
        }
        if let Ok(results) = corners::sweep(corners(), &sweep_opts) {
            let labels: Vec<&str> = results.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(labels, ["vdd_2.3", "vdd_2.5", "vdd_2.7"], "{site:?}");
        }
        assert!(injector.injected() > 0, "{site:?}: the plan never fired");
    }
}
