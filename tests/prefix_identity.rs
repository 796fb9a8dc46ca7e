//! Prefix reuse must be invisible in the results. Every `h` evaluation,
//! scalar or lockstep batch, resumes from the problem's data-at-rest prefix
//! ladder when it can; these tests require `evaluate`,
//! `evaluate_with_jacobian` and `evaluate_batch` to stay bitwise equal (h,
//! both derivatives, step counters) to a direct `TransientAnalysis::run`
//! with the same options, on generated and adversarial skews, and require
//! the paths outside the resume envelope (TRAP, sparse solves, fault
//! injection) never to resume.
//!
//! The property tests draw from the vendored proptest's per-test seed; a
//! failure names the case and the skews, which reproduce it exactly.

use std::sync::OnceLock;

use proptest::prelude::*;

use shc::cells::{
    c2mos_register_with, tg_register_with, tspc_register_with, ClockSpec, Technology,
    C2MOS_CLKB_SKEW,
};
use shc::core::{BatchPolicy, CharacterizationProblem, HEvaluation};
use shc::fault::{FaultKind, FaultPlan, Injector, Site};
use shc::obs::{Collector, Metric};
use shc::spice::transient::{
    Integrator, PrefixCache, RecordMode, TransientAnalysis, TransientOptions, TransientScratch,
    REST_SKEWS,
};
use shc::spice::waveform::{Param, Params};
use shc::spice::SolverChoice;

fn build(cell: &str, integrator: Integrator, solver: SolverChoice) -> CharacterizationProblem {
    build_with(cell, integrator, solver, BatchPolicy::Auto)
}

fn build_with(
    cell: &str,
    integrator: Integrator,
    solver: SolverChoice,
    batch: BatchPolicy,
) -> CharacterizationProblem {
    let tech = Technology::default_250nm();
    let register = match cell {
        "tspc" => tspc_register_with(&tech, ClockSpec::fast()),
        "c2mos" => c2mos_register_with(&tech, ClockSpec::fast(), C2MOS_CLKB_SKEW),
        _ => tg_register_with(&tech, ClockSpec::fast()),
    };
    CharacterizationProblem::builder(register)
        .integrator(integrator)
        .solver(solver)
        .batch(batch)
        .build()
        .expect("problem builds")
}

/// The three fixtures on the default (prefix-eligible) options, built once.
fn problems() -> &'static [(&'static str, CharacterizationProblem)] {
    static PROBLEMS: OnceLock<Vec<(&'static str, CharacterizationProblem)>> = OnceLock::new();
    PROBLEMS.get_or_init(|| {
        ["tspc", "c2mos", "tg"]
            .into_iter()
            .map(|c| (c, build(c, Integrator::BackwardEuler, SolverChoice::Auto)))
            .collect()
    })
}

/// The options `problem` evaluates `h` with.
fn options(problem: &CharacterizationProblem, sensitivities: bool) -> TransientOptions {
    let params: &[Param] = if sensitivities { &Param::ALL } else { &[] };
    TransientOptions::builder(problem.t_f())
        .dt(problem.dt())
        .integrator(problem.integrator())
        .solver(problem.solver())
        .record(RecordMode::FinalOnly)
        .sensitivities(params)
        .build()
}

/// Bits of an `HEvaluation`, or the error text.
fn eval_bits(ev: Result<HEvaluation, String>) -> Result<[u64; 6], String> {
    ev.map(|e| {
        [
            e.h.to_bits(),
            e.dh_dtau_s.to_bits(),
            e.dh_dtau_h.to_bits(),
            e.stats.steps as u64,
            e.stats.newton_iterations as u64,
            e.stats.rejected_steps as u64,
        ]
    })
}

/// Direct full run of `h` and its Jacobian.
fn direct(problem: &CharacterizationProblem, p: &Params) -> Result<HEvaluation, String> {
    let circuit = problem.register().circuit();
    let res = TransientAnalysis::new(circuit, options(problem, true))
        .run(p)
        .map_err(|e| e.to_string())?;
    let out = problem.register().output_unknown();
    Ok(HEvaluation {
        h: res.final_state()[out] - problem.r(),
        dh_dtau_s: res.final_sensitivity(Param::Setup).expect("setup")[out],
        dh_dtau_h: res.final_sensitivity(Param::Hold).expect("hold")[out],
        stats: *res.stats(),
    })
}

/// Direct full run of `h` alone.
fn direct_h(problem: &CharacterizationProblem, p: &Params) -> Result<u64, String> {
    let circuit = problem.register().circuit();
    let res = TransientAnalysis::new(circuit, options(problem, false))
        .run(p)
        .map_err(|e| e.to_string())?;
    Ok((res.final_state()[problem.register().output_unknown()] - problem.r()).to_bits())
}

/// Asserts both problem evaluations at `p` equal the direct runs bitwise.
fn assert_identical(cell: &str, problem: &CharacterizationProblem, p: &Params) {
    let resumed = eval_bits(problem.evaluate_with_jacobian(p).map_err(|e| e.to_string()));
    assert_eq!(
        resumed,
        eval_bits(direct(problem, p)),
        "{cell} at {p:?}: evaluate_with_jacobian differs from the full run"
    );
    let h = problem
        .evaluate(p)
        .map(f64::to_bits)
        .map_err(|e| e.to_string());
    assert_eq!(
        h,
        direct_h(problem, p),
        "{cell} at {p:?}: evaluate differs from the full run"
    );
}

/// `evaluate_batch` over `points` (one lockstep group) must equal direct
/// full runs bitwise, point for point. Returns the group's
/// `(PrefixResumes, PrefixStepsSkipped)`.
fn assert_batch_identical(
    cell: &str,
    problem: &CharacterizationProblem,
    points: &[Params],
) -> (u64, u64) {
    let mut batched = None;
    let counts = resumes_in(|| {
        batched = Some(
            problem
                .evaluate_batch(points)
                .map(|hs| hs.iter().map(|h| h.to_bits()).collect::<Vec<_>>())
                .map_err(|e| e.to_string()),
        );
    });
    let direct: Result<Vec<u64>, String> = points.iter().map(|p| direct_h(problem, p)).collect();
    assert_eq!(
        batched.expect("ran"),
        direct,
        "{cell} at {points:?}: evaluate_batch differs from the full runs"
    );
    counts
}

/// Runs `f` under a fresh collector and returns its snapshot counters
/// `(PrefixResumes, PrefixStepsSkipped)`.
fn resumes_in(f: impl FnOnce()) -> (u64, u64) {
    let collector = Collector::new();
    {
        let _guard = shc::obs::install_scoped(&collector);
        f();
    }
    let snap = collector.snapshot();
    (
        snap.counter(Metric::PrefixResumes),
        snap.counter(Metric::PrefixStepsSkipped),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated skews around each fixture's reference point, from deep
    /// setup violations to horizons past `t_f`.
    #[test]
    fn evaluations_match_direct_runs_bitwise(
        s in -0.6..1.6f64,
        h in -0.6..1.6f64,
    ) {
        for (cell, problem) in problems() {
            let r = problem.reference_params();
            let p = Params::new(s * r.tau_s, h * r.tau_h);
            let resumed = eval_bits(problem.evaluate_with_jacobian(&p).map_err(|e| e.to_string()));
            prop_assert!(
                resumed == eval_bits(direct(problem, &p)),
                "{cell} at {p:?} (s = {s}, h = {h}): evaluate_with_jacobian differs"
            );
            let hv = problem.evaluate(&p).map(f64::to_bits).map_err(|e| e.to_string());
            prop_assert!(
                hv == direct_h(problem, &p),
                "{cell} at {p:?} (s = {s}, h = {h}): evaluate differs"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Generated lane groups as a surface sweep chunks its row-major grid:
    /// five hold skews on one setup row, or the tail of one row and the
    /// head of the next. Every group must start from a rung.
    #[test]
    fn batches_match_direct_runs_bitwise(
        s in 0.4..1.6f64,
        next in 0.4..1.6f64,
        hs in prop::collection::vec(-0.6..1.6f64, 5),
        split in 1..6usize,
    ) {
        for (cell, problem) in problems() {
            let r = problem.reference_params();
            let points: Vec<Params> = hs
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    let row = if i < split { s } else { next };
                    Params::new(row * r.tau_s, h * r.tau_h)
                })
                .collect();
            let (resumes, _) = assert_batch_identical(cell, problem, &points);
            prop_assert!(
                resumes == points.len() as u64,
                "{cell} at {points:?} (s = {s}, next = {next}, split = {split}): {resumes} resumes"
            );
        }
    }
}

#[test]
fn batch_lanes_with_non_finite_skews_start_from_dc() {
    for (cell, problem) in problems() {
        let r = problem.reference_params();
        for bad in [
            Params::new(f64::NAN, r.tau_h),
            Params::new(r.tau_s, f64::INFINITY),
        ] {
            let points = [r, bad, Params::new(0.8 * r.tau_s, r.tau_h)];
            let (resumes, _) = assert_batch_identical(cell, problem, &points);
            assert_eq!(resumes, 0, "{cell} at {points:?} resumed");
        }
    }
}

#[test]
fn batches_resume_from_the_rung_below_the_earliest_lane_horizon() {
    for (cell, problem) in problems() {
        let cache = recorded(problem);
        let ladder = cache.ladder().expect("recorded");
        let r = problem.reference_params();

        // The earliest lane's horizon lies exactly on a rung: the batch
        // starts from the rung below it, every lane alike.
        let k = ladder.rungs() / 2;
        let t_k = ladder.rung_time(k).expect("rung exists");
        let (on, exact) = setup_with_horizon(problem, t_k, 0.5e-9);
        assert!(exact, "{cell}: no setup skew puts the horizon on {t_k:e}");
        let points = [r, on, Params::new(on.tau_s, r.tau_h)];
        let (resumes, skipped) = assert_batch_identical(cell, problem, &points);
        let rung = ladder.rung_steps(k - 1).expect("rung exists") as u64;
        assert_eq!((resumes, skipped), (3, 3 * rung), "{cell}");

        // A lane whose horizon is at or before the first rung keeps the
        // whole group at the DC start.
        let t0 = ladder.rung_time(0).expect("rung exists");
        for t in [t0, 0.5 * t0] {
            let (early, _) = setup_with_horizon(problem, t, 0.5e-9);
            let points = [r, early];
            let (resumes, _) = assert_batch_identical(cell, problem, &points);
            assert_eq!(resumes, 0, "{cell} at {points:?} resumed");
        }
    }
}

#[test]
fn injected_batches_never_resume() {
    // `BatchPolicy::Batched` batches under an injector (one that never
    // fires, so the outputs stay comparable); a warm ladder must go
    // unused there.
    let problem = build_with(
        "tspc",
        Integrator::BackwardEuler,
        SolverChoice::Auto,
        BatchPolicy::Batched,
    );
    let r = problem.reference_params();
    problem.evaluate(&r).expect("evaluates");
    assert_eq!(problem.calibration_simulations(), 2, "ladder recorded");
    let injector = Injector::new(FaultPlan {
        probability: 0.0,
        site: None,
        kind: FaultKind::NonConvergence,
        seed: 3,
    });
    let points = [r, Params::new(0.9 * r.tau_s, r.tau_h)];
    let (resumes, _) = {
        let _faults = shc::fault::install_scoped(&injector);
        assert_batch_identical("tspc", &problem, &points)
    };
    assert_eq!(resumes, 0, "injected batch resumed");
}

/// A prefix cache recorded as the problem records its own. The first
/// run binding it has no sensitivities; the recording still carries both.
fn recorded(problem: &CharacterizationProblem) -> PrefixCache {
    let cache = PrefixCache::new();
    TransientAnalysis::new(problem.register().circuit(), options(problem, false))
        .with_prefix(&cache)
        .run(&REST_SKEWS)
        .expect("runs");
    assert!(cache.ladder().is_some(), "ladder recorded");
    cache
}

/// Setup skew whose agreement horizon with the rest skews is the latest
/// one at or before `t` (the hold skew keeps the trailing edge past
/// `t_f`), and whether it lands exactly on `t`. Near `t = 0` the horizon
/// `t_edge − τs − rise/2` cancels, so not every time is reachable.
fn setup_with_horizon(problem: &CharacterizationProblem, t: f64, tau_h: f64) -> (Params, bool) {
    let circuit = problem.register().circuit();
    let horizon = |tau_s: f64| circuit.agreement_horizon(&REST_SKEWS, &Params::new(tau_s, tau_h));
    // The leading edge leaves rest at `horizon(0) − τs`; walk ulps from
    // the estimate toward `t`, keeping the latest horizon not after it.
    let mut tau_s = horizon(0.0) - t;
    let mut best: Option<(f64, f64)> = None;
    for _ in 0..256 {
        let got = horizon(tau_s);
        if got <= t && best.is_none_or(|(b, _)| got > b) {
            best = Some((got, tau_s));
        }
        if got.to_bits() == t.to_bits() {
            break;
        }
        tau_s = if got > t {
            tau_s.next_up()
        } else {
            tau_s.next_down()
        };
    }
    let (got, tau_s) = best.expect("some setup skew puts the horizon before t");
    (Params::new(tau_s, tau_h), got.to_bits() == t.to_bits())
}

#[test]
fn horizon_on_a_rung_resumes_from_the_rung_below() {
    for (cell, problem) in problems() {
        let cache = recorded(problem);
        let ladder = cache.ladder().expect("recorded");
        let analysis = TransientAnalysis::new(problem.register().circuit(), options(problem, true))
            .with_prefix(&cache);
        let k = ladder.rungs() / 2;
        assert!(
            k >= 1,
            "{cell}: ladder too short ({} rungs)",
            ladder.rungs()
        );
        let t_k = ladder.rung_time(k).expect("rung exists");
        let (p, exact) = setup_with_horizon(problem, t_k, 0.5e-9);
        assert!(exact, "{cell}: no setup skew puts the horizon on {t_k:e}");

        // Strict `<`: a rung whose time equals the horizon is not usable.
        let mut scratch = TransientScratch::new(problem.register().circuit().unknown_count());
        let mut resumed = None;
        let (resumes, skipped) = resumes_in(|| {
            resumed = Some(analysis.run_with_scratch(&p, &mut scratch).expect("runs"));
        });
        assert_eq!(resumes, 1, "{cell}");
        assert_eq!(Some(skipped as usize), ladder.rung_steps(k - 1), "{cell}");

        let resumed = resumed.expect("ran");
        let full = TransientAnalysis::new(problem.register().circuit(), options(problem, true))
            .run(&p)
            .expect("runs");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(resumed.times()), bits(full.times()), "{cell}: times");
        assert_eq!(
            bits(resumed.final_state().as_slice()),
            bits(full.final_state().as_slice()),
            "{cell}: final state"
        );
        for param in Param::ALL {
            assert_eq!(
                bits(resumed.final_sensitivity(param).expect("s").as_slice()),
                bits(full.final_sensitivity(param).expect("s").as_slice()),
                "{cell}: {param:?} sensitivity"
            );
        }
        assert_eq!(resumed.stats(), full.stats(), "{cell}: stats");

        assert_identical(cell, problem, &p);
    }
}

#[test]
fn horizons_at_or_before_the_first_rung_run_in_full() {
    for (cell, problem) in problems() {
        let cache = recorded(problem);
        let ladder = cache.ladder().expect("recorded");
        let t0 = ladder.rung_time(0).expect("rung exists");
        let (on, _) = setup_with_horizon(problem, t0, 0.5e-9);
        let (before, _) = setup_with_horizon(problem, 0.5 * t0, 0.5e-9);
        for p in [on, before] {
            let (resumes, _) = resumes_in(|| assert_identical(cell, problem, &p));
            assert_eq!(resumes, 0, "{cell} at {p:?} resumed");
        }
    }
}

#[test]
fn non_finite_skews_never_resume_and_match_the_full_run() {
    for (cell, problem) in problems() {
        let r = problem.reference_params();
        for p in [
            Params::new(f64::NAN, r.tau_h),
            Params::new(r.tau_s, f64::NAN),
            Params::new(f64::INFINITY, r.tau_h),
            Params::new(r.tau_s, f64::NEG_INFINITY),
        ] {
            let (resumes, _) = resumes_in(|| assert_identical(cell, problem, &p));
            assert_eq!(resumes, 0, "{cell} at {p:?} resumed");
        }
    }
}

#[test]
fn negative_setup_resumes_from_the_last_rung() {
    for (cell, problem) in problems() {
        let cache = recorded(problem);
        let ladder = cache.ladder().expect("recorded");
        // The leading edge starts after `t_f`: the whole run is the rest
        // trajectory, so it resumes from the last rung.
        let p = Params::new(-2.0 * problem.t_f(), 0.5e-9);
        assert!(
            problem
                .register()
                .circuit()
                .agreement_horizon(&REST_SKEWS, &p)
                >= problem.t_f()
        );
        let (resumes, skipped) = resumes_in(|| {
            problem.evaluate_with_jacobian(&p).expect("evaluates");
        });
        assert_eq!(resumes, 1, "{cell}");
        assert_eq!(
            Some(skipped as usize),
            ladder.rung_steps(ladder.rungs() - 1),
            "{cell}"
        );
        assert_identical(cell, problem, &p);
    }
}

#[test]
fn setup_skew_equal_to_the_rest_skew_matches_the_full_run() {
    for (cell, problem) in problems() {
        let r = problem.reference_params();
        // τs bitwise equal to the rest skew: the leading edge never
        // constrains the horizon; the trailing edge alone does.
        for p in [Params::new(REST_SKEWS.tau_s, r.tau_h), REST_SKEWS] {
            assert_identical(cell, problem, &p);
        }
    }
}

#[test]
fn trap_and_sparse_problems_never_resume() {
    for (integrator, solver) in [
        (Integrator::Trapezoidal, SolverChoice::Auto),
        (Integrator::BackwardEuler, SolverChoice::Sparse),
    ] {
        let problem = build("tspc", integrator, solver);
        let r = problem.reference_params();
        let (resumes, skipped) = resumes_in(|| {
            for s in [0.5, 1.0] {
                let p = Params::new(s * r.tau_s, r.tau_h);
                problem.evaluate_with_jacobian(&p).expect("evaluates");
                problem.evaluate(&p).expect("evaluates");
            }
        });
        assert_eq!(
            (resumes, skipped),
            (0, 0),
            "{integrator:?}/{solver:?} resumed"
        );
        assert_eq!(
            problem.calibration_simulations(),
            1,
            "{integrator:?}/{solver:?} recorded a ladder"
        );
    }
}

#[test]
fn injected_runs_never_resume_and_draw_the_parent_fault_sequence() {
    let plan = FaultPlan {
        probability: 0.05,
        site: Some(Site::Newton),
        kind: FaultKind::NonConvergence,
        seed: 11,
    };
    let points = |problem: &CharacterizationProblem| {
        let r = problem.reference_params();
        [0.6, 0.8, 1.0].map(|s| Params::new(s * r.tau_s, r.tau_h))
    };
    // Under one injector: the outputs, the fault cursors, and whether any
    // run resumed.
    let injected = |problem: &CharacterizationProblem| {
        let injector = Injector::new(plan);
        let mut outputs = Vec::new();
        let (resumes, _) = resumes_in(|| {
            let _faults = shc::fault::install_scoped(&injector);
            for p in points(problem) {
                outputs.push(eval_bits(
                    problem
                        .evaluate_with_jacobian(&p)
                        .map_err(|e| e.to_string()),
                ));
            }
        });
        (outputs, injector.cursors(), resumes)
    };

    // A fresh problem never records under the injector; a warm one holds
    // a ladder but must not use it. Both draw the same fault stream.
    let cold = build("tspc", Integrator::BackwardEuler, SolverChoice::Auto);
    let warm = build("tspc", Integrator::BackwardEuler, SolverChoice::Auto);
    warm.evaluate(&points(&warm)[0]).expect("evaluates");
    assert_eq!(warm.calibration_simulations(), 2, "ladder recorded");

    let (cold_out, cold_cursors, cold_resumes) = injected(&cold);
    assert_eq!(cold.calibration_simulations(), 1, "recorded under faults");
    let (warm_out, warm_cursors, warm_resumes) = injected(&warm);
    assert_eq!((cold_resumes, warm_resumes), (0, 0), "injected run resumed");
    assert_eq!(cold_out, warm_out, "outputs differ under the injector");
    assert_eq!(cold_cursors, warm_cursors, "fault draw sequence differs");
}
