//! Every sweep driver runs through one executor (lane groups fanned over
//! threads), so neither the thread count nor, for the surface, the batch
//! policy may change what a sweep returns. This test runs the surface on
//! the fast clock over `Parallelism::{Serial, Threads(2), Threads(3)}` ×
//! `BatchPolicy::{Scalar, Auto, Batched}`, and the Monte Carlo, corner and
//! `trace_batch` drivers (which run on the scalar engine) over the thread
//! counts, and requires every output to match the serial (`Auto`) run bit
//! for bit.

use shc::cells::{tspc_register_with, ClockSpec, Register, Technology};
use shc::core::corners::{self, CornerResult, SweepOptions};
use shc::core::montecarlo::{self, MonteCarloOptions, SampleResult};
use shc::core::{
    surface, trace_batch, BatchContour, BatchOptions, BatchPolicy, CharacterizationProblem,
    Contour, Parallelism, SurfaceOptions,
};

const PARALLELISMS: [Parallelism; 3] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(3),
];
const POLICIES: [BatchPolicy; 3] = [BatchPolicy::Scalar, BatchPolicy::Auto, BatchPolicy::Batched];

fn fast_tspc(tech: &Technology) -> Register {
    tspc_register_with(tech, ClockSpec::fast())
}

/// Bit patterns of a contour's floating-point content plus its counters.
fn contour_bits(c: &Contour) -> Vec<u64> {
    let mut bits = vec![
        c.simulations() as u64,
        c.total_corrector_iterations() as u64,
    ];
    for p in c.points() {
        bits.extend([
            p.tau_s.to_bits(),
            p.tau_h.to_bits(),
            p.residual.to_bits(),
            p.corrector_iterations as u64,
        ]);
    }
    bits
}

fn sample_bits(samples: &[SampleResult]) -> Vec<[u64; 5]> {
    samples
        .iter()
        .map(|s| {
            [
                s.index as u64,
                s.t_cq.to_bits(),
                s.tau_s.to_bits(),
                s.tau_h.to_bits(),
                s.simulations as u64,
            ]
        })
        .collect()
}

fn corner_bits(corners: &[CornerResult]) -> Vec<(String, bool, Vec<u64>)> {
    corners
        .iter()
        .map(|c| {
            let mut bits = vec![c.t_cq.to_bits(), c.simulations as u64];
            bits.extend(contour_bits(&c.contour));
            (c.label.clone(), c.warm_started, bits)
        })
        .collect()
}

fn level_bits(levels: &[BatchContour]) -> Vec<Vec<u64>> {
    levels
        .iter()
        .map(|l| {
            let mut bits = vec![
                l.degradation.to_bits(),
                l.t_cq.to_bits(),
                l.simulations as u64,
            ];
            bits.extend(contour_bits(&l.contour));
            bits
        })
        .collect()
}

/// Runs `f` over the whole threads × policies matrix and checks each
/// output against the serial `Auto` one.
fn assert_matrix_identical<T: PartialEq + std::fmt::Debug>(
    what: &str,
    f: impl Fn(Parallelism, BatchPolicy) -> T,
) {
    let reference = f(Parallelism::Serial, BatchPolicy::Auto);
    for parallelism in PARALLELISMS {
        for policy in POLICIES {
            assert_eq!(
                f(parallelism, policy),
                reference,
                "{what}: {parallelism:?} × {policy:?} differs from serial Auto"
            );
        }
    }
}

#[test]
fn surface_is_bitwise_identical_across_threads_and_policies() {
    let tech = Technology::default_250nm();
    assert_matrix_identical("surface", |parallelism, policy| {
        let problem = CharacterizationProblem::builder(fast_tspc(&tech))
            .batch(policy)
            .build()
            .expect("problem");
        let r = problem.reference_params();
        let grid = SurfaceOptions {
            tau_s_range: (r.tau_s - 50e-12, r.tau_s),
            tau_h_range: (r.tau_h - 50e-12, r.tau_h),
            n: 6,
            parallelism,
        };
        let surf = surface::generate(&problem, &grid).expect("surface");
        assert_eq!(surf.simulations(), 36);
        let values: Vec<u64> = surf
            .values()
            .iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect();
        (
            values,
            surf.tau_s_grid().to_vec(),
            surf.tau_h_grid().to_vec(),
        )
    });
}

/// Runs `f` over the thread counts and checks each output against the
/// serial one.
fn assert_threads_identical<T: PartialEq + std::fmt::Debug>(
    what: &str,
    f: impl Fn(Parallelism) -> T,
) {
    let reference = f(Parallelism::Serial);
    for parallelism in PARALLELISMS {
        assert_eq!(
            f(parallelism),
            reference,
            "{what}: {parallelism:?} differs from serial"
        );
    }
}

#[test]
fn monte_carlo_is_bitwise_identical_across_threads() {
    let base = Technology::default_250nm();
    assert_threads_identical("monte carlo", |parallelism| {
        let opts = MonteCarloOptions {
            samples: 5,
            rng_seed: 42,
            parallelism,
            ..MonteCarloOptions::default()
        };
        let (samples, stats) = montecarlo::run(&base, fast_tspc, &opts).expect("monte carlo");
        assert_eq!(samples.len(), 5);
        (sample_bits(&samples), stats.total_simulations)
    });
}

#[test]
fn corner_sweep_is_bitwise_identical_across_threads() {
    let registers = || -> Vec<(String, Register)> {
        [2.3, 2.5, 2.7]
            .iter()
            .map(|&vdd| {
                let mut tech = Technology::default_250nm();
                tech.vdd = vdd;
                (format!("vdd_{vdd}"), fast_tspc(&tech))
            })
            .collect()
    };
    assert_threads_identical("corners", |parallelism| {
        let opts = SweepOptions {
            points: 5,
            parallelism,
            ..SweepOptions::default()
        };
        let results = corners::sweep(registers(), &opts).expect("sweep");
        assert_eq!(results.len(), 3);
        assert!(!results[0].warm_started, "the anchor corner seeds cold");
        corner_bits(&results)
    });
}

#[test]
fn trace_batch_is_bitwise_identical_across_threads() {
    let build = || fast_tspc(&Technology::default_250nm());
    assert_threads_identical("trace_batch", |parallelism| {
        let opts = BatchOptions {
            points: 5,
            parallelism,
            ..BatchOptions::default()
        };
        let levels: Vec<BatchContour> = trace_batch(build, &[0.05, 0.10], &opts)
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("levels trace");
        assert_eq!(levels.len(), 2);
        level_bits(&levels)
    });
}
