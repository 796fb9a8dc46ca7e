//! Statistical (Monte Carlo) characterization.
//!
//! The paper's introduction names the second industrial axis besides PVT
//! corners: "statistical process samples". This module draws process
//! samples (threshold-voltage and transconductance variations), rebuilds
//! the cell per sample, and characterizes one interdependent setup/hold
//! point per sample — producing the distribution data a statistical STA
//! flow consumes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use shc_cells::{Register, Technology};
use shc_spice::batch::BatchPolicy;

use crate::mpnr::{self, MpnrOptions, MpnrResult};
use crate::parallel::{self, Parallelism};
use crate::seed::{self, SeedOptions};
use crate::{CharacterizationProblem, Result};

/// Process-variation model: independent Gaussian perturbations applied to
/// both device polarities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessVariation {
    /// Standard deviation of the threshold-voltage shift, in volts.
    pub sigma_vt: f64,
    /// Relative standard deviation of the transconductance `k'`.
    pub sigma_kp_rel: f64,
}

impl Default for ProcessVariation {
    fn default() -> Self {
        ProcessVariation {
            sigma_vt: 0.02,
            sigma_kp_rel: 0.05,
        }
    }
}

impl ProcessVariation {
    /// Draws one perturbed technology card.
    ///
    /// Uses a Box-Muller transform on the generator's uniform output, so
    /// only `rand`'s core API is needed.
    pub fn sample(&self, base: &Technology, rng: &mut impl Rng) -> Technology {
        let mut tech = *base;
        let mut gauss = |sigma: f64| -> f64 {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        tech.nmos.vt0 = (tech.nmos.vt0 + gauss(self.sigma_vt)).max(0.05);
        tech.pmos.vt0 = (tech.pmos.vt0 + gauss(self.sigma_vt)).max(0.05);
        tech.nmos.kp *= (1.0 + gauss(self.sigma_kp_rel)).max(0.2);
        tech.pmos.kp *= (1.0 + gauss(self.sigma_kp_rel)).max(0.2);
        tech
    }
}

/// One Monte Carlo sample's characterization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleResult {
    /// Sample index.
    pub index: usize,
    /// Characteristic clock-to-Q delay, seconds.
    /// unit: s
    pub t_cq: f64,
    /// Setup skew of the contour point at the pinned hold skew, seconds.
    /// unit: s
    pub tau_s: f64,
    /// The pinned hold skew, seconds.
    /// unit: s
    pub tau_h: f64,
    /// Simulations consumed by this sample.
    pub simulations: usize,
}

/// Aggregate statistics over the sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloStats {
    /// Number of samples.
    pub samples: usize,
    /// Mean setup skew, seconds.
    pub mean_tau_s: f64,
    /// Standard deviation of the setup skew, seconds.
    pub std_tau_s: f64,
    /// Mean characteristic clock-to-Q, seconds.
    pub mean_t_cq: f64,
    /// Standard deviation of the clock-to-Q, seconds.
    pub std_t_cq: f64,
    /// Total simulations across all samples.
    pub total_simulations: usize,
}

/// Options for a Monte Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloOptions {
    /// Number of samples to draw.
    pub samples: usize,
    /// RNG seed (runs are reproducible by construction).
    pub rng_seed: u64,
    /// Variation model.
    pub variation: ProcessVariation,
    /// Seeding options (first sample / fallback).
    pub seed: SeedOptions,
    /// MPNR options for warm-started samples.
    pub mpnr: MpnrOptions,
    /// Thread count for samples 1.. (sample 0 always runs first as the
    /// warm-start anchor). Results are independent of the policy: each
    /// sample draws from its own index-derived RNG stream.
    #[serde(skip)]
    pub parallelism: Parallelism,
}

impl Default for MonteCarloOptions {
    fn default() -> Self {
        MonteCarloOptions {
            samples: 20,
            rng_seed: 0x5348_4331,
            variation: ProcessVariation::default(),
            seed: SeedOptions::default(),
            mpnr: MpnrOptions::default(),
            parallelism: Parallelism::default(),
        }
    }
}

/// Decorrelates a per-sample RNG seed from the run seed and sample index
/// (SplitMix64 finalizer over a golden-ratio index stride), so each sample
/// owns an independent, order-free random stream.
fn sample_seed(rng_seed: u64, index: u64) -> u64 {
    let mut z = rng_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the perturbed problem for one sample index (the sample's own
/// RNG stream makes this independent of evaluation order).
fn build_sample_problem<F>(
    base: &Technology,
    build: &F,
    opts: &MonteCarloOptions,
    index: usize,
) -> Result<CharacterizationProblem>
where
    F: Fn(&Technology) -> Register,
{
    let mut rng = StdRng::seed_from_u64(sample_seed(opts.rng_seed, index as u64));
    let tech = opts.variation.sample(base, &mut rng);
    let problem = CharacterizationProblem::builder(build(&tech)).build()?;
    problem.reset_simulation_count();
    Ok(problem)
}

/// Packs a characterized sample: its problem's delay and simulation count
/// plus the contour point found on it.
fn sample_result(
    index: usize,
    problem: &CharacterizationProblem,
    point: &MpnrResult,
) -> SampleResult {
    SampleResult {
        index,
        t_cq: problem.characteristic_delay(),
        tau_s: point.params.tau_s,
        tau_h: point.params.tau_h,
        simulations: problem.simulation_count(),
    }
}

/// Runs a Monte Carlo characterization: for each process sample, finds the
/// interdependent setup/hold point at the seed's pinned hold skew.
///
/// Sample 0 is always solved first, from a cold seed; it anchors the MPNR
/// warm start for every later sample. Each sample draws its technology from
/// an RNG derived from `(rng_seed, index)`, so samples are independent of
/// execution order: every `opts.parallelism` gives the same samples for
/// the same seed.
///
/// `build` constructs the register for a sampled technology (e.g.
/// `|tech| tspc_register_with(tech, clock)`); it must be `Sync` so samples
/// can fan out across threads.
///
/// # Errors
///
/// Propagates the anchor sample's failures; later samples fall back to
/// cold seeding before giving up.
pub fn run<F>(
    base: &Technology,
    build: F,
    opts: &MonteCarloOptions,
) -> Result<(Vec<SampleResult>, MonteCarloStats)>
where
    F: Fn(&Technology) -> Register + Sync,
{
    let _span = shc_obs::span(shc_obs::SpanKind::MonteCarlo);
    let mut results: Vec<SampleResult> = Vec::with_capacity(opts.samples);
    if opts.samples > 0 {
        let problem = build_sample_problem(base, &build, opts, 0)?;
        let point = seed::find_first_point(&problem, &opts.seed)?;
        let anchor = point.params;
        results.push(sample_result(0, &problem, &point));
        // Samples polish on the scalar engine, so each is its own group:
        // it builds its problem, polishes the anchor onto it with one MPNR
        // solve, and seeds cold when the polish fails.
        results.extend(parallel::run_groups(
            opts.parallelism,
            BatchPolicy::Scalar,
            (1..opts.samples).collect(),
            |group| {
                group
                    .into_iter()
                    .map(|index| -> Result<SampleResult> {
                        let problem = build_sample_problem(base, &build, opts, index)?;
                        let point = match mpnr::solve(&problem, anchor, &opts.mpnr) {
                            Ok(p) => p,
                            Err(_) => seed::find_first_point(&problem, &opts.seed)?,
                        };
                        Ok(sample_result(index, &problem, &point))
                    })
                    .collect()
            },
        )?);
    }

    let n = results.len().max(1) as f64;
    let mean_tau_s = results.iter().map(|r| r.tau_s).sum::<f64>() / n;
    let mean_t_cq = results.iter().map(|r| r.t_cq).sum::<f64>() / n;
    let var_tau_s = results
        .iter()
        .map(|r| (r.tau_s - mean_tau_s).powi(2))
        .sum::<f64>()
        / n;
    let var_t_cq = results
        .iter()
        .map(|r| (r.t_cq - mean_t_cq).powi(2))
        .sum::<f64>()
        / n;
    let stats = MonteCarloStats {
        samples: results.len(),
        mean_tau_s,
        std_tau_s: var_tau_s.sqrt(),
        mean_t_cq,
        std_t_cq: var_t_cq.sqrt(),
        total_simulations: results.iter().map(|r| r.simulations).sum(),
    };
    Ok((results, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_cells::{tspc_register_with, ClockSpec};

    fn small_run(samples: usize, seed: u64) -> (Vec<SampleResult>, MonteCarloStats) {
        let base = Technology::default_250nm();
        let opts = MonteCarloOptions {
            samples,
            rng_seed: seed,
            ..MonteCarloOptions::default()
        };
        run(
            &base,
            |tech| tspc_register_with(tech, ClockSpec::fast()),
            &opts,
        )
        .expect("monte carlo runs")
    }

    #[test]
    fn produces_requested_samples_with_spread() {
        let (results, stats) = small_run(6, 1);
        assert_eq!(results.len(), 6);
        assert_eq!(stats.samples, 6);
        // Process variation must actually move the numbers.
        assert!(
            stats.std_tau_s > 0.2e-12,
            "σ(τs) = {:.2} ps",
            stats.std_tau_s * 1e12
        );
        assert!(stats.std_t_cq > 0.2e-12);
        for r in &results {
            assert!(r.t_cq > 10e-12 && r.t_cq < 1e-9);
        }
    }

    #[test]
    fn runs_are_reproducible_by_seed() {
        let (a, _) = small_run(4, 42);
        let (b, _) = small_run(4, 42);
        assert_eq!(a, b);
        let (c, _) = small_run(4, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn warm_start_reduces_later_sample_cost() {
        let (results, _) = small_run(5, 7);
        let cold = results[0].simulations;
        let cheapest_later = results[1..].iter().map(|r| r.simulations).min().unwrap();
        assert!(
            cheapest_later < cold,
            "warm start never helped: cold {cold}, later min {cheapest_later}"
        );
    }

    #[test]
    fn variation_sampling_respects_floors() {
        let mut rng = StdRng::seed_from_u64(9);
        let extreme = ProcessVariation {
            sigma_vt: 1.0,
            sigma_kp_rel: 2.0,
        };
        let base = Technology::default_250nm();
        for _ in 0..50 {
            let t = extreme.sample(&base, &mut rng);
            assert!(t.nmos.vt0 >= 0.05);
            assert!(t.pmos.vt0 >= 0.05);
            assert!(t.nmos.kp > 0.0);
            assert!(t.pmos.kp > 0.0);
        }
    }
}
