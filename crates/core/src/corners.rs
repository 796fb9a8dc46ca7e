//! Multi-corner (PVT) characterization sweeps.
//!
//! The paper's motivation (Sec. I): setup/hold must be characterized "for
//! every register/cell of every standard cell library … for all
//! process-voltage-temperature (PVT) corners or statistical process
//! samples", which is why characterization takes "weeks or months even on
//! large dedicated computer clusters". This module implements that outer
//! loop over the Euler-Newton kernel, with the warm-start the paper's
//! Sec. III-E step 1a recommends: the first corner is seeded cold, and
//! every later corner's seed is polished from the first corner's first
//! contour point, skipping the bracketing search entirely whenever the
//! corners are adjacent enough.

use serde::{Deserialize, Serialize};
use shc_cells::Register;
use shc_spice::batch::BatchPolicy;
use shc_spice::waveform::Params;

use crate::mpnr::{self, MpnrOptions};
use crate::parallel::{self, Parallelism};
use crate::seed::{self, SeedOptions};
use crate::tracer::{self, TracerOptions};
use crate::{CharacterizationProblem, Contour, Result};

/// One corner's characterization outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerResult {
    /// Corner label (e.g. `"ss_2.3V"`).
    pub label: String,
    /// Characteristic clock-to-Q delay at this corner, seconds.
    pub t_cq: f64,
    /// The traced constant clock-to-Q contour.
    pub contour: Contour,
    /// Transient simulations this corner consumed (seeding + tracing).
    pub simulations: usize,
    /// Whether the warm start from the first corner succeeded (false for
    /// the first corner itself and after warm-start fallbacks).
    pub warm_started: bool,
}

/// Options for a corner sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepOptions {
    /// Contour points per corner.
    pub points: usize,
    /// Tracer settings.
    pub tracer: TracerOptions,
    /// Seeding settings (used for the first corner and as fallback).
    pub seed: SeedOptions,
    /// MPNR settings for warm-start polishing.
    pub mpnr: MpnrOptions,
    /// Thread count for corners 1.., which fan out over the threads after
    /// the first corner. Results do not depend on it.
    #[serde(skip)]
    pub parallelism: Parallelism,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            points: 20,
            tracer: TracerOptions::default(),
            seed: SeedOptions::default(),
            mpnr: MpnrOptions::default(),
            parallelism: Parallelism::default(),
        }
    }
}

/// Characterizes one register fixture per corner.
///
/// The first corner is seeded cold; its first contour point anchors an
/// MPNR warm start for every remaining corner (a corner whose polish fails
/// falls back to cold seeding). The remaining corners fan out over
/// [`SweepOptions::parallelism`] threads, one corner per job: polish, then
/// trace. Results are returned in input order and are identical for every
/// thread count.
///
/// `corners` yields `(label, register)` pairs — typically the same cell
/// rebuilt with shifted [`shc_cells::Technology`] parameters.
///
/// # Errors
///
/// Propagates the first corner's failures directly; later corners fall
/// back to full (cold) seeding before giving up.
///
/// # Example
///
/// ```rust,no_run
/// use shc_cells::{tspc_register, Technology};
/// use shc_core::corners::{sweep, SweepOptions};
///
/// # fn main() -> Result<(), shc_core::CharError> {
/// let mut corners = Vec::new();
/// for (label, vdd) in [("slow_2.3V", 2.3), ("typ_2.5V", 2.5), ("fast_2.7V", 2.7)] {
///     let mut tech = Technology::default_250nm();
///     tech.vdd = vdd;
///     corners.push((label.to_string(), tspc_register(&tech)));
/// }
/// let results = sweep(corners, &SweepOptions::default())?;
/// for r in &results {
///     println!("{}: t_CQ {:.1} ps, {} sims", r.label, r.t_cq * 1e12, r.simulations);
/// }
/// # Ok(())
/// # }
/// ```
pub fn sweep(
    corners: impl IntoIterator<Item = (String, Register)>,
    opts: &SweepOptions,
) -> Result<Vec<CornerResult>> {
    let _span = shc_obs::span(shc_obs::SpanKind::Corners);
    let mut rest = corners.into_iter();
    let Some((label, register)) = rest.next() else {
        return Ok(Vec::new());
    };
    let problem = build_corner(register)?;
    let first = seed::find_first_point(&problem, &opts.seed)?.params;
    let mut results = vec![finish_corner(label, &problem, first, false, opts)?];
    // Corners polish and trace on the scalar engine, so each is its own
    // group.
    results.extend(parallel::run_groups(
        opts.parallelism,
        BatchPolicy::Scalar,
        rest.collect(),
        |group| {
            group
                .into_iter()
                .map(|(label, register)| {
                    let problem = build_corner(register)?;
                    match mpnr::solve(&problem, first, &opts.mpnr) {
                        Ok(polished) => finish_corner(label, &problem, polished.params, true, opts),
                        Err(_) => {
                            let cold = seed::find_first_point(&problem, &opts.seed)?;
                            finish_corner(label, &problem, cold.params, false, opts)
                        }
                    }
                })
                .collect()
        },
    )?);
    Ok(results)
}

/// Builds one corner's problem.
fn build_corner(register: Register) -> Result<CharacterizationProblem> {
    let problem = CharacterizationProblem::builder(register).build()?;
    problem.reset_simulation_count();
    Ok(problem)
}

/// Traces one corner's contour from its first point and packs the result.
fn finish_corner(
    label: String,
    problem: &CharacterizationProblem,
    first: Params,
    warm_started: bool,
    opts: &SweepOptions,
) -> Result<CornerResult> {
    let contour = tracer::trace(problem, first, opts.points, &opts.tracer)?;
    Ok(CornerResult {
        label,
        t_cq: problem.characteristic_delay(),
        contour,
        simulations: problem.simulation_count(),
        warm_started,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_cells::{tspc_register_with, ClockSpec, Technology};

    fn corner_registers() -> Vec<(String, shc_cells::Register)> {
        [2.3, 2.5, 2.7]
            .iter()
            .map(|&vdd| {
                let mut tech = Technology::default_250nm();
                tech.vdd = vdd;
                (
                    format!("vdd_{vdd}"),
                    tspc_register_with(&tech, ClockSpec::fast()),
                )
            })
            .collect()
    }

    #[test]
    fn sweep_characterizes_every_corner() {
        let opts = SweepOptions {
            points: 6,
            ..SweepOptions::default()
        };
        let results = sweep(corner_registers(), &opts).unwrap();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.contour.points().len() >= 3, "{}: thin contour", r.label);
            assert!(r.t_cq > 0.0);
        }
        // Lower supply ⇒ slower cell.
        assert!(
            results[0].t_cq > results[2].t_cq,
            "slow corner {:.1} ps should exceed fast corner {:.1} ps",
            results[0].t_cq * 1e12,
            results[2].t_cq * 1e12
        );
    }

    #[test]
    fn parallel_sweep_covers_all_corners_in_order() {
        let opts = SweepOptions {
            points: 6,
            parallelism: Parallelism::Threads(3),
            ..SweepOptions::default()
        };
        let results = sweep(corner_registers(), &opts).unwrap();
        let labels: Vec<&str> = results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["vdd_2.3", "vdd_2.5", "vdd_2.7"]);
        assert!(!results[0].warm_started, "anchor corner runs cold");
        for r in &results {
            assert!(r.contour.points().len() >= 3, "{}: thin contour", r.label);
            assert!(r.t_cq > 0.0);
        }
        assert!(
            results[0].t_cq > results[2].t_cq,
            "corner ordering lost in the parallel merge"
        );
    }

    #[test]
    fn warm_start_saves_simulations_on_later_corners() {
        let opts = SweepOptions {
            points: 6,
            ..SweepOptions::default()
        };
        let results = sweep(corner_registers(), &opts).unwrap();
        assert!(
            !results[0].warm_started,
            "first corner has nothing to reuse"
        );
        let warm_count = results[1..].iter().filter(|r| r.warm_started).count();
        assert!(
            warm_count >= 1,
            "adjacent corners should warm-start (got {warm_count}/2)"
        );
        // Warm-started corners must be cheaper than the cold first corner.
        for r in results[1..].iter().filter(|r| r.warm_started) {
            assert!(
                r.simulations < results[0].simulations,
                "{}: warm start did not save work ({} vs {} sims)",
                r.label,
                r.simulations,
                results[0].simulations
            );
        }
    }
}
