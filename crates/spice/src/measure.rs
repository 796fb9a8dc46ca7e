//! Waveform measurement utilities — the `.MEASURE`-style post-processing a
//! characterization flow runs on transient results: threshold crossings,
//! rise/fall slews, node-to-node delays, swing, and settling checks.

use crate::transient::{CrossingDirection, TransientResult};

/// Measurement failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureError {
    /// The requested trajectory was not recorded (wrong [`crate::transient::RecordMode`]).
    TrajectoryUnavailable {
        /// The unknown index that was requested.
        unknown: usize,
    },
    /// The waveform never satisfied the measurement condition.
    ConditionNeverMet {
        /// Human-readable description of the condition.
        condition: &'static str,
    },
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::TrajectoryUnavailable { unknown } => {
                write!(f, "trajectory for unknown {unknown} was not recorded")
            }
            MeasureError::ConditionNeverMet { condition } => {
                write!(f, "measurement condition never met: {condition}")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

/// Rise or fall slew: time between the `low_frac` and `high_frac`
/// crossings of the swing between `v_low` and `v_high` (e.g. 10%–90%).
///
/// For a falling measurement pass `CrossingDirection::Falling`; the
/// fractions are always interpreted on the rising-equivalent swing.
///
/// # Errors
///
/// [`MeasureError`] if the trajectory is missing or the thresholds are
/// never crossed after `t_after`.
// The argument list mirrors a SPICE .MEASURE TRIG/TARG statement; bundling
// it into an options struct would only rename the same eight knobs.
#[allow(clippy::too_many_arguments)]
pub fn slew(
    result: &TransientResult,
    unknown: usize,
    v_low: f64,
    v_high: f64,
    low_frac: f64,
    high_frac: f64,
    t_after: f64,
    direction: CrossingDirection,
) -> Result<f64, MeasureError> {
    if result.trajectory(unknown).is_none() {
        return Err(MeasureError::TrajectoryUnavailable { unknown });
    }
    let lo_level = v_low + low_frac * (v_high - v_low);
    let hi_level = v_low + high_frac * (v_high - v_low);
    let (first_level, second_level) = match direction {
        CrossingDirection::Falling => (hi_level, lo_level),
        _ => (lo_level, hi_level),
    };
    let t1 = result
        .crossing_time(unknown, first_level, t_after, direction)
        .ok_or(MeasureError::ConditionNeverMet {
            condition: "first slew threshold",
        })?;
    let t2 = result
        .crossing_time(unknown, second_level, t1, direction)
        .ok_or(MeasureError::ConditionNeverMet {
            condition: "second slew threshold",
        })?;
    Ok(t2 - t1)
}

/// Delay between the `frac` crossing of `from` and the `frac` crossing of
/// `to` (50%–50% propagation delay with `frac = 0.5`).
///
/// # Errors
///
/// [`MeasureError`] if either trajectory is missing or never crosses.
#[allow(clippy::too_many_arguments)]
pub fn delay(
    result: &TransientResult,
    from: usize,
    from_direction: CrossingDirection,
    to: usize,
    to_direction: CrossingDirection,
    level: f64,
    t_after: f64,
) -> Result<f64, MeasureError> {
    for unknown in [from, to] {
        if result.trajectory(unknown).is_none() {
            return Err(MeasureError::TrajectoryUnavailable { unknown });
        }
    }
    let t_from = result
        .crossing_time(from, level, t_after, from_direction)
        .ok_or(MeasureError::ConditionNeverMet {
            condition: "source crossing",
        })?;
    let t_to = result
        .crossing_time(to, level, t_from, to_direction)
        .ok_or(MeasureError::ConditionNeverMet {
            condition: "destination crossing",
        })?;
    Ok(t_to - t_from)
}

/// Minimum and maximum of a trajectory over `[t_after, end]`.
///
/// # Errors
///
/// [`MeasureError`] if the trajectory is missing or the window is empty.
pub fn swing(
    result: &TransientResult,
    unknown: usize,
    t_after: f64,
) -> Result<(f64, f64), MeasureError> {
    let traj = result
        .trajectory(unknown)
        .ok_or(MeasureError::TrajectoryUnavailable { unknown })?;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for (v, &t) in traj.iter().zip(result.times()) {
        if t >= t_after {
            min = min.min(*v);
            max = max.max(*v);
        }
    }
    if min > max {
        return Err(MeasureError::ConditionNeverMet {
            condition: "nonempty window",
        });
    }
    Ok((min, max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{Capacitor, Resistor, VoltageSource};
    use crate::transient::{RecordMode, TransientAnalysis, TransientOptions};
    use crate::waveform::{Params, Pulse, RampShape, Waveform};
    use crate::Circuit;

    /// RC low-pass driven by a clean pulse: analytic slews and delays.
    fn pulsed_rc() -> (Circuit, usize, usize) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.add(VoltageSource::new(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::Pulse(Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 1e-7,
                rise: 1e-9,
                fall: 1e-9,
                width: 4e-7,
                period: 0.0,
                shape: RampShape::Linear,
            }),
        ));
        c.add(Resistor::new("R1", vin, vout, 1e3));
        c.add(Capacitor::new("C1", vout, Circuit::GROUND, 2e-11)); // tau = 20 ns
        (
            c, 0, // in
            1, // out
        )
    }

    fn run(c: &Circuit) -> TransientResult {
        let opts = TransientOptions::builder(6e-7).dt(2e-10).build();
        TransientAnalysis::new(c, opts)
            .run(&Params::default())
            .unwrap()
    }

    #[test]
    fn rc_slew_matches_analytic() {
        let (c, _vin, vout) = pulsed_rc();
        let res = run(&c);
        // 10-90% rise of a first-order RC: tau·ln(9) ≈ 2.197·tau = 43.9 ns.
        let s = slew(
            &res,
            vout,
            0.0,
            1.0,
            0.1,
            0.9,
            0.0,
            CrossingDirection::Rising,
        )
        .unwrap();
        assert!(
            (s - 43.9e-9).abs() < 2e-9,
            "slew {:.2} ns vs 43.9 ns",
            s * 1e9
        );
    }

    #[test]
    fn rc_delay_matches_analytic() {
        let (c, vin, vout) = pulsed_rc();
        let res = run(&c);
        // 50-50 delay of a first-order RC: tau·ln 2 ≈ 13.86 ns.
        let d = delay(
            &res,
            vin,
            CrossingDirection::Rising,
            vout,
            CrossingDirection::Rising,
            0.5,
            0.0,
        )
        .unwrap();
        assert!((d - 13.86e-9).abs() < 1e-9, "delay {:.2} ns", d * 1e9);
    }

    #[test]
    fn falling_slew_measures_the_discharge() {
        let (c, _vin, vout) = pulsed_rc();
        let res = run(&c);
        // After the pulse drops (t > 0.5 us) the output discharges.
        let s = slew(
            &res,
            vout,
            0.0,
            1.0,
            0.1,
            0.9,
            4.9e-7,
            CrossingDirection::Falling,
        )
        .unwrap();
        assert!((s - 43.9e-9).abs() < 3e-9, "fall slew {:.2} ns", s * 1e9);
    }

    #[test]
    fn swing_and_settling() {
        let (c, _vin, vout) = pulsed_rc();
        let res = run(&c);
        let (min, max) = swing(&res, vout, 0.0).unwrap();
        assert!(min >= -1e-6 && max <= 1.0 + 1e-6);
        assert!(max > 0.99, "output should approach 1 V, max {max}");
        // The full window includes the post-pulse discharge: not settled
        // within 2% of the top.
        let (lo, hi) = swing(&res, vout, 4.4e-7).unwrap();
        assert!(lo < 1.0 - 0.02 || hi > 1.0 + 0.02, "swing {lo}..{hi}");
        // A run truncated before the pulse ends is settled at the top.
        let (c, _, _) = pulsed_rc();
        let opts = TransientOptions::builder(4.5e-7).dt(2e-10).build();
        let charged = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        let (lo, hi) = swing(&charged, vout, 4.0e-7).unwrap();
        assert!(lo >= 1.0 - 0.05 && hi <= 1.0 + 0.05, "swing {lo}..{hi}");
    }

    #[test]
    fn missing_trajectory_is_reported() {
        let (c, _, vout) = pulsed_rc();
        let opts = TransientOptions::builder(1e-7)
            .dt(1e-9)
            .record(RecordMode::FinalOnly)
            .build();
        let res = TransientAnalysis::new(&c, opts)
            .run(&Params::default())
            .unwrap();
        let e = swing(&res, vout, 0.0).unwrap_err();
        assert!(matches!(e, MeasureError::TrajectoryUnavailable { .. }));
        assert!(e.to_string().contains("not recorded"));
    }

    #[test]
    fn never_crossing_is_reported() {
        let (c, _vin, vout) = pulsed_rc();
        let res = run(&c);
        let e = slew(
            &res,
            vout,
            0.0,
            5.0,
            0.1,
            0.9,
            0.0,
            CrossingDirection::Rising,
        )
        .unwrap_err();
        assert!(matches!(e, MeasureError::ConditionNeverMet { .. }));
    }
}
