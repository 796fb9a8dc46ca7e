//! Source waveforms, including the setup/hold-parameterized data pulse.
//!
//! The characterization algorithm varies two scalar parameters — the setup
//! skew `τs` and the hold skew `τh` (paper Fig. 2) — that enter the circuit
//! *only* through the data-source waveform `u_d(t, τs, τh)`. Every waveform
//! therefore evaluates against a [`Params`] value, and exposes the analytic
//! partial derivatives `∂u/∂τs` and `∂u/∂τh` (the paper's `z_s`, `z_h`)
//! needed by forward sensitivity analysis (paper eqs. (7)–(13)).

use serde::{Deserialize, Serialize};

/// The two skew parameters of the characterization problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Param {
    /// Setup skew `τs`: delay from the data transition to the active clock
    /// edge (both measured at their 50% crossings).
    Setup,
    /// Hold skew `τh`: delay from the active clock edge to the data's return
    /// transition.
    Hold,
}

impl Param {
    /// Both parameters, in canonical order `[Setup, Hold]`.
    pub const ALL: [Param; 2] = [Param::Setup, Param::Hold];
}

/// Current values of the skew parameters, in seconds.
///
/// A transient run is a pure function of the circuit and a `Params` value,
/// so sweeping skews never mutates the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Params {
    /// Setup skew `τs` in seconds.
    /// unit: s
    pub tau_s: f64,
    /// Hold skew `τh` in seconds.
    /// unit: s
    pub tau_h: f64,
}

impl Params {
    /// Creates a parameter pair.
    pub fn new(tau_s: f64, tau_h: f64) -> Self {
        Params { tau_s, tau_h }
    }

    /// Reads the value of one parameter.
    pub fn get(&self, p: Param) -> f64 {
        match p {
            Param::Setup => self.tau_s,
            Param::Hold => self.tau_h,
        }
    }

    /// Returns a copy with one parameter replaced.
    #[must_use]
    pub fn with(&self, p: Param, value: f64) -> Self {
        let mut out = *self;
        match p {
            Param::Setup => out.tau_s = value,
            Param::Hold => out.tau_h = value,
        }
        out
    }
}

/// Shape of a signal edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RampShape {
    /// Linear ramp — C⁰ only; its skew derivative is piecewise constant.
    Linear,
    /// Cubic smoothstep `3u² − 2u³` — C¹, the default, so that `h(τs, τh)`
    /// is differentiable for Newton's method.
    #[default]
    Smoothstep,
}

impl RampShape {
    /// Normalized 0→1 transition value at normalized position `u`
    /// (clamped outside `[0, 1]`).
    pub fn value(self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        match self {
            RampShape::Linear => u,
            RampShape::Smoothstep => u * u * (3.0 - 2.0 * u),
        }
    }

    /// Derivative of [`RampShape::value`] with respect to `u`
    /// (zero outside `[0, 1]`).
    pub fn derivative(self, u: f64) -> f64 {
        if !(0.0..=1.0).contains(&u) {
            return 0.0;
        }
        match self {
            RampShape::Linear => 1.0,
            RampShape::Smoothstep => 6.0 * u * (1.0 - u),
        }
    }
}

/// A 0→1 edge centered at `center` with transition width `width`.
///
/// Returns `(value, d_value/d_center)`.
fn edge(shape: RampShape, t: f64, center: f64, width: f64) -> (f64, f64) {
    let u = (t - center) / width + 0.5;
    let v = shape.value(u);
    let dv_dcenter = -shape.derivative(u) / width;
    (v, dv_dcenter)
}

/// The setup/hold-parameterized data waveform `u_d(t, τs, τh)` of the
/// paper's Fig. 2.
///
/// The signal starts at `v_rest`, transitions to `v_active` with its 50%
/// crossing at `t_edge − τs` (the *leading* edge, `τs` before the active
/// clock edge), and returns to `v_rest` with its 50% crossing at
/// `t_edge + τh` (the *trailing* edge, `τh` after the clock edge).
///
/// For capturing a logic 1, `v_rest = 0` and `v_active = Vdd`; for the
/// falling-data case used for the C²MOS register in the paper's Sec. IV-B,
/// `v_rest = Vdd` and `v_active = 0`.
///
/// # Example
///
/// ```rust
/// use shc_spice::waveform::{DataPulse, Params, RampShape};
///
/// let d = DataPulse {
///     v_rest: 0.0,
///     v_active: 2.5,
///     t_edge: 11e-9,
///     rise: 0.1e-9,
///     fall: 0.1e-9,
///     shape: RampShape::Smoothstep,
/// };
/// let p = Params::new(200e-12, 150e-12);
/// // Well inside the pulse the data is at the active level.
/// assert!((d.value(11e-9, &p) - 2.5).abs() < 1e-12);
/// // Long before the leading edge it rests.
/// assert!(d.value(0.0, &p).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataPulse {
    /// Level before and after the pulse.
    pub v_rest: f64,
    /// Level during the pulse (the value being latched).
    pub v_active: f64,
    /// Time of the 50% crossing of the active clock edge, in seconds.
    pub t_edge: f64,
    /// Transition time of the leading edge, in seconds.
    pub rise: f64,
    /// Transition time of the trailing edge, in seconds.
    pub fall: f64,
    /// Edge shape (default [`RampShape::Smoothstep`]).
    pub shape: RampShape,
}

impl DataPulse {
    /// Waveform value at time `t` for skews `params`.
    ///
    /// If the skews are so negative that the trailing edge would precede
    /// the leading one (`τs + τh` below minus the transition times), the
    /// pulse degenerates and the signal simply rests — it never inverts.
    pub fn value(&self, t: f64, params: &Params) -> f64 {
        let lead_center = self.t_edge - params.tau_s;
        let trail_center = self.t_edge + params.tau_h;
        let (up, _) = edge(self.shape, t, lead_center, self.rise);
        let (down, _) = edge(self.shape, t, trail_center, self.fall);
        let excursion = (up - down).max(0.0);
        self.v_rest + (self.v_active - self.v_rest) * excursion
    }

    /// A time `t*` such that two parameterizations of this pulse are
    /// *identical functions* — values and skew derivatives — on `[0, t*)`.
    ///
    /// Two lanes of a sweep differ only through their skew parameters:
    /// the leading edges first differ where the *later* leading ramp
    /// begins (`t_edge − max τs − rise/2`), the trailing edges where the
    /// *earlier* trailing ramp begins (`t_edge + min τh − fall/2`).
    /// Before the earlier of those times both pulses evaluate the same
    /// edge expressions on bitwise-equal inputs, so values and the `z_s`/
    /// `z_h` derivatives agree to the bit. Bitwise-equal skews (including
    /// equal NaN bits) never constrain the bound; differing non-finite
    /// skews yield `0.0` (no provable agreement).
    pub fn agree_until(&self, pa: &Params, pb: &Params) -> f64 {
        let edge_bound = |a: f64, b: f64, center: f64, width: f64| -> f64 {
            if a.to_bits() == b.to_bits() {
                f64::INFINITY
            } else if a.is_finite() && b.is_finite() {
                let bound = center - width / 2.0;
                // Non-finite shape fields poison the bound arithmetic —
                // and `f64::min` would silently drop a NaN against the
                // other edge's bound — so claim nothing here.
                if bound.is_nan() {
                    0.0
                } else {
                    bound
                }
            } else {
                0.0
            }
        };
        let lead = edge_bound(
            pa.tau_s,
            pb.tau_s,
            self.t_edge - pa.tau_s.max(pb.tau_s),
            self.rise,
        );
        let trail = edge_bound(
            pa.tau_h,
            pb.tau_h,
            self.t_edge + pa.tau_h.min(pb.tau_h),
            self.fall,
        );
        lead.min(trail)
    }

    /// Analytic partial derivative `∂u_d/∂param` at time `t` — the paper's
    /// `z_s(t, τs, τh)` (for [`Param::Setup`]) and `z_h` (for
    /// [`Param::Hold`]).
    pub fn derivative(&self, t: f64, params: &Params, param: Param) -> f64 {
        // Degenerate (inverted) pulses are clamped to the rest level in
        // [`DataPulse::value`]; their skew derivative is zero there.
        {
            let lead_center = self.t_edge - params.tau_s;
            let trail_center = self.t_edge + params.tau_h;
            let (up, _) = edge(self.shape, t, lead_center, self.rise);
            let (down, _) = edge(self.shape, t, trail_center, self.fall);
            if up - down <= 0.0 {
                return 0.0;
            }
        }
        let swing = self.v_active - self.v_rest;
        match param {
            Param::Setup => {
                // Leading-edge center is t_edge − τs: d center/d τs = −1.
                let lead_center = self.t_edge - params.tau_s;
                let (_, dv_dc) = edge(self.shape, t, lead_center, self.rise);
                -(swing * dv_dc)
            }
            Param::Hold => {
                // Trailing-edge center is t_edge + τh: d center/d τh = +1.
                // The trailing edge enters with a minus sign.
                let trail_center = self.t_edge + params.tau_h;
                let (_, dv_dc) = edge(self.shape, t, trail_center, self.fall);
                -swing * dv_dc
            }
        }
    }
}

/// A periodic SPICE-style pulse source (used for the clock `u_c(t)`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pulse {
    /// Initial (low) value.
    pub v0: f64,
    /// Pulsed (high) value.
    pub v1: f64,
    /// Delay before the first rising transition begins, in seconds.
    pub delay: f64,
    /// Rise time, in seconds.
    pub rise: f64,
    /// Fall time, in seconds.
    pub fall: f64,
    /// Pulse width (time at `v1` between ramps), in seconds.
    pub width: f64,
    /// Period; `0.0` or non-finite means non-repeating.
    pub period: f64,
    /// Edge shape.
    pub shape: RampShape,
}

impl Pulse {
    /// Waveform value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        let mut tl = t - self.delay;
        if tl < 0.0 {
            return self.v0;
        }
        if self.period > 0.0 && self.period.is_finite() {
            tl %= self.period;
        }
        if tl < self.rise {
            let u = tl / self.rise;
            self.v0 + (self.v1 - self.v0) * self.shape.value(u)
        } else if tl < self.rise + self.width {
            self.v1
        } else if tl < self.rise + self.width + self.fall {
            let u = (tl - self.rise - self.width) / self.fall;
            self.v1 + (self.v0 - self.v1) * self.shape.value(u)
        } else {
            self.v0
        }
    }
}

/// A source waveform.
///
/// Most variants are independent of the skew parameters; only
/// [`Waveform::Data`] carries the τs/τh dependence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Periodic pulse (clock).
    Pulse(Pulse),
    /// Piecewise-linear waveform given as sorted `(time, value)` pairs;
    /// clamps to the first/last value outside the range.
    Pwl(Vec<(f64, f64)>),
    /// The setup/hold-parameterized data pulse.
    Data(DataPulse),
}

impl Waveform {
    /// Convenience constructor for a DC source.
    pub fn dc(value: f64) -> Self {
        Waveform::Dc(value)
    }

    /// Waveform value at time `t` for skews `params`.
    pub fn value(&self, t: f64, params: &Params) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse(p) => p.value(t),
            Waveform::Pwl(points) => pwl_value(points, t),
            Waveform::Data(d) => d.value(t, params),
        }
    }

    /// Partial derivative `∂u/∂param`; zero for skew-independent waveforms.
    pub fn derivative(&self, t: f64, params: &Params, param: Param) -> f64 {
        match self {
            Waveform::Data(d) => d.derivative(t, params, param),
            _ => 0.0,
        }
    }

    /// A time `t*` such that `self.value(t, pa)` / `.derivative(t, pa, ·)`
    /// and `other.value(t, pb)` / `.derivative(t, pb, ·)` are bitwise
    /// identical for every `t < t*` — the *agreement horizon* the lockstep
    /// batched engine uses to run provably identical lane prefixes once.
    ///
    /// The bound is conservative: skew-independent variants agree forever
    /// when their representations match bitwise and are claimed disjoint
    /// (`0.0`) otherwise; only [`Waveform::Data`] gets the analytic
    /// edge-position bound of [`DataPulse::agree_until`]. Mismatched
    /// variants (and any future variant) claim nothing.
    pub fn agree_until(&self, pa: &Params, other: &Waveform, pb: &Params) -> f64 {
        let bits_eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        };
        match (self, other) {
            (Waveform::Dc(a), Waveform::Dc(b)) if a.to_bits() == b.to_bits() => f64::INFINITY,
            (Waveform::Pulse(a), Waveform::Pulse(b)) => {
                let fa = [a.v0, a.v1, a.delay, a.rise, a.fall, a.width, a.period];
                let fb = [b.v0, b.v1, b.delay, b.rise, b.fall, b.width, b.period];
                if a.shape == b.shape && bits_eq(&fa, &fb) {
                    f64::INFINITY
                } else {
                    0.0
                }
            }
            (Waveform::Pwl(a), Waveform::Pwl(b)) => {
                let flat = |p: &[(f64, f64)]| -> Vec<f64> {
                    p.iter().flat_map(|&(t, v)| [t, v]).collect()
                };
                if bits_eq(&flat(a), &flat(b)) {
                    f64::INFINITY
                } else {
                    0.0
                }
            }
            (Waveform::Data(a), Waveform::Data(b)) => {
                let fa = [a.v_rest, a.v_active, a.t_edge, a.rise, a.fall];
                let fb = [b.v_rest, b.v_active, b.t_edge, b.rise, b.fall];
                if a.shape == b.shape && bits_eq(&fa, &fb) {
                    a.agree_until(pa, pb)
                } else {
                    0.0
                }
            }
            _ => 0.0,
        }
    }
}

fn pwl_value(points: &[(f64, f64)], t: f64) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    if t <= points[0].0 {
        return points[0].1;
    }
    if t >= points[points.len() - 1].0 {
        return points[points.len() - 1].1;
    }
    for w in points.windows(2) {
        let (t0, v0) = w[0];
        let (t1, v1) = w[1];
        if t >= t0 && t <= t1 {
            if t1 == t0 {
                return v1;
            }
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
        }
    }
    points[points.len() - 1].1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_derivative(d: &DataPulse, t: f64, p: &Params, param: Param) -> f64 {
        let h = 1e-15;
        let plus = d.value(t, &p.with(param, p.get(param) + h));
        let minus = d.value(t, &p.with(param, p.get(param) - h));
        (plus - minus) / (2.0 * h)
    }

    fn sample_pulse() -> DataPulse {
        DataPulse {
            v_rest: 0.0,
            v_active: 2.5,
            t_edge: 11e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            shape: RampShape::Smoothstep,
        }
    }

    #[test]
    fn ramp_shapes_hit_endpoints_and_midpoint() {
        for shape in [RampShape::Linear, RampShape::Smoothstep] {
            assert_eq!(shape.value(-0.5), 0.0);
            assert_eq!(shape.value(0.0), 0.0);
            assert_eq!(shape.value(1.0), 1.0);
            assert_eq!(shape.value(1.5), 1.0);
            assert!((shape.value(0.5) - 0.5).abs() < 1e-15);
            assert_eq!(shape.derivative(-0.1), 0.0);
            assert_eq!(shape.derivative(1.1), 0.0);
        }
    }

    #[test]
    fn smoothstep_derivative_matches_finite_difference() {
        let s = RampShape::Smoothstep;
        for &u in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let fd = (s.value(u + 1e-7) - s.value(u - 1e-7)) / 2e-7;
            assert!((s.derivative(u) - fd).abs() < 1e-6);
        }
    }

    #[test]
    fn data_pulse_levels() {
        let d = sample_pulse();
        let p = Params::new(300e-12, 200e-12);
        // Before the leading edge window.
        assert_eq!(d.value(10.0e-9, &p), 0.0);
        // At the 50% point of the leading edge.
        let lead = d.t_edge - p.tau_s;
        assert!((d.value(lead, &p) - 1.25).abs() < 1e-9);
        // Inside the pulse.
        assert!((d.value(11e-9, &p) - 2.5).abs() < 1e-12);
        // At the 50% point of the trailing edge.
        let trail = d.t_edge + p.tau_h;
        assert!((d.value(trail, &p) - 1.25).abs() < 1e-9);
        // After the pulse.
        assert_eq!(d.value(12e-9, &p), 0.0);
    }

    #[test]
    fn falling_data_pulse_levels() {
        // C²MOS case: data rests high and pulses low.
        let d = DataPulse {
            v_rest: 2.5,
            v_active: 0.0,
            ..sample_pulse()
        };
        let p = Params::new(300e-12, 200e-12);
        assert_eq!(d.value(0.0, &p), 2.5);
        assert!((d.value(11e-9, &p)).abs() < 1e-12);
        assert_eq!(d.value(13e-9, &p), 2.5);
    }

    #[test]
    fn setup_derivative_matches_finite_difference() {
        let d = sample_pulse();
        let p = Params::new(300e-12, 200e-12);
        // Sample through the leading edge window.
        let lead = d.t_edge - p.tau_s;
        for &t in &[lead - 0.04e-9, lead, lead + 0.04e-9, 11e-9, 5e-9] {
            let analytic = d.derivative(t, &p, Param::Setup);
            let fd = fd_derivative(&d, t, &p, Param::Setup);
            assert!(
                (analytic - fd).abs() <= 1e-4 * fd.abs().max(1.0),
                "t={t:.3e}: analytic {analytic:.6e}, fd {fd:.6e}"
            );
        }
    }

    #[test]
    fn hold_derivative_matches_finite_difference() {
        let d = sample_pulse();
        let p = Params::new(300e-12, 200e-12);
        let trail = d.t_edge + p.tau_h;
        for &t in &[trail - 0.04e-9, trail, trail + 0.04e-9, 11e-9] {
            let analytic = d.derivative(t, &p, Param::Hold);
            let fd = fd_derivative(&d, t, &p, Param::Hold);
            assert!(
                (analytic - fd).abs() <= 1e-4 * fd.abs().max(1.0),
                "t={t:.3e}: analytic {analytic:.6e}, fd {fd:.6e}"
            );
        }
    }

    #[test]
    fn derivative_signs_during_edges() {
        // For a rising data pulse (v_active > v_rest): increasing τs moves
        // the leading edge earlier, so mid-leading-edge the value increases.
        let d = sample_pulse();
        let p = Params::new(300e-12, 200e-12);
        let lead = d.t_edge - p.tau_s;
        assert!(d.derivative(lead, &p, Param::Setup) > 0.0);
        // Increasing τh keeps the pulse high longer: positive mid-trailing-edge.
        let trail = d.t_edge + p.tau_h;
        assert!(d.derivative(trail, &p, Param::Hold) > 0.0);
        // Outside the edge windows both derivatives vanish.
        assert_eq!(d.derivative(5e-9, &p, Param::Setup), 0.0);
        assert_eq!(d.derivative(5e-9, &p, Param::Hold), 0.0);
    }

    #[test]
    fn pulse_clock_matches_paper_timing() {
        // The paper's clock: period 10ns, delay 1ns, rise/fall 0.1ns, 0→2.5V.
        let clk = Pulse {
            v0: 0.0,
            v1: 2.5,
            delay: 1e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 4.9e-9,
            period: 10e-9,
            shape: RampShape::Smoothstep,
        };
        assert_eq!(clk.value(0.0), 0.0);
        assert_eq!(clk.value(0.9e-9), 0.0);
        assert!((clk.value(1.05e-9) - 1.25).abs() < 1e-9); // mid rising edge
        assert_eq!(clk.value(3e-9), 2.5);
        // Second period: active edge at 11ns.
        assert!((clk.value(11.05e-9) - 1.25).abs() < 1e-9);
    }

    #[test]
    fn pulse_nonrepeating_when_period_zero() {
        let p = Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 0.0,
            rise: 1e-9,
            fall: 1e-9,
            width: 1e-9,
            period: 0.0,
            shape: RampShape::Linear,
        };
        assert_eq!(p.value(100e-9), 0.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)]);
        let params = Params::default();
        assert_eq!(w.value(-1.0, &params), 0.0);
        assert_eq!(w.value(0.5, &params), 1.0);
        assert_eq!(w.value(1.5, &params), 2.0);
        assert_eq!(w.value(9.0, &params), 2.0);
        assert_eq!(w.derivative(0.5, &params, Param::Setup), 0.0);
    }

    #[test]
    fn params_accessors() {
        let p = Params::new(1.0, 2.0);
        assert_eq!(p.get(Param::Setup), 1.0);
        assert_eq!(p.get(Param::Hold), 2.0);
        let q = p.with(Param::Hold, 5.0);
        assert_eq!(q.tau_h, 5.0);
        assert_eq!(q.tau_s, 1.0);
    }

    #[test]
    fn only_data_waveform_has_skew_derivatives() {
        // On the setup edge's ramp (t_edge − τs), the data pulse moves with
        // τs; a DC source never does.
        let p = Params::new(1e-9, 1e-9);
        let t = 10e-9;
        assert_eq!(Waveform::dc(1.0).derivative(t, &p, Param::Setup), 0.0);
        assert_ne!(
            Waveform::Data(sample_pulse()).derivative(t, &p, Param::Setup),
            0.0
        );
    }

    #[test]
    fn data_pulse_agreement_is_unbounded_for_identical_skews() {
        let d = sample_pulse();
        let p = Params::new(300e-12, 200e-12);
        assert_eq!(d.agree_until(&p, &p), f64::INFINITY);
    }

    #[test]
    fn data_pulse_agreement_bounds_match_the_differing_edge() {
        let d = sample_pulse();
        let pa = Params::new(300e-12, 200e-12);
        // Differing τs only: bound at the start of the *later* leading
        // ramp, t_edge − max τs − rise/2.
        let pb = Params::new(250e-12, 200e-12);
        let lead = d.t_edge - 300e-12 - d.rise / 2.0;
        assert_eq!(d.agree_until(&pa, &pb), lead);
        // Differing τh only: bound at the start of the *earlier*
        // trailing ramp, t_edge + min τh − fall/2.
        let pc = Params::new(300e-12, 260e-12);
        let trail = d.t_edge + 200e-12 - d.fall / 2.0;
        assert_eq!(d.agree_until(&pa, &pc), trail);
        // Both differ: the earlier of the two bounds wins.
        let pd = Params::new(250e-12, 260e-12);
        assert_eq!(d.agree_until(&pa, &pd), lead.min(trail));
    }

    #[test]
    fn data_pulse_agreement_is_bitwise_before_the_bound() {
        let d = sample_pulse();
        let pa = Params::new(300e-12, 200e-12);
        let pb = Params::new(150e-12, 350e-12);
        let t_star = d.agree_until(&pa, &pb);
        assert!(t_star.is_finite() && t_star > 0.0);
        // Sample strictly below the bound: values and both skew
        // derivatives must agree to the bit.
        for k in 0..100 {
            let t = t_star * (k as f64) / 100.0;
            assert_eq!(d.value(t, &pa).to_bits(), d.value(t, &pb).to_bits());
            for param in [Param::Setup, Param::Hold] {
                assert_eq!(
                    d.derivative(t, &pa, param).to_bits(),
                    d.derivative(t, &pb, param).to_bits()
                );
            }
        }
        // And the pulses do eventually diverge (the bound is not vacuous).
        let probe = d.t_edge - 150e-12;
        assert_ne!(d.value(probe, &pa).to_bits(), d.value(probe, &pb).to_bits());
    }

    #[test]
    fn data_pulse_agreement_claims_nothing_for_non_finite_inputs() {
        let d = sample_pulse();
        let p = Params::new(300e-12, 200e-12);
        assert_eq!(d.agree_until(&p, &Params::new(f64::NAN, 200e-12)), 0.0);
        assert_eq!(d.agree_until(&p, &Params::new(300e-12, f64::INFINITY)), 0.0);
        // Identical NaN bits are still bitwise-identical computations.
        let pn = Params::new(f64::NAN, 200e-12);
        assert_eq!(d.agree_until(&pn, &pn), f64::INFINITY);
        // A NaN shape field poisons the bound: claim nothing.
        let mut dn = sample_pulse();
        dn.t_edge = f64::NAN;
        assert_eq!(dn.agree_until(&p, &Params::new(250e-12, 200e-12)), 0.0);
    }

    #[test]
    fn waveform_agreement_requires_matching_variant_and_fields() {
        let pa = Params::new(300e-12, 200e-12);
        let pb = Params::new(250e-12, 200e-12);

        // Skew-independent variants: forever iff bitwise-equal.
        let dc = Waveform::dc(2.5);
        assert_eq!(dc.agree_until(&pa, &dc, &pb), f64::INFINITY);
        assert_eq!(dc.agree_until(&pa, &Waveform::dc(2.4), &pb), 0.0);

        let pwl = Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 2.5)]);
        assert_eq!(pwl.agree_until(&pa, &pwl.clone(), &pb), f64::INFINITY);
        let pwl2 = Waveform::Pwl(vec![(0.0, 0.0), (1e-9, 2.4)]);
        assert_eq!(pwl.agree_until(&pa, &pwl2, &pb), 0.0);

        // Data pulses defer to the analytic bound when the shape fields
        // match, and claim nothing when they differ.
        let d = Waveform::Data(sample_pulse());
        let expect = sample_pulse().agree_until(&pa, &pb);
        assert_eq!(d.agree_until(&pa, &d, &pb), expect);
        let mut other = sample_pulse();
        other.v_active = 2.4;
        assert_eq!(d.agree_until(&pa, &Waveform::Data(other), &pb), 0.0);

        // Mismatched variants claim nothing.
        assert_eq!(d.agree_until(&pa, &dc, &pb), 0.0);
    }
}
