//! Parameterized N-bit register bank: chained latch bit-slices sharing
//! one clock, with RC wire-load ladders between stages.
//!
//! The seed cells have a few dozen MNA unknowns, which keeps them on the
//! dense linear-solver path. The bank is the cell-zoo workload that
//! crosses the sparse-dispatch threshold: at the default 16 bits the
//! netlist has well over 100 unknowns, and its Jacobian is sparse enough
//! (a handful of entries per row) that the sparse-direct path wins by a
//! wide margin. See `DESIGN.md` §11 and the `sparse_solve` benchmark.
//!
//! Topology: every bit slice is a transparent-high transmission-gate
//! latch (tgate + two inverters), all gated by the same `clk`/`clk̄`
//! pair. Slice `i`'s output drives slice `i+1`'s data input through a
//! four-segment RC wire ladder modeling interconnect loading. Because
//! all slices share the clock phase, a data edge must ripple through the
//! whole chain while the clock is high; the latching (active) edge is
//! the clock's *falling* edge, as for [`crate::d_latch`].

use shc_spice::{Capacitor, Circuit, Node, Resistor, VoltageSource, Waveform};

use crate::register::{cell_base_at, CellKind, ClockSpec, OutputTransition, RegisterParts};
use crate::{Register, Technology};

/// Resistance of one inter-slice wire segment, in ohms.
const WIRE_SEGMENT_R: f64 = 400.0;
/// Capacitance hung on each inter-slice wire node, in farads.
const WIRE_SEGMENT_C: f64 = 2e-15;
/// RC segments per inter-slice wire ladder.
const WIRE_SEGMENTS: usize = 4;
/// Per-slice ripple-delay allowance used for the reference-setup hint.
const SLICE_DELAY_HINT: f64 = 0.12e-9;

/// Default width of the benchmark register bank.
pub const REGISTER_BANK_DEFAULT_BITS: usize = 16;

fn nmos(tech: &Technology, name: &str, d: Node, g: Node, s: Node, w: f64) -> shc_spice::Mosfet {
    shc_spice::Mosfet::new(name, d, g, s, tech.nmos, w, tech.lmin)
}

fn pmos(tech: &Technology, name: &str, d: Node, g: Node, s: Node, w: f64) -> shc_spice::Mosfet {
    shc_spice::Mosfet::new(name, d, g, s, tech.pmos, w, tech.lmin)
}

fn inverter(c: &mut Circuit, tech: &Technology, name: &str, input: Node, output: Node, vdd: Node) {
    c.add(pmos(
        tech,
        &format!("{name}.mp"),
        output,
        input,
        vdd,
        tech.wp,
    ));
    c.add(nmos(
        tech,
        &format!("{name}.mn"),
        output,
        input,
        Circuit::GROUND,
        tech.wn,
    ));
}

/// Builds an `n_bits`-wide register bank with the paper's clock timing.
///
/// # Panics
///
/// Panics if `n_bits` is zero.
pub fn register_bank(tech: &Technology, n_bits: usize) -> Register {
    register_bank_with(tech, ClockSpec::paper(), n_bits)
}

/// [`register_bank`] with an explicit clock specification.
///
/// The data pulse is centered on the clock's falling (latching) edge;
/// the monitored output is the last slice's `q`, which rises when the
/// chain captures the data pulse's logic 1. A full capture requires the
/// data edge to lead the closing edge by roughly `n_bits` slice delays,
/// so wide banks need a clock whose high phase accommodates the ripple
/// (the paper clock does for the default 16 bits).
///
/// # Panics
///
/// Panics if `n_bits` is zero.
pub fn register_bank_with(tech: &Technology, clock: ClockSpec, n_bits: usize) -> Register {
    assert!(n_bits >= 1, "register bank needs at least one bit slice");
    // All slices latch at the falling edge: center the data pulse there.
    let closing_edge = clock.falling_edge_time(clock.active_edge_index);
    let mut base = cell_base_at(tech, &clock, 0.0, tech.vdd, closing_edge);
    let c = &mut base.circuit;
    let (vdd, clk, d) = (base.vdd_node, base.clk, base.d);
    let clkb = c.node("clkb");
    c.add(VoltageSource::new(
        "Vclkb",
        clkb,
        Circuit::GROUND,
        Waveform::Pulse(clock.to_inverted_pulse(tech.vdd, 0.0)),
    ));

    let mut din = d;
    let mut q = d;
    for bit in 0..n_bits {
        let x = c.node(&format!("b{bit}.x"));
        let qb = c.node(&format!("b{bit}.qb"));
        q = c.node(&format!("b{bit}.q"));

        // Transparent-high latch slice: tgate into a two-inverter buffer.
        c.add(nmos(tech, &format!("b{bit}.tg.mn"), x, clk, din, tech.wn));
        c.add(pmos(tech, &format!("b{bit}.tg.mp"), x, clkb, din, tech.wp));
        inverter(c, tech, &format!("b{bit}.inv1"), x, qb, vdd);
        inverter(c, tech, &format!("b{bit}.inv2"), qb, q, vdd);
        c.add(Capacitor::new(
            &format!("b{bit}.cpar_x"),
            x,
            Circuit::GROUND,
            tech.cnode,
        ));
        c.add(Capacitor::new(
            &format!("b{bit}.cpar_qb"),
            qb,
            Circuit::GROUND,
            tech.cnode,
        ));

        // Wire-load ladder to the next slice's data input.
        if bit + 1 < n_bits {
            let mut prev = q;
            for seg in 0..WIRE_SEGMENTS {
                let node = if seg + 1 == WIRE_SEGMENTS {
                    c.node(&format!("b{}.din", bit + 1))
                } else {
                    c.node(&format!("b{bit}.w{seg}"))
                };
                c.add(Resistor::new(
                    &format!("b{bit}.rw{seg}"),
                    prev,
                    node,
                    WIRE_SEGMENT_R,
                ));
                c.add(Capacitor::new(
                    &format!("b{bit}.cw{seg}"),
                    node,
                    Circuit::GROUND,
                    WIRE_SEGMENT_C,
                ));
                prev = node;
            }
            din = prev;
        }
    }
    c.add(Capacitor::new("cload", q, Circuit::GROUND, tech.cload));

    Register::from_parts_with_kind(
        RegisterParts {
            circuit: base.circuit,
            output: q,
            clock,
            vdd: tech.vdd,
            name: "register_bank",
            transition: OutputTransition::Rising,
            capture_fraction: 0.5,
            tech: *tech,
            active_edge_time: closing_edge,
            // Transparent chain: the reference capture must ripple through
            // all slices before the closing edge.
            reference_setup_hint: Some(SLICE_DELAY_HINT * n_bits as f64),
        },
        CellKind::Bank(n_bits),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_spice::transient::{RecordMode, TransientAnalysis, TransientOptions};
    use shc_spice::waveform::Params;

    fn final_q(reg: &Register, tau_s: f64, tau_h: f64, margin: f64) -> f64 {
        let opts = TransientOptions::builder(reg.active_edge_time() + margin)
            .dt(4e-12)
            .record(RecordMode::Probe(reg.output_unknown()))
            .build();
        TransientAnalysis::new(reg.circuit(), opts)
            .run(&Params::new(tau_s, tau_h))
            .expect("transient")
            .final_state()[reg.output_unknown()]
    }

    #[test]
    fn bank_validates_and_crosses_sparse_threshold() {
        let tech = Technology::default_250nm();
        let bank = register_bank_with(&tech, ClockSpec::fast(), REGISTER_BANK_DEFAULT_BITS);
        bank.circuit().validate().unwrap();
        let n = bank.circuit().unknown_count();
        assert!(n >= 100, "16-bit bank has only {n} unknowns");
        assert!(shc_spice::SolverChoice::Auto.wants_sparse(n));

        // Unknown count grows linearly with the bit width.
        let n4 = register_bank_with(&tech, ClockSpec::fast(), 4)
            .circuit()
            .unknown_count();
        let n8 = register_bank_with(&tech, ClockSpec::fast(), 8)
            .circuit()
            .unknown_count();
        assert_eq!(
            n8 - n4,
            n - register_bank_with(&tech, ClockSpec::fast(), 12)
                .circuit()
                .unknown_count()
        );
        assert!(n4 < n8 && n8 < n);
    }

    #[test]
    fn bank_ripples_capture_through_the_chain() {
        let tech = Technology::default_250nm();
        let bank = register_bank_with(&tech, ClockSpec::fast(), 4);
        // Generous setup: the data edge leads the closing edge by enough
        // for the value to ripple through all four slices.
        let v = final_q(&bank, 0.9e-9, 0.5e-9, 0.5e-9);
        assert!(v > 0.9 * tech.vdd, "bank failed to capture 1: q = {v}");
    }

    #[test]
    fn bank_rejects_data_that_cannot_ripple_in_time() {
        let tech = Technology::default_250nm();
        let bank = register_bank_with(&tech, ClockSpec::fast(), 4);
        // Data pulse entirely after the closing edge: nothing to capture.
        let v = final_q(&bank, -0.3e-9, 0.9e-9, 0.5e-9);
        assert!(v < 0.3 * tech.vdd, "bank latched spuriously: q = {v}");
    }

    #[test]
    fn with_clock_rebuilds_same_width() {
        let tech = Technology::default_250nm();
        let bank = register_bank(&tech, 8);
        let fast = bank.with_clock(ClockSpec::fast());
        assert_eq!(fast.name(), "register_bank");
        assert_eq!(
            fast.circuit().unknown_count(),
            bank.circuit().unknown_count()
        );
        assert!(fast.active_edge_time() < bank.active_edge_time());
    }
}
