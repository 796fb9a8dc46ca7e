//! Additional register topologies beyond the paper's two: a
//! sense-amplifier flip-flop and a pulse-triggered latch. Both exercise
//! characterization behaviours the TSPC/C²MOS pair does not — regenerative
//! differential capture and locally generated clock pulses.

use shc_spice::{Capacitor, Circuit, Node};

use crate::register::{cell_base, ClockSpec, OutputTransition, RegisterParts};
use crate::{Register, Technology};

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

fn nand2(c: &mut Circuit, tech: &Technology, name: &str, a: Node, b: Node, out: Node, vdd: Node) {
    c.add(pmos(tech, &format!("{name}.mpa"), out, a, vdd, tech.wp));
    c.add(pmos(tech, &format!("{name}.mpb"), out, b, vdd, tech.wp));
    let mid = c.node(&format!("{name}.mid"));
    c.add(nmos(
        tech,
        &format!("{name}.mna"),
        out,
        a,
        mid,
        2.0 * tech.wn,
    ));
    c.add(nmos(
        tech,
        &format!("{name}.mnb"),
        mid,
        b,
        Circuit::GROUND,
        2.0 * tech.wn,
    ));
}

/// Builds a sense-amplifier flip-flop (SAFF): a clock-precharged
/// StrongARM-style differential first stage resolving `D` vs `D̄` at the
/// rising edge, followed by a NAND SR latch.
///
/// Captures a logic 1 (rising data pulse); the monitored `q` output rises;
/// 50% criterion.
pub fn saff_register(tech: &Technology) -> Register {
    saff_register_with(tech, ClockSpec::paper())
}

/// [`saff_register`] with an explicit clock specification.
pub fn saff_register_with(tech: &Technology, clock: ClockSpec) -> Register {
    let mut base = cell_base(tech, &clock, 0.0, tech.vdd);
    let c = &mut base.circuit;
    let (vdd, clk, d) = (base.vdd_node, base.clk, base.d);

    // Local inverted data.
    let db = c.node("db");
    inverter(c, tech, "inv_d", d, db, vdd);
    c.add(Capacitor::new(
        "cpar_db",
        db,
        Circuit::GROUND,
        tech.cnode / 2.0,
    ));

    // StrongARM first stage: sb/rb precharge high while clock is low and
    // race to discharge at the rising edge; the data side wins.
    let sb = c.node("sb");
    let rb = c.node("rb");
    let n1 = c.node("n1");
    let n2 = c.node("n2");
    let tail = c.node("tail");
    c.add(nmos(
        tech,
        "mtail",
        tail,
        clk,
        Circuit::GROUND,
        3.0 * tech.wn,
    ));
    c.add(nmos(tech, "min1", n1, d, tail, 2.0 * tech.wn));
    c.add(nmos(tech, "min2", n2, db, tail, 2.0 * tech.wn));
    // Cross-coupled pair on top of the input devices.
    c.add(nmos(tech, "mxn1", sb, rb, n1, 2.0 * tech.wn));
    c.add(nmos(tech, "mxn2", rb, sb, n2, 2.0 * tech.wn));
    c.add(pmos(tech, "mxp1", sb, rb, vdd, tech.wp));
    c.add(pmos(tech, "mxp2", rb, sb, vdd, tech.wp));
    // Precharge.
    c.add(pmos(tech, "mpc1", sb, clk, vdd, tech.wp));
    c.add(pmos(tech, "mpc2", rb, clk, vdd, tech.wp));

    // NAND SR latch: q = nand(sb, qb); qb = nand(rb, q).
    let q = c.node("q");
    let qb = c.node("qb");
    nand2(c, tech, "nand_s", sb, qb, q, vdd);
    nand2(c, tech, "nand_r", rb, q, qb, vdd);

    for (node, cap) in [
        (sb, tech.cnode),
        (rb, tech.cnode),
        (n1, tech.cnode / 3.0),
        (n2, tech.cnode / 3.0),
        (tail, tech.cnode / 3.0),
        (qb, tech.cnode),
    ] {
        c.add(Capacitor::new(
            &format!("cpar_{}", c.node_name(node)),
            node,
            Circuit::GROUND,
            cap,
        ));
    }
    c.add(Capacitor::new("cload", q, Circuit::GROUND, tech.cload));

    Register::from_parts(RegisterParts {
        circuit: base.circuit,
        output: q,
        clock,
        vdd: tech.vdd,
        name: "saff",
        transition: OutputTransition::Rising,
        capture_fraction: 0.5,
        tech: *tech,
        active_edge_time: clock.active_edge_time(),
        reference_setup_hint: None,
    })
}

/// Builds a pulse-triggered latch: a local one-shot pulse generator
/// (clock AND its 3-inverter-delayed complement) gates a transmission-gate
/// latch, so the cell is transparent only during a narrow window after the
/// rising edge.
///
/// Captures a logic 1; the monitored `q` output rises; 50% criterion.
pub fn pulsed_latch(tech: &Technology) -> Register {
    pulsed_latch_with(tech, ClockSpec::paper())
}

/// [`pulsed_latch`] with an explicit clock specification.
pub fn pulsed_latch_with(tech: &Technology, clock: ClockSpec) -> Register {
    let mut base = cell_base(tech, &clock, 0.0, tech.vdd);
    let c = &mut base.circuit;
    let (vdd, clk, d) = (base.vdd_node, base.clk, base.d);

    // Pulse generator: pulse_b = NAND(clk, delay3(clk̄)); pulse = ~pulse_b.
    let c1 = c.node("pg1");
    let c2 = c.node("pg2");
    let c3 = c.node("pg3");
    inverter(c, tech, "pg_inv1", clk, c1, vdd);
    inverter(c, tech, "pg_inv2", c1, c2, vdd);
    inverter(c, tech, "pg_inv3", c2, c3, vdd);
    let pulse_b = c.node("pulse_b");
    let pulse = c.node("pulse");
    nand2(c, tech, "pg_nand", clk, c3, pulse_b, vdd);
    inverter(c, tech, "pg_inv4", pulse_b, pulse, vdd);
    // Slow the delay chain slightly so the pulse is wide enough to latch.
    for node in [c1, c2, c3] {
        c.add(Capacitor::new(
            &format!("cpg_{}", c.node_name(node)),
            node,
            Circuit::GROUND,
            2.0 * tech.cnode,
        ));
    }

    // Transmission-gate latch gated by the pulse.
    let x = c.node("x");
    let qb = c.node("qb");
    let q = c.node("q");
    c.add(nmos(tech, "tg.mn", x, pulse, d, tech.wn));
    c.add(pmos(tech, "tg.mp", x, pulse_b, d, tech.wp));
    inverter(c, tech, "inv1", x, qb, vdd);
    inverter(c, tech, "inv2", qb, q, vdd);

    for (node, cap) in [(x, tech.cnode), (qb, tech.cnode), (pulse, tech.cnode)] {
        c.add(Capacitor::new(
            &format!("cpar_{}", c.node_name(node)),
            node,
            Circuit::GROUND,
            cap,
        ));
    }
    c.add(Capacitor::new("cload", q, Circuit::GROUND, tech.cload));

    Register::from_parts(RegisterParts {
        circuit: base.circuit,
        output: q,
        clock,
        vdd: tech.vdd,
        name: "pulsed_latch",
        transition: OutputTransition::Rising,
        capture_fraction: 0.5,
        tech: *tech,
        active_edge_time: clock.active_edge_time(),
        reference_setup_hint: None,
    })
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
    fn saff_validates_and_captures_one() {
        let tech = Technology::default_250nm();
        let reg = saff_register_with(&tech, ClockSpec::fast());
        reg.circuit().validate().unwrap();
        let v = final_q(&reg, 0.5e-9, 0.5e-9, 0.6e-9);
        assert!(v > 0.9 * tech.vdd, "saff failed to capture 1: q = {v}");
    }

    #[test]
    fn saff_rejects_absent_data() {
        let tech = Technology::default_250nm();
        let reg = saff_register_with(&tech, ClockSpec::fast());
        let v = final_q(&reg, 0.9e-9, -0.6e-9, 0.6e-9);
        assert!(v < 0.3 * tech.vdd, "saff latched spuriously: q = {v}");
    }

    #[test]
    fn pulsed_latch_validates_and_captures_one() {
        let tech = Technology::default_250nm();
        let reg = pulsed_latch_with(&tech, ClockSpec::fast());
        reg.circuit().validate().unwrap();
        let v = final_q(&reg, 0.5e-9, 0.5e-9, 0.6e-9);
        assert!(
            v > 0.9 * tech.vdd,
            "pulsed latch failed to capture: q = {v}"
        );
    }

    #[test]
    fn pulsed_latch_pulse_is_narrow() {
        // The local pulse must rise at the edge and fall again well before
        // the next edge — that's what makes the cell edge-triggered.
        let tech = Technology::default_250nm();
        let reg = pulsed_latch_with(&tech, ClockSpec::fast());
        let pulse = reg.node("pulse").unwrap().unknown().unwrap();
        let edge = reg.active_edge_time();
        let opts = TransientOptions::builder(edge + 1.2e-9).dt(4e-12).build();
        let res = TransientAnalysis::new(reg.circuit(), opts)
            .run(&Params::new(0.5e-9, 0.5e-9))
            .unwrap();
        use shc_spice::transient::CrossingDirection;
        let t_up = res
            .crossing_time(pulse, 1.25, edge - 0.2e-9, CrossingDirection::Rising)
            .expect("pulse rises at the edge");
        let t_down = res
            .crossing_time(pulse, 1.25, t_up, CrossingDirection::Falling)
            .expect("pulse falls again");
        let width = t_down - t_up;
        assert!(
            width > 20e-12 && width < 0.5e-9,
            "pulse width {:.1} ps out of range",
            width * 1e12
        );
    }
}
