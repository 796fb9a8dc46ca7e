//! Register/latch netlist builders.

use serde::{Deserialize, Serialize};
use shc_spice::waveform::{DataPulse, Pulse};
use shc_spice::{Capacitor, Circuit, Mosfet, Node, RampShape, VoltageSource, Waveform};

use crate::Technology;

/// Clock stimulus description.
///
/// [`ClockSpec::paper`] reproduces the paper's timing exactly: 10 ns period,
/// 1 ns initial delay, 0.1 ns rise/fall, 2.5 V swing, with the *second*
/// rising edge (50% point at 11.05 ns) as the measured active edge — the
/// first edge initializes the internal dynamic nodes. [`ClockSpec::fast`]
/// is a compressed variant for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockSpec {
    /// Clock period in seconds.
    pub period: f64,
    /// Initial delay before the first rising ramp, in seconds.
    pub delay: f64,
    /// Rise time in seconds.
    pub rise: f64,
    /// Fall time in seconds.
    pub fall: f64,
    /// High-pulse width in seconds.
    pub width: f64,
    /// Index of the rising edge used as the measured active edge.
    pub active_edge_index: usize,
}

impl ClockSpec {
    /// The paper's clock: 10 ns period, 1 ns delay, 0.1 ns edges, active
    /// edge = second rising edge (11.05 ns at its 50% point).
    pub fn paper() -> Self {
        ClockSpec {
            period: 10e-9,
            delay: 1e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 4.9e-9,
            active_edge_index: 1,
        }
    }

    /// A compressed clock for fast unit tests: 3 ns period, active edge =
    /// second rising edge (3.25 ns), so one full initialization cycle still
    /// precedes the measurement.
    pub fn fast() -> Self {
        ClockSpec {
            period: 3e-9,
            delay: 0.2e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 1.4e-9,
            active_edge_index: 1,
        }
    }

    /// Time of the 50% crossing of the measured active (rising) edge.
    pub fn active_edge_time(&self) -> f64 {
        self.delay + self.rise / 2.0 + self.active_edge_index as f64 * self.period
    }

    /// Time of the 50% crossing of the `k`-th *falling* edge.
    pub fn falling_edge_time(&self, k: usize) -> f64 {
        self.delay + self.rise + self.width + self.fall / 2.0 + k as f64 * self.period
    }

    /// Converts to a [`Pulse`] waveform of the given swing.
    pub fn to_pulse(&self, vdd: f64) -> Pulse {
        Pulse {
            v0: 0.0,
            v1: vdd,
            delay: self.delay,
            rise: self.rise,
            fall: self.fall,
            width: self.width,
            period: self.period,
            shape: RampShape::Smoothstep,
        }
    }

    /// Converts to the *inverted* pulse delayed by `skew` (the `clk̄`
    /// generation the paper uses for the C²MOS register).
    pub fn to_inverted_pulse(&self, vdd: f64, skew: f64) -> Pulse {
        Pulse {
            v0: vdd,
            v1: 0.0,
            delay: self.delay + skew,
            rise: self.rise,
            fall: self.fall,
            width: self.width,
            period: self.period,
            shape: RampShape::Smoothstep,
        }
    }
}

/// Direction of the monitored output transition for the configured data
/// capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputTransition {
    /// Output rises toward Vdd.
    Rising,
    /// Output falls toward ground.
    Falling,
}

/// Which cell a [`Register`] was built as (used to rebuild with a different
/// clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CellKind {
    Tspc,
    C2mos,
    Tg,
    DLatch,
    Saff,
    PulsedLatch,
    /// N-bit register bank (carries its bit width for rebuilds).
    Bank(usize),
    Custom,
}

/// A complete register/latch characterization fixture: transistor netlist
/// with embedded clock and data sources, plus measurement metadata.
#[derive(Debug)]
pub struct Register {
    circuit: Circuit,
    output: Node,
    clock: ClockSpec,
    vdd: f64,
    name: &'static str,
    transition: OutputTransition,
    capture_fraction: f64,
    kind: CellKind,
    tech: Technology,
    active_edge_time: f64,
    reference_setup_hint: Option<f64>,
}

impl Register {
    /// The transistor-level netlist.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The monitored output node (`Q`).
    pub fn output(&self) -> Node {
        self.output
    }

    /// MNA unknown index of the output node.
    ///
    /// # Panics
    ///
    /// Never panics in practice: the output node is never ground.
    pub fn output_unknown(&self) -> usize {
        self.output.unknown().expect("output node is never ground")
    }

    /// The clock stimulus description.
    pub fn clock(&self) -> &ClockSpec {
        &self.clock
    }

    /// Supply voltage.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Cell name (e.g. `"tspc"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Direction of the monitored output transition.
    pub fn transition(&self) -> OutputTransition {
        self.transition
    }

    /// Default capture fraction: the output is considered "arrived" when it
    /// completes this fraction of its swing (0.5 for TSPC, 0.9 for C²MOS,
    /// following the paper's Sec. IV).
    pub fn capture_fraction(&self) -> f64 {
        self.capture_fraction
    }

    /// Time of the 50% crossing of the measured active edge.
    pub fn active_edge_time(&self) -> f64 {
        self.active_edge_time
    }

    /// Suggested *setup* skew for the reference (characteristic-delay)
    /// measurement, if the cell needs one.
    ///
    /// Edge-triggered registers return `None` (any generous skew works).
    /// Level-sensitive latches are transparent before the closing edge, so
    /// their reference capture must arrive *near* the edge for a
    /// clock-referenced delay to exist; they suggest a small setup skew.
    pub fn reference_setup_hint(&self) -> Option<f64> {
        self.reference_setup_hint
    }

    /// The output level corresponding to completing `fraction` of the
    /// output swing (the paper's `r`).
    ///
    /// For a rising output this is `fraction·Vdd`; for a falling output,
    /// `(1 − fraction)·Vdd` (e.g. the paper's 0.25 V for the C²MOS at 90%).
    pub fn target_level(&self, fraction: f64) -> f64 {
        match self.transition {
            OutputTransition::Rising => fraction * self.vdd,
            OutputTransition::Falling => (1.0 - fraction) * self.vdd,
        }
    }

    /// Looks up a named internal node (for probing/examples).
    pub fn node(&self, name: &str) -> Option<Node> {
        self.circuit.find_node(name)
    }

    /// Rebuilds the same cell with a different clock specification.
    ///
    /// # Panics
    ///
    /// Panics for [`Register::custom`] fixtures — their netlists embed the
    /// stimulus and cannot be rebuilt; construct a new fixture instead.
    #[must_use]
    pub fn with_clock(&self, clock: ClockSpec) -> Register {
        match self.kind {
            CellKind::Tspc => tspc_register_with(&self.tech, clock),
            CellKind::C2mos => c2mos_register_with(&self.tech, clock, C2MOS_CLKB_SKEW),
            CellKind::Tg => tg_register_with(&self.tech, clock),
            CellKind::DLatch => d_latch_with(&self.tech, clock),
            CellKind::Saff => crate::extra::saff_register_with(&self.tech, clock),
            CellKind::PulsedLatch => crate::extra::pulsed_latch_with(&self.tech, clock),
            CellKind::Bank(bits) => crate::bank::register_bank_with(&self.tech, clock, bits),
            CellKind::Custom => {
                panic!("custom registers embed their stimulus; rebuild the fixture instead")
            }
        }
    }

    /// Wraps an externally built netlist (e.g. from
    /// [`shc_spice::netlist::parse`]) as a characterization fixture.
    ///
    /// The circuit must already contain the clock source and a
    /// τs/τh-parameterized data source ([`shc_spice::Waveform::Data`],
    /// written `DATA(...)` in a SPICE deck) whose `t_edge` equals
    /// `active_edge_time`. `clock_period` drives the heuristics that pick
    /// reference skews and settle margins.
    ///
    /// # Panics
    ///
    /// Panics if `output` is the ground node or the timing arguments are
    /// not positive and finite.
    #[allow(clippy::too_many_arguments)]
    pub fn custom(
        circuit: Circuit,
        output: Node,
        vdd: f64,
        transition: OutputTransition,
        capture_fraction: f64,
        active_edge_time: f64,
        clock_period: f64,
    ) -> Register {
        assert!(!output.is_ground(), "output node must not be ground");
        assert!(
            vdd > 0.0
                && active_edge_time > 0.0
                && clock_period > 0.0
                && active_edge_time.is_finite()
                && clock_period.is_finite(),
            "custom register: vdd, active edge time and period must be positive and finite"
        );
        let clock = ClockSpec {
            period: clock_period,
            delay: (active_edge_time - 0.05e-9).max(0.0),
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: clock_period * 0.49,
            active_edge_index: 0,
        };
        Register {
            circuit,
            output,
            clock,
            vdd,
            name: "custom",
            transition,
            capture_fraction,
            kind: CellKind::Custom,
            tech: Technology::default_250nm(),
            active_edge_time,
            reference_setup_hint: None,
        }
    }
}

/// The paper's clk̄ delay for the C²MOS register (Sec. IV-B): 0.3 ns.
pub const C2MOS_CLKB_SKEW: f64 = 0.3e-9;

/// Rise/fall time of the data pulse edges (same as the clock edges).
const DATA_EDGE_TIME: f64 = 0.1e-9;

fn nmos(tech: &Technology, name: &str, d: Node, g: Node, s: Node, w: f64) -> Mosfet {
    Mosfet::new(name, d, g, s, tech.nmos, w, tech.lmin)
}

fn pmos(tech: &Technology, name: &str, d: Node, g: Node, s: Node, w: f64) -> Mosfet {
    Mosfet::new(name, d, g, s, tech.pmos, w, tech.lmin)
}

pub(crate) struct CellBase {
    pub(crate) circuit: Circuit,
    pub(crate) vdd_node: Node,
    pub(crate) clk: Node,
    pub(crate) d: Node,
}

/// Internal constructor bundle for [`Register`] (used by the cell builders
/// in this crate, including the extra topologies).
#[derive(Debug)]
pub(crate) struct RegisterParts {
    pub(crate) circuit: Circuit,
    pub(crate) output: Node,
    pub(crate) clock: ClockSpec,
    pub(crate) vdd: f64,
    pub(crate) name: &'static str,
    pub(crate) transition: OutputTransition,
    pub(crate) capture_fraction: f64,
    pub(crate) tech: Technology,
    pub(crate) active_edge_time: f64,
    pub(crate) reference_setup_hint: Option<f64>,
}

impl Register {
    pub(crate) fn from_parts(parts: RegisterParts) -> Register {
        let kind = match parts.name {
            "saff" => CellKind::Saff,
            "pulsed_latch" => CellKind::PulsedLatch,
            _ => CellKind::Custom,
        };
        Register::from_parts_with_kind(parts, kind)
    }

    pub(crate) fn from_parts_with_kind(parts: RegisterParts, kind: CellKind) -> Register {
        Register {
            circuit: parts.circuit,
            output: parts.output,
            clock: parts.clock,
            vdd: parts.vdd,
            name: parts.name,
            transition: parts.transition,
            capture_fraction: parts.capture_fraction,
            kind,
            tech: parts.tech,
            active_edge_time: parts.active_edge_time,
            reference_setup_hint: parts.reference_setup_hint,
        }
    }
}

/// Builds the shared scaffolding: supply, clock source, and the
/// τs/τh-parameterized data source centered on the measured rising edge.
pub(crate) fn cell_base(
    tech: &Technology,
    clock: &ClockSpec,
    data_rest: f64,
    data_active: f64,
) -> CellBase {
    cell_base_at(
        tech,
        clock,
        data_rest,
        data_active,
        clock.active_edge_time(),
    )
}

/// [`cell_base`] with an explicit data-pulse center time (latches close on
/// the falling edge, so their data pulse is centered there instead).
pub(crate) fn cell_base_at(
    tech: &Technology,
    clock: &ClockSpec,
    data_rest: f64,
    data_active: f64,
    t_edge: f64,
) -> CellBase {
    let mut circuit = Circuit::new();
    let vdd_node = circuit.node("vdd");
    let clk = circuit.node("clk");
    let d = circuit.node("d");
    circuit.add(VoltageSource::new(
        "Vdd",
        vdd_node,
        Circuit::GROUND,
        Waveform::dc(tech.vdd),
    ));
    circuit.add(VoltageSource::new(
        "Vclk",
        clk,
        Circuit::GROUND,
        Waveform::Pulse(clock.to_pulse(tech.vdd)),
    ));
    let data = DataPulse {
        v_rest: data_rest,
        v_active: data_active,
        t_edge,
        rise: DATA_EDGE_TIME,
        fall: DATA_EDGE_TIME,
        shape: RampShape::Smoothstep,
    };
    circuit.add(VoltageSource::new(
        "Vdata",
        d,
        Circuit::GROUND,
        Waveform::Data(data),
    ));
    CellBase {
        circuit,
        vdd_node,
        clk,
        d,
    }
}

fn add_inverter(
    c: &mut Circuit,
    tech: &Technology,
    name: &str,
    input: Node,
    output: Node,
    vdd: Node,
) {
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

/// Builds the paper's TSPC positive edge-triggered register (Fig. 6) with
/// the paper's clock timing.
///
/// Topology: the classic 9-transistor Yuan-Svensson true single-phase
/// clocked flip-flop — a p-latch input stage (clock-gated pull-up, so the
/// sampled value is protected once the clock is high), followed by two
/// n-latch stages (clock-gated pulldowns) that evaluate at the rising edge.
///
/// The data pulse captures a logic 0 (Vdd→0→Vdd around the active edge);
/// the monitored `q` output *rises* — matching the rising output waveforms
/// of the paper's Fig. 3 — and the 50% criterion applies (r = 1.25 V).
pub fn tspc_register(tech: &Technology) -> Register {
    tspc_register_with(tech, ClockSpec::paper())
}

/// [`tspc_register`] with an explicit clock specification.
pub fn tspc_register_with(tech: &Technology, clock: ClockSpec) -> Register {
    let mut base = cell_base(tech, &clock, tech.vdd, 0.0);
    let c = &mut base.circuit;
    let (vdd, clk, d) = (base.vdd_node, base.clk, base.d);
    let m1 = c.node("m1");
    let x = c.node("x");
    let y = c.node("y");
    let s2 = c.node("s2");
    let q = c.node("q");
    let s3 = c.node("s3");

    // Stage 1 (p-latch): transparent inverter of D while the clock is low;
    // pull-up blocked while high, so a captured low X cannot be undone.
    c.add(pmos(tech, "mp1a", m1, clk, vdd, tech.wp));
    c.add(pmos(tech, "mp1b", x, d, m1, tech.wp));
    c.add(nmos(tech, "mn1", x, d, Circuit::GROUND, tech.wn));

    // Stage 2 (n-latch): full inverter of X while the clock is high;
    // rise-only while low.
    c.add(pmos(tech, "mp2", y, x, vdd, tech.wp));
    c.add(nmos(tech, "mn2a", y, x, s2, 2.0 * tech.wn));
    c.add(nmos(tech, "mn2b", s2, clk, Circuit::GROUND, 2.0 * tech.wn));

    // Stage 3 (n-latch, output): evaluates ~Y at the rising edge; its
    // clock-gated pulldown prevents transparency during the low phase.
    c.add(pmos(tech, "mp3", q, y, vdd, tech.wp));
    c.add(nmos(tech, "mn3a", q, y, s3, 2.0 * tech.wn));
    c.add(nmos(tech, "mn3b", s3, clk, Circuit::GROUND, 2.0 * tech.wn));

    for (node, cap) in [
        (x, 2.0 * tech.cnode),
        (y, tech.cnode),
        (m1, tech.cnode / 3.0),
        (s2, tech.cnode / 3.0),
        (s3, tech.cnode / 3.0),
    ] {
        c.add(Capacitor::new(
            &format!("cpar_{}", c.node_name(node)),
            node,
            Circuit::GROUND,
            cap,
        ));
    }
    c.add(Capacitor::new("cload", q, Circuit::GROUND, tech.cload));

    Register {
        circuit: base.circuit,
        output: q,
        clock,
        vdd: tech.vdd,
        name: "tspc",
        transition: OutputTransition::Rising,
        capture_fraction: 0.5,
        kind: CellKind::Tspc,
        tech: *tech,
        active_edge_time: clock.active_edge_time(),
        reference_setup_hint: None,
    }
}

/// Builds the paper's C²MOS positive edge-triggered master-slave register
/// (Fig. 11a) with the paper's clock timing and 0.3 ns `clk̄` delay.
///
/// The data pulse captures a logic 0 (Vdd→0→Vdd around the active edge);
/// the monitored `q` output falls, and — following the paper's Sec. IV-B —
/// the 90% criterion is the default (so the target level is 0.25 V for a
/// 2.5 V swing).
pub fn c2mos_register(tech: &Technology) -> Register {
    c2mos_register_with(tech, ClockSpec::paper(), C2MOS_CLKB_SKEW)
}

/// [`c2mos_register`] with explicit clock specification and `clk̄` skew.
pub fn c2mos_register_with(tech: &Technology, clock: ClockSpec, clkb_skew: f64) -> Register {
    let mut base = cell_base(tech, &clock, tech.vdd, 0.0);
    let c = &mut base.circuit;
    let (vdd, clk, d) = (base.vdd_node, base.clk, base.d);
    let clkb = c.node("clkb");
    c.add(VoltageSource::new(
        "Vclkb",
        clkb,
        Circuit::GROUND,
        Waveform::Pulse(clock.to_inverted_pulse(tech.vdd, clkb_skew)),
    ));

    let x = c.node("x");
    let q = c.node("q");
    let pm = c.node("pm");
    let nm = c.node("nm");
    let ps = c.node("ps");
    let ns = c.node("ns");

    // Master C²MOS inverter: transparent while CLK is low.
    c.add(pmos(tech, "mp1", pm, d, vdd, tech.wp));
    c.add(pmos(tech, "mp2", x, clk, pm, tech.wp));
    c.add(nmos(tech, "mn2", x, clkb, nm, tech.wn));
    c.add(nmos(tech, "mn1", nm, d, Circuit::GROUND, tech.wn));

    // Slave C²MOS inverter: transparent while CLK is high.
    c.add(pmos(tech, "mp3", ps, x, vdd, tech.wp));
    c.add(pmos(tech, "mp4", q, clkb, ps, tech.wp));
    c.add(nmos(tech, "mn4", q, clk, ns, tech.wn));
    c.add(nmos(tech, "mn3", ns, x, Circuit::GROUND, tech.wn));

    for (node, cap) in [
        (x, tech.cnode),
        (pm, tech.cnode / 3.0),
        (nm, tech.cnode / 3.0),
        (ps, tech.cnode / 3.0),
        (ns, tech.cnode / 3.0),
    ] {
        c.add(Capacitor::new(
            &format!("cpar_{}", c.node_name(node)),
            node,
            Circuit::GROUND,
            cap,
        ));
    }
    c.add(Capacitor::new("cload", q, Circuit::GROUND, tech.cload));

    Register {
        circuit: base.circuit,
        output: q,
        clock,
        vdd: tech.vdd,
        name: "c2mos",
        transition: OutputTransition::Falling,
        capture_fraction: 0.9,
        kind: CellKind::C2mos,
        tech: *tech,
        active_edge_time: clock.active_edge_time(),
        reference_setup_hint: None,
    }
}

fn add_tgate(
    c: &mut Circuit,
    tech: &Technology,
    name: &str,
    a: Node,
    b: Node,
    n_gate: Node,
    p_gate: Node,
) {
    c.add(nmos(tech, &format!("{name}.mn"), a, n_gate, b, tech.wn));
    c.add(pmos(tech, &format!("{name}.mp"), a, p_gate, b, tech.wp));
}

/// Builds a static transmission-gate master-slave flip-flop (positive
/// edge-triggered) — an additional validation cell beyond the paper's two.
///
/// The `clk̄` is delayed by 0.1 ns, creating a small clock overlap and a
/// modest positive hold time. The data pulse captures a logic 1 and the
/// monitored output rises (50% criterion).
pub fn tg_register(tech: &Technology) -> Register {
    tg_register_with(tech, ClockSpec::paper())
}

/// [`tg_register`] with an explicit clock specification.
pub fn tg_register_with(tech: &Technology, clock: ClockSpec) -> Register {
    let mut base = cell_base(tech, &clock, 0.0, tech.vdd);
    let c = &mut base.circuit;
    let (vdd, clk, d) = (base.vdd_node, base.clk, base.d);
    let clkb = c.node("clkb");
    c.add(VoltageSource::new(
        "Vclkb",
        clkb,
        Circuit::GROUND,
        Waveform::Pulse(clock.to_inverted_pulse(tech.vdd, 0.1e-9)),
    ));

    let xm = c.node("xm");
    let xmb = c.node("xmb");
    let xmf = c.node("xmf");
    let ys = c.node("ys");
    let q = c.node("q");
    let qf = c.node("qf");

    // Master: transparent while CLK is low.
    add_tgate(c, tech, "tg1", d, xm, clkb, clk);
    add_inverter(c, tech, "inv_m1", xm, xmb, vdd);
    add_inverter(c, tech, "inv_m2", xmb, xmf, vdd);
    add_tgate(c, tech, "tg2", xmf, xm, clk, clkb);

    // Slave: transparent while CLK is high.
    add_tgate(c, tech, "tg3", xmb, ys, clk, clkb);
    add_inverter(c, tech, "inv_s1", ys, q, vdd);
    add_inverter(c, tech, "inv_s2", q, qf, vdd);
    add_tgate(c, tech, "tg4", qf, ys, clkb, clk);

    for node in [xm, xmb, xmf, ys, qf] {
        c.add(Capacitor::new(
            &format!("cpar_{}", c.node_name(node)),
            node,
            Circuit::GROUND,
            tech.cnode,
        ));
    }
    c.add(Capacitor::new("cload", q, Circuit::GROUND, tech.cload));

    Register {
        circuit: base.circuit,
        output: q,
        clock,
        vdd: tech.vdd,
        name: "tg",
        transition: OutputTransition::Rising,
        capture_fraction: 0.5,
        kind: CellKind::Tg,
        tech: *tech,
        active_edge_time: clock.active_edge_time(),
        reference_setup_hint: None,
    }
}

/// Builds a level-sensitive dynamic D latch, transparent while the clock is
/// high. The active (latching) edge is the clock's *falling* edge; setup
/// and hold skews are measured against it.
pub fn d_latch(tech: &Technology) -> Register {
    d_latch_with(tech, ClockSpec::paper())
}

/// [`d_latch`] with an explicit clock specification.
pub fn d_latch_with(tech: &Technology, clock: ClockSpec) -> Register {
    // The latch closes at the falling edge: center the data pulse there.
    let falling_edge = clock.falling_edge_time(clock.active_edge_index);
    let mut base = cell_base_at(tech, &clock, 0.0, tech.vdd, falling_edge);
    let c = &mut base.circuit;
    let (vdd, clk, d) = (base.vdd_node, base.clk, base.d);
    let clkb = c.node("clkb");
    c.add(VoltageSource::new(
        "Vclkb",
        clkb,
        Circuit::GROUND,
        Waveform::Pulse(clock.to_inverted_pulse(tech.vdd, 0.0)),
    ));
    let x = c.node("x");
    let qb = c.node("qb");
    let q = c.node("q");
    add_tgate(c, tech, "tg1", d, x, clk, clkb);
    add_inverter(c, tech, "inv1", x, qb, vdd);
    add_inverter(c, tech, "inv2", qb, q, vdd);
    c.add(Capacitor::new("cpar_x", x, Circuit::GROUND, tech.cnode));
    c.add(Capacitor::new("cpar_qb", qb, Circuit::GROUND, tech.cnode));
    c.add(Capacitor::new("cload", q, Circuit::GROUND, tech.cload));

    Register {
        circuit: base.circuit,
        output: q,
        clock,
        vdd: tech.vdd,
        name: "dlatch",
        transition: OutputTransition::Rising,
        capture_fraction: 0.5,
        kind: CellKind::DLatch,
        tech: *tech,
        active_edge_time: falling_edge,
        // Transparent-high latch: the reference capture must reach the
        // output just after the closing edge, not long before it.
        reference_setup_hint: Some(0.12e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shc_spice::transient::{RecordMode, TransientAnalysis, TransientOptions};
    use shc_spice::waveform::Params;

    fn run_capture(reg: &Register, tau_s: f64, tau_h: f64, tstop: f64) -> f64 {
        let opts = TransientOptions::builder(tstop)
            .dt(4e-12)
            .record(RecordMode::Probe(reg.output_unknown()))
            .build();
        let res = TransientAnalysis::new(reg.circuit(), opts)
            .run(&Params::new(tau_s, tau_h))
            .expect("transient");
        res.final_state()[reg.output_unknown()]
    }

    #[test]
    fn clock_spec_edge_times() {
        let p = ClockSpec::paper();
        assert!((p.active_edge_time() - 11.05e-9).abs() < 1e-15);
        assert!((p.falling_edge_time(0) - 6.05e-9).abs() < 1e-15);
        let f = ClockSpec::fast();
        assert!(f.active_edge_time() < p.active_edge_time());
    }

    #[test]
    fn target_levels_follow_transition_direction() {
        let tech = Technology::default_250nm();
        let tspc = tspc_register_with(&tech, ClockSpec::fast());
        assert!((tspc.target_level(0.5) - 1.25).abs() < 1e-12);
        let c2 = c2mos_register_with(&tech, ClockSpec::fast(), C2MOS_CLKB_SKEW);
        assert!((c2.target_level(0.9) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn netlists_validate() {
        let tech = Technology::default_250nm();
        for reg in [
            tspc_register_with(&tech, ClockSpec::fast()),
            c2mos_register_with(&tech, ClockSpec::fast(), C2MOS_CLKB_SKEW),
            tg_register_with(&tech, ClockSpec::fast()),
            d_latch_with(&tech, ClockSpec::fast()),
        ] {
            reg.circuit().validate().unwrap_or_else(|e| {
                panic!("{} failed validation: {e}", reg.name());
            });
        }
    }

    #[test]
    fn tspc_captures_zero_with_generous_skews() {
        let tech = Technology::default_250nm();
        let reg = tspc_register_with(&tech, ClockSpec::fast());
        let edge = reg.active_edge_time();
        // Measure shortly after the edge (the t_f regime): the rising q
        // output must have completed its transition.
        let v = run_capture(&reg, 0.5e-9, 0.5e-9, edge + 0.4e-9);
        assert!(v > 0.9 * tech.vdd, "tspc failed to capture 0: q = {v}");
    }

    #[test]
    fn tspc_fails_with_hopeless_skews() {
        let tech = Technology::default_250nm();
        let reg = tspc_register_with(&tech, ClockSpec::fast());
        let edge = reg.active_edge_time();
        // Data pulse entirely before the edge: nothing to capture.
        let v = run_capture(&reg, 0.9e-9, -0.6e-9, edge + 0.4e-9);
        assert!(v < 0.3 * tech.vdd, "tspc latched spuriously: q = {v}");
    }

    #[test]
    fn c2mos_latches_zero_with_generous_skews() {
        let tech = Technology::default_250nm();
        let reg = c2mos_register_with(&tech, ClockSpec::fast(), C2MOS_CLKB_SKEW);
        let edge = reg.active_edge_time();
        let v = run_capture(&reg, 0.9e-9, 0.9e-9, edge + 1.2e-9);
        assert!(v < 0.1 * tech.vdd, "c2mos failed to latch 0: q = {v}");
    }

    #[test]
    fn c2mos_holds_one_when_data_pulse_absent() {
        let tech = Technology::default_250nm();
        let reg = c2mos_register_with(&tech, ClockSpec::fast(), C2MOS_CLKB_SKEW);
        let edge = reg.active_edge_time();
        // Degenerate pulse (τs + τh < 0 ⇒ no low excursion near the edge).
        let v = run_capture(&reg, -0.5e-9, -0.3e-9, edge + 1.2e-9);
        assert!(v > 0.9 * tech.vdd, "c2mos lost its rest state: q = {v}");
    }

    #[test]
    fn tg_register_latches_one() {
        let tech = Technology::default_250nm();
        let reg = tg_register_with(&tech, ClockSpec::fast());
        let edge = reg.active_edge_time();
        let v = run_capture(&reg, 0.9e-9, 0.9e-9, edge + 1.2e-9);
        assert!(v > 0.9 * tech.vdd, "tg register failed to latch 1: q = {v}");
    }

    #[test]
    fn d_latch_captures_at_falling_edge() {
        let tech = Technology::default_250nm();
        let reg = d_latch_with(&tech, ClockSpec::fast());
        // Active edge is the falling edge.
        let clk_fall = reg.clock().falling_edge_time(reg.clock().active_edge_index);
        assert!((reg.active_edge_time() - clk_fall).abs() < 1e-15);
        let v = run_capture(&reg, 0.6e-9, 0.6e-9, clk_fall + 1.0e-9);
        assert!(v > 0.9 * tech.vdd, "d latch failed to capture 1: q = {v}");
    }

    #[test]
    fn with_clock_rebuilds_same_kind() {
        let tech = Technology::default_250nm();
        let reg = tspc_register(&tech);
        let fast = reg.with_clock(ClockSpec::fast());
        assert_eq!(fast.name(), "tspc");
        assert!(fast.active_edge_time() < reg.active_edge_time());
    }
}
