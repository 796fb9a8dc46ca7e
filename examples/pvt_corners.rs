//! PVT-corner sweep — the industrial outer loop the paper's introduction
//! motivates ("characterized … for all process-voltage-temperature (PVT)
//! corners"). Later corners warm-start from the first corner's contour,
//! skipping the bracketing search (paper Sec. III-E step 1a).
//!
//! Run with: `cargo run --release --example pvt_corners`

use shc::cells::{tspc_register, ClockSpec, Technology};
use shc::core::corners::{sweep, SweepOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Supply and threshold corners around the typical card.
    let mut corners = Vec::new();
    for (label, vdd, dvt) in [
        ("ss_2.30V_+40mV", 2.30, 0.04),
        ("sf_2.40V_+20mV", 2.40, 0.02),
        ("tt_2.50V", 2.50, 0.00),
        ("fs_2.60V_-20mV", 2.60, -0.02),
        ("ff_2.70V_-40mV", 2.70, -0.04),
    ] {
        let mut tech = Technology::default_250nm();
        tech.vdd = vdd;
        tech.nmos.vt0 += dvt;
        tech.pmos.vt0 += dvt;
        corners.push((
            label.to_string(),
            tspc_register(&tech).with_clock(ClockSpec::fast()),
        ));
    }

    let opts = SweepOptions {
        points: 14,
        ..SweepOptions::default()
    };
    let results = sweep(corners, &opts)?;

    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>8} {:>6}",
        "corner", "t_CQ(ps)", "setup(ps)", "hold@bend(ps)", "sims", "warm"
    );
    for r in &results {
        let first = r.contour.points().first().expect("nonempty contour");
        let last = r.contour.points().last().expect("nonempty contour");
        println!(
            "{:<18} {:>10.1} {:>10.1} {:>12.1} {:>8} {:>6}",
            r.label,
            r.t_cq * 1e12,
            first.tau_s * 1e12,
            last.tau_h * 1e12,
            r.simulations,
            if r.warm_started { "yes" } else { "cold" },
        );
    }
    let cold = results[0].simulations;
    let warm_avg = results[1..]
        .iter()
        .map(|r| r.simulations as f64)
        .sum::<f64>()
        / (results.len() - 1) as f64;
    println!(
        "\nfirst (cold) corner: {cold} sims; later corners average {warm_avg:.0} sims \
         ({:.0}% saved by warm-starting)",
        100.0 * (1.0 - warm_avg / cold as f64)
    );
    Ok(())
}
