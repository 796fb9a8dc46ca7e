//! Large-circuit scaling: an RC-ladder parasitic network with hundreds of
//! nodes, assembled by the MNA engine and solved through the sparse-direct
//! stack — the path a post-layout characterization run takes.

use shc::linalg::{CsrMatrix, SparseLu, Vector};
use shc::spice::waveform::Params;
use shc::spice::{
    Capacitor, Circuit, CurrentSource, Resistor, SolverChoice, VoltageSource, Waveform,
};

/// RC ladder driven by a current source: a *pure nodal* system, so every
/// MNA diagonal is structurally nonzero.
fn rc_ladder_nodal(n: usize) -> Circuit {
    let mut c = Circuit::new();
    let mut prev = c.node("in");
    c.add(CurrentSource::new(
        "I1",
        Circuit::GROUND,
        prev,
        Waveform::dc(1e-3),
    ));
    c.add(Resistor::new("Rin", prev, Circuit::GROUND, 1e3));
    for k in 0..n {
        let next = c.node(&format!("n{k}"));
        c.add(Resistor::new(&format!("R{k}"), prev, next, 100.0));
        c.add(Capacitor::new(
            &format!("C{k}"),
            next,
            Circuit::GROUND,
            1e-15,
        ));
        prev = next;
    }
    c
}

/// The same ladder driven by an ideal voltage source (for the transient).
/// The branch-current row has a structurally zero diagonal, exercising the
/// sparse factorization's partial pivoting.
fn rc_ladder_vsrc(n: usize) -> Circuit {
    let mut c = Circuit::new();
    let mut prev = c.node("in");
    c.add(VoltageSource::new(
        "V1",
        prev,
        Circuit::GROUND,
        Waveform::dc(1.0),
    ));
    for k in 0..n {
        let next = c.node(&format!("n{k}"));
        c.add(Resistor::new(&format!("R{k}"), prev, next, 100.0));
        c.add(Capacitor::new(
            &format!("C{k}"),
            next,
            Circuit::GROUND,
            1e-15,
        ));
        prev = next;
    }
    c
}

#[test]
fn ladder_jacobian_sparse_direct_and_dense_agree() {
    let n_sections = 300;
    let circuit = rc_ladder_nodal(n_sections);
    let n = circuit.unknown_count();
    assert!(n > 300);

    // Assemble the Backward-Euler step Jacobian C/dt·1 + G at a bias point.
    let x = Vector::filled(n, 0.5);
    let stamps = circuit.assemble(&x, 0.0, &Params::default(), 1.0);
    let dt = 1e-12;
    let mut jac = stamps.c.scale(1.0 / dt);
    jac.axpy(1.0, &stamps.g)
        .expect("C and G share the MNA shape");

    let rhs: Vector = (0..n).map(|i| ((i % 7) as f64 - 3.0) * 1e-4).collect();
    let dense_x = jac
        .lu()
        .expect("dense factorization")
        .solve(&rhs)
        .expect("dense solve");

    let sparse = CsrMatrix::from_dense(&jac, 0.0).expect("sparse conversion");
    // The ladder Jacobian is extremely sparse: ~3 entries per row.
    assert!(
        sparse.nnz() < 6 * n,
        "nnz {} too dense for a ladder of {} unknowns",
        sparse.nnz(),
        n
    );
    let mut lu = SparseLu::new(&sparse).expect("sparse factorization");
    // The fill-reducing ordering must keep a (near-)tridiagonal system
    // (near-)fill-free; anything superlinear would defeat the point.
    assert!(
        lu.factor_nnz() < 2 * sparse.nnz() + n,
        "fill-in exploded: L+U holds {} nonzeros for {} structural",
        lu.factor_nnz(),
        sparse.nnz()
    );
    let mut sparse_x = Vector::zeros(n);
    lu.solve_into(&rhs, &mut sparse_x).expect("sparse solve");
    let dev = sparse_x.sub(&dense_x).norm_inf() / dense_x.norm_inf().max(1e-300);
    assert!(dev < 1e-8, "sparse vs dense relative deviation {dev:.2e}");

    // Value-only refactor at a different step size must track the dense
    // solve just as closely.
    let mut jac2 = stamps.c.scale(1.0 / (2.0 * dt));
    jac2.axpy(1.0, &stamps.g)
        .expect("C and G share the MNA shape");
    let sparse2 = CsrMatrix::from_dense(&jac2, 0.0).expect("sparse conversion");
    lu.refactor(&sparse2).expect("refactor");
    lu.solve_into(&rhs, &mut sparse_x).expect("sparse solve");
    let dense_x2 = jac2.lu().unwrap().solve(&rhs).unwrap();
    let dev2 = sparse_x.sub(&dense_x2).norm_inf() / dense_x2.norm_inf().max(1e-300);
    assert!(
        dev2 < 1e-8,
        "refactor vs dense relative deviation {dev2:.2e}"
    );
}

#[test]
fn ladder_transient_identical_on_dense_and_sparse_paths() {
    use shc::spice::transient::{TransientAnalysis, TransientOptions};
    let circuit = rc_ladder_vsrc(120);
    assert!(circuit.unknown_count() > 100);
    let run = |solver: SolverChoice| {
        let opts = TransientOptions::builder(2e-10)
            .dt(1e-12)
            .solver(solver)
            .build();
        TransientAnalysis::new(&circuit, opts)
            .run(&Params::default())
            .expect("transient")
    };
    let dense = run(SolverChoice::Dense);
    let sparse = run(SolverChoice::Sparse);
    assert_eq!(dense.stats().steps, sparse.stats().steps);
    let diff = dense.final_state().sub(sparse.final_state()).norm_inf();
    assert!(
        diff < 1e-9,
        "dense vs sparse final state differs by {diff:.2e}"
    );
    // Auto must pick the sparse path here (same result either way).
    let auto = run(SolverChoice::Auto);
    let diff_auto = auto.final_state().sub(sparse.final_state()).norm_inf();
    assert!(
        diff_auto < 1e-9,
        "auto vs sparse differs by {diff_auto:.2e}"
    );
}

#[test]
fn ladder_transient_behaves_like_a_delay_line() {
    use shc::spice::transient::{
        CrossingDirection, RecordMode, TransientAnalysis, TransientOptions,
    };
    // A shorter ladder, simulated end to end: the far end lags the near end.
    let circuit = rc_ladder_vsrc(40);
    let first = circuit.find_node("n0").unwrap().unknown().unwrap();
    let last = circuit.find_node("n39").unwrap().unknown().unwrap();
    let mut x0 = Vector::zeros(circuit.unknown_count());
    x0[circuit.find_node("in").unwrap().unknown().unwrap()] = 1.0;
    // Elmore delay of the full ladder ~ R·C·n²/2 ≈ 80 ps: simulate 0.5 ns.
    let opts = TransientOptions::builder(5e-10)
        .dt(5e-13)
        .initial(shc::spice::transient::InitialCondition::Given(x0))
        .build();
    let res = TransientAnalysis::new(&circuit, opts)
        .run(&Params::default())
        .expect("transient");
    let t_first = res
        .crossing_time(first, 0.5, 0.0, CrossingDirection::Rising)
        .expect("near end rises");
    let t_last = res
        .crossing_time(last, 0.5, 0.0, CrossingDirection::Rising)
        .expect("far end rises");
    assert!(
        t_last > 3.0 * t_first,
        "far end should lag: {:.2e} vs {:.2e}",
        t_last,
        t_first
    );
    let _ = RecordMode::Full;
}
