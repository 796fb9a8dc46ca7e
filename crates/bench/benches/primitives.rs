//! Microbenchmarks of the numerical primitives underneath every transient
//! step: MNA assembly, LU factorization + solve, one DC operating point,
//! and one full h-evaluation transient. Useful for tracking regressions in
//! the per-simulation cost that all speedup ratios are built on.

use criterion::{criterion_group, criterion_main, Criterion};
use shc_bench::{Cell, Timing};
use shc_core::CharacterizationProblem;
use shc_linalg::Vector;
use shc_spice::dcop::{self, DcOptions};
use shc_spice::stamp::Stamps;
use shc_spice::waveform::Params;

fn bench_primitives(c: &mut Criterion) {
    let register = Cell::Tspc.register(Timing::Fast);
    let circuit = register.circuit();
    let n = circuit.unknown_count();
    let params = Params::new(300e-12, 200e-12);
    let x = Vector::filled(n, 1.0);

    let mut group = c.benchmark_group("primitives");

    group.bench_function("mna_assemble", |b| {
        let mut ws = Stamps::new(n);
        b.iter(|| circuit.assemble_into(&mut ws, &x, 3.3e-9, &params, 1.0))
    });

    group.bench_function("lu_factor_solve", |b| {
        let stamps = circuit.assemble(&x, 3.3e-9, &params, 1.0);
        let mut jac = stamps.c.scale(1.0 / 4e-12);
        jac.axpy(1.0, &stamps.g)
            .expect("C and G share the MNA shape");
        let rhs = Vector::filled(n, 1e-3);
        b.iter(|| {
            let lu = jac.lu().expect("factorizes");
            lu.solve(&rhs).expect("solves")
        })
    });

    group.bench_function("dc_operating_point", |b| {
        b.iter(|| dcop::solve_dc(circuit, &params, &DcOptions::default()).expect("solves"))
    });

    group.sample_size(10);
    group.bench_function("full_h_evaluation", |b| {
        let problem = CharacterizationProblem::builder(Cell::Tspc.register(Timing::Fast))
            .build()
            .expect("problem");
        b.iter(|| problem.evaluate(&params).expect("simulates"))
    });

    group.finish();
}

criterion_group!(benches, bench_primitives);
criterion_main!(benches);
