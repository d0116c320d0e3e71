//! Criterion microbenchmarks of the solver's hot kernels: tensor-product
//! operator apply, gather-scatter, and the Schwarz preconditioner in both
//! execution modes (the Fig. 2 comparison as a statistical benchmark).

use criterion::{criterion_group, criterion_main, Criterion};
use rbx::comm::SingleComm;
use rbx::gs::{GatherScatter, GsOp};
use rbx::la::bc::dirichlet_mask;
use rbx::la::helmholtz::{HelmholtzOp, HelmholtzScratch};
use rbx::la::ops::hadamard;
use rbx::la::{CoarseGrid, ElementFdm, SchwarzMg, SchwarzMode};
use rbx::mesh::generators::box_mesh;
use rbx::mesh::{BoundaryTag, GeomFactors};
use std::hint::black_box;
use std::sync::Arc;

const ALL: [BoundaryTag; 3] = [
    BoundaryTag::Wall,
    BoundaryTag::HotWall,
    BoundaryTag::ColdWall,
];

struct Fixture {
    geom: GeomFactors,
    gs: Arc<GatherScatter>,
    mask: Vec<f64>,
    comm: SingleComm,
    schwarz: SchwarzMg,
    u: Vec<f64>,
}

fn fixture(p: usize, nx: usize) -> Fixture {
    let mesh = box_mesh(nx, nx, nx, [0., 1.], [0., 1.], [0., 1.], false, false);
    let comm = SingleComm::new();
    let part = vec![0; mesh.num_elements()];
    let my: Vec<usize> = (0..mesh.num_elements()).collect();
    let geom = GeomFactors::new(&mesh, p);
    let gs = Arc::new(GatherScatter::build(&mesh, p, &part, &my, &comm));
    let mask = dirichlet_mask(&mesh, p, &my, &ALL, &gs, &comm);
    let mult = gs.multiplicity(&comm);
    let fdm = ElementFdm::new(&geom);
    let coarse = CoarseGrid::build(&mesh, p, 1, &part, &my, &[], &comm);
    let schwarz = SchwarzMg::new(
        fdm,
        coarse,
        gs.clone(),
        &mult,
        vec![1.0; geom.total_nodes()],
        &rbx::device::WorkerPool::new(1),
    );
    let n = geom.total_nodes();
    let mut u: Vec<f64> = (0..n).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    gs.apply(&mut u, GsOp::Add, &comm);
    Fixture {
        geom,
        gs,
        mask,
        comm,
        schwarz,
        u,
    }
}

fn bench_operator_apply(c: &mut Criterion) {
    // Paper production order: 7.
    let f = fixture(7, 3);
    let op = HelmholtzOp {
        geom: &f.geom,
        gs: &f.gs,
        mask: &f.mask,
        h1: 1.0,
        h2: 0.5,
    };
    let mut y = vec![0.0; f.u.len()];
    let mut scratch = HelmholtzScratch::default();
    c.bench_function("helmholtz_apply_p7_27elem", |b| {
        b.iter(|| {
            op.apply(black_box(&f.u), &mut y, &mut scratch, &f.comm);
            black_box(&y);
        })
    });
}

fn bench_operator_apply_pooled(c: &mut Criterion) {
    // Backend-parallel element loop; informative on multi-core hosts
    // (bitwise identical to the serial path by construction).
    let f = fixture(7, 3);
    let op = HelmholtzOp {
        geom: &f.geom,
        gs: &f.gs,
        mask: &f.mask,
        h1: 1.0,
        h2: 0.5,
    };
    let mut y = vec![0.0; f.u.len()];
    let pool = rbx::device::WorkerPool::auto();
    c.bench_function("helmholtz_apply_local_pooled_p7_27elem", |b| {
        b.iter(|| {
            op.apply_local_with(black_box(&f.u), &mut y, &pool);
            black_box(&y);
        })
    });
}

fn bench_gather_scatter(c: &mut Criterion) {
    let f = fixture(7, 3);
    let mut u = f.u.clone();
    c.bench_function("gather_scatter_add_p7_27elem", |b| {
        b.iter(|| {
            f.gs.apply(black_box(&mut u), GsOp::Add, &f.comm);
        })
    });
}

fn bench_schwarz_modes(c: &mut Criterion) {
    let f = fixture(7, 3);
    let mut r = f.u.clone();
    hadamard(&f.mask, &mut r);
    let mut z = vec![0.0; r.len()];
    let mut group = c.benchmark_group("schwarz_apply_p7_27elem");
    group.bench_function("serial", |b| {
        b.iter(|| {
            f.schwarz
                .apply(black_box(&r), &mut z, SchwarzMode::Serial, &f.comm);
            black_box(&z);
        })
    });
    group.bench_function("overlapped", |b| {
        b.iter(|| {
            f.schwarz
                .apply(black_box(&r), &mut z, SchwarzMode::Overlapped, &f.comm);
            black_box(&z);
        })
    });
    group.finish();
}

fn bench_fdm_sweep(c: &mut Criterion) {
    let f = fixture(7, 3);
    let fdm = ElementFdm::new(&f.geom);
    let mut z = vec![0.0; f.u.len()];
    c.bench_function("fdm_local_solves_p7_27elem", |b| {
        b.iter(|| {
            z.fill(0.0);
            fdm.apply_add(black_box(&f.u), &mut z, 1.0, 0.0);
            black_box(&z);
        })
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(4));
    targets = bench_operator_apply, bench_operator_apply_pooled, bench_gather_scatter, bench_schwarz_modes, bench_fdm_sweep
}
criterion_main!(kernels);
