//! Spectral convergence of the Poisson/Helmholtz solves — the core
//! accuracy property of the SEM discretization (paper §4.2).

use rbx::comm::SingleComm;
use rbx::gs::GatherScatter;
use rbx::la::bc::dirichlet_mask;
use rbx::la::helmholtz::{HelmholtzOp, HelmholtzScratch};
use rbx::la::jacobi::{assembled_diagonal, jacobi_apply};
use rbx::la::krylov::pcg;
use rbx::la::ops::{hadamard, DotProduct, ElemLayout};
use rbx::mesh::generators::box_mesh;
use rbx::mesh::{BoundaryTag, GeomFactors};
use std::f64::consts::PI;
use std::sync::Arc;

const ALL: [BoundaryTag; 3] = [
    BoundaryTag::Wall,
    BoundaryTag::HotWall,
    BoundaryTag::ColdWall,
];

/// The inner product over a whole mesh held by one rank.
fn whole_mesh_dp(mult: &[f64], geom: &GeomFactors) -> DotProduct {
    let nel = geom.nelv;
    let layout = ElemLayout::new(geom.nodes_per_element(), (0..nel).collect(), nel);
    DotProduct::with_layout(mult, Arc::new(layout))
}

/// Solve −∇²u = 3π²·sin(πx)sin(πy)sin(πz) with homogeneous Dirichlet BCs
/// and return the max nodal error.
fn poisson_error(order: usize) -> f64 {
    let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
    let comm = SingleComm::new();
    let part = vec![0; mesh.num_elements()];
    let my: Vec<usize> = (0..mesh.num_elements()).collect();
    let geom = GeomFactors::new(&mesh, order);
    let gs = GatherScatter::build(&mesh, order, &part, &my, &comm);
    let mask = dirichlet_mask(&mesh, order, &my, &ALL, &gs, &comm);
    let mult = gs.multiplicity(&comm);
    let dp = whole_mesh_dp(&mult, &geom);
    let op = HelmholtzOp {
        geom: &geom,
        gs: &gs,
        mask: &mask,
        h1: 1.0,
        h2: 0.0,
    };
    let diag = assembled_diagonal(&geom, &gs, 1.0, 0.0, &comm);

    let n = geom.total_nodes();
    let exact: Vec<f64> = (0..n)
        .map(|i| {
            (PI * geom.coords[0][i]).sin()
                * (PI * geom.coords[1][i]).sin()
                * (PI * geom.coords[2][i]).sin()
        })
        .collect();
    // Weak rhs: B·f, assembled and masked.
    let mut rhs: Vec<f64> = (0..n)
        .map(|i| geom.mass[i] * 3.0 * PI * PI * exact[i])
        .collect();
    gs.apply(&mut rhs, rbx::gs::GsOp::Add, &comm);
    hadamard(&mask, &mut rhs);

    let mut x = vec![0.0; n];
    let mut scratch = HelmholtzScratch::default();
    let stats = pcg(
        |p, ap| op.apply(p, ap, &mut scratch, &comm),
        |r, z| jacobi_apply(&diag, &mask, r, z),
        |a, b| dp.dot(a, b, &comm),
        &rhs,
        &mut x,
        1e-12,
        0.0,
        2000,
    );
    assert!(stats.converged, "order {order}: {stats:?}");
    x.iter()
        .zip(&exact)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[test]
fn poisson_error_decays_spectrally() {
    let e3 = poisson_error(3);
    let e5 = poisson_error(5);
    let e7 = poisson_error(7);
    // Each +2 in order should gain well over an order of magnitude on a
    // smooth solution.
    assert!(e5 < e3 / 20.0, "e3 = {e3:.3e}, e5 = {e5:.3e}");
    assert!(e7 < e5 / 20.0, "e5 = {e5:.3e}, e7 = {e7:.3e}");
    assert!(e7 < 1e-6, "degree-7 error {e7:.3e}");
}

#[test]
fn helmholtz_manufactured_solution() {
    // (−∇² + λ)u = f with λ = 5: same manufactured solution, shifted rhs.
    let order = 6;
    let lambda = 5.0;
    let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
    let comm = SingleComm::new();
    let part = vec![0; mesh.num_elements()];
    let my: Vec<usize> = (0..mesh.num_elements()).collect();
    let geom = GeomFactors::new(&mesh, order);
    let gs = GatherScatter::build(&mesh, order, &part, &my, &comm);
    let mask = dirichlet_mask(&mesh, order, &my, &ALL, &gs, &comm);
    let mult = gs.multiplicity(&comm);
    let dp = whole_mesh_dp(&mult, &geom);
    // H = λB + A: h1 = 1 (stiffness), h2 = λ (mass).
    let op = HelmholtzOp {
        geom: &geom,
        gs: &gs,
        mask: &mask,
        h1: 1.0,
        h2: lambda,
    };
    let diag = assembled_diagonal(&geom, &gs, 1.0, lambda, &comm);

    let n = geom.total_nodes();
    let exact: Vec<f64> = (0..n)
        .map(|i| {
            (PI * geom.coords[0][i]).sin()
                * (2.0 * PI * geom.coords[1][i]).sin()
                * (PI * geom.coords[2][i]).sin()
        })
        .collect();
    let coef = 6.0 * PI * PI + lambda; // (π² + 4π² + π²) + λ
    let mut rhs: Vec<f64> = (0..n).map(|i| geom.mass[i] * coef * exact[i]).collect();
    gs.apply(&mut rhs, rbx::gs::GsOp::Add, &comm);
    hadamard(&mask, &mut rhs);

    let mut x = vec![0.0; n];
    let mut scratch = HelmholtzScratch::default();
    let stats = pcg(
        |p, ap| op.apply(p, ap, &mut scratch, &comm),
        |r, z| jacobi_apply(&diag, &mask, r, z),
        |a, b| dp.dot(a, b, &comm),
        &rhs,
        &mut x,
        1e-12,
        0.0,
        2000,
    );
    assert!(stats.converged);
    let err = x
        .iter()
        .zip(&exact)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(err < 1e-4, "Helmholtz error {err:.3e}");
}

#[test]
fn poisson_on_curved_cylinder_mesh() {
    // Solve on the o-grid cylinder: manufactured solution vanishing on all
    // walls: u = (R² − r²)·sin(πz), with the corresponding rhs.
    use rbx::mesh::cylinder::{cylinder_mesh, CylinderParams};
    let order = 7;
    let radius = 0.5f64;
    let mesh = cylinder_mesh(CylinderParams {
        radius,
        height: 1.0,
        n_square: 2,
        n_rings: 2,
        n_z: 2,
        beta_z: 0.0,
    });
    let comm = SingleComm::new();
    let part = vec![0; mesh.num_elements()];
    let my: Vec<usize> = (0..mesh.num_elements()).collect();
    let geom = GeomFactors::new(&mesh, order);
    let gs = GatherScatter::build(&mesh, order, &part, &my, &comm);
    let mask = dirichlet_mask(&mesh, order, &my, &ALL, &gs, &comm);
    let mult = gs.multiplicity(&comm);
    let dp = whole_mesh_dp(&mult, &geom);
    let op = HelmholtzOp {
        geom: &geom,
        gs: &gs,
        mask: &mask,
        h1: 1.0,
        h2: 0.0,
    };
    let diag = assembled_diagonal(&geom, &gs, 1.0, 0.0, &comm);

    let n = geom.total_nodes();
    let exact: Vec<f64> = (0..n)
        .map(|i| {
            let (x, y, z) = (geom.coords[0][i], geom.coords[1][i], geom.coords[2][i]);
            (radius * radius - x * x - y * y) * (PI * z).sin()
        })
        .collect();
    // −∇²u = [4 + π²(R² − r²)]·sin(πz).
    let mut rhs: Vec<f64> = (0..n)
        .map(|i| {
            let (x, y, z) = (geom.coords[0][i], geom.coords[1][i], geom.coords[2][i]);
            let r2 = x * x + y * y;
            geom.mass[i] * (4.0 + PI * PI * (radius * radius - r2)) * (PI * z).sin()
        })
        .collect();
    gs.apply(&mut rhs, rbx::gs::GsOp::Add, &comm);
    hadamard(&mask, &mut rhs);

    let mut x = vec![0.0; n];
    let mut scratch = HelmholtzScratch::default();
    let stats = pcg(
        |p, ap| op.apply(p, ap, &mut scratch, &comm),
        |r, z| jacobi_apply(&diag, &mask, r, z),
        |a, b| dp.dot(a, b, &comm),
        &rhs,
        &mut x,
        1e-12,
        0.0,
        4000,
    );
    assert!(stats.converged, "{stats:?}");
    let err = x
        .iter()
        .zip(&exact)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    // Curved geometry: spectral accuracy limited by the o-grid blending,
    // but degree 7 must be well below 1e-3 on this smooth solution.
    assert!(err < 1e-3, "cylinder Poisson error {err:.3e}");
}
