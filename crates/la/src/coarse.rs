//! Coarse-grid level of the hybrid Schwarz preconditioner.
//!
//! The paper (§5.3) solves the coarse problem `A₀` on *linear elements*
//! with "an approximate Krylov solver, a preconditioned Conjugate Gradient
//! method, with a fixed number of iterations (≈10)". This module keeps the
//! paper's transfer operators — the same mesh at a low polynomial degree,
//! its own gather-scatter, restriction and prolongation between the fine
//! GLL lattice and the coarse nodes — but solves `A₀` exactly, the way the
//! Nek family's XXT coarse solver does (NekRS, arXiv:2104.05829):
//!
//! * at set-up every rank assembles the same global coarse matrix from the
//!   global mesh, in global-element order, so no set-up communication is
//!   needed, and factors it once with a sparse Cholesky under a
//!   nested-dissection ordering ([`crate::cholesky`]);
//! * each apply restricts, assembles the coarse residual with the coarse
//!   gather-scatter, has the owner of each global node write it into a
//!   global vector (every other rank writes zeros, so the sum is exact),
//!   sums that vector with **one** allreduce, runs the forward and back
//!   substitutions on the replicated vector, and prolongs.
//!
//! Every rank then holds the same global solution bits whatever the rank
//! count. The pure-Neumann pressure problem pins one node and removes the
//! constant mode by local arithmetic on the replicated vector.

use crate::cholesky::{nested_dissection, SparseCholesky, UpperCsc};
use crate::ops::hadamard;
use rbx_basis::tensor::{tensor_apply3, TensorScratch};
use rbx_basis::{gll, interp_matrix, DMat};
use rbx_comm::Communicator;
use rbx_gs::{global_numbering, GatherScatter};
use rbx_mesh::topology::face_to_volume;
use rbx_mesh::{BoundaryTag, GeomFactors, HexMesh};
use rbx_telemetry::Telemetry;
use std::cell::RefCell;
use std::time::Instant;

/// Buffers of one coarse correction, reused across applies. They live in
/// a thread-local, not in the `CoarseGrid`, because the overlapped
/// Schwarz mode runs the correction on the pool's `pair()` helper thread.
/// All are coarse- or element-sized, far below a field.
#[derive(Default)]
struct CoarseScratch {
    rc: Vec<f64>,
    zc: Vec<f64>,
    global: Vec<f64>,
    elem: Vec<f64>,
    ts: TensorScratch,
}

thread_local! {
    static SCRATCH: RefCell<CoarseScratch> = RefCell::new(CoarseScratch::default());
}

/// The coarse problem, factored once and solved exactly.
pub struct CoarseGrid {
    /// Coarse gather-scatter.
    pub gs: GatherScatter,
    /// Coarse Dirichlet mask (all ones for the pure-Neumann pressure case).
    pub mask: Vec<f64>,
    /// Global node id of each local coarse node. Ids are positions in the
    /// elimination order of `factor`.
    gid: Vec<usize>,
    /// `(local node, global id)` of the local nodes that own their global
    /// node: the first instance of it in global (element, node) order.
    owned: Vec<(usize, usize)>,
    /// Cholesky factor of the global coarse matrix. Dirichlet nodes and
    /// the Neumann pin are identity rows.
    factor: SparseCholesky,
    /// Weights of the zero-mean condition on the solution (Neumann case
    /// only): per global node, the element masses of its instances, each
    /// divided by the instance count — the mass × inverse-multiplicity
    /// weighting of the fine level's mean projection.
    mass: Vec<f64>,
    /// Prolongation: coarse nodes → fine GLL nodes (per dimension,
    /// `n_fine × n_coarse`).
    j_up: DMat,
    /// Restriction = prolongationᵀ (`n_coarse × n_fine`).
    j_down: DMat,
    /// Pure-Neumann problem (project out the constant null space).
    pub neumann: bool,
    nelv: usize,
    fine_n: usize,
    coarse_n: usize,
    /// Wall time of the global set-up: numbering, ordering, assembly and
    /// factorisation.
    setup_s: f64,
    /// Observability handle (disabled by default; a single atomic load
    /// per stage when off).
    tel: Telemetry,
}

/// Add the upper triangle (`i ≤ j`) of the stiffness matrix of element
/// `e` to `ke` (row-major `nn × nn`): `ke[i][j] = Σ_q ∇̂φᵢ(q)·G(q)·∇̂φⱼ(q)`,
/// the element part of the `h₁ = 1, h₂ = 0` Helmholtz operator on `geom`.
/// Only `3n − 2` basis functions have a nonzero reference gradient at a
/// GLL node `q` (those on the three lattice lines through it), so each
/// node costs `(3n − 2)²/2` small products instead of `nn²`.
fn element_stiffness(
    geom: &GeomFactors,
    e: usize,
    ke: &mut [f64],
    grads: &mut Vec<(usize, [f64; 3])>,
) {
    let n = geom.nx1;
    let nn = n * n * n;
    let d = geom.d.matrix();
    for q in 0..nn {
        let (qx, qy, qz) = (q % n, (q / n) % n, q / (n * n));
        let at = e * nn + q;
        let g = [
            [geom.g[0][at], geom.g[1][at], geom.g[2][at]],
            [geom.g[1][at], geom.g[3][at], geom.g[4][at]],
            [geom.g[2][at], geom.g[4][at], geom.g[5][at]],
        ];
        // grads[a] is the x-line basis function a; q itself is grads[qx].
        grads.clear();
        for a in 0..n {
            grads.push((a + n * (qy + n * qz), [d[(qx, a)], 0.0, 0.0]));
        }
        for b in 0..n {
            if b == qy {
                grads[qx].1[1] = d[(qy, b)];
            } else {
                grads.push((qx + n * (b + n * qz), [0.0, d[(qy, b)], 0.0]));
            }
        }
        for c in 0..n {
            if c == qz {
                grads[qx].1[2] = d[(qz, c)];
            } else {
                grads.push((qx + n * (qy + n * c), [0.0, 0.0, d[(qz, c)]]));
            }
        }
        for (a, &(i, gi)) in grads.iter().enumerate() {
            let w = [
                g[0][0] * gi[0] + g[0][1] * gi[1] + g[0][2] * gi[2],
                g[1][0] * gi[0] + g[1][1] * gi[1] + g[1][2] * gi[2],
                g[2][0] * gi[0] + g[2][1] * gi[1] + g[2][2] * gi[2],
            ];
            for &(j, gj) in &grads[a..] {
                ke[i.min(j) * nn + i.max(j)] += gj[0] * w[0] + gj[1] * w[1] + gj[2] * w[2];
            }
        }
    }
}

/// Assemble the upper triangle of the global coarse matrix in elimination
/// order. `ids` maps every global (element, node) to its position; rows
/// and columns with `fixed` set become identity rows. Contributions to an
/// entry are summed in global element order, so the matrix bits are a
/// function of the mesh alone.
fn assemble(geom: &GeomFactors, ids: &[usize], fixed: &[bool]) -> UpperCsc {
    let n = fixed.len();
    let nn = geom.nodes_per_element();
    let mut ke = vec![0.0; nn * nn];
    let mut grads = Vec::new();
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    for e in 0..geom.nelv {
        ke.fill(0.0);
        element_stiffness(geom, e, &mut ke, &mut grads);
        let pos = &ids[e * nn..(e + 1) * nn];
        for i in 0..nn {
            if fixed[pos[i]] {
                continue;
            }
            for j in i..nn {
                let v = ke[i * nn + j];
                if v != 0.0 && !fixed[pos[j]] {
                    triplets.push((pos[i].min(pos[j]), pos[i].max(pos[j]), v));
                }
            }
        }
    }
    for (k, _) in fixed.iter().enumerate().filter(|(_, f)| **f) {
        triplets.push((k, k, 1.0));
    }

    // Bucket by column, keeping generation order, then merge duplicates.
    let mut start = vec![0usize; n + 1];
    for &(_, c, _) in &triplets {
        start[c + 1] += 1;
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    let mut fill = start.clone();
    let mut bucket = vec![(0, 0.0); triplets.len()];
    for &(r, c, v) in &triplets {
        bucket[fill[c]] = (r, v);
        fill[c] += 1;
    }
    let mut colptr = Vec::with_capacity(n + 1);
    colptr.push(0);
    let mut rows = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut slot = vec![usize::MAX; n];
    for k in 0..n {
        let col_start = rows.len();
        for &(r, v) in &bucket[start[k]..start[k + 1]] {
            let s = slot[r];
            if s != usize::MAX && s >= col_start {
                vals[s] += v;
            } else {
                slot[r] = rows.len();
                rows.push(r);
                vals.push(v);
            }
        }
        colptr.push(rows.len());
    }
    UpperCsc {
        n,
        colptr,
        rows,
        vals,
    }
}

impl CoarseGrid {
    /// Build the degree-`coarse_p` coarse level for this rank's elements
    /// (1 is the paper's linear elements; its Eq. 3 is stated "for a
    /// general k-level formulation", and a higher degree gives a richer
    /// coarse space and a larger factor).
    ///
    /// `dirichlet_tags` lists the boundary tags that impose Dirichlet
    /// conditions on the *solved variable*; pass an empty slice for the
    /// pure-Neumann pressure Poisson problem (sets `neumann = true`).
    ///
    /// # Panics
    /// Panics unless `1 ≤ coarse_p < fine_p`, and if the coarse matrix is
    /// not positive definite (a mesh in several disconnected pieces).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        mesh: &HexMesh,
        fine_p: usize,
        coarse_p: usize,
        part: &[usize],
        my_elems: &[usize],
        dirichlet_tags: &[BoundaryTag],
        comm: &dyn Communicator,
    ) -> Self {
        assert!(
            coarse_p >= 1 && coarse_p < fine_p,
            "need 1 <= coarse_p < fine_p"
        );
        let gs = GatherScatter::build(mesh, coarse_p, part, my_elems, comm);
        let t0 = Instant::now();
        let nc = coarse_p + 1;
        let nnc = nc * nc * nc;
        let neumann = dirichlet_tags.is_empty();

        // Global numbering, renumbered into nested-dissection order.
        let (first_ids, n_global) = global_numbering(mesh, coarse_p);
        let centroids: Vec<[f64; 3]> = (0..mesh.num_elements()).map(|e| mesh.centroid(e)).collect();
        let order = nested_dissection(&centroids, &first_ids, nnc, n_global);
        let mut pos = vec![0; n_global];
        for (k, &v) in order.iter().enumerate() {
            pos[v] = k;
        }
        let ids: Vec<usize> = first_ids.iter().map(|&v| pos[v]).collect();

        // Dirichlet nodes from the boundary tags of every element; the
        // Neumann problem pins the node eliminated last instead.
        let mut fixed = vec![false; n_global];
        for ge in 0..mesh.num_elements() {
            for f in 0..6 {
                if dirichlet_tags.contains(&mesh.face_tags[ge][f]) {
                    for b in 0..nc {
                        for a in 0..nc {
                            let (i, j, k) = face_to_volume(f, a, b, coarse_p);
                            fixed[ids[ge * nnc + i + nc * (j + nc * k)]] = true;
                        }
                    }
                }
            }
        }
        let dirichlet = fixed.clone();
        if neumann {
            fixed[n_global - 1] = true;
        }

        let geom = GeomFactors::new(mesh, coarse_p);
        let factor = SparseCholesky::factor(&assemble(&geom, &ids, &fixed))
            .unwrap_or_else(|k| panic!("coarse matrix not positive definite at pivot {k}"));
        let mut mass = Vec::new();
        if neumann {
            let mut mult = vec![0.0; n_global];
            for &g in &ids {
                mult[g] += 1.0;
            }
            mass = vec![0.0; n_global];
            for (&g, &b) in ids.iter().zip(&geom.mass) {
                mass[g] += b / mult[g];
            }
        }

        // This rank's view: global id per local node, the nodes it owns
        // (first instance in global order), and the Dirichlet mask.
        let mut first = vec![usize::MAX; n_global];
        for (at, &g) in ids.iter().enumerate() {
            if first[g] == usize::MAX {
                first[g] = at;
            }
        }
        let mut gid = Vec::with_capacity(my_elems.len() * nnc);
        let mut owned = Vec::new();
        for (le, &ge) in my_elems.iter().enumerate() {
            for i in 0..nnc {
                let g = ids[ge * nnc + i];
                if first[g] == ge * nnc + i {
                    owned.push((le * nnc + i, g));
                }
                gid.push(g);
            }
        }
        let mask = gid
            .iter()
            .map(|&g| if dirichlet[g] { 0.0 } else { 1.0 })
            .collect();
        let setup_s = t0.elapsed().as_secs_f64();

        let fine_pts = gll(fine_p + 1).points;
        let coarse_pts = gll(nc).points;
        let j_up = interp_matrix(&coarse_pts, &fine_pts);
        let j_down = j_up.transpose();

        Self {
            gs,
            mask,
            gid,
            owned,
            factor,
            mass,
            j_up,
            j_down,
            neumann,
            nelv: my_elems.len(),
            fine_n: fine_p + 1,
            coarse_n: nc,
            setup_s,
            tel: Telemetry::disabled(),
        }
    }

    /// Share a telemetry handle; the coarse correction then records the
    /// `schwarz/coarse/{restrict,solve,prolong}` spans, and the set-up that
    /// ran before the handle was attached is recorded once as
    /// `coarse/factor`.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.tel.record_span("coarse/factor", self.setup_s);
    }

    /// Coarse dof count (local, duplicated storage): `nelv · (pc+1)³`.
    pub fn len(&self) -> usize {
        self.nelv * self.coarse_n.pow(3)
    }

    /// True when the rank owns no elements.
    pub fn is_empty(&self) -> bool {
        self.nelv == 0
    }

    /// Restrict a (1/mult-weighted) fine residual to the coarse space:
    /// `r₀ = R₀ r`, assembled on the coarse level.
    pub fn restrict(
        &self,
        r_weighted: &[f64],
        r_coarse: &mut [f64],
        scratch: &mut TensorScratch,
        comm: &dyn Communicator,
    ) {
        let nf = self.fine_n;
        let nnf = nf * nf * nf;
        let nc = self.coarse_n;
        let nnc = nc * nc * nc;
        debug_assert_eq!(r_weighted.len(), self.nelv * nnf);
        debug_assert_eq!(r_coarse.len(), self.nelv * nnc);
        for e in 0..self.nelv {
            let rin = &r_weighted[e * nnf..(e + 1) * nnf];
            let rout = &mut r_coarse[e * nnc..(e + 1) * nnc];
            tensor_apply3(&self.j_down, &self.j_down, &self.j_down, rin, rout, scratch);
        }
        self.gs.apply(r_coarse, rbx_gs::GsOp::Add, comm);
        hadamard(&self.mask, r_coarse);
    }

    /// Prolongate a coarse correction to the fine lattice and add:
    /// `z += R₀ᵀ z₀`.
    pub fn prolong_add(&self, z_coarse: &[f64], z_fine: &mut [f64], scratch: &mut TensorScratch) {
        SCRATCH.with(|cell| {
            let elem = &mut cell.borrow_mut().elem;
            self.prolong_add_in(z_coarse, z_fine, scratch, elem);
        });
    }

    /// [`CoarseGrid::prolong_add`] with the element buffer passed in.
    fn prolong_add_in(
        &self,
        z_coarse: &[f64],
        z_fine: &mut [f64],
        scratch: &mut TensorScratch,
        elem: &mut Vec<f64>,
    ) {
        let nf = self.fine_n;
        let nnf = nf * nf * nf;
        let nc = self.coarse_n;
        let nnc = nc * nc * nc;
        elem.resize(nnf, 0.0);
        for e in 0..self.nelv {
            let zin = &z_coarse[e * nnc..(e + 1) * nnc];
            tensor_apply3(&self.j_up, &self.j_up, &self.j_up, zin, elem, scratch);
            for (zf, b) in z_fine[e * nnf..(e + 1) * nnf].iter_mut().zip(elem.iter()) {
                *zf += b;
            }
        }
    }

    /// Solve `A₀ z₀ = r₀` exactly for an assembled, masked coarse residual
    /// `r₀` (the output of [`CoarseGrid::restrict`]); `z₀` is overwritten.
    /// Collective: one allreduce of the global coarse vector.
    pub fn solve(&self, r_coarse: &[f64], z_coarse: &mut [f64], comm: &dyn Communicator) {
        SCRATCH.with(|cell| {
            let global = &mut cell.borrow_mut().global;
            self.solve_in(r_coarse, z_coarse, global, comm);
        });
    }

    /// [`CoarseGrid::solve`] with the global vector passed in.
    fn solve_in(
        &self,
        r_coarse: &[f64],
        z_coarse: &mut [f64],
        x: &mut Vec<f64>,
        comm: &dyn Communicator,
    ) {
        let n = self.factor.n();
        x.clear();
        x.resize(n, 0.0);
        // Owner writes, everyone else contributes +0.0: each slot of the
        // sum is `v + 0 + … + 0`, which is `v` exactly (the `+ 0.0` turns
        // a -0.0 into +0.0 on one rank as it would on several).
        for &(l, g) in &self.owned {
            x[g] = r_coarse[l] + 0.0;
        }
        comm.allreduce_sum(x);
        if self.neumann {
            // Solvability of the singular Neumann system: the right-hand
            // side must sum to zero over the global nodes. The pinned
            // node's equation is then implied by the others.
            let mean = x.iter().sum::<f64>() / n as f64;
            for v in x.iter_mut() {
                *v -= mean;
            }
            x[n - 1] = 0.0;
        }
        self.factor.solve_in_place(x);
        if self.neumann {
            // The mass-weighted zero-mean member of the solution family.
            let (mut sx, mut sb) = (0.0, 0.0);
            for (v, b) in x.iter().zip(&self.mass) {
                sx += v * b;
                sb += b;
            }
            let mean = sx / sb;
            for v in x.iter_mut() {
                *v -= mean;
            }
        }
        for (z, &g) in z_coarse.iter_mut().zip(&self.gid) {
            *z = x[g];
        }
    }

    /// Full coarse correction `z += R₀ᵀ A₀⁻¹ R₀ r` from a weighted fine
    /// residual.
    pub fn correct_add(&self, r_weighted: &[f64], z_fine: &mut [f64], comm: &dyn Communicator) {
        SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.rc.resize(self.len(), 0.0);
            s.zc.resize(self.len(), 0.0);
            // Absolute span paths: the overlapped Schwarz mode runs this on a
            // helper thread, and both modes must produce identical trees.
            {
                let _g = self.tel.span_abs("schwarz/coarse/restrict");
                self.restrict(r_weighted, &mut s.rc, &mut s.ts, comm);
            }
            {
                let _g = self.tel.span_abs("schwarz/coarse/solve");
                self.solve_in(&s.rc, &mut s.zc, &mut s.global, comm);
            }
            {
                let _g = self.tel.span_abs("schwarz/coarse/prolong");
                self.prolong_add_in(&s.zc, z_fine, &mut s.ts, &mut s.elem);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helmholtz::{HelmholtzOp, HelmholtzScratch};
    use crate::ops::{DotProduct, ElemLayout};
    use rbx_comm::{run_on_ranks, CommError, CommTuning, Payload, SingleComm};
    use rbx_mesh::generators::box_mesh;
    use rbx_mesh::partition::{part_elements, partition_rcb};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const WALLS: [BoundaryTag; 3] = [
        BoundaryTag::Wall,
        BoundaryTag::HotWall,
        BoundaryTag::ColdWall,
    ];

    fn single(
        mesh: &HexMesh,
        p: usize,
        pc: usize,
        tags: &[BoundaryTag],
    ) -> (CoarseGrid, SingleComm) {
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let cg = CoarseGrid::build(mesh, p, pc, &part, &my, tags, &comm);
        (cg, comm)
    }

    fn cube() -> HexMesh {
        box_mesh(3, 3, 3, [0., 1.], [0., 1.], [0., 1.], false, false)
    }

    /// ‖r₀ − A₀ z₀‖ / ‖r₀‖ for the coarse solve of a continuous, masked
    /// (and, for Neumann, mean-free) right-hand side, with `A₀` applied
    /// matrix-free by the Helmholtz operator on the coarse geometry.
    fn relative_residual(mesh: &HexMesh, pc: usize, tags: &[BoundaryTag]) -> f64 {
        let (cg, comm) = single(mesh, 5, pc, tags);
        let geom = GeomFactors::new(mesh, pc);
        let mult = cg.gs.multiplicity(&comm);
        let nel = geom.nelv;
        let layout = ElemLayout::new(geom.nodes_per_element(), (0..nel).collect(), nel);
        let dp = DotProduct::with_layout(&mult, Arc::new(layout));
        let mut rhs: Vec<f64> = (0..cg.len())
            .map(|i| ((i * 31 % 19) as f64) - 9.0)
            .collect();
        cg.gs.apply(&mut rhs, rbx_gs::GsOp::Add, &comm);
        hadamard(&cg.mask, &mut rhs);
        if cg.neumann {
            crate::ops::ortho_project_mean(&mut rhs, dp.weights(), dp.layout(), &comm);
        }
        let mut z = vec![0.0; cg.len()];
        cg.solve(&rhs, &mut z, &comm);
        let op = HelmholtzOp {
            geom: &geom,
            gs: &cg.gs,
            mask: &cg.mask,
            h1: 1.0,
            h2: 0.0,
        };
        let mut az = vec![0.0; cg.len()];
        op.apply(&z, &mut az, &mut HelmholtzScratch::default(), &comm);
        let res: Vec<f64> = rhs.iter().zip(&az).map(|(b, a)| b - a).collect();
        dp.norm(&res, &comm) / dp.norm(&rhs, &comm)
    }

    #[test]
    fn prolongation_of_linear_function_is_exact() {
        let p = 5;
        let mesh = cube();
        let (cg, _comm) = single(&mesh, p, 1, &WALLS);
        let coarse_geom = GeomFactors::new(&mesh, 1);
        let fine_geom = GeomFactors::new(&mesh, p);
        // Coarse nodal values of f = 2x - y + 3z.
        let f = |x: f64, y: f64, z: f64| 2.0 * x - y + 3.0 * z;
        let c = &coarse_geom.coords;
        let zc: Vec<f64> = (0..cg.len())
            .map(|i| f(c[0][i], c[1][i], c[2][i]))
            .collect();
        let mut zf = vec![0.0; fine_geom.total_nodes()];
        let mut scratch = TensorScratch::new();
        cg.prolong_add(&zc, &mut zf, &mut scratch);
        let x = &fine_geom.coords;
        for i in 0..zf.len() {
            let expect = f(x[0][i], x[1][i], x[2][i]);
            assert!((zf[i] - expect).abs() < 1e-11, "node {i}");
        }
    }

    #[test]
    fn restrict_is_adjoint_of_prolong() {
        // Use the Neumann (unmasked) coarse grid so the adjoint identity
        // holds without boundary-mask bookkeeping.
        let p = 4;
        let mesh = cube();
        let (cg, comm) = single(&mesh, p, 1, &[]);
        let nf = p + 1;
        let n_fine = mesh.num_elements() * nf * nf * nf;
        // ⟨R₀ r, z⟩_c (unique) must equal ⟨r, R₀ᵀ z⟩_f for a weighted
        // fine vector r and a continuous coarse vector z.
        let r: Vec<f64> = (0..n_fine).map(|i| ((i % 17) as f64) - 8.0).collect();
        let mut zc: Vec<f64> = (0..cg.len()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let multc = cg.gs.multiplicity(&comm);
        cg.gs.average(&mut zc, &multc, &comm);

        let mut rc = vec![0.0; cg.len()];
        let mut scratch = TensorScratch::new();
        cg.restrict(&r, &mut rc, &mut scratch, &comm);
        // Degree-1 coarse elements carry 2³ nodes.
        let nel = mesh.num_elements();
        let layout = Arc::new(ElemLayout::new(8, (0..nel).collect(), nel));
        let left = DotProduct::with_layout(&multc, layout).dot(&rc, &zc, &comm);

        // r is the weighted residual, so the plain local dot is the
        // consistent pairing on the fine side.
        let mut zf = vec![0.0; n_fine];
        cg.prolong_add(&zc, &mut zf, &mut scratch);
        let right: f64 = r.iter().zip(&zf).map(|(a, b)| a * b).sum();
        assert!(
            (left - right).abs() < 1e-9 * left.abs().max(1.0),
            "{left} vs {right}"
        );
    }

    #[test]
    fn coarse_solve_is_exact_on_dirichlet_grids() {
        for pc in [1, 2] {
            let res = relative_residual(&cube(), pc, &WALLS);
            assert!(res <= 1e-10, "degree {pc}: relative residual {res:e}");
        }
    }

    #[test]
    fn coarse_solve_is_exact_on_neumann_grids() {
        let curved = rbx_mesh::cylinder::cylinder_mesh(Default::default());
        for (mesh, pc) in [(cube(), 1), (cube(), 2), (curved, 2)] {
            let res = relative_residual(&mesh, pc, &[]);
            assert!(res <= 1e-10, "degree {pc}: relative residual {res:e}");
        }
    }

    #[test]
    fn neumann_coarse_solution_has_zero_mean() {
        let p = 3;
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let (cg, comm) = single(&mesh, p, 1, &[]);
        assert!(cg.neumann);
        let geom = GeomFactors::new(&mesh, 1);
        let mult = cg.gs.multiplicity(&comm);
        let mut rhs: Vec<f64> = (0..cg.len()).map(|i| (i as f64 * 0.37).sin()).collect();
        cg.gs.apply(&mut rhs, rbx_gs::GsOp::Add, &comm);
        let mut z = vec![0.0; cg.len()];
        cg.solve(&rhs, &mut z, &comm);
        let weighted: f64 = z
            .iter()
            .zip(&geom.mass)
            .zip(&mult)
            .map(|((a, b), m)| a * b / m)
            .sum();
        assert!(weighted.abs() < 1e-10, "mean not projected: {weighted}");
    }

    #[test]
    fn nested_dissection_keeps_the_factor_sparse() {
        // 4×4×4 elements at degree 2: 729 global nodes. The dense lower
        // triangle would hold 266 085 entries.
        let mesh = box_mesh(4, 4, 4, [0., 1.], [0., 1.], [0., 1.], false, false);
        let (cg, _comm) = single(&mesh, 7, 2, &[]);
        assert_eq!(cg.factor.n(), 729);
        assert!(cg.factor.nnz() < 60_000, "factor holds {}", cg.factor.nnz());
    }

    /// The global coarse residual of a fine residual given as a function of
    /// the global (element, node) index, on the elements in `my`.
    fn correction(
        mesh: &HexMesh,
        part: &[usize],
        my: &[usize],
        comm: &dyn Communicator,
    ) -> Vec<f64> {
        let p = 4;
        let nf = (p + 1) * (p + 1) * (p + 1);
        let cg = CoarseGrid::build(mesh, p, 2, part, my, &[], comm);
        let r: Vec<f64> = my
            .iter()
            .flat_map(|&ge| (0..nf).map(move |i| ((ge * nf + i) as f64 * 0.731).sin()))
            .collect();
        let mut z = vec![0.0; r.len()];
        cg.correct_add(&r, &mut z, comm);
        z
    }

    #[test]
    fn two_rank_correction_matches_one_rank_bitwise() {
        let mesh = box_mesh(4, 2, 2, [0., 2.], [0., 1.], [0., 1.], false, false);
        let all: Vec<usize> = (0..mesh.num_elements()).collect();
        let serial = correction(&mesh, &vec![0; all.len()], &all, &SingleComm::new());
        let nf = serial.len() / all.len();
        let part = partition_rcb(&mesh, 2);
        let lists = part_elements(&part, 2);
        let results = run_on_ranks(2, |comm| {
            let my = &lists[comm.rank()];
            (my.clone(), correction(&mesh, &part, my, comm))
        });
        for (my, z) in results {
            for (le, &ge) in my.iter().enumerate() {
                for i in 0..nf {
                    assert_eq!(
                        z[le * nf + i].to_bits(),
                        serial[ge * nf + i].to_bits(),
                        "element {ge} node {i}"
                    );
                }
            }
        }
    }

    /// Forwards to a communicator and counts its allreduces.
    struct CountingComm<'a> {
        inner: &'a dyn Communicator,
        allreduces: AtomicUsize,
    }

    impl CountingComm<'_> {
        fn counted(&self) {
            // ordering: a test-local tally read after the calls return.
            self.allreduces.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl Communicator for CountingComm<'_> {
        fn rank(&self) -> usize {
            self.inner.rank()
        }
        fn size(&self) -> usize {
            self.inner.size()
        }
        fn send(&self, dest: usize, tag: u64, payload: Payload) {
            self.inner.send(dest, tag, payload)
        }
        fn recv(&self, src: usize, tag: u64) -> Payload {
            self.inner.recv(src, tag)
        }
        fn recv_deadline(&self, src: usize, tag: u64, t: Duration) -> Result<Payload, CommError> {
            self.inner.recv_deadline(src, tag, t)
        }
        fn allreduce_sum(&self, x: &mut [f64]) {
            self.counted();
            self.inner.allreduce_sum(x)
        }
        fn allreduce_max(&self, x: &mut [f64]) {
            self.counted();
            self.inner.allreduce_max(x)
        }
        fn allreduce_min(&self, x: &mut [f64]) {
            self.counted();
            self.inner.allreduce_min(x)
        }
        fn try_allreduce_sum(&self, x: &mut [f64]) -> Result<(), CommError> {
            self.counted();
            self.inner.try_allreduce_sum(x)
        }
        fn wtime(&self) -> f64 {
            self.inner.wtime()
        }
        fn tuning(&self) -> CommTuning {
            self.inner.tuning()
        }
    }

    #[test]
    fn one_allreduce_per_preconditioner_apply() {
        use crate::{ElementFdm, SchwarzMg, SchwarzMode};
        use rbx_device::WorkerPool;
        let p = 4;
        let nf = (p + 1) * (p + 1) * (p + 1);
        let mesh = box_mesh(4, 2, 2, [0., 2.], [0., 1.], [0., 1.], false, false);
        let part = partition_rcb(&mesh, 2);
        let lists = part_elements(&part, 2);
        let counts = run_on_ranks(2, |comm| {
            let my = &lists[comm.rank()];
            let geom = GeomFactors::new(&mesh.extract(my), p);
            let gs = std::sync::Arc::new(GatherScatter::build(&mesh, p, &part, my, comm));
            let mult = gs.multiplicity(comm);
            let coarse = CoarseGrid::build(&mesh, p, 2, &part, my, &[], comm);
            let schwarz = SchwarzMg::new(
                ElementFdm::new(&geom),
                coarse,
                gs,
                &mult,
                vec![1.0; geom.total_nodes()],
                &WorkerPool::new(1),
            );
            let r: Vec<f64> = (0..my.len() * nf).map(|i| (i as f64 * 0.3).cos()).collect();
            let mut z = vec![0.0; r.len()];
            let counting = CountingComm {
                inner: comm,
                allreduces: AtomicUsize::new(0),
            };
            let mut per_apply = Vec::new();
            for mode in [SchwarzMode::Serial, SchwarzMode::Overlapped] {
                // ordering: as in `counted`.
                let before = counting.allreduces.load(Ordering::Relaxed);
                schwarz.apply(&r, &mut z, mode, &counting);
                per_apply.push(counting.allreduces.load(Ordering::Relaxed) - before);
            }
            per_apply
        });
        for per_apply in counts {
            assert_eq!(per_apply, vec![1, 1], "allreduces per apply");
        }
    }
}

#[cfg(test)]
mod multilevel_tests {
    use super::*;
    use crate::bc::dirichlet_mask;
    use crate::helmholtz::{HelmholtzOp, HelmholtzScratch};
    use crate::krylov::fgmres;
    use crate::ops::{DotProduct, ElemLayout};
    use crate::{ElementFdm, SchwarzMg, SchwarzMode};
    use rbx_comm::SingleComm;
    use rbx_device::WorkerPool;
    use rbx_mesh::generators::box_mesh;
    use std::sync::Arc;

    const ALL: [BoundaryTag; 3] = [
        BoundaryTag::Wall,
        BoundaryTag::HotWall,
        BoundaryTag::ColdWall,
    ];

    /// FGMRES iteration count with a Schwarz preconditioner whose coarse
    /// level has the given polynomial degree.
    fn iters_with_coarse_order(coarse_p: usize) -> usize {
        let p = 6;
        let mesh = box_mesh(3, 3, 3, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let geom = GeomFactors::new(&mesh, p);
        let gs = Arc::new(GatherScatter::build(&mesh, p, &part, &my, &comm));
        let mask = dirichlet_mask(&mesh, p, &my, &ALL, &gs, &comm);
        let mult = gs.multiplicity(&comm);
        let fdm = ElementFdm::new(&geom);
        let coarse = CoarseGrid::build(&mesh, p, coarse_p, &part, &my, &ALL, &comm);
        let schwarz = SchwarzMg::new(
            fdm,
            coarse,
            gs.clone(),
            &mult,
            mask.clone(),
            &WorkerPool::new(1),
        );
        let op = HelmholtzOp {
            geom: &geom,
            gs: &gs,
            mask: &mask,
            h1: 1.0,
            h2: 0.0,
        };
        let nel = mesh.num_elements();
        let layout = Arc::new(ElemLayout::new((p + 1).pow(3), (0..nel).collect(), nel));
        let dp = DotProduct::with_layout(&mult, layout);
        let n = geom.total_nodes();
        let mut x_true: Vec<f64> = (0..n)
            .map(|i| {
                (std::f64::consts::PI * geom.coords[0][i]).sin()
                    * (std::f64::consts::PI * geom.coords[1][i]).sin()
                    * (std::f64::consts::PI * geom.coords[2][i]).sin()
            })
            .collect();
        crate::ops::hadamard(&mask, &mut x_true);
        let mut b = vec![0.0; n];
        let mut scratch = HelmholtzScratch::default();
        op.apply(&x_true, &mut b, &mut scratch, &comm);
        let mut x = vec![0.0; n];
        let mut scratch2 = HelmholtzScratch::default();
        let stats = fgmres(
            |pv, ap| op.apply(pv, ap, &mut scratch2, &comm),
            |r, z| schwarz.apply(r, z, SchwarzMode::Serial, &comm),
            |a, c| dp.dot(a, c, &comm),
            &b,
            &mut x,
            1e-9,
            0.0,
            300,
            30,
        );
        assert!(stats.converged, "coarse_p = {coarse_p}: {stats:?}");
        stats.iterations
    }

    #[test]
    fn richer_coarse_space_does_not_hurt() {
        let it1 = iters_with_coarse_order(1);
        let it2 = iters_with_coarse_order(2);
        assert!(
            it2 <= it1,
            "degree-2 coarse space worse than degree-1: {it2} > {it1}"
        );
    }

    #[test]
    fn coarse_order_transfer_exact_on_matching_polynomials() {
        // Prolongation from a degree-2 coarse space reproduces quadratics.
        let p = 5;
        let mesh = box_mesh(2, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let part = vec![0; mesh.num_elements()];
        let my: Vec<usize> = (0..mesh.num_elements()).collect();
        let cg = CoarseGrid::build(&mesh, p, 2, &part, &my, &[], &comm);
        let c = GeomFactors::new(&mesh, 2).coords;
        let fine_geom = GeomFactors::new(&mesh, p);
        let f = |x: f64, y: f64, z: f64| x * x - 2.0 * y * z + 3.0 * z * z;
        let zc: Vec<f64> = (0..cg.len())
            .map(|i| f(c[0][i], c[1][i], c[2][i]))
            .collect();
        let mut zf = vec![0.0; fine_geom.total_nodes()];
        let mut scratch = rbx_basis::TensorScratch::new();
        cg.prolong_add(&zc, &mut zf, &mut scratch);
        for i in 0..zf.len() {
            let expect = f(
                fine_geom.coords[0][i],
                fine_geom.coords[1][i],
                fine_geom.coords[2][i],
            );
            assert!((zf[i] - expect).abs() < 1e-11, "node {i}");
        }
    }

    #[test]
    #[should_panic(expected = "coarse_p < fine_p")]
    fn coarse_order_must_be_below_fine() {
        let mesh = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let comm = SingleComm::new();
        let _ = CoarseGrid::build(&mesh, 3, 3, &[0], &[0], &[], &comm);
    }
}
