//! Element node coordinates and metric (geometric) factors.
//!
//! Every matrix-free SEM operator needs, at each GLL node of each element:
//! the physical coordinates, the Jacobian of the reference→physical map,
//! the inverse-map derivatives `∂rᵢ/∂xⱼ`, the diagonal mass `B = w³·J` and
//! the six symmetric stiffness metrics
//! `G_ij = w³·J·Σ_k (∂rᵢ/∂x_k)(∂rⱼ/∂x_k)`.
//!
//! Straight-sided elements use the trilinear map from their 8 corners;
//! elements carrying a [`Curve::CylinderSide`] descriptor get their
//! cross-section corrected by a 2-D Gordon-Hall (transfinite) map with an
//! exact circular-arc edge, which is what makes the cylindrical RBC cell's
//! side wall geometrically exact.

use crate::topology::vertex_lattice;
use crate::{Curve, HexMesh};
use rbx_basis::{deriv_matrix, gll, Axis, DerivMatrix};

/// Physical coordinates of all `(p+1)³` GLL nodes of element `e`.
///
/// Returns `[x, y, z]` arrays in the standard `i + n(j + nk)` layout.
pub fn element_nodes(mesh: &HexMesh, e: usize, p: usize) -> [Vec<f64>; 3] {
    let q = gll(p + 1);
    let n = p + 1;
    let corners = mesh.corners(e);
    let mut coords = [
        vec![0.0; n * n * n],
        vec![0.0; n * n * n],
        vec![0.0; n * n * n],
    ];

    // Trilinear base map.
    for k in 0..n {
        let t = q.points[k];
        for j in 0..n {
            let s = q.points[j];
            for i in 0..n {
                let r = q.points[i];
                let idx = i + n * (j + n * k);
                let mut pt = [0.0; 3];
                for v in 0..8 {
                    let (vi, vj, vk) = vertex_lattice(v, 1);
                    let shape = half(r, vi) * half(s, vj) * half(t, vk);
                    for d in 0..3 {
                        pt[d] += shape * corners[v][d];
                    }
                }
                coords[0][idx] = pt[0];
                coords[1][idx] = pt[1];
                coords[2][idx] = pt[2];
            }
        }
    }

    // Curved side-wall correction (generator convention: face 3 = +y ≙ s=+1
    // is the radially outward face).
    if let Some(Curve::CylinderSide { radius }) = mesh.curves.get(&(e, 3)).copied() {
        apply_cylinder_side(&mut coords, &corners, &q.points, radius);
    }
    coords
}

/// 1-D linear shape: `(1∓r)/2`.
#[inline]
fn half(r: f64, hi: usize) -> f64 {
    if hi == 0 {
        0.5 * (1.0 - r)
    } else {
        0.5 * (1.0 + r)
    }
}

/// Replace the (x, y) cross-section by a Gordon-Hall map whose s=+1 edge is
/// the exact circular arc of the given radius; z stays trilinear.
fn apply_cylinder_side(
    coords: &mut [Vec<f64>; 3],
    corners: &[[f64; 3]; 8],
    pts: &[f64],
    radius: f64,
) {
    let n = pts.len();
    for k in 0..n {
        let t = pts[k];
        // Corners of this t-layer's quad, interpolated linearly in z between
        // the bottom (v0..v3) and top (v4..v7) corner rings.
        let layer = |v_bot: usize, v_top: usize| -> [f64; 2] {
            let wb = 0.5 * (1.0 - t);
            let wt = 0.5 * (1.0 + t);
            [
                wb * corners[v_bot][0] + wt * corners[v_top][0],
                wb * corners[v_bot][1] + wt * corners[v_top][1],
            ]
        };
        // (r, s) corner convention: A(-1,-1), B(+1,-1), C(+1,+1), D(-1,+1).
        let a = layer(0, 4);
        let b = layer(1, 5);
        let c = layer(3, 7);
        let d = layer(2, 6);
        debug_assert!(
            ((c[0] * c[0] + c[1] * c[1]).sqrt() - radius).abs() < 1e-9 * radius.max(1.0),
            "curved-face corner is not on the cylinder"
        );
        let phi_d = d[1].atan2(d[0]);
        let mut dphi = c[1].atan2(c[0]) - phi_d;
        // Shortest arc.
        if dphi > std::f64::consts::PI {
            dphi -= 2.0 * std::f64::consts::PI;
        } else if dphi < -std::f64::consts::PI {
            dphi += 2.0 * std::f64::consts::PI;
        }
        let arc = |r: f64| -> [f64; 2] {
            let phi = phi_d + 0.5 * (r + 1.0) * dphi;
            [radius * phi.cos(), radius * phi.sin()]
        };
        let lerp2 = |p0: [f64; 2], p1: [f64; 2], u: f64| -> [f64; 2] {
            let w0 = 0.5 * (1.0 - u);
            let w1 = 0.5 * (1.0 + u);
            [w0 * p0[0] + w1 * p1[0], w0 * p0[1] + w1 * p1[1]]
        };
        for j in 0..n {
            let s = pts[j];
            for i in 0..n {
                let r = pts[i];
                // Edge terms.
                let eb = lerp2(a, b, r); // s = -1, straight
                let et = arc(r); // s = +1, circular
                let el = lerp2(a, d, s); // r = -1, straight
                let er = lerp2(b, c, s); // r = +1, straight
                let mut x = [0.0; 2];
                for dim in 0..2 {
                    let edges = 0.5 * (1.0 - s) * eb[dim]
                        + 0.5 * (1.0 + s) * et[dim]
                        + 0.5 * (1.0 - r) * el[dim]
                        + 0.5 * (1.0 + r) * er[dim];
                    let bilinear = 0.25 * (1.0 - r) * (1.0 - s) * a[dim]
                        + 0.25 * (1.0 + r) * (1.0 - s) * b[dim]
                        + 0.25 * (1.0 + r) * (1.0 + s) * c[dim]
                        + 0.25 * (1.0 - r) * (1.0 + s) * d[dim];
                    x[dim] = edges - bilinear;
                }
                let idx = i + n * (j + n * k);
                coords[0][idx] = x[0];
                coords[1][idx] = x[1];
            }
        }
    }
}

/// All metric factors for a mesh at polynomial degree `p`, flattened as
/// `[element-major][node]` arrays of length `nelv · (p+1)³`.
#[derive(Debug, Clone)]
pub struct GeomFactors {
    /// Polynomial degree.
    pub p: usize,
    /// Nodes per direction, `p + 1`.
    pub nx1: usize,
    /// Number of local elements.
    pub nelv: usize,
    /// GLL points on the reference interval.
    pub points: Vec<f64>,
    /// GLL weights on the reference interval.
    pub weights: Vec<f64>,
    /// 1-D collocation derivative matrix (with its transpose), which
    /// applies the element derivatives.
    pub d: DerivMatrix,
    /// Physical node coordinates `[x, y, z]`.
    pub coords: [Vec<f64>; 3],
    /// Jacobian determinant at each node.
    pub jac: Vec<f64>,
    /// Diagonal mass `B = w_i w_j w_k · J`.
    pub mass: Vec<f64>,
    /// Stiffness metrics `[G11, G12, G13, G22, G23, G33]` (weights included).
    pub g: [Vec<f64>; 6],
    /// Inverse-map derivatives `[rx, ry, rz, sx, sy, sz, tx, ty, tz]`
    /// (no quadrature weights).
    pub dr: [Vec<f64>; 9],
    /// Minimum Jacobian across all nodes (must be positive).
    pub min_jac: f64,
}

impl GeomFactors {
    /// Compute coordinates and metrics for every element of `mesh` at
    /// degree `p`.
    ///
    /// # Panics
    /// Panics if any element has a non-positive Jacobian (inverted or
    /// degenerate geometry).
    pub fn new(mesh: &HexMesh, p: usize) -> Self {
        let q = gll(p + 1);
        let d = DerivMatrix::new(deriv_matrix(&q.points));
        let n = p + 1;
        let nn = n * n * n;
        let nelv = mesh.num_elements();
        let total = nelv * nn;

        let mut coords = [vec![0.0; total], vec![0.0; total], vec![0.0; total]];
        for e in 0..nelv {
            let c = element_nodes(mesh, e, p);
            for dim in 0..3 {
                coords[dim][e * nn..(e + 1) * nn].copy_from_slice(&c[dim]);
            }
        }

        let mut jac = vec![0.0; total];
        let mut mass = vec![0.0; total];
        let mut g: [Vec<f64>; 6] = std::array::from_fn(|_| vec![0.0; total]);
        let mut dr: [Vec<f64>; 9] = std::array::from_fn(|_| vec![0.0; total]);
        let mut min_jac = f64::MAX;

        // Per-element derivative buffers.
        let mut dx = [vec![0.0; nn], vec![0.0; nn], vec![0.0; nn]]; // x_r, x_s, x_t
        let mut dy = [vec![0.0; nn], vec![0.0; nn], vec![0.0; nn]];
        let mut dz = [vec![0.0; nn], vec![0.0; nn], vec![0.0; nn]];

        for e in 0..nelv {
            let xs = &coords[0][e * nn..(e + 1) * nn];
            let ys = &coords[1][e * nn..(e + 1) * nn];
            let zs = &coords[2][e * nn..(e + 1) * nn];
            for (c, dc) in [(xs, &mut dx), (ys, &mut dy), (zs, &mut dz)] {
                for (axis, out) in [Axis::X, Axis::Y, Axis::Z].into_iter().zip(dc.iter_mut()) {
                    d.apply(axis, c, out);
                }
            }

            for idx in 0..nn {
                let (i, jj, k) = (idx % n, (idx / n) % n, idx / (n * n));
                let w3 = q.weights[i] * q.weights[jj] * q.weights[k];
                // Forward Jacobian matrix rows: ∂(x,y,z)/∂(r,s,t).
                let xr = dx[0][idx];
                let xs_ = dx[1][idx];
                let xt = dx[2][idx];
                let yr = dy[0][idx];
                let ys_ = dy[1][idx];
                let yt = dy[2][idx];
                let zr = dz[0][idx];
                let zs_ = dz[1][idx];
                let zt = dz[2][idx];
                let j_det = xr * (ys_ * zt - yt * zs_) - xs_ * (yr * zt - yt * zr)
                    + xt * (yr * zs_ - ys_ * zr);
                assert!(
                    j_det > 0.0,
                    "non-positive Jacobian {j_det} in element {e} node {idx}"
                );
                min_jac = min_jac.min(j_det);
                let gi = e * nn + idx;
                jac[gi] = j_det;
                mass[gi] = w3 * j_det;
                // Inverse map (cofactor formula): ∂(r,s,t)/∂(x,y,z).
                let inv = 1.0 / j_det;
                let rx = (ys_ * zt - yt * zs_) * inv;
                let ry = (xt * zs_ - xs_ * zt) * inv;
                let rz = (xs_ * yt - xt * ys_) * inv;
                let sx = (yt * zr - yr * zt) * inv;
                let sy = (xr * zt - xt * zr) * inv;
                let sz = (xt * yr - xr * yt) * inv;
                let tx = (yr * zs_ - ys_ * zr) * inv;
                let ty = (xs_ * zr - xr * zs_) * inv;
                let tz = (xr * ys_ - xs_ * yr) * inv;
                dr[0][gi] = rx;
                dr[1][gi] = ry;
                dr[2][gi] = rz;
                dr[3][gi] = sx;
                dr[4][gi] = sy;
                dr[5][gi] = sz;
                dr[6][gi] = tx;
                dr[7][gi] = ty;
                dr[8][gi] = tz;
                let wj = w3 * j_det;
                g[0][gi] = wj * (rx * rx + ry * ry + rz * rz);
                g[1][gi] = wj * (rx * sx + ry * sy + rz * sz);
                g[2][gi] = wj * (rx * tx + ry * ty + rz * tz);
                g[3][gi] = wj * (sx * sx + sy * sy + sz * sz);
                g[4][gi] = wj * (sx * tx + sy * ty + sz * tz);
                g[5][gi] = wj * (tx * tx + ty * ty + tz * tz);
            }
        }

        Self {
            p,
            nx1: n,
            nelv,
            points: q.points,
            weights: q.weights,
            d,
            coords,
            jac,
            mass,
            g,
            dr,
            min_jac,
        }
    }

    /// Nodes per element, `(p+1)³`.
    pub fn nodes_per_element(&self) -> usize {
        self.nx1 * self.nx1 * self.nx1
    }

    /// Total local nodes, `nelv · (p+1)³`.
    pub fn total_nodes(&self) -> usize {
        self.nelv * self.nodes_per_element()
    }

    /// Total volume: `Σ B`.
    pub fn volume(&self) -> f64 {
        self.mass.iter().sum()
    }

    /// Surface quadrature weights (area element × GLL weights) for face `f`
    /// of element `e`, as an `nx1 × nx1` array in face-local `(a, b)` order.
    pub fn face_area_weights(&self, e: usize, f: usize) -> Vec<f64> {
        use crate::topology::face_to_volume;
        let n = self.nx1;
        let nn = n * n * n;
        let base = e * nn;
        // Tangent vectors along the two face-local directions from the
        // reference derivatives of the coordinate fields.
        let mut out = vec![0.0; n * n];
        // Reference derivative arrays for this element.
        let mut dxa = vec![0.0; nn];
        let mut dxb = vec![0.0; nn];
        let mut ta = [vec![0.0; n * n], vec![0.0; n * n], vec![0.0; n * n]];
        let mut tb = [vec![0.0; n * n], vec![0.0; n * n], vec![0.0; n * n]];
        for dim in 0..3 {
            let c = &self.coords[dim][base..base + nn];
            // Face-local direction "a" and "b" map to reference directions
            // depending on the face (see `face_to_volume`).
            let (axis_a, axis_b) = match f {
                0 | 1 => (Axis::Y, Axis::Z),
                2 | 3 => (Axis::X, Axis::Z),
                4 | 5 => (Axis::X, Axis::Y),
                _ => panic!("face index {f} out of range"),
            };
            self.d.apply(axis_a, c, &mut dxa);
            self.d.apply(axis_b, c, &mut dxb);
            for a in 0..n {
                for b in 0..n {
                    let (i, j, k) = face_to_volume(f, a, b, self.p);
                    let idx = i + n * (j + n * k);
                    ta[dim][a + n * b] = dxa[idx];
                    tb[dim][a + n * b] = dxb[idx];
                }
            }
        }
        for a in 0..n {
            for b in 0..n {
                let q = a + n * b;
                let cx = ta[1][q] * tb[2][q] - ta[2][q] * tb[1][q];
                let cy = ta[2][q] * tb[0][q] - ta[0][q] * tb[2][q];
                let cz = ta[0][q] * tb[1][q] - ta[1][q] * tb[0][q];
                let area = (cx * cx + cy * cy + cz * cz).sqrt();
                out[q] = area * self.weights[a] * self.weights[b];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::box_mesh;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn box_volume_exact() {
        let m = box_mesh(3, 2, 2, [0., 3.], [0., 4.], [0., 5.], false, false);
        let geom = GeomFactors::new(&m, 4);
        assert_close(geom.volume(), 60.0, 1e-10);
        assert!(geom.min_jac > 0.0);
    }

    #[test]
    fn box_jacobian_constant_per_element() {
        // Affine elements have constant Jacobian = product of half-extents.
        let m = box_mesh(2, 2, 2, [0., 2.], [0., 2.], [0., 2.], false, false);
        let geom = GeomFactors::new(&m, 3);
        // Each element is 1×1×1 → J = (1/2)³.
        for &j in &geom.jac {
            assert_close(j, 0.125, 1e-12);
        }
    }

    #[test]
    fn node_coordinates_cover_range() {
        let m = box_mesh(2, 1, 1, [0., 2.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&m, 5);
        let xmin = geom.coords[0].iter().cloned().fold(f64::MAX, f64::min);
        let xmax = geom.coords[0].iter().cloned().fold(f64::MIN, f64::max);
        assert_close(xmin, 0.0, 1e-13);
        assert_close(xmax, 2.0, 1e-13);
    }

    #[test]
    fn inverse_metrics_of_affine_box() {
        // For a box element of extent h the inverse metric is 2/h on the
        // diagonal and 0 off-diagonal.
        let m = box_mesh(1, 1, 1, [0., 2.], [0., 4.], [0., 8.], false, false);
        let geom = GeomFactors::new(&m, 3);
        for idx in 0..geom.total_nodes() {
            assert_close(geom.dr[0][idx], 1.0, 1e-12); // rx = 2/2
            assert_close(geom.dr[4][idx], 0.5, 1e-12); // sy = 2/4
            assert_close(geom.dr[8][idx], 0.25, 1e-12); // tz = 2/8
            assert_close(geom.dr[1][idx], 0.0, 1e-12);
            assert_close(geom.dr[3][idx], 0.0, 1e-12);
        }
    }

    #[test]
    fn face_area_weights_sum_to_face_area() {
        let m = box_mesh(1, 1, 1, [0., 2.], [0., 3.], [0., 5.], false, false);
        let geom = GeomFactors::new(&m, 6);
        let areas = [15.0, 15.0, 10.0, 10.0, 6.0, 6.0]; // yz, yz, xz, xz, xy, xy
        for f in 0..6 {
            let w = geom.face_area_weights(0, f);
            let total: f64 = w.iter().sum();
            assert_close(total, areas[f], 1e-10);
        }
    }

    #[test]
    fn mass_matches_weights_times_jacobian() {
        let m = box_mesh(1, 1, 1, [0., 1.], [0., 1.], [0., 1.], false, false);
        let geom = GeomFactors::new(&m, 4);
        let n = geom.nx1;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let idx = i + n * (j + n * k);
                    let expect =
                        geom.weights[i] * geom.weights[j] * geom.weights[k] * geom.jac[idx];
                    assert_close(geom.mass[idx], expect, 1e-14);
                }
            }
        }
    }
}
