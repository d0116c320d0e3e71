//! Bitwise-identity matrix for the SIMD / fused kernel layer.
//!
//! The lane contract (DESIGN.md §15) promises that every SIMD and fused
//! kernel is bitwise reproducible: identical bits across pool thread
//! counts, across repeated applies within a process (the elastic-restart
//! replay property at kernel scope), and between the runtime-dispatched
//! path and the portable scalar twin — to an exact 0-ulp bound, because
//! both lowerings of `mul_add` are the same correctly-rounded IEEE-754
//! fused operation. This file asserts the full matrix for the production
//! node counts N = 6, 8, 10, 12 (degrees 5, 7, 9, 11) plus an
//! off-specialization degree that exercises the runtime-`n` fallback.

use rbx::basis::fused::{
    helmholtz_element, helmholtz_element_scalar, tensor3, tensor3_scalar, FusedScratch,
    Tensor3Scratch,
};
use rbx::basis::tensor::{tensor_apply3, tensor_apply3_scalar, Axis, DerivMatrix, TensorScratch};
use rbx::basis::{deriv_matrix, gll, DMat};
use rbx::comm::SingleComm;
use rbx::device::WorkerPool;
use rbx::gs::GatherScatter;
use rbx::la::helmholtz::{HelmholtzOp, HelmholtzScratch};
use rbx::la::ElementFdm;
use rbx::mesh::generators::box_mesh;
use rbx::mesh::GeomFactors;

/// Production 1-D node counts (paper degrees) plus dynamic-path sizes.
const PRODUCTION_N: [usize; 4] = [6, 8, 10, 12];

fn rand_vec(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

fn assert_bits(label: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: bit divergence at index {i}: {x:e} vs {y:e}"
        );
    }
}

struct Setup {
    geom: GeomFactors,
    gs: GatherScatter,
    comm: SingleComm,
    u: Vec<f64>,
}

fn setup(p: usize) -> Setup {
    let mesh = box_mesh(3, 2, 2, [0., 1.], [0., 1.], [0., 1.], false, false);
    let comm = SingleComm::new();
    let part = vec![0usize; mesh.num_elements()];
    let my: Vec<usize> = (0..mesh.num_elements()).collect();
    let geom = GeomFactors::new(&mesh, p);
    let gs = GatherScatter::build(&mesh, p, &part, &my, &comm);
    let u = rand_vec(geom.total_nodes(), 1 + p as u64);
    Setup { geom, gs, comm, u }
}

/// Helmholtz apply: same bits at 1, 4 and 7 pool threads as serial, for
/// every production node count.
#[test]
fn helmholtz_bits_stable_across_thread_counts() {
    for n in PRODUCTION_N {
        let p = n - 1;
        let s = setup(p);
        let mask = vec![1.0; s.u.len()];
        let op = HelmholtzOp {
            geom: &s.geom,
            gs: &s.gs,
            mask: &mask,
            h1: 1.3,
            h2: 0.7,
        };
        let mut y_serial = vec![0.0; s.u.len()];
        let mut scratch = HelmholtzScratch::default();
        op.apply_local(&s.u, &mut y_serial, &mut scratch);
        for threads in [1usize, 4, 7] {
            let pool = WorkerPool::new(threads);
            let mut y = vec![0.0; s.u.len()];
            op.apply_local_with(&s.u, &mut y, &pool);
            assert_bits(&format!("helmholtz n={n} threads={threads}"), &y_serial, &y);
        }
    }
}

/// FDM Schwarz sweep: same matrix as above, plus double-apply replay —
/// applying twice from the same inputs yields the same bits, which is the
/// kernel-scope restart-replay property.
#[test]
fn fdm_bits_stable_across_thread_counts_and_replay() {
    for n in PRODUCTION_N {
        let p = n - 1;
        let s = setup(p);
        let fdm = ElementFdm::new(&s.geom);
        let mut z_serial = vec![0.25; s.u.len()];
        fdm.apply_add(&s.u, &mut z_serial, 1.1, 0.3);
        // Replay identity: a second run from identical inputs is identical.
        let mut z_replay = vec![0.25; s.u.len()];
        fdm.apply_add(&s.u, &mut z_replay, 1.1, 0.3);
        assert_bits(&format!("fdm n={n} replay"), &z_serial, &z_replay);
        for threads in [1usize, 4, 7] {
            let pool = WorkerPool::new(threads);
            let mut z = vec![0.25; s.u.len()];
            fdm.apply_add_with(&s.u, &mut z, 1.1, 0.3, &pool);
            assert_bits(&format!("fdm n={n} threads={threads}"), &z_serial, &z);
        }
    }
}

/// The pooled dot product. With an element layout attached (the solver's
/// configuration) `dot_with` folds the same per-element partials in the
/// same order as `dot`, so the two agree bit for bit at every thread
/// count.
#[test]
fn dot_bits_stable_across_thread_counts() {
    use rbx::la::ops::{DotProduct, ElemLayout};
    use std::sync::Arc;
    for n in PRODUCTION_N {
        let p = n - 1;
        let s = setup(p);
        let mult = s.gs.multiplicity(&s.comm);
        let b = rand_vec(s.u.len(), 77);
        let nelem = s.geom.nelv;
        let layout = Arc::new(ElemLayout::new(n * n * n, (0..nelem).collect(), nelem));
        let canonical = DotProduct::with_layout(&mult, layout);
        let serial = canonical.dot(&s.u, &b, &s.comm);
        for threads in [1usize, 4, 7] {
            let pool = WorkerPool::new(threads);
            let pooled = canonical.dot_with(&s.u, &b, &pool, &s.comm);
            assert_eq!(
                serial.to_bits(),
                pooled.to_bits(),
                "dot n={n} threads={threads}: {serial:e} vs {pooled:e}"
            );
        }
    }
}

/// Dispatched (runtime feature-selected) vs portable scalar twin: exact
/// 0-ulp agreement, element-kernel level, production degrees plus the
/// dynamic fallback (n = 7).
#[test]
fn dispatched_matches_scalar_to_zero_ulp() {
    for n in [6usize, 8, 10, 12, 7] {
        let d = DerivMatrix::new(deriv_matrix(&gll(n).points));
        let nn = n * n * n;
        let g: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                let base = if i == 0 || i == 3 || i == 5 { 2.0 } else { 0.1 };
                rand_vec(nn, 10 + i as u64)
                    .iter()
                    .map(|v| base + 0.1 * v)
                    .collect()
            })
            .collect();
        let gr: [&[f64]; 6] = [&g[0], &g[1], &g[2], &g[3], &g[4], &g[5]];
        let mass: Vec<f64> = rand_vec(nn, 20).iter().map(|v| 1.0 + 0.2 * v).collect();
        let u = rand_vec(nn, 30);
        let mut s = FusedScratch::new();
        let mut y_dispatched = vec![0.0; nn];
        let mut y_scalar = vec![0.0; nn];
        helmholtz_element(&d, &gr, &mass, 1.9, 0.2, &u, &mut y_dispatched, &mut s);
        helmholtz_element_scalar(&d, &gr, &mass, 1.9, 0.2, &u, &mut y_scalar, &mut s);
        assert_bits(
            &format!("helmholtz_element n={n}"),
            &y_dispatched,
            &y_scalar,
        );

        let a1 = DMat::from_fn(n, n, |i, j| ((i * 3 + j) as f64).cos());
        let a2 = DMat::from_fn(n, n, |i, j| (i as f64 - j as f64) * 0.25 + 1.0);
        let a3 = DMat::from_fn(n, n, |i, j| if i == j { 1.5 } else { 0.2 });
        let mut ts = Tensor3Scratch::new();
        let mut t_dispatched = vec![0.0; nn];
        let mut t_scalar = vec![0.0; nn];
        tensor3(&a1, &a2, &a3, &u, &mut t_dispatched, &mut ts);
        tensor3_scalar(&a1, &a2, &a3, &u, &mut t_scalar, &mut ts);
        assert_bits(&format!("tensor3 n={n}"), &t_dispatched, &t_scalar);
    }
}

/// `helmholtz_element` written out per output: the gradient chains start
/// at `+0.0` and add one `mul_add` per term in ascending index, the
/// metric combine nests its fused terms as the kernel states, and each
/// output's transposed chain runs over r, then s, then t from `+0.0`
/// before the mass term. `d[a][b]` is `D[a, b]`; `idx = i + n·(j + n·k)`.
#[allow(clippy::too_many_arguments)]
fn helm_chain_reference(
    n: usize,
    d: &DMat,
    g: &[Vec<f64>],
    mass: &[f64],
    h1: f64,
    h2: f64,
    u: &[f64],
) -> Vec<f64> {
    let nn = n * n * n;
    let at = |i: usize, j: usize, k: usize| i + n * (j + n * k);
    if h1 == 0.0 {
        return (0..nn)
            .map(|x| if h2 != 0.0 { h2 * mass[x] * u[x] } else { 0.0 })
            .collect();
    }
    let (mut wr, mut ws, mut wt) = (vec![0.0; nn], vec![0.0; nn], vec![0.0; nn]);
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let (mut ur, mut us, mut ut) = (0.0f64, 0.0f64, 0.0f64);
                for m in 0..n {
                    ur = u[at(m, j, k)].mul_add(d[(i, m)], ur);
                }
                for m in 0..n {
                    us = d[(j, m)].mul_add(u[at(i, m, k)], us);
                }
                for m in 0..n {
                    ut = d[(k, m)].mul_add(u[at(i, j, m)], ut);
                }
                let x = at(i, j, k);
                wr[x] = h1 * g[1][x].mul_add(us, g[0][x].mul_add(ur, g[2][x] * ut));
                ws[x] = h1 * g[3][x].mul_add(us, g[1][x].mul_add(ur, g[4][x] * ut));
                wt[x] = h1 * g[4][x].mul_add(us, g[2][x].mul_add(ur, g[5][x] * ut));
            }
        }
    }
    let mut y = vec![0.0; nn];
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let mut acc = 0.0f64;
                for m in 0..n {
                    acc = wr[at(m, j, k)].mul_add(d[(m, i)], acc);
                }
                for m in 0..n {
                    acc = d[(m, j)].mul_add(ws[at(i, m, k)], acc);
                }
                for m in 0..n {
                    acc = d[(m, k)].mul_add(wt[at(i, j, m)], acc);
                }
                let x = at(i, j, k);
                y[x] = if h2 != 0.0 {
                    (h2 * mass[x]).mul_add(u[x], acc)
                } else {
                    acc
                };
            }
        }
    }
    y
}

/// `tensor3` written out per output: each pass starts at the plain
/// product of its first term and adds the rest with one `mul_add` each,
/// in ascending index.
fn tensor3_chain_reference(n: usize, a1: &DMat, a2: &DMat, a3: &DMat, u: &[f64]) -> Vec<f64> {
    let nn = n * n * n;
    let at = |i: usize, j: usize, k: usize| i + n * (j + n * k);
    let (mut t1, mut t2, mut out) = (vec![0.0; nn], vec![0.0; nn], vec![0.0; nn]);
    for k in 0..n {
        for j in 0..n {
            for a in 0..n {
                let mut acc = u[at(0, j, k)] * a1[(a, 0)];
                for i in 1..n {
                    acc = u[at(i, j, k)].mul_add(a1[(a, i)], acc);
                }
                t1[at(a, j, k)] = acc;
            }
        }
    }
    for k in 0..n {
        for b in 0..n {
            for a in 0..n {
                let mut acc = a2[(b, 0)] * t1[at(a, 0, k)];
                for j in 1..n {
                    acc = a2[(b, j)].mul_add(t1[at(a, j, k)], acc);
                }
                t2[at(a, b, k)] = acc;
            }
        }
    }
    for c in 0..n {
        for b in 0..n {
            for a in 0..n {
                let mut acc = a3[(c, 0)] * t2[at(a, b, 0)];
                for k in 1..n {
                    acc = a3[(c, k)].mul_add(t2[at(a, b, k)], acc);
                }
                out[at(a, b, c)] = acc;
            }
        }
    }
    out
}

/// The fused kernels keep the per-output chains their loop nests
/// computed before they ran the shared blocked body: 0 ulp against the
/// written-out references above at every n in 2..=12 (the fixed-N and
/// runtime-N paths, odd n included), dispatched and portable, through the
/// `h1 = 0` and `h2 = 0` branches, on data with signed zeros, on an
/// all-`−0.0` input (which only the plain-product start of `tensor3`
/// keeps negative), and with one NaN or infinity (NaN positions agree).
#[test]
fn fused_kernels_keep_their_per_output_chains() {
    let mut saw_neg_zero = false;
    for n in 2..=12 {
        let nn = n * n * n;
        let d = deriv_matrix(&gll(n).points);
        let dm = DerivMatrix::new(d.clone());
        let g: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                let base = if i == 0 || i == 3 || i == 5 { 2.0 } else { 0.1 };
                rand_vec(nn, 200 + i as u64)
                    .iter()
                    .map(|v| base + 0.1 * v)
                    .collect()
            })
            .collect();
        let gr: [&[f64]; 6] = [&g[0], &g[1], &g[2], &g[3], &g[4], &g[5]];
        let mass: Vec<f64> = rand_vec(nn, 210).iter().map(|v| 1.0 + 0.2 * v).collect();
        let a1 = DMat::from_fn(n, n, |i, j| 0.5 + ((i * 3 + j) as f64 * 0.7).sin().abs());
        let a2 = DMat::from_fn(n, n, |i, j| 0.25 + (i as f64 - j as f64).abs() * 0.125);
        let a3 = DMat::from_fn(n, n, |i, j| if i == j { 1.5 } else { 0.2 });
        let a1t = a1.transpose();

        let mut signed = rand_vec(nn, 220 + n as u64);
        for (x, v) in signed.iter_mut().enumerate() {
            match x % 7 {
                0 => *v = 0.0,
                3 => *v = -0.0,
                _ => {}
            }
        }
        let mut with_nan = rand_vec(nn, 230 + n as u64);
        with_nan[nn / 2] = f64::NAN;
        let mut with_inf = rand_vec(nn, 240 + n as u64);
        with_inf[nn / 3] = f64::INFINITY;
        let inputs: [(&str, Vec<f64>); 4] = [
            ("signed zeros", signed),
            ("all -0.0", vec![-0.0; nn]),
            ("NaN", with_nan),
            ("inf", with_inf),
        ];
        let mut fs = FusedScratch::new();
        let mut ts = Tensor3Scratch::new();
        for (label, u) in &inputs {
            for (h1, h2) in [(1.3, 0.7), (1.3, 0.0), (0.0, 0.7), (0.0, 0.0)] {
                let want = helm_chain_reference(n, &d, &g, &mass, h1, h2, u);
                let tag = format!("helmholtz_element n={n} {label} h1={h1} h2={h2}");
                let mut y = vec![9.0; nn];
                helmholtz_element(&dm, &gr, &mass, h1, h2, u, &mut y, &mut fs);
                assert_bits_or_nan(&tag, &want, &y);
                let mut y = vec![9.0; nn];
                helmholtz_element_scalar(&dm, &gr, &mass, h1, h2, u, &mut y, &mut fs);
                assert_bits_or_nan(&format!("{tag} portable"), &want, &y);
            }
            let want = tensor3_chain_reference(n, &a1, &a2, &a3, u);
            saw_neg_zero |= want.iter().any(|v| v.to_bits() == (-0.0f64).to_bits());
            let mut out = vec![9.0; nn];
            tensor3(&a1t, &a2, &a3, u, &mut out, &mut ts);
            assert_bits_or_nan(&format!("tensor3 n={n} {label}"), &want, &out);
            let mut out = vec![9.0; nn];
            tensor3_scalar(&a1t, &a2, &a3, u, &mut out, &mut ts);
            assert_bits_or_nan(&format!("tensor3 n={n} {label} portable"), &want, &out);
        }
    }
    assert!(
        saw_neg_zero,
        "no -0.0 reached a tensor3 output: the test lost its teeth"
    );
}

/// Every `(rows, cols)` shape `tensor_apply3` instantiates at compile
/// time: dealiasing ⌈3N/2⌉ × N and back, the coarse grid's 2 × N and
/// 3 × N transfers and back, and the square modal transforms, N = 4…12.
fn specialized_shapes() -> Vec<(usize, usize)> {
    let mut shapes = Vec::new();
    for n in 4..=12 {
        let m = rbx::basis::dealias_nodes(n - 1);
        shapes.extend([(m, n), (n, m), (2, n), (n, 2), (3, n), (n, 3), (n, n)]);
    }
    shapes
}

fn apply_both(a: &DMat, u: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let m = a.rows();
    let mut dispatched = vec![0.0; m * m * m];
    let mut portable = vec![0.0; m * m * m];
    let mut s = TensorScratch::new();
    tensor_apply3(a, a, a, u, &mut dispatched, &mut s);
    tensor_apply3_scalar(a, a, a, u, &mut portable, &mut s);
    (dispatched, portable)
}

/// `tensor_apply3` keeps a separate-rounding bit contract: the dispatched
/// path (shape-specialized, AVX2 where available) must reproduce the
/// runtime-bounded portable body to 0 ulp on every specialized shape,
/// on a shape that is not specialized (7 × 5), and on a call whose three
/// matrices differ in shape.
#[test]
fn tensor_apply3_dispatched_matches_portable_on_every_shape() {
    let mut shapes = specialized_shapes();
    shapes.push((7, 5));
    for (m, n) in shapes {
        let a = DMat::from_fn(m, n, |i, j| ((i * 7 + j * 3) as f64 * 0.37).sin());
        let u = rand_vec(n * n * n, (m * 31 + n) as u64);
        let (dispatched, portable) = apply_both(&a, &u);
        assert_bits(&format!("tensor_apply3 {m}x{n}"), &dispatched, &portable);
    }
    let ax = DMat::from_fn(9, 6, |i, j| (i as f64 - 0.5 * j as f64).cos());
    let ay = DMat::from_fn(2, 6, |i, j| (i + j) as f64 * 0.25 - 0.5);
    let az = DMat::from_fn(6, 6, |i, j| if i == j { 1.0 } else { 0.125 });
    let u = rand_vec(6 * 6 * 6, 77);
    let mut s = TensorScratch::new();
    let mut dispatched = vec![0.0; 9 * 2 * 6];
    let mut portable = vec![0.0; 9 * 2 * 6];
    tensor_apply3(&ax, &ay, &az, &u, &mut dispatched, &mut s);
    tensor_apply3_scalar(&ax, &ay, &az, &u, &mut portable, &mut s);
    assert_bits("tensor_apply3 mixed shapes", &dispatched, &portable);
}

/// Like [`assert_bits`], except that two NaNs match whatever their sign
/// and payload: Rust leaves those unspecified, and the vectorized code
/// may add a propagated NaN and a freshly made one (`∞ − ∞`) in the
/// other operand order. Which outputs are NaN must still agree.
fn assert_bits_or_nan(label: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "{label}: bit divergence at index {i}: {x:e} vs {y:e}"
        );
    }
}

/// The bit contract covers non-finite data and exact zeros too: inputs
/// with NaN and ±Inf, matrices with `+0.0`/`-0.0` entries. Passes 2 and 3
/// skip zero coefficients (so `0·∞` never enters there) while pass 1
/// multiplies them (so it does); both paths must agree on every finite,
/// infinite and signed-zero bit, and on where the NaNs are.
#[test]
fn tensor_apply3_nonfinite_inputs_and_zero_coefficients_match_portable() {
    let mut shapes = specialized_shapes();
    shapes.push((7, 5));
    let mut saw_nan = false;
    for (m, n) in shapes {
        let a = DMat::from_fn(m, n, |i, j| match (i + 2 * j) % 5 {
            0 => 0.0,
            1 => -0.0,
            _ => ((i * 5 + j) as f64 * 0.61).cos(),
        });
        let mut u = rand_vec(n * n * n, (m * 17 + n) as u64);
        let len = u.len();
        u[0] = f64::NAN;
        u[len / 3] = f64::INFINITY;
        u[len / 2] = f64::NEG_INFINITY;
        u[len - 1] = -0.0;
        let (dispatched, portable) = apply_both(&a, &u);
        assert_bits_or_nan(&format!("non-finite {m}x{n}"), &dispatched, &portable);
        saw_nan |= dispatched.iter().any(|v| v.is_nan());
        // Finite data and a zero-laden matrix: the skipped coefficients
        // must not turn a +0.0 sum into -0.0 or change any other bit.
        let finite = rand_vec(n * n * n, 5);
        let (dispatched, portable) = apply_both(&a, &finite);
        assert_bits(&format!("zero-skip {m}x{n}"), &dispatched, &portable);
    }
    // A skipped zero coefficient can stop a NaN, but not on every shape.
    assert!(
        saw_nan,
        "no NaN reached any output: the test lost its teeth"
    );
}

type BitCheck = fn(&str, &[f64], &[f64]);

/// The element derivatives keep the contraction contract: the dispatched
/// path (AVX2 at N = 4, 6, 8, 10, 12) must reproduce the portable body at
/// every N, forward and transposed-add, on finite data with the GLL
/// matrix and with a zero-laden one (signed zeros included), and on data
/// with NaN and ±Inf, where the NaN positions must agree.
#[test]
fn derivatives_dispatched_match_portable_at_every_n() {
    let mut saw_nan = false;
    for n in 3..=12 {
        let nn = n * n * n;
        let zero_laden = DMat::from_fn(n, n, |i, j| match (i + 2 * j) % 5 {
            0 => 0.0,
            1 => -0.0,
            _ => ((i * 5 + j) as f64 * 0.61).cos(),
        });
        let finite = rand_vec(nn, n as u64);
        let mut nonfinite = rand_vec(nn, 50 + n as u64);
        nonfinite[0] = f64::NAN;
        nonfinite[nn / 3] = f64::INFINITY;
        nonfinite[nn / 2] = f64::NEG_INFINITY;
        nonfinite[nn - 1] = -0.0;
        let init = rand_vec(nn, 90 + n as u64);
        for dense in [deriv_matrix(&gll(n).points), zero_laden] {
            let d = DerivMatrix::new(dense);
            for axis in [Axis::X, Axis::Y, Axis::Z] {
                // Finite data must match to the bit; NaNs only in position.
                let cases: [(&[f64], &str, BitCheck); 2] = [
                    (&finite, "finite", assert_bits),
                    (&nonfinite, "non-finite", assert_bits_or_nan),
                ];
                for (data, label, check) in cases {
                    let tag = format!("{label} {axis:?} n={n}");
                    let (mut a, mut b) = (vec![0.0; nn], vec![0.0; nn]);
                    d.apply(axis, data, &mut a);
                    d.apply_scalar(axis, data, &mut b);
                    check(&tag, &a, &b);
                    saw_nan |= a.iter().any(|v| v.is_nan());
                    let (mut a, mut b) = (init.clone(), init.clone());
                    d.apply_t_add(axis, data, &mut a);
                    d.apply_t_add_scalar(axis, data, &mut b);
                    check(&format!("{tag} transposed"), &a, &b);
                }
            }
        }
    }
    assert!(
        saw_nan,
        "no NaN reached any output: the test lost its teeth"
    );
}

/// SIMD pointwise kernels vs their scalar twins on awkward (non-multiple
/// of the lane width) lengths.
#[test]
fn pointwise_kernels_match_scalar_twins() {
    use rbx::basis::simd;
    for len in [1usize, 3, 4, 7, 65, 1023] {
        let a = rand_vec(len, 5);
        let b = rand_vec(len, 6);
        let w = rand_vec(len, 8);

        let mut y1 = rand_vec(len, 9);
        let mut y2 = y1.clone();
        simd::axpy(1.7, &a, &mut y1);
        simd::axpy_scalar(1.7, &a, &mut y2);
        assert_bits(&format!("axpy len={len}"), &y1, &y2);

        let mut x1 = a.clone();
        let mut x2 = a.clone();
        simd::xpby(&b, 0.4, &mut x1);
        simd::xpby_scalar(&b, 0.4, &mut x2);
        assert_bits(&format!("xpby len={len}"), &x1, &x2);

        let d1 = simd::dot(&a, &b);
        let d2 = simd::dot_scalar(&a, &b);
        assert_eq!(d1.to_bits(), d2.to_bits(), "dot len={len}");

        let w1 = simd::dot3(&a, &b, &w);
        let w2 = simd::dot3_scalar(&a, &b, &w);
        assert_eq!(w1.to_bits(), w2.to_bits(), "dot3 len={len}");

        // The Jacobi preconditioner: every third node masked out.
        let diag: Vec<f64> = w.iter().map(|v| 2.0 + v).collect();
        let mask: Vec<f64> = (0..len).map(|i| f64::from(i % 3 != 1)).collect();
        let mut z1 = vec![9.0; len];
        let mut z2 = vec![9.0; len];
        simd::masked_div(&diag, &mask, &a, &mut z1);
        simd::masked_div_scalar(&diag, &mask, &a, &mut z2);
        assert_bits(&format!("masked_div len={len}"), &z1, &z2);
        for (i, &zi) in z1.iter().enumerate() {
            let want = if mask[i] != 0.0 { a[i] / diag[i] } else { 0.0 };
            assert_eq!(zi.to_bits(), want.to_bits(), "masked_div len={len} i={i}");
        }
    }
}

/// End-to-end replay: two identical short RBC runs (SIMD active, pooled)
/// must agree bitwise — the process-level statement of the pinned lane
/// order plus fixed kernel selection.
#[test]
fn short_run_replays_bitwise_with_simd_active() {
    use rbx::core::{Simulation, SolverConfig};
    let run = || -> Vec<f64> {
        let case = rbx::core::rbc_box_case(2.0, 2, 2, false, 1);
        let cfg = SolverConfig {
            ra: 1e4,
            order: 5, // n = 6, a SIMD-specialized production degree
            dt: 2e-3,
            ic_noise: 1e-2,
            ..Default::default()
        };
        let comm = SingleComm::new();
        let all: Vec<usize> = (0..case.mesh.num_elements()).collect();
        let mut sim = Simulation::new(cfg, &case.mesh, &case.part, all, &comm);
        let pool = WorkerPool::new(4);
        sim.set_pool(&pool);
        sim.init_rbc();
        for s in 0..3 {
            let st = sim.step();
            assert!(st.converged, "step {s}: {st:?}");
        }
        sim.state.t.clone()
    };
    let first = run();
    let second = run();
    assert_bits("replayed run", &first, &second);
}
