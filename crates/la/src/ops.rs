//! Vector kernels and the rank-aware inner product.
//!
//! Fields are stored element-locally with shared nodes duplicated, so the
//! global inner product weights each local entry by the inverse of its
//! multiplicity before the cross-rank reduction — the same `1/mult`
//! weighting the production code applies in its Krylov kernels.

use rbx_basis::simd;
use rbx_comm::Communicator;
use rbx_device::{loop_chunk, RangePtr, WorkerPool};
use std::sync::Arc;

/// Vector length below which the pooled dot runs its element loop inline
/// on the caller ([`WorkerPool::for_each_range_min`]). Measured on
/// commodity 4–8 core hosts: a pure bandwidth kernel needs tens of
/// thousands of entries to amortize the fixed ~10 µs pool wake.
const DOT_LEN: usize = 32768;

/// Element-wise layout of a duplicated-node field: which global elements
/// this rank holds (ascending global ids), how many nodes each carries,
/// and the global element count.
///
/// Canonical reductions built on this layout compute one partial sum per
/// *global* element, combine them with an element-wise allreduce, and fold
/// the combined partials sequentially in global-element-id order. Each
/// global element lives on exactly one rank, so every slot of the
/// allreduce adds a value to zeros only (`0 + x` reproduces `x`'s bits
/// exactly), and the final fold visits the same values in the same order
/// on every rank count. The result bits are therefore *independent of the
/// partitioning* — the foundation of the elastic-restart determinism
/// contract (a run restarted on M ranks must be byte-identical to an
/// uninterrupted M-rank run).
#[derive(Debug, Clone)]
pub struct ElemLayout {
    /// Nodes per element for this discretization (`(p+1)³`).
    pub n_per: usize,
    /// Global element id of each local element, ascending.
    pub gids: Vec<usize>,
    /// Global element count across all ranks.
    pub nelem_global: usize,
}

impl ElemLayout {
    /// Build a layout; `gids` must be strictly ascending (the local
    /// element order every production partitioner produces) and below
    /// `nelem_global`. Panics otherwise.
    pub fn new(n_per: usize, gids: Vec<usize>, nelem_global: usize) -> Self {
        assert!(
            gids.windows(2).all(|w| w[0] < w[1]),
            "ElemLayout gids must be strictly ascending"
        );
        assert!(
            gids.iter().all(|&g| g < nelem_global),
            "ElemLayout gids must be below nelem_global"
        );
        Self {
            n_per,
            gids,
            nelem_global,
        }
    }

    /// Local node count (`n_per · |gids|`).
    pub fn n_local(&self) -> usize {
        self.n_per * self.gids.len()
    }

    /// Canonically reduce `k` simultaneous sums. `partial` is a row-major
    /// `k × nelem_global` buffer holding this rank's per-element partial
    /// sums scattered by global element id (zero in every slot this rank
    /// does not own). Returns the `k` rank-count-invariant totals. The
    /// element-wise allreduce runs on every rank count (a no-op on one
    /// rank), so each canonical reduction is one synchronisation point.
    // audit:allow(hot-alloc): k result cells plus comm staging, bounded by vector count not field size
    pub fn fold_sums(&self, partial: &mut [f64], k: usize, comm: &dyn Communicator) -> Vec<f64> {
        debug_assert_eq!(partial.len(), k * self.nelem_global);
        comm.allreduce_sum(partial);
        (0..k)
            .map(|row| {
                let lo = row * self.nelem_global;
                let mut acc = 0.0;
                for &v in &partial[lo..lo + self.nelem_global] {
                    acc += v;
                }
                acc
            })
            .collect()
    }
}

/// `y ← a·x + y` (SIMD-dispatched, fused rounding per element).
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    simd::axpy(a, x, y);
}

/// `y ← x + b·y` (useful for CG direction updates; SIMD-dispatched).
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    simd::xpby(x, b, y);
}

/// `y ← x`.
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// `x ← a·x`.
pub fn scale(a: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= a;
    }
}

/// Element-wise product `y ← x ∘ y` (SIMD-dispatched).
pub fn hadamard(x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    simd::hadamard(x, y);
}

/// Globally consistent inner product over duplicated-node storage. Every
/// reduction is canonical: per-element partials folded in global-element
/// order (see [`ElemLayout`]), so the bits are independent of the thread
/// and rank counts.
pub struct DotProduct {
    /// Inverse multiplicity per local node.
    mult_inv: Vec<f64>,
    /// Element layout the reductions fold over.
    layout: Arc<ElemLayout>,
}

impl DotProduct {
    /// Build from node multiplicities (from
    /// [`rbx_gs::GatherScatter::multiplicity`]) and the element layout of
    /// the same nodes.
    pub fn with_layout(mult: &[f64], layout: Arc<ElemLayout>) -> Self {
        debug_assert_eq!(mult.len(), layout.n_local());
        Self {
            mult_inv: mult.iter().map(|&m| 1.0 / m).collect(),
            layout,
        }
    }

    /// The element layout the reductions fold over.
    pub fn layout(&self) -> &ElemLayout {
        &self.layout
    }

    /// Local length.
    pub fn len(&self) -> usize {
        self.mult_inv.len()
    }

    /// True if the vector space is empty.
    pub fn is_empty(&self) -> bool {
        self.mult_inv.is_empty()
    }

    /// Global `⟨a, b⟩ = Σ_unique a·b`, reduced across ranks canonically:
    /// the result bits are identical for every partitioning of the same
    /// global mesh.
    pub fn dot(&self, a: &[f64], b: &[f64], comm: &dyn Communicator) -> f64 {
        debug_assert_eq!(a.len(), self.mult_inv.len());
        debug_assert_eq!(b.len(), self.mult_inv.len());
        let l = &self.layout;
        // audit:allow(hot-alloc): canonical-reduction scatter buffer is sized by the global element count and owned per call; hoisting it into &self would need interior mutability on a handle shared across the Schwarz overlap threads
        let mut partial = vec![0.0; l.nelem_global];
        for (le, &ge) in l.gids.iter().enumerate() {
            partial[ge] = self.elem_dot(l.n_per, le, a, b);
        }
        l.fold_sums(&mut partial, 1, comm)[0]
    }

    /// Global L² norm.
    pub fn norm(&self, a: &[f64], comm: &dyn Communicator) -> f64 {
        self.dot(a, a, comm).sqrt()
    }

    /// Pooled global inner product: the per-element partials are computed
    /// on the pool and folded by [`ElemLayout::fold_sums`] — the same
    /// values in the same order as [`DotProduct::dot`], so the result bits
    /// equal `dot`'s for every thread count and every rank count.
    pub fn dot_with(
        &self,
        a: &[f64],
        b: &[f64],
        pool: &WorkerPool,
        comm: &dyn Communicator,
    ) -> f64 {
        debug_assert_eq!(a.len(), self.mult_inv.len());
        debug_assert_eq!(b.len(), self.mult_inv.len());
        let l = &self.layout;
        let (np, nel) = (l.n_per, l.gids.len());
        // audit:allow(hot-alloc): canonical-reduction scatter buffer plus the local partials, one per dot; see DotProduct::dot
        let mut buf = vec![0.0; l.nelem_global + nel];
        let (partial, local) = buf.split_at_mut(l.nelem_global);
        let lp = RangePtr::new(local);
        let gate = DOT_LEN.div_ceil(np.max(1));
        pool.for_each_range_min(nel, loop_chunk(nel, pool.threads()), gate, |e0, e1| {
            // SAFETY: the pool hands out disjoint local element ranges.
            let out = unsafe { lp.range_mut(e0, e1) };
            for (le, v) in (e0..e1).zip(out) {
                *v = self.elem_dot(np, le, a, b);
            }
        });
        for (&ge, &v) in l.gids.iter().zip(local.iter()) {
            partial[ge] = v;
        }
        l.fold_sums(partial, 1, comm)[0]
    }

    /// Weighted partial `Σ a·b/mult` over the nodes of local element `le`.
    #[inline]
    fn elem_dot(&self, np: usize, le: usize, a: &[f64], b: &[f64]) -> f64 {
        let lo = le * np;
        simd::dot3(
            &a[lo..lo + np],
            &b[lo..lo + np],
            &self.mult_inv[lo..lo + np],
        )
    }

    /// Global number of unique degrees of freedom (`Σ 1/mult`).
    pub fn unique_dofs(&self, comm: &dyn Communicator) -> f64 {
        let local: f64 = self.mult_inv.iter().sum();
        rbx_comm::allreduce_scalar(comm, local)
    }

    /// Inverse multiplicities (the `1/mult` weights).
    pub fn weights(&self) -> &[f64] {
        &self.mult_inv
    }
}

/// Subtract the weighted mean of `x` so that `Σ B·x = 0`; used to keep
/// pure-Neumann (pressure) iterates orthogonal to the constant null space.
/// `bw` are the diagonal-mass weights times inverse multiplicity. Both
/// sums reduce per element in global-element order, so the subtracted
/// mean — and therefore the projected field — has identical bits for every
/// partitioning of the same global mesh.
pub fn ortho_project_mean(x: &mut [f64], bw: &[f64], layout: &ElemLayout, comm: &dyn Communicator) {
    debug_assert_eq!(x.len(), bw.len());
    debug_assert_eq!(x.len(), layout.n_local());
    let e = layout.nelem_global;
    let np = layout.n_per;
    // audit:allow(hot-alloc): canonical-reduction scatter buffer, one per projection; see DotProduct::dot
    let mut partial = vec![0.0; 2 * e];
    for (le, &ge) in layout.gids.iter().enumerate() {
        let lo = le * np;
        let (mut s0, mut s1) = (0.0, 0.0);
        for i in lo..lo + np {
            s0 += x[i] * bw[i];
            s1 += bw[i];
        }
        partial[ge] = s0;
        partial[e + ge] = s1;
    }
    let sums = layout.fold_sums(&mut partial, 2, comm);
    let mean = sums[0] / sums[1];
    for xi in x.iter_mut() {
        *xi -= mean;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbx_comm::SingleComm;

    /// One rank holding all `nelem` elements of `n_per` nodes each.
    fn whole(n_per: usize, nelem: usize) -> Arc<ElemLayout> {
        Arc::new(ElemLayout::new(n_per, (0..nelem).collect(), nelem))
    }

    #[test]
    fn axpy_and_xpby() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, vec![7.0, 14.0, 21.0]);
    }

    #[test]
    fn dot_weights_shared_nodes() {
        // Two duplicated nodes with mult 2 count once.
        let mult = vec![1.0, 2.0, 2.0];
        let dp = DotProduct::with_layout(&mult, whole(1, 3));
        let comm = SingleComm::new();
        let a = vec![3.0, 4.0, 4.0];
        // ⟨a,a⟩ = 9 + 16/2 + 16/2 = 25.
        assert!((dp.dot(&a, &a, &comm) - 25.0).abs() < 1e-14);
        assert!((dp.norm(&a, &comm) - 5.0).abs() < 1e-14);
        assert!((dp.unique_dofs(&comm) - 2.0).abs() < 1e-14);
    }

    #[test]
    fn ortho_projection_removes_mean() {
        let comm = SingleComm::new();
        let bw = vec![1.0, 2.0, 1.0];
        let mut x = vec![1.0, 1.0, 5.0];
        ortho_project_mean(&mut x, &bw, &whole(1, 3), &comm);
        let weighted: f64 = x.iter().zip(&bw).map(|(a, b)| a * b).sum();
        assert!(weighted.abs() < 1e-13);
    }

    fn dot_operands(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a = (0..n)
            .map(|i| ((i * 29 % 101) as f64) * 1e-2 - 0.5)
            .collect();
        let b = (0..n)
            .map(|i| ((i * 43 % 97) as f64) * 1e-2 - 0.4)
            .collect();
        (a, b)
    }

    #[test]
    fn pooled_dot_deterministic_across_thread_counts() {
        let comm = SingleComm::new();
        let n = 5417;
        let mult = vec![1.0; n];
        let dp = DotProduct::with_layout(&mult, whole(1, n));
        let (a, b) = dot_operands(n);
        let serial = dp.dot(&a, &b, &comm);
        for threads in [1usize, 4, 7] {
            let pooled = dp.dot_with(&a, &b, &WorkerPool::new(threads), &comm);
            assert_eq!(serial.to_bits(), pooled.to_bits(), "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn layout_rejects_duplicate_gids() {
        ElemLayout::new(1, vec![0, 2, 2], 3);
    }

    #[test]
    #[should_panic(expected = "below nelem_global")]
    fn layout_rejects_out_of_range_gids() {
        ElemLayout::new(1, vec![0, 3], 3);
    }

    #[test]
    #[should_panic]
    fn pooled_dot_panics_on_a_malformed_layout() {
        // Bypass `ElemLayout::new`: an out-of-range gid must hit a
        // bounds check, not an unchecked write.
        let layout = Arc::new(ElemLayout {
            n_per: 2,
            gids: vec![0, 5],
            nelem_global: 2,
        });
        let dp = DotProduct::with_layout(&[1.0; 4], layout);
        let a = [1.0; 4];
        dp.dot_with(&a, &a, &WorkerPool::new(2), &SingleComm::new());
    }

    #[test]
    fn dot_grain_gate_decides_on_the_benchmark_shapes() {
        // Whether the pooled dot wakes the pool on the two benchmark
        // cases: 20 elements at p = 5 run inline, 64 elements at p = 7
        // (exactly DOT_LEN / 512 nodes) dispatch.
        let grained = |p: usize, nelem: usize| {
            let n_per = (p + 1).pow(3);
            let n = n_per * nelem;
            let layout = Arc::new(ElemLayout::new(n_per, (0..nelem).collect(), nelem));
            let dp = DotProduct::with_layout(&vec![1.0; n], layout);
            let (a, b) = dot_operands(n);
            let pool = WorkerPool::new(2);
            dp.dot_with(&a, &b, &pool, &SingleComm::new());
            let stats = pool.stats();
            assert_eq!(stats.grained + stats.dispatches, 1);
            stats.grained == 1
        };
        assert!(grained(5, 20));
        assert_eq!(64 * 512, DOT_LEN);
        assert!(!grained(7, 64));
    }

    #[test]
    fn canonical_pooled_dot_equals_dot_bitwise() {
        let comm = SingleComm::new();
        let (n_per, nelem) = (27, 41);
        let n = n_per * nelem;
        let mult: Vec<f64> = (0..n).map(|i| 1.0 + (i % 4) as f64).collect();
        let layout = Arc::new(ElemLayout::new(n_per, (0..nelem).collect(), nelem));
        let dp = DotProduct::with_layout(&mult, layout);
        let (a, b) = dot_operands(n);
        let serial = dp.dot(&a, &b, &comm);
        for threads in [1usize, 4, 7] {
            let pooled = dp.dot_with(&a, &b, &WorkerPool::new(threads), &comm);
            assert_eq!(serial.to_bits(), pooled.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn canonical_pooled_dot_is_rank_count_invariant() {
        let (n_per, nelem) = (8, 13);
        let n = n_per * nelem;
        let (a, b) = dot_operands(n);
        let whole = {
            let layout = Arc::new(ElemLayout::new(n_per, (0..nelem).collect(), nelem));
            let dp = DotProduct::with_layout(&vec![1.0; n], layout);
            dp.dot(&a, &b, &SingleComm::new())
        };
        let (a_ref, b_ref) = (&a, &b);
        let per_rank = rbx_comm::run_on_ranks(3, move |comm| {
            // Interleaved ownership: rank r holds elements r, r+3, ….
            let gids: Vec<usize> = (comm.rank()..nelem).step_by(3).collect();
            let slice = |v: &[f64]| -> Vec<f64> {
                gids.iter()
                    .flat_map(|&g| v[g * n_per..(g + 1) * n_per].to_vec())
                    .collect()
            };
            let (la, lb) = (slice(a_ref), slice(b_ref));
            let layout = Arc::new(ElemLayout::new(n_per, gids.clone(), nelem));
            let dp = DotProduct::with_layout(&vec![1.0; la.len()], layout);
            dp.dot_with(&la, &lb, &WorkerPool::new(2), comm)
        });
        for (r, v) in per_rank.iter().enumerate() {
            assert_eq!(v.to_bits(), whole.to_bits(), "rank {r}");
        }
    }

    #[test]
    fn hadamard_masks() {
        let m = vec![1.0, 0.0, 1.0];
        let mut y = vec![5.0, 6.0, 7.0];
        hadamard(&m, &mut y);
        assert_eq!(y, vec![5.0, 0.0, 7.0]);
    }

    #[test]
    fn canonical_dot_matches_legacy_value() {
        let comm = SingleComm::new();
        let n_per = 8;
        let nelem = 5;
        let n = n_per * nelem;
        let mult = vec![1.0; n];
        let dp_canon = DotProduct::with_layout(&mult, whole(n_per, nelem));
        let a: Vec<f64> = (0..n)
            .map(|i| ((i * 29 % 101) as f64) * 1e-2 - 0.5)
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 43 % 97) as f64) * 1e-2 - 0.4)
            .collect();
        let legacy: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let canon = dp_canon.dot(&a, &b, &comm);
        assert!((legacy - canon).abs() <= 1e-12 * legacy.abs().max(1.0));
    }

    #[test]
    fn canonical_ortho_removes_weighted_mean() {
        let comm = SingleComm::new();
        let n_per = 4;
        let nelem = 3;
        let n = n_per * nelem;
        let layout = ElemLayout::new(n_per, (0..nelem).collect(), nelem);
        let bw: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        ortho_project_mean(&mut x, &bw, &layout, &comm);
        let weighted: f64 = x.iter().zip(&bw).map(|(a, b)| a * b).sum();
        assert!(weighted.abs() < 1e-12);
    }
}
