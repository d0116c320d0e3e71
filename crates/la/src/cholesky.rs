//! Sparse Cholesky factorisation under a nested-dissection ordering.
//!
//! The coarse level of the Schwarz preconditioner is small (hundreds to a
//! few thousand unknowns) and never changes during a run, so it is
//! factored once at set-up and every preconditioner apply is one forward
//! and one back substitution. The factorisation is the up-looking
//! algorithm of Davis, *Direct Methods for Sparse Linear Systems* (SIAM
//! 2006, §4): the elimination tree gives the pattern of each row of `L`,
//! so the symbolic pass sizes `L` exactly and the numeric pass fills it in
//! place. The fill that the factor carries is controlled by the ordering:
//! [`nested_dissection`] numbers the unknowns of an element mesh by
//! recursive coordinate bisection of its elements, separators last.

/// Marks "no parent" in the elimination tree.
const NONE: usize = usize::MAX;

/// A symmetric matrix in compressed-sparse-column form, upper triangle
/// only: column `k` lists the rows `i ≤ k` of its nonzeros (each at most
/// once, in any order). Unknowns are already in elimination order.
#[derive(Debug, Clone)]
pub struct UpperCsc {
    /// Matrix dimension.
    pub n: usize,
    /// Column offsets into `rows`/`vals`, `n + 1` entries.
    pub colptr: Vec<usize>,
    /// Row index of each stored entry.
    pub rows: Vec<usize>,
    /// Value of each stored entry.
    pub vals: Vec<f64>,
}

/// Cholesky factor `L` of a symmetric positive-definite matrix `A = L Lᵀ`,
/// stored by columns with the diagonal entry first in each column.
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    n: usize,
    colptr: Vec<usize>,
    rows: Vec<usize>,
    vals: Vec<f64>,
}

/// Elimination tree of `a` (Liu's algorithm with path compression).
fn etree(a: &UpperCsc) -> Vec<usize> {
    let mut parent = vec![NONE; a.n];
    let mut ancestor = vec![NONE; a.n];
    for k in 0..a.n {
        for &row in &a.rows[a.colptr[k]..a.colptr[k + 1]] {
            let mut i = row;
            while i != NONE && i < k {
                let next = ancestor[i];
                ancestor[i] = k;
                if next == NONE {
                    parent[i] = k;
                }
                i = next;
            }
        }
    }
    parent
}

/// Pattern of row `k` of `L` (without the diagonal): the union of the
/// elimination-tree paths from the nonzeros of column `k` of `a` up to `k`.
/// Written to `stack[top..]` in topological order (every entry after its
/// tree descendants); returns `top`. `flag` marks visited nodes with `k`.
fn ereach(
    a: &UpperCsc,
    k: usize,
    parent: &[usize],
    stack: &mut [usize],
    path: &mut Vec<usize>,
    flag: &mut [usize],
) -> usize {
    let mut top = a.n;
    flag[k] = k;
    for &row in &a.rows[a.colptr[k]..a.colptr[k + 1]] {
        let mut i = row;
        path.clear();
        while flag[i] != k {
            path.push(i);
            flag[i] = k;
            i = parent[i];
        }
        while let Some(i) = path.pop() {
            top -= 1;
            stack[top] = i;
        }
    }
    top
}

impl SparseCholesky {
    /// Factor `a`. Fails with the column whose pivot is not positive when
    /// `a` is not positive definite.
    pub fn factor(a: &UpperCsc) -> Result<Self, usize> {
        let n = a.n;
        let parent = etree(a);
        let mut stack = vec![0usize; n];
        let mut path = Vec::new();
        let mut flag = vec![NONE; n];

        // Symbolic pass: column counts of L from the row patterns.
        let mut count = vec![1usize; n];
        for k in 0..n {
            let top = ereach(a, k, &parent, &mut stack, &mut path, &mut flag);
            for &i in &stack[top..] {
                count[i] += 1;
            }
        }
        let mut colptr = Vec::with_capacity(n + 1);
        colptr.push(0);
        for c in &count {
            colptr.push(colptr[colptr.len() - 1] + c);
        }
        let nnz = colptr[n];
        let mut rows = vec![0; nnz];
        let mut vals = vec![0.0; nnz];

        // Numeric pass, one row of L at a time: solve L₁₁ l = a₁₂ over
        // the row pattern, then the diagonal from what is left.
        let mut next = colptr[..n].to_vec();
        let mut x = vec![0.0; n];
        flag.fill(NONE);
        for k in 0..n {
            let top = ereach(a, k, &parent, &mut stack, &mut path, &mut flag);
            for p in a.colptr[k]..a.colptr[k + 1] {
                x[a.rows[p]] = a.vals[p];
            }
            let mut d = x[k];
            x[k] = 0.0;
            for &i in &stack[top..] {
                let lki = x[i] / vals[colptr[i]];
                x[i] = 0.0;
                let (lo, hi) = (colptr[i] + 1, next[i]);
                for (&row, &l) in rows[lo..hi].iter().zip(&vals[lo..hi]) {
                    x[row] -= l * lki;
                }
                d -= lki * lki;
                rows[next[i]] = k;
                vals[next[i]] = lki;
                next[i] += 1;
            }
            // A NaN pivot is rejected too.
            if d.is_nan() || d <= 0.0 {
                return Err(k);
            }
            rows[next[k]] = k;
            vals[next[k]] = d.sqrt();
            next[k] += 1;
        }
        Ok(Self {
            n,
            colptr,
            rows,
            vals,
        })
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entries of `L`, diagonal included.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Solve `A x = b` in place: `x` holds `b` on entry.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        // Forward: L y = b, by columns.
        for j in 0..self.n {
            let (lo, hi) = (self.colptr[j], self.colptr[j + 1]);
            let xj = x[j] / self.vals[lo];
            x[j] = xj;
            for (&row, &l) in self.rows[lo + 1..hi].iter().zip(&self.vals[lo + 1..hi]) {
                x[row] -= l * xj;
            }
        }
        // Back: Lᵀ x = y, by rows of Lᵀ (= columns of L).
        for j in (0..self.n).rev() {
            let (lo, hi) = (self.colptr[j], self.colptr[j + 1]);
            let mut s = x[j];
            for (&row, &l) in self.rows[lo + 1..hi].iter().zip(&self.vals[lo + 1..hi]) {
                s -= l * x[row];
            }
            x[j] = s / self.vals[lo];
        }
    }
}

/// Nested-dissection elimination order of the nodes of an element mesh.
///
/// `elem_nodes` holds `n_per` node ids (below `n_nodes`) per element and
/// `centroids` one point per element. The elements are split in two at
/// the median of their centroids along the axis of largest extent; the
/// nodes that both halves touch form the separator, which is numbered
/// after both halves, and each half is dissected the same way down to
/// single elements. Returns `order` with `order[pos]` the node eliminated
/// at position `pos`. Ties break on element id, so the order is a
/// function of the mesh alone.
pub fn nested_dissection(
    centroids: &[[f64; 3]],
    elem_nodes: &[usize],
    n_per: usize,
    n_nodes: usize,
) -> Vec<usize> {
    struct Dissect<'a> {
        centroids: &'a [[f64; 3]],
        elem_nodes: &'a [usize],
        n_per: usize,
        /// Node already numbered or set aside for an enclosing separator.
        taken: Vec<bool>,
        /// Which split last saw the node in its left half.
        seen: Vec<usize>,
        splits: usize,
        order: Vec<usize>,
    }

    impl Dissect<'_> {
        fn run(&mut self, elems: &mut [usize]) {
            if elems.len() <= 1 {
                for &e in elems.iter() {
                    for i in 0..self.n_per {
                        let v = self.elem_nodes[e * self.n_per + i];
                        if !self.taken[v] {
                            self.taken[v] = true;
                            self.order.push(v);
                        }
                    }
                }
                return;
            }
            let mut lo = [f64::INFINITY; 3];
            let mut hi = [f64::NEG_INFINITY; 3];
            for &e in elems.iter() {
                for d in 0..3 {
                    lo[d] = lo[d].min(self.centroids[e][d]);
                    hi[d] = hi[d].max(self.centroids[e][d]);
                }
            }
            let mut axis = 0;
            for d in 1..3 {
                if hi[d] - lo[d] > hi[axis] - lo[axis] {
                    axis = d;
                }
            }
            let c = self.centroids;
            elems.sort_unstable_by(|&a, &b| c[a][axis].total_cmp(&c[b][axis]).then(a.cmp(&b)));
            let (left, right) = elems.split_at_mut(elems.len() / 2);

            self.splits += 1;
            let stamp = self.splits;
            for &e in left.iter() {
                for i in 0..self.n_per {
                    let v = self.elem_nodes[e * self.n_per + i];
                    self.seen[v] = stamp;
                }
            }
            let mut separator = Vec::new();
            for &e in right.iter() {
                for i in 0..self.n_per {
                    let v = self.elem_nodes[e * self.n_per + i];
                    if self.seen[v] == stamp && !self.taken[v] {
                        self.taken[v] = true;
                        separator.push(v);
                    }
                }
            }
            self.run(left);
            self.run(right);
            self.order.extend_from_slice(&separator);
        }
    }

    let n_elems = centroids.len();
    debug_assert_eq!(elem_nodes.len(), n_elems * n_per);
    let mut d = Dissect {
        centroids,
        elem_nodes,
        n_per,
        taken: vec![false; n_nodes],
        seen: vec![0; n_nodes],
        splits: 0,
        order: Vec::with_capacity(n_nodes),
    };
    let mut elems: Vec<usize> = (0..n_elems).collect();
    d.run(&mut elems);
    // Nodes no element touches (none in a valid numbering) go last.
    for v in 0..n_nodes {
        if !d.taken[v] {
            d.order.push(v);
        }
    }
    d.order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D Laplacian (tridiagonal 2, −1) plus `shift` on the diagonal.
    fn tridiag(n: usize, shift: f64) -> UpperCsc {
        let mut colptr = vec![0];
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        for k in 0..n {
            if k > 0 {
                rows.push(k - 1);
                vals.push(-1.0);
            }
            rows.push(k);
            vals.push(2.0 + shift);
            colptr.push(rows.len());
        }
        UpperCsc {
            n,
            colptr,
            rows,
            vals,
        }
    }

    fn matvec(a: &UpperCsc, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; a.n];
        for k in 0..a.n {
            for p in a.colptr[k]..a.colptr[k + 1] {
                let i = a.rows[p];
                y[i] += a.vals[p] * x[k];
                if i != k {
                    y[k] += a.vals[p] * x[i];
                }
            }
        }
        y
    }

    #[test]
    fn tridiagonal_factor_has_no_fill_and_solves() {
        let a = tridiag(50, 0.0);
        let l = SparseCholesky::factor(&a).unwrap();
        assert_eq!(l.nnz(), 2 * 50 - 1);
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut x = matvec(&a, &x_true);
        l.solve_in_place(&mut x);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-11, "{a} vs {b}");
        }
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let a = tridiag(5, -3.0);
        assert_eq!(SparseCholesky::factor(&a).unwrap_err(), 0);
    }

    #[test]
    fn dense_arrow_fills_in() {
        // Column 0 couples to every other unknown: eliminating it first
        // fills the whole trailing block.
        let n = 6;
        let mut colptr = vec![0];
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        for k in 0..n {
            if k > 0 {
                rows.push(0);
                vals.push(1.0);
            }
            rows.push(k);
            vals.push(10.0);
            colptr.push(rows.len());
        }
        let a = UpperCsc {
            n,
            colptr,
            rows,
            vals,
        };
        let l = SparseCholesky::factor(&a).unwrap();
        assert_eq!(l.nnz(), n * (n + 1) / 2);
        let x_true: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
        let mut x = matvec(&a, &x_true);
        l.solve_in_place(&mut x);
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn dissection_numbers_every_node_once_separators_last() {
        // A row of four 1-D two-node elements: nodes 0-1-2-3-4.
        let centroids = [[0.5, 0., 0.], [1.5, 0., 0.], [2.5, 0., 0.], [3.5, 0., 0.]];
        let nodes = [0, 1, 1, 2, 2, 3, 3, 4];
        let order = nested_dissection(&centroids, &nodes, 2, 5);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        // The middle node separates the two halves and goes last.
        assert_eq!(*order.last().unwrap(), 2);
    }
}
