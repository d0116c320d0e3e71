// Index-style loops mirror the tensor/lattice math throughout; the
// iterator forms clippy suggests would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

//! # rbx-basis — spectral building blocks
//!
//! Polynomial bases, quadrature rules, interpolation/differentiation
//! matrices, tensor-product kernels and nodal↔modal transforms: the 1-D
//! machinery from which every 3-D spectral-element operator in RBX is
//! assembled by sum factorization.
//!
//! The crate is dependency-free and fully deterministic; all higher layers
//! (mesh metrics, matrix-free operators, preconditioners, compression)
//! build on it.

pub mod dense;
pub mod fused;
pub mod lagrange;
pub mod legendre;
pub mod modal;
pub mod quadrature;
pub mod simd;
pub mod tensor;

pub use dense::{gen_sym_eig, sym_eig, DMat, LuFactors, SingularMatrix};
pub use lagrange::{barycentric_weights, cardinal_row, deriv_matrix, interp_matrix};
pub use legendre::{legendre, legendre_all, legendre_deriv, legendre_norm_sq};
pub use modal::ModalBasis;
pub use quadrature::{gauss, gll, Quadrature};
pub use tensor::{
    tensor_apply3, tensor_apply3_naive, tensor_apply3_scalar, Axis, DerivMatrix, TensorScratch,
};

/// Number of nodes in one direction for polynomial degree `p` (`p + 1`).
#[inline]
pub fn nodes_per_dir(p: usize) -> usize {
    p + 1
}

/// Number of nodes in a 3-D element of polynomial degree `p`: `(p+1)³`.
#[inline]
pub fn nodes_per_element(p: usize) -> usize {
    let n = p + 1;
    n * n * n
}

/// Dealiased ("3/2-rule") 1-D node count for degree `p`: `⌈3(p+1)/2⌉`.
#[inline]
pub fn dealias_nodes(p: usize) -> usize {
    (3 * (p + 1)).div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_helpers() {
        assert_eq!(nodes_per_dir(7), 8);
        assert_eq!(nodes_per_element(7), 512);
        assert_eq!(dealias_nodes(7), 12);
        assert_eq!(dealias_nodes(4), 8);
    }
}
