#![warn(missing_docs)]

//! # rsp-monge — (min,+) matrices, the Monge property and fast Monge products
//!
//! Section 2 of the paper (Lemmas 1–5) builds the "conquer" machinery of the
//! divide-and-conquer on matrix multiplication in the `(min, +)` closed
//! semiring:
//!
//! ```text
//! (M' * M'')(i, j) = min_k { M'(i, k) + M''(k, j) }
//! ```
//!
//! When the factor matrices are **Monge**
//! (`M(i,j) + M(i+1,j+1) <= M(i,j+1) + M(i+1,j)`), the product can be
//! computed with `O(|X||Y|)` work instead of `O(|X||Z||Y|)` (Lemma 3), the
//! product is again Monge, and padding / partitioning arguments extend this
//! to unequal dimensions (Lemma 4) and to matrices that are only piecewise
//! Monge (Lemma 5).  Path-length matrices between two disjoint boundary
//! pieces of a convex clear region are Monge (Lemma 1), which is exactly why
//! the paper's boundary-partitioning scheme works.
//!
//! This crate provides:
//!
//! * [`MinPlusMatrix`] — a dense `i64` matrix with an `INF` sentinel;
//! * [`monge`] — the Monge predicate and counter-example search;
//! * [`smawk`] — SMAWK row-minima of totally monotone matrices;
//! * [`multiply`] — the naive product, the SMAWK-based Monge product of
//!   Lemma 3 and the general brute-force product, the last two fanned out
//!   over the rayon pool;
//! * [`view`] — borrowing submatrix views and the [`MatrixAccess`] trait the
//!   predicates and products are generic over;
//! * [`cache`] — [`BlockCache`], the byte-budgeted LRU block cache behind
//!   the implicit distance store of `rsp-core`.

pub mod cache;
pub mod matrix;
pub mod monge;
pub mod multiply;
pub mod smawk;
pub mod view;

pub use cache::{BlockCache, BlockCacheStats};
pub use matrix::MinPlusMatrix;
pub use monge::{is_monge, monge_violation};
pub use multiply::{min_plus_naive, min_plus_parallel};
pub use view::{MatrixAccess, SubmatrixView};
