//! # rsp-pram — CREW-PRAM-style parallel primitives
//!
//! The paper's machine model is the CREW PRAM.  Real hardware is a
//! shared-memory multicore, and Brent's theorem (Theorem 1 of the paper) is
//! exactly the statement that any algorithm doing `W` operations in depth `T`
//! can be run by `p` processors in `O(W/p + T)` time — which is what a
//! work-stealing scheduler such as rayon delivers.  A pool of one worker is
//! therefore the sequential schedule of the same code, not a second
//! algorithm.  This crate provides the PRAM building blocks the construction
//! and path reporting use, implemented on top of rayon:
//!
//! * [`euler`] — Euler-tour tree computations (Tarjan–Vishkin, ref [36]):
//!   depths and root paths in rooted forests;
//! * [`level_ancestor`] — level-ancestor queries (Berkman–Vishkin, ref [5]),
//!   realised with jump pointers (`O(n log n)` preprocessing, `O(log n)`
//!   query; the substitution is documented in DESIGN.md §3);
//! * [`pool`] — run a closure on a pool of exactly `p` workers (the
//!   one-worker sequential arms and the speedup experiments, E9/E11).

pub mod euler;
pub mod level_ancestor;
pub mod pool;

pub use euler::Forest;
pub use level_ancestor::LevelAncestor;
