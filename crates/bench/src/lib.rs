//! # esr-bench — the paper's evaluation, regenerated
//!
//! Every table and figure of §7–§8 has a `cargo bench` target that
//! re-runs the experiment on the deterministic simulator and prints the
//! same rows/series the paper plots (plus an ASCII rendering of the
//! curve shapes and machine-readable CSV/JSON under
//! `target/figures/`). Absolute numbers differ from the 1992 DECstation
//! testbed, but the *shapes* — who wins, the thrashing-point shift, the
//! intermediate-OIL peak — are the reproduction targets; see
//! EXPERIMENTS.md for the paper-vs-measured record.
//!
//! [`scenarios`] pins the canonical operating points: every bench and
//! the `figures` binary pull their configuration from here so the
//! numbers in EXPERIMENTS.md and the bench output can never drift
//! apart.
//!
//! Everything here runs in virtual time, or is a Criterion microbench
//! of the kernel or the transaction language. Wall-clock performance
//! of the real daemon is measured by the standalone `benchmark/` crate
//! at the repository root and nowhere else.

pub mod emit;
pub mod runners;
pub mod scenarios;

pub use emit::emit_figure;
pub use runners::{run_point, sweep_mpl, thrashing_point};
pub use scenarios::*;
