//! # `pulp-hd-audit` — repo-native correctness tooling
//!
//! Two gates over the workspace's trickiest surfaces:
//!
//! * [`lint`] — a source-level pass enforcing the invariants the unsafe
//!   SIMD kernels, the atomics-based telemetry/shutdown paths, and the
//!   panic-intolerant serving layer rely on (`// SAFETY:`,
//!   `// ORDERING:`, `// INFALLIBLE:` annotations, and the
//!   differential-twin registry in `crates/hdc/src/twins.rs`).
//! * [`fuzz`] — a seeded deterministic differential fuzzer running every
//!   registered kernel at every SIMD level the CPU has against a naive
//!   reference at adversarial widths,
//!   the packed counter bundler against per-bit counting, and the wire
//!   decoder against mutated frames. Failures replay from
//!   `(family, seed)` alone.
//!
//! Both run in CI via the `pulp-hd-audit` binary (`audit-lint` gate and
//! the chaos job's fuzz step); see the workspace README's "Correctness
//! tooling" section.

#![warn(missing_docs)]

pub mod fuzz;
pub mod lint;
pub mod rng;
