//! The differential-twin registry: every `#[target_feature]` kernel in
//! [`crate::simd`], paired with the portable reference it must match
//! bit for bit.
//!
//! This registry is machine-checked from two directions:
//!
//! * `pulp-hd-audit lint` parses the workspace for `#[target_feature]`
//!   functions and fails if any of them is missing from this file — a
//!   new SIMD kernel cannot land without declaring its portable twin
//!   (or declaring itself a helper that is only reachable through a
//!   registered kernel).
//! * `pulp-hd-audit fuzz` iterates [`KERNEL_TWINS`] and runs a seeded
//!   differential fuzzer per entry (AVX2 vs portable vs an independent
//!   naive reference, at adversarial widths), and fails if an entry has
//!   no fuzzer — so registration here is a commitment to differential
//!   coverage, not just a name in a list.
//!
//! Names are the bare function names of the `#[target_feature]`
//! specializations in `crate::simd::avx2`; twins name the matching
//! portable reference. The dispatch methods on
//! [`Simd`](crate::simd::Simd) are the public seam through which both
//! sides are callable for side-by-side testing.
//!
//! The benchmark times every entry too: perfbench's
//! `layers::time_kernel` names each `KERNEL_TWINS` kernel and panics on
//! any it does not know, and `BENCHMARK.json` lists a
//! `simd.<kernel>.<level>.ns` row for each. So adding or renaming an
//! entry is a benchmark change.

/// One registered SIMD kernel: the `#[target_feature]` specialization
/// and the portable reference it is differentially fuzzed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTwin {
    /// Bare name of the `#[target_feature]` kernel function
    /// (`crate::simd::avx2`).
    pub kernel: &'static str,
    /// Bare name of its portable reference (`crate::simd::portable`).
    pub twin: &'static str,
}

/// Every dispatched SIMD kernel and its portable twin. Order matches
/// the dispatch methods on [`Simd`](crate::simd::Simd).
pub const KERNEL_TWINS: &[KernelTwin] = &[
    KernelTwin {
        kernel: "xor_into",
        twin: "xor_into",
    },
    KernelTwin {
        kernel: "popcount",
        twin: "popcount",
    },
    KernelTwin {
        kernel: "hamming",
        twin: "hamming",
    },
    KernelTwin {
        kernel: "hamming_bounded",
        twin: "hamming_bounded",
    },
    KernelTwin {
        kernel: "hamming_threshold",
        twin: "hamming_threshold",
    },
    KernelTwin {
        kernel: "or_into",
        twin: "or_into",
    },
    KernelTwin {
        kernel: "maj3_into",
        twin: "maj3_into",
    },
    KernelTwin {
        kernel: "maj5_into",
        twin: "maj5_into",
    },
    KernelTwin {
        kernel: "maj5_tie_into",
        twin: "maj5_tie_into",
    },
    KernelTwin {
        kernel: "ripple_majority_into",
        twin: "ripple_majority_from",
    },
    KernelTwin {
        kernel: "csa_step",
        twin: "csa_step",
    },
    KernelTwin {
        kernel: "counter_majority_into",
        twin: "counter_majority_from",
    },
    KernelTwin {
        kernel: "xor_rotated_into",
        twin: "xor_rotated_into",
    },
];

/// `#[target_feature]` helper functions that are not kernels in their
/// own right: they are only reachable through the registered kernels
/// above, whose differential fuzzers therefore cover them. Listing a
/// helper here exempts it from the twin requirement — the audit lint
/// still fails on any `#[target_feature]` function named in neither
/// list.
pub const KERNEL_HELPERS: &[&str] = &[
    "loadu",
    "storeu",
    "popcnt_epi64",
    "hsum_epi64",
    "full_add_v",
    "maj5_v",
    "vote_lanes",
    "wide_vote_v",
    "half_add_from_v",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_no_duplicate_kernels() {
        let mut seen = std::collections::HashSet::new();
        for twin in KERNEL_TWINS {
            assert!(seen.insert(twin.kernel), "duplicate kernel {}", twin.kernel);
        }
        for helper in KERNEL_HELPERS {
            assert!(seen.insert(helper), "helper {helper} shadows a kernel");
        }
    }
}
