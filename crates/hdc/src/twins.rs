//! The differential-twin registry: every `#[target_feature]` kernel in
//! [`crate::simd`], with the levels it is specialized at and the
//! portable reference it must match bit for bit.
//!
//! This registry is machine-checked from two directions:
//!
//! * `pulp-hd-audit lint` parses the workspace for `#[target_feature]`
//!   functions and fails if one is not registered **at its level** —
//!   a new SIMD kernel cannot land without declaring its portable twin
//!   (or declaring itself a helper that is only reachable through a
//!   registered kernel).
//! * `pulp-hd-audit fuzz` iterates [`KERNEL_TWINS`] and runs a seeded
//!   differential fuzzer per entry (every available level vs portable
//!   vs an independent naive reference, at adversarial widths). It
//!   fails if an entry has no fuzzer, or if its family did not run one
//!   of the entry's levels that the CPU has — so registration here is
//!   a commitment to differential coverage, not just a name in a list.
//!
//! **Levels.** A level is named by [`Simd::name`](crate::simd::Simd::name)
//! and is the module its specializations live in: `crate::simd::avx2`
//! or `crate::simd::avx512`. The lint takes a function's level from
//! the innermost inline `mod` around it (or, outside one, from its
//! file's stem), so an `avx512::hamming` is registered only by
//! `"avx512"` in `hamming`'s [`KernelTwin::levels`], never by the AVX2
//! entry's name. Kernels have a twin in `crate::simd::portable`, which
//! is not a level here: it has no `#[target_feature]` functions.
//!
//! **Kernel names are frozen.** The benchmark times every entry:
//! perfbench's `layers::time_kernel` matches on each `kernel` name and
//! panics on any it does not know, and `BENCHMARK.json` lists a
//! `simd.<kernel>.<level>.ns` row for each entry at the levels
//! perfbench times. So adding, renaming or reordering an entry is a
//! benchmark change, and specializing a kernel at a new level adds to
//! its `levels`, never a second entry of the same name.

/// One registered SIMD kernel: its `#[target_feature]`
/// specializations and the portable reference they are differentially
/// fuzzed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTwin {
    /// Bare name of the `#[target_feature]` kernel function, the same
    /// at every level. Frozen: perfbench keys its timings on it.
    pub kernel: &'static str,
    /// Bare name of its portable reference (`crate::simd::portable`).
    pub twin: &'static str,
    /// The levels with a `#[target_feature]` function of this name,
    /// each the module it lives in (`crate::simd::<level>`).
    pub levels: &'static [&'static str],
}

/// `#[target_feature]` helpers of one level: functions that are not
/// kernels in their own right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelHelpers {
    /// The level, the module the helpers live in.
    pub level: &'static str,
    /// Bare names of the helpers.
    pub names: &'static [&'static str],
}

/// Every dispatched SIMD kernel and its portable twin. Order matches
/// the dispatch methods on [`Simd`](crate::simd::Simd).
pub const KERNEL_TWINS: &[KernelTwin] = &[
    KernelTwin {
        kernel: "xor_into",
        twin: "xor_into",
        levels: &["avx2"],
    },
    KernelTwin {
        kernel: "popcount",
        twin: "popcount",
        levels: &["avx2"],
    },
    KernelTwin {
        kernel: "hamming",
        twin: "hamming",
        levels: &["avx2", "avx512"],
    },
    KernelTwin {
        kernel: "hamming_bounded",
        twin: "hamming_bounded",
        levels: &["avx2"],
    },
    KernelTwin {
        kernel: "hamming_threshold",
        twin: "hamming_threshold",
        levels: &["avx2"],
    },
    KernelTwin {
        kernel: "or_into",
        twin: "or_into",
        levels: &["avx2"],
    },
    KernelTwin {
        kernel: "maj3_into",
        twin: "maj3_into",
        levels: &["avx2", "avx512"],
    },
    KernelTwin {
        kernel: "maj5_into",
        twin: "maj5_into",
        levels: &["avx2", "avx512"],
    },
    KernelTwin {
        kernel: "maj5_tie_into",
        twin: "maj5_tie_into",
        levels: &["avx2", "avx512"],
    },
    KernelTwin {
        kernel: "ripple_majority_into",
        twin: "ripple_majority_from",
        levels: &["avx2", "avx512"],
    },
    KernelTwin {
        kernel: "csa_step",
        twin: "csa_step",
        levels: &["avx2", "avx512"],
    },
    KernelTwin {
        kernel: "counter_majority_into",
        twin: "counter_majority_from",
        levels: &["avx2", "avx512"],
    },
    KernelTwin {
        kernel: "xor_rotated_into",
        twin: "xor_rotated_into",
        levels: &["avx2"],
    },
];

/// `#[target_feature]` helper functions that are not kernels in their
/// own right, by level: they are only reachable through the registered
/// kernels above, whose differential fuzzers therefore cover them.
/// Listing a helper here exempts it from the twin requirement at its
/// level — the audit lint still fails on any `#[target_feature]`
/// function registered in neither list at the level it sits in. Each
/// SIMD level's `Lane` impl has one: `wide_vote`, the vote network's
/// out-of-line spatial vote for windows of six channels or more.
pub const KERNEL_HELPERS: &[KernelHelpers] = &[
    KernelHelpers {
        level: "avx2",
        names: &["popcnt_epi64", "hsum_epi64", "wide_vote"],
    },
    KernelHelpers {
        level: "avx512",
        names: &["wide_vote"],
    },
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
        let mut helpers_seen = std::collections::HashSet::new();
        for helpers in KERNEL_HELPERS {
            for helper in helpers.names {
                assert!(!seen.contains(helper), "helper {helper} shadows a kernel");
                assert!(
                    helpers_seen.insert((helpers.level, helper)),
                    "helper {helper} listed twice at {}",
                    helpers.level
                );
            }
        }
    }

    /// Every registered level is a SIMD level's name, so a level the
    /// lint checks is one the fuzzer can run.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn registry_levels_name_simd_levels() {
        use crate::simd::Simd;
        let names = [Simd::Avx2.name(), Simd::Avx512.name()];
        let levels = KERNEL_TWINS
            .iter()
            .flat_map(|twin| twin.levels.iter())
            .chain(KERNEL_HELPERS.iter().map(|helpers| &helpers.level));
        for level in levels {
            assert!(names.contains(level), "unknown level {level}");
        }
        for twin in KERNEL_TWINS {
            assert!(!twin.levels.is_empty(), "{} has no level", twin.kernel);
        }
    }
}
