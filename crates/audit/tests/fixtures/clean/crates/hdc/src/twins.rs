//! Fixture twin registry: mirrors the shape of the real
//! `crates/hdc/src/twins.rs` just enough for the lint to find the
//! kernel and the helper below at their levels.

pub const KERNEL_TWINS: &[KernelTwin] = &[KernelTwin {
    kernel: "good_kernel",
    twin: "good_kernel",
    levels: &["avx2", "avx512"],
}];

pub const KERNEL_HELPERS: &[KernelHelpers] = &[KernelHelpers {
    level: "avx512",
    names: &["masked_load"],
}];
