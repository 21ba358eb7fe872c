//! Fixture twin registry: registers `good_kernel` at the AVX2 level
//! only, in the shape of the real `crates/hdc/src/twins.rs`.

pub const KERNEL_TWINS: &[KernelTwin] = &[KernelTwin {
    kernel: "good_kernel",
    twin: "good_kernel",
    levels: &["avx2"],
}];
