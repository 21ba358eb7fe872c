//! Fixture: the SAFETY and TWIN rules must each fire exactly where
//! `lint_fixtures.rs` says they do. Never compiled — line numbers are
//! part of the test contract; edit both together.

#[target_feature(enable = "avx2")]
pub unsafe fn rogue_kernel(dst: &mut [u64]) {
    for w in dst.iter_mut() {
        *w = !*w;
    }
}

pub fn caller(dst: &mut [u64]) {
    unsafe { rogue_kernel(dst) }
}

mod avx2 {
    /// Registered at this level: no violation.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn good_kernel(dst: &mut [u64]) {
        dst.fill(0);
    }
}

mod avx512 {
    /// Registered only at the AVX2 level, so its namesake here fires
    /// TWIN.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn good_kernel(dst: &mut [u64]) {
        dst.fill(0);
    }
}
