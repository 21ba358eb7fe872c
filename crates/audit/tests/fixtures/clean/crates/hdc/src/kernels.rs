//! Fixture: the same constructs as the violations tree, each carrying
//! the justification the lint asks for — the whole tree must report
//! zero violations.

mod avx2 {
    /// Inverts every word.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn good_kernel(dst: &mut [u64]) {
        for w in dst.iter_mut() {
            *w = !*w;
        }
    }

    pub fn caller(dst: &mut [u64]) {
        // SAFETY: the build gates this call behind an AVX2 check.
        unsafe { good_kernel(dst) }
    }
}

mod avx512 {
    /// Inverts every word: the AVX-512 level's specialization of the
    /// same kernel, registered at its own level.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn good_kernel(dst: &mut [u64]) {
        for w in dst.iter_mut() {
            // SAFETY: the caller's contract covers AVX-512F.
            *w = unsafe { masked_load(w) };
        }
    }

    /// A helper registered at this level.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn masked_load(w: &u64) -> u64 {
        !*w
    }
}
