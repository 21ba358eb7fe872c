//! Core and cluster timing configurations.
//!
//! All performance-relevant constants of the simulation live here, so the
//! calibration targets map to named numbers rather than magic values
//! scattered through the execution engine.
//!
//! Three presets model the paper's platforms:
//!
//! * [`CoreConfig::pulpv3`] — the OpenRISC cores of the PULPv3 prototype
//!   (GCC 4.9 era): 2-cycle L1 loads, 3-cycle taken branches, no ISA
//!   extensions. The OpenRISC-vs-RISC-V compiler quality gap the paper
//!   mentions is absorbed into these per-instruction costs, since we
//!   author the same assembly for both targets.
//! * [`CoreConfig::wolf`] — the RI5CY cores of Wolf: single-cycle L1
//!   loads, 2-cycle taken branches, and the XpulpV2 extensions
//!   (`p.cnt`/`p.extractu`/`p.insert`, post-increment accesses, hardware
//!   loops).
//! * [`CoreConfig::cortex_m4`] — the ARM Cortex M4 reference
//!   (single-core, flat SRAM).

/// Per-instruction-class timing and feature set of one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// Cycles for simple ALU and immediate operations.
    pub alu_cycles: u32,
    /// Cycles for 32×32 multiplication.
    pub mul_cycles: u32,
    /// Total cycles for an L1 load once the bank grants the request.
    pub load_l1_cycles: u32,
    /// Total cycles for an L1 store once granted.
    pub store_l1_cycles: u32,
    /// Total cycles for a direct (non-DMA) L2 access once the port is
    /// free.
    pub load_l2_cycles: u32,
    /// Cycles for a taken branch (fetch redirect included).
    pub branch_taken_cycles: u32,
    /// Cycles for a not-taken branch.
    pub branch_not_taken_cycles: u32,
    /// Cycles for an unconditional jump.
    pub jump_cycles: u32,
    /// Cycles for a 32-bit `li` whose value does not fit in 12 bits
    /// (costed as `lui`+`addi`).
    pub li_long_cycles: u32,
    /// XpulpV2 hardware loops available.
    pub has_hw_loops: bool,
    /// XpulpV2 post-increment loads/stores available.
    pub has_post_increment: bool,
    /// XpulpV2 bit-manipulation (`p.cnt`, `p.extractu`, `p.insert`)
    /// available.
    pub has_bitmanip: bool,
    /// Cycles per bit-manipulation instruction (when available).
    pub bitmanip_cycles: u32,
}

impl CoreConfig {
    /// The OpenRISC core of the PULPv3 silicon prototype.
    #[must_use]
    pub fn pulpv3() -> Self {
        Self {
            name: "PULPv3 (OpenRISC)",
            alu_cycles: 1,
            mul_cycles: 2,
            load_l1_cycles: 2,
            store_l1_cycles: 1,
            load_l2_cycles: 12,
            // OR10N has no branch prediction: a taken branch flushes the
            // fetch stage(s).
            branch_taken_cycles: 4,
            branch_not_taken_cycles: 1,
            jump_cycles: 2,
            li_long_cycles: 2,
            has_hw_loops: false,
            has_post_increment: false,
            has_bitmanip: false,
            bitmanip_cycles: 1,
        }
    }

    /// The RI5CY (RISC-V + XpulpV2) core of the Wolf cluster.
    #[must_use]
    pub fn wolf() -> Self {
        Self {
            name: "Wolf (RI5CY)",
            alu_cycles: 1,
            mul_cycles: 1,
            load_l1_cycles: 1,
            store_l1_cycles: 1,
            load_l2_cycles: 10,
            branch_taken_cycles: 2,
            branch_not_taken_cycles: 1,
            jump_cycles: 2,
            li_long_cycles: 2,
            has_hw_loops: true,
            has_post_increment: true,
            has_bitmanip: true,
            bitmanip_cycles: 1,
        }
    }

    /// A Wolf core with the XpulpV2 extensions disabled — the paper's
    /// "Wolf 1 core" column (plain ANSI-C build, better ISA/compiler but
    /// no builtins).
    #[must_use]
    pub fn wolf_no_ext() -> Self {
        Self {
            name: "Wolf (RI5CY, no builtins)",
            has_hw_loops: false,
            has_post_increment: false,
            has_bitmanip: false,
            ..Self::wolf()
        }
    }

    /// The ARM Cortex M4 reference (STM32F4-class device).
    ///
    /// Modelled as a single core with flat single-bank SRAM; the paper
    /// credits it with "load and shift / load 32-bit immediate" style
    /// optimizations, reflected in the 1-cycle stores and cheap `li`.
    #[must_use]
    pub fn cortex_m4() -> Self {
        Self {
            name: "ARM Cortex M4",
            alu_cycles: 1,
            mul_cycles: 1,
            load_l1_cycles: 2,
            store_l1_cycles: 1,
            load_l2_cycles: 2,
            branch_taken_cycles: 3,
            branch_not_taken_cycles: 1,
            jump_cycles: 2,
            li_long_cycles: 1,
            has_hw_loops: false,
            has_post_increment: false,
            has_bitmanip: false,
            bitmanip_cycles: 1,
        }
    }
}

/// Synchronization-cost model of the cluster runtime.
///
/// PULPv3 runs the OpenMP runtime's software barriers and fork/join on top
/// of GCC 4.9 ("huge software overheads" avoided only partially by the
/// bare-metal library); Wolf adds a hardware synchronizer that makes
/// barrier and team-start costs almost vanish. These constants are what
/// make the paper's AM-kernel speed-up saturate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncConfig {
    /// Cycles every core spends on a barrier release after the last
    /// arrival.
    pub barrier_base_cycles: u32,
    /// Additional per-core barrier cost (master gathers/wakes slaves).
    pub barrier_per_core_cycles: u32,
    /// Cycles to enter a parallel region (team wake-up, work descriptor).
    pub fork_base_cycles: u32,
    /// Additional per-core fork cost.
    pub fork_per_core_cycles: u32,
}

impl SyncConfig {
    /// Software OpenMP runtime on PULPv3.
    #[must_use]
    pub fn software_openmp() -> Self {
        Self {
            barrier_base_cycles: 45,
            barrier_per_core_cycles: 18,
            fork_base_cycles: 140,
            fork_per_core_cycles: 25,
        }
    }

    /// Hardware-assisted synchronizer on Wolf.
    #[must_use]
    pub fn hardware_synchronizer() -> Self {
        Self {
            barrier_base_cycles: 8,
            barrier_per_core_cycles: 2,
            fork_base_cycles: 25,
            fork_per_core_cycles: 4,
        }
    }

    /// No-op synchronization (single-core targets such as the M4).
    #[must_use]
    pub fn single_core() -> Self {
        Self {
            barrier_base_cycles: 0,
            barrier_per_core_cycles: 0,
            fork_base_cycles: 0,
            fork_per_core_cycles: 0,
        }
    }

    /// Total barrier cost for an `n`-core team.
    #[must_use]
    pub fn barrier_cycles(&self, n: usize) -> u32 {
        if n <= 1 {
            return 0;
        }
        self.barrier_base_cycles + self.barrier_per_core_cycles * n as u32
    }

    /// Total fork cost for an `n`-core team.
    #[must_use]
    pub fn fork_cycles(&self, n: usize) -> u32 {
        if n <= 1 {
            return 0;
        }
        self.fork_base_cycles + self.fork_per_core_cycles * n as u32
    }
}

/// Full cluster configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Core timing/feature model (identical for all cores).
    pub core: CoreConfig,
    /// Number of cores (1–16).
    pub n_cores: usize,
    /// Number of word-interleaved TCDM banks.
    pub tcdm_banks: usize,
    /// L1 TCDM size in bytes.
    pub l1_size: u32,
    /// L2 size in bytes.
    pub l2_size: u32,
    /// L2 port occupancy per direct core access, in cycles.
    pub l2_port_cycles: u32,
    /// DMA throughput in 32-bit words per cycle (64-bit AXI ⇒ 2).
    pub dma_words_per_cycle: u32,
    /// DMA descriptor-processing latency in cycles.
    pub dma_startup_cycles: u32,
    /// Synchronization cost model.
    pub sync: SyncConfig,
}

impl ClusterConfig {
    /// The PULPv3 silicon prototype: up to 4 OpenRISC cores, 48 kB TCDM
    /// in 8 banks, 64 kB L2, software OpenMP runtime.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or exceeds 4 (the silicon has 4 cores).
    #[must_use]
    pub fn pulpv3(n_cores: usize) -> Self {
        assert!((1..=4).contains(&n_cores), "PULPv3 has 1–4 cores");
        Self {
            core: CoreConfig::pulpv3(),
            n_cores,
            tcdm_banks: 8,
            l1_size: 48 * 1024,
            l2_size: 64 * 1024,
            l2_port_cycles: 4,
            dma_words_per_cycle: 2,
            dma_startup_cycles: 12,
            sync: SyncConfig::software_openmp(),
        }
    }

    /// The Wolf cluster: up to 8 RI5CY cores with XpulpV2, 64 kB TCDM in
    /// 16 banks, 512 kB L2, hardware synchronizer.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or exceeds 8.
    #[must_use]
    pub fn wolf(n_cores: usize) -> Self {
        assert!((1..=8).contains(&n_cores), "Wolf has 1–8 cores");
        Self {
            core: CoreConfig::wolf(),
            n_cores,
            tcdm_banks: 16,
            l1_size: 64 * 1024,
            l2_size: 512 * 1024,
            l2_port_cycles: 4,
            dma_words_per_cycle: 2,
            dma_startup_cycles: 10,
            sync: SyncConfig::hardware_synchronizer(),
        }
    }

    /// Wolf without the XpulpV2 extensions (plain ANSI-C column of
    /// Table 3).
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or exceeds 8.
    #[must_use]
    pub fn wolf_no_ext(n_cores: usize) -> Self {
        Self {
            core: CoreConfig::wolf_no_ext(),
            ..Self::wolf(n_cores)
        }
    }

    /// The single-core ARM Cortex M4 reference with 192 kB of flat SRAM.
    #[must_use]
    pub fn cortex_m4() -> Self {
        Self {
            core: CoreConfig::cortex_m4(),
            n_cores: 1,
            // Flat memory: one "bank" (no parallelism to arbitrate) and a
            // large L1 window so kernels can keep everything local.
            tcdm_banks: 1,
            l1_size: 192 * 1024,
            l2_size: 512 * 1024,
            l2_port_cycles: 2,
            dma_words_per_cycle: 2,
            dma_startup_cycles: 10,
            sync: SyncConfig::single_core(),
        }
    }

    /// Validates internal consistency (core count vs. banks, non-zero
    /// sizes).
    ///
    /// # Panics
    ///
    /// Panics on inconsistency; configurations are built from presets and
    /// mutated in tests, so failing fast is preferable to a `Result`.
    pub fn assert_valid(&self) {
        assert!(
            self.n_cores >= 1 && self.n_cores <= 16,
            "1–16 cores supported"
        );
        assert!(self.tcdm_banks >= 1, "need at least one TCDM bank");
        assert!(
            self.l1_size >= 1024 && self.l1_size.is_multiple_of(4),
            "bad L1 size"
        );
        assert!(
            self.l2_size >= 1024 && self.l2_size.is_multiple_of(4),
            "bad L2 size"
        );
        assert!(self.dma_words_per_cycle >= 1, "DMA must move data");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_internally_consistent() {
        ClusterConfig::pulpv3(1).assert_valid();
        ClusterConfig::pulpv3(4).assert_valid();
        ClusterConfig::wolf(8).assert_valid();
        ClusterConfig::wolf_no_ext(1).assert_valid();
        ClusterConfig::cortex_m4().assert_valid();
    }

    #[test]
    fn wolf_has_extensions_and_pulpv3_does_not() {
        assert!(ClusterConfig::wolf(8).core.has_bitmanip);
        assert!(ClusterConfig::wolf(8).core.has_hw_loops);
        assert!(!ClusterConfig::pulpv3(4).core.has_bitmanip);
        assert!(!ClusterConfig::wolf_no_ext(8).core.has_bitmanip);
        assert!(!ClusterConfig::cortex_m4().core.has_bitmanip);
    }

    #[test]
    fn wolf_memory_accesses_are_faster() {
        let p = CoreConfig::pulpv3();
        let w = CoreConfig::wolf();
        assert!(w.load_l1_cycles < p.load_l1_cycles);
        assert!(w.branch_taken_cycles < p.branch_taken_cycles);
    }

    #[test]
    #[should_panic(expected = "1–4 cores")]
    fn pulpv3_core_count_is_bounded() {
        let _ = ClusterConfig::pulpv3(5);
    }

    #[test]
    fn sync_costs_scale_with_cores_and_vanish_single_core() {
        let sw = SyncConfig::software_openmp();
        let hw = SyncConfig::hardware_synchronizer();
        assert_eq!(sw.barrier_cycles(1), 0);
        assert!(sw.barrier_cycles(4) > hw.barrier_cycles(8));
        assert!(sw.fork_cycles(4) > hw.fork_cycles(8));
        assert!(hw.barrier_cycles(8) > 0);
    }
}
