//! Experiment runners regenerating every table and figure of the paper.
//!
//! Each submodule exposes a `run()` returning typed rows that pair the
//! paper's published value with our measured value, plus a `render()`
//! producing the aligned text table the bench binaries print. The
//! README's "Reproducing the paper" section indexes which binary
//! regenerates which paper artifact; each prints its measured-vs-paper
//! numbers side by side.
//!
//! Cycle measurements execute the real kernels on the simulated cluster;
//! accuracy measurements run the golden-model classifier over the
//! synthetic EMG workload.

pub mod ablation;
pub mod accuracy;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod report;
pub mod robustness;
pub mod table1;
pub mod table2;
pub mod table3;

use crate::backend::{AccelBackend, CycleBreakdown, ExecutionBackend, HdModel};
use crate::layout::AccelParams;
use crate::pipeline::ChainError;
use crate::platform::Platform;

/// The paper's detection-latency budget per classification.
pub const LATENCY_MS: f64 = 10.0;

/// Per-kernel cycle counts of one chain execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleRun {
    /// MAP + spatial + temporal encoders.
    pub map_encode: u64,
    /// Associative-memory search.
    pub am: u64,
    /// End-to-end total.
    pub total: u64,
}

impl From<CycleBreakdown> for CycleRun {
    fn from(cycles: CycleBreakdown) -> Self {
        Self {
            map_encode: cycles.map_encode,
            am: cycles.am,
            total: cycles.total,
        }
    }
}

/// Measures the chain's cycle counts on `platform`, through the
/// [`AccelBackend`] (the cycle-measuring execution backend).
///
/// Kernel timing is data-independent (no data-dependent branches in the
/// generated code), so a seeded random model and a fixed input window
/// are sufficient — a property asserted by the tests below.
///
/// # Errors
///
/// Returns [`ChainError`] if the chain cannot be built or simulated.
pub fn measure_chain(platform: &Platform, params: AccelParams) -> Result<CycleRun, ChainError> {
    let model = HdModel::random(&params, 0x00C1_C1E5);
    let mut session = AccelBackend::new(platform.clone())
        .prepare(&model)
        .map_err(ChainError::from)?;
    let window: Vec<Vec<u16>> = (0..params.ngram)
        .map(|t| {
            (0..params.channels)
                .map(|c| ((t * 131 + c * 7919) % 65_536) as u16)
                .collect()
        })
        .collect();
    let verdict = session.classify(&window).map_err(ChainError::from)?;
    let cycles = verdict.cycles.expect("accelerated backend reports cycles");
    Ok(CycleRun::from(cycles))
}

/// Frequency in MHz required to finish `cycles` within the 10 ms budget.
#[must_use]
pub fn required_mhz(cycles: u64) -> f64 {
    pulp_sim::power::frequency_for_latency_mhz(cycles, LATENCY_MS)
}

/// Whether `cycles` fits the 10 ms budget at the platform's maximum
/// clock.
#[must_use]
pub fn meets_latency(platform: &Platform, cycles: u64) -> bool {
    required_mhz(cycles) <= platform.fmax_mhz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_cycles_are_data_independent() {
        // Two different models / inputs must produce identical timing —
        // the property `measure_chain` relies on.
        let params = AccelParams {
            n_words: 16,
            ..AccelParams::emg_default()
        };
        let platform = Platform::pulpv3(2);
        let mut totals = Vec::new();
        for seed in [1u64, 2] {
            let model = HdModel::random(&params, seed);
            let mut session = AccelBackend::new(platform.clone()).prepare(&model).unwrap();
            let window = vec![vec![(seed * 1000) as u16, 40_000, 7, 65_000]];
            let verdict = session.classify(&window).unwrap();
            totals.push(verdict.cycles.expect("accel reports cycles").total);
        }
        assert_eq!(totals[0], totals[1]);
    }

    #[test]
    fn latency_helpers() {
        assert!((required_mhz(533_000) - 53.3).abs() < 1e-9);
        assert!(meets_latency(&Platform::cortex_m4(), 439_000));
        assert!(!meets_latency(&Platform::cortex_m4(), 5_000_000));
    }
}
