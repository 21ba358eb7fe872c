//! **Table 1** — HD computing (200-D) versus SVM at iso-accuracy on the
//! ARM Cortex M4, 10 ms detection latency.
//!
//! Both cycle counts are *measured by execution* on the same M4 core
//! model: the HD chain at 7 words (224-bit), and the fixed-point SVM via
//! [`crate::svm_kernel::SvmChain`] (per support vector: 4-feature squared
//! distance, bucketed `exp` lookup, Q15 multiply-accumulate; then
//! one-vs-one voting). Accuracies come from the §4.1 study. The legacy
//! instruction-cost model [`svm_m4_cycles`] is kept for sanity-checking
//! the measured count.

use svm::FixedSvm;

use crate::experiments::accuracy::{self, AccuracyConfig};
use crate::experiments::report::{percent, render_table};
use crate::experiments::{measure_chain, CycleRun};
use crate::layout::AccelParams;
use crate::pipeline::ChainError;
use crate::platform::Platform;

/// The regenerated Table 1.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Measured HD (224-D) chain cycles on the M4 model.
    pub hd: CycleRun,
    /// Measured fixed-point SVM cycles on the M4 (executed via
    /// [`crate::svm_kernel::SvmChain`]).
    pub svm_cycles: u64,
    /// Total kernel evaluations of the SVM model that was costed.
    pub svm_kernel_evals: usize,
    /// Mean HD accuracy at 224-D.
    pub hd_accuracy: f64,
    /// Mean SVM accuracy.
    pub svm_accuracy: f64,
}

/// Instruction-cost model of the fixed-point SVM inner loop on the M4
/// (see module docs). Exposed so the ablation benches can reuse it.
#[must_use]
pub fn svm_m4_cycles(model: &FixedSvm) -> u64 {
    let features = model.n_features() as u64;
    // Distance accumulation per feature: lhu f (2) + lhu sv (2) +
    // 2× srli (2) + sub (1) + mul (1) + add (1) = 9.
    let per_feature = 9;
    // Bucketing + LUT + MAC per SV: srl, clamp (slt + branch), lhu LUT
    // (2), lw coeff (2), mul, srai, add, loop overhead (addi + taken
    // branch 3).
    let per_sv_tail = 14;
    let per_sv = features * per_feature + per_sv_tail;
    // Per machine: pointer setup, bias add, sign test, vote update.
    let per_machine = 28;
    let evals = model.total_kernel_evaluations() as u64;
    let machines = model.machines().len() as u64;
    evals * per_sv + machines * per_machine + 180
}

/// Runs Table 1. `quick` shrinks the accuracy study (used by tests).
///
/// # Errors
///
/// Returns [`ChainError`] if the HD chain fails to build or simulate.
pub fn run(quick: bool) -> Result<Table1, ChainError> {
    // 200-D rounds up to 7 words = 224 bits, exactly as the paper's
    // compaction to "seven unsigned integers".
    let params = AccelParams {
        n_words: 7,
        ..AccelParams::emg_default()
    };
    let hd = measure_chain(&Platform::cortex_m4(), params)?;

    let acc_cfg = if quick {
        AccuracyConfig::quick()
    } else {
        AccuracyConfig::paper()
    };
    let report = accuracy::run(&acc_cfg);

    // The paper costs the smallest SVM among the subjects ("the number
    // of SVs … is chosen to be 55 as the smallest among the subjects"):
    // train every subject's model and keep the one with the fewest
    // shared support vectors.
    let synth = emg::SynthConfig {
        reps: acc_cfg.reps,
        ..emg::SynthConfig::paper()
    };
    let mut best: Option<(FixedSvm, Vec<f64>)> = None;
    for subject in 0..acc_cfg.subjects {
        let ds = emg::Dataset::generate(&synth, subject, acc_cfg.seed);
        let train_idx = ds.training_trial_indices(acc_cfg.train_frac);
        let windows = crate::experiments::accuracy::hold_windows(
            &ds,
            &train_idx,
            acc_cfg.window,
            acc_cfg.hold_margin,
        );
        let x: Vec<Vec<f64>> = windows
            .iter()
            .step_by(acc_cfg.svm_train_stride)
            .map(emg::Window::features)
            .collect();
        let y: Vec<usize> = windows
            .iter()
            .step_by(acc_cfg.svm_train_stride)
            .map(|w| w.label)
            .collect();
        let clf = svm::SvmClassifier::train(
            &x,
            &y,
            ds.classes(),
            svm::Kernel::Rbf { gamma: 12.0 },
            svm::SmoParams::default(),
        );
        let fixed = FixedSvm::quantize(&clf, ds.channels());
        let probe = windows[windows.len() / 2].features();
        if best
            .as_ref()
            .is_none_or(|(b, _)| fixed.support_vectors().len() < b.support_vectors().len())
        {
            best = Some((fixed, probe));
        }
    }
    let (fixed, probe_f) = best.expect("at least one subject");

    // Execute the SVM on the simulated M4 with a representative window's
    // features (timing varies by at most a few cycles with the input via
    // the LUT-clamp and vote branches).
    let mut svm_chain = crate::svm_kernel::SvmChain::new(&fixed)?;
    let probe: Vec<u16> = probe_f
        .iter()
        .map(|&f| (f * f64::from(u16::MAX)) as u16)
        .collect();
    let svm_run = svm_chain.classify(&probe)?;
    debug_assert!(
        svm_m4_cycles(&fixed).abs_diff(svm_run.cycles) < svm_run.cycles,
        "cost model and measurement should agree within 2x"
    );

    Ok(Table1 {
        hd,
        svm_cycles: svm_run.cycles,
        svm_kernel_evals: fixed.total_kernel_evaluations(),
        hd_accuracy: report.mean_hd_200d(),
        svm_accuracy: report.mean_svm(),
    })
}

impl Table1 {
    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let rows = vec![
            vec![
                "HD COMPUTING".into(),
                format!("{:.2}k", self.hd.total as f64 / 1000.0),
                "12.35k".into(),
                percent(self.hd_accuracy),
                "90.7%".into(),
            ],
            vec![
                "SVM".into(),
                format!("{:.2}k", self.svm_cycles as f64 / 1000.0),
                "25.10k".into(),
                percent(self.svm_accuracy),
                "89.6%".into(),
            ],
        ];
        let mut out = render_table(
            "Table 1 — HD (200-D ≙ 224-bit) vs SVM on ARM Cortex M4 (10 ms latency)",
            &["kernel", "cycles", "(paper)", "accuracy", "(paper)"],
            &rows,
        );
        out.push_str(&format!(
            "\nSVM/HD cycle ratio: {:.2}x (paper 2.03x); SVM kernel evaluations: {} (paper ~550)\n",
            self.svm_cycles as f64 / self.hd.total as f64,
            self.svm_kernel_evals
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds() {
        let t = run(true).unwrap();
        // HD at 224-D is an order of magnitude cheaper than at 10,016-D
        // and cheaper than the SVM (paper: 2×; our synthetic task yields
        // a sparser SVM, so the measured gap is smaller).
        assert!(t.hd.total < 40_000, "HD cycles {}", t.hd.total);
        assert!(
            t.svm_cycles > t.hd.total,
            "SVM {} should cost more than HD {}",
            t.svm_cycles,
            t.hd.total
        );
        assert!(t.hd_accuracy > 0.8);
        let text = t.render();
        assert!(text.contains("HD COMPUTING") && text.contains("SVM"));
    }
}
