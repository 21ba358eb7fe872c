//! A quick differential pass over every fuzz family, plus the
//! determinism guarantee that makes `--seed` replay trustworthy.

use pulp_hd_audit::fuzz::{families, run, run_case};

const SMOKE_SEEDS: u64 = 25;

#[test]
fn every_family_passes_a_smoke_run() {
    let families = families().expect("every registered kernel has a fuzzer");
    let report = run(&families, SMOKE_SEEDS, 0);
    assert!(
        report.failures.is_empty(),
        "{}",
        report
            .failures
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn case_outcomes_are_deterministic() {
    for family in families().expect("families resolve") {
        for seed in [0, 1, 0xDEAD_BEEF] {
            let a = run_case(family, seed);
            let b = run_case(family, seed);
            assert_eq!(a, b, "family {family} seed {seed} not replayable");
        }
    }
}
