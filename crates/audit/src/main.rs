//! The `pulp-hd-audit` CLI: `lint` and `fuzz` subcommands, both exit
//! non-zero on any finding so they work as CI gates.

use std::path::PathBuf;
use std::process::ExitCode;

use pulp_hd_audit::{fuzz, lint};

const USAGE: &str = "\
pulp-hd-audit — repo-native correctness gates

USAGE:
    pulp-hd-audit lint [--root <dir>]
    pulp-hd-audit fuzz [--seeds <n>] [--seed <s>] [--family <name>]

SUBCOMMANDS:
    lint    Lint the workspace sources for missing SAFETY / ORDERING /
            INFALLIBLE justifications, unregistered #[target_feature]
            kernels, and mixed SeqCst/Relaxed atomics.
    fuzz    Run the seeded differential fuzzer. By default every family
            runs <n> seeds (default 1000). --seed replays exactly one
            seed (use with --family to reproduce a reported failure).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("fuzz") => run_fuzz(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Reads `--flag value` from `args`, returning the value.
fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return match it.next() {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{flag} needs a value")),
            };
        }
    }
    Ok(None)
}

fn workspace_root(args: &[String]) -> Result<PathBuf, String> {
    if let Some(root) = flag_value(args, "--root")? {
        return Ok(PathBuf::from(root));
    }
    // Default to the workspace this binary was built from; running from
    // a checkout, that is the repo root.
    Ok(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

fn run_lint(args: &[String]) -> ExitCode {
    let root = match workspace_root(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match lint::lint_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("audit lint: 0 violations");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            println!("audit lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: lint failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_fuzz(args: &[String]) -> ExitCode {
    let seeds = match flag_value(args, "--seeds").and_then(|v| {
        v.map_or(Ok(1000), |s| {
            s.parse::<u64>().map_err(|_| format!("bad --seeds: {s}"))
        })
    }) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let replay_seed = match flag_value(args, "--seed").and_then(|v| {
        v.map(|s| s.parse::<u64>().map_err(|_| format!("bad --seed: {s}")))
            .transpose()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let only = match flag_value(args, "--family") {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let all = match fuzz::families() {
        Ok(f) => f,
        Err(e) => {
            // A registered kernel without a fuzzer is itself a gate
            // failure — coverage is part of the registry contract.
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected: Vec<&'static str> = match &only {
        Some(name) => {
            let Some(&f) = all.iter().find(|&&f| f == name.as_str()) else {
                eprintln!(
                    "error: unknown family `{name}` (families: {})",
                    all.join(", ")
                );
                return ExitCode::from(2);
            };
            vec![f]
        }
        None => all,
    };

    let (base, n_seeds) = match replay_seed {
        Some(s) => (s, 1),
        None => (0, seeds),
    };
    let report = fuzz::run(&selected, n_seeds, base);
    let cases = n_seeds * selected.len() as u64;
    // Which SIMD levels ran shows in the CI log: a runner without a
    // level's CPU features skips it.
    let levels: Vec<String> = report
        .cases_per_level
        .iter()
        .map(|(level, n)| format!("{} {n}", level.name()))
        .collect();
    let levels = levels.join(", ");
    if report.failures.is_empty() {
        println!(
            "audit fuzz: {cases} case(s) across {} family(ies), 0 failures; \
             cases per level: {levels}",
            selected.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            println!("{f}");
        }
        println!(
            "audit fuzz: {} failure(s) in {cases} case(s); cases per level: {levels}",
            report.failures.len()
        );
        ExitCode::FAILURE
    }
}
