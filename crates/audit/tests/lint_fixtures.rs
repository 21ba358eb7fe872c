//! The lint's contract, pinned to fixture trees: every rule fires at
//! the exact file/line it should, and a fully annotated tree is clean.

use std::path::{Path, PathBuf};

use pulp_hd_audit::lint::{lint_workspace, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn violations_tree_fires_every_rule_at_the_right_span() {
    let violations = lint_workspace(&fixture("violations")).expect("fixture tree readable");
    let got: Vec<(String, usize, Rule)> = violations
        .iter()
        .map(|v| (v.file.to_string_lossy().replace('\\', "/"), v.line, v.rule))
        .collect();
    let want = vec![
        (
            "crates/hdc/src/kernels.rs".to_string(),
            5,
            Rule::UnregisteredKernel,
        ),
        (
            "crates/hdc/src/kernels.rs".to_string(),
            6,
            Rule::MissingSafety,
        ),
        (
            "crates/hdc/src/kernels.rs".to_string(),
            13,
            Rule::MissingSafety,
        ),
        (
            "crates/hdc/src/kernels.rs".to_string(),
            35,
            Rule::UnregisteredKernel,
        ),
        (
            "crates/serve/src/handler.rs".to_string(),
            8,
            Rule::BareUnwrap,
        ),
        (
            "crates/serve/src/handler.rs".to_string(),
            12,
            Rule::UnjustifiedOrdering,
        ),
        (
            "crates/serve/src/handler.rs".to_string(),
            17,
            Rule::MixedOrdering,
        ),
    ];
    assert_eq!(got, want, "full violation list: {violations:#?}");
}

#[test]
fn violations_render_with_rule_tags() {
    let violations = lint_workspace(&fixture("violations")).expect("fixture tree readable");
    let rendered: Vec<String> = violations.iter().map(ToString::to_string).collect();
    for tag in [
        "[TWIN]",
        "[SAFETY]",
        "[UNWRAP]",
        "[ORDERING]",
        "[MIXED-ORDERING]",
    ] {
        assert!(
            rendered.iter().any(|r| r.contains(tag)),
            "no violation rendered with {tag}: {rendered:#?}"
        );
    }
}

/// A kernel registered at the AVX2 level does not cover its namesake
/// in `mod avx512`: the lint names the level it is missing at, and the
/// AVX2 one (line 24) stays clean.
#[test]
fn twin_registration_is_per_level() {
    let violations = lint_workspace(&fixture("violations")).expect("fixture tree readable");
    let twins: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::UnregisteredKernel)
        .map(|v| (v.line, v.message.clone()))
        .collect();
    assert_eq!(twins.len(), 2, "{twins:#?}");
    assert_eq!(twins[1].0, 35);
    assert!(
        twins[1].1.contains("`good_kernel`") && twins[1].1.contains("level `avx512`"),
        "{}",
        twins[1].1
    );
}

#[test]
fn test_code_is_exempt_from_unwrap() {
    let violations = lint_workspace(&fixture("violations")).expect("fixture tree readable");
    assert!(
        !violations
            .iter()
            .any(|v| v.rule == Rule::BareUnwrap && v.line > 20),
        "the #[cfg(test)] unwrap in handler.rs must not fire: {violations:#?}"
    );
}

#[test]
fn clean_tree_reports_zero() {
    let violations = lint_workspace(&fixture("clean")).expect("fixture tree readable");
    assert!(violations.is_empty(), "expected clean: {violations:#?}");
}
