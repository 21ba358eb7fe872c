//! The repo-native lint pass: source-level enforcement of the
//! workspace's unsafe/atomics/panic invariants.
//!
//! This is deliberately *not* a general-purpose Rust linter. It is a
//! line-oriented scanner tuned to this repository's idiom (rustfmt'd
//! code, `//` comments, one statement per annotation site) that checks
//! the four invariants the unsafe SIMD + concurrency surface depends
//! on:
//!
//! 1. **`SAFETY`** — every `unsafe fn` / `unsafe {}` block /
//!    `unsafe impl` carries a `// SAFETY:` comment (an `unsafe fn` may
//!    instead document its contract with a rustdoc `# Safety` section).
//! 2. **`TWIN`** — every `#[target_feature]` function is registered in
//!    the differential-twin registry (`crates/hdc/src/twins.rs`) at its
//!    level, either as a kernel paired with a portable reference or as
//!    a helper reachable only through registered kernels. A function's
//!    level is the innermost inline `mod` around it (`mod avx512`), or
//!    its file's stem outside one, so a kernel registered at one level
//!    does not cover a namesake at another.
//! 3. **`UNWRAP`** — no `.unwrap()` / `.expect(` in non-test code under
//!    `crates/serve/src` and `crates/core/src/backend`, except sites
//!    annotated `// INFALLIBLE:` with a proof sketch.
//! 4. **`ORDERING`** — every atomic write (`store` / `fetch_*` /
//!    `compare_exchange*` / `swap`) with an explicit
//!    [`Ordering`](core::sync::atomic::Ordering) sits within
//!    [`ORDERING_WINDOW`] lines of an `// ORDERING:` justification, and
//!    no named atomic is accessed with both `SeqCst` and `Relaxed`
//!    within one file (the mix is either a bug or two sites reasoning
//!    from different models — both worth failing CI over).
//!
//! Test code is exempt everywhere: `tests/` directories are skipped
//! outright, and `#[cfg(test)]` items are masked out by brace
//! tracking. The scanner strips comments and string literals before
//! matching, so prose about `unsafe` or `Ordering::` never trips a
//! rule.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// How many lines above an atomic write an `// ORDERING:` comment is
/// accepted — one justification covers the small cluster of accesses
/// in a short function, which is the repo's annotation idiom.
pub const ORDERING_WINDOW: usize = 12;

/// Path (from the workspace root) of the differential-twin registry
/// the `TWIN` rule checks `#[target_feature]` functions against.
pub const TWIN_REGISTRY: &str = "crates/hdc/src/twins.rs";

/// The invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// An unsafe site without a `// SAFETY:` justification.
    MissingSafety,
    /// A `#[target_feature]` function absent from the twin registry.
    UnregisteredKernel,
    /// A bare `.unwrap()` / `.expect(` in scoped non-test code.
    BareUnwrap,
    /// An atomic write with no `// ORDERING:` justification in range.
    UnjustifiedOrdering,
    /// One named atomic accessed with both `SeqCst` and `Relaxed`.
    MixedOrdering,
}

impl Rule {
    /// Stable short tag used in lint output.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Self::MissingSafety => "SAFETY",
            Self::UnregisteredKernel => "TWIN",
            Self::BareUnwrap => "UNWRAP",
            Self::UnjustifiedOrdering => "ORDERING",
            Self::MixedOrdering => "MIXED-ORDERING",
        }
    }
}

/// One broken invariant at one source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Path relative to the linted root.
    pub file: PathBuf,
    /// 1-based line of the offending site.
    pub line: usize,
    /// Which invariant broke.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.tag(),
            self.message
        )
    }
}

/// Lints every non-test source file under `root` and returns the
/// violations, sorted by path and line.
///
/// # Errors
///
/// Returns any I/O error from walking the tree or reading a file.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let registry = registered(root);
    let mut violations = Vec::new();
    for file in source_files(root)? {
        let text = std::fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        lint_file(&rel, &text, &registry, &mut violations);
    }
    violations.sort();
    Ok(violations)
}

/// Every `.rs` file under `root` that is production source: inside a
/// `src/` or `examples/` tree, not under `target/`, and not inside a
/// `tests/` (or fixture) directory.
fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if matches!(
                    name.as_ref(),
                    "target" | "tests" | "fixtures" | ".git" | ".github"
                ) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let in_source_tree = path.components().any(|c| {
                    matches!(
                        c.as_os_str().to_string_lossy().as_ref(),
                        "src" | "examples" | "benches"
                    )
                });
                if in_source_tree {
                    out.push(path);
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `(level, name)` pairs: a `#[target_feature]` function registered at
/// a level.
type Registry = BTreeSet<(String, String)>;

/// Every `(level, name)` registered in [`TWIN_REGISTRY`]. The registry
/// is read as rustfmt'd struct literals: each `{ … }` with no brace
/// inside registers the names of its `kernel` and `names` fields at
/// each level of its `levels` and `level` fields. Empty when the
/// registry does not exist, in which case every `#[target_feature]` fn
/// is a violation.
fn registered(root: &Path) -> Registry {
    let mut registry = Registry::new();
    let Ok(text) = std::fs::read_to_string(root.join(TWIN_REGISTRY)) else {
        return registry;
    };
    let code: Vec<&str> = text
        .lines()
        .map(|line| line.split("//").next().unwrap_or(line))
        .collect();
    let code = code.join(" ");
    for body in code.split('}').filter_map(|chunk| chunk.rsplit('{').next()) {
        let levels = [field_strings(body, "levels"), field_strings(body, "level")].concat();
        let names = [field_strings(body, "kernel"), field_strings(body, "names")].concat();
        for level in &levels {
            for name in &names {
                registry.insert((level.clone(), name.clone()));
            }
        }
    }
    registry
}

/// The string literals of field `field` in a struct literal's body: its
/// one string, or every string of its `&[…]` list.
fn field_strings(body: &str, field: &str) -> Vec<String> {
    let Some((_, value)) = body.split_once(&format!(" {field}:")) else {
        return Vec::new();
    };
    let value = value.trim_start();
    let end = if value.starts_with("&[") {
        value.find(']')
    } else {
        value.find(',')
    };
    value[..end.unwrap_or(value.len())]
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The level of each line: the innermost inline `mod` it sits in, or
/// `stem` (the file's) outside any.
fn line_levels(code: &[String], stem: &str) -> Vec<String> {
    let mut out = Vec::with_capacity(code.len());
    // Open inline modules, each with the brace depth it opened at.
    let mut open: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    for line in code {
        out.push(
            open.last()
                .map_or(stem, |(name, _)| name.as_str())
                .to_string(),
        );
        if let Some(name) = inline_mod(line) {
            open.push((name, depth));
        }
        for b in line.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    while open.last().is_some_and(|&(_, d)| depth <= d) {
                        open.pop();
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// The name of the inline module `code` opens (`mod avx2 {`), if any.
fn inline_mod(code: &str) -> Option<String> {
    let (head, tail) = code.split_once("mod ")?;
    if head
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
    {
        return None;
    }
    let tail = tail.trim_start();
    let end = tail
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(tail.len());
    tail[end..]
        .trim_start()
        .starts_with('{')
        .then(|| tail[..end].to_string())
}

/// Whether the `UNWRAP` rule applies to this file: the serving layer
/// and the execution-backend layer, where a stray panic kills a
/// session or a connection instead of a test.
fn unwrap_scoped(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    p.contains("crates/serve/src") || p.contains("crates/core/src/backend")
}

/// One source line, pre-processed for matching.
struct Line {
    /// Raw text (used for comment-content searches).
    raw: String,
    /// Code with comments and string/char-literal contents blanked.
    code: String,
    /// Inside a `#[cfg(test)]` item.
    test: bool,
}

/// Strips `//` comments, blanks string/char-literal contents, and
/// tracks `/* */` block comments across lines, so rule matching never
/// fires on prose or message text.
fn strip_code(lines: &[&str]) -> Vec<String> {
    let mut out = Vec::with_capacity(lines.len());
    let mut in_block_comment = false;
    for line in lines {
        let bytes = line.as_bytes();
        let mut code = String::with_capacity(line.len());
        let mut i = 0;
        while i < bytes.len() {
            if in_block_comment {
                if bytes[i..].starts_with(b"*/") {
                    in_block_comment = false;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            match bytes[i] {
                b'/' if bytes[i..].starts_with(b"//") => break,
                b'/' if bytes[i..].starts_with(b"/*") => {
                    in_block_comment = true;
                    i += 2;
                }
                b'"' => {
                    code.push('"');
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'"' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    code.push('"');
                }
                b'\'' => {
                    // A char literal closes within a handful of bytes
                    // (`'x'`, `'\n'`, `'\u{1F600}'`); anything longer is
                    // a lifetime and is kept as-is.
                    let close = bytes[i + 1..]
                        .iter()
                        .take(12)
                        .position(|&b| b == b'\'')
                        .filter(|&off| off > 0 || bytes.get(i + 1) != Some(&b'\\'));
                    if let Some(off) = close {
                        code.push('\'');
                        code.push('\'');
                        i += off + 2;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                b => {
                    code.push(b as char);
                    i += 1;
                }
            }
        }
        out.push(code);
    }
    out
}

/// Marks the lines belonging to `#[cfg(test)]` items by walking braces
/// (on stripped code, so braces in strings don't confuse the depth).
fn test_mask(code: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        let trimmed = code[i].trim();
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
            // Everything from the attribute to the close of the item's
            // brace block is test code.
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            while j < code.len() {
                mask[j] = true;
                for b in code[j].bytes() {
                    match b {
                        b'{' => {
                            depth += 1;
                            opened = true;
                        }
                        b'}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                // An item that ends without braces (`#[cfg(test)] use …;`).
                if !opened && code[j].trim_end().ends_with(';') {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Whether a raw line is part of a comment/attribute block (the lines
/// a justification comment may be separated from its site by).
fn is_comment_or_attr(raw: &str) -> bool {
    let t = raw.trim_start();
    t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!")
}

/// Searches the contiguous comment/attribute block immediately above
/// `idx` (and `idx`'s own raw line) for `needle`.
fn justified_above(lines: &[Line], idx: usize, needle: &str) -> bool {
    if lines[idx].raw.contains(needle) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        if !is_comment_or_attr(&lines[j].raw) {
            break;
        }
        if lines[j].raw.contains(needle) {
            return true;
        }
    }
    false
}

/// Whether `code` contains `word` as a standalone token (not a
/// substring of a longer identifier).
fn has_word(code: &str, word: &str) -> bool {
    let mut search = code;
    while let Some(pos) = search.find(word) {
        let before_ok = search[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after = &search[pos + word.len()..];
        let after_ok = after
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if before_ok && after_ok {
            return true;
        }
        search = &search[pos + word.len()..];
    }
    false
}

/// Atomic write methods that take an `Ordering` and therefore need an
/// `// ORDERING:` justification. Loads are exempt from the comment
/// requirement but still feed the mixed-ordering rule.
const ATOMIC_WRITES: &[&str] = &[
    ".store(",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_and(",
    ".fetch_or(",
    ".fetch_xor(",
    ".fetch_max(",
    ".fetch_min(",
    ".fetch_update(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
    ".swap(",
];

/// Extracts the receiver identifier of an atomic access: the last
/// `ident` before `.method(` at byte offset `at`.
fn receiver_name(code: &str, at: usize) -> Option<String> {
    let head = &code[..at];
    let end = head.len();
    let start = head
        .rfind(|c: char| !c.is_alphanumeric() && c != '_')
        .map_or(0, |p| p + 1);
    if start == end {
        None
    } else {
        Some(head[start..end].to_string())
    }
}

/// Orderings named by the atomic call starting at `idx`. A call whose
/// line already names an `Ordering::` is complete there; only when the
/// call is rustfmt-wrapped (no ordering on the first line) are up to 3
/// continuation lines joined — never past the first one that names an
/// ordering, so adjacent calls don't bleed into each other.
fn orderings_near(lines: &[Line], idx: usize) -> Vec<&'static str> {
    let mut joined = String::new();
    for line in lines.iter().skip(idx).take(4) {
        let had_ordering = line.code.contains("Ordering::");
        joined.push_str(&line.code);
        joined.push(' ');
        if had_ordering {
            break;
        }
    }
    let mut out = Vec::new();
    for name in ["Relaxed", "SeqCst", "AcqRel", "Acquire", "Release"] {
        if joined.contains(&format!("Ordering::{name}")) {
            out.push(name);
        }
    }
    out
}

/// Lints one file, appending violations.
fn lint_file(rel: &Path, text: &str, registry: &Registry, out: &mut Vec<Violation>) {
    let raw_lines: Vec<&str> = text.lines().collect();
    let code_lines = strip_code(&raw_lines);
    let mask = test_mask(&code_lines);
    let stem = rel
        .file_stem()
        .map_or(String::new(), |s| s.to_string_lossy().into_owned());
    let levels = line_levels(&code_lines, &stem);
    let lines: Vec<Line> = raw_lines
        .iter()
        .zip(code_lines)
        .zip(&mask)
        .map(|((raw, code), &test)| Line {
            raw: (*raw).to_string(),
            code,
            test,
        })
        .collect();

    let scoped_unwrap = unwrap_scoped(rel);
    // name -> (orderings used, first line seen)
    let mut atomics: BTreeMap<String, (BTreeSet<&'static str>, usize)> = BTreeMap::new();

    for (idx, line) in lines.iter().enumerate() {
        if line.test {
            continue;
        }
        let code = &line.code;
        let trimmed = code.trim_start();
        let is_attr = trimmed.starts_with("#[") || trimmed.starts_with("#!");

        // Rule 1: SAFETY.
        if !is_attr && has_word(code, "unsafe") {
            let (form, accepts_safety_doc) = if code.contains("unsafe fn") {
                ("unsafe fn", true)
            } else if code.contains("unsafe impl") {
                ("unsafe impl", false)
            } else {
                ("unsafe block", false)
            };
            let ok = justified_above(&lines, idx, "SAFETY:")
                || (accepts_safety_doc && justified_above(&lines, idx, "# Safety"));
            if !ok {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    rule: Rule::MissingSafety,
                    message: format!("{form} without a `// SAFETY:` justification"),
                });
            }
        }

        // Rule 2: TWIN registry.
        if trimmed.starts_with("#[target_feature") {
            // The fn declaration follows within a few lines (more
            // attributes and comments may sit in between).
            let mut name = None;
            for next in lines.iter().skip(idx + 1).take(8) {
                if let Some(pos) = next.code.find("fn ") {
                    let tail = &next.code[pos + 3..];
                    let end = tail
                        .find(|c: char| !c.is_alphanumeric() && c != '_')
                        .unwrap_or(tail.len());
                    name = Some(tail[..end].to_string());
                    break;
                }
            }
            if let Some(name) = name {
                let level = &levels[idx];
                if !registry.contains(&(level.clone(), name.clone())) {
                    out.push(Violation {
                        file: rel.to_path_buf(),
                        line: idx + 1,
                        rule: Rule::UnregisteredKernel,
                        message: format!(
                            "#[target_feature] fn `{name}` is not registered at level `{level}` \
                             in {TWIN_REGISTRY} (add the level to its KERNEL_TWINS entry, or \
                             add it to KERNEL_TWINS with a portable twin, or to KERNEL_HELPERS \
                             at that level)"
                        ),
                    });
                }
            }
        }

        // Rule 3: UNWRAP (scoped).
        if scoped_unwrap
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !justified_above(&lines, idx, "INFALLIBLE:")
        {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: idx + 1,
                rule: Rule::BareUnwrap,
                message: "bare unwrap()/expect() in serving/backend code without an \
                          `// INFALLIBLE:` justification"
                    .to_string(),
            });
        }

        // Rule 4: ORDERING.
        let is_write = ATOMIC_WRITES.iter().any(|m| code.contains(m));
        let is_load = code.contains(".load(");
        if is_write || is_load {
            let near = orderings_near(&lines, idx);
            if !near.is_empty() {
                // Track every named atomic's orderings for the mixed
                // rule.
                for method in ATOMIC_WRITES.iter().copied().chain([".load("]) {
                    if let Some(pos) = code.find(method) {
                        if let Some(name) = receiver_name(code, pos) {
                            let entry = atomics
                                .entry(name)
                                .or_insert_with(|| (BTreeSet::new(), idx + 1));
                            entry.0.extend(near.iter().copied());
                        }
                    }
                }
                if is_write {
                    let justified = lines[idx.saturating_sub(ORDERING_WINDOW)..=idx]
                        .iter()
                        .any(|l| l.raw.contains("ORDERING:"));
                    if !justified {
                        out.push(Violation {
                            file: rel.to_path_buf(),
                            line: idx + 1,
                            rule: Rule::UnjustifiedOrdering,
                            message: format!(
                                "atomic write with Ordering::{} but no `// ORDERING:` \
                                 justification within {ORDERING_WINDOW} lines",
                                near.join("/")
                            ),
                        });
                    }
                }
            }
        }
    }

    // Mixed-ordering rule: SeqCst and Relaxed on the same named atomic
    // within one file is either a bug or two sites reasoning from
    // different memory models.
    for (name, (orderings, first_line)) in atomics {
        if orderings.contains("SeqCst") && orderings.contains("Relaxed") {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: first_line,
                rule: Rule::MixedOrdering,
                message: format!(
                    "atomic `{name}` is accessed with both SeqCst and Relaxed in this file — \
                     pick one model and document it"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, text: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        lint_file(Path::new(rel), text, &Registry::new(), &mut out);
        out
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let src = r#"
fn f() {
    let _ = "unsafe { } .unwrap() Ordering::Relaxed store(";
    // unsafe prose about .unwrap() and Ordering::SeqCst
}
"#;
        assert!(lint_str("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn f(v: Option<u8>) -> u8 {
        unsafe { core::hint::unreachable_unchecked() };
        v.unwrap()
    }
}
"#;
        assert!(lint_str("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_forms_are_accepted() {
        let clean = r#"
/// Docs.
///
/// # Safety
///
/// Caller promises things.
unsafe fn contract() {}

fn f() {
    // SAFETY: the slice is non-empty by construction.
    let _ = unsafe { contract() };
}
"#;
        assert!(lint_str("crates/hdc/src/x.rs", clean).is_empty());
        let dirty = "fn f() {\n    let _ = unsafe { g() };\n}\n";
        let v = lint_str("crates/hdc/src/x.rs", dirty);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::MissingSafety);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unwrap_rule_is_path_scoped() {
        let src = "fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
        assert!(lint_str("crates/hdc/src/x.rs", src).is_empty());
        let v = lint_str("crates/core/src/backend/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::BareUnwrap);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn ordering_write_needs_justification_and_loads_do_not() {
        let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
static C: AtomicU64 = AtomicU64::new(0);
fn bump() {
    C.fetch_add(1, Ordering::Relaxed);
}
fn read() -> u64 {
    C.load(Ordering::Relaxed)
}
"#;
        let v = lint_str("crates/serve/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnjustifiedOrdering);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn mixed_seqcst_relaxed_is_flagged_even_when_justified() {
        let src = r#"
use std::sync::atomic::{AtomicBool, Ordering};
static F: AtomicBool = AtomicBool::new(false);
fn set() {
    // ORDERING: documented.
    F.store(true, Ordering::SeqCst);
}
fn peek() -> bool {
    F.load(Ordering::Relaxed)
}
"#;
        let v = lint_str("crates/serve/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::MixedOrdering);
    }
}
