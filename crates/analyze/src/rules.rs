//! The repo-invariant rules D001–D005, and the suppression pragmas.
//!
//! Each rule is a scan over the token stream of one file (see
//! [`crate::lexer`]), scoped by the file's workspace-relative path.  The
//! rules encode invariants this repository's determinism and reporting
//! story depend on — see `docs/ANALYZE_RULES.md` for the catalogue with
//! rationale and examples.

use crate::lexer::{tokenize, Token, TokenKind};

/// A lint rule's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Malformed `ld-analyze` pragma (reserved id `D000`).
    Pragma,
    /// Bare `std::collections::HashMap`/`HashSet` in library code.
    D001,
    /// `std::time::Instant`/`SystemTime` outside perf/bench modules.
    D002,
    /// Crate root missing `#![forbid(unsafe_code)]`, a `missing_docs`
    /// lint, or crate-level docs.
    D003,
    /// `.unwrap()`/`.expect()` in library non-test code of runner/local.
    D004,
    /// `pub enum …Error` without a `Display` impl in the same file.
    D005,
}

impl Rule {
    /// The stable rule id used in pragmas and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Pragma => "D000",
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::D005 => "D005",
        }
    }

    /// Parses a rule id as written in a pragma.
    pub fn from_id(id: &str) -> Option<Rule> {
        match id {
            "D001" => Some(Rule::D001),
            "D002" => Some(Rule::D002),
            "D003" => Some(Rule::D003),
            "D004" => Some(Rule::D004),
            "D005" => Some(Rule::D005),
            _ => None,
        }
    }

    /// One-line description, shown in reports.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::Pragma => "malformed ld-analyze pragma",
            Rule::D001 => "bare std HashMap/HashSet (iteration order is nondeterministic)",
            Rule::D002 => "wall-clock types outside perf/bench modules",
            Rule::D003 => "crate root missing forbid(unsafe_code)/missing_docs/crate docs",
            Rule::D004 => "unwrap/expect in library non-test code",
            Rule::D005 => "public error enum without a Display impl",
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Human-readable description of the specific site.
    pub message: String,
}

/// One finding silenced by an `ld-analyze: allow(...)` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// The suppressed rule.
    pub rule: Rule,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line of the suppressed finding.
    pub line: u32,
    /// The pragma's stated justification.
    pub reason: String,
}

/// A parsed `// ld-analyze: allow(D00X, reason = "…")` pragma.  The
/// pragma suppresses findings of the named rule on its own line and on
/// the line directly below it (so it can sit above the offending
/// statement or trail it on the same line).
struct Pragma {
    rule: Rule,
    line: u32,
    reason: String,
}

/// Analyzes one file.  `path` is the workspace-relative path with `/`
/// separators — rule scoping keys off it.  Returns the violations and the
/// pragma-suppressed findings (kept separate so reports can audit every
/// suppression's reason).
pub fn analyze_source(path: &str, source: &str) -> (Vec<Finding>, Vec<Suppressed>) {
    let tokens = tokenize(source);
    let code: Vec<Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).copied().collect();
    let mut findings = Vec::new();
    let mut pragmas = Vec::new();
    collect_pragmas(path, &tokens, &mut pragmas, &mut findings);

    let test_start = first_cfg_test_line(&code);
    let scope = Scope::of(path);

    if scope.d001 {
        check_std_path_imports(
            path,
            &code,
            "collections",
            &["HashMap", "HashSet"],
            Rule::D001,
            test_start,
            &mut findings,
            |name| {
                format!("bare std::collections::{name}; use Fx{name} (crate::hashing) or a BTree map so iteration order is deterministic")
            },
        );
    }
    if scope.d002 {
        check_std_path_imports(
            path,
            &code,
            "time",
            &["Instant", "SystemTime"],
            Rule::D002,
            test_start,
            &mut findings,
            |name| {
                format!("std::time::{name} outside perf/bench modules; wall-clock reads make runs irreproducible")
            },
        );
    }
    if scope.d003 {
        check_crate_root(path, source, &tokens, &code, &mut findings);
    }
    if scope.d004 {
        check_unwrap_expect(path, &code, test_start, &mut findings);
    }
    if scope.d005 {
        check_error_enums_have_display(path, &code, test_start, &mut findings);
    }

    apply_pragmas(findings, &pragmas)
}

/// Which rules apply to a file, derived from its workspace-relative path.
struct Scope {
    d001: bool,
    d002: bool,
    d003: bool,
    d004: bool,
    d005: bool,
}

impl Scope {
    fn of(path: &str) -> Scope {
        // Library sources only: integration tests, benches and examples
        // under a crate live outside `src/` and are not report-producing
        // library code.
        let first_party = path.starts_with("crates/") && path.contains("/src/");
        let perf_module = path.contains("bench") || path.contains("perf");
        // Scenario modules are excluded from D004 by design, not
        // oversight: every scenario cell runs under the sweep pipeline's
        // panic-isolation contract (`catch_unwind` per cell), so an
        // `.expect` on a construction invariant surfaces as a recorded
        // per-cell failure in the report, never as a crashed sweep.
        // The serve library runs the daemon's accept loop, job workers and
        // dispatch coordinator: a panic there drops a connection or a job
        // rather than a cell, with no per-cell isolation to record it.
        let no_unwrap_lib = (path.starts_with("crates/runner/src/")
            || path.starts_with("crates/local/src/")
            || path.starts_with("crates/serve/src/"))
            && !path.contains("/bin/")
            && !path.starts_with("crates/runner/src/scenarios/");
        // The bitset canon kernel sits on every sweep's hot path and is
        // differenced byte-for-byte against the oracle; a panic in it
        // takes the whole dedup pipeline down, so it gets the same
        // no-unwrap discipline as the runner, local and serve libraries.
        let canon_kernel = path == "crates/graph/src/fastcanon.rs";
        Scope {
            d001: first_party,
            d002: first_party && !perf_module,
            // Every crate root in the workspace, vendored stand-ins
            // included: they are first-party code wearing external names.
            d003: path == "src/lib.rs" || path.ends_with("/src/lib.rs"),
            d004: no_unwrap_lib || canon_kernel,
            d005: first_party,
        }
    }
}

/// The line of the first `#[cfg(test)]` attribute, if any.  This
/// workspace keeps test modules at the end of each file, so everything
/// from that line onward is treated as test code (D001/D002/D004 are
/// about library behaviour, not test scaffolding).
fn first_cfg_test_line(code: &[Token<'_>]) -> u32 {
    for window in code.windows(7) {
        let texts: Vec<&str> = window.iter().map(|t| t.text).collect();
        if texts == ["#", "[", "cfg", "(", "test", ")", "]"] {
            return window[0].line;
        }
    }
    u32::MAX
}

fn collect_pragmas(
    path: &str,
    tokens: &[Token<'_>],
    pragmas: &mut Vec<Pragma>,
    findings: &mut Vec<Finding>,
) {
    for token in tokens.iter().filter(|t| t.is_comment()) {
        // Only comments *leading* with the marker are pragmas; prose that
        // merely mentions `ld-analyze:` mid-sentence is not.
        let lead = token
            .text
            .trim_start_matches(['/', '*'])
            .trim_start_matches('!')
            .trim_start();
        let Some(rest) = lead.strip_prefix("ld-analyze:") else {
            continue;
        };
        match parse_pragma(rest) {
            Ok((rule, reason)) => pragmas.push(Pragma {
                rule,
                line: token.line,
                reason,
            }),
            Err(why) => findings.push(Finding {
                rule: Rule::Pragma,
                file: path.to_string(),
                line: token.line,
                message: format!("malformed ld-analyze pragma: {why}"),
            }),
        }
    }
}

/// Parses the text after `ld-analyze:`; expected shape
/// `allow(D00X, reason = "non-empty justification")`.
fn parse_pragma(rest: &str) -> Result<(Rule, String), String> {
    let rest = rest.trim_start();
    let body = rest
        .strip_prefix("allow(")
        .ok_or("expected `allow(<rule>, reason = \"...\")`")?;
    let (id, after_id) = body
        .split_once(',')
        .ok_or("expected a rule id followed by `, reason = \"...\"`")?;
    let rule =
        Rule::from_id(id.trim()).ok_or_else(|| format!("unknown rule id `{}`", id.trim()))?;
    let after_eq = after_id
        .trim_start()
        .strip_prefix("reason")
        .and_then(|s| s.trim_start().strip_prefix('='))
        .ok_or("expected `reason = \"...\"` after the rule id")?;
    let quoted = after_eq.trim_start();
    let inner = quoted
        .strip_prefix('"')
        .and_then(|s| s.split_once('"'))
        .map(|(reason, _)| reason)
        .ok_or("reason must be a double-quoted string")?;
    if inner.trim().is_empty() {
        return Err("reason must not be empty".to_string());
    }
    Ok((rule, inner.to_string()))
}

/// Splits findings into (kept, suppressed) under the pragma scope rule:
/// a pragma covers its own line and the next line, for its rule only.
fn apply_pragmas(findings: Vec<Finding>, pragmas: &[Pragma]) -> (Vec<Finding>, Vec<Suppressed>) {
    let mut kept = Vec::new();
    let mut suppressed = Vec::new();
    for finding in findings {
        let cover = pragmas.iter().find(|p| {
            p.rule == finding.rule && (finding.line == p.line || finding.line == p.line + 1)
        });
        match cover {
            Some(pragma) => suppressed.push(Suppressed {
                rule: finding.rule,
                file: finding.file,
                line: finding.line,
                reason: pragma.reason.clone(),
            }),
            None => kept.push(finding),
        }
    }
    (kept, suppressed)
}

/// D001/D002 core: flags the named idents inside `std::<module>::…` paths
/// (both `use` declarations and fully-qualified expression paths).  The
/// import is the single gateway for the plain-named types, so flagging
/// path mentions is complete without chasing every local use.
#[allow(clippy::too_many_arguments)]
fn check_std_path_imports(
    path: &str,
    code: &[Token<'_>],
    module: &str,
    names: &[&str],
    rule: Rule,
    test_start: u32,
    findings: &mut Vec<Finding>,
    message: impl Fn(&str) -> String,
) {
    let mut i = 0;
    while i + 4 < code.len() {
        let is_path = code[i].text == "std"
            && code[i + 1].text == ":"
            && code[i + 2].text == ":"
            && code[i + 3].text == module
            && code[i + 4].text == ":";
        if !is_path {
            i += 1;
            continue;
        }
        // Scan the path/use-tree region that follows: idents, `::`,
        // grouping braces, commas and `as` renames, up to the first token
        // that ends the region (`;`, `(`, `<`, …).
        let mut j = i + 5;
        while j < code.len() {
            let t = code[j];
            let region =
                matches!(t.kind, TokenKind::Ident) || matches!(t.text, ":" | "{" | "}" | "," | "*");
            if !region {
                break;
            }
            if t.kind == TokenKind::Ident && names.contains(&t.text) && t.line < test_start {
                findings.push(Finding {
                    rule,
                    file: path.to_string(),
                    line: t.line,
                    message: message(t.text),
                });
            }
            j += 1;
        }
        i = j;
    }
}

/// D003: crate roots must carry `#![forbid(unsafe_code)]`, a
/// `missing_docs` lint (warn or deny) and crate-level `//!` docs.
fn check_crate_root(
    path: &str,
    source: &str,
    tokens: &[Token<'_>],
    code: &[Token<'_>],
    findings: &mut Vec<Finding>,
) {
    let mut missing = Vec::new();
    if !has_inner_attr(code, "forbid", "unsafe_code") {
        missing.push("#![forbid(unsafe_code)]");
    }
    if !has_inner_attr(code, "warn", "missing_docs")
        && !has_inner_attr(code, "deny", "missing_docs")
    {
        missing.push("#![warn(missing_docs)] (or deny)");
    }
    let has_crate_docs = tokens.first().is_some_and(|t| {
        (t.kind == TokenKind::LineComment && t.text.starts_with("//!"))
            || (t.kind == TokenKind::BlockComment && t.text.starts_with("/*!"))
    });
    if !has_crate_docs {
        missing.push("leading //! crate docs");
    }
    if !missing.is_empty() && !source.is_empty() {
        findings.push(Finding {
            rule: Rule::D003,
            file: path.to_string(),
            line: 1,
            message: format!("crate root missing {}", missing.join(", ")),
        });
    }
}

/// True when the token stream contains `#![<lint>(… <arg> …)]`.
fn has_inner_attr(code: &[Token<'_>], lint: &str, arg: &str) -> bool {
    let mut i = 0;
    while i + 4 < code.len() {
        if code[i].text == "#"
            && code[i + 1].text == "!"
            && code[i + 2].text == "["
            && code[i + 3].text == lint
            && code[i + 4].text == "("
        {
            let mut j = i + 5;
            while j < code.len() && code[j].text != "]" {
                if code[j].text == arg {
                    return true;
                }
                j += 1;
            }
        }
        i += 1;
    }
    false
}

/// D004: `.unwrap()` / `.expect(` in non-test library code.  Exact-ident
/// matches only, so `unwrap_or_else` and friends pass.
fn check_unwrap_expect(
    path: &str,
    code: &[Token<'_>],
    test_start: u32,
    findings: &mut Vec<Finding>,
) {
    for window in code.windows(3) {
        let [dot, name, paren] = window else { continue };
        if dot.text == "."
            && paren.text == "("
            && matches!(name.text, "unwrap" | "expect")
            && name.line < test_start
        {
            findings.push(Finding {
                rule: Rule::D004,
                file: path.to_string(),
                line: name.line,
                message: format!(
                    ".{}() in library code; return an error or handle the None/Err arm",
                    name.text
                ),
            });
        }
    }
}

/// D005: every `pub enum …Error` must have a `Display` impl in the same
/// file (the repo keeps error types and their rendering together).
fn check_error_enums_have_display(
    path: &str,
    code: &[Token<'_>],
    test_start: u32,
    findings: &mut Vec<Finding>,
) {
    let mut error_enums: Vec<(String, u32)> = Vec::new();
    for window in code.windows(3) {
        let [kw_pub, kw_enum, name] = window else {
            continue;
        };
        if kw_pub.text == "pub"
            && kw_enum.text == "enum"
            && name.kind == TokenKind::Ident
            && name.text.ends_with("Error")
            && name.line < test_start
        {
            error_enums.push((name.text.to_string(), name.line));
        }
    }
    for (name, line) in error_enums {
        if !has_display_impl(code, &name) {
            findings.push(Finding {
                rule: Rule::D005,
                file: path.to_string(),
                line,
                message: format!("pub enum {name} has no Display impl in this file"),
            });
        }
    }
}

/// True when the stream contains `impl … Display for <name>` (any path
/// prefix before `Display`, generics between `impl` and the trait).
fn has_display_impl(code: &[Token<'_>], name: &str) -> bool {
    for (i, token) in code.iter().enumerate() {
        if token.text != "Display" {
            continue;
        }
        if code.get(i + 1).is_some_and(|t| t.text == "for")
            && code.get(i + 2).is_some_and(|t| t.text == name)
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> (Vec<Finding>, Vec<Suppressed>) {
        analyze_source(path, src)
    }

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d001_flags_imports_and_qualified_paths_but_not_strings() {
        let src = "use std::collections::{HashMap, VecDeque};\n\
                   fn f() { let _: std::collections::HashSet<u8> = Default::default(); }\n\
                   const S: &str = \"std::collections::HashMap\";\n";
        let (findings, _) = run("crates/local/src/x.rs", src);
        assert_eq!(rules_of(&findings), [Rule::D001, Rule::D001]);
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 2);
    }

    #[test]
    fn d001_ignores_test_modules_and_non_first_party_paths() {
        let src = "#[cfg(test)]\nmod tests {\n  use std::collections::HashMap;\n}\n";
        let (findings, _) = run("crates/local/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        let src = "use std::collections::HashMap;\n";
        let (findings, _) = run("vendor/rand/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn d002_flags_instant_outside_bench_paths() {
        let src = "use std::time::{Duration, Instant};\n";
        let (findings, _) = run("crates/runner/src/x.rs", src);
        assert_eq!(rules_of(&findings), [Rule::D002]);
        let (findings, _) = run("crates/bench/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn pragma_suppresses_next_line_and_records_reason() {
        let src = "// ld-analyze: allow(D002, reason = \"reporting only\")\n\
                   use std::time::Instant;\n\
                   use std::time::SystemTime;\n";
        let (findings, suppressed) = run("crates/runner/src/x.rs", src);
        // The pragma covers line 2 but not line 3.
        assert_eq!(rules_of(&findings), [Rule::D002]);
        assert_eq!(findings[0].line, 3);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(suppressed[0].reason, "reporting only");
    }

    #[test]
    fn malformed_pragmas_are_themselves_findings() {
        for bad in [
            "// ld-analyze: allow(D002)",
            "// ld-analyze: allow(D999, reason = \"x\")",
            "// ld-analyze: allow(D002, reason = \"\")",
            "// ld-analyze: deny(D002)",
        ] {
            let (findings, _) = run("crates/local/src/x.rs", bad);
            assert_eq!(rules_of(&findings), [Rule::Pragma], "{bad}");
        }
    }

    #[test]
    fn d003_checks_crate_roots_only() {
        let bare = "pub fn f() {}\n";
        let (findings, _) = run("crates/local/src/lib.rs", bare);
        assert_eq!(rules_of(&findings), [Rule::D003]);
        assert!(findings[0].message.contains("forbid(unsafe_code)"));
        let (findings, _) = run("crates/local/src/other.rs", bare);
        assert!(findings.is_empty());
        let good = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
        let (findings, _) = run("vendor/rand/src/lib.rs", good);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn d004_scope_is_runner_local_and_serve_libraries() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        for in_scope in [
            "crates/runner/src/x.rs",
            "crates/local/src/x.rs",
            "crates/serve/src/http.rs",
        ] {
            let (findings, _) = run(in_scope, src);
            assert_eq!(rules_of(&findings), [Rule::D004], "{in_scope}");
        }
        // The canon kernel is individually in scope; its sibling graph
        // modules stay exempt.
        let (findings, _) = run("crates/graph/src/fastcanon.rs", src);
        assert_eq!(rules_of(&findings), [Rule::D004]);
        for exempt in [
            "crates/graph/src/x.rs",
            "crates/runner/src/bin/ldx.rs",
            "crates/serve/src/bin/ldx.rs",
            "crates/serve/tests/http_proptest.rs",
            "crates/runner/src/scenarios/section2.rs",
            "tests/src/x.rs",
        ] {
            let (findings, _) = run(exempt, src);
            assert!(findings.is_empty(), "{exempt}: {findings:?}");
        }
        // unwrap_or_else is a different ident; not flagged.
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }\n";
        let (findings, _) = run("crates/local/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn d005_requires_display_in_file() {
        let src = "pub enum ParseError { Bad }\n";
        let (findings, _) = run("crates/graph/src/x.rs", src);
        assert_eq!(rules_of(&findings), [Rule::D005]);
        let src = "pub enum ParseError { Bad }\n\
                   impl std::fmt::Display for ParseError {\n\
                   fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n}\n";
        let (findings, _) = run("crates/graph/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        // Non-Error enums and non-pub enums are out of scope.
        let src = "pub enum Shape { S }\nenum InnerError { X }\n";
        let (findings, _) = run("crates/graph/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
