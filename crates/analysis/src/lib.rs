//! Syntactic workspace lints — repo invariants clippy cannot express.
//!
//! Twelve rules, run by `cargo run -p start-analysis -- lint` (and CI):
//!
//! 1. **no-panic-lib**: no `.unwrap()` / `.expect(` in non-test library code
//!    of `crates/nn`, `crates/core`, `crates/baselines`, `crates/serve`,
//!    `crates/ann`.
//!    Test modules (`#[cfg(test)]`) and `tests/` trees are exempt; a
//!    deliberate site can carry a `// lint-ok: <reason>` justification on
//!    the same line.
//! 2. **f64-kernels**: no `f64` in `crates/nn/src/array.rs` kernels unless
//!    the line (or the one above) carries `// f64-ok: <reason>` — keeps
//!    accidental double-precision accumulation out of the hot kernels while
//!    allowing deliberate, documented uses.
//! 3. **bench-registry**: every experiment binary in `crates/bench/src/bin`
//!    (the `results_*` producers) must be registered by name in
//!    `EXPERIMENTS.md`, so no figure/table can silently drop out of the
//!    report.
//! 4. **op-table-coverage**: every `OpKind` declared in graph.rs's
//!    `op_kinds!` block must have an entry in all four per-op tables — the
//!    liveness operand table (`Op::<Kind>` inside `backward_value_reads`),
//!    the gradcheck registry (whose own `OpKind::ALL` exhaustiveness guard
//!    must be present), and the symbolic verifier's two tables in
//!    symbolic.rs (the shape rules in `sym_shape`, which the concrete
//!    auditor shares, and the abstract transfer functions in
//!    `abs_transfer`, delimited by the `TRANSFER_TABLES_END` sentinel). The
//!    in-crate exhaustive matches already fail the *build* when a variant is
//!    missing; this rule fails the *lint* with a message naming the table,
//!    so the contract survives refactors of those matches into wildcard
//!    arms.
//! 5. **no-config-literal**: no struct literals of the validated config
//!    types — `StartConfig`, `ServeConfig`, `RouterConfig`, `HnswConfig`
//!    (the [`CONFIG_LITERAL_TYPES`] table) — outside each type's own
//!    defining module and test code. Every other construction goes through
//!    the type's `builder()` (or a preset), so it cannot skip validation.
//!    `// lint-ok: <reason>` escapes a deliberate site.
//! 6. **no-std-sync**: library code uses the `start_sync` shim layer, not
//!    `std::sync` — otherwise the code is invisible to the deterministic
//!    model checker and the lock-order sanitizer. The shim crate itself
//!    (`crates/sync`) and `third_party/` are the allowlist; a deliberate
//!    site carries `// sync-ok: <reason>`.
//! 7. **wait-needs-predicate**: every `Condvar::wait`/`wait_timeout` call
//!    sits inside a `while`/`loop`/`for` body, so a spurious wakeup always
//!    re-checks the predicate. `// wait-ok: <reason>` escapes a deliberate
//!    site (argument-less `.wait()` calls — e.g. handles and barriers — are
//!    not condvar waits and are ignored).
//! 8. **relaxed-needs-reason**: `Ordering::Relaxed` only with a
//!    `// relaxed-ok: <reason>` justification on the same line or in the
//!    comment block directly above, mirroring `// f64-ok:` — every relaxed
//!    access must say why no ordering is needed.
//! 9. **unsafe-needs-reason**: every `unsafe` *block* in non-test library
//!    code carries `// unsafe-ok: <reason>` on the same line or in the
//!    comment block directly above — the safety argument lives next to the
//!    code that assumes it. `unsafe fn`/`impl`/`trait` declarations are
//!    exempt (they state the contract; the block is where it is assumed),
//!    and the `start_sync` shim is *not* exempt from this rule.
//! 10. **stale-escape**: every escape-marker justification (a comment whose
//!     text begins with one of the `f64-ok:` / `sync-ok:` / `wait-ok:` /
//!     `relaxed-ok:` / `unsafe-ok:` / `deprecated-ok:` markers) must still
//!     sit next to a site of the kind it excuses — same line, or the
//!     nearest code line above or below across a contiguous comment run. A
//!     justification orphaned by a refactor stops meaning anything; this
//!     rule makes it an error instead of fossil documentation.
//! 11. **no-stale-deprecated**: no `#[deprecated]` attributes in non-test
//!     library code — a deprecation shim rides exactly one release and is
//!     then deleted, and this rule is what forces the deletion. A site that
//!     must outlive a release carries `// deprecated-ok: <reason>` (which
//!     rule 10 then keeps anchored).
//! 12. **one-train-loop**: non-test library code of `crates/core` and
//!     `crates/baselines` builds no `BatchTrainer`, `AdamW` or
//!     `WarmupCosine` and reads no `audit_enabled` ([`TRAIN_LOOP_TOKENS`]):
//!     every model trains through `start_nn::fit`, so a hand-copied epoch
//!     loop cannot grow back. No escape marker.
//!
//! The scanner is line-based with a small state machine that strips string
//! literals and comments before matching, so occurrences inside strings,
//! docs, or comments do not trip the rules.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lint {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
        } else {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        }
    }
}

/// Crates whose library code must stay panic-free (rule 1).
pub const PANIC_FREE_CRATES: &[&str] = &["nn", "core", "baselines", "serve", "ann", "sync"];

// ---------------------------------------------------------------------------
// Line scanner
// ---------------------------------------------------------------------------

/// Split one source line into its code part and its comment part, tracking
/// block-comment and string-literal state across lines. String/char-literal
/// contents are blanked in the code part (the quotes remain), so rule
/// patterns never match inside literals — including `//` sequences on the
/// continuation lines of a multi-line string. Lifetimes (`'a`, `'static`)
/// are left intact.
fn split_code_comment(line: &str, block_depth: &mut usize, in_str: &mut bool) -> (String, String) {
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let bytes: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if *block_depth > 0 {
            if c == '*' && next == Some('/') {
                *block_depth -= 1;
                i += 2;
            } else if c == '/' && next == Some('*') {
                *block_depth += 1;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if *in_str {
            match c {
                '\\' => i += 2, // skip escaped char
                '"' => {
                    *in_str = false;
                    code.push('"');
                    i += 1;
                }
                _ => {
                    code.push(' ');
                    i += 1;
                }
            }
            continue;
        }
        match c {
            '/' if next == Some('/') => {
                // Collect chars rather than byte-slicing: the tail offset is
                // a char count, not a byte count (comments may hold non-ASCII).
                comment = bytes[i..].iter().collect();
                break;
            }
            '/' if next == Some('*') => {
                *block_depth += 1;
                i += 2;
            }
            '"' => {
                *in_str = true;
                code.push('"');
                i += 1;
            }
            '\'' => {
                // Char literal iff a closing quote follows within 2 chars
                // (escaped or plain); otherwise it is a lifetime.
                if next == Some('\\') && bytes.get(i + 3) == Some(&'\'') {
                    code.push_str("' '");
                    i += 4;
                } else if bytes.get(i + 2) == Some(&'\'') && next != Some('\'') {
                    code.push_str("' '");
                    i += 3;
                } else {
                    code.push('\'');
                    i += 1;
                }
            }
            _ => {
                code.push(c);
                i += 1;
            }
        }
    }
    (code, comment)
}

/// Does `code` contain `needle` at an identifier boundary?
fn has_token(code: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !code[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !code[at + needle.len()..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

// ---------------------------------------------------------------------------
// #[cfg(test)] tracking shared by the per-line rules
// ---------------------------------------------------------------------------

/// Brace-depth state machine that marks the span of a `#[cfg(test)]` item.
/// Feed it each line's code part (comments already stripped); it answers
/// whether that line sits inside test-gated code.
#[derive(Default)]
struct TestModTracker {
    brace_depth: isize,
    pending_cfg_test: bool,
    // Brace depth at which the current #[cfg(test)] item began; while set,
    // lines are exempt until the depth drops back.
    test_mod_floor: Option<isize>,
}

impl TestModTracker {
    fn line_is_test(&mut self, code: &str) -> bool {
        let trimmed = code.trim();
        if self.test_mod_floor.is_none() {
            if trimmed.contains("cfg(test)") {
                self.pending_cfg_test = true;
            } else if self.pending_cfg_test && !trimmed.is_empty() && !trimmed.starts_with("#[") {
                // The item the attribute applies to starts on this line.
                self.test_mod_floor = Some(self.brace_depth);
                self.pending_cfg_test = false;
            }
        }
        let in_test = self.test_mod_floor.is_some();

        for c in code.chars() {
            match c {
                '{' => self.brace_depth += 1,
                '}' => self.brace_depth -= 1,
                _ => {}
            }
        }
        if let Some(floor) = self.test_mod_floor {
            // The item is closed once depth returns to its floor after
            // having been entered (i.e. a closing brace on or below floor).
            if self.brace_depth <= floor && code.contains('}') {
                self.test_mod_floor = None;
            }
        }
        in_test
    }
}

// ---------------------------------------------------------------------------
// Rule 1: no unwrap/expect in non-test library code
// ---------------------------------------------------------------------------

/// Scan one library source file for `.unwrap()` / `.expect(` outside
/// `#[cfg(test)]` modules. `file` is the label used in findings.
pub fn lint_no_panics(file: &str, source: &str) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut block_depth = 0usize;
    let mut in_str = false;
    let mut tracker = TestModTracker::default();

    for (n, raw) in source.lines().enumerate() {
        let (code, comment) = split_code_comment(raw, &mut block_depth, &mut in_str);
        let in_test = tracker.line_is_test(&code);
        if !in_test
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !comment.contains("lint-ok:")
        {
            let what = if code.contains(".unwrap()") { ".unwrap()" } else { ".expect(" };
            lints.push(Lint {
                file: file.to_string(),
                line: n + 1,
                rule: "no-panic-lib",
                message: format!(
                    "{what} in library code; return a typed error or use assert!/panic! \
                     with a message (or justify with `// lint-ok: <reason>`)"
                ),
            });
        }
    }
    lints
}

// ---------------------------------------------------------------------------
// Rule 5: StartConfig struct literals only in config.rs and tests
// ---------------------------------------------------------------------------

/// The validated-config types rule 5 protects, paired with the one file
/// allowed to write their struct literals: the defining module, where the
/// builder itself (and `Default`) must construct the raw struct. Matching
/// is by workspace-relative path suffix.
pub const CONFIG_LITERAL_TYPES: &[(&str, &str)] = &[
    ("StartConfig", "crates/core/src/config.rs"),
    ("ServeConfig", "crates/serve/src/config.rs"),
    ("RouterConfig", "crates/serve/src/config.rs"),
    ("HnswConfig", "crates/ann/src/hnsw.rs"),
];

/// Is there a `<needle> { ...` struct-literal expression in `code`?
///
/// Declarations (`struct StartConfig {`) and impl headers
/// (`impl StartConfig {`) are not literals and are skipped; update syntax
/// (`..StartConfig::default()`) never has `{` after the path, so it passes
/// on its own.
fn has_config_literal(code: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = code[start..].find(needle) {
        let at = start + pos;
        start = at + needle.len();
        let before = code[..at].trim_end();
        let before_ok = at == 0 || !code[..at].chars().next_back().is_some_and(is_ident);
        let after = &code[at + needle.len()..];
        if !before_ok || after.chars().next().is_some_and(is_ident) {
            continue; // part of a longer identifier (e.g. `StartConfigBuilder`)
        }
        if before.ends_with("struct") || before.ends_with("impl") || before.ends_with("for") {
            continue; // declaration / impl header, not a literal
        }
        if before.ends_with("->") {
            continue; // return type followed by the function body brace
        }
        if after.trim_start().starts_with('{') {
            return true;
        }
    }
    false
}

/// Scan one source file for struct literals of any [`CONFIG_LITERAL_TYPES`]
/// entry outside `#[cfg(test)]` code. Each type's own defining file (where
/// the builder must write the raw struct) is exempt for that type only —
/// e.g. `crates/serve/src/config.rs` may write `ServeConfig { .. }` but not
/// `HnswConfig { .. }`.
pub fn lint_config_literal(file: &str, source: &str) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut block_depth = 0usize;
    let mut in_str = false;
    let mut tracker = TestModTracker::default();

    for (n, raw) in source.lines().enumerate() {
        let (code, comment) = split_code_comment(raw, &mut block_depth, &mut in_str);
        let in_test = tracker.line_is_test(&code);
        if in_test || comment.contains("lint-ok:") {
            continue;
        }
        for (ty, defining_file) in CONFIG_LITERAL_TYPES {
            if file.ends_with(defining_file) {
                continue;
            }
            if has_config_literal(&code, ty) {
                lints.push(Lint {
                    file: file.to_string(),
                    line: n + 1,
                    rule: "no-config-literal",
                    message: format!(
                        "`{ty} {{ .. }}` literal skips validation; build it with \
                         `{ty}::builder()` or a preset (or justify with \
                         `// lint-ok: <reason>`)"
                    ),
                });
            }
        }
    }
    lints
}

// ---------------------------------------------------------------------------
// Rule 11: no stale #[deprecated] entry points
// ---------------------------------------------------------------------------

/// Flag `#[deprecated]` attributes in non-test library code unless the same
/// line or the contiguous comment block directly above carries
/// `// deprecated-ok: <reason>`.
///
/// Deprecation here is a one-release migration aid, not a parking lot: a
/// shim rides exactly one deprecation release and is then deleted. Without
/// this rule nothing ever forces the deletion — the attribute silences the
/// compiler for callers and the shim fossilizes. A site that genuinely must
/// outlive a release says why with the marker, and rule 10 then keeps that
/// justification anchored to the attribute.
pub fn lint_stale_deprecated(file: &str, source: &str) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut block_depth = 0usize;
    let mut in_str = false;
    let mut tracker = TestModTracker::default();
    // True while the contiguous run of comment-only lines directly above
    // the current line contains the marker.
    let mut run_ok = false;
    for (n, raw) in source.lines().enumerate() {
        let (code, comment) = split_code_comment(raw, &mut block_depth, &mut in_str);
        let in_test = tracker.line_is_test(&code);
        if code.trim().is_empty() {
            if comment.contains("deprecated-ok:") {
                run_ok = true;
            } else if comment.is_empty() {
                run_ok = false; // blank line breaks the comment block
            }
            continue;
        }
        if !in_test
            && code.contains("#[deprecated")
            && !comment.contains("deprecated-ok:")
            && !run_ok
        {
            lints.push(Lint {
                file: file.to_string(),
                line: n + 1,
                rule: "no-stale-deprecated",
                message: "`#[deprecated]` entry point left in the tree — shims ride one \
                          deprecation release and are then deleted; delete it (and migrate \
                          callers) or justify with `// deprecated-ok: <reason>`"
                    .to_string(),
            });
        }
        run_ok = false;
    }
    lints
}

// ---------------------------------------------------------------------------
// Rule 12: model crates train through start_nn::fit
// ---------------------------------------------------------------------------

/// What rule 12 forbids in `core` and `baselines`: the pieces `fit` owns.
pub const TRAIN_LOOP_TOKENS: &[&str] = &[
    "BatchTrainer::new",
    "BatchTrainer::exact",
    "AdamW::new",
    "WarmupCosine::new",
    "audit_enabled",
];

/// Flag any [`TRAIN_LOOP_TOKENS`] entry outside `#[cfg(test)]` code.
pub fn lint_one_train_loop(file: &str, source: &str) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut block_depth = 0usize;
    let mut in_str = false;
    let mut tracker = TestModTracker::default();
    for (n, raw) in source.lines().enumerate() {
        let (code, _) = split_code_comment(raw, &mut block_depth, &mut in_str);
        let in_test = tracker.line_is_test(&code);
        if let Some(token) = TRAIN_LOOP_TOKENS.iter().find(|t| !in_test && has_token(&code, t)) {
            lints.push(Lint {
                file: file.to_string(),
                line: n + 1,
                rule: "one-train-loop",
                message: format!("`{token}` in a model crate: train through `start_nn::fit`"),
            });
        }
    }
    lints
}

// ---------------------------------------------------------------------------
// Rule 2: f64 in array.rs kernels needs a justification
// ---------------------------------------------------------------------------

/// Scan the kernel file for `f64` tokens without a `// f64-ok:` marker on
/// the same or previous line.
pub fn lint_f64_kernels(file: &str, source: &str) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut block_depth = 0usize;
    let mut in_str = false;
    let mut prev_comment = String::new();
    for (n, raw) in source.lines().enumerate() {
        let (code, comment) = split_code_comment(raw, &mut block_depth, &mut in_str);
        if has_token(&code, "f64")
            && !comment.contains("f64-ok:")
            && !prev_comment.contains("f64-ok:")
        {
            lints.push(Lint {
                file: file.to_string(),
                line: n + 1,
                rule: "f64-kernels",
                message: "f64 accumulation in a kernel without a `// f64-ok: <reason>` \
                          justification"
                    .to_string(),
            });
        }
        prev_comment = comment;
    }
    lints
}

// ---------------------------------------------------------------------------
// Rule 3: experiment binaries registered in EXPERIMENTS.md
// ---------------------------------------------------------------------------

/// Every bench binary stem must appear in the experiments report.
pub fn lint_bench_registry(bin_stems: &[String], experiments_md: &str) -> Vec<Lint> {
    bin_stems
        .iter()
        .filter(|stem| !experiments_md.contains(stem.as_str()))
        .map(|stem| Lint {
            file: "EXPERIMENTS.md".to_string(),
            line: 0,
            rule: "bench-registry",
            message: format!(
                "bench binary `{stem}` produces results but is not registered in EXPERIMENTS.md"
            ),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rule 4: per-op tables cover every OpKind
// ---------------------------------------------------------------------------

/// Variant names declared in graph.rs's `op_kinds! { ... }` invocation.
pub fn parse_op_kinds(graph_rs: &str) -> Vec<String> {
    let Some(start) = graph_rs.find("op_kinds! {") else { return Vec::new() };
    let body = &graph_rs[start + "op_kinds! {".len()..];
    let Some(end) = body.find('}') else { return Vec::new() };
    body[..end]
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .map(str::to_string)
        .collect()
}

/// Every `OpKind` must appear in the liveness operand table and the
/// symbolic verifier's shape and abstract-transfer tables, and be covered by
/// the gradcheck exhaustiveness guard.
pub fn lint_op_table_coverage(graph_rs: &str, gradcheck_rs: &str, symbolic_rs: &str) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut file_lint = |file: &str, message: String| {
        lints.push(Lint { file: file.to_string(), line: 0, rule: "op-table-coverage", message });
    };

    let kinds = parse_op_kinds(graph_rs);
    if kinds.is_empty() {
        file_lint(
            "crates/nn/src/graph.rs",
            "could not find the `op_kinds! { ... }` block to extract OpKind names".into(),
        );
        return lints;
    }

    // The liveness operand table is the body of `Op::backward_value_reads`
    // (it ends where `payload_elems`, the payload table, begins).
    let operand_table =
        match (graph_rs.find("fn backward_value_reads"), graph_rs.find("fn payload_elems")) {
            (Some(s), Some(e)) if s < e => &graph_rs[s..e],
            _ => {
                file_lint(
                    "crates/nn/src/graph.rs",
                    "could not locate the liveness operand table \
                 (`Op::backward_value_reads` .. `Op::payload_elems`)"
                        .into(),
                );
                ""
            }
        };

    // The symbolic verifier's two tables: the shape rules are the body of
    // `sym_shape` (ending where `abs_transfer` begins) and the abstract
    // transfer functions run from `abs_transfer` to the
    // `TRANSFER_TABLES_END` sentinel comment.
    let shape_start = symbolic_rs.find("fn sym_shape");
    let transfer_start = symbolic_rs.find("fn abs_transfer");
    let transfer_end = symbolic_rs.find("TRANSFER_TABLES_END");
    let (sym_shape_table, transfer_table) = match (shape_start, transfer_start, transfer_end) {
        (Some(s), Some(t), Some(e)) if s < t && t < e => (&symbolic_rs[s..t], &symbolic_rs[t..e]),
        _ => {
            file_lint(
                "crates/nn/src/symbolic.rs",
                "could not locate the symbolic tables (`fn sym_shape` .. `fn abs_transfer` .. \
                 the `TRANSFER_TABLES_END` sentinel)"
                    .into(),
            );
            ("", "")
        }
    };

    for kind in &kinds {
        let pat = format!("Op::{kind}");
        if !operand_table.is_empty() && !has_token(operand_table, &pat) {
            file_lint(
                "crates/nn/src/graph.rs",
                format!(
                    "OpKind::{kind} has no entry in the liveness operand table \
                     (`Op::backward_value_reads`); the memory planner cannot model it"
                ),
            );
        }
        if !sym_shape_table.is_empty() && !has_token(sym_shape_table, &pat) {
            file_lint(
                "crates/nn/src/symbolic.rs",
                format!(
                    "OpKind::{kind} has no symbolic shape rule (`Op::{kind}` never matched \
                     in `sym_shape`); the verifier cannot derive its output dims"
                ),
            );
        }
        if !transfer_table.is_empty() && !has_token(transfer_table, &pat) {
            file_lint(
                "crates/nn/src/symbolic.rs",
                format!(
                    "OpKind::{kind} has no abstract transfer function (`Op::{kind}` never \
                     matched in `abs_transfer`); the verifier cannot bound its values"
                ),
            );
        }
    }

    if !gradcheck_rs.contains("OpKind::ALL") {
        file_lint(
            "crates/nn/tests/gradcheck.rs",
            "the gradcheck exhaustiveness guard over `OpKind::ALL` is missing — new ops \
             could ship without a finite-difference check"
                .into(),
        );
    }
    lints
}

// ---------------------------------------------------------------------------
// Rule 6: library code goes through start_sync, not std::sync
// ---------------------------------------------------------------------------

/// Flag `std::sync` paths outside `#[cfg(test)]` code. The driver never
/// feeds this rule the shim crate or `third_party/`; a deliberate site in
/// scanned code carries `// sync-ok: <reason>`.
pub fn lint_std_sync(file: &str, source: &str) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut block_depth = 0usize;
    let mut in_str = false;
    let mut tracker = TestModTracker::default();
    for (n, raw) in source.lines().enumerate() {
        let (code, comment) = split_code_comment(raw, &mut block_depth, &mut in_str);
        let in_test = tracker.line_is_test(&code);
        if !in_test && code.contains("std::sync") && !comment.contains("sync-ok:") {
            lints.push(Lint {
                file: file.to_string(),
                line: n + 1,
                rule: "no-std-sync",
                message: "`std::sync` in library code is invisible to the model checker and \
                          the lock-order sanitizer; use `start_sync` (or justify with \
                          `// sync-ok: <reason>`)"
                    .to_string(),
            });
        }
    }
    lints
}

// ---------------------------------------------------------------------------
// Rule 7: condvar waits sit inside a predicate loop
// ---------------------------------------------------------------------------

/// What kind of block a `{` opened, as far as rule 7 cares.
#[derive(Clone, Copy, PartialEq)]
enum Frame {
    /// `while`/`loop`/`for` body: a wait here re-checks its predicate.
    Loop,
    /// `fn` body: the search for an enclosing loop stops here.
    Fn,
    /// Anything else (`if`, `match`, plain block, closure body…).
    Other,
}

fn classify_frame(header: &str) -> Frame {
    if has_token(header, "while") || has_token(header, "loop") || has_token(header, "for") {
        Frame::Loop
    } else if has_token(header, "fn") {
        Frame::Fn
    } else {
        Frame::Other
    }
}

/// Is the innermost relevant frame a loop (searching outward, stopping at
/// the enclosing `fn`)? An empty stack (top level) counts as not-in-loop.
fn in_loop(stack: &[Frame]) -> bool {
    for f in stack.iter().rev() {
        match f {
            Frame::Loop => return true,
            Frame::Fn => return false,
            Frame::Other => {}
        }
    }
    false
}

/// Flag `.wait(guard)` / `.wait_timeout(` calls with no enclosing
/// `while`/`loop`/`for` in the same function — the shape that loses a
/// predicate re-check on spurious wakeup. Argument-less `.wait()` is not a
/// condvar wait (handles, barriers) and is skipped; `// wait-ok: <reason>`
/// escapes a deliberate site.
///
/// The block structure is tracked line-by-line with a brace stack, each
/// frame classified by the code between the previous boundary and its `{`.
/// This is a syntactic approximation (a wait inside a closure does not see
/// loops outside the closure header), which matches how the real condvar
/// call sites are written.
pub fn lint_wait_predicate(file: &str, source: &str) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut block_depth = 0usize;
    let mut in_str = false;
    let mut stack: Vec<Frame> = Vec::new();
    let mut header = String::new();
    for (n, raw) in source.lines().enumerate() {
        let (code, comment) = split_code_comment(raw, &mut block_depth, &mut in_str);
        let chars: Vec<char> = code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let rest: String = chars[i..].iter().collect();
            let bad_wait = (rest.starts_with(".wait(")
                && !rest.starts_with(".wait()")
                && !has_token(&header, "while"))
                || (rest.starts_with(".wait_timeout(") && !has_token(&header, "while"));
            if bad_wait && !in_loop(&stack) && !comment.contains("wait-ok:") {
                lints.push(Lint {
                    file: file.to_string(),
                    line: n + 1,
                    rule: "wait-needs-predicate",
                    message: "condvar wait outside a `while`-predicate loop: a spurious \
                              wakeup escapes without re-checking (or justify with \
                              `// wait-ok: <reason>`)"
                        .to_string(),
                });
                i += ".wait(".len();
                continue;
            }
            match chars[i] {
                '{' => {
                    stack.push(classify_frame(&header));
                    header.clear();
                }
                '}' => {
                    stack.pop();
                    header.clear();
                }
                ';' => header.clear(),
                c => header.push(c),
            }
            i += 1;
        }
        header.push(' ');
    }
    lints
}

// ---------------------------------------------------------------------------
// Rule 8: Ordering::Relaxed needs a justification
// ---------------------------------------------------------------------------

/// Flag `Relaxed` memory-ordering tokens outside `#[cfg(test)]` code unless
/// the same line or the contiguous comment block directly above carries
/// `// relaxed-ok: <reason>` — the `// f64-ok:` convention applied to
/// memory ordering.
pub fn lint_relaxed_ordering(file: &str, source: &str) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut block_depth = 0usize;
    let mut in_str = false;
    let mut tracker = TestModTracker::default();
    // True while the contiguous run of comment-only lines directly above
    // the current line contains the marker.
    let mut run_ok = false;
    for (n, raw) in source.lines().enumerate() {
        let (code, comment) = split_code_comment(raw, &mut block_depth, &mut in_str);
        let in_test = tracker.line_is_test(&code);
        if code.trim().is_empty() {
            // Comment-only (or blank) line: extend or reset the run.
            if comment.contains("relaxed-ok:") {
                run_ok = true;
            } else if comment.is_empty() {
                run_ok = false; // blank line breaks the comment block
            }
            continue;
        }
        if !in_test && has_token(&code, "Relaxed") && !comment.contains("relaxed-ok:") && !run_ok {
            lints.push(Lint {
                file: file.to_string(),
                line: n + 1,
                rule: "relaxed-needs-reason",
                message: "`Ordering::Relaxed` without a `// relaxed-ok: <reason>` \
                          justification — say why no ordering is needed"
                    .to_string(),
            });
        }
        run_ok = false;
    }
    lints
}

// ---------------------------------------------------------------------------
// Rule 9: unsafe blocks need a justification
// ---------------------------------------------------------------------------

/// True when `code` enters an `unsafe` *block* — the `unsafe` keyword not
/// followed by `fn`/`impl`/`trait`/`extern`. Declarations state a contract;
/// a block is where unchecked code actually starts running, so that is
/// where the rule demands the safety argument.
fn has_unsafe_block(code: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = code[start..].find("unsafe") {
        let at = start + pos;
        let end = at + "unsafe".len();
        let before_ok = at == 0 || !code[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !code[end..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            let rest = code[end..].trim_start();
            let is_decl = ["fn", "impl", "trait", "extern"].iter().any(|kw| {
                rest.starts_with(kw) && !rest[kw.len()..].chars().next().is_some_and(is_ident)
            });
            if !is_decl {
                return true;
            }
        }
        start = end;
    }
    false
}

/// Flag `unsafe` blocks outside `#[cfg(test)]` code unless the same line or
/// the contiguous comment block directly above carries
/// `// unsafe-ok: <reason>` — the safety argument (what guards the call,
/// which invariant makes it sound) must live next to the block, not in a
/// reviewer's head. `unsafe fn`/`unsafe impl`/`unsafe trait` declarations
/// are exempt: they state the contract, the block is where it is assumed.
pub fn lint_unsafe_blocks(file: &str, source: &str) -> Vec<Lint> {
    let mut lints = Vec::new();
    let mut block_depth = 0usize;
    let mut in_str = false;
    let mut tracker = TestModTracker::default();
    // True while the contiguous run of comment-only lines directly above
    // the current line contains the marker.
    let mut run_ok = false;
    for (n, raw) in source.lines().enumerate() {
        let (code, comment) = split_code_comment(raw, &mut block_depth, &mut in_str);
        let in_test = tracker.line_is_test(&code);
        if code.trim().is_empty() {
            // Comment-only (or blank) line: extend or reset the run.
            if comment.contains("unsafe-ok:") {
                run_ok = true;
            } else if comment.is_empty() {
                run_ok = false; // blank line breaks the comment block
            }
            continue;
        }
        if !in_test && has_unsafe_block(&code) && !comment.contains("unsafe-ok:") && !run_ok {
            lints.push(Lint {
                file: file.to_string(),
                line: n + 1,
                rule: "unsafe-needs-reason",
                message: "`unsafe` block without a `// unsafe-ok: <reason>` justification \
                          — state what guarantees the operation is sound"
                    .to_string(),
            });
        }
        run_ok = false;
    }
    lints
}

// ---------------------------------------------------------------------------
// Rule 10: escape markers must still sit next to a matching site
// ---------------------------------------------------------------------------

/// One rule-10 entry: the marker text, the predicate a covered code line
/// must satisfy for the justification to still be anchored to a real site,
/// and a human name for the finding message.
type EscapeMarker = (&'static str, fn(&str) -> bool, &'static str);

/// The escape markers rule 10 audits.
const ESCAPE_MARKERS: &[EscapeMarker] = &[
    ("f64-ok:", |code| has_token(code, "f64"), "f64 use"),
    ("sync-ok:", |code| code.contains("std::sync"), "std::sync path"),
    ("wait-ok:", |code| code.contains(".wait(") || code.contains(".wait_timeout("), "condvar wait"),
    ("relaxed-ok:", |code| has_token(code, "Relaxed"), "Relaxed ordering"),
    ("unsafe-ok:", has_unsafe_block, "unsafe block"),
    ("deprecated-ok:", |code| code.contains("#[deprecated"), "deprecated attribute"),
];

/// The marker a comment *begins* with, if any. Prose that merely mentions a
/// marker (rule documentation, backticked examples) never starts the
/// comment text with it, so it does not register.
fn leading_escape_marker(comment: &str) -> Option<EscapeMarker> {
    let text = comment.trim_start_matches('/').trim_start_matches('!').trim_start();
    ESCAPE_MARKERS.iter().copied().find(|(marker, _, _)| text.starts_with(marker))
}

/// Flag escape-marker justifications that no longer sit next to a site of
/// the kind they excuse. A marker is anchored when its predicate matches
/// the same line's code, or the nearest code line above or below, searching
/// across a contiguous run of comment-only lines (a blank line breaks the
/// run — the same adjacency the per-rule escapes honour). Markers listed in
/// `skip` are ignored — the driver uses this to exempt rule-6/7/8 markers
/// inside `crates/sync`, the tree those rules do not cover.
pub fn lint_stale_escapes(file: &str, source: &str, skip: &[&str]) -> Vec<Lint> {
    let mut block_depth = 0usize;
    let mut in_str = false;
    let parts: Vec<(String, String)> =
        source.lines().map(|raw| split_code_comment(raw, &mut block_depth, &mut in_str)).collect();

    let is_blank = |idx: usize| {
        let (code, comment) = &parts[idx];
        code.trim().is_empty() && comment.trim().is_empty()
    };
    // Nearest non-empty code line from `from` in direction `step`, skipping
    // comment-only lines; a blank line (or file edge) ends the search.
    let nearest_code = |from: usize, step: isize| -> Option<&str> {
        let mut j = from as isize + step;
        while j >= 0 && (j as usize) < parts.len() {
            let idx = j as usize;
            if is_blank(idx) {
                return None;
            }
            if !parts[idx].0.trim().is_empty() {
                return Some(parts[idx].0.as_str());
            }
            j += step;
        }
        None
    };

    let mut lints = Vec::new();
    for (i, (code, comment)) in parts.iter().enumerate() {
        let Some((marker, pred, what)) = leading_escape_marker(comment) else { continue };
        if skip.contains(&marker) {
            continue;
        }
        let same_line = !code.trim().is_empty() && pred(code);
        let above = nearest_code(i, -1).is_some_and(pred);
        let below = nearest_code(i, 1).is_some_and(pred);
        if !(same_line || above || below) {
            lints.push(Lint {
                file: file.to_string(),
                line: i + 1,
                rule: "stale-escape",
                message: format!(
                    "`// {marker}` justification with no {what} on this or an adjacent \
                     line — the refactor that moved the site must move (or delete) its \
                     justification too"
                ),
            });
        }
    }
    lints
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).display().to_string()
}

/// Run every rule over the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Lint>> {
    let mut lints = Vec::new();

    for krate in PANIC_FREE_CRATES {
        let src = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for file in files {
            let source = std::fs::read_to_string(&file)?;
            lints.extend(lint_no_panics(&rel(root, &file), &source));
        }
    }

    for krate in ["core", "baselines"] {
        let mut files = Vec::new();
        rust_files(&root.join("crates").join(krate).join("src"), &mut files)?;
        for file in files {
            let source = std::fs::read_to_string(&file)?;
            lints.extend(lint_one_train_loop(&rel(root, &file), &source));
        }
    }

    let kernels = root.join("crates/nn/src/array.rs");
    lints.extend(lint_f64_kernels(&rel(root, &kernels), &std::fs::read_to_string(&kernels)?));

    let bin_dir = root.join("crates/bench/src/bin");
    let mut bins = Vec::new();
    rust_files(&bin_dir, &mut bins)?;
    let stems: Vec<String> = bins
        .iter()
        .filter_map(|p| p.file_stem().and_then(|s| s.to_str()))
        .map(str::to_string)
        .collect();
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md"))?;
    lints.extend(lint_bench_registry(&stems, &experiments));

    let graph_rs = std::fs::read_to_string(root.join("crates/nn/src/graph.rs"))?;
    let gradcheck_rs = std::fs::read_to_string(root.join("crates/nn/tests/gradcheck.rs"))?;
    let symbolic_rs = std::fs::read_to_string(root.join("crates/nn/src/symbolic.rs"))?;
    lints.extend(lint_op_table_coverage(&graph_rs, &gradcheck_rs, &symbolic_rs));

    // Rules 5 and 11 cover every tree that could construct a config and
    // ship it into a model, or export a deprecated entry point: all crate
    // libraries, the root facade, and the examples. `tests/` trees are
    // exempt wholesale (like rule 1); each config type's own defining file
    // is the one legitimate literal producer for that type, exempted
    // per-type inside `lint_config_literal`.
    let mut cfg_files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut cfg_files)?;
        }
    }
    for tree in ["src", "examples"] {
        let dir = root.join(tree);
        if dir.is_dir() {
            rust_files(&dir, &mut cfg_files)?;
        }
    }
    for file in cfg_files {
        let label = rel(root, &file);
        let source = std::fs::read_to_string(&file)?;
        lints.extend(lint_config_literal(&label, &source));
        lints.extend(lint_stale_deprecated(&label, &source));
    }

    // Rules 6–8 cover every library tree that could take a concurrency
    // dependency: all crate src trees plus the root facade. The shim layer
    // itself (`crates/sync`) is the one legitimate `std::sync` user and is
    // allowlisted wholesale; `third_party/` is vendored and never scanned.
    let mut sync_files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let path = entry?.path();
        if path.file_name().is_some_and(|n| n == "sync") {
            continue;
        }
        let src = path.join("src");
        if src.is_dir() {
            rust_files(&src, &mut sync_files)?;
        }
    }
    let facade = root.join("src");
    if facade.is_dir() {
        rust_files(&facade, &mut sync_files)?;
    }
    for file in sync_files {
        let label = rel(root, &file);
        let source = std::fs::read_to_string(&file)?;
        lints.extend(lint_std_sync(&label, &source));
        lints.extend(lint_wait_predicate(&label, &source));
        lints.extend(lint_relaxed_ordering(&label, &source));
        lints.extend(lint_unsafe_blocks(&label, &source));
    }

    // Rule 9 also covers the sync shim: it is the one legitimate
    // `std::sync` user (exempt from rules 6–8) but gets no pass on
    // undocumented unsafe.
    let sync_src = root.join("crates/sync/src");
    if sync_src.is_dir() {
        let mut files = Vec::new();
        rust_files(&sync_src, &mut files)?;
        for file in files {
            let label = rel(root, &file);
            lints.extend(lint_unsafe_blocks(&label, &std::fs::read_to_string(&file)?));
        }
    }

    // Rule 10 covers every library tree, including the shim and this crate:
    // a justification stranded by a refactor is wrong wherever it lives.
    // Inside crates/sync the rule-6/7/8 markers are skipped — those rules
    // exempt the shim wholesale, so its `sync-ok:`-style comments document
    // the wrapping rather than excuse a lintable site (and the shim refers
    // to std types through `Std*` aliases the predicates cannot see).
    let mut escape_files = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut escape_files)?;
        }
    }
    for tree in ["src", "examples"] {
        let dir = root.join(tree);
        if dir.is_dir() {
            rust_files(&dir, &mut escape_files)?;
        }
    }
    for file in escape_files {
        let label = rel(root, &file);
        let skip: &[&str] = if label.starts_with("crates/sync/") {
            &["sync-ok:", "wait-ok:", "relaxed-ok:"]
        } else {
            &[]
        };
        lints.extend(lint_stale_escapes(&label, &std::fs::read_to_string(&file)?, skip));
    }

    Ok(lints)
}

/// Workspace root: two levels above this crate's manifest.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_unwrap_and_expect_in_library_code() {
        let src =
            "fn f() {\n    let x = maybe().unwrap();\n    let y = other().expect(\"boom\");\n}\n";
        let lints = lint_no_panics("lib.rs", src);
        assert_eq!(lints.len(), 2);
        assert_eq!(lints[0].line, 2);
        assert_eq!(lints[1].line, 3);
        assert_eq!(lints[0].rule, "no-panic-lib");
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = concat!(
            "fn f() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use super::*;\n",
            "    #[test]\n",
            "    fn t() { maybe().unwrap(); }\n",
            "}\n",
            "fn g() { maybe().unwrap(); }\n",
        );
        let lints = lint_no_panics("lib.rs", src);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].line, 8);
    }

    #[test]
    fn lint_ok_justification_is_honoured() {
        let src = "fn f() { scope().expect(\"worker panicked\"); // lint-ok: propagates panic\n}\n";
        assert!(lint_no_panics("lib.rs", src).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_trip_the_rule() {
        let src = concat!(
            "fn f() {\n",
            "    // calling .unwrap() here would be wrong\n",
            "    let s = \"docs say .unwrap() panics\";\n",
            "    /* .expect( is also mentioned here */\n",
            "}\n",
        );
        assert!(lint_no_panics("lib.rs", src).is_empty());
    }

    #[test]
    fn multiline_block_comments_are_skipped() {
        let src = "/* start\n .unwrap() inside\n end */\nfn f() { x.unwrap(); }\n";
        let lints = lint_no_panics("lib.rs", src);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].line, 4);
    }

    #[test]
    fn f64_requires_justification() {
        let bad = "fn k(acc: f64) {}\n";
        assert_eq!(lint_f64_kernels("array.rs", bad).len(), 1);
        let same_line = "fn k(acc: f64) {} // f64-ok: Kahan-style accumulator\n";
        assert!(lint_f64_kernels("array.rs", same_line).is_empty());
        let prev_line = "// f64-ok: long reduction needs the headroom\nlet acc: f64 = 0.0;\n";
        assert!(lint_f64_kernels("array.rs", prev_line).is_empty());
    }

    #[test]
    fn f64_token_boundaries_are_respected() {
        // `f64` inside a longer identifier is not a use of the type.
        let src = "fn f64_free_kernel() {}\nlet x = my_f64;\n";
        assert!(lint_f64_kernels("array.rs", src).is_empty());
    }

    #[test]
    fn unregistered_bench_binary_is_flagged() {
        let stems = vec!["fig1_regularities".to_string(), "table2_overall".to_string()];
        let md = "### Table II (`table2_overall`)\n";
        let lints = lint_bench_registry(&stems, md);
        assert_eq!(lints.len(), 1);
        assert!(lints[0].message.contains("fig1_regularities"));
    }

    #[test]
    fn cfg_test_fn_item_is_exempt_until_close() {
        let src = concat!(
            "#[cfg(test)]\n",
            "fn helper() {\n",
            "    x.unwrap();\n",
            "}\n",
            "fn real() { y.unwrap(); }\n",
        );
        let lints = lint_no_panics("lib.rs", src);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].line, 5);
    }

    #[test]
    fn lifetimes_do_not_break_the_scanner() {
        let src = "impl<'s> Graph<'s> {\n    fn f(&self) { x.unwrap(); }\n}\n";
        let lints = lint_no_panics("lib.rs", src);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].line, 2);
    }

    const FAKE_GRAPH: &str = concat!(
        "op_kinds! {\n    Foo,\n    Bar,\n}\n",
        "impl Op {\n",
        "    fn backward_value_reads(&self) { match self { Op::Foo(..) => {} } }\n",
        "    fn payload_elems(&self) {}\n",
        "}\n",
    );

    const FAKE_SYMBOLIC: &str = concat!(
        "fn sym_shape() { match op { Op::Foo(..) => {} Op::Bar(..) => {} } }\n",
        "fn abs_transfer() { match op { Op::Foo(..) => {} Op::Bar(..) => {} } }\n",
        "// TRANSFER_TABLES_END\n",
    );

    #[test]
    fn op_kinds_are_parsed_from_the_macro_block() {
        assert_eq!(parse_op_kinds(FAKE_GRAPH), ["Foo", "Bar"]);
        assert!(parse_op_kinds("no macro here").is_empty());
    }

    #[test]
    fn missing_table_entries_are_flagged_per_table() {
        // Bar is absent from the operand table; Foo from the shape rules.
        let gradcheck = "OpKind::ALL guard lives here";
        let symbolic = concat!(
            "fn sym_shape() { match op { Op::Bar(..) => {} } }\n",
            "fn abs_transfer() { match op { Op::Foo(..) => {} Op::Bar(..) => {} } }\n",
            "// TRANSFER_TABLES_END\n",
        );
        let lints = lint_op_table_coverage(FAKE_GRAPH, gradcheck, symbolic);
        assert_eq!(lints.len(), 2, "{lints:?}");
        assert!(lints
            .iter()
            .any(|l| l.message.contains("Bar") && l.message.contains("liveness operand table")));
        assert!(lints
            .iter()
            .any(|l| l.message.contains("Foo") && l.message.contains("symbolic shape rule")));
        assert!(lints.iter().all(|l| l.rule == "op-table-coverage"));
    }

    #[test]
    fn missing_gradcheck_guard_is_flagged() {
        let graph = concat!(
            "op_kinds! {\n    Foo,\n    Bar,\n}\n",
            "fn backward_value_reads() { Op::Foo Op::Bar }\nfn payload_elems() {}\n",
        );
        let lints = lint_op_table_coverage(graph, "no guard", FAKE_SYMBOLIC);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert!(lints[0].message.contains("OpKind::ALL"));
    }

    #[test]
    fn op_prefix_matching_respects_token_boundaries() {
        // `Op::AddScalar` must not satisfy an `Op::Add` entry.
        let graph = concat!(
            "op_kinds! {\n    Add,\n}\n",
            "fn backward_value_reads() { Op::AddScalar }\nfn payload_elems() {}\n",
        );
        let symbolic = concat!(
            "fn sym_shape() { Op::Add }\n",
            "fn abs_transfer() { Op::Add }\n",
            "// TRANSFER_TABLES_END\n",
        );
        let lints = lint_op_table_coverage(graph, "OpKind::ALL", symbolic);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert!(lints[0].message.contains("liveness operand table"));
    }

    #[test]
    fn missing_symbolic_table_entries_are_flagged_per_table() {
        // Bar has a shape rule but no transfer function; Foo the reverse.
        let symbolic = concat!(
            "fn sym_shape() { match op { Op::Bar(..) => {} } }\n",
            "fn abs_transfer() { match op { Op::Foo(..) => {} } }\n",
            "// TRANSFER_TABLES_END\n",
        );
        let graph = concat!(
            "op_kinds! {\n    Foo,\n    Bar,\n}\n",
            "fn backward_value_reads() { Op::Foo Op::Bar }\nfn payload_elems() {}\n",
        );
        let lints = lint_op_table_coverage(graph, "OpKind::ALL", symbolic);
        assert_eq!(lints.len(), 2, "{lints:?}");
        assert!(lints
            .iter()
            .any(|l| l.message.contains("Foo") && l.message.contains("symbolic shape rule")));
        assert!(lints
            .iter()
            .any(|l| l.message.contains("Bar") && l.message.contains("abstract transfer")));
        assert!(lints.iter().all(|l| l.file == "crates/nn/src/symbolic.rs"));
    }

    #[test]
    fn missing_symbolic_sentinel_is_flagged() {
        let graph = concat!(
            "op_kinds! {\n    Foo,\n}\n",
            "fn backward_value_reads() { Op::Foo }\nfn payload_elems() {}\n",
        );
        let lints = lint_op_table_coverage(graph, "OpKind::ALL", "fn sym_shape() {}");
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert!(lints[0].message.contains("TRANSFER_TABLES_END"));
    }

    #[test]
    fn config_literals_are_flagged_outside_tests() {
        let src = concat!(
            "fn f() {\n",
            "    let cfg = StartConfig { dim: 64, ..StartConfig::default() };\n",
            "}\n",
        );
        let lints = lint_config_literal("zoo.rs", src);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].line, 2);
        assert_eq!(lints[0].rule, "no-config-literal");
    }

    #[test]
    fn config_builder_paths_and_declarations_are_not_literals() {
        let src = concat!(
            "pub struct StartConfig {\n    pub dim: usize,\n}\n",
            "impl StartConfig {\n    fn f() {}\n}\n",
            "fn g() {\n",
            "    let a = StartConfig::builder().dim(64).build();\n",
            "    let b = StartConfig::default();\n",
            "    let c = StartConfigBuilder::default();\n",
            "}\n",
            "fn h() -> StartConfig {\n",
            "    StartConfig::default()\n",
            "}\n",
        );
        assert!(lint_config_literal("x.rs", src).is_empty());
    }

    #[test]
    fn config_literals_in_test_modules_and_comments_are_exempt() {
        let src = concat!(
            "// a doc mention of StartConfig { dim } is fine\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { let c = StartConfig { dim: 1, ..Default::default() }; }\n",
            "}\n",
        );
        assert!(lint_config_literal("x.rs", src).is_empty());
    }

    #[test]
    fn config_literal_lint_ok_escape_is_honoured() {
        let src = "let c = StartConfig { dim: 1 }; // lint-ok: serde round-trip fixture\n";
        assert!(lint_config_literal("x.rs", src).is_empty());
    }

    #[test]
    fn every_registered_config_type_is_flagged_and_named() {
        for (ty, _) in CONFIG_LITERAL_TYPES {
            let src = format!("fn f() {{\n    let c = {ty} {{ x: 1 }};\n}}\n");
            let lints = lint_config_literal("zoo.rs", &src);
            assert_eq!(lints.len(), 1, "{ty}: {lints:?}");
            assert_eq!(lints[0].rule, "no-config-literal");
            assert!(lints[0].message.contains(ty), "{ty}: {}", lints[0].message);
        }
    }

    #[test]
    fn config_literal_defining_file_is_exempt_per_type_only() {
        // serve's config.rs defines ServeConfig and RouterConfig — their
        // literals are the builder's job there — but an HnswConfig literal
        // in the same file still skips start-ann's validation and is
        // flagged.
        let src = concat!(
            "fn b() -> ServeConfig { ServeConfig { workers: 1 } }\n",
            "fn r() -> RouterConfig { RouterConfig { replicas: 2 } }\n",
            "fn h() { let c = HnswConfig { m: 4 }; }\n",
        );
        let lints = lint_config_literal("crates/serve/src/config.rs", src);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert!(lints[0].message.contains("HnswConfig"), "{}", lints[0].message);
        assert!(lint_config_literal("crates/ann/src/hnsw.rs", "let c = HnswConfig { m: 4 };\n")
            .is_empty());
    }

    #[test]
    fn stale_deprecated_attribute_is_flagged() {
        let src = concat!(
            "#[deprecated(since = \"0.9\", note = \"use Encoder\")]\n",
            "pub fn encode_views() {}\n",
        );
        let lints = lint_stale_deprecated("lib.rs", src);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].line, 1);
        assert_eq!(lints[0].rule, "no-stale-deprecated");
    }

    #[test]
    fn deprecated_ok_escape_and_test_code_are_exempt() {
        let src = concat!(
            "// deprecated-ok: serde field kept for on-disk v1 checkpoints\n",
            "#[deprecated]\n",
            "pub fn old_field() {}\n",
            "\n",
            "#[deprecated] // deprecated-ok: external callers pinned until 1.0\n",
            "pub fn old_entry() {}\n",
            "\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[deprecated]\n",
            "    fn fixture() {}\n",
            "}\n",
        );
        assert!(lint_stale_deprecated("lib.rs", src).is_empty());
        // Prose mentions never trip the rule — only the attribute token.
        assert!(lint_stale_deprecated("lib.rs", "// the #[deprecated] era is over\n").is_empty());
    }

    #[test]
    fn hand_built_train_loop_is_flagged_outside_tests() {
        let src = concat!(
            "fn pretrain() {\n",
            "    let mut trainer = BatchTrainer::new(cfg.workers, cfg.seed);\n",
            "    let opt = start_nn::AdamW::new(&store, AdamWConfig::default());\n",
            "    let sched = WarmupCosine::new(lr, 1, 10); // not WarmupCosine::new in prose\n",
            "    let on = start_nn::audit::audit_enabled();\n",
            "    let s = \"AdamW::new\";\n",
            "    let ok = MyAdamW::new();\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn legacy() { let o = AdamW::new(&s, c); }\n",
            "}\n",
        );
        let lints = lint_one_train_loop("crates/core/src/pretrain/mod.rs", src);
        let lines: Vec<usize> = lints.iter().map(|l| l.line).collect();
        assert_eq!(lines, [2, 3, 4, 5], "{lints:?}");
        assert!(lints.iter().all(|l| l.rule == "one-train-loop"));
        assert!(lints[0].message.contains("BatchTrainer::new"), "{}", lints[0].message);
    }

    #[test]
    fn orphaned_deprecated_ok_marker_is_a_stale_escape() {
        let src = concat!(
            "// deprecated-ok: the shim this excused was deleted\n",
            "pub fn current_entry() {}\n",
        );
        let lints = lint_stale_escapes("lib.rs", src, &[]);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].rule, "stale-escape");
        assert!(lints[0].message.contains("deprecated-ok:"));
    }

    #[test]
    fn std_sync_is_flagged_outside_tests() {
        let src = "use std::sync::{Arc, Mutex};\nfn f() {}\n";
        let lints = lint_std_sync("lib.rs", src);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].line, 1);
        assert_eq!(lints[0].rule, "no-std-sync");
    }

    #[test]
    fn std_sync_escape_and_exemptions_are_honoured() {
        let src = concat!(
            "pub use std::sync::Arc; // sync-ok: the shim re-exports it\n",
            "// a comment mentioning std::sync is fine\n",
            "fn f() { let s = \"std::sync in a string\"; }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use std::sync::Mutex;\n",
            "}\n",
        );
        assert!(lint_std_sync("lib.rs", src).is_empty());
        // start_sync paths never trip the rule.
        assert!(lint_std_sync("lib.rs", "use start_sync::Mutex;\n").is_empty());
    }

    #[test]
    fn unguarded_condvar_wait_is_flagged() {
        let src = concat!(
            "fn f(cv: &Condvar, m: &Mutex<bool>) {\n",
            "    let mut g = m.lock().unwrap();\n",
            "    if !*g {\n",
            "        g = cv.wait(g).unwrap();\n",
            "    }\n",
            "}\n",
        );
        let lints = lint_wait_predicate("lib.rs", src);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].line, 4);
        assert_eq!(lints[0].rule, "wait-needs-predicate");
    }

    #[test]
    fn while_guarded_waits_pass_the_rule() {
        let src = concat!(
            "fn f(cv: &Condvar, m: &Mutex<bool>) {\n",
            "    let mut g = m.lock().unwrap();\n",
            "    while !*g {\n",
            "        g = cv.wait(g).unwrap();\n",
            "    }\n",
            "    loop {\n",
            "        let (g2, t) = cv.wait_timeout(g, d).unwrap();\n",
            "        g = g2;\n",
            "        if t.timed_out() { break; }\n",
            "    }\n",
            "}\n",
        );
        assert!(lint_wait_predicate("lib.rs", src).is_empty());
    }

    #[test]
    fn argless_wait_and_wait_ok_escape_are_honoured() {
        let src = concat!(
            "fn f(h: Handle, cv: &Condvar, g: G) {\n",
            "    h.wait(); // a join handle, not a condvar\n",
            "    let g = cv.wait(g).unwrap(); // wait-ok: woken exactly once by drop\n",
            "}\n",
        );
        assert!(lint_wait_predicate("lib.rs", src).is_empty());
    }

    #[test]
    fn wait_in_a_later_function_does_not_inherit_a_loop() {
        // The loop closes with its fn; the next fn's wait is unguarded.
        let src = concat!(
            "fn a(cv: &Condvar, g: G) {\n",
            "    while p() { let g = cv.wait(g); }\n",
            "}\n",
            "fn b(cv: &Condvar, g: G) {\n",
            "    let g = cv.wait(g);\n",
            "}\n",
        );
        let lints = lint_wait_predicate("lib.rs", src);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].line, 5);
    }

    #[test]
    fn relaxed_ordering_requires_a_reason() {
        let bad = "fn f() { c.fetch_add(1, Ordering::Relaxed); }\n";
        let lints = lint_relaxed_ordering("lib.rs", bad);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].rule, "relaxed-needs-reason");

        let same_line = "c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: advisory tally\n";
        assert!(lint_relaxed_ordering("lib.rs", same_line).is_empty());
    }

    #[test]
    fn relaxed_comment_block_above_covers_the_next_statement() {
        let src = concat!(
            "// relaxed-ok: independent tallies, snapshots are\n",
            "// documented as approximate under load.\n",
            "c.fetch_add(1, Ordering::Relaxed);\n",
            "d.fetch_add(1, Ordering::Relaxed);\n",
        );
        // Only the first statement is covered by the block above.
        let lints = lint_relaxed_ordering("lib.rs", src);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].line, 4);
        // A blank line breaks the block.
        let broken = "// relaxed-ok: reason\n\nc.load(Ordering::Relaxed);\n";
        assert_eq!(lint_relaxed_ordering("lib.rs", broken).len(), 1);
    }

    #[test]
    fn relaxed_in_tests_and_other_orderings_are_exempt() {
        let src = concat!(
            "fn f() { c.load(Ordering::Acquire); c.store(1, Ordering::Release); }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { c.load(Ordering::Relaxed); }\n",
            "}\n",
        );
        assert!(lint_relaxed_ordering("lib.rs", src).is_empty());
    }

    #[test]
    fn unsafe_block_requires_a_reason() {
        let bad = "fn f(p: *const f32) -> f32 { unsafe { *p } }\n";
        let lints = lint_unsafe_blocks("lib.rs", bad);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].rule, "unsafe-needs-reason");

        let same_line =
            "fn f(p: *const f32) -> f32 { unsafe { *p } } // unsafe-ok: caller checked\n";
        assert!(lint_unsafe_blocks("lib.rs", same_line).is_empty());
    }

    #[test]
    fn unsafe_comment_block_above_covers_the_next_statement() {
        let src = concat!(
            "// unsafe-ok: AVX2 availability checked by the dispatch\n",
            "// gate at construction time.\n",
            "let x = unsafe { kernel(a) };\n",
            "let y = unsafe { kernel(b) };\n",
        );
        // Only the first block is covered by the comment above.
        let lints = lint_unsafe_blocks("lib.rs", src);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].line, 4);
        // A blank line breaks the block.
        let broken = "// unsafe-ok: reason\n\nlet x = unsafe { kernel(a) };\n";
        assert_eq!(lint_unsafe_blocks("lib.rs", broken).len(), 1);
    }

    #[test]
    fn unsafe_declarations_and_tests_are_exempt() {
        let src = concat!(
            "#[target_feature(enable = \"avx2\")]\n",
            "unsafe fn kernel(a: &[f32]) -> f32 { 0.0 }\n",
            "unsafe impl Send for Pool {}\n",
            "unsafe trait Arena {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { let _ = unsafe { raw() }; }\n",
            "}\n",
        );
        assert!(
            lint_unsafe_blocks("lib.rs", src).is_empty(),
            "{:?}",
            lint_unsafe_blocks("lib.rs", src)
        );
        // Mentions inside strings and comments never fire.
        let quoted = "fn f() { log(\"unsafe { }\"); } // unsafe { } in prose\n";
        assert!(lint_unsafe_blocks("lib.rs", quoted).is_empty());
    }

    #[test]
    fn stale_escape_markers_are_flagged() {
        // Marker with no matching site anywhere adjacent.
        let orphan = "// relaxed-ok: a reason that outlived its code\nlet x = plain();\n";
        let lints = lint_stale_escapes("lib.rs", orphan, &[]);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].rule, "stale-escape");
        assert!(lints[0].message.contains("relaxed-ok:"));

        // Same-line, code-above, and code-below anchors all pass.
        let anchored = concat!(
            "c.load(Ordering::Relaxed); // relaxed-ok: advisory tally\n",
            "g = cv.wait(g).unwrap_or_else(PoisonError::into_inner);\n",
            "// wait-ok: woken exactly once by drop\n",
            "// unsafe-ok: AVX2 availability checked by the dispatch gate\n",
            "let x = unsafe { kernel(a) };\n",
        );
        assert!(
            lint_stale_escapes("lib.rs", anchored, &[]).is_empty(),
            "{:?}",
            lint_stale_escapes("lib.rs", anchored, &[])
        );
    }

    #[test]
    fn stale_escape_runs_break_at_blank_lines_and_skip_prose() {
        // A blank line between the marker and the site breaks adjacency.
        let broken = "// f64-ok: long reduction needs the headroom\n\nlet acc: f64 = 0.0;\n";
        assert_eq!(lint_stale_escapes("lib.rs", broken, &[]).len(), 1);

        // A contiguous comment run is searched through.
        let run = concat!(
            "// sync-ok: the shim wraps std, and this continuation\n",
            "// line keeps the run contiguous\n",
            "use std::sync::Arc;\n",
        );
        assert!(lint_stale_escapes("lib.rs", run, &[]).is_empty());

        // Prose mentioning a marker mid-comment does not register.
        let prose = "// a deliberate site can carry a `// f64-ok: <reason>` marker\nfn f() {}\n";
        assert!(lint_stale_escapes("lib.rs", prose, &[]).is_empty());

        // Markers inside string literals never register.
        let quoted = "let s = \"// relaxed-ok: not a comment\";\n";
        assert!(lint_stale_escapes("lib.rs", quoted, &[]).is_empty());

        // ...including on the continuation lines of a multi-line string.
        let multi =
            concat!("let msg = \"justify with \\\n", "           `// relaxed-ok: <reason>`\";\n",);
        assert!(lint_stale_escapes("lib.rs", multi, &[]).is_empty());

        // Markers in the skip list are exempt — how the driver scopes the
        // rule-6/7/8 markers out of crates/sync.
        let shim = "}; // sync-ok: the shim wraps std\n";
        assert_eq!(lint_stale_escapes("lib.rs", shim, &[]).len(), 1);
        assert!(lint_stale_escapes("lib.rs", shim, &["sync-ok:"]).is_empty());
    }

    #[test]
    fn whole_workspace_is_clean() {
        let lints = lint_workspace(&workspace_root()).expect("workspace must be readable");
        assert!(
            lints.is_empty(),
            "workspace lint found {} issue(s):\n{}",
            lints.len(),
            lints.iter().map(Lint::to_string).collect::<Vec<_>>().join("\n")
        );
    }
}
