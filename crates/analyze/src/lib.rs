//! `arieslint` — a repo-specific static-analysis pass that mechanically
//! certifies the code-level obligations behind the paper's §4 safety
//! argument. (Its dynamic counterpart is the always-on latch monitor,
//! `ariesim_obs::monitor`.)
//!
//! The §4 deadlock-freedom proof rests on discipline the compiler cannot
//! check: every latch acquisition follows the rank order (tree latch before
//! page latches, parent before child), no lock is ever *waited* for while a
//! latch is held, and undo paths never panic half-way. Each lint here turns
//! one such obligation into a build failure:
//!
//! * [`lint_latch_census`] — every latch-acquisition site in the index,
//!   record, transaction and recovery crates must carry a
//!   `// latch-rank: N` annotation, ranks must match the latch class
//!   (tree = 1, page = 2), and ranks must be non-decreasing along the
//!   lexical acquisition order within a function (with `(fresh)` marking a
//!   provable all-released point and `(conditional)` marking try-sites that
//!   are exempt from ordering by construction).
//! * [`lint_no_wait_under_latch`] — a blocking lock-manager call
//!   (`.request(.., false)`) lexically inside a latch-guard scope is the
//!   exact bug §4 forbids; a conservative let-binding tracker flags it.
//! * [`lint_no_panic`] — `unwrap`/`expect`/`panic!`/`unreachable!` in the
//!   engine crates outside `#[cfg(test)]`: rollback and restart must
//!   complete, so fallible paths return `Result` and provably-infallible
//!   cases are individually justified in `lint.allow`.
//! * [`lint_crash_points`] — `crash_point!` names are globally unique
//!   (duplicates alias in torture enumeration) and, given a reached-points
//!   list from `torture --list-points`, every registered point is actually
//!   reached.
//! * [`lint_wal_coverage`] — every WAL body variant is dispatched in both
//!   redo and undo (an unhandled variant is silent data loss at restart).
//! * [`lint_ordering_census`] — every atomic memory-ordering argument
//!   (`Ordering::Relaxed` … `Ordering::SeqCst`) in the engine crates carries
//!   a `// ordering: <why>` justification; a bare ordering — above all a bare
//!   `Relaxed` on a cross-thread value — is a finding. The annotated sites
//!   form a census the model checker's harnesses are audited against.
//!
//! The allowlist (`lint.allow` at the repo root) is keyed by path, lint id
//! and a content fingerprint of the flagged line ([`fp8`]) — *not* by line
//! number, so entries survive unrelated edits but go stale the moment the
//! flagged line itself changes. Stale entries are themselves findings, so
//! the list can only shrink or move with the code it annotates.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding, anchored at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number (advisory: the allowlist keys on `fp`, not this).
    pub line: usize,
    /// Stable lint identifier (part of the allowlist key).
    pub lint: &'static str,
    /// Content fingerprint of the flagged line ([`fp8`]); empty for synthetic
    /// findings with no source line (allowlist diagnostics).
    pub fp: String,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.msg
        )?;
        if !self.fp.is_empty() {
            write!(f, " (fp {})", self.fp)?;
        }
        Ok(())
    }
}

fn finding(file: &str, line: usize, lint: &'static str, msg: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        lint,
        fp: String::new(),
        msg,
    }
}

/// Content fingerprint used to key allowlist entries: FNV-1a 64 of the
/// *trimmed* flagged line, xor-folded to 32 bits, printed as 8 hex digits.
/// Keying on content instead of line numbers means entries survive edits
/// elsewhere in the file, and one entry covers every identical flagged line
/// (e.g. the same `.expect(...)` idiom repeated across guard impls).
pub fn fp8(line_text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in line_text.trim().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{:08x}", (h ^ (h >> 32)) as u32)
}

// ---------------------------------------------------------------------------
// Shared scanning helpers
// ---------------------------------------------------------------------------

/// Strip a trailing `// ...` comment, honouring nothing fancier than "the
/// comment marker is not inside a string literal with an even number of
/// quotes before it" — sufficient for rustfmt'd code in this repo.
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(i) if line[..i].matches('"').count().is_multiple_of(2) => &line[..i],
        _ => line,
    }
}

fn is_comment_line(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("#!") || t.starts_with("#[")
}

fn is_fn_def_line(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("fn ")
        || t.starts_with("pub fn ")
        || t.starts_with("pub(crate) fn ")
        || t.starts_with("pub(super) fn ")
        || t.starts_with("async fn ")
        || t.starts_with("unsafe fn ")
}

/// Line index where the trailing `#[cfg(test)] mod …` block begins, if any.
/// The repo convention is test modules at the end of a file; a
/// `#[cfg(test)]` on a statement (a test probe inside engine code) does not
/// end the linted part.
fn test_module_start(lines: &[&str]) -> usize {
    lines
        .windows(2)
        .position(|w| w[0].trim() == "#[cfg(test)]" && w[1].trim_start().starts_with("mod "))
        .unwrap_or(lines.len())
}

fn ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Positions of `needle` in `hay` where the preceding character is not an
/// identifier character (so `tree_s(` does not match inside `try_tree_s(`).
fn bounded_matches(hay: &str, needle: &str) -> Vec<usize> {
    // The boundary check only applies when the needle itself starts with an
    // identifier character (`tree_s(`); needles led by `.` are self-bounding.
    let check_before = needle.chars().next().is_some_and(ident_char);
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        let ok = !check_before
            || at == 0
            || !ident_char(hay[..at].chars().next_back().unwrap_or(' '));
        if ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

/// Whole-word occurrences of `ident`, with the characters immediately before
/// and after each occurrence (for borrow/move classification).
fn word_occurrences(hay: &str, ident: &str) -> Vec<(usize, Option<char>, Option<char>)> {
    let mut out = Vec::new();
    for at in bounded_matches(hay, ident) {
        let after = hay[at + ident.len()..].chars().next();
        if let Some(c) = after {
            if ident_char(c) {
                continue;
            }
        }
        let before = hay[..at].chars().next_back();
        out.push((at, before, after));
    }
    out
}

// ---------------------------------------------------------------------------
// Lint 1: latch census + rank ordering
// ---------------------------------------------------------------------------

/// Latch class a needle acquires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchClass {
    Tree,
    Page,
}

impl LatchClass {
    pub fn rank(self) -> u32 {
        match self {
            LatchClass::Tree => 1,
            LatchClass::Page => 2,
        }
    }
}

/// Acquisition needles, longest first so prefixed forms win. The bool is
/// whether the call is conditional (a try — never blocks) by its own nature.
const LATCH_NEEDLES: &[(&str, LatchClass, bool)] = &[
    ("hold_tree_latch_x(", LatchClass::Tree, false),
    ("tree_instant_s(", LatchClass::Tree, false),
    (".try_fix_s(", LatchClass::Page, true),
    (".try_fix_x(", LatchClass::Page, true),
    ("try_tree_s(", LatchClass::Tree, true),
    (".latch_s(", LatchClass::Page, false),
    (".latch_x(", LatchClass::Page, false),
    (".fix_s(", LatchClass::Page, false),
    (".fix_x(", LatchClass::Page, false),
    ("tree_s(", LatchClass::Tree, false),
    ("tree_x(", LatchClass::Tree, false),
];

/// Annotation qualifier parsed from `// latch-rank: N [(qualifier)]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankQualifier {
    /// Plain site: rank must be ≥ the current watermark.
    None,
    /// Try-site: exempt from the ordering check (denial never blocks).
    Conditional,
    /// All latches are provably released here; resets the watermark.
    Fresh,
}

/// One annotated latch-acquisition site.
#[derive(Debug, Clone)]
pub struct CensusSite {
    pub file: String,
    pub line: usize,
    pub needle: &'static str,
    pub class: LatchClass,
    pub rank: u32,
    pub qualifier: RankQualifier,
}

fn parse_rank_annotation(line: &str) -> Option<(u32, RankQualifier)> {
    let at = line.find("// latch-rank:")?;
    let rest = line[at + "// latch-rank:".len()..].trim();
    let mut it = rest.splitn(2, char::is_whitespace);
    let rank: u32 = it.next()?.parse().ok()?;
    let qual = match it.next().map(str::trim) {
        Some("(conditional)") => RankQualifier::Conditional,
        Some("(fresh)") => RankQualifier::Fresh,
        Some("") | None => RankQualifier::None,
        Some(_) => return None, // unknown qualifier: treat as unannotated
    };
    Some((rank, qual))
}

/// Scan one file for latch-acquisition sites: every site must carry a
/// `// latch-rank` annotation with the right rank for its class, and ranks
/// must be non-decreasing through each function.
pub fn lint_latch_census(file: &str, content: &str) -> (Vec<CensusSite>, Vec<Finding>) {
    let lines: Vec<&str> = content.lines().collect();
    let end = test_module_start(&lines);
    let mut sites = Vec::new();
    let mut findings = Vec::new();
    // Watermark of the last rank acquired in the current function.
    let mut watermark = 0u32;
    for (i, raw) in lines[..end].iter().enumerate() {
        let lineno = i + 1;
        if is_comment_line(raw) {
            continue;
        }
        if is_fn_def_line(raw) {
            watermark = 0;
            continue;
        }
        let code = code_part(raw);
        let mut hits: Vec<(usize, &'static str, LatchClass, bool)> = Vec::new();
        for &(needle, class, cond) in LATCH_NEEDLES {
            for at in bounded_matches(code, needle) {
                // A longer needle may already cover this span.
                if !hits
                    .iter()
                    .any(|&(a, n, _, _)| at >= a && at < a + n.len())
                {
                    hits.push((at, needle, class, cond));
                }
            }
        }
        if hits.is_empty() {
            continue;
        }
        hits.sort_by_key(|h| h.0);
        let annotation = parse_rank_annotation(raw);
        for (_, needle, class, inherently_cond) in hits {
            let Some((rank, qual)) = annotation else {
                findings.push(finding(
                    file,
                    lineno,
                    "latch-annotation",
                    format!("latch acquisition `{needle}..)` lacks a `// latch-rank: N` annotation"),
                ));
                continue;
            };
            if rank != class.rank() {
                findings.push(finding(
                    file,
                    lineno,
                    "latch-annotation",
                    format!(
                        "`{needle}..)` is a {} latch (rank {}) but is annotated rank {rank}",
                        match class {
                            LatchClass::Tree => "tree",
                            LatchClass::Page => "page",
                        },
                        class.rank()
                    ),
                ));
            }
            if inherently_cond && qual != RankQualifier::Conditional {
                findings.push(finding(
                    file,
                    lineno,
                    "latch-annotation",
                    format!("try-site `{needle}..)` must be annotated `(conditional)`"),
                ));
            }
            match qual {
                RankQualifier::Conditional => {
                    // Exempt from ordering; does not move the watermark.
                }
                RankQualifier::Fresh => {
                    watermark = rank;
                }
                RankQualifier::None => {
                    if rank < watermark {
                        findings.push(finding(
                            file,
                            lineno,
                            "latch-rank-order",
                            format!(
                                "rank {rank} acquired while watermark is {watermark}: \
                                 annotate `(fresh)` if all latches are provably released, \
                                 or fix the acquisition order"
                            ),
                        ));
                    }
                    watermark = watermark.max(rank);
                }
            }
            sites.push(CensusSite {
                file: file.to_string(),
                line: lineno,
                needle,
                class,
                rank,
                qualifier: qual,
            });
        }
    }
    (sites, findings)
}

// ---------------------------------------------------------------------------
// Lint 2: no blocking lock wait under a latch (lexical tracker)
// ---------------------------------------------------------------------------

/// Needles whose *result binding* is treated as a live latch guard. The
/// census needles, plus the two helpers that return latched guards.
const GUARD_NEEDLES: &[&str] = &[
    "hold_tree_latch_x(",
    "tree_instant_s(", // instant: releases before returning — excluded below
    ".try_fix_s(",
    ".try_fix_x(",
    "try_tree_s(",
    ".latch_s(",
    ".latch_x(",
    ".fix_s(",
    ".fix_x(",
    "tree_s(",
    "tree_x(",
    ".traverse(",
    ".next_key_after(",
];

fn statement_acquires_guard(stmt: &str) -> bool {
    GUARD_NEEDLES.iter().any(|n| {
        // tree_instant_s releases internally: not a guard-producing call.
        *n != "tree_instant_s(" && !bounded_matches(stmt, n).is_empty()
    })
}

/// Pattern idents bound by a `let` statement head (`let PAT = ...`).
fn let_pattern_idents(stmt: &str) -> Vec<String> {
    let Some(after_let) = stmt.trim_start().strip_prefix("let ") else {
        return Vec::new();
    };
    // Pattern text: up to the first top-level `=` (not `==`, `=>`, `<=`...).
    let bytes = after_let.as_bytes();
    let mut depth = 0usize;
    let mut pat_end = after_let.len();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth = depth.saturating_sub(1),
            b'=' if depth == 0 => {
                let prev = if i > 0 { bytes[i - 1] } else { b' ' };
                let next = bytes.get(i + 1).copied().unwrap_or(b' ');
                if prev != b'=' && prev != b'!' && prev != b'<' && prev != b'>' && next != b'='
                {
                    pat_end = i;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    let mut pat = &after_let[..pat_end];
    // Drop a type annotation: `x: Foo` / `(a, b): (X, Y)`.
    if let Some(colon) = top_level_colon(pat) {
        pat = &pat[..colon];
    }
    let mut out = Vec::new();
    for chunk in pat.split([',', '(', ')', '|']) {
        let id = chunk.trim().trim_start_matches("mut ").trim();
        if !id.is_empty()
            && id != "_"
            && id.chars().all(ident_char)
            && !id.chars().next().is_some_and(|c| c.is_ascii_digit())
        {
            out.push(id.to_string());
        }
    }
    out
}

fn top_level_colon(pat: &str) -> Option<usize> {
    let bytes = pat.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth = depth.saturating_sub(1),
            b':' if depth == 0 && bytes.get(i + 1) != Some(&b':') && (i == 0 || bytes[i - 1] != b':') => {
                return Some(i)
            }
            _ => {}
        }
    }
    None
}

/// Is the final argument of the last `.request(` call in `stmt` the literal
/// `false` (an unconditional — blocking — lock request)?
fn blocking_request_in(stmt: &str) -> bool {
    let Some(at) = stmt.rfind(".request(") else {
        return false;
    };
    let args_start = at + ".request(".len();
    let bytes = stmt.as_bytes();
    let mut depth = 1usize;
    let mut seg_start = args_start;
    let mut end = stmt.len();
    let mut segs: Vec<&str> = Vec::new();
    let mut i = args_start;
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    end = i;
                    break;
                }
            }
            b',' if depth == 1 => {
                segs.push(&stmt[seg_start..i]);
                seg_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    segs.push(&stmt[seg_start..end]);
    // A trailing comma leaves an empty final segment; skip it.
    segs.iter()
        .rev()
        .map(|s| s.trim())
        .find(|s| !s.is_empty())
        == Some("false")
}

/// Conservative lexical check that no blocking lock-manager request happens
/// while a tracked latch guard is live.
///
/// Tracks only guards bound by `let` in the same function (parameters and
/// struct fields are out of scope — the runtime latch monitor covers those).
/// A guard is released by `drop(g)`, `g.take()`, a bare-ident move, or the
/// end of the function.
pub fn lint_no_wait_under_latch(file: &str, content: &str) -> Vec<Finding> {
    let lines: Vec<&str> = content.lines().collect();
    let end = test_module_start(&lines);
    let mut findings = Vec::new();
    let mut held: Vec<String> = Vec::new();
    // Statement accumulator: (text, first line, net bracket depth).
    let mut stmt = String::new();
    let mut stmt_line = 0usize;
    let mut stmt_depth = 0i64;

    let process =
        |stmt: &str, line: usize, held: &mut Vec<String>, findings: &mut Vec<Finding>| {
            // 1. Releases first: a move into the statement ends the guard's
            //    life before any call in it can block.
            held.retain(|g| {
                let mut released = false;
                for (at, before, after) in word_occurrences(stmt, g) {
                    let is_drop = stmt[..at].trim_end().ends_with("drop(");
                    let is_take = stmt[at..].starts_with(&format!("{g}.take()"));
                    let is_borrow = after == Some('.') || before == Some('&');
                    if is_drop || is_take || !is_borrow {
                        released = true;
                        break;
                    }
                }
                !released
            });
            // 2. Blocking request while something is held?
            if blocking_request_in(stmt) && !held.is_empty() {
                findings.push(finding(
                    file,
                    line,
                    "no-wait-under-latch",
                    format!(
                        "unconditional lock request while latch guard(s) {:?} are live \
                         (§4: release every latch before waiting)",
                        held
                    ),
                ));
            }
            // 3. New bindings. A single-ident `let` from a guard-producing
            //    call binds the guard itself; in a destructuring pattern the
            //    guard is the component whose name says so (`g`, `*guard*`) —
            //    the other components are keys/flags extracted alongside it.
            if stmt.trim_start().starts_with("let ") && statement_acquires_guard(stmt) {
                let ids = let_pattern_idents(stmt);
                let multi = ids.len() > 1;
                for id in ids {
                    if multi && !(id.contains("guard") || id.trim_start_matches('_') == "g") {
                        continue;
                    }
                    if !held.contains(&id) {
                        held.push(id);
                    }
                }
            }
        };

    for (i, raw) in lines[..end].iter().enumerate() {
        let lineno = i + 1;
        if is_comment_line(raw) {
            continue;
        }
        if is_fn_def_line(raw) {
            held.clear();
            stmt.clear();
            stmt_depth = 0;
        }
        let code = code_part(raw);
        if stmt.is_empty() {
            stmt_line = lineno;
        }
        stmt.push_str(code);
        stmt.push(' ');
        for c in code.chars() {
            match c {
                '(' | '[' | '{' => stmt_depth += 1,
                ')' | ']' | '}' => stmt_depth -= 1,
                _ => {}
            }
        }
        let trimmed = code.trim_end();
        // A statement completes when brackets balance and it ends with `;`,
        // or when a block opens (`{`): the accumulated head is processed and
        // the block's interior continues statement-by-statement.
        let complete = (stmt_depth <= 0 && (trimmed.ends_with(';') || trimmed.ends_with('}')))
            || trimmed.ends_with('{');
        if complete {
            process(&stmt, stmt_line, &mut held, &mut findings);
            stmt.clear();
            stmt_depth = 0;
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Lint 3: panic audit
// ---------------------------------------------------------------------------

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Flag `unwrap`/`expect`/`panic!`-family tokens outside `#[cfg(test)]`.
pub fn lint_no_panic(file: &str, content: &str) -> Vec<Finding> {
    let lines: Vec<&str> = content.lines().collect();
    let end = test_module_start(&lines);
    let mut findings = Vec::new();
    for (i, raw) in lines[..end].iter().enumerate() {
        if is_comment_line(raw) {
            continue;
        }
        let code = code_part(raw);
        for tok in PANIC_TOKENS {
            if code.contains(tok) {
                findings.push(finding(
                    file,
                    i + 1,
                    "no-panic",
                    format!(
                        "`{}` on an engine path: return an Error (or justify in lint.allow)",
                        tok.trim_start_matches('.')
                    ),
                ));
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Lint 3b: atomics-ordering census
// ---------------------------------------------------------------------------

/// The five atomic memory-ordering variants (`std::sync::atomic::Ordering`
/// and the model-aware `msync` facade alike). `cmp::Ordering`'s variants
/// (`Less`/`Equal`/`Greater`) never collide with these, so a plain token
/// scan cannot misfire on comparator code.
const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

/// One justified atomic-ordering site (census entry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderingSite {
    pub file: String,
    pub line: usize,
    /// Ordering variant names used on the line (`Relaxed`, `Acquire`, …).
    pub ops: Vec<String>,
}

/// Census of atomic memory-ordering arguments: every site outside
/// `#[cfg(test)]` must justify its choice with `// ordering: <why>` on the
/// same line or in the comment block directly above. Annotated sites are
/// returned as the census; unannotated ones are findings — a bare `Relaxed`
/// on a value another thread observes is exactly the class of bug the model
/// checker exists to catch, and the written justification is what a
/// reviewer (or a checker-harness author) audits against the protocol.
pub fn lint_ordering_census(file: &str, content: &str) -> (Vec<OrderingSite>, Vec<Finding>) {
    let lines: Vec<&str> = content.lines().collect();
    let end = test_module_start(&lines);
    let mut sites = Vec::new();
    let mut findings = Vec::new();
    for (i, raw) in lines[..end].iter().enumerate() {
        if is_comment_line(raw) {
            continue;
        }
        let code = code_part(raw);
        let ops: Vec<String> = ATOMIC_ORDERINGS
            .iter()
            .filter(|t| code.contains(*t))
            .map(|t| t.trim_start_matches("Ordering::").to_string())
            .collect();
        if ops.is_empty() {
            continue;
        }
        let trailing = raw.contains("// ordering:");
        // Accept the justification anywhere in the contiguous `//` comment
        // block directly above (annotations often wrap onto several lines).
        let preceding = lines[..i]
            .iter()
            .rev()
            .take_while(|l| l.trim_start().starts_with("//"))
            .any(|l| l.contains("ordering:"));
        if trailing || preceding {
            sites.push(OrderingSite {
                file: file.to_string(),
                line: i + 1,
                ops,
            });
        } else {
            let relaxed = if ops.iter().any(|o| o == "Relaxed") {
                " — for Relaxed, say why no other thread's correctness \
                 depends on observing this value in order"
            } else {
                ""
            };
            findings.push(finding(
                file,
                i + 1,
                "ordering-annotation",
                format!(
                    "unannotated atomic ordering ({}): add `// ordering: <why>` \
                     on this line or the comment directly above{relaxed}",
                    ops.join(", "),
                ),
            ));
        }
    }
    (sites, findings)
}

/// Per-file ordering-census table for EXPERIMENTS.md and `--census`.
pub fn ordering_table(sites: &[OrderingSite]) -> String {
    let mut per_file: Vec<(String, [usize; 5])> = Vec::new();
    for s in sites {
        let entry = match per_file.iter_mut().find(|e| e.0 == s.file) {
            Some(e) => e,
            None => {
                per_file.push((s.file.clone(), [0; 5]));
                per_file.last_mut().expect("just pushed")
            }
        };
        for op in &s.ops {
            let idx = match op.as_str() {
                "Relaxed" => 0,
                "Acquire" => 1,
                "Release" => 2,
                "AcqRel" => 3,
                _ => 4,
            };
            entry.1[idx] += 1;
        }
    }
    per_file.sort();
    let mut out = String::new();
    out.push_str("| file | Relaxed | Acquire | Release | AcqRel | SeqCst |\n");
    out.push_str("|------|--------:|--------:|--------:|-------:|-------:|\n");
    let mut tot = [0usize; 5];
    for (file, n) in &per_file {
        out.push_str(&format!(
            "| {file} | {} | {} | {} | {} | {} |\n",
            n[0], n[1], n[2], n[3], n[4]
        ));
        for (t, v) in tot.iter_mut().zip(n) {
            *t += v;
        }
    }
    out.push_str(&format!(
        "| **total** | **{}** | **{}** | **{}** | **{}** | **{}** |\n",
        tot[0], tot[1], tot[2], tot[3], tot[4]
    ));
    out
}

// ---------------------------------------------------------------------------
// Lint 4: crash-point registry
// ---------------------------------------------------------------------------

/// `crash_point!("name")` sites found in the source tree.
#[derive(Debug, Clone)]
pub struct CrashPointSite {
    pub name: String,
    pub file: String,
    pub line: usize,
}

pub fn find_crash_points(file: &str, content: &str) -> Vec<CrashPointSite> {
    let lines: Vec<&str> = content.lines().collect();
    let end = test_module_start(&lines);
    let mut out = Vec::new();
    for (i, raw) in lines[..end].iter().enumerate() {
        if is_comment_line(raw) {
            continue;
        }
        let code = code_part(raw);
        let mut from = 0;
        while let Some(rel) = code[from..].find("crash_point!(\"") {
            let at = from + rel + "crash_point!(\"".len();
            let Some(close) = code[at..].find('"') else {
                break;
            };
            out.push(CrashPointSite {
                name: code[at..at + close].to_string(),
                file: file.to_string(),
                line: i + 1,
            });
            from = at + close;
        }
    }
    out
}

/// Registry audit: duplicate names are findings; with a reached-points list
/// (from `torture --list-points`), unreached registrations are too.
pub fn lint_crash_points(sites: &[CrashPointSite], reached: Option<&[String]>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut first: HashMap<&str, &CrashPointSite> = HashMap::new();
    for s in sites {
        match first.get(s.name.as_str()) {
            Some(prev) => findings.push(finding(
                &s.file,
                s.line,
                "crash-point-dup",
                format!(
                    "crash point {:?} already registered at {}:{}",
                    s.name, prev.file, prev.line
                ),
            )),
            None => {
                first.insert(&s.name, s);
            }
        }
    }
    if let Some(reached) = reached {
        for s in first.values() {
            if !reached.iter().any(|r| r == &s.name) {
                findings.push(finding(
                    &s.file,
                    s.line,
                    "crash-point-unreached",
                    format!(
                        "crash point {:?} is never reached by the torture workload",
                        s.name
                    ),
                ));
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

// ---------------------------------------------------------------------------
// Lint 5: WAL-record coverage
// ---------------------------------------------------------------------------

/// Variant names of `enum <name>` in `content` (brace- and tuple-style).
pub fn enum_variants(content: &str, name: &str) -> Vec<String> {
    let Some(at) = content.find(&format!("enum {name} {{")) else {
        return Vec::new();
    };
    let body_start = at + content[at..].find('{').unwrap_or(0) + 1;
    let bytes = content.as_bytes();
    let mut depth = 1usize;
    let mut end = content.len();
    for (i, &b) in bytes[body_start..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    end = body_start + i;
                    break;
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    let mut vdepth = 0usize;
    for line in content[body_start..end].lines() {
        let t = line.trim();
        if vdepth == 0
            && !t.is_empty()
            && !t.starts_with("//")
            && !t.starts_with('#')
            && t.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        {
            let ident: String = t.chars().take_while(|&c| ident_char(c)).collect();
            if !ident.is_empty() {
                out.push(ident);
            }
        }
        for c in t.chars() {
            match c {
                '{' | '(' => vdepth += 1,
                '}' | ')' => vdepth = vdepth.saturating_sub(1),
                _ => {}
            }
        }
    }
    out
}

/// Text of `fn <name>` (body included) in `content`.
fn fn_text<'a>(content: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("fn {name}(");
    let at = content.find(&pat)?;
    let open = at + content[at..].find('{')?;
    let bytes = content.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes[open..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&content[at..open + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Every `IndexBody`, `HeapBody` and `RecordKind` variant must be dispatched
/// on its redo *and* undo path.
pub fn lint_wal_coverage(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let checks: &[(&str, &str, &str, &[&str])] = &[
        (
            "crates/btree/src/body.rs",
            "IndexBody",
            "crates/btree/src/apply.rs",
            &["apply_body", "undo_body"],
        ),
        (
            "crates/record/src/body.rs",
            "HeapBody",
            "crates/record/src/heap.rs",
            &["redo", "undo"],
        ),
        (
            "crates/wal/src/record.rs",
            "RecordKind",
            "crates/recovery/src/restart.rs",
            &["restart"],
        ),
    ];
    for &(enum_file, enum_name, dispatch_file, fns) in checks {
        let enum_src = fs::read_to_string(root.join(enum_file))?;
        let dispatch_src = fs::read_to_string(root.join(dispatch_file))?;
        let variants = enum_variants(&enum_src, enum_name);
        if variants.is_empty() {
            findings.push(finding(
                enum_file,
                1,
                "wal-coverage",
                format!("could not parse variants of enum {enum_name}"),
            ));
            continue;
        }
        for f in fns {
            let Some(body) = fn_text(&dispatch_src, f) else {
                findings.push(finding(
                    dispatch_file,
                    1,
                    "wal-coverage",
                    format!("dispatch fn `{f}` not found"),
                ));
                continue;
            };
            for v in &variants {
                let qualified = format!("{enum_name}::{v}");
                if !body.contains(&qualified) {
                    findings.push(finding(
                        dispatch_file,
                        1,
                        "wal-coverage",
                        format!("`{qualified}` is not dispatched in fn `{f}`"),
                    ));
                }
            }
        }
    }
    Ok(findings)
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

/// Maximum committed allowlist size: the point of the suite is burning the
/// list down, not growing it.
pub const ALLOWLIST_MAX: usize = 15;

#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub file: String,
    pub lint: String,
    /// Content fingerprint of the allowed line (see [`fp8`]).
    pub fp: String,
    /// 1-based line in lint.allow (for stale-entry findings).
    pub at: usize,
}

/// Parse `lint.allow`: `<path> <lint-id> <fp8> — <justification>` per line;
/// `#` comments and blanks ignored. The fingerprint is the 8-hex-digit
/// [`fp8`] of the flagged line, printed by every finding; line numbers are
/// deliberately not part of the key.
pub fn parse_allowlist(content: &str) -> (Vec<AllowEntry>, Vec<Finding>) {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (i, raw) in content.lines().enumerate() {
        let at = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let file = parts.next().unwrap_or("");
        let lint = parts.next().unwrap_or("");
        let fp = parts.next().unwrap_or("");
        let justification: Vec<&str> = parts.collect();
        let fp_ok = fp.len() == 8 && fp.bytes().all(|b| b.is_ascii_hexdigit());
        if file.contains('/') && !lint.is_empty() && fp_ok && !justification.is_empty() {
            entries.push(AllowEntry {
                file: file.to_string(),
                lint: lint.to_string(),
                fp: fp.to_string(),
                at,
            });
        } else {
            findings.push(finding(
                "lint.allow",
                at,
                "allow-format",
                "expected `<path> <lint-id> <fp8> — <justification>` \
                 (fp8 is the 8-hex fingerprint each finding prints)"
                    .to_string(),
            ));
        }
    }
    if entries.len() > ALLOWLIST_MAX {
        findings.push(finding(
            "lint.allow",
            1,
            "allow-overflow",
            format!(
                "{} entries exceed the budget of {ALLOWLIST_MAX}: burn findings down instead",
                entries.len()
            ),
        ));
    }
    (entries, findings)
}

/// Remove allowlisted findings; stale entries (matching nothing) become
/// findings themselves. An entry matches on (file, lint, fingerprint), so a
/// single entry covers every finding of that lint on an identical line in
/// the file — repeated idioms need one justification, not one per copy.
pub fn apply_allowlist(findings: Vec<Finding>, allow: &[AllowEntry]) -> Vec<Finding> {
    let mut used = vec![false; allow.len()];
    let mut out: Vec<Finding> = Vec::new();
    for f in findings {
        let hit = (!f.fp.is_empty())
            .then(|| {
                allow
                    .iter()
                    .position(|a| a.file == f.file && a.lint == f.lint && a.fp == f.fp)
            })
            .flatten();
        match hit {
            Some(i) => used[i] = true,
            None => out.push(f),
        }
    }
    for (i, a) in allow.iter().enumerate() {
        if !used[i] {
            out.push(finding(
                "lint.allow",
                a.at,
                "allow-stale",
                format!(
                    "entry `{} {} {}` matches no current finding: remove it",
                    a.file, a.lint, a.fp
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Crates subject to the latch census and the no-wait lint.
pub const LATCH_CRATES: &[&str] = &["btree", "record", "txn", "recovery", "repl"];

/// Crates subject to the panic audit.
pub const ENGINE_CRATES: &[&str] = &[
    "common", "storage", "wal", "btree", "record", "txn", "recovery", "lock", "repl",
];

/// Source directories subject to the atomics-ordering census: the engine
/// crates, the model checker (whose harnesses are themselves concurrency
/// protocols) and the lock shim, whose state word is every page and tree
/// latch.
pub const ORDERING_DIRS: &[&str] = &[
    "crates/common/src",
    "crates/storage/src",
    "crates/wal/src",
    "crates/btree/src",
    "crates/record/src",
    "crates/txn/src",
    "crates/recovery/src",
    "crates/lock/src",
    "crates/repl/src",
    "crates/model/src",
    "shims/parking_lot/src",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        if p.is_dir() {
            rust_files(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Everything the source pass produces: raw findings plus the census.
pub struct SourceReport {
    pub findings: Vec<Finding>,
    pub census: Vec<CensusSite>,
    pub crash_points: Vec<CrashPointSite>,
    pub ordering_sites: Vec<OrderingSite>,
}

/// Run every source lint over the workspace at `root` (without applying the
/// allowlist — see [`apply_allowlist`]).
pub fn run_source_lints(root: &Path, reached: Option<&[String]>) -> io::Result<SourceReport> {
    let mut findings = Vec::new();
    let mut census = Vec::new();
    let mut crash_points = Vec::new();
    let mut ordering_sites = Vec::new();

    for krate in LATCH_CRATES {
        let mut files = Vec::new();
        rust_files(&root.join("crates").join(krate).join("src"), &mut files)?;
        for p in &files {
            let content = fs::read_to_string(p)?;
            let name = rel(root, p);
            let (sites, f) = lint_latch_census(&name, &content);
            census.extend(sites);
            findings.extend(f);
            findings.extend(lint_no_wait_under_latch(&name, &content));
        }
    }
    for krate in ENGINE_CRATES {
        let mut files = Vec::new();
        rust_files(&root.join("crates").join(krate).join("src"), &mut files)?;
        for p in &files {
            let content = fs::read_to_string(p)?;
            let name = rel(root, p);
            findings.extend(lint_no_panic(&name, &content));
        }
    }
    for dir in ORDERING_DIRS {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files)?;
        for p in &files {
            let content = fs::read_to_string(p)?;
            let name = rel(root, p);
            let (sites, f) = lint_ordering_census(&name, &content);
            ordering_sites.extend(sites);
            findings.extend(f);
        }
    }
    // Crash points live anywhere in the workspace's crates.
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.exists() {
        let mut dirs: Vec<_> = fs::read_dir(&crates_dir)?.collect::<io::Result<_>>()?;
        dirs.sort_by_key(|e| e.path());
        for e in dirs {
            rust_files(&e.path().join("src"), &mut files)?;
        }
    }
    let mut corpus: Vec<(String, String)> = Vec::new();
    for p in &files {
        let content = fs::read_to_string(p)?;
        let name = rel(root, p);
        crash_points.extend(find_crash_points(&name, &content));
        corpus.push((name, content));
    }
    findings.extend(lint_crash_points(&crash_points, reached));
    findings.extend(lint_wal_coverage(root)?);
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    // Stamp each finding with the content fingerprint of its flagged line —
    // the key the allowlist matches on. The corpus holds every file any
    // source lint can flag; anything outside it keeps an empty (unmatched)
    // fingerprint.
    let by_file: HashMap<&str, &str> =
        corpus.iter().map(|(n, c)| (n.as_str(), c.as_str())).collect();
    for f in &mut findings {
        if let Some(text) = by_file.get(f.file.as_str()) {
            if let Some(line) = f.line.checked_sub(1).and_then(|i| text.lines().nth(i)) {
                f.fp = fp8(line);
            }
        }
    }
    Ok(SourceReport {
        findings,
        census,
        crash_points,
        ordering_sites,
    })
}

/// Census table (per file, per class) for EXPERIMENTS.md and `--census`.
pub fn census_table(census: &[CensusSite]) -> String {
    let mut per_file: Vec<(String, usize, usize, usize)> = Vec::new(); // file, tree, page, conditional
    for s in census {
        let entry = match per_file.iter_mut().find(|e| e.0 == s.file) {
            Some(e) => e,
            None => {
                per_file.push((s.file.clone(), 0, 0, 0));
                per_file.last_mut().expect("just pushed")
            }
        };
        match s.class {
            LatchClass::Tree => entry.1 += 1,
            LatchClass::Page => entry.2 += 1,
        }
        if s.qualifier == RankQualifier::Conditional {
            entry.3 += 1;
        }
    }
    per_file.sort();
    let mut out = String::new();
    out.push_str("| file | tree-latch sites | page-latch sites | conditional |\n");
    out.push_str("|------|-----------------:|-----------------:|------------:|\n");
    let (mut t, mut p, mut c) = (0, 0, 0);
    for (file, tree, page, cond) in &per_file {
        out.push_str(&format!("| {file} | {tree} | {page} | {cond} |\n"));
        t += tree;
        p += page;
        c += cond;
    }
    out.push_str(&format!("| **total** | **{t}** | **{p}** | **{c}** |\n"));
    out
}
