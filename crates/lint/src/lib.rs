//! `cole_lint` — repo-invariant static analysis for the COLE workspace.
//!
//! A hand-rolled line/token scanner (no `syn`, no proc-macro machinery —
//! the build environment is offline) that enforces concurrency and
//! durability invariants the compiler cannot see. The rules are the
//! codified lessons of this repo's write-path and model-checking work:
//!
//! * **`seek-then-read`** — shared files are read with positioned I/O
//!   (`pread`-style `read_page`), never `seek` + `read`: a seek mutates
//!   the file cursor, which is shared state, so two concurrent readers
//!   interleave into reads of the wrong offset. A `.seek(` call followed
//!   by a read within the next few lines is rejected. (The WAL's
//!   seek-then-*write* tail repair is single-writer and stays legal.)
//!
//! * **`killpoint-adjacency`** — in the write-path modules (manifest
//!   commit/repair, run construction, merges), every durability edge —
//!   `sync_all` / `sync_data` / `fs::rename` — must sit next to a
//!   kill-point crossing, or the crash-injection harness has a blind spot
//!   exactly where a crash is most interesting.
//!
//! * **`forbid-unsafe`** — every crate root carries
//!   `#![forbid(unsafe_code)]`; the workspace's soundness story (including
//!   the loom shim's) is "one feature-guarded call in `cole_hash`". That
//!   crate alone may carry `#![deny(unsafe_code)]` instead, provided its
//!   non-test source holds exactly one `unsafe` token — the call into the
//!   `#[target_feature]` SHA-NI kernel — on a site waived with
//!   `cole_lint: allow(forbid-unsafe)` and headed by a `// SAFETY:` comment
//!   that names the `is_x86_feature_detected` check guarding it.
//!
//! * **`ordering-audit`** — every atomic-ordering site in library code
//!   must be covered by the checked-in `ORDERINGS.md` allowlist: a file
//!   may only use the orderings its audit entry grants. Adding a `SeqCst`
//!   (or any new ordering) without updating the audit — with a rationale —
//!   fails the build.
//!
//! * **`lock-unwrap`** — no bare `.lock().unwrap()` / `.read().unwrap()` /
//!   `.write().unwrap()` in non-test library code: a panicked holder would
//!   cascade poisoning panics through every later accessor. Use the
//!   `lock_recover` / `read_recover` / `write_recover` helpers, which
//!   carry the workspace's poisoning policy.
//!
//! * **`lock-order`** — every `lock_recover`/`read_recover`/
//!   `write_recover` site must belong to a lock class declared in the
//!   checked-in `LOCKS.md`, and nesting observed in source (a guard still
//!   live when another class is acquired) must respect the declared
//!   partial order: strictly increasing rank, never the same class twice.
//!   Stale classes that match no site fail like stale ORDERINGS.md rows.
//!   This is the *static* leg of the deadlock triple check — the
//!   `--cfg lock_order` runtime tracker and the loom explorer are the
//!   other two.
//!
//! * **`condvar-wait-loop`** — every `Condvar` `.wait(`/`.wait_timeout(`
//!   in library code must sit inside a `while`/`loop`/`for` frame:
//!   condition variables wake spuriously, so a wait whose predicate is
//!   not re-checked in a loop is a latent lost-wakeup bug.
//!
//! * **`error-taxonomy`** — every variant of the wire `ErrorCode` enum
//!   must have a row in ERRORS.md's wire-code table with the tag the
//!   source assigns it, and the table may not list codes that no longer
//!   exist: clients decide retry behavior from the documented taxonomy,
//!   so an undocumented (or stale) error code is a protocol bug.
//!
//! * **`panic-path`** — in `cole_protocol`'s decode modules, no
//!   `.unwrap()`, `.expect(`, direct indexing, or unchecked arithmetic
//!   may be reachable (intra-file) from a `decode*` function: those
//!   functions parse bytes off the wire, and a panic there lets a
//!   malformed frame kill a connection handler instead of surfacing
//!   `InvalidEncoding`.
//!
//! * **`single-read-path`** — inside `crates/core/src`, a `ComponentProof`
//!   variant may be *constructed* only in `read.rs` (the one implementation
//!   of Algorithm 8; `proof.rs`, which decodes proofs, is exempt). A second
//!   construction site is a second copy of the query algorithm, and the
//!   order of proof components — a consensus-relevant invariant — would be
//!   kept in sync by hand again. Matching on the variants is fine anywhere.
//!
//! A site can be waived with a same-line or preceding-line comment
//! `cole_lint: allow(<rule>)`, which is intentionally greppable.
//!
//! Test code (`#[cfg(test)]` modules, `tests/`, `benches/`, `examples/`)
//! is exempt from all rules except `forbid-unsafe`; the vendored shims
//! under `crates/shims/` mimic external crates' APIs and are likewise only
//! held to `forbid-unsafe`. The linter's own fixtures (`fixtures/`) are
//! deliberately bad and skipped entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// The atomic orderings the audit tracks (everything `std::sync::atomic`
/// offers). `Ordering::Less`/`Equal`/`Greater` are `std::cmp` and ignored.
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Modules on the durability write path, where every fsync/rename must be
/// adjacent to a kill point (repo-relative suffixes).
const WRITE_PATH_MODULES: [&str; 3] = [
    "crates/core/src/manifest.rs",
    "crates/core/src/run.rs",
    "crates/core/src/merge.rs",
];

/// Where proof components may be built (`single-read-path`): the engine
/// crate's source directory, and the two files in it that may name a
/// `ComponentProof` variant in expression position.
const READ_PATH_SCOPE: &str = "crates/core/src/";
const READ_PATH_OWNERS: [&str; 2] = ["read.rs", "proof.rs"];
const COMPONENT_VARIANTS: [&str; 5] = [
    "MemSearched",
    "MemUnsearched",
    "RunSearched",
    "RunBloomNegative",
    "RunUnsearched",
];

/// The one crate root allowed `#![deny(unsafe_code)]` in place of `forbid`
/// (repo-relative suffix), and what its `SAFETY` comment must name.
const UNSAFE_EXCEPTION_ROOT: &str = "crates/hash/src/lib.rs";
const UNSAFE_EXCEPTION_GUARD: &str = "is_x86_feature_detected";

/// How many lines away a kill-point crossing may be from its durability
/// edge and still count as adjacent.
const KILLPOINT_WINDOW: usize = 4;

/// How many lines after a `.seek(` a read is considered part of the same
/// seek-then-read sequence.
const SEEK_READ_WINDOW: usize = 10;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `"lock-unwrap"`).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: PathBuf,
    /// 1-based line of the offending site (0 for file-level findings).
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.rule,
            self.path.display(),
            self.line,
            self.message
        )
    }
}

/// One scanned source line: the raw text plus the comment-stripped code
/// and whether it sits inside a `#[cfg(test)]` module.
struct CodeLine {
    raw: String,
    code: String,
    in_test: bool,
}

/// A parsed source file ready for rule checks.
struct SourceFile {
    rel: PathBuf,
    lines: Vec<CodeLine>,
    is_crate_root: bool,
    in_shims: bool,
    in_test_tree: bool,
}

/// Strips `//` line comments and `/* */` block comments from one line and
/// blanks out string-literal interiors (so a rule pattern inside a string
/// — like this linter's own rule tables — is not mistaken for code).
/// `in_block` carries block-comment state across lines.
fn strip_comments(line: &str, in_block: &mut bool) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    let mut in_str = false;
    while i < bytes.len() {
        if *in_block {
            if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        let c = bytes[i];
        if in_str {
            if c == b'\\' && i + 1 < bytes.len() {
                out.push_str("  ");
                i += 2;
                continue;
            }
            if c == b'"' {
                in_str = false;
                out.push('"');
            } else {
                out.push(' ');
            }
            i += 1;
            continue;
        }
        match c {
            b'"' => {
                in_str = true;
                out.push('"');
                i += 1;
            }
            // Char literals that could confuse the string tracker: '"' and
            // '\"'. Lifetimes ('a) fall through harmlessly.
            b'\'' if i + 2 < bytes.len() && bytes[i + 2] == b'\'' => {
                out.push_str("' '");
                i += 3;
            }
            b'\'' if i + 3 < bytes.len() && bytes[i + 1] == b'\\' && bytes[i + 3] == b'\'' => {
                out.push_str("'  '");
                i += 4;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break,
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                *in_block = true;
                i += 2;
            }
            _ => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

/// Parses one file into [`CodeLine`]s, marking `#[cfg(test)]` regions by
/// brace counting.
fn parse_file(rel: &Path, text: &str) -> SourceFile {
    let mut in_block = false;
    let mut lines: Vec<CodeLine> = text
        .lines()
        .map(|raw| {
            let code = strip_comments(raw, &mut in_block);
            CodeLine {
                raw: raw.to_string(),
                code,
                in_test: false,
            }
        })
        .collect();

    // Mark `#[cfg(test)] mod ... { ... }` regions: from the attribute line
    // to the brace that closes the module.
    let mut depth: i64 = 0;
    let mut test_close: Option<i64> = None;
    let mut pending_attr = false;
    for line in &mut lines {
        let trimmed = line.code.trim();
        if test_close.is_none() {
            if trimmed.starts_with("#[cfg(test)]") {
                pending_attr = true;
            } else if pending_attr {
                if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                    // The module body runs until depth drops back here.
                    test_close = Some(depth);
                } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
                    pending_attr = false;
                }
            }
        }
        let opens = line.code.matches('{').count() as i64;
        let closes = line.code.matches('}').count() as i64;
        if test_close.is_some() || pending_attr {
            line.in_test = true;
        }
        depth += opens - closes;
        if let Some(level) = test_close {
            if opens + closes > 0 && depth <= level {
                test_close = None;
                pending_attr = false;
            }
        }
    }

    let comps: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    let name = comps.last().cloned().unwrap_or_default();
    let parent = comps.len().checked_sub(2).map(|i| comps[i].as_str());
    let grandparent = comps.len().checked_sub(3).map(|i| comps[i].as_str());
    let is_crate_root = (name == "lib.rs" || name == "main.rs") && parent == Some("src")
        || parent == Some("bin") && grandparent == Some("src");
    SourceFile {
        rel: rel.to_path_buf(),
        lines,
        is_crate_root,
        in_shims: comps.iter().any(|c| c == "shims"),
        in_test_tree: comps
            .iter()
            .any(|c| c == "tests" || c == "benches" || c == "examples"),
    }
}

/// Returns `true` if the site at `idx` is waived for `rule` by a
/// `cole_lint: allow(<rule>)` comment on the same line or on a standalone
/// comment line directly above (a trailing waiver only covers its own
/// line).
fn waived(file: &SourceFile, idx: usize, rule: &str) -> bool {
    let marker = format!("cole_lint: allow({rule})");
    if file.lines[idx].raw.contains(&marker) {
        return true;
    }
    idx > 0 && {
        let prev = file.lines[idx - 1].raw.trim();
        prev.starts_with("//") && prev.contains(&marker)
    }
}

/// Collects every `.rs` file under `root`, skipping build output, VCS
/// metadata and the linter's own deliberately-bad fixtures.
fn collect_sources(root: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    const SKIP_DIRS: [&str; 4] = ["target", ".git", ".claude", "fixtures"];
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                out.push((rel, text));
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// The atomic orderings named on a code line, in order of appearance.
fn orderings_on_line(code: &str) -> Vec<&'static str> {
    let mut found = Vec::new();
    let mut rest = code;
    while let Some(pos) = rest.find("Ordering::") {
        let tail = &rest[pos + "Ordering::".len()..];
        for name in ATOMIC_ORDERINGS {
            if tail.starts_with(name) {
                found.push(name);
                break;
            }
        }
        rest = tail;
    }
    found
}

/// Parses `ORDERINGS.md` table rows into `path → allowed orderings`.
/// Rows look like `` | `crates/x/src/y.rs` | Relaxed, Release | why | ``.
fn parse_orderings_md(text: &str) -> BTreeMap<PathBuf, BTreeSet<&'static str>> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed.trim_matches('|').split('|').collect();
        if cells.len() < 2 {
            continue;
        }
        let path = cells[0].trim().trim_matches('`');
        if !path.ends_with(".rs") {
            continue; // header or separator row
        }
        let mut allowed = BTreeSet::new();
        for token in cells[1].split(',') {
            let token = token.trim();
            if let Some(name) = ATOMIC_ORDERINGS.iter().find(|n| **n == token) {
                allowed.insert(*name);
            }
        }
        map.insert(PathBuf::from(path), allowed);
    }
    map
}

/// One lock class declared in `LOCKS.md`.
#[derive(Debug, Clone)]
struct LockClass {
    name: String,
    rank: u32,
    /// Repo-relative path suffix whose recover sites belong to this class.
    file: String,
    /// Optional extra substring the site line must contain (for files
    /// hosting more than one class); `None` matches any line.
    pattern: Option<String>,
}

/// Parses `LOCKS.md` table rows into lock classes. Rows look like
/// `` | `shared-engine` | 10 | `crates/server/src/shared.rs` | - | why | ``.
fn parse_locks_md(text: &str) -> Vec<LockClass> {
    let mut out = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed.trim_matches('|').split('|').collect();
        if cells.len() < 4 {
            continue;
        }
        let name = cells[0].trim().trim_matches('`');
        let Ok(rank) = cells[1].trim().parse::<u32>() else {
            continue; // header or separator row
        };
        let file = cells[2].trim().trim_matches('`');
        if !file.ends_with(".rs") {
            continue;
        }
        let pattern = cells[3].trim().trim_matches('`');
        out.push(LockClass {
            name: name.to_string(),
            rank,
            file: file.to_string(),
            pattern: (pattern != "-" && !pattern.is_empty()).then(|| pattern.to_string()),
        });
    }
    out
}

/// Lints the workspace rooted at `root`, returning every finding.
///
/// # Errors
///
/// Returns an error string if the tree cannot be read.
pub fn lint_dir(root: &Path) -> Result<Vec<Finding>, String> {
    let sources = collect_sources(root)?;
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(rel, text)| parse_file(rel, text))
        .collect();
    let orderings_md = std::fs::read_to_string(root.join("ORDERINGS.md")).unwrap_or_default();
    let allowlist = parse_orderings_md(&orderings_md);
    let locks_md = std::fs::read_to_string(root.join("LOCKS.md")).ok();
    let classes = parse_locks_md(locks_md.as_deref().unwrap_or_default());

    let mut findings = Vec::new();
    let mut audited: BTreeSet<PathBuf> = BTreeSet::new();
    let mut used_classes: BTreeSet<String> = BTreeSet::new();
    let mut any_lock_sites = false;

    for file in &files {
        check_forbid_unsafe(file, &files, &mut findings);
        if file.in_shims || file.in_test_tree {
            continue;
        }
        check_seek_then_read(file, &mut findings);
        check_killpoint_adjacency(file, &mut findings);
        check_lock_unwrap(file, &mut findings);
        check_ordering_audit(file, &allowlist, &mut audited, &mut findings);
        check_lock_order(
            file,
            &classes,
            &mut used_classes,
            &mut any_lock_sites,
            &mut findings,
        );
        check_condvar_wait(file, &mut findings);
        check_panic_path(file, &mut findings);
        check_single_read_path(file, &mut findings);
    }

    check_error_taxonomy(&files, root, &mut findings);

    // Staleness: audit entries for files that are gone or ordering-free.
    for path in allowlist.keys() {
        if !audited.contains(path) {
            findings.push(Finding {
                rule: "ordering-audit",
                path: path.clone(),
                line: 0,
                message: "ORDERINGS.md lists this file but it has no atomic-ordering sites \
                          (or no longer exists); remove the stale entry"
                    .to_string(),
            });
        }
    }

    // Staleness: declared lock classes that match no site, and lock sites
    // with no declaration file at all (deleting LOCKS.md must not
    // silently disable the rule).
    for class in &classes {
        if !used_classes.contains(&class.name) {
            findings.push(Finding {
                rule: "lock-order",
                path: PathBuf::from("LOCKS.md"),
                line: 0,
                message: format!(
                    "LOCKS.md declares class `{}` but no lock site in `{}` matches it; \
                     remove the stale entry",
                    class.name, class.file
                ),
            });
        }
    }
    if any_lock_sites && locks_md.is_none() {
        findings.push(Finding {
            rule: "lock-order",
            path: PathBuf::from("LOCKS.md"),
            line: 0,
            message: "the tree has lock_recover/read_recover/write_recover sites but no \
                      LOCKS.md declaring their classes and order"
                .to_string(),
        });
    }

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

fn check_forbid_unsafe(file: &SourceFile, files: &[SourceFile], findings: &mut Vec<Finding>) {
    if !file.is_crate_root {
        return;
    }
    let has_attr = |level: &str| {
        let attr = format!("#![{level}(unsafe_code)]");
        file.lines
            .iter()
            .any(|l| l.code.replace(' ', "").contains(&attr))
    };
    if has_attr("forbid") {
        return;
    }
    if file.rel.ends_with(UNSAFE_EXCEPTION_ROOT) && has_attr("deny") {
        check_single_unsafe_site(file, files, findings);
        return;
    }
    findings.push(Finding {
        rule: "forbid-unsafe",
        path: file.rel.clone(),
        line: 0,
        message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
    });
}

/// Byte offsets of `unsafe` keyword tokens on a code line (`unsafe_code`
/// and other identifiers that merely contain the word do not count).
fn unsafe_tokens(code: &str) -> Vec<usize> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    code.match_indices("unsafe")
        .filter(|(pos, word)| {
            !code[..*pos].chars().next_back().is_some_and(is_ident)
                && !code[pos + word.len()..]
                    .chars()
                    .next()
                    .is_some_and(is_ident)
        })
        .map(|(pos, _)| pos)
        .collect()
}

/// The contiguous comment and attribute lines directly above line `idx`.
fn preamble(file: &SourceFile, idx: usize) -> impl Iterator<Item = &str> {
    file.lines[..idx]
        .iter()
        .rev()
        .map(|l| l.raw.trim())
        .take_while(|raw| raw.starts_with("//") || raw.starts_with("#["))
}

/// The `deny(unsafe_code)` exception: the crate rooted at `root` must hold
/// exactly one `unsafe` token outside tests, waived and justified.
fn check_single_unsafe_site(root: &SourceFile, files: &[SourceFile], findings: &mut Vec<Finding>) {
    let src_dir = root.rel.parent().unwrap_or(Path::new(""));
    let mut finding = |file: &SourceFile, line: usize, message: String| {
        findings.push(Finding {
            rule: "forbid-unsafe",
            path: file.rel.clone(),
            line,
            message,
        });
    };
    let sites: Vec<(&SourceFile, usize)> = files
        .iter()
        .filter(|f| f.rel.starts_with(src_dir))
        .flat_map(|f| {
            f.lines
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.in_test)
                .flat_map(move |(idx, l)| unsafe_tokens(&l.code).into_iter().map(move |_| (f, idx)))
        })
        .collect();
    if sites.is_empty() {
        finding(
            root,
            0,
            "crate root carries `#![deny(unsafe_code)]` but the crate has no `unsafe` site; \
             restore `#![forbid(unsafe_code)]`"
                .to_string(),
        );
    }
    let marker = "cole_lint: allow(forbid-unsafe)";
    for &(file, idx) in &sites {
        if sites.len() > 1 {
            finding(
                file,
                idx + 1,
                format!(
                    "the crate may hold exactly one `unsafe` token outside tests, found {}",
                    sites.len()
                ),
            );
        }
        if !file.lines[idx].raw.contains(marker) && !preamble(file, idx).any(|l| l.contains(marker))
        {
            finding(
                file,
                idx + 1,
                format!("`unsafe` site is not waived with `// {marker}`"),
            );
        }
        let comments: String = preamble(file, idx)
            .filter(|l| l.starts_with("//"))
            .collect();
        if !(comments.contains("SAFETY:") && comments.contains(UNSAFE_EXCEPTION_GUARD)) {
            finding(
                file,
                idx + 1,
                format!(
                    "`unsafe` site needs a `// SAFETY:` comment directly above that names \
                     the `{UNSAFE_EXCEPTION_GUARD}` check guarding it"
                ),
            );
        }
    }
}

fn check_seek_then_read(file: &SourceFile, findings: &mut Vec<Finding>) {
    for idx in 0..file.lines.len() {
        let line = &file.lines[idx];
        if line.in_test || !line.code.contains(".seek(") {
            continue;
        }
        if waived(file, idx, "seek-then-read") {
            continue;
        }
        let window = &file.lines[idx + 1..(idx + 1 + SEEK_READ_WINDOW).min(file.lines.len())];
        if let Some(offset) = window.iter().position(|l| {
            l.code.contains(".read(")
                || l.code.contains(".read_to_end(")
                || l.code.contains(".read_exact(")
        }) {
            findings.push(Finding {
                rule: "seek-then-read",
                path: file.rel.clone(),
                line: idx + 1,
                message: format!(
                    "`.seek(` followed by a read {} line(s) later: the cursor is shared \
                     state — use positioned I/O (`read_page`-style pread) instead",
                    offset + 1
                ),
            });
        }
    }
}

fn check_killpoint_adjacency(file: &SourceFile, findings: &mut Vec<Finding>) {
    let rel = file.rel.to_string_lossy().replace('\\', "/");
    if !WRITE_PATH_MODULES.iter().any(|m| rel.ends_with(m)) {
        return;
    }
    for idx in 0..file.lines.len() {
        let line = &file.lines[idx];
        if line.in_test {
            continue;
        }
        let is_edge = line.code.contains("sync_data()")
            || line.code.contains("sync_all()")
            || line.code.contains("fs::rename(");
        if !is_edge || waived(file, idx, "killpoint-adjacency") {
            continue;
        }
        let lo = idx.saturating_sub(KILLPOINT_WINDOW);
        let hi = (idx + KILLPOINT_WINDOW + 1).min(file.lines.len());
        let adjacent = file.lines[lo..hi]
            .iter()
            .any(|l| l.code.contains("kill(") || l.code.contains(".hit("));
        if !adjacent {
            findings.push(Finding {
                rule: "killpoint-adjacency",
                path: file.rel.clone(),
                line: idx + 1,
                message: "durability edge (fsync/rename) in a write-path module with no \
                          kill-point crossing nearby: the crash harness cannot stop here"
                    .to_string(),
            });
        }
    }
}

fn check_lock_unwrap(file: &SourceFile, findings: &mut Vec<Finding>) {
    for idx in 0..file.lines.len() {
        let line = &file.lines[idx];
        if line.in_test {
            continue;
        }
        let hit = [".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"]
            .iter()
            .find(|p| line.code.contains(**p));
        let Some(pattern) = hit else { continue };
        if waived(file, idx, "lock-unwrap") {
            continue;
        }
        findings.push(Finding {
            rule: "lock-unwrap",
            path: file.rel.clone(),
            line: idx + 1,
            message: format!(
                "bare `{pattern}` in library code: a panicked holder poisons the lock and \
                 cascades; use cole_storage's lock_recover/read_recover/write_recover"
            ),
        });
    }
}

fn check_ordering_audit(
    file: &SourceFile,
    allowlist: &BTreeMap<PathBuf, BTreeSet<&'static str>>,
    audited: &mut BTreeSet<PathBuf>,
    findings: &mut Vec<Finding>,
) {
    let allowed = allowlist.get(&file.rel);
    for idx in 0..file.lines.len() {
        let line = &file.lines[idx];
        if line.in_test {
            continue;
        }
        for name in orderings_on_line(&line.code) {
            audited.insert(file.rel.clone());
            if waived(file, idx, "ordering-audit") {
                continue;
            }
            let granted = allowed.is_some_and(|set| set.contains(name));
            if !granted {
                findings.push(Finding {
                    rule: "ordering-audit",
                    path: file.rel.clone(),
                    line: idx + 1,
                    message: format!(
                        "`Ordering::{name}` is not covered by this file's ORDERINGS.md \
                         entry; add it to the audit with a rationale"
                    ),
                });
            }
        }
    }
}

/// The lock-acquisition helpers every library lock site goes through
/// (enforced by `lock-unwrap`), which is what makes the static
/// `lock-order` scan tractable.
const RECOVER_CALLS: [&str; 3] = ["lock_recover(", "read_recover(", "write_recover("];

/// Byte offset of the `(` matching the one at `open`, if balanced on the
/// line.
fn matching_paren(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for (i, b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// A recover-helper call site on one line: column, and the binding name
/// when the statement is `let <name> = <recover_call>;` (a guard held to
/// end of scope, vs. a temporary dropped at end of statement).
fn recover_sites_on_line(code: &str) -> Vec<(usize, Option<String>)> {
    let mut sites = Vec::new();
    for pat in RECOVER_CALLS {
        let mut from = 0;
        while let Some(rel) = code[from..].find(pat) {
            let pos = from + rel;
            from = pos + pat.len();
            // Skip the helper definitions themselves (`pub fn lock_recover`).
            if code[..pos].trim_end().ends_with("fn") {
                continue;
            }
            let open = pos + pat.len() - 1;
            let bound = matching_paren(code, open).and_then(|close| {
                let after = code[close + 1..].trim_start();
                let terminal = after.is_empty() || after.starts_with(';');
                if !terminal {
                    return None; // chained (`lock_recover(x).get(..)`): temporary
                }
                let before = &code[..pos];
                let eq = before.rfind('=')?;
                if !before[eq + 1..].trim().is_empty() {
                    return None;
                }
                let decl = before[..eq].trim_end();
                let decl = decl.strip_suffix(':').map_or(decl, |d| {
                    d.trim_end_matches(|c: char| c.is_alphanumeric() || c == '_' || c == ' ')
                });
                let name = decl
                    .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .next()?;
                decl.contains("let ").then(|| name.to_string())
            });
            sites.push((pos, bound));
        }
    }
    sites.sort_by_key(|s| s.0);
    sites
}

/// The declared classes matching a site in `rel` whose line is `code`.
fn classify_site<'a>(classes: &'a [LockClass], rel: &str, code: &str) -> Vec<&'a LockClass> {
    classes
        .iter()
        .filter(|c| {
            rel.ends_with(&c.file) && c.pattern.as_ref().is_none_or(|p| code.contains(p.as_str()))
        })
        .collect()
}

fn check_lock_order(
    file: &SourceFile,
    classes: &[LockClass],
    used_classes: &mut BTreeSet<String>,
    any_lock_sites: &mut bool,
    findings: &mut Vec<Finding>,
) {
    struct Live<'a> {
        class: &'a LockClass,
        depth: i64,
        name: Option<String>,
        line: usize,
    }
    let rel = file.rel.to_string_lossy().replace('\\', "/");
    let mut live: Vec<Live<'_>> = Vec::new();
    let mut depth = 0i64;
    for idx in 0..file.lines.len() {
        let line = &file.lines[idx];
        let depth_end =
            depth + line.code.matches('{').count() as i64 - line.code.matches('}').count() as i64;
        if !line.in_test {
            // Explicit early releases: `drop(guard_name)`.
            if line.code.contains("drop(") {
                live.retain(|g| {
                    g.name
                        .as_ref()
                        .is_none_or(|n| !line.code.contains(&format!("drop({n})")))
                });
            }
            let sites = recover_sites_on_line(&line.code);
            let mut this_line: Vec<Live<'_>> = Vec::new();
            for (_, bound) in sites {
                *any_lock_sites = true;
                let matched = classify_site(classes, &rel, &line.code);
                let class = match matched.as_slice() {
                    [] => {
                        if !waived(file, idx, "lock-order") {
                            findings.push(Finding {
                                rule: "lock-order",
                                path: file.rel.clone(),
                                line: idx + 1,
                                message: "lock site matches no class declared in LOCKS.md; \
                                          declare its class and rank"
                                    .to_string(),
                            });
                        }
                        continue;
                    }
                    [one] => *one,
                    more => {
                        if !waived(file, idx, "lock-order") {
                            findings.push(Finding {
                                rule: "lock-order",
                                path: file.rel.clone(),
                                line: idx + 1,
                                message: format!(
                                    "lock site matches {} LOCKS.md classes; tighten the \
                                     patterns so exactly one applies",
                                    more.len()
                                ),
                            });
                        }
                        more[0]
                    }
                };
                used_classes.insert(class.name.clone());
                for held in live.iter().chain(this_line.iter()) {
                    let verdict = if held.class.name == class.name {
                        Some("same-class nesting")
                    } else if held.class.rank >= class.rank {
                        Some("rank inversion")
                    } else {
                        None
                    };
                    if let Some(kind) = verdict {
                        if !waived(file, idx, "lock-order") {
                            findings.push(Finding {
                                rule: "lock-order",
                                path: file.rel.clone(),
                                line: idx + 1,
                                message: format!(
                                    "{kind}: acquiring `{}` (rank {}) while `{}` (rank {}, \
                                     acquired line {}) is still held — LOCKS.md requires \
                                     strictly increasing rank",
                                    class.name,
                                    class.rank,
                                    held.class.name,
                                    held.class.rank,
                                    held.line
                                ),
                            });
                        }
                    }
                }
                this_line.push(Live {
                    class,
                    depth: depth_end,
                    name: bound.clone(),
                    line: idx + 1,
                });
            }
            // Bound guards outlive the line; temporaries die with it.
            live.extend(this_line.into_iter().filter(|g| g.name.is_some()));
        }
        depth = depth_end;
        live.retain(|g| g.depth <= depth);
    }
}

fn check_condvar_wait(file: &SourceFile, findings: &mut Vec<Finding>) {
    // Cheap gate: the rule is about condition variables; `.wait(` on
    // other types (e.g. `Child::wait()`) lives in condvar-free files.
    if !file.lines.iter().any(|l| l.code.contains("Condvar")) {
        return;
    }
    let mut depth = 0i64;
    let mut loops: Vec<i64> = Vec::new();
    for idx in 0..file.lines.len() {
        let line = &file.lines[idx];
        let code = &line.code;
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        let depth_end = depth + opens - closes;
        // `impl Trait for Type {` also contains `for ` — only a real
        // `for`-loop header (no `impl` on the line) opens a loop frame.
        let is_loop_header = code.contains("while ")
            || code.contains("loop {")
            || (code.contains("for ") && !code.contains("impl "));
        if is_loop_header && opens > closes {
            loops.push(depth_end);
        }
        if !line.in_test
            && (code.contains(".wait(") || code.contains(".wait_timeout("))
            && loops.is_empty()
            && !waived(file, idx, "condvar-wait-loop")
        {
            findings.push(Finding {
                rule: "condvar-wait-loop",
                path: file.rel.clone(),
                line: idx + 1,
                message: "condvar wait outside a `while`/`loop` frame: waits wake \
                          spuriously, so the predicate must be re-checked in a loop"
                    .to_string(),
            });
        }
        depth = depth_end;
        while loops.last().is_some_and(|d| depth < *d) {
            loops.pop();
        }
    }
}

/// Function bodies of `file` as `(name, decl_line, body_range)`.
fn function_bodies(file: &SourceFile) -> Vec<(String, usize, std::ops::Range<usize>)> {
    let mut decls: Vec<(String, usize, i64)> = Vec::new();
    let mut depth = 0i64;
    let mut depths = Vec::with_capacity(file.lines.len());
    for line in &file.lines {
        depths.push(depth);
        depth += line.code.matches('{').count() as i64 - line.code.matches('}').count() as i64;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        let Some(pos) = line.code.find("fn ") else {
            continue;
        };
        if pos > 0 && line.code[..pos].ends_with(|c: char| c.is_alphanumeric() || c == '_') {
            continue;
        }
        let name: String = line.code[pos + 3..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            decls.push((name, idx, depths[idx]));
        }
    }
    let mut out = Vec::new();
    for (name, idx, decl_depth) in decls {
        let mut d = decl_depth;
        let mut opened = false;
        for j in idx..file.lines.len() {
            let line = &file.lines[j];
            d += line.code.matches('{').count() as i64 - line.code.matches('}').count() as i64;
            if d > decl_depth {
                opened = true;
            }
            if !opened && line.code.contains(';') {
                break; // bodyless signature (trait method)
            }
            if opened && d <= decl_depth {
                out.push((name, idx, idx..j + 1));
                break;
            }
        }
    }
    out
}

/// Columns of direct-indexing brackets on a code line (a `[` preceded by
/// an identifier, `)`, or `]` — i.e. `expr[...]`, not array literals,
/// attributes, or slice patterns).
fn index_sites(code: &str) -> Vec<usize> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, b) in bytes.iter().enumerate() {
        if *b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']' {
            out.push(i);
        }
    }
    out
}

fn check_panic_path(file: &SourceFile, findings: &mut Vec<Finding>) {
    let rel = file.rel.to_string_lossy().replace('\\', "/");
    if !rel.contains("crates/protocol/src") {
        return;
    }
    let bodies = function_bodies(file);
    // Intra-file reachability from `decode*` roots: conservative — a
    // token `name(` anywhere in a reachable body marks local fn `name`
    // reachable too. Cross-file callees are out of scope (the type
    // system already forces them to return `Result` into these parsers).
    let mut reachable: BTreeSet<&str> = bodies
        .iter()
        .filter(|(name, _, _)| name.starts_with("decode"))
        .map(|(name, _, _)| name.as_str())
        .collect();
    loop {
        let mut grew = false;
        for (name, _, _range) in &bodies {
            if reachable.contains(name.as_str()) {
                continue;
            }
            let called = bodies.iter().any(|(caller, _, caller_range)| {
                reachable.contains(caller.as_str())
                    && file.lines[caller_range.clone()].iter().any(|l| {
                        !l.in_test
                            && l.code.match_indices(&format!("{name}(")).any(|(p, _)| {
                                p == 0
                                    || !l.code[..p]
                                        .ends_with(|c: char| c.is_alphanumeric() || c == '_')
                            })
                    })
            });
            if called {
                reachable.insert(name);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for (name, _, range) in &bodies {
        if !reachable.contains(name.as_str()) {
            continue;
        }
        for idx in range.clone() {
            let line = &file.lines[idx];
            if line.in_test || flagged.contains(&idx) {
                continue;
            }
            let mut problems: Vec<&str> = Vec::new();
            if line.code.contains(".unwrap()") {
                problems.push("`.unwrap()`");
            }
            if line.code.contains(".expect(") {
                problems.push("`.expect(`");
            }
            if !index_sites(&line.code).is_empty() {
                problems.push("direct indexing");
            }
            if [" + ", " - ", " * ", " / ", " % "]
                .iter()
                .any(|op| line.code.contains(*op))
            {
                problems.push("unchecked arithmetic");
            }
            if problems.is_empty() || waived(file, idx, "panic-path") {
                continue;
            }
            flagged.insert(idx);
            findings.push(Finding {
                rule: "panic-path",
                path: file.rel.clone(),
                line: idx + 1,
                message: format!(
                    "{} reachable from `decode*` (via `{name}`): wire bytes are untrusted, \
                     so parsers must return `InvalidEncoding`, never panic",
                    problems.join(" and ")
                ),
            });
        }
    }
}

/// `error-taxonomy`: every variant of the wire `ErrorCode` enum must have
/// a row in the ERRORS.md wire-code table (`` | `Name` | tag | ... ``),
/// the row's tag must match the `tag()` mapping in source, and stale rows
/// naming no variant fail like stale ORDERINGS.md entries. A new error
/// code cannot ship undocumented — clients decide retry behavior from the
/// taxonomy.
/// Whether the `ComponentProof::<Variant>` mention ending at byte `end` of
/// line `idx` is a pattern (a `match` arm, `let`, `if let`, `matches!`)
/// and not an expression that builds the variant: skips the variant's
/// `{ .. }` body, across lines if need be, and looks at what follows it.
fn is_pattern_position(file: &SourceFile, idx: usize, end: usize) -> bool {
    let line = &file.lines[idx].code;
    if line[..end].contains("matches!(") {
        return true;
    }
    let mut depth = 0usize;
    let tail =
        std::iter::once(&line[end..]).chain(file.lines[idx + 1..].iter().map(|l| l.code.as_str()));
    for text in tail {
        for (pos, c) in text.char_indices() {
            match c {
                '{' => depth += 1,
                '}' if depth > 0 => depth -= 1,
                c if c.is_whitespace() => {}
                _ if depth == 0 => {
                    let rest = &text[pos..];
                    return rest.starts_with("=>")
                        || rest.starts_with('|')
                        || rest.starts_with("if ")
                        || (rest.starts_with('=') && !rest.starts_with("=="));
                }
                _ => {}
            }
        }
    }
    false
}

fn check_single_read_path(file: &SourceFile, findings: &mut Vec<Finding>) {
    let rel = file.rel.to_string_lossy().replace('\\', "/");
    let Some(pos) = rel.find(READ_PATH_SCOPE) else {
        return;
    };
    let module = &rel[pos + READ_PATH_SCOPE.len()..];
    if READ_PATH_OWNERS.contains(&module) {
        return;
    }
    for idx in 0..file.lines.len() {
        let line = &file.lines[idx];
        if line.in_test {
            continue;
        }
        let mut from = 0usize;
        while let Some(found) = line.code[from..].find("ComponentProof::") {
            let start = from + found + "ComponentProof::".len();
            from = start;
            let Some(variant) = COMPONENT_VARIANTS
                .iter()
                .find(|v| line.code[start..].starts_with(**v))
            else {
                continue;
            };
            if is_pattern_position(file, idx, start + variant.len())
                || waived(file, idx, "single-read-path")
            {
                continue;
            }
            findings.push(Finding {
                rule: "single-read-path",
                path: file.rel.clone(),
                line: idx + 1,
                message: format!(
                    "`ComponentProof::{variant}` is constructed outside crates/core/src/read.rs: \
                     Algorithm 8 (and the component order `Hstate` commits to) has one \
                     implementation; extend `ReadView` there"
                ),
            });
        }
    }
}

fn check_error_taxonomy(files: &[SourceFile], root: &Path, findings: &mut Vec<Finding>) {
    // Locate the declaration: the one non-shim, non-test file declaring
    // `pub enum ErrorCode`.
    let mut declared: Option<(&SourceFile, Vec<(String, usize)>)> = None;
    for file in files {
        if file.in_shims || file.in_test_tree {
            continue;
        }
        let Some(open) = file
            .lines
            .iter()
            .position(|l| !l.in_test && l.code.contains("pub enum ErrorCode"))
        else {
            continue;
        };
        let mut variants = Vec::new();
        for (idx, line) in file.lines.iter().enumerate().skip(open + 1) {
            let code = line.code.trim();
            if code.starts_with('}') {
                break;
            }
            let name = code.trim_end_matches(',');
            if !name.is_empty()
                && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && name.chars().all(char::is_alphanumeric)
            {
                variants.push((name.to_string(), idx + 1));
            }
        }
        declared = Some((file, variants));
        break;
    }
    let Some((decl_file, variants)) = declared else {
        return;
    };

    // The `ErrorCode::Name => N` arms of `tag()` give the declared tags.
    let mut tags: BTreeMap<String, u64> = BTreeMap::new();
    for line in &decl_file.lines {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if let Some(pos) = code.find("ErrorCode::") {
            let rest = &code[pos + "ErrorCode::".len()..];
            let name: String = rest.chars().take_while(|c| c.is_alphanumeric()).collect();
            if let Some(arrow) = rest.find("=>") {
                let value: String = rest[arrow + 2..]
                    .trim_start()
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                if let Ok(tag) = value.parse::<u64>() {
                    tags.entry(name).or_insert(tag);
                }
            }
        }
    }

    let errors_path = root.join("ERRORS.md");
    let Ok(taxonomy) = std::fs::read_to_string(&errors_path) else {
        findings.push(Finding {
            rule: "error-taxonomy",
            path: PathBuf::from("ERRORS.md"),
            line: 0,
            message: format!(
                "`{}` declares the wire ErrorCode enum but ERRORS.md does not exist; \
                 the error taxonomy must be documented",
                decl_file.rel.display()
            ),
        });
        return;
    };

    // Table rows of the form `| `Name` | <tag> | ... |`.
    let mut rows: Vec<(String, u64, usize)> = Vec::new();
    for (idx, line) in taxonomy.lines().enumerate() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 2 || cells[0].len() < 3 {
            continue;
        }
        let first = cells[0];
        if first.starts_with('`') && first.ends_with('`') {
            let name = &first[1..first.len() - 1];
            if name.chars().all(char::is_alphanumeric) {
                if let Ok(tag) = cells[1].parse::<u64>() {
                    rows.push((name.to_string(), tag, idx + 1));
                }
            }
        }
    }

    for (name, line) in &variants {
        match rows.iter().find(|(row_name, _, _)| row_name == name) {
            None => findings.push(Finding {
                rule: "error-taxonomy",
                path: decl_file.rel.clone(),
                line: *line,
                message: format!(
                    "`ErrorCode::{name}` has no row in the ERRORS.md wire-code table; \
                     document its class and retryability before shipping it"
                ),
            }),
            Some((_, row_tag, row_line)) => {
                if let Some(code_tag) = tags.get(name) {
                    if code_tag != row_tag {
                        findings.push(Finding {
                            rule: "error-taxonomy",
                            path: PathBuf::from("ERRORS.md"),
                            line: *row_line,
                            message: format!(
                                "ERRORS.md lists `{name}` with wire tag {row_tag}, but the \
                                 source maps it to {code_tag}; the table is out of date"
                            ),
                        });
                    }
                }
            }
        }
    }
    for (name, _, row_line) in &rows {
        if !variants.iter().any(|(v, _)| v == name) {
            findings.push(Finding {
                rule: "error-taxonomy",
                path: PathBuf::from("ERRORS.md"),
                line: *row_line,
                message: format!(
                    "ERRORS.md documents wire code `{name}` but the ErrorCode enum has no \
                     such variant; remove the stale row"
                ),
            });
        }
    }
}

/// Renders findings as a JSON array — the `--json` machine-readable
/// output consumed by CI annotation tooling.
#[must_use]
pub fn to_json(findings: &[Finding]) -> String {
    fn esc(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
    }
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"rule\":\"");
        esc(f.rule, &mut out);
        out.push_str("\",\"path\":\"");
        esc(&f.path.to_string_lossy().replace('\\', "/"), &mut out);
        out.push_str(&format!("\",\"line\":{},\"message\":\"", f.line));
        esc(&f.message, &mut out);
        out.push_str("\"}");
    }
    out.push_str(if findings.is_empty() { "]" } else { "\n]" });
    out
}

/// Scans `root` and renders the observed per-file ordering usage in
/// `ORDERINGS.md` row format — the starting point for (re)writing the
/// audit after a refactor.
///
/// # Errors
///
/// Returns an error string if the tree cannot be read.
pub fn dump_orderings(root: &Path) -> Result<String, String> {
    let sources = collect_sources(root)?;
    let mut per_file: BTreeMap<PathBuf, BTreeSet<&'static str>> = BTreeMap::new();
    for (rel, text) in &sources {
        let file = parse_file(rel, text);
        if file.in_shims || file.in_test_tree {
            continue;
        }
        for line in &file.lines {
            if line.in_test {
                continue;
            }
            for name in orderings_on_line(&line.code) {
                per_file.entry(file.rel.clone()).or_default().insert(name);
            }
        }
    }
    let mut out = String::from("| File | Orderings | Rationale |\n|---|---|---|\n");
    for (path, set) in per_file {
        let names: Vec<&str> = set.into_iter().collect();
        out.push_str(&format!(
            "| `{}` | {} | TODO |\n",
            path.display(),
            names.join(", ")
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comment_stripping_is_string_aware() {
        let mut in_block = false;
        assert_eq!(
            strip_comments("let x = \"https://a//b\"; // tail", &mut in_block),
            "let x = \"            \"; ",
            "string interiors are blanked, `//` inside a string is not a comment"
        );
        assert_eq!(strip_comments("a /* b", &mut in_block), "a ");
        assert!(in_block);
        assert_eq!(strip_comments("still */ c", &mut in_block), " c");
        assert!(!in_block);
    }

    #[test]
    fn unsafe_tokens_are_keywords_not_substrings() {
        assert_eq!(unsafe_tokens("unsafe { f() }"), vec![0]);
        assert_eq!(unsafe_tokens("let x = unsafe { f() };"), vec![8]);
        assert_eq!(unsafe_tokens("pub unsafe fn f() {}"), vec![4]);
        assert!(unsafe_tokens("#![deny(unsafe_code)]").is_empty());
        assert!(unsafe_tokens("#[allow(unsafe_code)]").is_empty());
        assert!(unsafe_tokens("let not_unsafe = 1;").is_empty());
    }

    #[test]
    fn ordering_tokens_ignore_cmp_variants() {
        assert_eq!(
            orderings_on_line("x.load(Ordering::Acquire) == Ordering::Equal"),
            vec!["Acquire"]
        );
        assert_eq!(
            orderings_on_line("store(1, Ordering::SeqCst); load(Ordering::Relaxed)"),
            vec!["SeqCst", "Relaxed"]
        );
    }

    #[test]
    fn orderings_md_rows_parse() {
        let md = "# audit\n\n| File | Orderings | Rationale |\n|---|---|---|\n\
                  | `crates/a/src/b.rs` | Relaxed, Release | counters |\n";
        let map = parse_orderings_md(md);
        let allowed = map.get(Path::new("crates/a/src/b.rs")).unwrap();
        assert!(allowed.contains("Relaxed") && allowed.contains("Release"));
        assert!(!allowed.contains("SeqCst"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let text = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { a.lock().unwrap(); }\n}\nfn lib2() {}\n";
        let file = parse_file(Path::new("crates/x/src/l.rs"), text);
        assert!(!file.lines[0].in_test);
        assert!(file.lines[1].in_test, "attribute line");
        assert!(file.lines[3].in_test, "module body");
        assert!(!file.lines[5].in_test, "after the module closes");
    }

    #[test]
    fn waiver_comment_suppresses_on_same_or_previous_line() {
        let text = "// cole_lint: allow(lock-unwrap)\nlet g = m.lock().unwrap();\n\
                    let h = m.lock().unwrap(); // cole_lint: allow(lock-unwrap)\n\
                    let bad = m.lock().unwrap();\n";
        let file = parse_file(Path::new("crates/x/src/l.rs"), text);
        let mut findings = Vec::new();
        check_lock_unwrap(&file, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn locks_md_rows_parse() {
        let md = "# locks\n\n| Class | Rank | File | Site pattern | Rationale |\n\
                  |---|---|---|---|---|\n\
                  | `outer` | 10 | `crates/a/src/b.rs` | - | why |\n\
                  | `inner` | 20 | `crates/a/src/b.rs` | `.inner` | why |\n";
        let classes = parse_locks_md(md);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].name, "outer");
        assert_eq!(classes[0].rank, 10);
        assert_eq!(classes[0].file, "crates/a/src/b.rs");
        assert_eq!(classes[0].pattern, None);
        assert_eq!(classes[1].pattern.as_deref(), Some(".inner"));
    }

    #[test]
    fn recover_site_binding_detection() {
        let sites = recover_sites_on_line("let guard = lock_recover(&self.outer);");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].1.as_deref(), Some("guard"));
        // A chained call is a statement temporary, not a held guard.
        let sites = recover_sites_on_line("let n = lock_recover(&self.m).len();");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].1, None);
        // A bare statement holds nothing past the line either.
        let sites = recover_sites_on_line("*lock_recover(&self.m) = None;");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].1, None);
    }

    #[test]
    fn findings_render_as_json() {
        let findings = vec![Finding {
            rule: "lock-order",
            path: PathBuf::from("crates/a/src/b.rs"),
            line: 7,
            message: "quote \" and backslash \\".to_string(),
        }];
        let json = to_json(&findings);
        assert_eq!(
            json,
            "[\n  {\"rule\":\"lock-order\",\"path\":\"crates/a/src/b.rs\",\"line\":7,\
             \"message\":\"quote \\\" and backslash \\\\\"}\n]"
        );
        assert_eq!(to_json(&[]), "[]");
    }
}
