//! Project-invariant lints neither the compiler nor clippy can express
//! (DESIGN.md §8, §12). What clippy can check from resolved types — hash
//! iteration, `std`'s default hasher, wall-clock reads, threads and locks
//! outside the parallel driver, undocumented `unsafe` — is the workspace's
//! `clippy.toml` and `[workspace.lints]`; this pass holds the rest.
//!
//! Run as `cargo run -p lint-pass`. Exit status is nonzero when any rule
//! fires, so CI can gate on it. The pass is a hand-rolled analysis (the
//! build environment is offline, so no `syn`): sources are sanitized —
//! comments and string/char literal *contents* blanked, line structure
//! preserved — and then scanned with brace tracking for function spans.
//!
//! Two layers of analysis:
//!
//! * **Lexical rules** (this module) look at one function or one line at a
//!   time.
//! * **Graph rules** ([`graph`]) parse every `fn`/`impl` in the workspace
//!   into a call graph resolved by a conservative name+receiver heuristic
//!   and check *transitive* properties — worker purity and recovery
//!   panic-freedom — reporting witness call-chains.
//!
//! Lexical rules:
//!
//! * **hot-path-copy** — no `.to_vec()` / `.to_owned()` /
//!   `copy_from_slice(` / `Bytes::from(vec!` inside per-message
//!   functions (name has a `_`-segment equal to `send`, `deliver`,
//!   `recv`, `post`, `progress`, `drain` or `flush`, and the segment is
//!   not a counter compound like `send_count`) of the simulation crates.
//!   Payloads travel as refcounted `Bytes`; a host-side copy per message
//!   is exactly the cost the zero-copy fast path removed. In
//!   `crates/core` the rule covers only `flush`/`drain` functions — the
//!   AM aggregation engine's batch hot path, whose buffer recycling a
//!   copy would silently defeat. Deliberate copies carry a
//!   `// copy-ok: <why>` comment on the same line.
//! * **hand-rolled-paged-table** — no `Option<Box<[` page table in any
//!   scanned crate outside `sim-core/src/lazy.rs`. Paged first-touch
//!   storage is one mechanism, `sim_core::LazyVec`, built from a per-index
//!   constructor; a hand-rolled copy beside it is a second grain, layout
//!   and first-touch cost to keep in step. No escape.
//! * **stale-escape** — an escape marker (`copy-ok:`, `worker-ok:`,
//!   `panic-ok:`) in a `//` comment that suppresses no finding of its
//!   rule: the code it excused has changed, and the marker would silently
//!   excuse whatever lands there next. Found by linting once more with
//!   every marker disarmed. Any other `<word>-ok:` marker names no live
//!   rule (a retired rule's escape) and is flagged too. A marker quoted in
//!   inline code or inside a string literal documents the escape instead
//!   of using it, and does not count.
//!
//! `#[cfg(test)]` regions are exempt from all rules. The exemption is
//! brace-accurate: it covers exactly the item (module, fn, impl) the
//! attribute is attached to, not "everything to the end of the file".

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod graph;

/// Directory names (under `crates/`) of the deterministic simulation
/// crates: everything that executes during a simulated run.
pub(crate) const SIM_CRATES: &[&str] = &[
    "sim-core",
    "gemini-net",
    "ugni",
    "lrts-ugni",
    "lrts-mpi",
    "mpi-sim",
];

/// Function-name fragments that mark fault-recovery code paths. Matched
/// against `_`-separated name segments (`repost_after_error` matches
/// `repost`; `sender_loop` does not match `send`).
pub(crate) const RECOVERY_KEYWORDS: &[&str] = &[
    "retry",
    "resync",
    "repost",
    "recover",
    "recovery",
    "fallback",
    "reap",
    "restore",
    "checkpoint",
];

/// Function-name fragments that mark per-message hot paths: code that
/// runs once per simulated message and must not copy payload bytes.
pub(crate) const HOT_PATH_KEYWORDS: &[&str] = &[
    "send", "deliver", "recv", "post", "progress", "drain", "flush",
];

/// The subset of hot-path verbs checked in `crates/core`: the AM
/// aggregation engine's flush/drain functions run once per *batch* on the
/// critical path, and their whole point is recycling buffers instead of
/// allocating — a payload copy there silently undoes the optimization.
/// The rest of `core` (registration, config, reporting) is setup code
/// where copies are fine, so the full sim-crate keyword list stays off.
pub(crate) const CORE_HOT_PATH_KEYWORDS: &[&str] = &["flush", "drain"];

/// Segments that turn a matched keyword into a *counter/reporting* name
/// rather than a hot-path verb: `send_count`, `recv_stats` and friends
/// read accounting, they do not move a message.
const COUNTER_SEGMENTS: &[&str] = &[
    "count", "counts", "counter", "stat", "stats", "total", "totals", "rate", "len",
];

/// Payload-copying constructs banned in hot paths (see `hot-path-copy`).
const COPY_PATTERNS: &[&str] = &[
    ".to_vec()",
    ".to_owned()",
    "copy_from_slice(",
    "Bytes::from(vec!",
];

/// Marker comment that exempts one line from `hot-path-copy`.
pub(crate) const COPY_OK_MARKER: &str = "copy-ok:";

/// Marker comment that exempts one line from the graph pass's
/// `recovery-panic-freedom`.
pub(crate) const PANIC_OK_MARKER: &str = "panic-ok:";

/// Every escape marker with the rule it silences (see `stale-escape`).
const ESCAPES: &[(&str, &str)] = &[
    (COPY_OK_MARKER, "hot-path-copy"),
    (graph::WORKER_OK_MARKER, "worker-purity"),
    (PANIC_OK_MARKER, "recovery-panic-freedom"),
];

/// Threading/synchronization constructs `worker-purity` rejects in
/// worker-reachable code outside the parallel driver. The
/// `bool` is `true` when the pattern is a complete identifier that must
/// match on both boundaries (`Barrier` must not fire inside
/// `SpinBarrier` or `BarrierStats`); prefix patterns (`Atomic` covering
/// `AtomicU64`/`AtomicBool`/..., the `std::thread` paths) only require a
/// left identifier boundary.
pub(crate) const THREAD_PATTERNS: &[(&str, bool)] = &[
    ("std::thread", false),
    ("thread::spawn", false),
    ("Mutex", true),
    ("RwLock", true),
    ("Condvar", true),
    ("Barrier", true),
    ("mpsc", true),
    ("Atomic", false),
    // Busy-wait primitives: hand-rolled spinning belongs in the adaptive
    // barrier (sync.rs), nowhere else — an unbounded spin loop is exactly
    // the oversubscription pathology the barrier exists to prevent.
    ("spin_loop", true),
    ("yield_now", true),
];

/// The one file that may hold a hand-rolled page table (see
/// `hand-rolled-paged-table`).
const LAZY_FILE: &str = "sim-core/src/lazy.rs";

/// The files where threads, locks, atomics, and spin loops are
/// legitimate: the conservative parallel driver and its sync layer (the
/// adaptive barrier + persistent worker pool). `worker-purity` does not
/// look for thread primitives inside them.
pub(crate) const PARALLEL_DRIVER_FILES: &[&str] =
    &["sim-core/src/parallel.rs", "sim-core/src/sync.rs"];

/// Whether `path` is one of the sanctioned concurrency files
/// ([`PARALLEL_DRIVER_FILES`]).
pub(crate) fn is_parallel_driver_file(path: &str) -> bool {
    let p = path.replace('\\', "/");
    PARALLEL_DRIVER_FILES.iter().any(|f| p.ends_with(f))
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub(crate) file: String,
    /// 1-based line number.
    pub line: usize,
    pub msg: String,
    /// Witness call chain for graph rules (root first), empty for lexical
    /// rules. Each entry is a pre-rendered `name (file:line)` hop.
    pub chain: Vec<String>,
}

impl Finding {
    pub(crate) fn new(rule: &'static str, file: &str, line: usize, msg: String) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            msg,
            chain: Vec::new(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )?;
        for (i, hop) in self.chain.iter().enumerate() {
            write!(f, "\n    {}{}", if i == 0 { "via " } else { " -> " }, hop)?;
        }
        Ok(())
    }
}

/// Serialize findings as a machine-readable JSON report (CI artifact).
/// Hand-rolled — the build environment is offline, so no serde here.
pub fn report_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut o = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => o.push_str("\\\""),
                '\\' => o.push_str("\\\\"),
                '\n' => o.push_str("\\n"),
                '\t' => o.push_str("\\t"),
                c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
                c => o.push(c),
            }
        }
        o
    }
    let mut out = String::from("{\n  \"schema\": 1,\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"msg\": \"{}\", \"chain\": [{}]}}{}\n",
            esc(f.rule),
            esc(&f.file),
            f.line,
            esc(&f.msg),
            f.chain
                .iter()
                .map(|h| format!("\"{}\"", esc(h)))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!("  ],\n  \"count\": {}\n}}\n", findings.len()));
    out
}

/// Blank comments and string/char literal contents, preserving line
/// structure, so later passes can match tokens and count braces without
/// being fooled by `"}"` or `// HashMap.iter()`.
pub(crate) fn sanitize(src: &str) -> String {
    scan(src).0
}

/// [`sanitize`]'s output plus every `//` comment's text with its 0-based
/// line.
fn scan(src: &str) -> (String, Vec<(usize, String)>) {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut comments = Vec::new();
    // Lines of `out` counted so far, up to byte `counted`.
    let (mut line, mut counted) = (0, 0);
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                line += out[counted..].matches('\n').count();
                counted = out.len();
                comments.push((line, b[start..i].iter().collect()));
            }
            '/' if i + 1 < b.len() && b[i + 1] == '*' => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            out.push('\n');
                        }
                        i += 1;
                    }
                }
            }
            '"' => {
                out.push('"');
                i += 1;
                while i < b.len() && b[i] != '"' {
                    if b[i] == '\\' {
                        i += 1;
                    }
                    if i < b.len() {
                        if b[i] == '\n' {
                            out.push('\n');
                        }
                        i += 1;
                    }
                }
                if i < b.len() {
                    out.push('"');
                    i += 1;
                }
            }
            'r' if i + 1 < b.len() && (b[i + 1] == '"' || b[i + 1] == '#') => {
                // Raw string: r"..." or r#"..."# (any hash count).
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == '"' {
                    j += 1;
                    'raw: while j < b.len() {
                        if b[j] == '"' {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while k < b.len() && b[k] == '#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break 'raw;
                            }
                        }
                        if b[j] == '\n' {
                            out.push('\n');
                        }
                        j += 1;
                    }
                    out.push('"');
                    out.push('"');
                    i = j;
                } else {
                    out.push('r');
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs lifetime. A char literal closes within
                // a couple of chars; a lifetime never closes.
                if i + 2 < b.len() && b[i + 1] == '\\' {
                    let mut j = i + 2;
                    while j < b.len() && b[j] != '\'' && j - i < 12 {
                        j += 1;
                    }
                    out.push_str("' '");
                    i = if j < b.len() { j + 1 } else { j };
                } else if i + 2 < b.len() && b[i + 2] == '\'' {
                    out.push_str("' '");
                    i += 3;
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    (out, comments)
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does snake_case `name` contain `kw` as a complete `_`-separated
/// segment? Substrings never match (`sender` vs `send`, `resend` vs
/// `send`), and a keyword segment directly followed by a counter noun
/// (`send_count`) is treated as accounting, not a hot-path verb.
pub(crate) fn name_has_keyword(name: &str, kw: &str) -> bool {
    let segs: Vec<&str> = name.split('_').collect();
    segs.iter().enumerate().any(|(i, s)| {
        *s == kw
            && segs
                .get(i + 1)
                .is_none_or(|next| !COUNTER_SEGMENTS.contains(next))
    })
}

/// Does `line` contain `pat` starting at an identifier boundary (and, for
/// whole-word patterns, ending at one: `Mutex` does not occur in
/// `MutexStats`)?
pub(crate) fn boundary_match(line: &str, pat: &str, whole_word: bool) -> bool {
    line.match_indices(pat).any(|(at, _)| {
        let left_ok = !line[..at].chars().next_back().is_some_and(is_ident_char);
        let right = line[at + pat.len()..].chars().next();
        left_ok && (!whole_word || !right.is_some_and(is_ident_char))
    })
}

/// Function spans `(name, first_line_idx, last_line_idx)` in sanitized
/// lines, found by brace counting from each `fn` keyword.
fn fn_spans(lines: &[&str]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if let Some(pos) = find_fn_kw(line) {
            let after = &line[pos + 3..];
            let name: String = after
                .trim_start()
                .chars()
                .take_while(|&c| is_ident_char(c))
                .collect();
            if !name.is_empty() {
                // Find the opening brace, then its close.
                let mut depth = 0i32;
                let mut opened = false;
                let mut j = i;
                'span: while j < lines.len() {
                    let scan = if j == i { &lines[j][pos..] } else { lines[j] };
                    for c in scan.chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            // `fn f();` in a trait: no body.
                            ';' if !opened => break 'span,
                            _ => {}
                        }
                    }
                    if opened && depth <= 0 {
                        break;
                    }
                    j += 1;
                }
                if opened {
                    spans.push((name, i, j.min(lines.len() - 1)));
                }
            }
        }
        i += 1;
    }
    spans
}

pub(crate) fn find_fn_kw(line: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = line[from..].find("fn ") {
        let at = from + pos;
        from = at + 3;
        let pre_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap());
        if pre_ok {
            return Some(at);
        }
    }
    None
}

/// Brace-accurate `#[cfg(test)]` regions: each attribute exempts exactly
/// the item it is attached to (through the matching close brace, or the
/// terminating `;` for brace-less items), not everything to the end of
/// the file. Returns inclusive `(start, end)` line-index ranges.
pub(crate) fn test_ranges(lines: &[&str]) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(attr) = line.find("#[cfg(test)]") else {
            continue;
        };
        if ranges.iter().any(|&(a, b)| i >= a && i <= b) {
            continue; // nested attribute inside an exempt item
        }
        // Walk forward from just past the attribute to the item body.
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = i;
        let mut col = attr + "#[cfg(test)]".len();
        'outer: while j < lines.len() {
            let scan = &lines[j][col.min(lines[j].len())..];
            for c in scan.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth <= 0 {
                            break 'outer;
                        }
                    }
                    ';' if !opened => break 'outer, // `#[cfg(test)] use ...;`
                    _ => {}
                }
            }
            j += 1;
            col = 0;
        }
        ranges.push((i, j.min(lines.len() - 1)));
    }
    ranges
}

fn in_ranges(ranges: &[(usize, usize)], idx: usize) -> bool {
    ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
}

/// Does the raw source line carry this escape marker (inside a comment)?
fn escaped(raw_lines: &[&str], idx: usize, marker: &str) -> bool {
    raw_lines.get(idx).is_some_and(|r| r.contains(marker))
}

/// Lint one source file. `crate_dir` is the directory name under
/// `crates/` (e.g. `sim-core`, `core`) or a self-host name (`lint`,
/// `ugni-verify`); `file` is the path used in findings.
pub fn lint_source(crate_dir: &str, file: &str, src: &str) -> Vec<Finding> {
    let clean = sanitize(src);
    let lines: Vec<&str> = clean.lines().collect();
    let raw_lines: Vec<&str> = src.lines().collect();
    let tests = test_ranges(&lines);
    let mut out = Vec::new();
    let sim = SIM_CRATES.contains(&crate_dir);

    // hot-path-copy: full verb list in the simulation crates; in
    // `crates/core` only the AM flush/drain functions, whose buffer
    // recycling a copy would defeat.
    let hot_keywords: Option<&[&str]> = if sim {
        Some(HOT_PATH_KEYWORDS)
    } else if crate_dir == "core" {
        Some(CORE_HOT_PATH_KEYWORDS)
    } else {
        None
    };
    if let Some(keywords) = hot_keywords {
        for (name, a, b) in fn_spans(&lines) {
            if in_ranges(&tests, a) {
                continue;
            }
            if !keywords.iter().any(|k| name_has_keyword(&name, k)) {
                continue;
            }
            for (idx, line) in lines.iter().enumerate().take(b + 1).skip(a) {
                let Some(pat) = COPY_PATTERNS.iter().find(|p| line.contains(**p)) else {
                    continue;
                };
                if escaped(&raw_lines, idx, COPY_OK_MARKER) {
                    continue;
                }
                out.push(Finding::new(
                    "hot-path-copy",
                    file,
                    idx + 1,
                    format!(
                        "`{pat}` in per-message path `{name}` — payloads travel as \
                         refcounted Bytes; mark a deliberate copy with `// copy-ok: <why>`"
                    ),
                ));
            }
        }
    }

    // hand-rolled-paged-table: every scanned crate.
    if !file.replace('\\', "/").ends_with(LAZY_FILE) {
        for (idx, line) in lines.iter().enumerate() {
            if in_ranges(&tests, idx) || !line.contains("Option<Box<[") {
                continue;
            }
            out.push(Finding::new(
                "hand-rolled-paged-table",
                file,
                idx + 1,
                "hand-rolled page table — paged first-touch storage is \
                 `sim_core::LazyVec` (sim-core/src/lazy.rs), built from a per-index constructor"
                    .to_string(),
            ));
        }
    }

    out
}

/// Recursively collect `.rs` files under `dir`.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// The `(crate_dir, src_dir)` scan roots: simulation crates plus `core`,
/// plus the self-hosted tool crates.
fn scan_roots(root: &Path) -> Vec<(String, PathBuf)> {
    let mut dirs: Vec<(String, PathBuf)> = Vec::new();
    for d in SIM_CRATES {
        dirs.push((d.to_string(), root.join("crates").join(d).join("src")));
    }
    dirs.push(("core".into(), root.join("crates/core/src")));
    dirs.push(("mempool".into(), root.join("crates/mempool/src")));
    dirs.push(("ugni-verify".into(), root.join("crates/ugni-verify/src")));
    dirs.push(("lint".into(), root.join("tools/lint/src")));
    dirs
}

/// Read every scanned source file as `(crate_dir, repo-relative path,
/// text)` triples — the shared input of the lexical and graph passes.
pub fn workspace_sources(root: &Path) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for (dir, src) in scan_roots(root) {
        let mut files = Vec::new();
        rs_files(&src, &mut files);
        for f in files {
            let Ok(text) = std::fs::read_to_string(&f) else {
                continue;
            };
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((dir.clone(), rel, text));
        }
    }
    out
}

/// Run the lexical pass, the call-graph pass and `stale-escape` over the
/// workspace.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let sources = workspace_sources(root);
    let mut out = lint_sources(&sources);
    out.extend(stale_escapes(&sources, &out));
    out
}

/// The lexical and the call-graph pass over `(crate_dir, path, text)`
/// sources.
pub fn lint_sources(sources: &[(String, String, String)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (dir, rel, text) in sources {
        out.extend(lint_source(dir, rel, text));
    }
    out.extend(graph::analyze(sources));
    out
}

/// `stale-escape`: every escape marker in a `//` comment of `sources`
/// that suppresses none of its rule's findings, and every `<word>-ok:`
/// marker that is no live rule's escape. `findings` is what
/// [`lint_sources`] reports on `sources`; a marker is live when linting
/// with every marker disarmed adds a finding of its rule on the marker's
/// line or the next one (the graph rules honour a marker on the line
/// above).
pub fn stale_escapes(sources: &[(String, String, String)], findings: &[Finding]) -> Vec<Finding> {
    let disarmed: Vec<(String, String, String)> = sources
        .iter()
        .map(|(dir, rel, text)| {
            let text = ESCAPES.iter().fold(text.clone(), |t, (m, _)| {
                t.replace(m, &m.replace("-ok:", "-no:"))
            });
            (dir.clone(), rel.clone(), text)
        })
        .collect();
    let at = |f: &Finding| (f.rule, f.file.clone(), f.line);
    let armed: BTreeSet<_> = findings.iter().map(at).collect();
    let bare = lint_sources(&disarmed);
    let suppressed: BTreeSet<_> = bare.iter().map(at).filter(|k| !armed.contains(k)).collect();
    let mut out = Vec::new();
    for (_, rel, text) in sources {
        for (idx, comment) in scan(text).1 {
            for (end, _) in comment.match_indices("-ok:") {
                let pos = comment[..end]
                    .trim_end_matches(|c: char| c.is_ascii_lowercase())
                    .len();
                // Quoted in inline code: documentation of the escape.
                if pos == end || comment[..pos].matches('`').count() % 2 == 1 {
                    continue;
                }
                let marker = &comment[pos..end + "-ok:".len()];
                let msg = match ESCAPES.iter().find(|(m, _)| *m == marker) {
                    None => format!("`{marker}` is the escape of no live rule: delete it"),
                    Some(&(_, rule)) => {
                        let live = |line| suppressed.contains(&(rule, rel.clone(), line));
                        if live(idx + 1) || live(idx + 2) {
                            continue;
                        }
                        format!("`{marker}` suppresses no `{rule}` finding: delete it")
                    }
                };
                out.push(Finding::new("stale-escape", rel, idx + 1, msg));
            }
        }
    }
    out
}

/// One-line descriptions of every rule, for `--list-rules`.
pub fn rule_descriptions() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "hot-path-copy",
            "no payload copies in per-message fns (core: flush/drain fns only; \
             escape: copy-ok:)",
        ),
        (
            "hand-rolled-paged-table",
            "no `Option<Box<[` page table outside sim-core/src/lazy.rs: use sim_core::LazyVec",
        ),
        (
            "worker-purity",
            "[graph] nothing reachable from parallel worker entry points may touch statics, \
             thread primitives, or serial-only APIs (escape: worker-ok:)",
        ),
        (
            "recovery-panic-freedom",
            "[graph] nothing reachable from recovery/restore/checkpoint/repost roots may \
             panic (escape: panic-ok:)",
        ),
        (
            "stale-escape",
            "an escape marker in a // comment must name a live rule and suppress a finding of it",
        ),
    ]
}
