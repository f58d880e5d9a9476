//! Project-invariant lints the compiler can't express (DESIGN.md §8, §12).
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
//!   and check *transitive* properties — worker purity, recovery
//!   panic-freedom, charge coverage — reporting witness call-chains.
//!
//! Lexical rules:
//!
//! * **hashmap-iter** — no `HashMap`/`HashSet` iteration in the
//!   simulation crates (`sim-core`, `gemini-net`, `ugni`, `lrts-ugni`,
//!   `lrts-mpi`, `mpi-sim`) nor in the self-hosted tool crates
//!   (`ugni-verify`, `lint`). Hash iteration order is arbitrary; one
//!   nondeterministically ordered event loop breaks the bit-for-bit
//!   replay guarantee every figure rests on, and a hash-ordered lint
//!   report breaks CI artifact diffing. Use `BTreeMap` or a
//!   `Vec`-indexed table when order can leak into behavior. The rule sees
//!   through the `DetHashMap`/`DetHashSet` aliases of `sim_core::hash`: a
//!   fixed hasher makes the order repeat, not mean anything.
//!   Escape: `// hash-ok: <why>`.
//! * **default-hasher** — no `std::collections::HashMap`/`HashSet` by
//!   those names in the simulation crates, `mempool` or `core`: every
//!   look-up table is a `sim_core::DetHashMap`/`DetHashSet`, so the next
//!   map cannot quietly bring SipHash and a per-process seed back onto the
//!   per-message path. `sim-core/src/hash.rs`, which defines the aliases,
//!   is the one file that names the `std` types. No escape.
//! * **unwrap-in-recovery** — no `.unwrap()` / `.expect(` inside
//!   fault-recovery functions (name has a `_`-segment equal to `retry`,
//!   `resync`, `repost`, `recover`, `recovery`, `fallback`, `reap`,
//!   `restore` or `checkpoint`). Recovery code runs precisely when
//!   invariants are shaken; it must degrade, not abort. The graph pass
//!   upgrades this rule to full reachability (`recovery-panic-freedom`).
//!   Escape: `// panic-ok: <why>`.
//! * **std-time** — no `std::time` / `Instant` / `SystemTime` in
//!   simulation crates. Virtual time is the only clock; a wall-clock
//!   read is nondeterminism by definition. Escape: `// time-ok: <why>`.
//! * **charge-category** — every `fn charge_<x>` definition in
//!   `crates/core` must record the matching `Kind::<X>` trace category,
//!   so cost accounting and the trace stay in sync.
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
//! * **thread-outside-parallel** — no `std::thread` / `std::sync`
//!   concurrency (spawns, locks, atomics, channels) in the simulation
//!   crates outside `sim-core/src/parallel.rs`. All parallelism flows
//!   through the conservative windowed driver, whose determinism proof
//!   depends on it being the *only* source of cross-thread interleaving.
//!   Patterns match on identifier boundaries, so `SpinBarrier` or a
//!   `BarrierStats` type never fires via `Barrier`. Deliberate uses
//!   carry a `// thread-ok: <why>` comment on the line.
//! * **unsafe-without-safety** — every `unsafe` block, fn or impl in the
//!   linted crates states the invariant that makes it sound in a
//!   `// SAFETY:` comment, on its own line or in the comment block
//!   directly above it. No escape: the comment is the escape.
//! * **hand-rolled-paged-table** — no `Option<Box<[` page table in any
//!   scanned crate outside `sim-core/src/lazy.rs`. Paged first-touch
//!   storage is one mechanism, `sim_core::LazyVec`, built from a per-index
//!   constructor; a hand-rolled copy beside it is a second grain, layout
//!   and first-touch cost to keep in step. No escape.
//!
//! `#[cfg(test)]` regions are exempt from all rules. The exemption is
//! brace-accurate: it covers exactly the item (module, fn, impl) the
//! attribute is attached to, not "everything to the end of the file".

use std::fmt;
use std::path::{Path, PathBuf};

pub mod graph;

/// Directory names (under `crates/`) of the deterministic simulation
/// crates: everything that executes during a simulated run.
pub const SIM_CRATES: &[&str] = &[
    "sim-core",
    "gemini-net",
    "ugni",
    "lrts-ugni",
    "lrts-mpi",
    "mpi-sim",
];

/// Crates the pass self-hosts over: the lint tool itself and the uGNI
/// contract verifier. Both must themselves be deterministic (the verifier
/// runs inside simulated jobs; the linter's finding order feeds a CI
/// artifact), so the order-sensitive lexical rules apply to them too.
pub const SELF_HOST_CRATES: &[&str] = &["ugni-verify", "lint"];

/// Function-name fragments that mark fault-recovery code paths. Matched
/// against `_`-separated name segments (`repost_after_error` matches
/// `repost`; `sender_loop` does not match `send`).
pub const RECOVERY_KEYWORDS: &[&str] = &[
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
pub const HOT_PATH_KEYWORDS: &[&str] = &[
    "send", "deliver", "recv", "post", "progress", "drain", "flush",
];

/// The subset of hot-path verbs checked in `crates/core`: the AM
/// aggregation engine's flush/drain functions run once per *batch* on the
/// critical path, and their whole point is recycling buffers instead of
/// allocating — a payload copy there silently undoes the optimization.
/// The rest of `core` (registration, config, reporting) is setup code
/// where copies are fine, so the full sim-crate keyword list stays off.
pub const CORE_HOT_PATH_KEYWORDS: &[&str] = &["flush", "drain"];

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
pub const COPY_OK_MARKER: &str = "copy-ok:";

/// Marker comment that exempts one line from `hashmap-iter`.
pub const HASH_OK_MARKER: &str = "hash-ok:";

/// Type names `hashmap-iter` treats as hash-ordered containers: the `std`
/// ones and their fixed-hasher aliases.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "DetHashMap", "DetHashSet"];

/// The `std` names `default-hasher` rejects.
const DEFAULT_HASHER_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Crates `default-hasher` covers beyond [`SIM_CRATES`]: they hold
/// per-message look-up tables too (neither needed an exception).
const DEFAULT_HASHER_EXTRA_CRATES: &[&str] = &["mempool", "core"];

/// The file that defines `DetHashMap`/`DetHashSet` over the `std` types.
const DET_HASH_FILE: &str = "sim-core/src/hash.rs";

/// Marker comment that exempts one line from `std-time`.
pub const TIME_OK_MARKER: &str = "time-ok:";

/// Marker comment that exempts one line from `unwrap-in-recovery` and the
/// graph pass's `recovery-panic-freedom`.
pub const PANIC_OK_MARKER: &str = "panic-ok:";

/// Threading/synchronization constructs banned in simulation crates
/// outside the parallel driver (see `thread-outside-parallel`). The
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

/// The comment every `unsafe` must carry (see `unsafe-without-safety`).
pub const SAFETY_MARKER: &str = "SAFETY:";

/// Does the `unsafe` on raw line `idx` carry a [`SAFETY_MARKER`] comment,
/// on that line or in the run of comment lines directly above it?
fn has_safety_comment(raw_lines: &[&str], idx: usize) -> bool {
    if escaped(raw_lines, idx, SAFETY_MARKER) {
        return true;
    }
    raw_lines[..idx]
        .iter()
        .rev()
        .take_while(|l| l.trim_start().starts_with("//"))
        .any(|l| l.contains(SAFETY_MARKER))
}

/// Marker comment that exempts one line from `thread-outside-parallel`.
pub const THREAD_OK_MARKER: &str = "thread-ok:";

/// The files where threads, locks, atomics, and spin loops are
/// legitimate: the conservative parallel driver and its sync layer (the
/// adaptive barrier + persistent worker pool).
pub const PARALLEL_DRIVER_FILES: &[&str] = &["sim-core/src/parallel.rs", "sim-core/src/sync.rs"];

/// Whether `path` is one of the sanctioned concurrency files
/// ([`PARALLEL_DRIVER_FILES`]).
pub fn is_parallel_driver_file(path: &str) -> bool {
    let p = path.replace('\\', "/");
    PARALLEL_DRIVER_FILES.iter().any(|f| p.ends_with(f))
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub msg: String,
    /// Witness call chain for graph rules (root first), empty for lexical
    /// rules. Each entry is a pre-rendered `name (file:line)` hop.
    pub chain: Vec<String>,
}

impl Finding {
    pub fn new(rule: &'static str, file: &str, line: usize, msg: String) -> Self {
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
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            '/' if i + 1 < b.len() && b[i + 1] == '/' => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
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
    out
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Extract the identifier ending right before byte offset `end` (exclusive).
fn ident_ending_at(line: &str, end: usize) -> Option<&str> {
    let head = &line[..end];
    let start = head
        .rfind(|c: char| !is_ident_char(c))
        .map(|p| p + 1)
        .unwrap_or(0);
    let id = &head[start..];
    if id.is_empty() || id.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(id)
    }
}

/// Does snake_case `name` contain `kw` as a complete `_`-separated
/// segment? Substrings never match (`sender` vs `send`, `resend` vs
/// `send`), and a keyword segment directly followed by a counter noun
/// (`send_count`) is treated as accounting, not a hot-path verb.
pub fn name_has_keyword(name: &str, kw: &str) -> bool {
    let segs: Vec<&str> = name.split('_').collect();
    segs.iter().enumerate().any(|(i, s)| {
        *s == kw
            && segs
                .get(i + 1)
                .is_none_or(|next| !COUNTER_SEGMENTS.contains(next))
    })
}

/// Byte offsets at which `pat` occurs in `line` starting at an identifier
/// boundary (and, for whole-word patterns, ending at one: `HashMap` does
/// not occur in `DetHashMap`).
fn boundary_matches<'a>(
    line: &'a str,
    pat: &'a str,
    whole_word: bool,
) -> impl Iterator<Item = usize> + 'a {
    line.match_indices(pat)
        .map(|(at, _)| at)
        .filter(move |&at| {
            let left_ok = !line[..at].chars().next_back().is_some_and(is_ident_char);
            let right = line[at + pat.len()..].chars().next();
            left_ok && (!whole_word || !right.is_some_and(is_ident_char))
        })
}

/// Does `line` contain `pat` starting at an identifier boundary (and, for
/// whole-word patterns, ending at one)?
pub(crate) fn boundary_match(line: &str, pat: &str, whole_word: bool) -> bool {
    boundary_matches(line, pat, whole_word).next().is_some()
}

/// Names in this file bound to a hash container — `HashMap`/`HashSet` or
/// the `DetHashMap`/`DetHashSet` aliases — as fields, lets or params:
/// `name: DetHashMap<..>` and `let name = DetHashMap::default()` (or
/// `::new()`, `::with_capacity(..)`: anything after the type name) forms.
fn hash_bound_names(lines: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    for line in lines {
        for ty in HASH_TYPES {
            for at in boundary_matches(line, ty, true) {
                let head = &line[..at];
                // `name: HashMap<` — the *binding* colon is single; the
                // `::` of a path prefix (`std::collections::HashMap`) is
                // not. Scan right-to-left for the rightmost single colon.
                let bind_colon = head
                    .char_indices()
                    .rev()
                    .filter(|&(_, c)| c == ':')
                    .find(|&(i, _)| !head[..i].ends_with(':') && !head[i + 1..].starts_with(':'))
                    .map(|(i, _)| i);
                if let Some(colon) = bind_colon {
                    let lhs = head[..colon].trim_end();
                    if let Some(id) = ident_ending_at(line, lhs.len()) {
                        names.push(id.to_string());
                    }
                }
                // `let [mut] name = HashMap::new()` / `::default()` / ...
                if let Some(eq) = head.rfind('=') {
                    let lhs = head[..eq].trim_end();
                    if let Some(id) = ident_ending_at(line, lhs.len()) {
                        names.push(id.to_string());
                    }
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Does line `idx` of `lines` iterate over hash-bound `name`?
fn iterates(lines: &[&str], idx: usize, name: &str) -> bool {
    let line = lines[idx];
    // `name.iter()` and friends, with an identifier boundary before.
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let at = from + pos;
        from = at + name.len();
        let pre_ok = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap());
        if !pre_ok {
            continue;
        }
        let rest = &line[at + name.len()..];
        if ITER_METHODS.iter().any(|m| rest.starts_with(m)) {
            return true;
        }
    }
    // `for x in [&[mut]] [self.]name {`
    if let Some(fpos) = line.find("for ") {
        if let Some(inpos) = line[fpos..].find(" in ") {
            let mut tail = line[fpos + inpos + 4..].trim_start();
            for p in ["&mut ", "&"] {
                tail = tail.strip_prefix(p).unwrap_or(tail);
            }
            let field = tail.starts_with("self.");
            tail = tail.strip_prefix("self.").unwrap_or(tail);
            if let Some(rest) = tail.strip_prefix(name) {
                let boundary = rest
                    .chars()
                    .next()
                    .is_none_or(|c| !is_ident_char(c) && c != '.');
                // A bare name is a local: it is hash-ordered only if its
                // nearest `let` in this fn binds a hash type (or there is
                // none, so it is a parameter). A local bound to anything
                // else — say `self.conns.iter_mut()`, which its own line
                // is checked for — merely shares a hash field's name.
                if boundary && (field || local_binding(lines, idx, name).is_none_or(binds_hash)) {
                    return true;
                }
            }
        }
    }
    false
}

/// The nearest line above `idx`, within the enclosing fn, that binds
/// `name` with `let [mut] name`.
fn local_binding<'a>(lines: &[&'a str], idx: usize, name: &str) -> Option<&'a str> {
    for line in lines[..idx].iter().rev() {
        let binds = line.find("let ").is_some_and(|at| {
            let tail = line[at + 4..].trim_start();
            let tail = tail.strip_prefix("mut ").unwrap_or(tail);
            tail.strip_prefix(name)
                .is_some_and(|rest| rest.chars().next().is_none_or(|c| !is_ident_char(c)))
        });
        if binds {
            return Some(line);
        }
        if find_fn_kw(line).is_some() {
            return None;
        }
    }
    None
}

/// Does this line name a hash-ordered type?
fn binds_hash(line: &str) -> bool {
    HASH_TYPES.iter().any(|ty| boundary_match(line, ty, true))
}

/// CamelCase a snake_case suffix: `overhead` → `Overhead`,
/// `cache_miss` → `CacheMiss`.
fn camel(s: &str) -> String {
    s.split('_')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let mut c = p.chars();
            match c.next() {
                Some(f) => f.to_ascii_uppercase().to_string() + c.as_str(),
                None => String::new(),
            }
        })
        .collect()
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
    let self_host = SELF_HOST_CRATES.contains(&crate_dir);

    if sim || self_host {
        // hashmap-iter
        let prod_lines: Vec<&str> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| if in_ranges(&tests, i) { "" } else { *l })
            .collect();
        let names = hash_bound_names(&prod_lines);
        for idx in 0..lines.len() {
            if in_ranges(&tests, idx) || escaped(&raw_lines, idx, HASH_OK_MARKER) {
                continue;
            }
            for name in &names {
                if iterates(&lines, idx, name) {
                    out.push(Finding::new(
                        "hashmap-iter",
                        file,
                        idx + 1,
                        format!(
                            "iteration over hash-ordered `{name}` — order is \
                             nondeterministic; use BTreeMap/Vec indexing, or mark a \
                             provably order-free use with `// hash-ok: <why>`"
                        ),
                    ));
                }
            }
        }
    }

    // default-hasher
    let in_alias_module = file.replace('\\', "/").ends_with(DET_HASH_FILE);
    if (sim || DEFAULT_HASHER_EXTRA_CRATES.contains(&crate_dir)) && !in_alias_module {
        for (idx, line) in lines.iter().enumerate() {
            if in_ranges(&tests, idx) {
                continue;
            }
            let Some(ty) = DEFAULT_HASHER_TYPES
                .iter()
                .find(|ty| boundary_match(line, ty, true))
            else {
                continue;
            };
            out.push(Finding::new(
                "default-hasher",
                file,
                idx + 1,
                format!(
                    "`{ty}` with std's default hasher (SipHash, per-process seed) — use \
                     `sim_core::Det{ty}` (construct with `::default()`)"
                ),
            ));
        }
    }

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

    if sim {
        // thread-outside-parallel: the parallel driver and its sync layer
        // are the sanctioned home for every one of these constructs.
        if !is_parallel_driver_file(file) {
            for (idx, line) in lines.iter().enumerate() {
                if in_ranges(&tests, idx) || escaped(&raw_lines, idx, THREAD_OK_MARKER) {
                    continue;
                }
                let Some((pat, _)) = THREAD_PATTERNS
                    .iter()
                    .find(|(p, whole)| boundary_match(line, p, *whole))
                else {
                    continue;
                };
                out.push(Finding::new(
                    "thread-outside-parallel",
                    file,
                    idx + 1,
                    format!(
                        "`{pat}` in a simulation crate outside the parallel driver — \
                         all concurrency lives in sim-core/src/parallel.rs and \
                         sim-core/src/sync.rs; mark a deliberate exception with \
                         `// thread-ok: <why>`"
                    ),
                ));
            }
        }
        // std-time
        for (idx, line) in lines.iter().enumerate() {
            if in_ranges(&tests, idx) || escaped(&raw_lines, idx, TIME_OK_MARKER) {
                continue;
            }
            for pat in ["std::time", "Instant::now", "SystemTime"] {
                if line.contains(pat) {
                    out.push(Finding::new(
                        "std-time",
                        file,
                        idx + 1,
                        format!("`{pat}` in a simulation crate — virtual time is the only clock"),
                    ));
                    break;
                }
            }
        }
    }

    if sim || crate_dir == "core" {
        // unwrap-in-recovery
        for (name, a, b) in fn_spans(&lines) {
            if in_ranges(&tests, a) {
                continue;
            }
            if !RECOVERY_KEYWORDS.iter().any(|k| name_has_keyword(&name, k)) {
                continue;
            }
            for (idx, line) in lines.iter().enumerate().take(b + 1).skip(a) {
                if in_ranges(&tests, idx) || escaped(&raw_lines, idx, PANIC_OK_MARKER) {
                    continue;
                }
                if line.contains(".unwrap()") || line.contains(".expect(") {
                    out.push(Finding::new(
                        "unwrap-in-recovery",
                        file,
                        idx + 1,
                        format!(
                            "unwrap/expect inside recovery path `{name}` — recovery \
                             code must degrade, not abort (or `// panic-ok: <why>`)"
                        ),
                    ));
                }
            }
        }
    }

    // unsafe-without-safety: every scanned crate.
    for (idx, line) in lines.iter().enumerate() {
        if in_ranges(&tests, idx)
            || !boundary_match(line, "unsafe", true)
            || has_safety_comment(&raw_lines, idx)
        {
            continue;
        }
        out.push(Finding::new(
            "unsafe-without-safety",
            file,
            idx + 1,
            "`unsafe` without a `// SAFETY:` comment on its line or directly above \
             — state the invariant that makes it sound"
                .to_string(),
        ));
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

    if crate_dir == "core" {
        // charge-category
        for (name, a, b) in fn_spans(&lines) {
            if in_ranges(&tests, a) {
                continue;
            }
            let Some(suffix) = name.strip_prefix("charge_") else {
                continue;
            };
            if suffix.is_empty() {
                continue;
            }
            let want = format!("Kind::{}", camel(suffix));
            let body = lines[a..=b.min(lines.len() - 1)].join("\n");
            if !body.contains(&want) {
                out.push(Finding::new(
                    "charge-category",
                    file,
                    a + 1,
                    format!("`fn {name}` does not record trace category `{want}`"),
                ));
            }
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

/// Lint every simulation crate (plus `core` and the self-hosted tool
/// crates) under `root` with the lexical rules.
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    for (dir, rel, text) in workspace_sources(root) {
        out.extend(lint_source(&dir, &rel, &text));
    }
    out
}

/// Run the lexical pass AND the call-graph pass over the workspace.
/// `recovery-panic-freedom` strictly subsumes `unwrap-in-recovery`
/// (reachability vs the root fn's own body), so lexical findings that
/// reappear under the graph rule are dropped in favor of the graph
/// finding and its witness chain.
pub fn lint_workspace_full(root: &Path) -> Vec<Finding> {
    let sources = workspace_sources(root);
    let mut out = Vec::new();
    for (dir, rel, text) in &sources {
        out.extend(lint_source(dir, rel, text));
    }
    let graph_findings = graph::analyze(&sources);
    let graph_lines: std::collections::BTreeSet<(String, usize)> = graph_findings
        .iter()
        .filter(|f| f.rule == "recovery-panic-freedom")
        .map(|f| (f.file.clone(), f.line))
        .collect();
    out.retain(|f| {
        f.rule != "unwrap-in-recovery" || !graph_lines.contains(&(f.file.clone(), f.line))
    });
    out.extend(graph_findings);
    out
}

/// One-line descriptions of every rule, for `--list-rules`.
pub fn rule_descriptions() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "hashmap-iter",
            "no HashMap/HashSet iteration, Det* aliases included, in sim or self-hosted crates \
             (escape: hash-ok:)",
        ),
        (
            "default-hasher",
            "no std HashMap/HashSet in sim crates, mempool or core: use sim_core::DetHashMap/Set",
        ),
        (
            "unwrap-in-recovery",
            "no unwrap/expect lexically inside recovery-named fns (escape: panic-ok:)",
        ),
        (
            "std-time",
            "no wall-clock reads in simulation crates (escape: time-ok:)",
        ),
        (
            "charge-category",
            "fn charge_<x> in core must record Kind::<X>",
        ),
        (
            "hot-path-copy",
            "no payload copies in per-message fns (core: flush/drain fns only; \
             escape: copy-ok:)",
        ),
        (
            "thread-outside-parallel",
            "no threads/locks/atomics outside sim-core/src/parallel.rs (escape: thread-ok:)",
        ),
        (
            "unsafe-without-safety",
            "every unsafe block, fn or impl has a `// SAFETY:` comment on its line or directly \
             above",
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
            "charge-coverage",
            "[graph] every MachineLayer path that sends or delivers must record a Kind::* \
             charge (escape: charge-ok:)",
        ),
    ]
}
