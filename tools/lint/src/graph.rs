//! Call-graph pass: flow-aware rules over a workspace call graph
//! (DESIGN.md §12).
//!
//! The lexical rules in the crate root look at one function at a time;
//! the invariants that actually carry the runtime's determinism story are
//! *transitive* — a parallel-window worker is pure only if everything it
//! can reach is pure, a recovery path is abort-free only if every helper
//! it calls is. This module parses every `fn`/`impl`/`trait` in the
//! scanned crates with the same hand-rolled lexer (offline build, no
//! `syn`), resolves calls with a conservative name+receiver heuristic,
//! and runs reachability rules that print a witness call chain with each
//! finding.
//!
//! Resolution heuristic (soundness-for-precision trade, DESIGN.md §12):
//!
//! * `self.m(..)`   → methods named `m` on the enclosing impl type, plus
//!   the enclosing trait's default `m`.
//! * `Type::f(..)`  → methods named `f` in any `impl Type`/`impl .. for
//!   Type` block, plus defaults if `Type` is a trait name.
//! * `expr.m(..)`   → **every** workspace method named `m` taking `self`
//!   (receiver type unknown without type inference — over-approximate).
//! * `f(..)`        → free functions named `f`. Uppercase-initial plain
//!   calls (tuple-struct/enum constructors) and `name!(..)` macros are
//!   skipped.
//!
//! Calls into code outside the scanned crates (std, vendored bytes,
//! apps) resolve to nothing and end the walk — the rules are about
//! workspace-defined behavior. Dynamic calls through `dyn Fn` handler
//! objects are invisible to name resolution; the handler side of the
//! worker is covered by rooting `worker-purity` at every `PeCtx` method
//! (the only capability surface handlers receive), at the typed-AM batch
//! dispatcher `am_dispatch`, and at every named fn registered as a
//! typed-AM handler at a `register_am(...)` call site.

use crate::{
    boundary_match, find_fn_kw, is_ident_char, is_parallel_driver_file, name_has_keyword, sanitize,
    test_ranges, Finding, PANIC_OK_MARKER, RECOVERY_KEYWORDS, THREAD_PATTERNS,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Marker on (or immediately above) a `fn` declaration: this function
/// must only run in the serial phase of the windowed driver; the
/// `worker-purity` rule forbids reaching it from a worker.
pub(crate) const SERIAL_ONLY_MARKER: &str = "serial-only:";

/// Line escape for `worker-purity` findings.
pub(crate) const WORKER_OK_MARKER: &str = "worker-ok:";

/// Worker entry points by free-function name: the worker's window loop, the
/// two event-kernel functions it executes `Deliver`/`PeRun` events with
/// (rooted by name too, so renaming the loop cannot unroot the kernel),
/// plus the typed-AM batch dispatcher — it is registered as a `dyn Fn`
/// Converse handler (invisible to name resolution) but runs on workers,
/// walking batch envelopes and invoking every constituent's typed handler.
/// Methods of these names (`MachineCtx::deliver`) are not roots.
const WORKER_ROOT_FNS: &[&str] = &["phase_run", "deliver", "pe_run", "am_dispatch"];

/// Worker entry points by receiver type: handlers run on workers and
/// `PeCtx` is the entire capability surface they are handed.
const WORKER_ROOT_TYPES: &[&str] = &["PeCtx"];

/// Panic sites for `recovery-panic-freedom`. Substring patterns; the
/// macro forms additionally require a left identifier boundary so
/// `debug_assert!` (compiled out of release figures) stays exempt.
const PANIC_SUBSTR: &[&str] = &[".unwrap()", ".expect("];
const PANIC_MACROS: &[&str] = &[
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

/// One scanned source file.
pub(crate) struct FileSrc {
    pub(crate) path: String,
    pub(crate) raw: Vec<String>,
    pub(crate) clean: Vec<String>,
}

/// One parsed function (or trait default method).
pub(crate) struct FnInfo {
    pub(crate) name: String,
    /// Enclosing impl type (`impl T`, `impl Tr for T` → `T`); None for
    /// free functions and trait-block defaults.
    pub(crate) type_name: Option<String>,
    /// Trait being implemented (`impl Tr for T` → `Tr`) or defined
    /// (trait-block defaults).
    pub(crate) trait_name: Option<String>,
    pub(crate) has_self: bool,
    pub(crate) serial_only: bool,
    pub(crate) file: usize,
    /// 0-based span of the whole item, signature included.
    pub(crate) start: usize,
    pub(crate) end: usize,
}

impl FnInfo {
    /// `Type::name` or `name`.
    pub(crate) fn qual_name(&self) -> String {
        match &self.type_name {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A call site inside a function body.
pub(crate) struct CallSite {
    /// 0-based line index in the containing file.
    pub(crate) line: usize,
    /// Resolved workspace callees (fn ids), deduped and sorted.
    pub(crate) targets: Vec<usize>,
}

pub struct Graph {
    pub(crate) files: Vec<FileSrc>,
    pub(crate) fns: Vec<FnInfo>,
    /// Indexed by fn id.
    pub(crate) calls: Vec<Vec<CallSite>>,
    /// Names of `static` items (including `thread_local!` cells) declared
    /// in the scanned crates.
    pub(crate) statics: Vec<String>,
}

/// Impl/trait block context while scanning a file.
struct BlockCtx {
    type_name: Option<String>,
    trait_name: Option<String>,
    start: usize,
    end: usize,
}

/// Strip generics and take the last path segment: `foo::Bar<T>` → `Bar`.
fn type_ident(s: &str) -> Option<String> {
    let s = s.trim();
    let no_gen = match s.find('<') {
        Some(p) => &s[..p],
        None => s,
    };
    let seg = no_gen.rsplit("::").next()?.trim();
    let id: String = seg.chars().take_while(|&c| is_ident_char(c)).collect();
    if id.is_empty() {
        None
    } else {
        Some(id)
    }
}

/// Skip a balanced `<...>` group starting at `i` (which must point at
/// `<`); returns the index just past the matching `>`.
fn skip_generics(chars: &[char], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < chars.len() {
        match chars[i] {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Find the matching close brace for an item whose header starts at line
/// `start`, column `col`. Returns the 0-based line of the close brace
/// (or `start` if the item ends in `;` before any brace).
fn item_end(lines: &[String], start: usize, col: usize) -> usize {
    let mut depth = 0i32;
    let mut opened = false;
    let mut j = start;
    let mut c0 = col;
    while j < lines.len() {
        let line = &lines[j];
        let scan = &line[c0.min(line.len())..];
        for c in scan.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth <= 0 {
                        return j;
                    }
                }
                ';' if !opened => return j,
                _ => {}
            }
        }
        j += 1;
        c0 = 0;
    }
    lines.len().saturating_sub(1)
}

/// Parse impl/trait block headers (top level of the file) into contexts.
fn block_contexts(lines: &[String]) -> Vec<BlockCtx> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < lines.len() {
        let line = &lines[i];
        if depth == 0 {
            let imp = boundary_pos(line, "impl");
            let tra = boundary_pos(line, "trait");
            if let Some(pos) = imp {
                // Header may wrap lines; join until `{`.
                let mut header = line[pos..].to_string();
                let mut hl = i;
                while !header.contains('{') && !header.contains(';') && hl + 1 < lines.len() {
                    hl += 1;
                    header.push(' ');
                    header.push_str(&lines[hl]);
                }
                let body = header.split('{').next().unwrap_or("");
                // `impl<T> Tr<X> for Ty<T>` / `impl Ty`.
                let after_impl = &body[4..];
                let chars: Vec<char> = after_impl.chars().collect();
                let mut k = 0;
                while k < chars.len() && chars[k].is_whitespace() {
                    k += 1;
                }
                if k < chars.len() && chars[k] == '<' {
                    k = skip_generics(&chars, k);
                }
                let rest: String = chars[k.min(chars.len())..].iter().collect();
                let rest = rest.split(" where ").next().unwrap_or(&rest).to_string();
                let (trait_name, type_name) = match split_for(&rest) {
                    Some((tr, ty)) => (type_ident(tr), type_ident(ty)),
                    None => (None, type_ident(&rest)),
                };
                let end = item_end(lines, i, pos);
                out.push(BlockCtx {
                    type_name,
                    trait_name,
                    start: i,
                    end,
                });
            } else if let Some(pos) = tra {
                let after = &line[pos + 5..];
                let name: String = after
                    .trim_start()
                    .chars()
                    .take_while(|&c| is_ident_char(c))
                    .collect();
                if !name.is_empty() {
                    let end = item_end(lines, i, pos);
                    out.push(BlockCtx {
                        type_name: None,
                        trait_name: Some(name),
                        start: i,
                        end,
                    });
                }
            }
        }
        // Track top-level depth *after* header handling so the block's
        // own open brace moves us inside it.
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        i += 1;
    }
    out
}

/// `impl Tr for Ty` → `Some(("Tr", "Ty"))`, using a token-boundary ` for `.
fn split_for(s: &str) -> Option<(&str, &str)> {
    let mut from = 0;
    while let Some(p) = s[from..].find(" for ") {
        let at = from + p;
        from = at + 5;
        // `for` inside generics (e.g. `for<'a>`) has a `<` imbalance
        // before it; a plain scan is enough for our codebase.
        let before = &s[..at];
        let lt = before.matches('<').count();
        let gt = before.matches('>').count();
        if lt == gt {
            return Some((&s[..at], &s[at + 5..]));
        }
    }
    None
}

/// Position of whole-word token `tok` in `line`, skipping e.g. `pub `
/// prefixes automatically (any position qualifies if both boundaries
/// hold and the line is not inside a larger identifier).
fn boundary_pos(line: &str, tok: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(p) = line[from..].find(tok) {
        let at = from + p;
        from = at + tok.len();
        let left = at == 0 || !is_ident_char(line[..at].chars().next_back().unwrap());
        let right = line[at + tok.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident_char(c) && c != '!');
        if left && right {
            return Some(at);
        }
    }
    None
}

/// Does the signature (from the fn keyword up to the body `{` or `;`)
/// declare a `self` receiver?
fn sig_has_self(lines: &[String], start: usize, col: usize) -> bool {
    let mut sig = String::new();
    let mut j = start;
    let mut c0 = col;
    while j < lines.len() {
        let line = &lines[j];
        let scan = &line[c0.min(line.len())..];
        if let Some(p) = scan.find(['{', ';']) {
            sig.push_str(&scan[..p]);
            break;
        }
        sig.push_str(scan);
        sig.push(' ');
        j += 1;
        c0 = 0;
    }
    boundary_pos(&sig, "self").is_some()
}

/// Rust keywords and call-like forms that are never workspace calls.
fn is_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "in"
            | "as"
            | "move"
            | "fn"
            | "where"
            | "let"
            | "else"
            | "mut"
            | "ref"
            | "box"
            | "await"
            | "use"
            | "pub"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "dyn"
            | "unsafe"
            | "impl"
            | "break"
            | "continue"
    )
}

enum CallKind {
    SelfMethod,
    Method,
    Qualified(String),
    Free,
}

/// Extract raw call candidates `(kind, name, line_idx)` from a fn body.
fn extract_calls(lines: &[String], start: usize, end: usize) -> Vec<(CallKind, String, usize)> {
    let mut out = Vec::new();
    let stop = end.min(lines.len().saturating_sub(1));
    for (idx, line) in lines.iter().enumerate().take(stop + 1).skip(start) {
        for (p, c) in line.char_indices() {
            if c != '(' {
                continue;
            }
            let head = &line[..p];
            let s = head
                .rfind(|c: char| !is_ident_char(c))
                .map(|q| q + 1)
                .unwrap_or(0);
            let name = &head[s..];
            if name.is_empty()
                || name.chars().next().is_some_and(|c| c.is_ascii_digit())
                || is_call_keyword(name)
            {
                continue;
            }
            let before = &head[..s];
            if before.ends_with("fn ") {
                continue; // a declaration, not a call
            }
            let kind = if let Some(recv) = before.strip_suffix('.') {
                let self_recv = recv.ends_with("self")
                    && recv[..recv.len() - 4]
                        .chars()
                        .next_back()
                        .is_none_or(|c| !is_ident_char(c));
                if self_recv {
                    CallKind::SelfMethod
                } else {
                    CallKind::Method
                }
            } else if let Some(qhead) = before.strip_suffix("::") {
                // Strip one turbofish/generic group: `Type::<T>::f` is rare
                // here; take the ident directly before `::`.
                let qs = qhead
                    .rfind(|c: char| !is_ident_char(c))
                    .map(|q| q + 1)
                    .unwrap_or(0);
                let qual = &qhead[qs..];
                if qual.is_empty() {
                    continue;
                }
                if qual.chars().next().is_some_and(|c| c.is_uppercase()) {
                    CallKind::Qualified(qual.to_string())
                } else {
                    // `mem::swap(..)` — module path; treat as a free call.
                    CallKind::Free
                }
            } else {
                if name.chars().next().is_some_and(|c| c.is_uppercase()) {
                    continue; // tuple-struct / enum-variant constructor
                }
                CallKind::Free
            };
            out.push((kind, name.to_string(), idx));
        }
    }
    out
}

impl Graph {
    /// Build the call graph from `(crate_dir, path, text)` sources.
    pub fn build(sources: &[(String, String, String)]) -> Graph {
        let mut files = Vec::new();
        let mut fns: Vec<FnInfo> = Vec::new();
        let mut statics: BTreeSet<String> = BTreeSet::new();
        let mut fn_blocks: Vec<(usize, usize)> = Vec::new(); // (fn id, file)

        for (_, path, text) in sources {
            let clean_text = sanitize(text);
            let clean: Vec<String> = clean_text.lines().map(|l| l.to_string()).collect();
            let raw: Vec<String> = text.lines().map(|l| l.to_string()).collect();
            let clean_refs: Vec<&str> = clean.iter().map(|s| s.as_str()).collect();
            let tests = test_ranges(&clean_refs);
            let file_id = files.len();
            let blocks = block_contexts(&clean);

            // `static NAME` / `thread_local! { static NAME }` declarations.
            for (i, line) in clean.iter().enumerate() {
                if tests.iter().any(|&(a, b)| i >= a && i <= b) {
                    continue;
                }
                let mut from = 0;
                while let Some(p) = line[from..].find("static ") {
                    let at = from + p;
                    from = at + 7;
                    let pre = line[..at].chars().next_back();
                    if pre.is_some_and(|c| is_ident_char(c) || c == '\'') {
                        continue; // `&'static str`
                    }
                    let rest = line[at + 7..].trim_start();
                    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
                    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
                    if !name.is_empty() && rest[name.len()..].trim_start().starts_with(':') {
                        statics.insert(name);
                    }
                }
            }

            // Functions.
            let mut i = 0;
            while i < clean.len() {
                let Some(pos) = find_fn_kw(&clean[i]) else {
                    i += 1;
                    continue;
                };
                let after = &clean[i][pos + 3..];
                let name: String = after
                    .trim_start()
                    .chars()
                    .take_while(|&c| is_ident_char(c))
                    .collect();
                if name.is_empty() {
                    i += 1;
                    continue;
                }
                let end = item_end(&clean, i, pos);
                let in_test = tests.iter().any(|&(a, b)| i >= a && i <= b);
                // Bodiless trait declarations (`fn f(..);`) are not graph
                // nodes: there is nothing to analyze, and resolving a
                // dispatch to the declaration instead of the implementors
                // would just pad witness chains.
                let mut has_body = false;
                {
                    let mut j = i;
                    let mut c0 = pos;
                    'body: while j < clean.len() {
                        let line = &clean[j];
                        for c in line[c0.min(line.len())..].chars() {
                            match c {
                                '{' => {
                                    has_body = true;
                                    break 'body;
                                }
                                ';' => break 'body,
                                _ => {}
                            }
                        }
                        j += 1;
                        c0 = 0;
                    }
                }
                if !in_test && has_body {
                    let ctx = blocks.iter().find(|b| i > b.start && i <= b.end);
                    let serial_only = raw
                        .get(i.saturating_sub(1))
                        .is_some_and(|l| l.contains(SERIAL_ONLY_MARKER))
                        || raw.get(i).is_some_and(|l| l.contains(SERIAL_ONLY_MARKER));
                    fns.push(FnInfo {
                        name,
                        type_name: ctx.and_then(|c| c.type_name.clone()),
                        trait_name: ctx.and_then(|c| c.trait_name.clone()),
                        has_self: sig_has_self(&clean, i, pos),
                        serial_only,
                        file: file_id,
                        start: i,
                        end,
                    });
                    fn_blocks.push((fns.len() - 1, file_id));
                }
                // Continue scanning *inside* the span too: impl blocks
                // contain many fns, and nested fns deserve their own node.
                i += 1;
            }

            files.push(FileSrc {
                path: path.clone(),
                raw,
                clean,
            });
        }

        // Resolution indexes.
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_type: BTreeMap<(String, &str), Vec<usize>> = BTreeMap::new();
        let mut by_name_method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut trait_default: BTreeMap<(String, &str), Vec<usize>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            match (&f.type_name, &f.trait_name) {
                (Some(t), _) => by_type.entry((t.clone(), &f.name)).or_default().push(id),
                (None, Some(tr)) => trait_default
                    .entry((tr.clone(), &f.name))
                    .or_default()
                    .push(id),
                (None, None) => free.entry(&f.name).or_default().push(id),
            }
            if f.has_self {
                by_name_method.entry(&f.name).or_default().push(id);
            }
        }

        // Nested fns: a fn whose span lies inside another fn's span in the
        // same file must not be treated as the outer fn's call body owner;
        // calls are attributed to the *innermost* containing fn.
        let mut calls: Vec<Vec<CallSite>> = (0..fns.len()).map(|_| Vec::new()).collect();
        for (id, f) in fns.iter().enumerate() {
            let file = &files[f.file];
            let raw_calls = extract_calls(&file.clean, f.start, f.end);
            let mut sites: BTreeMap<(usize, String), BTreeSet<usize>> = BTreeMap::new();
            for (kind, name, line) in raw_calls {
                // Attribute to innermost fn: skip lines owned by a nested fn.
                let owner = fns
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.file == f.file && g.start <= line && line <= g.end)
                    .max_by_key(|(_, g)| g.start)
                    .map(|(gid, _)| gid);
                if owner != Some(id) {
                    continue;
                }
                let mut targets: BTreeSet<usize> = BTreeSet::new();
                match kind {
                    CallKind::SelfMethod => {
                        if let Some(t) = &f.type_name {
                            if let Some(v) = by_type.get(&(t.clone(), name.as_str())) {
                                targets.extend(v);
                            }
                        }
                        if let Some(tr) = &f.trait_name {
                            if let Some(v) = trait_default.get(&(tr.clone(), name.as_str())) {
                                targets.extend(v);
                            }
                            if f.type_name.is_none() {
                                // Default body: `self.m()` dispatches to any
                                // implementor's override.
                                if let Some(v) = by_name_method.get(name.as_str()) {
                                    targets.extend(
                                        v.iter()
                                            .filter(|&&m| {
                                                fns[m].trait_name.as_deref() == Some(tr.as_str())
                                            })
                                            .copied(),
                                    );
                                }
                            }
                        }
                        if targets.is_empty() {
                            // Inherent method on a type we didn't parse an
                            // impl header for — fall back to by-name.
                            if let Some(v) = by_name_method.get(name.as_str()) {
                                targets.extend(v);
                            }
                        }
                    }
                    CallKind::Method => {
                        if let Some(v) = by_name_method.get(name.as_str()) {
                            targets.extend(v);
                        }
                    }
                    CallKind::Qualified(q) => {
                        let q = if q == "Self" {
                            f.type_name.clone().unwrap_or(q)
                        } else {
                            q
                        };
                        if let Some(v) = by_type.get(&(q.clone(), name.as_str())) {
                            targets.extend(v);
                        }
                        if let Some(v) = trait_default.get(&(q, name.as_str())) {
                            targets.extend(v);
                        }
                    }
                    CallKind::Free => {
                        if let Some(v) = free.get(name.as_str()) {
                            targets.extend(v);
                        }
                    }
                }
                sites.entry((line, name)).or_default().extend(targets);
            }
            calls[id] = sites
                .into_iter()
                .map(|((line, _), targets)| CallSite {
                    line,
                    targets: targets.into_iter().collect(),
                })
                .collect();
        }

        Graph {
            files,
            fns,
            calls,
            statics: statics.into_iter().collect(),
        }
    }

    /// First fn id with this (unqualified) name — test helper.
    pub fn fn_id(&self, name: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.name == name)
    }

    /// Sorted, deduped qualified names of `id`'s resolved callees —
    /// test helper.
    pub fn callee_names(&self, id: usize) -> Vec<String> {
        let mut v: Vec<String> = self.calls[id]
            .iter()
            .flat_map(|c| c.targets.iter().map(|&t| self.fns[t].qual_name()))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// `Type::name (file:line)` display label for witness chains.
    pub(crate) fn label(&self, id: usize) -> String {
        let f = &self.fns[id];
        format!(
            "{} ({}:{})",
            f.qual_name(),
            self.files[f.file].path,
            f.start + 1
        )
    }

    fn raw_line(&self, file: usize, line: usize) -> &str {
        self.files[file]
            .raw
            .get(line)
            .map(|s| s.as_str())
            .unwrap_or("")
    }

    /// Graph-rule escapes may sit on the offending line or the line
    /// above it (multi-line `panic!(..)` calls put the pattern on the
    /// macro's own line, where a trailing comment fights rustfmt).
    fn escape_at(&self, file: usize, line: usize, marker: &str) -> bool {
        self.raw_line(file, line).contains(marker)
            || (line > 0 && self.raw_line(file, line - 1).contains(marker))
    }

    /// BFS from `roots` over resolved edges. Returns a parent map:
    /// `parent[id] = Some(caller)` for reached non-roots, roots map to
    /// themselves. Deterministic: roots and edges visit in sorted order.
    fn reach(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for &r in &sorted_roots {
            parent.insert(r, r);
            queue.push_back(r);
        }
        while let Some(u) = queue.pop_front() {
            for site in &self.calls[u] {
                for &v in &site.targets {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(v) {
                        e.insert(u);
                        queue.push_back(v);
                    }
                }
            }
        }
        parent
    }

    /// Witness chain root → `id`, rendered with [`Graph::label`].
    fn chain(&self, parent: &BTreeMap<usize, usize>, id: usize) -> Vec<String> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path.into_iter().map(|i| self.label(i)).collect()
    }
}

/// Dedup helper: keep the first finding per (rule, file, line).
fn push_unique(out: &mut Vec<Finding>, seen: &mut BTreeSet<(String, usize)>, f: Finding) {
    if seen.insert((format!("{}\u{0}{}", f.rule, f.file), f.line)) {
        out.push(f);
    }
}

/// Typed-AM handler roots: a named fn mentioned as a *value* inside a
/// `register_am(...)` argument list is a handler body the batch dispatch
/// walk runs on a worker, so it roots `worker-purity`. Only bare
/// fn-value mentions count — an identifier not followed by `(` (that is
/// a call, attributed to the registering fn) and not path- or
/// field-qualified (`Type::f`, `x.f`). Closure registrations are covered
/// separately through the `PeCtx` method roots.
fn am_handler_roots(g: &Graph) -> Vec<usize> {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (id, f) in g.fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(id);
    }
    let mut roots = Vec::new();
    for file in &g.files {
        let lines: Vec<&str> = file.clean.iter().map(|s| s.as_str()).collect();
        let tests = test_ranges(&lines);
        for (i, line) in lines.iter().enumerate() {
            let Some(pos) = line.find("register_am") else {
                continue;
            };
            if tests.iter().any(|&(a, b)| i >= a && i <= b) {
                continue;
            }
            // Collect the balanced `(...)` argument span (bounded — an
            // unclosed paren in a fixture must not scan the whole file).
            let mut span = String::new();
            let mut depth = 0i32;
            let mut opened = false;
            let mut col = pos + "register_am".len();
            let mut j = i;
            'span: while j < lines.len() && j < i + 200 {
                for c in lines[j][col.min(lines[j].len())..].chars() {
                    match c {
                        '(' => {
                            depth += 1;
                            opened = true;
                        }
                        ')' => {
                            depth -= 1;
                            if opened && depth <= 0 {
                                break 'span;
                            }
                        }
                        _ => {}
                    }
                    if opened {
                        span.push(c);
                    }
                }
                span.push(' ');
                j += 1;
                col = 0;
            }
            // Bare fn-value identifiers in the span become roots.
            let chars: Vec<char> = span.chars().collect();
            let mut k = 0;
            while k < chars.len() {
                if !is_ident_char(chars[k]) || chars[k].is_ascii_digit() {
                    k += 1;
                    continue;
                }
                let start = k;
                while k < chars.len() && is_ident_char(chars[k]) {
                    k += 1;
                }
                let tok: String = chars[start..k].iter().collect();
                let before = chars[..start].iter().rev().find(|c| !c.is_whitespace());
                let after = chars[k..].iter().find(|c| !c.is_whitespace());
                if matches!(before, Some(':') | Some('.')) || matches!(after, Some('(') | Some(':'))
                {
                    continue;
                }
                if let Some(ids) = by_name.get(tok.as_str()) {
                    roots.extend(ids.iter().copied());
                }
            }
        }
    }
    roots
}

/// worker-purity: nothing reachable from a parallel-window worker entry
/// point may touch statics or thread primitives, or call a fn marked
/// `// serial-only:`. Escape: `// worker-ok: <why>` on the line.
fn check_worker_purity(g: &Graph, out: &mut Vec<Finding>) {
    let mut roots: Vec<usize> = g
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            let free = f.type_name.is_none() && f.trait_name.is_none();
            free && WORKER_ROOT_FNS.contains(&f.name.as_str())
                || f.type_name
                    .as_deref()
                    .is_some_and(|t| WORKER_ROOT_TYPES.contains(&t))
        })
        .map(|(id, _)| id)
        .collect();
    roots.extend(am_handler_roots(g));
    roots.sort_unstable();
    roots.dedup();
    if roots.is_empty() {
        return;
    }
    let parent = g.reach(&roots);
    let mut seen = BTreeSet::new();
    for &id in parent.keys() {
        let f = &g.fns[id];
        let file = &g.files[f.file];
        let in_driver = is_parallel_driver_file(&file.path);

        // Serial-only edges.
        for site in &g.calls[id] {
            let serial: Vec<usize> = site
                .targets
                .iter()
                .copied()
                .filter(|&t| g.fns[t].serial_only)
                .collect();
            if serial.is_empty() || g.escape_at(f.file, site.line, WORKER_OK_MARKER) {
                continue;
            }
            let mut chain = g.chain(&parent, id);
            chain.push(g.label(serial[0]));
            let mut finding = Finding::new(
                "worker-purity",
                &file.path,
                site.line + 1,
                format!(
                    "worker-reachable call to serial-only `{}` from `{}` — workers must \
                     buffer effects in ExecOut, not apply them (or `// worker-ok: <why>`)",
                    g.fns[serial[0]].qual_name(),
                    f.name
                ),
            );
            finding.chain = chain;
            push_unique(out, &mut seen, finding);
        }

        // Thread primitives and statics, line by line. The parallel
        // driver file is the sanctioned implementation of the pool and
        // barrier — its internals are exempt from the primitive check
        // (clippy.toml already confines these constructs to it).
        for (off, line) in file.clean[f.start..=f.end.min(file.clean.len() - 1)]
            .iter()
            .enumerate()
        {
            let lineno = f.start + off;
            if g.escape_at(f.file, lineno, WORKER_OK_MARKER) {
                continue;
            }
            if !in_driver {
                if let Some((pat, _)) = THREAD_PATTERNS
                    .iter()
                    .find(|(p, whole)| boundary_match(line, p, *whole))
                {
                    let mut finding = Finding::new(
                        "worker-purity",
                        &file.path,
                        lineno + 1,
                        format!(
                            "thread primitive `{pat}` inside worker-reachable `{}` — \
                             cross-thread state breaks window determinism \
                             (or `// worker-ok: <why>`)",
                            f.name
                        ),
                    );
                    finding.chain = g.chain(&parent, id);
                    push_unique(out, &mut seen, finding);
                    continue;
                }
            }
            if let Some(st) = g.statics.iter().find(|st| boundary_match(line, st, true)) {
                let mut finding = Finding::new(
                    "worker-purity",
                    &file.path,
                    lineno + 1,
                    format!(
                        "worker-reachable `{}` touches static `{st}` — shared mutable \
                         state must stay on the serial phase (or `// worker-ok: <why>`)",
                        f.name
                    ),
                );
                finding.chain = g.chain(&parent, id);
                push_unique(out, &mut seen, finding);
            }
        }
    }
}

/// recovery-panic-freedom: nothing reachable from a recovery-named root
/// may panic. Escape: `// panic-ok: <why>` on the line.
fn check_recovery_panics(g: &Graph, out: &mut Vec<Finding>) {
    let roots: Vec<usize> = g
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            RECOVERY_KEYWORDS
                .iter()
                .any(|k| name_has_keyword(&f.name, k))
        })
        .map(|(id, _)| id)
        .collect();
    if roots.is_empty() {
        return;
    }
    let parent = g.reach(&roots);
    let mut seen = BTreeSet::new();
    for &id in parent.keys() {
        let f = &g.fns[id];
        let file = &g.files[f.file];
        for (off, line) in file.clean[f.start..=f.end.min(file.clean.len() - 1)]
            .iter()
            .enumerate()
        {
            let lineno = f.start + off;
            if g.escape_at(f.file, lineno, PANIC_OK_MARKER) {
                continue;
            }
            let hit = PANIC_SUBSTR
                .iter()
                .find(|p| line.contains(**p))
                .or_else(|| PANIC_MACROS.iter().find(|p| boundary_match(line, p, false)));
            let Some(pat) = hit else { continue };
            let mut finding = Finding::new(
                "recovery-panic-freedom",
                &file.path,
                lineno + 1,
                format!(
                    "`{}` in `{}` is reachable from a recovery root — recovery must \
                     degrade, not abort (or `// panic-ok: <why>`)",
                    pat.trim_end_matches('('),
                    f.name
                ),
            );
            finding.chain = g.chain(&parent, id);
            push_unique(out, &mut seen, finding);
        }
    }
}

/// Run all graph rules over the given sources.
pub fn analyze(sources: &[(String, String, String)]) -> Vec<Finding> {
    let g = Graph::build(sources);
    let mut out = Vec::new();
    check_worker_purity(&g, &mut out);
    check_recovery_panics(&g, &mut out);
    out
}
