//! The lexical rules must each fire on their seeded fixture (under
//! `tools/lint/fixtures/`, never compiled), and the clippy configuration
//! that replaced the type-level rules must stay complete: deleting one of
//! its entries fails here. The real workspace must be clean under the
//! lexical rules; `tests/graph.rs` scans it under the full pass.

use lint_pass::{
    lint_source, lint_sources, rule_descriptions, stale_escapes, workspace_sources, Finding,
};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn rules(findings: &[Finding]) -> Vec<&str> {
    let mut r: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    r.sort();
    r.dedup();
    r
}

#[test]
fn paged_table_fixture_fires() {
    let src = fixture("paged_table.rs");
    // Every scanned crate, not only the simulation ones.
    for crate_dir in ["sim-core", "core", "mempool", "lint"] {
        let f = lint_source(crate_dir, "fixtures/paged_table.rs", &src);
        assert_eq!(rules(&f), ["hand-rolled-paged-table"], "{crate_dir}: {f:?}");
        // The field, the signature and the commented field — but NOT the
        // doc comment, the boxed value or the test module.
        let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [5, 14, 19], "{crate_dir}: {f:?}");
    }
    // The one file that holds the workspace's page table.
    let f = lint_source("sim-core", "crates/sim-core/src/lazy.rs", &src);
    assert!(f.is_empty(), "findings: {f:?}");
}

#[test]
fn hot_path_copy_fixture_fires() {
    let src = fixture("hot_path_copy.rs");
    let f = lint_source("lrts-ugni", "fixtures/hot_path_copy.rs", &src);
    assert_eq!(rules(&f), ["hot-path-copy"], "findings: {f:?}");
    // to_vec in sync_send, copy_from_slice + Bytes::from(vec! in deliver,
    // to_vec in am_flush_dst — but NOT the copy-ok: line in drain_smsg,
    // and NOT setup_buffers (not a per-message function name).
    assert_eq!(f.len(), 4, "findings: {f:?}");
    assert!(f.iter().any(|x| x.msg.contains("sync_send")));
    assert!(f.iter().any(|x| x.msg.contains("am_flush_dst")));
    assert!(f.iter().filter(|x| x.msg.contains("deliver")).count() == 2);
    assert!(!f.iter().any(|x| x.msg.contains("drain_smsg")));
    assert!(!f.iter().any(|x| x.msg.contains("setup_buffers")));
    // Keyword matching is per `_`-segment: `send_count_report` is a
    // counter accessor and `resend_window` never contained `send`.
    assert!(!f.iter().any(|x| x.msg.contains("send_count_report")));
    assert!(!f.iter().any(|x| x.msg.contains("resend_window")));
}

#[test]
fn hot_path_copy_only_applies_to_sim_crates() {
    let src = fixture("hot_path_copy.rs");
    // Figure drivers and apps may build payloads however they like.
    let f = lint_source("apps", "fixtures/hot_path_copy.rs", &src);
    assert!(f.is_empty(), "findings: {f:?}");
}

#[test]
fn hot_path_copy_core_arm_covers_only_flush_and_drain() {
    let src = fixture("hot_path_copy.rs");
    let f = lint_source("core", "fixtures/hot_path_copy.rs", &src);
    assert_eq!(rules(&f), ["hot-path-copy"], "findings: {f:?}");
    // In `core` only the AM batch flush/drain fns are hot paths:
    // send/deliver names are registration-grade there, and drain_smsg's
    // copy carries its copy-ok escape.
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert!(f[0].msg.contains("am_flush_dst"));
}

#[test]
fn test_modules_are_exempt() {
    let src = "pub struct S { v: Vec<u8> }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   struct Pages { p: Vec<Option<Box<[u8]>>> }\n\
                   fn sync_send(b: &[u8]) -> Vec<u8> { b.to_vec() }\n\
               }\n";
    let f = lint_source("sim-core", "inline.rs", src);
    assert!(f.is_empty(), "findings: {f:?}");
}

#[test]
fn test_exemption_is_brace_accurate() {
    // Code AFTER a `#[cfg(test)]` item is production code again: the
    // exemption covers exactly the attributed item, not the rest of the
    // file.
    let src = "#[cfg(test)]\n\
               mod tests {\n\
                   fn sync_send(b: &[u8]) -> Vec<u8> { b.to_vec() }\n\
               }\n\
               pub fn sync_send(b: &[u8]) -> Vec<u8> { b.to_vec() }\n";
    let f = lint_source("sim-core", "inline.rs", src);
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert_eq!(f[0].rule, "hot-path-copy");
    assert_eq!(f[0].line, 5, "findings: {f:?}");

    // A `#[cfg(test)]` on a brace-less item exempts only that item.
    let src2 = "#[cfg(test)]\n\
                type T = Option<Box<[u8]>>;\n\
                pub type U = Option<Box<[u8]>>;\n";
    let f2 = lint_source("sim-core", "inline.rs", src2);
    assert_eq!(f2.len(), 1, "findings: {f2:?}");
    assert_eq!(f2[0].rule, "hand-rolled-paged-table");
    assert_eq!(f2[0].line, 3, "findings: {f2:?}");
}

#[test]
fn comments_and_strings_do_not_fire() {
    let src = "pub struct S { v: Vec<u8> }\n\
               // pub fn sync_send(b: &[u8]) -> Vec<u8> { b.to_vec() } in Option<Box<[u8]>>\n\
               pub fn sync_send() -> &'static str { \"b.to_vec() in Option<Box<[u8]>>\" }\n";
    let f = lint_source("sim-core", "inline.rs", src);
    assert!(f.is_empty(), "findings: {f:?}");
}

// ------------------------------------------------- the clippy configuration

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
}

fn read(rel: &str) -> String {
    let p = root().join(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// The `path`s of one `clippy.toml` list, each checked to carry a reason.
fn disallowed(list: &str) -> Vec<String> {
    let cfg = read("clippy.toml");
    let start = cfg
        .find(&format!("{list} = ["))
        .unwrap_or_else(|| panic!("clippy.toml has no `{list}`"));
    let body = &cfg[start..start + cfg[start..].find("\n]").expect("closing `]`")];
    body.lines()
        .filter_map(|l| {
            let path = l.split("path = \"").nth(1)?.split('"').next()?;
            assert!(l.contains("reason = \""), "`{path}` has no reason");
            Some(path.to_string())
        })
        .collect()
}

fn assert_listed(list: &str, want: &[impl AsRef<str>]) {
    let have = disallowed(list);
    for p in want.iter().map(AsRef::as_ref) {
        assert!(
            have.iter().any(|h| h == p),
            "clippy.toml `{list}` lacks `{p}`"
        );
    }
}

/// The lint levels `[workspace.lints]` must deny.
fn assert_denied(lints: &[&str]) {
    let manifest = read("Cargo.toml");
    for l in lints {
        assert!(
            manifest.contains(&format!("{l} = \"deny\"")),
            "Cargo.toml's [workspace.lints] does not deny `{l}`"
        );
    }
}

#[test]
fn clippy_config_disallows_hash_iteration() {
    let map = "std::collections::HashMap::";
    let methods = [
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "drain",
        "into_keys",
        "into_values",
    ];
    let want: Vec<String> = methods.iter().map(|m| format!("{map}{m}")).collect();
    assert_listed("disallowed-methods", &want);
    assert_listed(
        "disallowed-methods",
        &[
            "std::collections::HashSet::iter",
            "std::collections::HashSet::drain",
        ],
    );
    // `for x in &map`, which names no method.
    assert_denied(&["iter_over_hash_type"]);
}

#[test]
fn clippy_config_disallows_default_hasher() {
    assert_listed(
        "disallowed-types",
        &["std::collections::HashMap", "std::collections::HashSet"],
    );
}

#[test]
fn clippy_config_disallows_wall_clock() {
    assert_listed(
        "disallowed-methods",
        &["std::time::Instant::now", "std::time::SystemTime::now"],
    );
}

#[test]
fn clippy_config_disallows_threads() {
    assert_listed(
        "disallowed-methods",
        &[
            "std::thread::spawn",
            "std::thread::scope",
            "std::sync::mpsc::channel",
        ],
    );
    assert_listed(
        "disallowed-types",
        &[
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
            "std::sync::Barrier",
        ],
    );
    let atomics = [
        "Bool", "U8", "U16", "U32", "U64", "Usize", "I8", "I16", "I32", "I64", "Isize", "Ptr",
    ];
    let want: Vec<String> = atomics
        .iter()
        .map(|a| format!("std::sync::atomic::Atomic{a}"))
        .collect();
    assert_listed("disallowed-types", &want);
}

#[test]
fn clippy_config_disallows_spinning() {
    // Hand-rolled spinning belongs to the adaptive barrier (sync.rs): an
    // unbounded spin loop is the oversubscription pathology it prevents.
    assert_listed(
        "disallowed-methods",
        &["std::thread::yield_now", "std::hint::spin_loop"],
    );
}

/// Every workspace member's manifest.
fn member_manifests() -> Vec<PathBuf> {
    let mut out = vec![
        root().join("examples/Cargo.toml"),
        root().join("tests/Cargo.toml"),
    ];
    for dir in ["crates", "tools", "third_party"] {
        for e in std::fs::read_dir(root().join(dir)).unwrap().flatten() {
            let m = e.path().join("Cargo.toml");
            if m.exists() {
                out.push(m);
            }
        }
    }
    out
}

#[test]
fn workspace_denies_undocumented_unsafe() {
    assert_denied(&["undocumented_unsafe_blocks", "unsafe_op_in_unsafe_fn"]);
    // The levels bind only the members that opt in, so all of them do.
    for m in member_manifests() {
        let text = std::fs::read_to_string(&m).unwrap();
        assert!(
            text.contains("[lints]\nworkspace = true"),
            "{} does not opt in to [workspace.lints]",
            m.display()
        );
    }
}

/// `.rs` files under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for p in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let p = p.path();
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

#[test]
fn only_the_sanctioned_files_allow_disallowed_paths() {
    // A file-level `allow` switches the configuration off for a whole
    // file: the parallel driver, its sync layer and the module that
    // defines the `Det*` aliases hold one, and nothing else may.
    let mut files = Vec::new();
    for dir in ["crates", "tools", "tests", "examples", "third_party"] {
        rs_files(&root().join(dir), &mut files);
    }
    let mut allowing: Vec<String> = files
        .iter()
        .filter(|f| {
            let text = std::fs::read_to_string(f).unwrap();
            text.split("#![allow(")
                .skip(1)
                .any(|attr| attr[..attr.find(")]").unwrap_or(attr.len())].contains("disallowed_"))
        })
        .map(|f| {
            f.strip_prefix(root())
                .unwrap()
                .to_string_lossy()
                .replace('\\', "/")
        })
        .collect();
    allowing.sort();
    assert_eq!(
        allowing,
        [
            "crates/core/src/par.rs",
            "crates/sim-core/src/hash.rs",
            "crates/sim-core/src/parallel.rs",
            "crates/sim-core/src/sync.rs",
        ]
    );
}

#[test]
fn retired_rules_are_not_listed() {
    // What clippy checks from resolved types left this pass; the rules
    // that remain are the ones the compiler cannot express.
    let names: Vec<&str> = rule_descriptions().iter().map(|(r, _)| *r).collect();
    assert_eq!(
        names,
        [
            "hot-path-copy",
            "hand-rolled-paged-table",
            "worker-purity",
            "recovery-panic-freedom",
            "stale-escape",
        ]
    );
}

#[test]
fn stale_escape_fixture_fires() {
    let sources = [(
        "lrts-ugni".to_string(),
        "fixtures/stale_escape.rs".to_string(),
        fixture("stale_escape.rs"),
    )];
    let found = lint_sources(&sources);
    assert!(found.is_empty(), "both live escapes hold: {found:?}");
    let f = stale_escapes(&sources, &found);
    assert_eq!(rules(&f), ["stale-escape"], "findings: {f:?}");
    // The stale `panic-ok:` and `copy-ok:` and the retired rule's
    // `coverage-ok:` — not the live ones, and not the marker in the string
    // literal or the one quoted in backticks.
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, [10, 18, 24], "findings: {f:?}");
    assert!(f[0].msg.contains("recovery-panic-freedom"), "{f:?}");
    assert!(f[1].msg.contains("hot-path-copy"), "{f:?}");
    assert!(f[2].msg.contains("no live rule"), "{f:?}");
}

#[test]
fn an_escape_above_a_line_that_cannot_panic_is_stale() {
    // The mutation the rule exists for: an escape left behind after the
    // code it excused was rewritten.
    let src = fixture("stale_escape.rs").replace("c.seq.unwrap()", "c.seq.unwrap_or(0)");
    let sources = [("lrts-ugni".to_string(), "f.rs".to_string(), src)];
    let f = stale_escapes(&sources, &lint_sources(&sources));
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, [8, 10, 18, 24], "findings: {f:?}");
}

#[test]
fn workspace_is_clean() {
    let f: Vec<Finding> = workspace_sources(root())
        .iter()
        .flat_map(|(dir, rel, text)| lint_source(dir, rel, text))
        .collect();
    assert!(
        f.is_empty(),
        "workspace lexical findings:\n{}",
        f.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
