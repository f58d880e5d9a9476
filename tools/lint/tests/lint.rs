//! The lint pass itself is tested two ways: each rule must fire on its
//! seeded fixture (under `tools/lint/fixtures/`, never compiled), and
//! the real workspace must scan clean.

use lint_pass::{lint_source, lint_workspace, Finding};
use std::path::Path;

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
fn hashmap_iteration_fixture_fires() {
    let src = fixture("hashmap_iter.rs");
    let f = lint_source("sim-core", "fixtures/hashmap_iter.rs", &src);
    // (The fixture's std maps also trip default-hasher, tested below.)
    assert_eq!(rules(&f), ["default-hasher", "hashmap-iter"], "{f:?}");
    let iter: Vec<&Finding> = f.iter().filter(|x| x.rule == "hashmap-iter").collect();
    // All three iteration shapes: .iter(), .keys(), for .. in &set — and
    // the same through the aliases: a `DetHashMap` field's .values() and
    // for .. in &self.field, a `DetHashSet::default()` local's
    // for .. in &set.
    assert_eq!(iter.len(), 6, "findings: {iter:?}");
    assert!(iter.iter().any(|x| x.msg.contains("`eps`")), "{iter:?}");
    assert!(iter.iter().any(|x| x.msg.contains("`seen`")), "{iter:?}");
    // A local that shares the field's name but is bound to an escaped
    // iterator is not the field: `for ep in eps` stays silent.
    let at = |needle: &str| src.lines().position(|l| l.contains(needle)).unwrap() + 1;
    let lines: Vec<usize> = iter.iter().map(|x| x.line).collect();
    assert!(lines.contains(&at("for _ in &self.eps")), "{iter:?}");
    assert!(!lines.contains(&at("for ep in eps")), "{iter:?}");
}

#[test]
fn default_hasher_fixture_fires() {
    let src = fixture("default_hasher.rs");
    for crate_dir in ["lrts-ugni", "mempool", "core"] {
        let f = lint_source(crate_dir, "fixtures/default_hasher.rs", &src);
        assert_eq!(rules(&f), ["default-hasher"], "{crate_dir}: {f:?}");
        // Both imports, both fields (bare and path-qualified), the
        // signature and the constructor — but NOT the aliases, the
        // BTreeMap, the comment, or the test module.
        let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [4, 5, 13, 14, 17, 18], "{crate_dir}: {f:?}");
        assert!(f[0].msg.contains("DetHashMap"), "{f:?}");
        assert!(f[1].msg.contains("DetHashSet"), "{f:?}");
    }
}

#[test]
fn default_hasher_rule_exempts_the_alias_module_and_other_crates() {
    let src = fixture("default_hasher.rs");
    let f = lint_source("sim-core", "crates/sim-core/src/hash.rs", &src);
    assert!(f.is_empty(), "the aliases are defined there: {f:?}");
    // Figure drivers, the verifier and the linter keep what they like.
    for crate_dir in ["apps", "bench", "ugni-verify", "lint"] {
        let f = lint_source(crate_dir, "fixtures/default_hasher.rs", &src);
        assert!(f.is_empty(), "{crate_dir}: {f:?}");
    }
}

#[test]
fn hashmap_rule_only_applies_to_sim_crates() {
    let src = fixture("hashmap_iter.rs");
    // `apps` is not a simulation crate: figure drivers may use hash
    // iteration where order cannot reach simulated state.
    let f = lint_source("apps", "fixtures/hashmap_iter.rs", &src);
    assert!(f.is_empty(), "findings: {f:?}");
}

#[test]
fn unwrap_in_recovery_fixture_fires() {
    let src = fixture("unwrap_in_recovery.rs");
    let f = lint_source("lrts-ugni", "fixtures/unwrap_in_recovery.rs", &src);
    assert_eq!(rules(&f), ["unwrap-in-recovery"], "findings: {f:?}");
    // conn_retry's unwrap and repost_after_error's expect — but NOT the
    // unwrap in fresh_send (not a recovery path).
    assert_eq!(f.len(), 2, "findings: {f:?}");
    assert!(f.iter().any(|x| x.msg.contains("conn_retry")));
    assert!(f.iter().any(|x| x.msg.contains("repost_after_error")));
    assert!(!f.iter().any(|x| x.msg.contains("fresh_send")));
}

#[test]
fn unwrap_in_restore_fixture_fires() {
    let src = fixture("unwrap_in_restore.rs");
    let f = lint_source("lrts-ugni", "fixtures/unwrap_in_restore.rs", &src);
    assert_eq!(rules(&f), ["unwrap-in-recovery"], "findings: {f:?}");
    // The FT restore/checkpoint keywords are recovery paths too; the
    // unwrap in fresh_wave stays out of scope.
    assert_eq!(f.len(), 2, "findings: {f:?}");
    assert!(f.iter().any(|x| x.msg.contains("restore_snapshot")));
    assert!(f.iter().any(|x| x.msg.contains("take_checkpoint")));
    assert!(!f.iter().any(|x| x.msg.contains("fresh_wave")));
}

#[test]
fn std_time_fixture_fires() {
    let src = fixture("std_time.rs");
    let f = lint_source("gemini-net", "fixtures/std_time.rs", &src);
    assert_eq!(rules(&f), ["std-time"], "findings: {f:?}");
}

#[test]
fn unsafe_without_safety_fixture_fires() {
    let src = fixture("unsafe_without_safety.rs");
    // Every linted crate, not only the simulation ones.
    for crate_dir in ["sim-core", "core", "mempool", "lint"] {
        let f = lint_source(crate_dir, "fixtures/unsafe_without_safety.rs", &src);
        assert_eq!(rules(&f), ["unsafe-without-safety"], "{crate_dir}: {f:?}");
        // The bare impl, the block under a comment that states no
        // invariant and the fn under a detached SAFETY line — but NOT the
        // commented impl, the commented blocks, the doc comment, the
        // attribute, the string or the test module.
        let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, [4, 11, 26], "{crate_dir}: {f:?}");
    }
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
fn charge_category_fixture_fires() {
    let src = fixture("charge_unpaired.rs");
    let f = lint_source("core", "fixtures/charge_unpaired.rs", &src);
    assert_eq!(rules(&f), ["charge-category"], "findings: {f:?}");
    // charge_overhead records the wrong Kind; charge_recovery is paired.
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert!(f[0].msg.contains("charge_overhead"));
    assert!(f[0].msg.contains("Kind::Overhead"));
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
fn thread_spawn_fixture_fires() {
    let src = fixture("thread_spawn.rs");
    let f = lint_source("gemini-net", "fixtures/thread_spawn.rs", &src);
    assert_eq!(rules(&f), ["thread-outside-parallel"], "findings: {f:?}");
    // spawn, Mutex, AtomicU64, Barrier, mpsc — but NOT the thread-ok:
    // counter and NOT the SpinBarrier identifier (left boundary).
    assert_eq!(f.len(), 5, "findings: {f:?}");
    assert!(f.iter().any(|x| x.msg.contains("std::thread")));
    assert!(f.iter().any(|x| x.msg.contains("`Mutex`")));
    assert!(f.iter().any(|x| x.msg.contains("`Atomic`")));
    assert!(f.iter().any(|x| x.msg.contains("`Barrier`")));
    assert!(f.iter().any(|x| x.msg.contains("`mpsc`")));
    // Whole-word patterns need both boundaries: `BarrierStats` and
    // `mpscish` must not fire (the count above would be 7 otherwise).
}

#[test]
fn thread_rule_exempts_the_parallel_driver() {
    let src = fixture("thread_spawn.rs");
    // Both sanctioned files: the windowed driver and its sync layer.
    for path in [
        "crates/sim-core/src/parallel.rs",
        "crates/sim-core/src/sync.rs",
    ] {
        let f = lint_source("sim-core", path, &src);
        assert!(
            !f.iter().any(|x| x.rule == "thread-outside-parallel"),
            "{path} findings: {f:?}"
        );
    }
}

#[test]
fn spin_loop_fixture_fires() {
    let src = fixture("spin_loop.rs");
    let f = lint_source("sim-core", "fixtures/spin_loop.rs", &src);
    assert_eq!(rules(&f), ["thread-outside-parallel"], "findings: {f:?}");
    // spin_loop (std + core paths) and thread::yield_now — but NOT the
    // thread-ok: probe, and NOT inside longer identifiers.
    assert_eq!(f.len(), 3, "findings: {f:?}");
    assert!(f.iter().any(|x| x.msg.contains("`spin_loop`")));
    assert!(f.iter().any(|x| x.msg.contains("`yield_now`")));
}

#[test]
fn spin_loop_rule_exempts_the_sync_module() {
    let src = fixture("spin_loop.rs");
    let f = lint_source("sim-core", "crates/sim-core/src/sync.rs", &src);
    assert!(
        !f.iter().any(|x| x.rule == "thread-outside-parallel"),
        "findings: {f:?}"
    );
}

#[test]
fn thread_rule_only_applies_to_sim_crates() {
    let src = fixture("thread_spawn.rs");
    // The driver crate (`core`) coordinates the worker pool and may hold
    // atomics; benches and apps thread freely.
    for crate_dir in ["core", "apps", "bench"] {
        let f = lint_source(crate_dir, "fixtures/thread_spawn.rs", &src);
        assert!(
            !f.iter().any(|x| x.rule == "thread-outside-parallel"),
            "{crate_dir} findings: {f:?}"
        );
    }
}

#[test]
fn test_modules_are_exempt() {
    let src = "use sim_core::DetHashMap;\n\
               pub struct S { m: DetHashMap<u32, u32> }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   use std::collections::HashMap;\n\
                   fn conn_retry() { None::<u32>.unwrap(); }\n\
                   fn f(s: &super::S) { for _ in s.m.keys() {} }\n\
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
                   fn conn_retry() { None::<u32>.unwrap(); }\n\
               }\n\
               pub fn conn_retry() -> u32 { None::<u32>.unwrap() }\n";
    let f = lint_source("sim-core", "inline.rs", src);
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert_eq!(f[0].rule, "unwrap-in-recovery");
    assert_eq!(f[0].line, 5, "findings: {f:?}");

    // A `#[cfg(test)]` on a single use statement exempts only that line.
    let src2 = "#[cfg(test)]\n\
                use std::time::Instant;\n\
                pub fn later() { let _ = std::time::Duration::ZERO; }\n";
    let f2 = lint_source("sim-core", "inline.rs", src2);
    assert_eq!(f2.len(), 1, "findings: {f2:?}");
    assert_eq!(f2[0].rule, "std-time");
    assert_eq!(f2[0].line, 3, "findings: {f2:?}");
}

#[test]
fn comments_and_strings_do_not_fire() {
    let src = "pub struct S { m: sim_core::DetHashMap<u32, u32> }\n\
               // for k in self.m.keys() { } over a HashMap\n\
               pub fn msg() -> &'static str { \"m.iter() via std::time HashSet\" }\n";
    let f = lint_source("sim-core", "inline.rs", src);
    assert!(f.is_empty(), "findings: {f:?}");
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let f = lint_workspace(root);
    assert!(
        f.is_empty(),
        "workspace lint findings:\n{}",
        f.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
