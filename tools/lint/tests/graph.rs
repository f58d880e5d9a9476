//! Graph-pass tests: each reachability rule must fire on its seeded
//! fixture with a witness chain, go quiet under the documented escape (or
//! when the violation is mutated away), and the real workspace must scan
//! clean under the whole pass, lexical and graph.

use lint_pass::graph::{self, Graph};
use lint_pass::{lint_workspace, report_json, Finding};
use std::path::Path;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn analyze_src(name: &str, src: &str) -> Vec<Finding> {
    graph::analyze(&[(
        "core".to_string(),
        format!("fixtures/{name}"),
        src.to_string(),
    )])
}

fn rules(findings: &[Finding]) -> Vec<&str> {
    let mut r: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    r.sort();
    r.dedup();
    r
}

fn chain_of<'a>(findings: &'a [Finding], msg_part: &str) -> &'a [String] {
    &findings
        .iter()
        .find(|f| f.msg.contains(msg_part))
        .unwrap_or_else(|| panic!("no finding mentioning {msg_part:?}: {findings:?}"))
        .chain
}

// ---------------------------------------------------------------- worker

#[test]
fn worker_purity_fixture_fires() {
    let src = fixture("graph_worker_impure.rs");
    let f = analyze_src("graph_worker_impure.rs", &src);
    assert_eq!(rules(&f), ["worker-purity"], "findings: {f:?}");
    assert_eq!(f.len(), 3, "findings: {f:?}");

    // Thread primitive two calls below the entry point, witness chain
    // from the root through the helper.
    let chain = chain_of(&f, "`Mutex`");
    assert!(chain[0].contains("pe_run"), "chain: {chain:?}");
    assert!(
        chain.last().unwrap().contains("log_stat"),
        "chain: {chain:?}"
    );
    assert!(
        chain.iter().any(|h| h.contains("helper")),
        "chain: {chain:?}"
    );

    // Serial-only marker on the callee, flagged at the worker's call site.
    assert!(f.iter().any(|x| x.msg.contains("apply_effect")));
    // Static touched inside a worker-reachable helper.
    assert!(f.iter().any(|x| x.msg.contains("WORKER_SEED")));
}

#[test]
fn worker_purity_escapes_and_mutations_go_quiet() {
    let src = fixture("graph_worker_impure.rs");

    // Escape every offending line with `// worker-ok:`.
    let escaped = src
        .replace(
            "let m = Mutex::new(x);",
            "let m = Mutex::new(x); // worker-ok: test escape",
        )
        .replace(
            "let b = apply_effect(a);",
            "let b = apply_effect(a); // worker-ok: test escape",
        )
        .replace(
            "    WORKER_SEED\n",
            "    WORKER_SEED // worker-ok: test escape\n",
        );
    let f = analyze_src("graph_worker_impure.rs", &escaped);
    assert!(f.is_empty(), "findings: {f:?}");

    // Rename the entry point: no root, no reachability, no findings.
    let unrooted = src.replace("pe_run", "some_run");
    let f = analyze_src("graph_worker_impure.rs", &unrooted);
    assert!(f.is_empty(), "findings: {f:?}");
}

#[test]
fn am_handler_root_fixture_fires() {
    // A named fn passed to `register_am` is a worker root: the thread
    // primitive one call below it and the static it reads both fire,
    // with witness chains starting at the handler.
    let src = fixture("graph_am_impure.rs");
    let f = analyze_src("graph_am_impure.rs", &src);
    assert_eq!(rules(&f), ["worker-purity"], "findings: {f:?}");
    assert_eq!(f.len(), 2, "findings: {f:?}");

    let chain = chain_of(&f, "`Mutex`");
    assert!(chain[0].contains("on_ping"), "chain: {chain:?}");
    assert!(chain.last().unwrap().contains("tally"), "chain: {chain:?}");
    assert!(f.iter().any(|x| x.msg.contains("AM_SEED")));
}

#[test]
fn am_handler_root_escapes_and_mutations_go_quiet() {
    let src = fixture("graph_am_impure.rs");

    // Escape both offending lines with `// worker-ok:`.
    let escaped = src
        .replace(
            "let m = Mutex::new(x);",
            "let m = Mutex::new(x); // worker-ok: test escape",
        )
        .replace(
            "tally(x) + AM_SEED",
            "tally(x) + AM_SEED // worker-ok: test escape",
        );
    let f = analyze_src("graph_am_impure.rs", &escaped);
    assert!(f.is_empty(), "findings: {f:?}");

    // Register a closure instead of the named fn: nothing roots on_ping.
    let closured = src.replace(
        "c.register_am::<u32>(on_ping)",
        "c.register_am::<u32>(move |x| x)",
    );
    let f = analyze_src("graph_am_impure.rs", &closured);
    assert!(f.is_empty(), "findings: {f:?}");

    // A *call* in argument position is the registering fn's business,
    // not a handler registration: `on_ping(7)` must not root it.
    let called = src.replace(
        "c.register_am::<u32>(on_ping)",
        "c.register_am::<u32>(on_ping(7))",
    );
    let f = analyze_src("graph_am_impure.rs", &called);
    assert!(f.is_empty(), "findings: {f:?}");
}

// -------------------------------------------------------------- recovery

#[test]
fn recovery_panic_fixture_fires() {
    let src = fixture("graph_recovery_panic.rs");
    let f = analyze_src("graph_recovery_panic.rs", &src);
    assert_eq!(rules(&f), ["recovery-panic-freedom"], "findings: {f:?}");
    // Exactly the transitive unwrap: debug_assert! is exempt, and
    // fresh_path is not a recovery root.
    assert_eq!(f.len(), 1, "findings: {f:?}");
    assert!(f[0].msg.contains("finalize"));

    // Witness: recover_link -> Conn::latest_seq -> finalize.
    let chain = &f[0].chain;
    assert!(chain[0].contains("recover_link"), "chain: {chain:?}");
    assert!(
        chain.iter().any(|h| h.contains("Conn::latest_seq")),
        "chain: {chain:?}"
    );
    assert!(
        chain.last().unwrap().contains("finalize"),
        "chain: {chain:?}"
    );
}

#[test]
fn unwrap_in_recovery_fixture_fires() {
    // A panic in the recovery root's own body: conn_retry's unwrap and
    // repost_after_error's expect, but NOT the unwrap in fresh_send (not a
    // recovery path).
    let src = fixture("unwrap_in_recovery.rs");
    let f = analyze_src("unwrap_in_recovery.rs", &src);
    assert_eq!(rules(&f), ["recovery-panic-freedom"], "findings: {f:?}");
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, [9, 13], "findings: {f:?}");
    assert!(!f.iter().any(|x| x.msg.contains("fresh_send")), "{f:?}");
}

#[test]
fn unwrap_in_restore_fixture_fires() {
    // The FT restore/checkpoint names are recovery roots too; the unwrap
    // in fresh_wave stays out of scope.
    let src = fixture("unwrap_in_restore.rs");
    let f = analyze_src("unwrap_in_restore.rs", &src);
    assert_eq!(rules(&f), ["recovery-panic-freedom"], "findings: {f:?}");
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, [10, 14], "findings: {f:?}");
    assert!(!f.iter().any(|x| x.msg.contains("fresh_wave")), "{f:?}");
}

#[test]
fn recovery_panic_escapes_and_mutations_go_quiet() {
    let src = fixture("graph_recovery_panic.rs");

    let escaped = src.replace(
        "    v.unwrap()",
        "    // panic-ok: test escape\n    v.unwrap()",
    );
    let f = analyze_src("graph_recovery_panic.rs", &escaped);
    assert!(f.is_empty(), "findings: {f:?}");

    // Rename the root so nothing recovery-named reaches the panic.
    let unrooted = src.replace("recover_link", "mainline_link");
    let f = analyze_src("graph_recovery_panic.rs", &unrooted);
    assert!(f.is_empty(), "findings: {f:?}");
}

// ------------------------------------------------------------ call graph

#[test]
fn call_graph_resolves_every_call_form() {
    let src = fixture("graph_resolve.rs");
    let g = Graph::build(&[(
        "core".to_string(),
        "fixtures/graph_resolve.rs".to_string(),
        src,
    )]);

    let callees = |name: &str| {
        let id = g.fn_id(name).unwrap_or_else(|| panic!("no fn {name}"));
        g.callee_names(id)
    };

    // Free call inside a method.
    assert_eq!(callees("step"), ["bump"]);
    // Self-method + qualified `Widget::reset(self)`.
    assert_eq!(callees("tick"), ["Widget::reset", "Widget::step"]);
    // Unknown-receiver method call resolves by name.
    assert_eq!(callees("drive"), ["Widget::tick"]);
    // Trait-default body dispatches to the implementor's override.
    assert_eq!(callees("run_twice"), ["Widget::go"]);
    // The override, in turn, hits the inherent method.
    assert_eq!(callees("go"), ["Widget::step"]);
}

#[test]
fn witness_chain_renders_in_display_and_json() {
    let src = fixture("graph_recovery_panic.rs");
    let f = analyze_src("graph_recovery_panic.rs", &src);
    assert_eq!(f.len(), 1);

    let shown = f[0].to_string();
    assert!(shown.contains("[recovery-panic-freedom]"), "{shown}");
    assert!(shown.contains("\n    via recover_link"), "{shown}");
    assert!(shown.contains("\n     -> finalize"), "{shown}");

    let json = report_json(&f);
    assert!(json.contains("\"schema\": 1"), "{json}");
    assert!(
        json.contains("\"rule\": \"recovery-panic-freedom\""),
        "{json}"
    );
    assert!(json.contains("\"count\": 1"), "{json}");
    assert!(json.contains("recover_link"), "{json}");
}

// ------------------------------------------------------------- workspace

#[test]
fn workspace_is_clean_under_full_pass() {
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
