//! `cargo run -p lint-pass [-- --json <file>] [--list-rules]`: run the
//! workspace lints, lexical and call-graph, and exit nonzero on any
//! finding (CI gates on this).
//!
//! * `--json <file>` write a machine-readable report (`-` for stdout).
//! * `--list-rules`  print every rule with a one-line description.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => match args.next() {
                Some(p) => json = Some(p),
                None => {
                    eprintln!("lint-pass: --json requires a file argument (or `-`)");
                    return ExitCode::FAILURE;
                }
            },
            "--list-rules" => {
                for (rule, desc) in lint_pass::rule_descriptions() {
                    println!("{rule:<24} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("lint-pass: unknown argument `{other}`");
                eprintln!("usage: lint-pass [--json <file>] [--list-rules]");
                return ExitCode::FAILURE;
            }
        }
    }

    // tools/lint -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let findings = lint_pass::lint_workspace(root);

    if let Some(path) = &json {
        let report = lint_pass::report_json(&findings);
        if path == "-" {
            print!("{report}");
        } else if let Err(e) = std::fs::write(path, report) {
            eprintln!("lint-pass: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if findings.is_empty() {
        println!("lint-pass: workspace clean");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    println!("lint-pass: {} finding(s)", findings.len());
    ExitCode::FAILURE
}
