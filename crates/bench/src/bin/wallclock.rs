//! `cargo run --release -p charm-bench --bin wallclock [-- --quick]`
//!
//! Runs the wall-clock suite (see `charm_bench::wallclock`), prints the
//! events/sec table, writes `BENCH_wallclock.json` at the repo root, and
//! exits nonzero if any workload's *virtual* end time drifted from its
//! pinned value — engine fast-path work must never move virtual time, at
//! any thread count.
//!
//! Flags:
//! * `--quick` — CI shape;
//! * `--threads N[,M,...]` — run the suite once per listed worker-thread
//!   count (1 = sequential engine; default `1`), appending one history
//!   row per count;
//! * `--rev REV` — git revision recorded in the appended history rows
//!   (default: `unknown`);
//! * `--no-write` — skip the JSON;
//! * `--print-pins` — emit the PINS table rows measured by this build.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_write = args.iter().any(|a| a == "--no-write");
    let print_pins = args.iter().any(|a| a == "--print-pins");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let rev = flag_value("--rev").unwrap_or_else(|| "unknown".into());
    let threads: Vec<u32> = flag_value("--threads")
        .map(|s| {
            s.split(',')
                .map(|t| t.trim().parse().expect("--threads takes e.g. 1,2,4,8"))
                .collect()
        })
        .unwrap_or_else(|| vec![1]);
    let e = if quick {
        charm_bench::Effort::quick()
    } else {
        charm_bench::Effort::default()
    };

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let path = root.join("BENCH_wallclock.json");
    let mut history = std::fs::read_to_string(&path)
        .map(|old| charm_bench::wallclock::extract_history(&old))
        .unwrap_or_default();

    let mut last: Option<charm_bench::WallSuite> = None;
    let mut drift = false;
    for &t in &threads {
        let suite = charm_bench::wallclock::wallclock_suite_threads(&e, t);
        println!("-- threads = {t} --");
        print!("{}", suite.render());
        for r in suite.drifted() {
            eprintln!(
                "VIRTUAL-TIME DRIFT (threads={t}): {}/{} ended at {} ns, pinned {} ns",
                r.name,
                r.layer,
                r.virtual_end_ns,
                r.pinned_end_ns.unwrap()
            );
            drift = true;
        }
        history.push(suite.history_record(&rev));
        if let Some(row) = suite.aggregation_history_record(&rev) {
            history.push(row);
        }
        last = Some(suite);
    }
    let suite = last.expect("at least one thread count");

    // Aggregation figure gate (ISSUE 10): >= 1.5x host events/s on the
    // fine-grained AM traffic plus a virtual-time win, checked on the
    // last sweep's rows.
    let agg_fail = suite.aggregation_gate();
    if let Some((off, on)) = suite.aggregation_legs() {
        println!(
            "aggregation figure: host speedup {:.2}x (wall {} -> {} ns), \
             virtual {} -> {} ns",
            off.wall_ns as f64 / on.wall_ns.max(1) as f64,
            off.wall_ns,
            on.wall_ns,
            off.virtual_end_ns,
            on.virtual_end_ns,
        );
    }
    if let Some(msg) = &agg_fail {
        eprintln!("wallclock: {msg}");
    }

    if print_pins {
        println!("\n// measured PINS rows for this build:");
        for r in &suite.runs {
            println!(
                "    (\"{}\", \"{}\", {}, {}),",
                r.name, r.layer, suite.quick, r.virtual_end_ns
            );
        }
    }

    if !no_write {
        std::fs::write(&path, suite.to_json_with_history(&history))
            .expect("write BENCH_wallclock.json");
        println!("wrote {}", path.display());
    }

    if drift {
        eprintln!("wallclock: engine changed virtual time; this is a correctness bug");
        return ExitCode::FAILURE;
    }
    if agg_fail.is_some() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
