// Fixture: violates the worker-purity graph rule three ways (thread
// primitive, serial-only call, static touch) behind one level of helper
// indirection each. Never compiled; fed to graph::analyze by
// tools/lint/tests/graph.rs.
use std::sync::Mutex;

static WORKER_SEED: u32 = 7;

// serial-only: applies effects to shared queues
fn apply_effect(x: u32) -> u32 {
    x + 1
}

fn log_stat(x: u32) -> u32 {
    let m = Mutex::new(x);
    *m.lock().expect("poisoned")
}

fn helper(x: u32) -> u32 {
    log_stat(x)
}

fn read_seed() -> u32 {
    WORKER_SEED
}

pub fn pe_run(x: u32) -> u32 {
    let a = helper(x);
    let b = apply_effect(a);
    a + b + read_seed()
}
