// Fixture: violates the hashmap-iter rule (not compiled into the
// workspace; fed to the linter by tools/lint/tests/lint.rs).
use sim_core::{DetHashMap, DetHashSet};
use std::collections::{HashMap, HashSet};

pub struct Table {
    pending: HashMap<u64, u32>,
}

impl Table {
    pub fn total(&self) -> u32 {
        let mut sum = 0;
        for (_, v) in self.pending.iter() {
            sum += v;
        }
        sum
    }

    pub fn drop_all(&mut self) {
        for k in self.pending.keys() {
            let _ = k;
        }
    }
}

pub fn union(a: HashSet<u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for v in &a {
        out.push(*v);
    }
    out
}

// The fixed-hasher aliases are hash-ordered all the same.
pub struct Conns {
    eps: DetHashMap<(u32, u32), u32>,
}

impl Conns {
    pub fn first(&self) -> Option<u32> {
        self.eps.values().next().copied()
    }

    pub fn count(&self) -> usize {
        let mut n = 0;
        for _ in &self.eps {
            n += 1;
        }
        n
    }

    // Silent: the local `eps` is the escaped iterator, not the field.
    pub fn reset(&mut self) {
        let eps = self.eps.values_mut(); // hash-ok: each entry is reset on its own
        for ep in eps {
            *ep = 0;
        }
    }
}

pub fn count_seen() -> usize {
    let mut seen = DetHashSet::default();
    seen.insert(1u32);
    let mut n = 0;
    for _ in &seen {
        n += 1;
    }
    n
}
