// Fixture: violates the default-hasher rule (not compiled into the
// workspace; fed to the linter by tools/lint/tests/lint.rs).
use sim_core::{DetHashMap, DetHashSet};
use std::collections::HashMap;
use std::collections::{BTreeMap, HashSet};

pub struct Layer {
    // The aliases and ordered maps are what the rule asks for.
    eps: DetHashMap<(u32, u32), u32>,
    seen: DetHashSet<u64>,
    ordered: BTreeMap<u64, u32>,
    // A HashMap in a comment is not code.
    sends: HashMap<u64, u32>,
    by_path: std::collections::HashMap<u64, u32>,
}

pub fn fresh() -> HashSet<u64> {
    HashSet::new()
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    fn model() -> HashMap<u64, u64> {
        HashMap::new()
    }
}
