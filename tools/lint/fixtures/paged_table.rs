// Fixture for `hand-rolled-paged-table`: a second first-touch page table
// outside sim-core/src/lazy.rs. Never compiled.

pub struct PeTable {
    pages: Vec<Option<Box<[PeState]>>>, // FIRES: a hand-rolled page table
    len: usize,
}

/// A doc comment naming `Option<Box<[T]>>` is prose, not a table.
pub struct Cold {
    part: Option<Box<PeCold>>, // a boxed value, not a page
}

pub fn page(n: usize) -> Option<Box<[u64]>> { // FIRES: in a signature too
    None
}

pub struct Slab {
    pages: Vec<Option<Box<[u8]>>>, // FIRES: panic-ok: a trailing comment is no escape
}

#[cfg(test)]
mod tests {
    struct Model {
        pages: Vec<Option<Box<[u64]>>>, // test code is exempt
    }
}
