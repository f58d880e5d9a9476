// Fixture: violates the recovery-panic-freedom graph rule — the panic
// sits two calls below the recovery root, outside the root's own body.
// Never compiled.
pub struct Conn {
    seq: Option<u64>,
}

impl Conn {
    fn latest_seq(&self) -> u64 {
        finalize(self.seq)
    }
}

fn finalize(v: Option<u64>) -> u64 {
    v.unwrap()
}

fn validate(v: u64) {
    debug_assert!(v > 0);
}

pub fn recover_link(c: &Conn) -> u64 {
    let s = c.latest_seq();
    validate(s);
    s
}

// Not a recovery path: the unreachable panic below it is out of scope.
pub fn fresh_path(c: &Conn) -> u64 {
    c.seq.unwrap_or(0)
}
