// Fixture: recovery-panic-freedom in the recovery root's own body.
pub struct Conn {
    pending: Option<u64>,
}

impl Conn {
    pub fn conn_retry(&mut self) -> u64 {
        // Recovery path: must not abort on a shaken invariant.
        self.pending.unwrap()
    }

    pub fn repost_after_error(&mut self) -> u64 {
        self.pending.expect("no pending transfer")
    }

    // Not a recovery path: unwrap here is out of scope for the rule.
    pub fn fresh_send(&mut self) -> u64 {
        self.pending.unwrap()
    }
}
