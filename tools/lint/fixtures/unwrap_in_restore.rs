// Fixture: recovery-panic-freedom also roots at the fault-tolerance
// restore/checkpoint paths (a shaken invariant mid-recovery must surface
// as a finding, not abort the run).
pub struct Wave {
    snap: Option<Vec<u8>>,
}

impl Wave {
    pub fn restore_snapshot(&mut self) -> Vec<u8> {
        self.snap.take().unwrap()
    }

    pub fn take_checkpoint(&mut self) -> usize {
        self.snap.as_ref().expect("no snapshot").len()
    }

    // Not a recovery path: unwrap here is out of scope for the rule.
    pub fn fresh_wave(&mut self) -> usize {
        self.snap.as_ref().unwrap().len()
    }
}
