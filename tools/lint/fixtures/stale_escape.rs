// Fixture: the stale-escape rule. Scanned as a simulation crate; never
// compiled.
pub struct Conn {
    seq: Option<u64>,
}

pub fn recover_link(c: &Conn) -> u64 {
    // panic-ok: live — the unwrap below is reachable from a recovery root
    let s = c.seq.unwrap();
    // panic-ok: stale — nothing on the next line can panic
    let t = s;
    let doc = "a `// panic-ok: <why>` inside a string documents the escape";
    // So does one quoted in inline code: `// panic-ok: <why>`.
    t + doc.len() as u64
}

pub fn sync_send(b: &[u8]) -> Vec<u8> {
    let n = b.len(); // copy-ok: stale — no copy on this line
    let _ = n;
    b.to_vec() // copy-ok: live — the send owns its buffer
}

pub fn deliver(b: &[u8]) -> usize {
    b.len() // coverage-ok: a retired rule's escape names no live rule
}
