// Fixture: violates the unsafe-without-safety rule.
pub struct Raw(*const u8);

unsafe impl Send for Raw {}

// SAFETY: the pointer is never dereferenced off its owning thread.
unsafe impl Sync for Raw {}

pub fn read(r: &Raw) -> u8 {
    // Reads the byte behind the pointer.
    unsafe { *r.0 }
}

pub fn read_checked(r: &Raw) -> u8 {
    // SAFETY: `Raw` is only built from a live `&u8`, and the
    // borrow outlives every handle.
    unsafe { *r.0 }
}

pub fn read_inline(r: &Raw) -> u8 {
    unsafe { *r.0 } // SAFETY: as in `read_checked`.
}

// SAFETY: a comment separated from the code by a blank line covers nothing.

pub unsafe fn raw_read(r: &Raw) -> u8 {
    *r.0
}

/// Mentions unsafe in a doc comment and `unsafe_code` in an attribute.
#[allow(unsafe_code)]
pub fn not_unsafe() -> &'static str {
    "unsafe in a string"
}

#[cfg(test)]
mod tests {
    fn in_a_test(r: &super::Raw) -> u8 {
        unsafe { *r.0 }
    }
}
