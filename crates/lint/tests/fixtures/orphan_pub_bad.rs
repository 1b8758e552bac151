// Three orphans: no other file names any of them.

/// Named only here.
pub struct Unused {
    pub count: u64,
}

/// Its only other mention is its crate's `lib.rs` re-export, which
/// moves the orphan rather than calling it.
pub const REEXPORTED: u64 = 7;

impl Unused {
    pub fn total(&self) -> u64 {
        self.count + REEXPORTED
    }
}
