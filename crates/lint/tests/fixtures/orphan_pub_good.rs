// Every `pub` item here is reached: `snapshot` is named by a caller in
// another file, and the rest are exempt or reached through it.

/// Named only in `snapshot`'s signature, which a caller names.
pub struct Histogram {
    pub buckets: Vec<u64>,
}

pub fn snapshot() -> Histogram {
    Histogram { buckets: helper() }
}

/// Crate-visible, not public surface.
pub(crate) fn helper() -> Vec<u64> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    /// Test-only code may expose whatever its tests need.
    pub fn fixture() -> u64 {
        super::snapshot().buckets.len() as u64
    }
}
