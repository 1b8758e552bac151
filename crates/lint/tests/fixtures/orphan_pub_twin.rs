// Linted as two files of one crate: the same uncalled `pub fn` defined
// in each. A definition is not a caller, so both are orphans.

/// Named only by its own definition and its twin's.
pub fn hops() -> usize {
    3
}
