// Linted beside `orphan_pub_namesake_caller.rs`, which names every
// `pub` item here. It calls, paths or names as a type the first four;
// of the other seven it has only namesakes, so they are orphans.

/// Named as a type: `let circuit: Circuit`.
pub struct Circuit {
    hops: usize,
}

impl Circuit {
    /// Reached through a path: `Circuit::open()`.
    pub fn open() -> Circuit {
        Circuit { hops: 3 }
    }

    /// Reached through a method call: `circuit.extend()`.
    pub fn extend(&mut self) {
        self.hops += 1;
    }

    /// A `let` binding and its later reads.
    pub fn hops(&self) -> usize {
        self.hops
    }

    /// An `if let` pattern binding.
    pub fn window(&self) -> u64 {
        0
    }

    /// A struct-field definition and a field access.
    pub fn credit(&self) -> u64 {
        0
    }

    /// A closure parameter.
    pub fn total(&self) -> u64 {
        0
    }

    /// A `match` arm binding.
    pub fn span(&self) -> u64 {
        0
    }

    /// A `for` loop binding.
    pub fn step(&self) -> u64 {
        0
    }

    /// A function parameter.
    pub fn limit(&self) -> u64 {
        0
    }
}

/// Reached through a call: `fx::measure()`.
pub fn measure() -> u64 {
    0
}
