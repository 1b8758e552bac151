//! Greedy allocation of measurer capacity to a measurement (§4.2).
//!
//! To measure a relay with capacity estimate `z₀`, the BWAuth must
//! allocate `f·z₀` of total measurer capacity across the team, subject to
//! each measurer's own capacity: "We greedily allocate capacity by
//! repeatedly assigning the measurer with the most residual capacity to
//! use all its remaining capacity or as much as is needed to reach
//! `f·z₀`."

/// Failure to allocate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocError {
    /// The team's total residual capacity is below the requirement.
    InsufficientCapacity {
        /// What was needed (bytes/s).
        needed: f64,
        /// What was available (bytes/s).
        available: f64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::InsufficientCapacity { needed, available } => write!(
                f,
                "insufficient measurer capacity: need {:.1} Mbit/s, have {:.1} Mbit/s",
                needed * 8.0 / 1e6,
                available * 8.0 / 1e6
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// Greedily allocates `needed` capacity across measurers with the given
/// `residual` capacities (bytes/s). Returns per-measurer allocations
/// `a_i` (zero for measurers not participating), in input order.
///
/// The greedy rule is the paper's: repeatedly take the measurer with the
/// most residual capacity and assign all of it, or as much as is still
/// needed.
///
/// # Errors
/// [`AllocError::InsufficientCapacity`] if the residuals sum to less than
/// `needed`.
///
/// # Panics
/// Panics if any residual is negative or non-finite, or `needed` is
/// negative or non-finite.
pub fn greedy_allocate(residual: &[f64], needed: f64) -> Result<Vec<f64>, AllocError> {
    assert!(needed.is_finite() && needed >= 0.0, "bad requirement {needed}");
    for r in residual {
        assert!(r.is_finite() && *r >= 0.0, "bad residual capacity {r}");
    }
    let available: f64 = residual.iter().sum();
    if available + 1e-9 < needed {
        return Err(AllocError::InsufficientCapacity { needed, available });
    }

    let mut alloc = vec![0.0f64; residual.len()];
    let mut remaining = needed;
    // Index order of descending residual capacity (stable for ties).
    let mut order: Vec<usize> = (0..residual.len()).collect();
    order.sort_by(|&a, &b| residual[b].partial_cmp(&residual[a]).expect("finite").then(a.cmp(&b)));
    for i in order {
        if remaining <= 0.0 {
            break;
        }
        let take = residual[i].min(remaining);
        alloc[i] = take;
        remaining -= take;
    }
    debug_assert!(remaining <= 1e-6 * needed.max(1.0), "allocation fell short");
    Ok(alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_simnet::units::Rate;

    #[test]
    fn biggest_measurer_first() {
        let residual = [100.0, 300.0, 200.0];
        let alloc = greedy_allocate(&residual, 250.0).unwrap();
        // Measurer 1 (300) covers everything needed.
        assert_eq!(alloc, vec![0.0, 250.0, 0.0]);
    }

    #[test]
    fn spills_to_second_measurer() {
        let residual = [100.0, 300.0, 200.0];
        let alloc = greedy_allocate(&residual, 450.0).unwrap();
        assert_eq!(alloc, vec![0.0, 300.0, 150.0]);
    }

    #[test]
    fn exact_fit_uses_everything() {
        let residual = [100.0, 50.0];
        let alloc = greedy_allocate(&residual, 150.0).unwrap();
        assert_eq!(alloc, vec![100.0, 50.0]);
    }

    #[test]
    fn insufficient_capacity_reported() {
        let err = greedy_allocate(&[10.0, 10.0], 100.0).unwrap_err();
        match err {
            AllocError::InsufficientCapacity { needed, available } => {
                assert_eq!(needed, 100.0);
                assert_eq!(available, 20.0);
            }
        }
    }

    #[test]
    fn zero_needed_allocates_nothing() {
        let alloc = greedy_allocate(&[10.0, 10.0], 0.0).unwrap();
        assert_eq!(alloc, vec![0.0, 0.0]);
    }

    #[test]
    fn allocation_sums_to_needed() {
        let residual = [954.0, 946.0, 941.0, 1076.0, 1611.0];
        let needed = 2362.5; // Appendix F's 800 Mbit/s × f example
        let alloc = greedy_allocate(&residual, needed).unwrap();
        let total: f64 = alloc.iter().sum();
        assert!((total - needed).abs() < 1e-9);
        for (a, r) in alloc.iter().zip(&residual) {
            assert!(a <= r, "allocation exceeds residual");
        }
    }

    #[test]
    fn largest_residual_is_used_up_first() {
        let residual = [Rate::from_mbit(1000.0), Rate::from_mbit(500.0)].map(|r| r.bytes_per_sec());
        let alloc = greedy_allocate(&residual, Rate::from_mbit(1200.0).bytes_per_sec()).unwrap();
        assert!((Rate::from_bytes_per_sec(alloc[0]).as_mbit() - 1000.0).abs() < 1e-9);
        assert!((Rate::from_bytes_per_sec(alloc[1]).as_mbit() - 200.0).abs() < 1e-9);
    }
}
