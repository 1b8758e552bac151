//! Measurement teams and measuring the measurers (§4, §4.2).
//!
//! A *measurement team* is a set of measurer hosts whose resources are
//! dedicated to the measurement process, coordinated by a BWAuth. The
//! team's requirement is collective: its summed capacity must be at least
//! `f` times the largest relay capacity it will measure.
//!
//! Measurer capacities are themselves estimated ("measuring measurers"):
//! each measurer exchanges bidirectional UDP iPerf traffic with every
//! other team member concurrently for 60 seconds, and the estimate is the
//! median per-second rate at which it simultaneously sent and received.
//! Only a lower bound is needed — an underestimate slows the schedule but
//! never hurts accuracy.

use flashflow_simnet::host::HostId;
use flashflow_simnet::iperf;
use flashflow_simnet::time::SimDuration;
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;

use crate::alloc::{greedy_allocate, AllocError};
use crate::params::Params;

/// One measurer in a team.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurer {
    /// The host the measurer runs on.
    pub host: HostId,
    /// Estimated network forwarding capacity (lower bound).
    pub capacity: Rate,
    /// CPU cores available for measurement Tor processes (`k_i` ≤ cores).
    pub cores: u32,
}

/// A BWAuth's measurement team.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Team {
    /// The measurers, in a stable order.
    pub measurers: Vec<Measurer>,
}

impl Team {
    /// A team from explicit members.
    pub fn new(measurers: Vec<Measurer>) -> Self {
        Team { measurers }
    }

    /// A team with the given hosts and *known* capacities (used when the
    /// operator provisions fixed hosts, e.g. §7's "3 measurers with
    /// 1 Gbit/s of bandwidth each").
    pub fn with_capacities(members: &[(HostId, Rate)]) -> Self {
        Team {
            measurers: members
                .iter()
                .map(|(host, capacity)| Measurer { host: *host, capacity: *capacity, cores: 1 })
                .collect(),
        }
    }

    /// Builds a team by *measuring the measurers*: runs the concurrent
    /// bidirectional iPerf procedure for each host against the others.
    pub fn from_iperf(tor: &mut TorNet, hosts: &[HostId], probe: SimDuration) -> Self {
        assert!(hosts.len() >= 2, "measuring measurers needs at least two hosts");
        let mut measurers = Vec::with_capacity(hosts.len());
        for &host in hosts {
            let report = iperf::measure_measurer(&mut tor.net, host, hosts, probe);
            let cores = tor.net.profile(host).cores;
            measurers.push(Measurer { host, capacity: report.median_rate, cores });
        }
        Team { measurers }
    }

    /// Number of measurers.
    pub fn len(&self) -> usize {
        self.measurers.len()
    }

    /// True if the team has no measurers.
    pub fn is_empty(&self) -> bool {
        self.measurers.is_empty()
    }

    /// Total team capacity.
    pub fn total_capacity(&self) -> Rate {
        self.measurers.iter().map(|m| m.capacity).sum()
    }

    /// Each measurer's capacity left after `reserved[i]`, in bytes/s.
    fn residuals<'a>(&'a self, reserved: &'a [Rate]) -> impl Iterator<Item = f64> + 'a {
        assert_eq!(reserved.len(), self.measurers.len(), "reserved length mismatch");
        self.measurers
            .iter()
            .zip(reserved)
            .map(|(m, r)| (m.capacity.bytes_per_sec() - r.bytes_per_sec()).max(0.0))
    }

    /// The team capacity (bytes/s) still unreserved after `reserved`:
    /// the residual sum [`Team::allocate`] tests `f·z₀` against, so an
    /// allocation succeeds exactly when `spare + 1e-9 ≥ f·z₀`.
    ///
    /// # Panics
    /// Panics if `reserved` has the wrong length.
    pub fn spare(&self, reserved: &[Rate]) -> f64 {
        self.residuals(reserved).sum()
    }

    /// Allocates `f·z0` of team capacity for a measurement of a relay
    /// whose current estimate is `z0`, greedily (§4.2). `reserved[i]`
    /// holds capacity already committed to concurrent measurements.
    ///
    /// # Errors
    /// Propagates [`AllocError`] when the residual capacity is
    /// insufficient.
    ///
    /// # Panics
    /// Panics if `reserved` has the wrong length.
    pub fn allocate(
        &self,
        z0: Rate,
        params: &Params,
        reserved: &[Rate],
    ) -> Result<Vec<Rate>, AllocError> {
        let residual: Vec<f64> = self.residuals(reserved).collect();
        let needed = params.excess_factor() * z0.bytes_per_sec();
        Ok(greedy_allocate(&residual, needed)?.into_iter().map(Rate::from_bytes_per_sec).collect())
    }

    /// Per-measurer socket shares: `s/m` sockets each (§4.1, with `m` the
    /// number of *participating* measurers).
    pub fn socket_shares(&self, allocations: &[Rate], params: &Params) -> Vec<u32> {
        let participating = allocations.iter().filter(|a| !a.is_zero()).count().max(1);
        let share = (params.sockets as usize / participating).max(1) as u32;
        allocations.iter().map(|a| if a.is_zero() { 0 } else { share }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashflow_simnet::host::HostProfile;

    fn team_of(capacities_mbit: &[f64]) -> Team {
        let members: Vec<(HostId, Rate)> = capacities_mbit
            .iter()
            .enumerate()
            .map(|(i, c)| {
                // Host ids are only labels here; fabricate stable ones by
                // building a tiny net.
                let _ = i;
                (fake_host(i), Rate::from_mbit(*c))
            })
            .collect();
        Team::with_capacities(&members)
    }

    fn fake_host(i: usize) -> HostId {
        // Create i+1 hosts in a scratch net and return the last id.
        let mut net = flashflow_simnet::host::Net::new();
        let mut last = None;
        for k in 0..=i {
            last = Some(net.add_host(HostProfile::new(format!("h{k}"), Rate::from_gbit(1.0))));
        }
        last.unwrap()
    }

    #[test]
    fn total_capacity_sums() {
        let team = team_of(&[1000.0, 1000.0, 1000.0]);
        assert!((team.total_capacity().as_mbit() - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_respects_reservations() {
        let params = Params::paper();
        let team = team_of(&[1000.0, 1000.0, 1000.0]);
        let reserved = vec![Rate::from_mbit(900.0), Rate::ZERO, Rate::ZERO];
        let alloc = team.allocate(Rate::from_mbit(500.0), &params, &reserved).unwrap();
        // Measurer 0 has only 100 Mbit/s left; the greedy allocator uses
        // the others first.
        let needed = params.excess_factor() * 500.0;
        let total: f64 = alloc.iter().map(|a| a.as_mbit()).sum();
        assert!((total - needed).abs() < 1e-6);
        assert!(alloc[0].as_mbit() <= 100.0 + 1e-9);
    }

    #[test]
    fn allocation_failure_when_exhausted() {
        let params = Params::paper();
        let team = team_of(&[100.0, 100.0]);
        let reserved = vec![Rate::ZERO, Rate::ZERO];
        assert!(team.allocate(Rate::from_mbit(500.0), &params, &reserved).is_err());
    }

    #[test]
    fn socket_shares_split_evenly_among_participants() {
        let params = Params::paper();
        let team = team_of(&[1000.0, 1000.0, 1000.0, 1000.0]);
        let allocations =
            vec![Rate::from_mbit(100.0), Rate::ZERO, Rate::from_mbit(100.0), Rate::ZERO];
        let shares = team.socket_shares(&allocations, &params);
        assert_eq!(shares, vec![80, 0, 80, 0]);
    }

    #[test]
    fn from_iperf_estimates_capacities() {
        let mut tor = TorNet::new();
        let hosts: Vec<HostId> =
            HostProfile::table1().into_iter().map(|p| tor.add_host(p)).collect();
        let team = Team::from_iperf(&mut tor, &hosts, SimDuration::from_secs(5));
        assert_eq!(team.len(), 5);
        for m in &team.measurers {
            // Every Table 1 host can forward at least 900 Mbit/s.
            assert!(m.capacity.as_mbit() > 500.0, "{:?}", m);
        }
    }
}
