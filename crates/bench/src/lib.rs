//! # flashflow-bench
//!
//! The experiment harness: one binary per table and figure of the paper
//! (see DESIGN.md §3 for the index), plus Criterion micro-benchmarks.
//! Each binary prints the same rows/series the paper reports, with the
//! paper's published values alongside for comparison, and is
//! deterministic given its default seed.

use flashflow_core::measure::{run_concurrent_measurements, Assignment, BatchItem, Measurement};
use flashflow_core::params::Params;
use flashflow_core::sequence::{measure_period, perfect_slot, Order};
use flashflow_core::team::Team;
use flashflow_core::verify::TargetBehavior;
use flashflow_simnet::host::{HostId, HostProfile, Net};
use flashflow_simnet::rng::SimRng;
use flashflow_simnet::stats::{mean, quantile, Ecdf};
use flashflow_simnet::units::Rate;
use flashflow_tornet::netbuild::TorNet;
use flashflow_tornet::relay::{RelayConfig, RelayId};

/// Five-number summary matching the paper's boxplots (Figure 9): 5th
/// percentile, first quartile, median, mean, third quartile, 95th
/// percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boxplot {
    /// 5th percentile (lower whisker).
    pub p5: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Mean (the triangle in the paper's plots).
    pub mean: f64,
    /// Third quartile.
    pub q3: f64,
    /// 95th percentile (upper whisker).
    pub p95: f64,
}

impl Boxplot {
    /// Computes the summary, or `None` for empty input.
    pub fn of(values: &[f64]) -> Option<Boxplot> {
        Some(Boxplot {
            p5: quantile(values, 0.05)?,
            q1: quantile(values, 0.25)?,
            median: quantile(values, 0.5)?,
            mean: mean(values)?,
            q3: quantile(values, 0.75)?,
            p95: quantile(values, 0.95)?,
        })
    }
}

impl std::fmt::Display for Boxplot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p5={:7.2} q1={:7.2} med={:7.2} mean={:7.2} q3={:7.2} p95={:7.2}",
            self.p5, self.q1, self.median, self.mean, self.q3, self.p95
        )
    }
}

/// Prints a CDF as rows of `value fraction`, sampled at `points` evenly
/// spaced quantiles (the textual analogue of the paper's CDF figures).
pub fn print_cdf(label: &str, values: &[f64], points: usize) {
    if values.is_empty() {
        println!("{label}: (no data)");
        return;
    }
    let cdf = Ecdf::new(values.to_vec());
    println!("{label} (n={}):", cdf.len());
    for (v, q) in cdf.sampled(points) {
        println!("  {v:12.4}  {q:5.2}");
    }
}

/// Prints a time series as `t value` rows, thinned to at most
/// `max_rows`.
pub fn print_series(label: &str, step_label: &str, series: &[f64], max_rows: usize) {
    println!("{label} ({} points):", series.len());
    let stride = (series.len() / max_rows.max(1)).max(1);
    for (i, v) in series.iter().enumerate().step_by(stride) {
        println!("  {step_label}={i:6}  {v:12.4}");
    }
}

/// Prints a standard experiment header with the fixed seed.
pub fn header(id: &str, title: &str, seed: u64) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("(deterministic; seed = {seed})");
    println!("==============================================================");
}

/// Prints a paper-vs-measured comparison row.
pub fn compare(metric: &str, paper: &str, measured: &str) {
    println!("  {metric:<44} paper: {paper:<16} measured: {measured}");
}

/// §7's measurement team: `n` measurers of 1 Gbit/s each.
pub fn gbit_team(n: usize) -> Team {
    let mut net = Net::new();
    let members: Vec<_> = (0..n)
        .map(|i| {
            let host = net.add_host(HostProfile::new(format!("m{i}"), Rate::from_gbit(1.0)));
            (host, Rate::from_gbit(1.0))
        })
        .collect();
    Team::with_capacities(&members)
}

/// The slots §7's whole-network measurement takes: a period packed
/// largest prior first for relays whose priors (bytes/s) are exact.
pub fn packed_slots(team: &Team, params: &Params, priors: impl IntoIterator<Item = f64>) -> usize {
    let mut slots = 0;
    measure_period(team, params, Order::Packed, priors.into_iter().enumerate(), 1, |i, slot| {
        slots += 1;
        perfect_slot(i, slot)
    });
    slots
}

/// The lab of §6 and Appendix E: the Table-1 hosts, with capacity jitter
/// drawn from `jitter` or none, and one relay, `target`, on US-SW.
/// Figs 6, 15 and 16 measure it from subsets of the other four hosts.
pub struct Lab {
    /// The network.
    pub tor: TorNet,
    /// The Table-1 hosts in paper order (US-SW, US-NW, US-E, IN, NL).
    pub hosts: Vec<HostId>,
    /// The relay under test.
    pub target: RelayId,
}

impl Lab {
    /// Builds the lab with the target rate-limited to `limit` Mbit/s, or
    /// unlimited.
    pub fn new(jitter: Option<u64>, limit: Option<f64>) -> Lab {
        let (net, hosts) = Net::table1_seeded(jitter);
        let mut tor = TorNet::from_net(net);
        let mut config = RelayConfig::new("target");
        if let Some(l) = limit {
            config = config.with_rate_limit(Rate::from_mbit(l));
        }
        let target = tor.add_relay(hosts[0], config);
        Lab { tor, hosts, target }
    }

    /// Measures the target once, `demand` bytes/s split evenly over the
    /// hosts `members` (indices into [`hosts`](Self::hosts)): one process
    /// and an even share of the `s` sockets each.
    pub fn measure_split(
        &mut self,
        members: &[usize],
        demand: f64,
        params: &Params,
        rng: &mut SimRng,
    ) -> Measurement {
        let allocation = Rate::from_bytes_per_sec(demand / members.len() as f64);
        let sockets = (params.sockets as usize / members.len()).max(1) as u32;
        let assignments = members
            .iter()
            .map(|&m| Assignment { host: self.hosts[m], allocation, processes: 1, sockets })
            .collect();
        let item = BatchItem { target: self.target, assignments, behavior: TargetBehavior::Honest };
        run_concurrent_measurements(&mut self.tor, &[item], params, rng).remove(0)
    }
}

/// Ground-truth Tor capacity, in bytes/s, of the lab's target at
/// `limit` Mbit/s (or unlimited): measured once on a jitter-free run,
/// like the paper's two-hop lab calibration. US-SW's CPU bound is below
/// 750 Mbit/s, so the 750 limit and the unlimited target share one
/// truth. Figs 6, 15 and 16 demand a multiple of it and divide by it.
pub fn ground_truth(limit: Option<f64>, params: &Params) -> f64 {
    let mut lab = Lab::new(None, limit);
    let mut rng = SimRng::seed_from_u64(0xC0DE);
    let assign = |host: usize, mbit: f64| Assignment {
        host: lab.hosts[host],
        allocation: Rate::from_mbit(mbit),
        processes: 2,
        sockets: 80,
    };
    let assignments = vec![assign(4, 1611.0), assign(2, 941.0)];
    let item = BatchItem { target: lab.target, assignments, behavior: TargetBehavior::Honest };
    run_concurrent_measurements(&mut lab.tor, &[item], params, &mut rng)[0].estimate.bytes_per_sec()
}

/// The non-empty subsets of `members` (host index, capacity in Mbit/s)
/// whose every member can carry an even split of `demand` bytes/s, as
/// (bitmask over `members`, their host indices).
pub fn sufficient_subsets(members: &[(usize, f64)], demand: f64) -> Vec<(u32, Vec<usize>)> {
    (1..1u32 << members.len())
        .filter_map(|mask| {
            let subset: Vec<(usize, f64)> =
                (0..members.len()).filter(|k| mask & (1 << k) != 0).map(|k| members[k]).collect();
            let share = demand / subset.len() as f64;
            let sufficient = subset.iter().all(|(_, c)| c * 1e6 / 8.0 >= share);
            sufficient.then(|| (mask, subset.iter().map(|(host, _)| *host).collect()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxplot_of_known_data() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let b = Boxplot::of(&v).unwrap();
        assert_eq!(b.median, 50.5);
        assert_eq!(b.mean, 50.5);
        assert!(b.p5 < b.q1 && b.q1 < b.median && b.median < b.q3 && b.q3 < b.p95);
    }

    #[test]
    fn packed_slots_fill_each_slot_largest_first() {
        // Demands (f·z₀) of 2.0, 1.0, 1.0 and 0.9 Gbit/s on a 3 Gbit/s
        // team: 2.0 + 1.0, then 1.0 + 0.9.
        let params = Params::paper();
        let f = params.excess_factor();
        let priors = [2.0, 1.0, 1.0, 0.9].map(|d| Rate::from_gbit(d / f).bytes_per_sec());
        assert_eq!(packed_slots(&gbit_team(3), &params, priors), 2);
    }

    #[test]
    fn packed_slots_of_a_uniform_network() {
        // 100 relays of 100 Mbit/s each demand ≈ 295 Mbit/s: ten share a
        // 3 Gbit/s slot, so ten slots, 300 s.
        let params = Params::paper();
        let priors = vec![Rate::from_mbit(100.0).bytes_per_sec(); 100];
        let slots = packed_slots(&gbit_team(3), &params, priors);
        assert_eq!(slots, 10);
        assert_eq!(params.slot.as_secs() * slots as u64, 300);
    }

    #[test]
    fn sufficient_subsets_of_fig06_team() {
        // Fig 6's members and its demand, f × ground truth, at 10, 250,
        // 500, 750 Mbit/s and unlimited (the last two CPU-bound alike).
        let members = [(1, 946.0), (2, 941.0), (3, 1076.0), (4, 1611.0)];
        let cpu_bound = 271_966_188.948_675_4;
        let demands = [3_691_406.25, 92_285_156.25, 184_570_312.5, cpu_bound, cpu_bound];
        let masks: Vec<Vec<u32>> = demands
            .iter()
            .map(|&d| sufficient_subsets(&members, d).into_iter().map(|(mask, _)| mask).collect())
            .collect();
        let every: Vec<u32> = (1..16).collect();
        assert_eq!(masks[0], every);
        assert_eq!(masks[1], every);
        assert_eq!(masks[2], [3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);
        assert_eq!(masks[3], [7, 11, 13, 14, 15]);
        assert_eq!(masks[4], [7, 11, 13, 14, 15]);
        // 52 subsets, 7 runs each: fig 6's 364 runs.
        assert_eq!(masks.iter().map(Vec::len).sum::<usize>() * 7, 364);
        // Each subset lists its members' host indices.
        let (_, hosts) = &sufficient_subsets(&members, cpu_bound)[0];
        assert_eq!(hosts, &[1, 2, 3]);
    }

    #[test]
    fn boxplot_empty_is_none() {
        assert!(Boxplot::of(&[]).is_none());
    }
}
