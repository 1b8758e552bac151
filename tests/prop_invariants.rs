//! Cross-crate property tests: invariants that must hold for arbitrary
//! parameters and topologies.

use flashflow_repro::core::prelude::*;
use flashflow_repro::simnet::prelude::*;
use flashflow_repro::tornet::prelude::*;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = Params> {
    (1u32..512, 1.0f64..4.0, 1u64..120, 0.0f64..0.6, 0.0f64..0.4, 0.0f64..0.9).prop_map(
        |(sockets, multiplier, slot_secs, eps1, eps2, ratio)| {
            let mut p = Params::paper();
            p.sockets = sockets;
            p.multiplier = multiplier;
            p.slot = SimDuration::from_secs(slot_secs);
            p.epsilon1 = eps1;
            p.epsilon2 = eps2;
            p.ratio = ratio;
            p
        },
    )
}

/// What [`clipped_period`] returns: each slot with its index and the last
/// index handed out when it completed, then the settled relays.
type Ran = (Vec<(usize, Vec<SlotItem<usize>>, usize)>, Vec<Settled<usize>>);

/// A period of `Sequencer` slots, each run while up to `lookahead` later
/// slots are staged behind it, against relays that forward `truth[key]`
/// bytes/s or whatever was allocated, whichever is less.
fn clipped_period(
    team: &Team,
    params: &Params,
    order: Order,
    priors: &[(usize, f64)],
    truth: &[f64],
    lookahead: usize,
) -> Ran {
    let mut sequencer =
        Sequencer::new(team, params, order, priors.iter().copied(), BwAuth::MAX_ROUNDS);
    let mut staged = std::collections::VecDeque::new();
    let mut ran = Vec::new();
    loop {
        while staged.len() <= lookahead {
            let Some(slot) = sequencer.next_slot() else { break };
            staged.push_back(slot);
        }
        let Some((index, items)) = staged.pop_front() else { break };
        let results: Vec<SlotResult> = items
            .iter()
            .map(|item| {
                let allocated: f64 = item.allocation.iter().map(|a| a.bytes_per_sec()).sum();
                SlotResult { estimate: truth[item.key].min(allocated), allocated, verified: true }
            })
            .collect();
        sequencer.complete(&items, &results);
        let horizon = staged.back().map_or(index, |(later, _)| *later);
        ran.push((index, items, horizon));
    }
    (ran, sequencer.into_settled())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn excess_factor_always_covers_acceptance(params in arb_params()) {
        prop_assume!(params.validate().is_ok());
        // §4.2's self-consistency: if the prior is the true capacity and
        // the estimate lands within (1±ε), the acceptance test passes.
        let z0 = 1e8;
        let allocated = params.excess_factor() * z0;
        let z_max = (1.0 + params.epsilon2) * z0;
        prop_assert!(z_max <= params.acceptance_threshold(allocated) * (1.0 + 1e-9));
    }

    #[test]
    fn clamp_bounds_lying_exactly(x in 1e3f64..1e9, y in 0.0f64..1e12, r in 0.0f64..0.9) {
        // The aggregation clamp keeps the background share at most r of
        // the total, whatever the relay reports.
        let clamped = background_allowance(x, r).min(y);
        let total = x + clamped;
        prop_assert!(clamped / total <= r + 1e-9);
        // And the inflation over truth (no background at all) is bounded.
        prop_assert!(total / x <= 1.0 / (1.0 - r) + 1e-9);
    }

    #[test]
    fn greedy_allocation_feasible_and_exact(
        capacities in prop::collection::vec(1e6f64..2e9, 1..12),
        fraction in 0.01f64..1.0,
    ) {
        let total: f64 = capacities.iter().sum();
        let needed = total * fraction;
        let alloc = greedy_allocate(&capacities, needed).unwrap();
        let assigned: f64 = alloc.iter().sum();
        prop_assert!((assigned - needed).abs() < needed * 1e-9 + 1.0);
        for (a, c) in alloc.iter().zip(&capacities) {
            prop_assert!(a <= c, "allocation exceeds capacity");
            prop_assert!(*a >= 0.0);
        }
    }

    #[test]
    fn team_allocate_fits_exactly_the_residual_sum(
        members in prop::collection::vec((0.0f64..1.0, 0.0f64..1.2), 1..6),
        exponent in 0i32..10,
        tolerance in 0usize..3,
        ulps in -3i64..4,
    ) {
        // The one fit rule both orders of `measure_period` pack by: a
        // relay fits exactly when the residuals sum to its need, the
        // aggregate test a whole-team packer makes. Needs straddle that
        // boundary by the 1e-9 tolerance and by a few ulps.
        let params = Params::paper();
        let (_, ids) = Net::table1();
        let scale = 10f64.powi(exponent);
        let caps: Vec<(HostId, Rate)> = ids
            .iter()
            .zip(&members)
            .map(|(h, (c, _))| (*h, Rate::from_bytes_per_sec(c * scale)))
            .collect();
        let reserved: Vec<Rate> = caps
            .iter()
            .zip(&members)
            .map(|((_, c), (_, r))| Rate::from_bytes_per_sec(c.bytes_per_sec() * r))
            .collect();
        let residuals: f64 = caps
            .iter()
            .zip(&reserved)
            .map(|((_, c), r)| (c.bytes_per_sec() - r.bytes_per_sec()).max(0.0))
            .sum();
        let team = Team::with_capacities(&caps);
        prop_assert_eq!(team.spare(&reserved).to_bits(), residuals.to_bits());
        let target = (residuals + [0.0, 1e-9, -1e-9][tolerance]).max(0.0);
        let needed = f64::from_bits((target.to_bits() as i64 + ulps).max(0) as u64);
        let z0 = Rate::from_bytes_per_sec(needed / params.excess_factor());
        let fits = residuals + 1e-9 >= params.excess_factor() * z0.bytes_per_sec();
        prop_assert_eq!(team.allocate(z0, &params, &reserved).is_ok(), fits);
    }

    #[test]
    fn schedule_never_overpacks(
        caps_mbit in prop::collection::vec(1.0f64..900.0, 1..60),
        factors in prop::collection::vec(0.25f64..4.0, 60),
        team_mbit in prop::collection::vec(300.0f64..1500.0, 1..6),
        seed in 0u64..1000,
        slots in 1u64..40,
        lookahead in 0usize..2,
    ) {
        let paper = Params::paper();
        let params = Params { period: paper.slot * slots, ..paper };
        let (_, ids) = Net::table1();
        let members: Vec<(HostId, Rate)> =
            ids.iter().zip(&team_mbit).map(|(h, c)| (*h, Rate::from_mbit(*c))).collect();
        let team = Team::with_capacities(&members);
        let priors: Vec<(usize, f64)> =
            caps_mbit.iter().map(|c| Rate::from_mbit(*c).bytes_per_sec()).enumerate().collect();
        let truth = |cap: f64| -> Vec<f64> {
            priors.iter().map(|&(k, z0)| z0 * factors[k].min(cap)).collect()
        };
        for order in [Order::Packed, Order::Secret { seed }] {
            let run = |truth: &[f64], lookahead| {
                clipped_period(&team, &params, order, &priors, truth, lookahead)
            };
            let (ran, settled) = run(&truth(f64::INFINITY), lookahead);
            // Every relay settles exactly once, slots run in order…
            let mut keys: Vec<usize> = settled.iter().map(|s| s.key).collect();
            keys.sort_unstable();
            prop_assert_eq!(keys, (0..priors.len()).collect::<Vec<_>>());
            prop_assert!(ran.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", order);
            for (n, (index, slot, horizon)) in ran.iter().enumerate() {
                // …none reserves more of a measurer than it has…
                for (m, (_, capacity)) in members.iter().enumerate() {
                    let reserved: f64 =
                        slot.iter().map(|item| item.allocation[m].bytes_per_sec()).sum();
                    prop_assert!(
                        reserved <= capacity.bytes_per_sec() + 1e-6,
                        "{:?} slot {} measurer {}: {} > {}", order, index, m, reserved, capacity
                    );
                }
                // …and a relay clipped in slot n waits behind every slot
                // staged before n completed: n + 1 + lookahead, if one was.
                for item in slot {
                    let next = ran[n + 1..].iter().find(|r| r.1.iter().any(|i| i.key == item.key));
                    if let Some((again, _, _)) = next {
                        prop_assert!(again > horizon, "{:?} relay {} in {}", order, item.key, index);
                    }
                }
            }
            if order == Order::Packed {
                prop_assert!(ran.iter().enumerate().all(|(i, (index, _, _))| i == *index));
            }
            // With nothing clipped, each relay is measured once, and
            // lookahead changes nothing.
            let strip = |(ran, settled): Ran| {
                let slots: Vec<(usize, Vec<SlotItem<usize>>)> =
                    ran.into_iter().map(|(index, slot, _)| (index, slot)).collect();
                (slots, settled)
            };
            let unclipped = truth(1.0);
            let once = strip(run(&unclipped, 0));
            prop_assert_eq!(once.0.iter().map(|(_, slot)| slot.len()).sum::<usize>(), priors.len());
            prop_assert_eq!(once, strip(run(&unclipped, 1)), "{:?}", order);
        }
    }

    #[test]
    fn observed_bandwidth_never_exceeds_peak_window(
        seconds in prop::collection::vec(0.0f64..1e9, 10..200),
    ) {
        let mut ob = ObservedBandwidth::new();
        for &s in &seconds {
            ob.push_second(s);
        }
        // The observed bandwidth can never exceed the best true
        // 10-second average...
        let best_window = seconds
            .windows(10)
            .map(|w| w.iter().sum::<f64>() / 10.0)
            .fold(0.0f64, f64::max);
        prop_assert!(ob.observed().bytes_per_sec() <= best_window + 1e-6);
        // ...and equals it when the history is shorter than a day.
        prop_assert!((ob.observed().bytes_per_sec() - best_window).abs() < 1e-6);
    }

    #[test]
    fn cell_round_trip_any_payload(payload in prop::collection::vec(any::<u8>(), 0..=509)) {
        let cell = Cell::with_payload(CircId(77), Command::Measure, &payload);
        let decoded = Cell::decode(&cell.encode()).unwrap();
        prop_assert_eq!(&decoded.payload[..payload.len()], &payload[..]);
    }

    #[test]
    fn onion_crypto_round_trips_any_depth(
        n_hops in 1usize..6,
        payload in prop::collection::vec(any::<u8>(), 1..400),
        seed in any::<u64>(),
    ) {
        // A circuit of any depth delivers plaintext at the exit and
        // nowhere earlier.
        let mut rng = SimRng::seed_from_u64(seed);
        let pairs: Vec<(SecretKey, SecretKey)> = (0..n_hops)
            .map(|_| {
                (SecretKey::from_entropy(rng.next_u64()), SecretKey::from_entropy(rng.next_u64()))
            })
            .collect();
        let client_secrets: Vec<SecretKey> = pairs.iter().map(|(c, _)| *c).collect();
        let relay_publics: Vec<_> = pairs.iter().map(|(_, r)| r.public()).collect();
        let mut client = ClientCircuit::build(CircId(1), &client_secrets, &relay_publics);
        let mut cell = client.package(&payload).unwrap();
        let mut relays: Vec<_> = pairs
            .iter()
            .map(|(c, r)| flashflow_repro::tornet::circuit::RelayCircuit::accept(
                CircId(1), *r, c.public()))
            .collect();
        for relay in relays.iter_mut() {
            relay.relay_outbound(&mut cell);
        }
        prop_assert_eq!(&cell.payload[..payload.len()], &payload[..]);
    }

    #[test]
    fn evasion_probability_decreasing_in_k(p in 1e-7f64..1e-2, k1 in 0u64..1000, k2 in 0u64..1000) {
        let (lo, hi) = if k1 <= k2 { (k1, k2) } else { (k2, k1) };
        prop_assert!(evasion_probability(p, hi) <= evasion_probability(p, lo) + 1e-12);
    }

    #[test]
    fn capacity_on_demand_failure_bound(n in 1u64..12, q in 0.0f64..0.5) {
        // §5's claim: for q < 1/2 the attack fails with probability ≥ 0.5.
        let fail = capacity_on_demand_failure_probability(n, q);
        prop_assert!(fail >= 0.5 - 1e-9, "n={n}, q={q}: fail={fail}");
        prop_assert!(fail <= 1.0 + 1e-9);
    }
}
