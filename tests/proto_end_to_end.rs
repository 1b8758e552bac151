//! End-to-end test of the in-memory protocol path: a whole measurement
//! period whose slots run through `flashflow-proto` sessions pumped by
//! the `MeasurementEngine` (`run_scripted`), so every estimate the
//! `Sequencer` judges is computed from `SecondReport` frames, not from
//! shared state.

use flashflow_repro::core::prelude::*;
use flashflow_repro::core::proto_driver::{run_scripted, Scripted, ScriptedRelay};
use flashflow_repro::proto::msg::{TargetEndpoint, AUTH_TOKEN_LEN, FINGERPRINT_LEN};
use flashflow_repro::simnet::prelude::*;

/// The relay with roster key `key`, as a fingerprint.
fn fp(key: usize) -> [u8; FINGERPRINT_LEN] {
    let mut fp = [0; FINGERPRINT_LEN];
    fp[..8].copy_from_slice(&(key as u64).to_be_bytes());
    fp
}

#[test]
fn bwauth_period_runs_over_protocol_backend() {
    // The period `BwAuth::measure_network` runs, with every slot executed
    // through protocol sessions instead of the direct blast loop. Relay
    // `i` has capacity `capacity[i]` and starts from 1×, 0.2× or 3× that
    // as its prior: the 0.2× priors are clipped by their allocation and
    // must be re-measured before they converge.
    let mut net = Net::new();
    let m1 = net.add_host(HostProfile::us_e());
    let m2 = net.add_host(HostProfile::host_nl());
    let team =
        Team::with_capacities(&[(m1, Rate::from_mbit(941.0)), (m2, Rate::from_mbit(1611.0))]);
    let params = Params::paper();
    let slot_secs = params.slot.as_secs() as u32;
    let factors = [1.0, 0.2, 3.0];
    let capacity: Vec<f64> = [150.0, 80.0, 40.0]
        .iter()
        .flat_map(|mbit| factors.map(|_| Rate::from_mbit(*mbit).bytes_per_sec()))
        .collect();
    let priors = capacity.iter().enumerate().map(|(i, c)| (i, c * factors[i % factors.len()]));
    // Two in-memory measurers (their scripts, not their rate caps, say
    // what they report) and the relay.
    let measurer = EchoMeasurer {
        addr: ([127, 0, 0, 1], 0).into(),
        token: [0x21; AUTH_TOKEN_LEN],
        rate_cap: 0,
        sockets: 1,
    };
    let deployment = EchoDeployment {
        measurers: vec![measurer; 2],
        relay: TargetEndpoint::NONE,
        relay_token: [0x29; AUTH_TOKEN_LEN],
        speedup: 1.0,
        ratio: params.ratio,
    };

    let settled =
        measure_period(&team, &params, Order::Packed, priors, BwAuth::MAX_ROUNDS, |_, slot| {
            // Each measurer blasts its allocation `aᵢ`; the relay echoes at
            // most its capacity `c`, shared in proportion to `aᵢ`.
            let scripted = slot.iter().map(|item| {
                let total: f64 = item.allocation.iter().map(|a| a.bytes_per_sec()).sum();
                let share = (capacity[item.key] / total).min(1.0);
                let measured =
                    item.allocation.iter().map(|a| (a.bytes_per_sec() * share) as u64).collect();
                (fp(item.key), ScriptedRelay { measured, background: 0 })
            });
            let items: Vec<EchoItem> = slot
                .iter()
                .map(|item| EchoItem {
                    relay_fp: fp(item.key),
                    slot_secs,
                    bg_allowance: 0,
                    measurement_secret: item.key as u64,
                    attempt: item.rounds,
                    trace_id: 0,
                })
                .collect();
            let peers =
                run_scripted(&deployment, &items, &mut Scripted::new(scripted), &mut |_| {});
            assert!(peers.all_clean(), "a session failed");
            slot.iter()
                .enumerate()
                .map(|(g, item)| SlotResult {
                    estimate: peers.estimate(g, params.ratio).1.bytes_per_sec(),
                    allocated: item.allocation.iter().map(|a| a.bytes_per_sec()).sum(),
                    verified: true,
                })
                .collect()
        });

    assert_eq!(settled.len(), capacity.len());
    for s in &settled {
        let c = capacity[s.key];
        assert_eq!(s.end, SequenceEnd::Converged, "relay {}: {s:?}", s.key);
        assert!(
            (c * (1.0 - params.epsilon1)..=c * (1.0 + params.epsilon2)).contains(&s.estimate),
            "relay {}: estimate {} vs capacity {c}",
            s.key,
            s.estimate
        );
        let clipped = factors[s.key % factors.len()] < 1.0;
        assert_eq!(s.rounds > 1, clipped, "relay {}: {s:?}", s.key);
    }
}
