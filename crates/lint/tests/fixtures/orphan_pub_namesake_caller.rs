// The other file `orphan_pub_namesakes.rs` is linted beside: four uses,
// and seven names that are only bindings, fields or parameters.

use fx::Circuit;

struct Lane {
    credit: u64,
}

fn main() {
    let mut circuit: Circuit = Circuit::open();
    circuit.extend();
    let hops = fx::measure();
    let lane = Lane { credit: hops + 1 };
    if let Some(window) = Some(lane.credit) {
        println!("{window} {hops}");
    }
    let sum: u64 = [1u64, 2].iter().map(|total| total * 2).sum();
    match Some(sum) {
        Some(span) if span > 1 => println!("{}", span),
        Some(_) | None => {}
    }
    for step in 0..cap(3) {
        println!("{step}");
    }
}

fn cap(limit: u64) -> u64 {
    limit * 2
}
