//! Capacity resources: NIC directions, links, relay CPUs, token buckets.
//!
//! Every throughput limit in the simulation is expressed as a *resource*
//! with a capacity in bytes/second. A [`crate::flow::FlowSpec`] names the
//! resources it crosses; the engine divides each resource's capacity among
//! crossing flows with weighted max-min fairness (see [`crate::flow`]).
//!
//! Three kinds of resources cover everything the paper needs:
//!
//! * **Pipe** — a fixed-rate constraint (a NIC direction or a bottleneck
//!   link on a path).
//! * **Token bucket** — Tor's `BandwidthRate`/`BandwidthBurst` rate limiter.
//!   Accumulated tokens allow a short burst above the sustained rate — the
//!   one-second spike visible at the start of Figure 7 comes from exactly
//!   this mechanism.
//! * **CPU** — a relay's single-threaded cell-processing limit, with a small
//!   per-socket bookkeeping overhead so throughput *declines* as sockets are
//!   added past the peak (Figures 11 and 14).

use crate::units::Rate;

/// Identifies a resource registered with an [`crate::engine::Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) usize);

impl ResourceId {
    /// The raw index of this resource (stable for the engine's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// The behaviour of a resource's capacity over time.
#[derive(Debug, Clone, PartialEq)]
pub enum ResourceKind {
    /// Fixed capacity.
    Pipe,
    /// Token bucket with the given burst depth in bytes; the sustained rate
    /// is the resource capacity. The bucket starts full.
    TokenBucket {
        /// Maximum accumulated bytes that may be sent as a burst.
        burst_bytes: f64,
    },
    /// Single-threaded processor: effective capacity shrinks as
    /// `capacity / (1 + overhead_per_socket * total_sockets)`.
    Cpu {
        /// Fractional capacity cost of managing one additional socket.
        overhead_per_socket: f64,
    },
}

/// A named capacity constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    name: String,
    capacity: f64, // bytes/sec
    kind: ResourceKind,
    tokens: f64, // only meaningful for TokenBucket
}

impl Resource {
    /// A fixed-capacity pipe.
    pub fn pipe(name: impl Into<String>, capacity: Rate) -> Self {
        Resource {
            name: name.into(),
            capacity: capacity.bytes_per_sec(),
            kind: ResourceKind::Pipe,
            tokens: 0.0,
        }
    }

    /// An effectively unlimited resource (useful as a placeholder).
    pub fn unlimited(name: impl Into<String>) -> Self {
        Resource::pipe(name, Rate::from_gbit(10_000.0))
    }

    /// A token bucket with sustained `rate` and burst depth `burst_bytes`.
    ///
    /// # Panics
    /// Panics if `burst_bytes` is negative or not finite.
    pub fn token_bucket(name: impl Into<String>, rate: Rate, burst_bytes: f64) -> Self {
        assert!(burst_bytes.is_finite() && burst_bytes >= 0.0, "bad burst {burst_bytes}");
        Resource {
            name: name.into(),
            capacity: rate.bytes_per_sec(),
            kind: ResourceKind::TokenBucket { burst_bytes },
            tokens: burst_bytes, // bucket starts full
        }
    }

    /// A single-threaded CPU with a fractional per-socket overhead.
    ///
    /// # Panics
    /// Panics if `overhead_per_socket` is negative or not finite.
    pub fn cpu(name: impl Into<String>, capacity: Rate, overhead_per_socket: f64) -> Self {
        assert!(
            overhead_per_socket.is_finite() && overhead_per_socket >= 0.0,
            "bad overhead {overhead_per_socket}"
        );
        Resource {
            name: name.into(),
            capacity: capacity.bytes_per_sec(),
            kind: ResourceKind::Cpu { overhead_per_socket },
            tokens: 0.0,
        }
    }

    /// The resource's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The base (sustained) capacity.
    pub fn capacity(&self) -> Rate {
        Rate::from_bytes_per_sec(self.capacity)
    }

    /// Replaces the base capacity (e.g. reconfiguring a rate limit).
    pub fn set_capacity(&mut self, capacity: Rate) {
        self.capacity = capacity.bytes_per_sec();
        if let ResourceKind::TokenBucket { burst_bytes } = self.kind {
            self.tokens = self.tokens.min(burst_bytes);
        }
    }

    /// The resource kind.
    pub fn kind(&self) -> &ResourceKind {
        &self.kind
    }

    /// Effective capacity (bytes/sec) available for a tick of `dt_secs`
    /// given `total_sockets` crossing sockets.
    pub(crate) fn effective_capacity(&self, dt_secs: f64, total_sockets: f64) -> f64 {
        match self.kind {
            ResourceKind::Pipe => self.capacity,
            ResourceKind::TokenBucket { burst_bytes } => {
                let available = (self.tokens + self.capacity * dt_secs).min(
                    // Burst depth plus what refills during the tick bounds
                    // the bytes this tick may carry.
                    burst_bytes + self.capacity * dt_secs,
                );
                available / dt_secs
            }
            ResourceKind::Cpu { overhead_per_socket } => {
                self.capacity / (1.0 + overhead_per_socket * total_sockets)
            }
        }
    }

    /// Consumes `used_bytes` over `dt_secs`, updating token-bucket state.
    pub(crate) fn consume(&mut self, used_bytes: f64, dt_secs: f64) {
        if let ResourceKind::TokenBucket { burst_bytes } = self.kind {
            let refilled =
                (self.tokens + self.capacity * dt_secs).min(burst_bytes + self.capacity * dt_secs);
            self.tokens = (refilled - used_bytes).clamp(0.0, burst_bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_capacity_constant() {
        let r = Resource::pipe("nic", Rate::from_mbit(100.0));
        assert_eq!(r.effective_capacity(0.1, 0.0), Rate::from_mbit(100.0).bytes_per_sec());
        assert_eq!(r.effective_capacity(1.0, 500.0), Rate::from_mbit(100.0).bytes_per_sec());
    }

    #[test]
    fn token_bucket_allows_initial_burst_then_sustained() {
        let rate = Rate::from_mbit(80.0); // 10 MB/s
        let burst = 10e6; // one second of burst
        let mut r = Resource::token_bucket("limit", rate, burst);
        let dt = 1.0;
        // Full bucket: 10 MB of tokens + 10 MB refill = 20 MB/s effective.
        let first = r.effective_capacity(dt, 0.0);
        assert!((first - 20e6).abs() < 1.0, "first {first}");
        r.consume(first * dt, dt);
        // Bucket drained: only the sustained rate remains.
        let second = r.effective_capacity(dt, 0.0);
        assert!((second - 10e6).abs() < 1.0, "second {second}");
    }

    #[test]
    fn token_bucket_refills_when_idle() {
        let rate = Rate::from_mbit(80.0);
        let mut r = Resource::token_bucket("limit", rate, 5e6);
        r.consume(r.effective_capacity(1.0, 0.0), 1.0); // drain completely
                                                        // Idle for one second at 10 MB/s refill, capped at 5 MB burst depth.
        r.consume(0.0, 1.0);
        assert!((r.tokens - 5e6).abs() < 1.0);
    }

    #[test]
    fn cpu_overhead_reduces_capacity_with_sockets() {
        let r = Resource::cpu("tor", Rate::from_mbit(1248.0), 0.0015);
        let none = r.effective_capacity(0.1, 0.0);
        let hundred = r.effective_capacity(0.1, 100.0);
        assert!(hundred < none);
        let expected = none / 1.15;
        assert!((hundred - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn set_capacity_clamps_tokens() {
        let mut r = Resource::token_bucket("limit", Rate::from_mbit(80.0), 10e6);
        r.set_capacity(Rate::from_mbit(40.0));
        assert!(r.tokens <= 10e6);
        assert_eq!(r.capacity(), Rate::from_mbit(40.0));
    }
}
