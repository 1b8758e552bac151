//! TCP throughput model: socket buffers, bandwidth-delay product, slow
//! start, and kernel tuning profiles.
//!
//! Appendix D of the paper studies how the Linux kernel's socket-buffer
//! limits cap a single connection's throughput on high-BDP paths, and how
//! adding sockets (FlashFlow's `s` parameter) sidesteps the per-socket
//! limit. We model a TCP connection's achievable rate as
//!
//! ```text
//! rate ≤ min(effective_buffer / RTT, ramp(t)) × efficiency
//! ```
//!
//! where `effective_buffer` comes from the kernel profile (default
//! autotuning tops out near 4/6 MiB read/write; the paper's "tuned" kernel
//! raises both to 64 MiB), and `ramp(t)` is an exponential slow-start
//! envelope that doubles every RTT from an initial window of ten segments.
//! The `efficiency` factor absorbs header overhead and loss-recovery
//! stalls, which grow with RTT on real WAN paths.

use crate::time::SimDuration;
use crate::units::Rate;

/// Standard Ethernet-ish maximum segment size in bytes.
const MSS: f64 = 1460.0;

/// TCP initial congestion window (RFC 6928) in segments.
const INITIAL_WINDOW_SEGMENTS: f64 = 10.0;

/// Kernel socket-buffer configuration (Appendix D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelProfile {
    /// Maximum receive-buffer bytes the kernel will autotune to.
    pub max_rx_buffer: f64,
    /// Maximum send-buffer bytes.
    pub max_tx_buffer: f64,
    /// Fraction of the nominal buffer a connection effectively fills
    /// (autotuning overhead, `tcp_adv_win_scale`, bookkeeping).
    pub buffer_efficiency: f64,
    /// Multiplier on the path loss rate a connection effectively sees:
    /// ample buffering keeps the pipe full through recovery episodes, so
    /// the tuned kernel behaves as if loss were rarer.
    pub loss_recovery: f64,
}

impl KernelProfile {
    /// The defaults Linux picks on the paper's hosts: 4 MiB read / 6 MiB
    /// write maximums.
    pub fn default_linux() -> Self {
        KernelProfile {
            max_rx_buffer: 4.0 * 1024.0 * 1024.0,
            max_tx_buffer: 6.0 * 1024.0 * 1024.0,
            buffer_efficiency: 0.75,
            loss_recovery: 1.0,
        }
    }

    /// The paper's tuned kernel: 64 MiB maximums for both directions.
    pub fn tuned() -> Self {
        KernelProfile {
            max_rx_buffer: 64.0 * 1024.0 * 1024.0,
            max_tx_buffer: 64.0 * 1024.0 * 1024.0,
            buffer_efficiency: 0.75,
            loss_recovery: 0.5,
        }
    }

    /// The buffer bytes that actually bound in-flight data: the smaller
    /// direction times the efficiency factor.
    fn effective_window_bytes(&self) -> f64 {
        self.max_rx_buffer.min(self.max_tx_buffer) * self.buffer_efficiency
    }

    /// Steady-state per-socket throughput cap for a path with `rtt`.
    ///
    /// # Panics
    /// Panics if `rtt` is zero.
    fn bdp_cap(&self, rtt: SimDuration) -> Rate {
        let rtt_s = rtt.as_secs_f64();
        assert!(rtt_s > 0.0, "rtt must be positive");
        Rate::from_bytes_per_sec(self.effective_window_bytes() / rtt_s)
    }
}

impl Default for KernelProfile {
    fn default() -> Self {
        KernelProfile::default_linux()
    }
}

/// Parameters of one TCP connection (or a bundle of identical ones).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpProfile {
    /// Round-trip time of the path.
    pub rtt: SimDuration,
    /// Kernel buffer configuration.
    pub kernel: KernelProfile,
    /// Protocol efficiency on this path (headers, recovery stalls). WAN
    /// paths with higher loss see lower efficiency.
    pub path_efficiency: f64,
    /// Packet-loss probability on the path. Zero on clean lab links;
    /// positive on WAN paths, where it caps per-socket throughput via
    /// the Mathis relation `MSS/RTT × 1.22/√loss` — the reason FlashFlow
    /// needs many sockets (`s = 160`) over the Internet.
    pub loss_rate: f64,
}

impl TcpProfile {
    /// A connection profile over a path with round-trip time `rtt`.
    pub fn new(rtt: SimDuration) -> Self {
        TcpProfile {
            rtt,
            kernel: KernelProfile::default_linux(),
            path_efficiency: 1.0,
            loss_rate: 0.0,
        }
    }

    /// Sets the path loss rate in `[0, 1)`.
    ///
    /// # Panics
    /// Panics if outside `[0, 1)`.
    pub fn with_loss_rate(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "bad loss rate {loss}");
        self.loss_rate = loss;
        self
    }

    /// The Mathis-equation throughput ceiling for this path, or infinity
    /// on loss-free paths.
    fn mathis_cap(&self) -> f64 {
        let eff_loss = self.loss_rate * self.kernel.loss_recovery;
        if eff_loss <= 0.0 {
            return f64::INFINITY;
        }
        let rtt_s = self.rtt.as_secs_f64();
        (MSS / rtt_s) * 1.22 / eff_loss.sqrt()
    }

    /// Uses the given kernel profile.
    pub fn with_kernel(mut self, kernel: KernelProfile) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the path efficiency factor in `(0, 1]`.
    ///
    /// # Panics
    /// Panics if outside `(0, 1]`.
    pub fn with_path_efficiency(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0, "bad efficiency {eff}");
        self.path_efficiency = eff;
        self
    }

    /// Steady-state per-socket cap (bytes/sec): the tighter of the
    /// buffer/BDP limit and the loss (Mathis) limit.
    pub fn steady_cap(&self) -> f64 {
        let buffer_cap = self.kernel.bdp_cap(self.rtt).bytes_per_sec();
        buffer_cap.min(self.mathis_cap()) * self.path_efficiency
    }

    /// Slow-start envelope: the rate the window allows after `elapsed`
    /// time, before hitting the steady-state cap. The initial window is
    /// ten segments per RTT, doubling each RTT.
    fn ramp_cap(&self, elapsed: SimDuration) -> f64 {
        let rtt_s = self.rtt.as_secs_f64();
        if rtt_s <= 0.0 {
            return self.steady_cap();
        }
        let initial = INITIAL_WINDOW_SEGMENTS * MSS / rtt_s;
        let doublings = (elapsed.as_secs_f64() / rtt_s).min(60.0);
        let ramped = initial * 2f64.powf(doublings);
        ramped.min(self.steady_cap())
    }
}

/// Evolving state of a live TCP flow in the engine: tracks elapsed time so
/// the slow-start envelope can be applied as a per-tick cap.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TcpState {
    elapsed: f64, // seconds since flow start
}

impl TcpState {
    /// Fresh connection state.
    pub fn new() -> Self {
        TcpState { elapsed: 0.0 }
    }

    /// The per-socket cap for the upcoming tick.
    fn current_cap(&self, profile: &TcpProfile) -> f64 {
        profile.ramp_cap(SimDuration::from_secs_f64(self.elapsed))
    }

    /// Advances connection time by one tick.
    pub fn advance(&mut self, dt_secs: f64) {
        self.elapsed += dt_secs;
    }
}

/// Aggregate cap for `n` parallel sockets sharing one profile: `n` sockets
/// each contribute a window, so the bundle cap is `n ×` the per-socket cap.
pub fn bundle_cap(profile: &TcpProfile, state: &TcpState, sockets: u32) -> f64 {
    f64::from(sockets.max(1)) * state.current_cap(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdp_cap_shrinks_with_rtt() {
        let k = KernelProfile::default_linux();
        let fast = k.bdp_cap(SimDuration::from_millis(28));
        let slow = k.bdp_cap(SimDuration::from_millis(340));
        assert!(fast.bytes_per_sec() > slow.bytes_per_sec());
        // Ratio should be exactly the inverse RTT ratio.
        let ratio = fast.bytes_per_sec() / slow.bytes_per_sec();
        assert!((ratio - 340.0 / 28.0).abs() < 1e-9);
    }

    #[test]
    fn tuned_kernel_raises_cap() {
        let rtt = SimDuration::from_millis(120);
        let default = KernelProfile::default_linux().bdp_cap(rtt);
        let tuned = KernelProfile::tuned().bdp_cap(rtt);
        assert!(tuned.bytes_per_sec() > default.bytes_per_sec() * 10.0);
    }

    #[test]
    fn default_kernel_is_write_limited_by_read_buffer() {
        // min(4 MiB, 6 MiB) = 4 MiB governs.
        let k = KernelProfile::default_linux();
        assert_eq!(k.effective_window_bytes(), 4.0 * 1024.0 * 1024.0 * 0.75);
    }

    #[test]
    fn ramp_reaches_steady_state() {
        let p = TcpProfile::new(SimDuration::from_millis(100));
        let at_start = p.ramp_cap(SimDuration::ZERO);
        assert!((at_start - 10.0 * MSS / 0.1).abs() < 1e-6);
        let done = p.ramp_cap(SimDuration::from_secs(60));
        assert!((done - p.steady_cap()).abs() < 1e-6);
    }

    #[test]
    fn ramp_monotone_nondecreasing() {
        let p = TcpProfile::new(SimDuration::from_millis(50));
        let mut last = 0.0;
        for ms in (0..2000).step_by(50) {
            let c = p.ramp_cap(SimDuration::from_millis(ms));
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn bundle_scales_with_sockets() {
        let p = TcpProfile::new(SimDuration::from_millis(100));
        let mut s = TcpState::new();
        s.advance(60.0); // steady state
        let one = bundle_cap(&p, &s, 1);
        let many = bundle_cap(&p, &s, 160);
        assert!((many - 160.0 * one).abs() < 1e-6);
    }

    #[test]
    fn path_efficiency_scales_cap() {
        let rtt = SimDuration::from_millis(100);
        let base = TcpProfile::new(rtt).steady_cap();
        let lossy = TcpProfile::new(rtt).with_path_efficiency(0.5).steady_cap();
        assert!((lossy - base * 0.5).abs() < 1e-9);
    }
}
