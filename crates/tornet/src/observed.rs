//! The observed-bandwidth self-measurement heuristic.
//!
//! A Tor relay's *observed bandwidth* is "the highest Tor throughput that
//! the relay was able to sustain for any 10-second period during the last
//! 5 days" (paper §2, citing tor-spec §2.1.1). Its *advertised bandwidth*
//! is the minimum of the observed bandwidth and any configured rate limit,
//! published in a server descriptor every 18 hours.
//!
//! This heuristic is the root cause of the capacity-estimation error the
//! paper quantifies in §3: an underutilised relay never sustains its true
//! capacity for 10 seconds, so it never reports it. The §3.4 speed test
//! (and FlashFlow itself) work precisely by pushing relays through this
//! code path.

use std::collections::VecDeque;

use flashflow_simnet::units::Rate;

/// Length of the sliding throughput window, in seconds.
const WINDOW_SECS: usize = 10;
/// Days of throughput history retained.
const HISTORY_DAYS: u64 = 5;

/// Tracks a relay's observed bandwidth from its per-second forwarded
/// byte counts.
///
/// ```
/// use flashflow_tornet::observed::ObservedBandwidth;
/// let mut ob = ObservedBandwidth::new();
/// for _ in 0..10 {
///     ob.push_second(5_000_000.0); // 5 MB/s sustained for 10 s
/// }
/// assert_eq!(ob.observed().bytes_per_sec(), 5_000_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct ObservedBandwidth {
    window: VecDeque<f64>,
    window_sum: f64,
    /// Best 10-second average seen during the current day (bytes/s).
    current_day_max: f64,
    /// (day index, best 10-second average that day).
    daily_maxes: VecDeque<(u64, f64)>,
    /// Seconds pushed so far (drives day boundaries).
    seconds_elapsed: u64,
}

impl ObservedBandwidth {
    /// A tracker with no history.
    pub fn new() -> Self {
        ObservedBandwidth {
            window: VecDeque::with_capacity(WINDOW_SECS),
            window_sum: 0.0,
            current_day_max: 0.0,
            daily_maxes: VecDeque::new(),
            seconds_elapsed: 0,
        }
    }

    /// Records one second of forwarded traffic.
    pub fn push_second(&mut self, bytes: f64) {
        self.window.push_back(bytes);
        self.window_sum += bytes;
        if self.window.len() > WINDOW_SECS {
            self.window_sum -= self.window.pop_front().expect("non-empty");
        }
        if self.window.len() == WINDOW_SECS {
            let avg = self.window_sum / WINDOW_SECS as f64;
            if avg > self.current_day_max {
                self.current_day_max = avg;
            }
        }
        self.seconds_elapsed += 1;
        if self.seconds_elapsed.is_multiple_of(86_400) {
            self.roll_day();
        }
    }

    fn roll_day(&mut self) {
        let day = self.seconds_elapsed / 86_400;
        self.daily_maxes.push_back((day, self.current_day_max));
        while self.daily_maxes.len() as u64 > HISTORY_DAYS {
            self.daily_maxes.pop_front();
        }
        self.current_day_max = 0.0;
    }

    /// The observed bandwidth: the best 10-second average over the
    /// retained history (including the in-progress day).
    pub fn observed(&self) -> Rate {
        let best_past = self.daily_maxes.iter().map(|(_, m)| *m).fold(0.0, f64::max);
        Rate::from_bytes_per_sec(best_past.max(self.current_day_max))
    }

    /// The advertised bandwidth: `min(observed, rate_limit)` (§2).
    pub fn advertised(&self, rate_limit: Option<Rate>) -> Rate {
        match rate_limit {
            Some(limit) => self.observed().min(limit),
            None => self.observed(),
        }
    }

    /// Total seconds of history pushed so far.
    pub fn seconds_elapsed(&self) -> u64 {
        self.seconds_elapsed
    }
}

impl Default for ObservedBandwidth {
    fn default() -> Self {
        ObservedBandwidth::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn needs_ten_seconds_to_register() {
        let mut ob = ObservedBandwidth::new();
        for _ in 0..9 {
            ob.push_second(1e6);
        }
        assert_eq!(ob.observed().bytes_per_sec(), 0.0, "9 seconds is not a 10 s period");
        ob.push_second(1e6);
        assert_eq!(ob.observed().bytes_per_sec(), 1e6);
    }

    #[test]
    fn short_burst_is_diluted() {
        // A 1-second burst inside a quiet stretch only contributes 1/10 of
        // its rate to the best window.
        let mut ob = ObservedBandwidth::new();
        for _ in 0..20 {
            ob.push_second(0.0);
        }
        ob.push_second(100e6);
        for _ in 0..20 {
            ob.push_second(0.0);
        }
        assert_eq!(ob.observed().bytes_per_sec(), 10e6);
    }

    #[test]
    fn sustained_load_registers_fully() {
        let mut ob = ObservedBandwidth::new();
        for _ in 0..30 {
            ob.push_second(7e6);
        }
        assert_eq!(ob.observed().bytes_per_sec(), 7e6);
    }

    #[test]
    fn history_expires_after_five_days() {
        let mut ob = ObservedBandwidth::new();
        // Day 0: a strong 10-second period.
        for _ in 0..10 {
            ob.push_second(50e6);
        }
        // Fill out day 0 and five more idle days.
        for _ in 0..(86_400 - 10) {
            ob.push_second(0.0);
        }
        assert_eq!(ob.observed().bytes_per_sec(), 50e6, "same-day max retained");
        for day in 0..5 {
            for _ in 0..86_400 {
                ob.push_second(0.0);
            }
            if day < 4 {
                assert_eq!(ob.observed().bytes_per_sec(), 50e6, "day {day} should retain");
            }
        }
        assert_eq!(ob.observed().bytes_per_sec(), 0.0, "history expired");
    }

    #[test]
    fn advertised_clamped_by_rate_limit() {
        let mut ob = ObservedBandwidth::new();
        for _ in 0..10 {
            ob.push_second(40e6);
        }
        let limit = Rate::from_bytes_per_sec(10e6);
        assert_eq!(ob.advertised(Some(limit)).bytes_per_sec(), 10e6);
        assert_eq!(ob.advertised(None).bytes_per_sec(), 40e6);
    }

    #[test]
    fn underutilised_relay_underestimates() {
        // The §3 phenomenon in miniature: a relay with true capacity
        // 100 MB/s that only ever carries 20 MB/s reports 20 MB/s.
        let mut ob = ObservedBandwidth::new();
        for _ in 0..3600 {
            ob.push_second(20e6);
        }
        assert!(ob.observed().bytes_per_sec() < 100e6 * 0.25);
    }
}
