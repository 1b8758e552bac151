//! The Tor metrics archive model (§3).
//!
//! The Tor Project has published relay server descriptors and network
//! consensuses for over a decade; §3 analyses 11 years of them. This
//! module models that corpus: a time grid of fixed-length steps, and per
//! relay a presence window with an *advertised bandwidth* series (from
//! descriptors) and a *consensus weight* series (from consensuses).

/// One relay's time series within an archive.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaySeries {
    /// First step at which the relay is present.
    pub start_step: usize,
    /// Advertised bandwidth per step while present (bytes/s).
    pub advertised: Vec<f64>,
    /// Raw (unnormalized) consensus weight per step while present.
    pub weight: Vec<f64>,
}

impl RelaySeries {
    /// Number of steps the relay is present.
    pub fn len(&self) -> usize {
        self.advertised.len()
    }

    /// True if the relay never appears.
    pub fn is_empty(&self) -> bool {
        self.advertised.is_empty()
    }

    /// The step one past the relay's last presence.
    pub fn end_step(&self) -> usize {
        self.start_step + self.advertised.len()
    }
}

/// A time-gridded archive of descriptors and consensus weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Archive {
    /// Hours per step.
    pub step_hours: f64,
    /// Total steps covered.
    pub steps: usize,
    relays: Vec<RelaySeries>,
    /// Σ raw weight over present relays, per step (for normalisation).
    weight_totals: Vec<f64>,
}

impl Archive {
    /// An empty archive with the given grid.
    ///
    /// # Panics
    /// Panics if the grid is degenerate.
    pub fn new(step_hours: f64, steps: usize) -> Self {
        assert!(step_hours > 0.0 && step_hours.is_finite(), "bad step {step_hours}");
        assert!(steps > 0, "need at least one step");
        Archive { step_hours, steps, relays: Vec::new(), weight_totals: vec![0.0; steps] }
    }

    /// Adds a relay's series; returns its index.
    ///
    /// # Panics
    /// Panics if the series extends beyond the grid or the two series
    /// disagree in length.
    pub fn add_relay(&mut self, series: RelaySeries) -> usize {
        assert_eq!(series.advertised.len(), series.weight.len(), "series length mismatch");
        assert!(series.end_step() <= self.steps, "series exceeds archive grid");
        for (i, w) in series.weight.iter().enumerate() {
            self.weight_totals[series.start_step + i] += w;
        }
        self.relays.push(series);
        self.relays.len() - 1
    }

    /// Number of relays ever present.
    pub fn relay_count(&self) -> usize {
        self.relays.len()
    }

    /// A relay's series.
    pub fn relay(&self, r: usize) -> &RelaySeries {
        &self.relays[r]
    }

    /// Whether relay `r` is present at step `t`.
    pub fn present(&self, r: usize, t: usize) -> bool {
        let s = &self.relays[r];
        t >= s.start_step && t < s.end_step()
    }

    /// Advertised bandwidth of `r` at `t`, if present.
    pub fn advertised(&self, r: usize, t: usize) -> Option<f64> {
        if !self.present(r, t) {
            return None;
        }
        Some(self.relays[r].advertised[t - self.relays[r].start_step])
    }

    /// Normalized consensus weight of `r` at `t`, if present.
    pub fn normalized_weight(&self, r: usize, t: usize) -> Option<f64> {
        if !self.present(r, t) {
            return None;
        }
        let total = self.weight_totals[t];
        if total <= 0.0 {
            return Some(0.0);
        }
        Some(self.relays[r].weight[t - self.relays[r].start_step] / total)
    }

    /// Converts a duration in hours to whole steps (at least 1).
    pub fn steps_for_hours(&self, hours: f64) -> usize {
        ((hours / self.step_hours).round() as usize).max(1)
    }

    /// Steps per common analysis periods: (day, week, month, year).
    pub fn period_steps(&self) -> (usize, usize, usize, usize) {
        (
            self.steps_for_hours(24.0),
            self.steps_for_hours(24.0 * 7.0),
            self.steps_for_hours(24.0 * 30.0),
            self.steps_for_hours(24.0 * 365.0),
        )
    }

    /// Iterates relay indices.
    pub fn relay_ids(&self) -> std::ops::Range<usize> {
        0..self.relays.len()
    }
}

/// Computes the trailing-window maximum of `values` for a window of
/// `window` samples **including the current one** — Eq. (1)'s
/// `C(r,t,p) = max(A(r,t,p))` on the step grid. Uses a monotonic deque
/// (O(n) total).
pub fn trailing_max(values: &[f64], window: usize) -> Vec<f64> {
    assert!(window >= 1, "window must be at least 1");
    let mut out = Vec::with_capacity(values.len());
    let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for (i, &v) in values.iter().enumerate() {
        while let Some(&back) = deque.back() {
            if values[back] <= v {
                deque.pop_back();
            } else {
                break;
            }
        }
        deque.push_back(i);
        if let Some(&front) = deque.front() {
            if front + window <= i {
                deque.pop_front();
            }
        }
        out.push(values[*deque.front().expect("non-empty")]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_archive() -> Archive {
        let mut a = Archive::new(1.0, 10);
        a.add_relay(RelaySeries {
            start_step: 0,
            advertised: vec![10.0; 10],
            weight: vec![1.0; 10],
        });
        a.add_relay(RelaySeries { start_step: 5, advertised: vec![30.0; 5], weight: vec![3.0; 5] });
        a
    }

    #[test]
    fn presence_windows() {
        let a = tiny_archive();
        assert!(a.present(0, 0));
        assert!(!a.present(1, 4));
        assert!(a.present(1, 5));
        assert!(a.present(1, 9));
        assert_eq!(a.advertised(1, 4), None);
        assert_eq!(a.advertised(1, 5), Some(30.0));
    }

    #[test]
    fn weights_normalize_per_step() {
        let a = tiny_archive();
        // Before relay 1 joins, relay 0 has all the weight.
        assert_eq!(a.normalized_weight(0, 0), Some(1.0));
        // After, weights split 1:3.
        assert_eq!(a.normalized_weight(0, 7), Some(0.25));
        assert_eq!(a.normalized_weight(1, 7), Some(0.75));
    }

    #[test]
    fn trailing_max_window_semantics() {
        let v = [1.0, 5.0, 2.0, 2.0, 8.0, 1.0, 1.0, 1.0];
        assert_eq!(trailing_max(&v, 1), v.to_vec());
        let m3 = trailing_max(&v, 3);
        assert_eq!(m3, vec![1.0, 5.0, 5.0, 5.0, 8.0, 8.0, 8.0, 1.0]);
        let m100 = trailing_max(&v, 100);
        assert_eq!(m100.last(), Some(&8.0));
    }

    #[test]
    fn period_steps_scale_with_resolution() {
        let a = Archive::new(6.0, 100);
        let (d, w, m, y) = a.period_steps();
        assert_eq!(d, 4);
        assert_eq!(w, 28);
        assert_eq!(m, 120);
        assert_eq!(y, 1460);
    }

    #[test]
    #[should_panic]
    fn series_beyond_grid_rejected() {
        let mut a = Archive::new(1.0, 5);
        a.add_relay(RelaySeries { start_step: 3, advertised: vec![1.0; 5], weight: vec![1.0; 5] });
    }
}
