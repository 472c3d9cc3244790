//! The per-connection credit window: how many chunk leases the
//! coordinator keeps outstanding on one worker.
//!
//! The paper's overlap argument applied to the fabric itself: a round
//! trip stays hidden only while enough independent compute is in flight
//! to cover it. A fixed window covers one RTT at one chunk cost; the
//! adaptive window measures both per connection and keeps about two
//! bandwidth-delay products of leases in flight:
//!
//! ```text
//! window = ceil(2 × min_rtt × max_rate)      clamped to [4, 65,536 points]
//! ```
//!
//! * `min_rtt` is the smallest grant→result time seen on the connection
//!   (queueing inside a deep window only ever adds to later samples).
//! * `max_rate` is the highest completion rate over the last 8 periods
//!   of one `min_rtt` each — a windowed-max filter, as in BBR, because
//!   results arrive in writer batches and a single period's rate swings
//!   by an order of magnitude.
//!
//! While the window is the bottleneck the measured rate is
//! `window / rtt`, so the target doubles every period; once compute is
//! the bottleneck it settles near twice the bandwidth-delay product.
//! Pure data, no I/O: callers pass `now`, which keeps it unit-testable.

use std::time::{Duration, Instant};

/// Leases per worker before anything is measured, advertised in
/// `Welcome`, and the adaptive window's floor.
pub const INITIAL_WINDOW: usize = 4;

/// Point budget of one adaptive window. It bounds the work a dead
/// worker's requeue throws back (grants name chunk ids, so the grant
/// frame no longer grows with points).
pub const MAX_WINDOW_POINTS: usize = 65_536;

/// Periods the windowed-max rate filter remembers.
const RATE_PERIODS: usize = 8;

/// One connection's credit window: adaptive by default, or pinned.
#[derive(Debug, Clone)]
pub(crate) struct CreditWindow {
    size: usize,
    pinned: bool,
    min_rtt: Option<Duration>,
    /// Start of the open measurement period and the results counted in
    /// it so far.
    period: Option<(Instant, u32)>,
    /// Completion rates (results/s) of the last closed periods, a ring.
    rates: [f64; RATE_PERIODS],
    next_rate: usize,
}

impl CreditWindow {
    /// A window pinned at `pinned` leases, or an adaptive one starting
    /// at [`INITIAL_WINDOW`] when `None`.
    #[must_use]
    pub(crate) fn new(pinned: Option<usize>) -> Self {
        Self {
            size: pinned.unwrap_or(INITIAL_WINDOW).max(1),
            pinned: pinned.is_some(),
            min_rtt: None,
            period: None,
            rates: [0.0; RATE_PERIODS],
            next_rate: 0,
        }
    }

    /// Leases to keep outstanding right now.
    #[must_use]
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Smallest grant→result time measured so far.
    #[must_use]
    pub(crate) fn min_rtt(&self) -> Option<Duration> {
        self.min_rtt
    }

    /// A result arrived at `now`, `rtt` after its lease was granted.
    /// Closes the measurement period once it has lasted `min_rtt` and
    /// resizes the window for leases of `chunk_size` points.
    pub(crate) fn on_result(&mut self, rtt: Duration, now: Instant, chunk_size: usize) {
        let min_rtt = self.min_rtt.map_or(rtt, |m| m.min(rtt));
        self.min_rtt = Some(min_rtt);
        if self.pinned {
            return;
        }
        let Some((start, results)) = &mut self.period else {
            self.period = Some((now, 0));
            return;
        };
        *results += 1;
        let elapsed = now.saturating_duration_since(*start);
        if elapsed < min_rtt || elapsed.is_zero() {
            return;
        }
        self.rates[self.next_rate] = f64::from(*results) / elapsed.as_secs_f64();
        self.next_rate = (self.next_rate + 1) % RATE_PERIODS;
        self.period = Some((now, 0));
        let max_rate = self.rates.iter().copied().fold(0.0, f64::max);
        let target = (2.0 * min_rtt.as_secs_f64() * max_rate).ceil();
        let cap = (MAX_WINDOW_POINTS / chunk_size.max(1)).max(INITIAL_WINDOW);
        // `as` saturates, so an absurd rate still lands on the cap.
        self.size = (target as usize).clamp(INITIAL_WINDOW, cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// Drive `w` as a worker whose results come back `rtt` after their
    /// grant, each taking `cost` of compute, for `periods` round trips.
    /// Returns the window after each round trip.
    fn simulate(w: &mut CreditWindow, rtt: Duration, cost: Duration, periods: usize) -> Vec<usize> {
        let mut now = Instant::now();
        let mut sizes = Vec::new();
        for _ in 0..periods {
            // One window's worth of results; compute serializes them, the
            // round trip is paid once per window.
            let n = w.size();
            for i in 0..n {
                let queued = cost * i as u32;
                w.on_result(rtt + queued, now + rtt + queued, 4);
            }
            now += rtt.max(cost * n as u32);
            sizes.push(w.size());
        }
        sizes
    }

    #[test]
    fn window_doubles_while_it_is_the_bottleneck_then_settles() {
        let mut w = CreditWindow::new(None);
        assert_eq!(w.size(), INITIAL_WINDOW);
        // 1 ms RTT, 10 µs per chunk: the compute-bound window is 2 ×
        // 1 ms × 100k/s = 200 leases.
        // This round-granular model applies a resize only at the next
        // round trip, so the window doubles every other round here.
        let sizes = simulate(&mut w, MS, Duration::from_micros(10), 40);
        assert!(sizes[..10].windows(2).all(|p| p[1] >= p[0]), "{sizes:?}");
        assert!(sizes[9] >= 64, "grows geometrically: {sizes:?}");
        let last = *sizes.last().unwrap();
        assert!(
            (150..=450).contains(&last),
            "settles near 2x BDP: {sizes:?}"
        );
        assert_eq!(w.min_rtt(), Some(MS));
    }

    #[test]
    fn window_is_clamped_to_the_point_budget_and_the_floor() {
        let mut w = CreditWindow::new(None);
        simulate(&mut w, 50 * MS, Duration::from_nanos(100), 30);
        assert_eq!(
            w.size(),
            MAX_WINDOW_POINTS / 4,
            "capped by the point budget"
        );

        // No latency to hide: the window never drops below its floor.
        let mut w = CreditWindow::new(None);
        simulate(&mut w, Duration::from_micros(1), MS, 20);
        assert_eq!(w.size(), INITIAL_WINDOW);
    }

    #[test]
    fn a_pinned_window_never_moves_but_still_measures_rtt() {
        let mut w = CreditWindow::new(Some(1));
        let sizes = simulate(&mut w, 5 * MS, Duration::from_micros(10), 10);
        assert!(sizes.iter().all(|&s| s == 1), "{sizes:?}");
        assert_eq!(w.min_rtt(), Some(5 * MS));
    }
}
