//! Spans recorded by the traced run around its calls into each layer.
//! Each thread fills its own [`Lane`]; lanes merge into a [`Trace`] that
//! answers per-layer totals and how much wall time no span covers.

use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
}

/// One thread's spans, timed against a shared origin.
#[derive(Debug)]
pub struct Lane {
    origin: Instant,
    spans: Vec<Span>,
}

impl Lane {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end });
        out
    }

    /// Record a span measured elsewhere, in seconds since the origin.
    pub fn push(&mut self, name: &'static str, start: f64, end: f64) {
        self.spans.push(Span { name, start, end });
    }
}

/// All lanes of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn add(&mut self, lane: Lane) {
        self.spans.extend(lane.spans);
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Share of the window `[start, end]` (seconds since the origin)
    /// that no span of any lane covers.
    pub fn uncovered_share(&self, start: f64, end: f64) -> f64 {
        let mut iv: Vec<(f64, f64)> = self
            .spans
            .iter()
            .map(|s| (s.start.max(start), s.end.min(end)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let wall = end - start;
        if wall <= 0.0 {
            0.0
        } else {
            (1.0 - covered / wall).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_lanes_count_once_toward_coverage() {
        let origin = Instant::now();
        let mut a = Lane::new(origin);
        a.push("x", 0.0, 4.0);
        let mut b = Lane::new(origin);
        b.push("y", 2.0, 6.0);
        b.push("y", 8.0, 9.0);
        let mut t = Trace::default();
        t.add(a);
        t.add(b);
        assert_eq!(t.total("y"), 5.0);
        assert!((t.uncovered_share(0.0, 10.0) - 0.3).abs() < 1e-12);
    }
}
