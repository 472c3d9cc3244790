//! Order statistics over samples.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples per window in [`best_window`]: enough for ten beyond the p99.
pub const WINDOW: usize = 1000;

/// The lowest, over consecutive windows of [`WINDOW`] samples, of each
/// window's `q`-quantile (one window when there are fewer samples).
/// Other tenants of a shared host only ever add latency, and they come
/// and go within a run, so the quietest window is the steadiest estimate
/// of what the program itself does.
pub fn best_window(values: &[f64], q: f64) -> f64 {
    values
        .chunks(WINDOW)
        .filter(|w| w.len() == WINDOW || values.len() < WINDOW)
        .map(|w| quantile(w, q))
        .fold(f64::INFINITY, f64::min)
}

/// Seconds as milliseconds.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        let mut bursty: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        bursty[1500] = 1e9;
        assert_eq!(best_window(&bursty, 1.0), 999.0);
        assert_eq!(best_window(&v, 0.5), 2.5);
    }
}
