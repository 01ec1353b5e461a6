//! Percentiles.

/// Linearly interpolated quantile `q ∈ [0, 1]` of `values` (NaN if empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99/p95/p90/p75 with at least ten of `n` samples beyond
/// it, else p50.
pub fn tail_quantile(n: usize) -> f64 {
    [0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q) + 1e-9).floor() >= 10.0)
        .unwrap_or(0.5)
}

/// Samples needed for quantile `q` to have ten beyond it.
pub fn samples_for(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_numpy_linear() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), 0.5);
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(1000), 0.99);
        for q in [0.5, 0.75, 0.9] {
            assert_eq!(tail_quantile(samples_for(q)), q);
        }
    }
}
