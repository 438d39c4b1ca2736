//! Order statistics and the small JSON-free accumulators the harness uses.

/// Nearest-rank percentile (`ceil(p·n)`-th smallest) of an ascending
/// slice; `None` when the slice is empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median of an unsorted sample (nearest rank); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).unwrap_or(f64::NAN)
}

/// Mean of a sample; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    /// The percentile actually reported (may be lower than asked when
    /// the sample is too small, see [`tail`]).
    pub p: f64,
    pub value: f64,
}

/// The `p`-th percentile, or — when fewer than ten samples lie beyond
/// it — the highest percentile that still has ten samples beyond it.
/// `None` for fewer than eleven samples.
pub fn tail(sorted: &[f64], p: f64) -> Option<Pct> {
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    let max_p = (n - 10) as f64 / n as f64;
    let p = p.min(max_p);
    percentile(sorted, p).map(|value| Pct { p, value })
}

/// Sorts a sample in place and returns it (convenience for chaining).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), Some(2.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_backs_off_to_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 0.99).unwrap();
        assert_eq!(t.p, 0.9);
        assert_eq!(t.value, 90.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99).unwrap().p, 0.99);
    }
}
