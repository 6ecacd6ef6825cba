//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as a median plus a *tail*: the highest percentile
//! of [`TAIL_LADDER`] that still has at least [`TAIL_MIN_BEYOND`] samples
//! beyond it, so a tail is never read off one or two outliers.

/// Candidate tail percentiles, lowest first.
pub const TAIL_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples a tail percentile must have strictly beyond its rank.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile read off a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample value at that percentile's nearest rank.
    pub value: f64,
    /// Samples strictly beyond the rank (at least [`TAIL_MIN_BEYOND`]).
    pub beyond: usize,
}

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Nearest-rank (1-based) of percentile `p` in a sample of `n`.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond its nearest rank; `None` when the sample is too small for any.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_LADDER.iter().rev().find_map(|&p| {
        if n == 0 {
            return None;
        }
        let rank = nearest_rank(p, n);
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail { percentile: p, value: sorted[rank - 1], beyond })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 100 samples: p90 is the highest with 10 beyond.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 20 samples: only the median qualifies.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        // 19 samples: nothing has ten beyond.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut shuffled = ramp(200);
        shuffled.reverse();
        assert_eq!(tail(&shuffled), tail(&ramp(200)));
    }
}
