//! Sample summaries: median, quartiles and nearest-rank percentiles.

/// The spread of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `samples` (at least one).  Quartiles follow Python's
    /// `statistics.quantiles(data, n=4)` (the default `exclusive` method),
    /// so records compare directly with the acceptance arithmetic.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summarising an empty sample set");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, q3) = if sorted.len() < 2 {
            (sorted[0], sorted[0])
        } else {
            (quartile(&sorted, 1), quartile(&sorted, 3))
        };
        Summary {
            n: sorted.len(),
            q1,
            median: median_sorted(&sorted),
            q3,
        }
    }
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `i`-th of the `n = 4` exclusive-method quantiles of `sorted`
/// (`len >= 2`).
fn quartile(sorted: &[f64], i: usize) -> f64 {
    const N: usize = 4;
    let len = sorted.len();
    let m = len + 1;
    let j = (i * m / N).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * N) as f64;
    (sorted[j - 1] * (N as f64 - delta) + sorted[j] * delta) / N as f64
}

/// The nearest-rank `p`-th percentile of `samples` and how many samples lie
/// strictly beyond its rank (the guide's "ten samples beyond it" rule).
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.0, 4.0, 4.0));
    }

    #[test]
    fn percentile_counts_samples_beyond_its_rank() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), (190.0, 10));
        assert_eq!(percentile(&[3.0], 95.0), (3.0, 0));
    }
}
