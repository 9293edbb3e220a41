//! Order statistics on raw samples.
//!
//! Every number the benchmark reports is computed here from the raw
//! samples it collected — never from histogram buckets, whose edges would
//! be reported instead of the data. A percentile is only given when at
//! least [`MIN_BEYOND`] samples lie beyond it; anything less is refused,
//! because (for example) the "p95" of five samples is just their maximum.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample that supports a p99.
pub const TAIL_SAMPLES: usize = 1000;

/// Percentiles tried, highest first, when looking for the tail to report.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A percentile the sample cannot support.
#[derive(Debug, Clone, PartialEq)]
pub struct Unsupported {
    /// Requested percentile.
    pub pct: f64,
    /// Sample count.
    pub n: usize,
}

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} needs at least {MIN_BEYOND} samples beyond it, n={} gives {}",
            self.pct,
            self.n,
            beyond(self.pct, self.n)
        )
    }
}

/// Median, tail percentile and sample count of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the middle two for even `n`).
    pub median: f64,
    /// Highest percentile with at least [`MIN_BEYOND`] samples beyond it,
    /// as `(pct, value)`; `None` when even p75 is unsupported.
    pub tail: Option<(f64, f64)>,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of percentile `pct` in a sorted sample of `n`.
fn rank_index(pct: f64, n: usize) -> usize {
    let r = (pct / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank position of `pct`.
fn beyond(pct: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(pct, n)
    }
}

/// Median of the samples; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile, refused unless [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn percentile(xs: &[f64], pct: f64) -> Result<f64, Unsupported> {
    let n = xs.len();
    if n == 0 || beyond(pct, n) < MIN_BEYOND {
        return Err(Unsupported { pct, n });
    }
    Ok(sorted(xs)[rank_index(pct, n)])
}

/// Median plus the highest supported tail percentile.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let median = median(xs)?;
    let tail = TAIL_CANDIDATES
        .iter()
        .find_map(|&p| percentile(xs, p).ok().map(|v| (p, v)));
    Some(Summary {
        n: xs.len(),
        median,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so sorting is exercised.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_of_five_is_refused() {
        let err = percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 95.0).unwrap_err();
        assert_eq!(err, Unsupported { pct: 95.0, n: 5 });
        assert!(err.to_string().contains("n=5"));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(percentile(&ramp(999), 99.0).is_err());
        let v = percentile(&ramp(1000), 99.0).unwrap();
        // Nearest rank 990 of 0..1000 is the value 989; ten lie beyond it.
        assert_eq!(v, 989.0);
    }

    #[test]
    fn percentile_is_a_sample_value_not_a_bucket_edge() {
        let xs: Vec<f64> = (0..200).map(|i| 1.0 + i as f64 * 0.001).collect();
        let p90 = percentile(&xs, 90.0).unwrap();
        assert!(xs.contains(&p90));
    }

    #[test]
    fn summary_picks_highest_supported_tail() {
        let s = summarize(&ramp(1000)).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail.map(|t| t.0), Some(99.0));
        let s = summarize(&ramp(200)).unwrap();
        assert_eq!(s.tail.map(|t| t.0), Some(95.0));
        let s = summarize(&ramp(20)).unwrap();
        assert_eq!(s.tail, None);
        assert_eq!(s.median, 9.5);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(summarize(&[]).is_none());
    }
}
