//! Order statistics for everything the benchmark reports.
//!
//! The `criterion` shim's only statistic is min-of-N, which cannot tell a
//! small change from noise; every figure here is a median with its
//! quartiles and sample count instead. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (exclusive method), because that is
//! what the driver computes run-to-run spread with.

/// Median, quartiles, MAD and sample count of one measured quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Value at fractional 1-based rank `pos` of sorted `v` (two or more
/// samples), extrapolating past the ends — the interpolation rule of
/// `statistics.quantiles(method="exclusive")`.
fn at_rank(v: &[f64], pos: f64) -> f64 {
    let j = (pos.floor() as usize).clamp(1, v.len() - 1);
    v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them; a single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        1 => Some((v[0], v[0])),
        n => {
            let m = (n + 1) as f64;
            Some((at_rank(&v, m * 0.25), at_rank(&v, m * 0.75)))
        }
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Full summary of one quantity; `None` when there are no samples.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let (q1, q3) = quartiles(values)?;
    Some(Summary {
        median: median(values)?,
        q1,
        q3,
        mad: mad(values)?,
        n: values.len(),
    })
}

/// The `p`-th percentile (0–100) by nearest rank on the pooled samples.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, with its value; `None` below 20 samples, where even
/// the median has fewer than ten on one side.
pub fn highest_supported_percentile(values: &[f64]) -> Option<(f64, f64)> {
    // Per mille, so that "ten samples beyond" is exact integer arithmetic.
    const LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];
    let p = LADDER
        .into_iter()
        .find(|p| values.len() * (1000 - p) / 1000 >= 10)? as f64
        / 10.0;
    Some((p, percentile(values, p)?))
}

/// Percentile over the concatenation of several reps' samples.
pub fn pooled_percentile(reps: &[Vec<f64>], p: f64) -> Option<f64> {
    let pooled: Vec<f64> = reps.iter().flatten().copied().collect();
    percentile(&pooled, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), Some(1.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[5.0], 1.0), Some(5.0));
    }

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        let v = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64).collect() };
        assert_eq!(highest_supported_percentile(&v(19)), None);
        assert_eq!(
            highest_supported_percentile(&v(20)).map(|p| p.0),
            Some(50.0)
        );
        assert_eq!(
            highest_supported_percentile(&v(100)).map(|p| p.0),
            Some(90.0)
        );
        assert_eq!(
            highest_supported_percentile(&v(200)).map(|p| p.0),
            Some(95.0)
        );
        assert_eq!(
            highest_supported_percentile(&v(1000)).map(|p| p.0),
            Some(99.0)
        );
        assert_eq!(
            highest_supported_percentile(&v(10_000)).map(|p| p.0),
            Some(99.9)
        );
    }

    #[test]
    fn pooled_percentile_concatenates_reps() {
        let reps = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(pooled_percentile(&reps, 50.0), Some(2.0));
        assert_eq!(pooled_percentile(&[], 50.0), None);
    }
}
