//! Estimators: quantiles, the quiet quartile, and the quartiles the noise
//! check compares runs with.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` of an ascending slice, interpolating linearly
/// between the two closest ranks. Empty input gives 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    match sorted.get(lo + 1) {
        Some(&hi) => sorted[lo] + (hi - sorted[lo]) * frac,
        None => last,
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The run's value for a timed metric: the quartile on the metric's good
/// side (p25 of times, p75 of rates). A neighbour on the shared box only
/// ever adds time, so the quiet quartile follows the program while the
/// median follows the neighbour.
pub fn quiet_quartile(values: &[f64], better: Better) -> f64 {
    let q = match better {
        Better::Lower => 0.25,
        Better::Higher => 0.75,
    };
    quantile(&sorted(values), q)
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), which is what the acceptance check
/// computes over ten runs. Needs at least two values.
pub fn py_quartiles(values: &[f64]) -> [f64; 3] {
    let x = sorted(values);
    let m = x.len();
    assert!(m >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance check holds against a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = py_quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// How much worse `after` is than `before`, as a share of `before`
/// (negative when it improved).
pub fn worsening(before: f64, after: f64, better: Better) -> f64 {
    if before == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (after - before) / before.abs(),
        Better::Higher => (before - after) / before.abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_vectors() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.75), 17.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn quiet_quartile_takes_the_good_side() {
        // Seven "rounds": a neighbour burst inflates three of them.
        let times = [100.0, 101.0, 99.0, 100.5, 140.0, 150.0, 135.0];
        let q = quiet_quartile(&times, Better::Lower);
        assert!(
            (99.0..=100.5).contains(&q),
            "p25 of times ignores the burst: {q}"
        );
        assert!(median(&times) > q);
        let rates = [10.0, 10.1, 9.9, 7.0, 6.5, 10.05, 7.2];
        let r = quiet_quartile(&rates, Better::Higher);
        assert!(
            (10.0..=10.1).contains(&r),
            "p75 of rates ignores the burst: {r}"
        );
    }

    #[test]
    fn py_quartiles_match_the_statistics_module() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(py_quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(py_quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
    }
}
