//! The benchmark's own statistics: percentiles that refuse to report a tail
//! the sample cannot support, quartile spreads, and the generator-lateness
//! growth test used by the open-loop ladder.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off a sample, with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Samples the value was read from.
    pub n: usize,
}

/// Nearest-rank percentile `q` of `values`, or `None` when fewer than
/// [`MIN_BEYOND`] samples would lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<Pct> {
    assert!(q > 0.0 && q < 100.0, "percentile {q} outside (0, 100)");
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    if n - 1 - idx < MIN_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct {
        value: sorted[idx],
        n,
    })
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartiles with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so the spread printed here is the
/// one the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let at = |i: f64| {
        // Python clamps the rank but not the interpolation weight.
        let pos = i * (n + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, sorted.len() - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    (at(1.0), at(3.0))
}

/// Generator lateness of one open-loop phase: how far behind its schedule
/// the generator sent, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    /// 99th percentile, when the sample supports it.
    pub p99_ms: Option<f64>,
    /// Largest lateness seen.
    pub max_ms: f64,
    /// True when lateness rose through the phase: the generator fell
    /// steadily behind, so the offered rate was not sustained.
    pub growing: bool,
}

/// Allowed rise of the median lateness from the first to the last third of
/// a phase before it counts as growing.
pub const GROWTH_SLACK_MS: f64 = 5.0;

/// Lateness summary of a phase; `late_ms` is in schedule order. Lateness
/// grows when the median of the last third exceeds the median of the first
/// third by more than [`GROWTH_SLACK_MS`] — a backlog that builds up, as
/// opposed to isolated stalls the generator recovers from.
pub fn lateness(late_ms: &[f64]) -> Lateness {
    if late_ms.is_empty() {
        return Lateness {
            p99_ms: None,
            max_ms: 0.0,
            growing: false,
        };
    }
    let third = (late_ms.len() / 3).max(1);
    let first = median(&late_ms[..third]);
    let last = median(&late_ms[late_ms.len() - third..]);
    Lateness {
        p99_ms: percentile(late_ms, 99.0).map(|p| p.value),
        max_ms: late_ms.iter().copied().fold(0.0, f64::max),
        growing: last - first > GROWTH_SLACK_MS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&v, 99.0).expect("1000 samples support p99");
        assert_eq!(p.value, 990.0);
        assert_eq!(p.n, 1000);
        assert_eq!(v.iter().filter(|&&x| x > p.value).count(), 10);
        // 999 samples leave only 9 beyond the p99 rank.
        assert!(percentile(&v[..999], 99.0).is_none());
        assert!(percentile(&v[..100], 99.0).is_none());
        assert!(percentile(&v[..100], 50.0).is_some());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn steady_lateness_is_not_growth_but_a_backlog_is() {
        let steady: Vec<f64> = (0..300).map(|i| 0.2 + (i % 7) as f64 * 0.1).collect();
        let l = lateness(&steady);
        assert!(!l.growing);
        // One stall the generator recovers from is not growth either.
        let mut stall = steady.clone();
        for x in &mut stall[140..160] {
            *x += 40.0;
        }
        assert!(!lateness(&stall).growing);
        // A backlog: each request is sent a little later than the last.
        let backlog: Vec<f64> = (0..300).map(|i| i as f64 * 0.2).collect();
        let l = lateness(&backlog);
        assert!(l.growing);
        assert_eq!(l.max_ms, 299.0 * 0.2);
    }
}
