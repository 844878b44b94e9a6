//! Order statistics for the timed metrics: quantiles, medians and the
//! equal-count windows the service workloads are summarised over.

use std::ops::Range;

/// Quantile `q` (0..=1) of an ascending slice, interpolating linearly
/// between the closest ranks. An empty slice has no quantile and yields 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    if lo + 1 >= sorted.len() {
        return last;
    }
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[lo + 1] - sorted[lo]) * frac
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First quartile, median and third quartile of unsorted values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    [
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    ]
}

/// Splits consecutive groups of `counts[i]` samples into `windows`
/// consecutive ranges of group indices whose sample totals are as equal as
/// group boundaries allow. Every range is non-empty when there are at
/// least as many groups as windows; with fewer groups, each group is its
/// own window.
pub fn equal_windows(counts: &[usize], windows: usize) -> Vec<Range<usize>> {
    let windows = windows.clamp(1, counts.len().max(1));
    let total: usize = counts.iter().sum();
    let mut out = Vec::with_capacity(windows);
    let mut start = 0;
    let mut seen = 0;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        let w = out.len() + 1;
        // Close window `w` once it holds its share of the total, leaving at
        // least one group for every window still to come.
        let groups_left = counts.len() - (i + 1);
        let windows_left = windows - w;
        let full = seen * windows >= total * w;
        if w < windows && (groups_left == windows_left || (full && groups_left > windows_left)) {
            out.push(start..i + 1);
            start = i + 1;
        }
    }
    if start < counts.len() {
        out.push(start..counts.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [2.0, 3.0, 4.0]);
    }

    #[test]
    fn p99_of_a_ramp_sits_one_percent_from_the_top() {
        let ramp: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&ramp, 0.99), 990.0);
        assert_eq!(quantile_sorted(&ramp, 0.999), 999.0);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(equal_windows(&[], 10).is_empty());
    }

    #[test]
    fn windows_split_equal_groups_evenly() {
        let w = equal_windows(&[256; 40], 10);
        assert_eq!(w.len(), 10);
        assert!(w.iter().all(|r| r.len() == 4), "{w:?}");
        assert_eq!(w.first().map(|r| r.start), Some(0));
        assert_eq!(w.last().map(|r| r.end), Some(40));
    }

    #[test]
    fn windows_cover_every_group_once() {
        let counts = [5, 1, 9, 2, 2, 7, 3, 3, 8, 1, 1];
        let w = equal_windows(&counts, 4);
        assert_eq!(w.len(), 4);
        let mut next = 0;
        for r in &w {
            assert_eq!(r.start, next);
            assert!(!r.is_empty());
            next = r.end;
        }
        assert_eq!(next, counts.len());
    }

    #[test]
    fn fewer_groups_than_windows_gives_one_window_per_group() {
        assert_eq!(equal_windows(&[3, 3], 10), vec![0..1, 1..2]);
        // A heavy last group cannot starve the windows before it.
        assert_eq!(
            equal_windows(&[1, 1, 1, 100], 4),
            vec![0..1, 1..2, 2..3, 3..4]
        );
    }

    #[test]
    fn window_medians_ignore_one_slow_window() {
        // Ten windows of throughput, one disturbed by a host hiccup: the
        // median stays with the nine steady ones.
        let mut rates = vec![100.0; 9];
        rates.push(10.0);
        assert_eq!(median(&rates), 100.0);
    }
}
