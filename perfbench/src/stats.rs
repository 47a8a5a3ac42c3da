//! Order statistics over raw samples (no bucketing).

/// Median of `values`: the middle value, or the mean of the middle two.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of ascending nanosecond samples, in microseconds.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median_us(sorted_ns: &[u64]) -> f64 {
    assert!(!sorted_ns.is_empty(), "median of no samples");
    let mid = sorted_ns.len() / 2;
    let ns = if sorted_ns.len() % 2 == 1 {
        sorted_ns[mid] as f64
    } else {
        (sorted_ns[mid - 1] as f64 + sorted_ns[mid] as f64) / 2.0
    };
    ns / 1e3
}

/// Nearest-rank quantile `q` of ascending `sorted` samples, and how many
/// samples lie strictly after the reported rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn rank_quantile(sorted: &[u64], q: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// A latency summary line: each quantile with its sample count; the tail
/// quantile only when at least ten samples lie beyond it.
pub fn latency_notes(what: &str, sorted_ns: &[u64]) -> Vec<String> {
    let n = sorted_ns.len();
    let mut notes = vec![format!("{what} p50_us = {:.3} (n = {n})", median_us(sorted_ns))];
    let (p99, beyond) = rank_quantile(sorted_ns, 0.99);
    if beyond >= 10 {
        notes.push(format!("{what} p99_us = {:.3} (n = {n}, {beyond} beyond)", p99 as f64 / 1e3));
    } else {
        notes.push(format!("{what} p99_us omitted: {beyond} of {n} samples beyond it (< 10)"));
    }
    let max = sorted_ns.last().copied().unwrap_or(0);
    notes.push(format!("{what} max_us = {:.3}", max as f64 / 1e3));
    notes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(rank_quantile(&sorted, 0.5), (500, 500));
        assert_eq!(rank_quantile(&sorted, 0.99), (990, 10));
        assert_eq!(rank_quantile(&[7], 0.99), (7, 0));
    }

    #[test]
    fn tail_is_omitted_without_ten_samples_beyond() {
        let few: Vec<u64> = (1..=500).collect();
        assert!(latency_notes("x", &few)[1].contains("omitted"));
        let many: Vec<u64> = (1..=1000).collect();
        assert!(latency_notes("x", &many)[1].contains("10 beyond"));
    }
}
