//! The fixed-size value table with LFU cleaning.

/// Profiler tuning parameters (defaults follow the Calder et al. scheme
/// with a small table, as in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Maximum distinct values tracked per site.
    pub table_size: usize,
    /// Every `clean_period` recordings, evict the least frequently used
    /// half of the table so new values can enter.
    pub clean_period: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig { table_size: 8, clean_period: 2048 }
    }
}

/// A candidate specialization range extracted from a profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeEstimate {
    /// Lower bound (inclusive).
    pub min: i64,
    /// Upper bound (inclusive).
    pub max: i64,
    /// Fraction of site executions whose value fell in `[min, max]`
    /// (the paper's `Freq(min,max)`), estimated from the table contents.
    pub freq: f64,
}

/// One profiling site's fixed-size value table.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueTable {
    entries: Vec<(i64, u64)>,
    table_size: usize,
    clean_period: u64,
    since_clean: u64,
    /// Total number of recordings (the separate execution counter of the
    /// Calder scheme).
    total: u64,
}

impl ValueTable {
    /// An empty table.
    pub fn new(config: &ProfileConfig) -> ValueTable {
        ValueTable {
            entries: Vec::with_capacity(config.table_size),
            table_size: config.table_size.max(1),
            clean_period: config.clean_period.max(1),
            since_clean: 0,
            total: 0,
        }
    }

    /// Record one observed value.
    pub fn record(&mut self, value: i64) {
        self.total += 1;
        self.since_clean += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == value) {
            e.1 += 1;
        } else if self.entries.len() < self.table_size {
            self.entries.push((value, 1));
        }
        // else: table full, value ignored (until the next cleaning).
        if self.since_clean >= self.clean_period {
            self.clean();
        }
    }

    /// Evict the least frequently used half of the table.
    fn clean(&mut self) {
        self.since_clean = 0;
        self.entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let keep = self.table_size.div_ceil(2);
        self.entries.truncate(keep);
    }

    /// Total times this site executed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Tracked `(value, count)` pairs, hottest first.
    pub fn entries(&self) -> Vec<(i64, u64)> {
        let mut v = self.entries.clone();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Candidate specialization ranges, most promising first:
    ///
    /// 1. the single hottest value (`min == max`, enabling constant
    ///    propagation in the specialized clone),
    /// 2. hulls of the top-k hottest values for growing k.
    ///
    /// At most `max_candidates` estimates are returned. Frequencies are
    /// estimated against the total execution count, so values that were
    /// ignored while the table was full conservatively count as
    /// out-of-range.
    pub fn candidate_ranges(&self, max_candidates: usize) -> Vec<RangeEstimate> {
        let entries = self.entries();
        if entries.is_empty() || self.total == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut covered = 0u64;
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for (i, &(v, c)) in entries.iter().enumerate() {
            covered += c;
            min = min.min(v);
            max = max.max(v);
            out.push(RangeEstimate { min, max, freq: covered as f64 / self.total as f64 });
            if i + 1 >= max_candidates {
                break;
            }
        }
        // Deduplicate identical hulls (e.g. when a wider top-k adds a value
        // already inside the hull, only the frequency improves).
        out.dedup_by(|b, a| {
            if a.min == b.min && a.max == b.max {
                a.freq = a.freq.max(b.freq);
                true
            } else {
                false
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: usize, period: u64) -> ProfileConfig {
        ProfileConfig { table_size: size, clean_period: period }
    }

    #[test]
    fn counts_repeated_values() {
        let mut t = ValueTable::new(&cfg(4, 1000));
        for _ in 0..10 {
            t.record(7);
        }
        t.record(9);
        assert_eq!(t.total(), 11);
        assert_eq!(t.entries()[0], (7, 10));
        assert_eq!(t.entries()[1], (9, 1));
    }

    #[test]
    fn full_table_ignores_new_values() {
        let mut t = ValueTable::new(&cfg(2, 1000));
        t.record(1);
        t.record(2);
        t.record(3); // ignored
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn cleaning_evicts_lfu_half() {
        let mut t = ValueTable::new(&cfg(4, 8));
        for _ in 0..5 {
            t.record(10);
        }
        t.record(20);
        t.record(30);
        t.record(40); // 8th record triggers cleaning

        // top half (2 entries) kept: 10 (count 5) and the tie-broken next.
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.entries()[0].0, 10);
        // a new value can now enter
        t.record(50);
        assert!(t.entries().iter().any(|e| e.0 == 50));
    }

    #[test]
    fn single_value_range_first() {
        let mut t = ValueTable::new(&cfg(8, 1 << 20));
        for _ in 0..90 {
            t.record(0);
        }
        for _ in 0..10 {
            t.record(100);
        }
        let r = t.candidate_ranges(4);
        assert_eq!(r[0].min, 0);
        assert_eq!(r[0].max, 0);
        assert!((r[0].freq - 0.9).abs() < 1e-12);
        assert_eq!(r[1].min, 0);
        assert_eq!(r[1].max, 100);
        assert!((r[1].freq - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ignored_values_lower_coverage() {
        let mut t = ValueTable::new(&cfg(1, 1 << 20));
        t.record(5);
        t.record(6); // ignored: table of size 1
        t.record(5);
        let r = t.candidate_ranges(4);
        assert_eq!(r.len(), 1);
        assert!((r[0].freq - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_yields_no_ranges() {
        let t = ValueTable::new(&cfg(4, 16));
        assert!(t.candidate_ranges(4).is_empty());
    }

    #[test]
    fn hull_dedup_keeps_best_freq() {
        let mut t = ValueTable::new(&cfg(8, 1 << 20));
        for _ in 0..4 {
            t.record(10);
        }
        for _ in 0..3 {
            t.record(20);
        }
        for _ in 0..2 {
            t.record(15); // inside [10,20] hull
        }
        let r = t.candidate_ranges(8);
        // ranges: [10,10], [10,20] (k=2), [10,20] (k=3, deduped with better freq)
        assert_eq!(r.len(), 2);
        assert_eq!((r[1].min, r[1].max), (10, 20));
        assert!((r[1].freq - 1.0).abs() < 1e-12);
    }
}
