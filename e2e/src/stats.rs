//! The one percentile helper and the trace coverage check.

/// A timing summary: sample count, median, and the highest percentile of
/// [`LADDER`] that still has at least [`MIN_TAIL`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Lower quartile (nearest rank).
    pub p25: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 99th percentile (nearest rank); meaningful only when
    /// [`Summary::tail_pct`] is at least 99.
    pub p99: f64,
    /// The highest percentile with at least [`MIN_TAIL`] samples beyond
    /// it, or `None` when even the median has fewer.
    pub tail_pct: Option<f64>,
    /// The value at `tail_pct`.
    pub tail: f64,
}

/// Samples a reported percentile must leave beyond it.
pub const MIN_TAIL: usize = 10;

/// Percentiles considered for the tail, highest first.
pub const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 · n)`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // one rank up through binary floating point.
    ((p / 100.0 * n as f64 - 1e-6).ceil() as usize).clamp(1, n)
}

/// Summarise `samples` (any order). Panics on an empty slice: every
/// caller has at least one sample by construction.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    let tail_pct = LADDER
        .iter()
        .copied()
        .find(|&p| n - nearest_rank(n, p) >= MIN_TAIL);
    Summary {
        n,
        p25: percentile(&sorted, 25.0),
        p50: percentile(&sorted, 50.0),
        p99: percentile(&sorted, 99.0),
        tail_pct,
        tail: percentile(&sorted, tail_pct.unwrap_or(50.0)),
    }
}

/// Median of a non-empty slice (nearest rank), for per-session figures.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).p50
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the parent; overlaps count once).
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur_s, mut cur_e) = (0, 0, 0);
    for (s, e) in iv {
        if s > cur_e {
            total += cur_e - cur_s;
            (cur_s, cur_e) = (s, e);
        } else {
            cur_e = cur_e.max(e);
        }
    }
    total + (cur_e - cur_s)
}

/// A parent span may leave this share of its duration uncovered…
pub const COVER_TOL_FRAC: f64 = 0.10;
/// …or this many nanoseconds, whichever is larger.
pub const COVER_TOL_NS: u64 = 20_000;
/// The check passes when at most this share of parent spans exceed the
/// tolerance (a descheduled thread can open a gap between two calls).
pub const COVER_MAX_FAILING: f64 = 0.01;

/// Result of checking that child spans cover their parents.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Coverage {
    /// Parent spans checked.
    pub spans: usize,
    /// Parent spans whose uncovered time exceeds the tolerance.
    pub failing: usize,
    /// Summed parent duration.
    pub total_ns: u64,
    /// Summed uncovered time: the benchmark's own overhead inside the
    /// measured window.
    pub uncovered_ns: u64,
}

impl Coverage {
    /// Fold one parent span and its children into the tally.
    pub fn add(&mut self, start: u64, end: u64, children: &[(u64, u64)]) {
        let dur = end.saturating_sub(start);
        let uncovered = dur - covered_ns(start, end, children);
        let tol = ((dur as f64 * COVER_TOL_FRAC) as u64).max(COVER_TOL_NS);
        self.spans += 1;
        self.failing += usize::from(uncovered > tol);
        self.total_ns += dur;
        self.uncovered_ns += uncovered;
    }

    /// Uncovered share of the parents' summed duration.
    pub fn uncovered_frac(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.uncovered_ns as f64 / self.total_ns as f64
    }

    /// Whether few enough parent spans exceed the tolerance.
    pub fn passes(&self) -> bool {
        self.spans > 0 && self.failing as f64 <= COVER_MAX_FAILING * self.spans as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let s = summarize(&(0..1000).map(f64::from).rev().collect::<Vec<_>>());
        assert_eq!((s.n, s.tail_pct), (1000, Some(99.0)));
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.tail, 989.0, "10 samples (990..=999) lie beyond");
        assert_eq!(s.p99, s.tail);
        // 999 samples: p99 would leave only 9 beyond it.
        let s = summarize(&vec![1.0; 999]);
        assert_eq!(s.tail_pct, Some(90.0));
        assert_eq!(summarize(&vec![1.0; 10_000]).tail_pct, Some(99.9));
        assert_eq!(summarize(&vec![1.0; 100_000]).tail_pct, Some(99.99));
        assert_eq!(summarize(&[1.0; 20]).tail_pct, Some(50.0));
        assert_eq!(summarize(&[1.0; 19]).tail_pct, None);
    }

    #[test]
    fn coverage_unions_clips_and_finds_gaps() {
        assert_eq!(covered_ns(0, 100, &[(0, 100)]), 100);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered_ns(10, 20, &[(0, 15), (18, 40)]), 7, "clipped");
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(
            covered_ns(0, 100, &[(20, 30), (20, 30)]),
            10,
            "overlap once"
        );
    }

    #[test]
    fn coverage_check_applies_the_tolerance() {
        let mut c = Coverage::default();
        // 1 ms span, 50 µs gap: within 10 %.
        c.add(0, 1_000_000, &[(0, 500_000), (550_000, 1_000_000)]);
        assert_eq!((c.spans, c.failing, c.uncovered_ns), (1, 0, 50_000));
        // 50 µs span, 15 µs gap: over 10 % but under the 20 µs floor.
        c.add(0, 50_000, &[(15_000, 50_000)]);
        assert_eq!(c.failing, 0);
        assert!(c.passes());
        // 1 ms span, 300 µs gap: fails.
        c.add(0, 1_000_000, &[(0, 700_000)]);
        assert_eq!(c.failing, 1);
        assert!(!c.passes(), "1 of 3 failing is over the 1 % allowance");
        assert!((c.uncovered_frac() - 365_000.0 / 2_050_000.0).abs() < 1e-12);
        assert!(!Coverage::default().passes(), "nothing checked is no pass");
    }
}
