//! Order statistics for timing samples.

/// Percentiles tried for a tail, highest first. The top step is the p99
/// the latency metrics are named after.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Number of samples strictly after the nearest-rank position of `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(p, n)
}

/// Nearest-rank percentile of already sorted samples (`None` when empty).
fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len())])
}

/// Median (nearest rank) of unsorted samples; 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0).unwrap_or(0.0)
}

/// A tail statistic: which percentile was reportable, its value, and how
/// many samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// The highest percentile with at least [`MIN_BEYOND`] samples beyond it,
/// or `None` when even the lowest ladder step lacks them.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| beyond(p, n) >= MIN_BEYOND)
        .map(|&pct| Tail {
            pct,
            value: v[rank(pct, n)],
            n,
        })
}

/// Smallest value a [`Histogram`] tells apart, in microseconds.
const HIST_LO_US: f64 = 0.01;
/// Ratio between a [`Histogram`] bucket's bounds: values are kept to
/// 0.1%.
const HIST_GROWTH: f64 = 1.001;
/// Buckets up to about 1,000 s.
const HIST_BUCKETS: usize = 25_400;

/// Call durations in log-spaced buckets 0.1% wide, so that a long run's
/// tail costs a fixed 200 KiB rather than memory that grows with the run
/// and would show in `peak_rss_mib`.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: usize,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
        }
    }
}

impl Histogram {
    /// Record one duration in microseconds.
    pub fn record(&mut self, us: f64) {
        let i = ((us / HIST_LO_US).max(1.0).ln() / HIST_GROWTH.ln()) as usize;
        self.counts[i.min(HIST_BUCKETS - 1)] += 1;
        self.n += 1;
    }

    /// Nearest-rank percentile `p`, as the geometric middle of its
    /// bucket (`None` when empty).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let want = rank(p, self.n) as u64 + 1;
        let mut seen = 0u64;
        let i = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= want
            })
            .unwrap_or(HIST_BUCKETS - 1);
        Some(HIST_LO_US * HIST_GROWTH.powf(i as f64 + 0.5))
    }

    /// The highest percentile with at least [`MIN_BEYOND`] samples beyond
    /// it (see [`tail`]).
    pub fn tail(&self) -> Option<Tail> {
        TAIL_LADDER
            .iter()
            .find(|&&p| beyond(p, self.n) >= MIN_BEYOND)
            .and_then(|&pct| {
                self.percentile(pct).map(|value| Tail {
                    pct,
                    value,
                    n: self.n,
                })
            })
    }
}

/// The value of [`tail`], 0 when no percentile is reportable.
pub fn tail_value(samples: &[f64]) -> f64 {
    tail(samples).map(|t| t.value).unwrap_or(0.0)
}
