//! Exact latency distributions and the percentile reporting rule.

/// Latencies below this many nanoseconds are counted in 1 ns buckets;
/// longer ones are kept as raw samples. Both are exact.
const FINE_NS: usize = 1 << 16;

/// Every latency sample of one class, exactly, in nanoseconds.
pub struct Hist {
    fine: Vec<u32>,
    slow: Vec<u64>,
    n: u64,
}

impl Hist {
    /// An empty distribution with its buckets already resident, so the
    /// first samples of a timed window take no page faults.
    pub fn new() -> Self {
        let mut fine = vec![0u32; FINE_NS];
        std::hint::black_box(&mut fine[..]).fill(0);
        Hist {
            fine,
            slow: Vec::with_capacity(1 << 12),
            n: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.n += 1;
        match self.fine.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn clear(&mut self) {
        self.fine.fill(0);
        self.slow.clear();
        self.n = 0;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        self.slow.extend_from_slice(&other.slow);
        self.n += other.n;
    }

    /// The nearest-rank `q`-quantile (the sample at rank `ceil(q·n)`)
    /// and how many samples lie beyond it, or `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<(u64, u64)> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Some((ns as u64, self.n - rank));
            }
        }
        self.slow.sort_unstable();
        let i = (rank - seen - 1) as usize;
        Some((self.slow[i], self.n - rank))
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: u64 = 10;

/// The reporting rule: the `q`-quantile in nanoseconds, only when at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn reportable(h: &mut Hist, q: f64) -> Option<u64> {
    h.quantile(q)
        .and_then(|(v, beyond)| (beyond >= MIN_BEYOND).then_some(v))
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(samples: impl IntoIterator<Item = u64>) -> Hist {
        let mut h = Hist::new();
        for s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let mut h = hist((1..=1000).rev());
        assert_eq!(h.quantile(0.5), Some((500, 500)));
        assert_eq!(h.quantile(0.99), Some((990, 10)));
        assert_eq!(h.quantile(1.0), Some((1000, 0)));
        // Samples beyond the 1 ns buckets rank after every bucketed one.
        let mut h = hist([5, 200_000, 70_000, 6]);
        assert_eq!(h.quantile(0.5), Some((6, 2)));
        assert_eq!(h.quantile(0.75), Some((70_000, 1)));
        assert_eq!(h.quantile(1.0), Some((200_000, 0)));
        assert_eq!(Hist::new().quantile(0.5), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond — reported.
        assert_eq!(reportable(&mut hist(1..=1000), 0.99), Some(990));
        // 999 samples: rank 990, 9 beyond — omitted.
        assert_eq!(reportable(&mut hist(1..=999), 0.99), None);
        // The rule holds for every percentile: a median needs 21 samples.
        assert_eq!(reportable(&mut hist(1..=21), 0.5), Some(11));
        assert_eq!(reportable(&mut hist(1..=19), 0.5), None);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = hist([1, 2, 100_000]);
        a.merge(&hist([3, 200_000]));
        assert_eq!(a.len(), 5);
        assert_eq!(a.quantile(1.0), Some((200_000, 0)));
        assert_eq!(a.quantile(0.6), Some((3, 2)));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
