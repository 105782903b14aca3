//! Sample statistics: nearest-rank percentiles, a latency histogram and
//! the tail-percentile rule (the highest of p99/p95/p90 with at least
//! ten samples beyond it).

/// Tail percentiles in order of preference.
pub const TAILS: [u32; 3] = [99, 95, 90];

/// Samples needed beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    let rank = (p as usize * n).div_ceil(100);
    n - rank.min(n)
}

/// Sub-buckets per power of two in a [`Histogram`] (2^10).
const SUB_BITS: u32 = 10;

/// Bucket of `x`: exact below 1024, else one 1024th of its power of two.
fn bucket(x: u64) -> usize {
    if x < 1 << SUB_BITS {
        return x as usize;
    }
    let e = 63 - x.leading_zeros();
    let sub = (x >> (e - SUB_BITS)) as usize & ((1 << SUB_BITS) - 1);
    ((e - SUB_BITS + 1) as usize) << SUB_BITS | sub
}

/// Midpoint of bucket `b`.
fn midpoint(b: usize) -> u64 {
    if b < 1 << SUB_BITS {
        return b as u64;
    }
    let e = (b >> SUB_BITS) as u32 + SUB_BITS - 1;
    let lower = (1u64 << e) | ((b & ((1 << SUB_BITS) - 1)) as u64) << (e - SUB_BITS);
    lower + (1u64 << (e - SUB_BITS)) / 2
}

/// Samples counted in log-linear buckets (relative width 1/1024), so
/// percentiles of a stream come out within 0.05% in a fixed 220 KiB: a
/// closed loop's footprint does not grow with how many ops it makes.
pub struct Histogram {
    counts: Vec<u32>,
    n: usize,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { counts: vec![0; bucket(u64::MAX) + 1], n: 0 }
    }
}

impl Histogram {
    /// Count one sample.
    pub fn push(&mut self, x: u64) {
        self.counts[bucket(x)] += 1;
        self.n += 1;
    }

    /// Samples counted.
    pub fn count(&self) -> usize {
        self.n
    }

    /// Nearest-rank percentile `p` (0–100), as the midpoint of the
    /// bucket that holds it; `None` without samples.
    pub fn percentile(&self, p: u32) -> Option<u64> {
        let rank = (p as usize * self.n).div_ceil(100).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return Some(midpoint(b));
            }
        }
        None
    }
}

/// The highest of p99/p95/p90 with at least [`MIN_BEYOND`] samples
/// beyond it among `n` samples, if any.
pub fn select_tail(n: usize) -> Option<u32> {
    TAILS.into_iter().find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_selection_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(select_tail(1000), Some(99));
        assert_eq!(select_tail(999), Some(95), "p99 of 999 leaves 9 beyond");
        assert_eq!(select_tail(200), Some(95));
        assert_eq!(select_tail(199), Some(90));
        assert_eq!(select_tail(100), Some(90));
        assert_eq!(select_tail(99), None);
        assert_eq!(select_tail(0), None);
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket_of_sorting() {
        let mut rng = crate::rng::SplitMix64::new(9, "histogram");
        let mut h = Histogram::default();
        assert_eq!(h.percentile(99), None);
        let mut all = Vec::new();
        for n in 1..=3000 {
            // latencies from 1 ns to about 1 s, spread over many octaves
            let x = (rng.unit() * 30.0).exp2() as u64;
            h.push(x);
            all.push(x as f64);
            if [1, 2, 10, 99, 100, 101, 999, 1000, 3000].contains(&n) {
                let mut sorted = all.clone();
                sorted.sort_by(f64::total_cmp);
                for p in [50, 90, 95, 99] {
                    let want = percentile(&sorted, p as f64) as u64;
                    let got = h.percentile(p).unwrap();
                    assert!(got.abs_diff(want) <= want / 2048 + 1, "p{p} of {n}: {got} vs {want}");
                }
            }
        }
        assert_eq!(h.count(), 3000);
        for x in [0, 1, 1023, 1024, 1025, 4097, 123_456_789, u64::MAX] {
            let m = midpoint(bucket(x));
            assert!(m.abs_diff(x) <= x / 2048 + 1, "{x} -> {m}");
        }
    }
}
