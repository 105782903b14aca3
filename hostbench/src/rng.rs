//! Seeded input generation: splitmix64, the generator `compat/proptest`
//! seeds its streams with. Every input of every workload is drawn from a
//! stream derived from the `--seed` argument, so the same seed gives
//! byte-identical inputs.

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream for `seed`, separated from other streams of the same
    /// seed by `tag` (one tag per generated input family).
    pub fn new(seed: u64, tag: &str) -> SplitMix64 {
        // FNV-1a over the tag, mixed with the seed
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tag.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        SplitMix64(h ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_tag() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = SplitMix64::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix64::new(7, "x");
        assert!(a.iter().all(|&v| v == r.next_u64()));
        assert_ne!(SplitMix64::new(7, "y").next_u64(), a[0]);
        assert_ne!(SplitMix64::new(8, "x").next_u64(), a[0]);
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = SplitMix64::new(1, "r");
        for _ in 0..1000 {
            let v = r.range(-3, 5);
            assert!((-3..=5).contains(&v));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
