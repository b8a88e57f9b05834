//! The benchmark's own deterministic generator (splitmix64). Every input
//! — request order, partial bindings, arrival gaps, commit targets — is
//! drawn from one of these seeded from `--seed`, so a seed names its
//! inputs exactly.

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed` (distinct streams
    /// of one seed are independent: requests, arrivals, commits).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n >= 1`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n >= 1);
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential variate with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.unit()).ln() * mean
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn seeds_and_streams_differ() {
        let first = |seed, stream| Rng::new(seed, stream).next_u64();
        assert_ne!(first(7, 1), first(8, 1));
        assert_ne!(first(7, 1), first(7, 2));
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut r = Rng::new(3, 0);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(11, 0);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
