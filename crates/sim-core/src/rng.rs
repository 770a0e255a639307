//! Deterministic pseudo-randomness.
//!
//! A tiny xoshiro256++ implementation so the whole workspace shares one
//! splittable, seedable generator without pulling `rand` into every crate.
//! (`rand`/`proptest` are still used in tests and workload generators where
//! their distributions are convenient.)

/// A deterministic RNG (xoshiro256++). Never seeded from the environment.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn rotl(x: u64, k: u32) -> u64 {
    x.rotate_left(k)
}

/// One round of splitmix64's output function.
#[inline]
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derive an independent stream seed from a `(root, stream)` pair.
///
/// The sweep engine gives every scenario its own RNG stream split from one
/// root seed: `stream_seed(root, cell)` keys a grid cell,
/// `stream_seed(stream_seed(root, cell), replicate)` keys one replicate of
/// it. Both inputs pass through splitmix64 before mixing, so nearby roots
/// or sequential stream ids (0, 1, 2, …) still land on unrelated streams.
/// The function is pure: the same pair always yields the same seed.
pub fn stream_seed(root: u64, stream: u64) -> u64 {
    splitmix(splitmix(root) ^ splitmix(stream ^ 0xA5A5_A5A5_A5A5_A5A5))
}

impl SimRng {
    /// Seed from a single u64 via splitmix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        SimRng { s }
    }

    /// A generator on the stream `(root, stream)` — see [`stream_seed`].
    /// Stateless in `(root, stream)`: callers that know their stream id
    /// get the same generator no matter how many sibling streams were
    /// created before them.
    pub fn stream(root: u64, stream: u64) -> SimRng {
        SimRng::seed_from_u64(stream_seed(root, stream))
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = rotl(self.s[3], 45);
        result
    }

    /// Uniform integer in `[0, bound)`. `bound` of zero returns zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SimRng::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.gen_range(bound) < bound);
            }
        }
        assert_eq!(r.gen_range(0), 0);
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = SimRng::seed_from_u64(99);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.gen_range(10) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn stream_seed_is_pure_and_decorrelated() {
        // Pure: same pair, same seed.
        assert_eq!(stream_seed(7, 3), stream_seed(7, 3));
        // Sequential stream ids from one root give unrelated streams.
        let mut a = SimRng::stream(42, 0);
        let mut b = SimRng::stream(42, 1);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
        // Nearby roots with the same stream id also diverge.
        let mut c = SimRng::stream(42, 0);
        let mut d = SimRng::stream(43, 0);
        let same = (0..100).filter(|_| c.next_u64() == d.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn stream_seeds_do_not_collide_over_a_small_grid() {
        let mut seen = crate::FastSet::default();
        for root in 0..8u64 {
            for stream in 0..64u64 {
                assert!(seen.insert(stream_seed(root, stream)));
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }
}
