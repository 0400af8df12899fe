//! In-tree seeded PRNG: SplitMix64 seeding into xoshiro256**.
//!
//! The trace generators used to run on `rand::StdRng`, which has two
//! problems for an experiment harness: it is an external dependency (so
//! a registry-free build cannot compile), and its stream is only stable
//! within one rand major version — a `rand` upgrade silently changes
//! every "seeded, reproducible" trace and with it every regenerated
//! figure. This module pins the bitstream to two published, trivially
//! re-implementable algorithms (Vigna's SplitMix64 and xoshiro256**),
//! so a seed maps to the same packet trace on every platform, forever.
//! The golden test in `tests/golden_trace.rs` freezes that mapping.

/// SplitMix64: a tiny 64-bit generator used to expand one `u64` seed
/// into the xoshiro state (the seeding procedure its authors recommend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the workspace's general-purpose seeded PRNG.
///
/// 256-bit state, period 2^256 − 1, equidistributed 64-bit outputs;
/// passes BigCrush. Not cryptographic — the control plane's SipHash
/// authentication lives in `flexsfp-core`, not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 expansion of one `u64` (the reference
    /// seeding procedure; never yields the forbidden all-zero state).
    pub fn seed_from_u64(seed: u64) -> Xoshiro256 {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// A uniform `f64` in `[0, 1)` built from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `u64` in `[lo, hi)` (unbiased, rejection-sampled).
    ///
    /// Panics when `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        if span.is_power_of_two() {
            return lo + (self.next_u64() & (span - 1));
        }
        // 2^64 ≡ threshold (mod span): rejecting x < threshold leaves a
        // multiple of `span` equally likely values — no modulo bias.
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = self.next_u64();
            if x >= threshold {
                return lo + x % span;
            }
        }
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniform `usize` in `[lo, hi]`.
    pub fn range_inclusive_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        if lo == 0 && hi == usize::MAX {
            return self.next_u64() as usize;
        }
        self.range_usize(lo, hi + 1)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// An exponentially distributed sample with the given mean
    /// (inverse-CDF on a never-zero uniform, for Poisson gaps/jitter).
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = self.next_f64().max(1e-12);
        -u.ln() * mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0, from the reference implementation.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(sm.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(sm.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut c = Xoshiro256::seed_from_u64(43);
        assert_ne!(va, (0..16).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Mean of U[0,1) over 10k samples: well inside ±0.02.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn ranges_are_in_bounds_and_cover() {
        let mut r = Xoshiro256::seed_from_u64(1);
        let mut seen = [false; 12];
        for _ in 0..1_000 {
            let v = r.range_u64(0, 12);
            assert!(v < 12);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        for _ in 0..1_000 {
            let v = r.range_inclusive_usize(60, 1514);
            assert!((60..=1514).contains(&v));
        }
        // Power-of-two fast path.
        for _ in 0..100 {
            assert!(r.range_u64(8, 16) >= 8);
            assert!(r.range_u64(8, 16) < 16);
        }
    }

    #[test]
    fn range_distribution_is_roughly_uniform() {
        let mut r = Xoshiro256::seed_from_u64(99);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.range_usize(0, 10)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn exp_has_requested_mean() {
        let mut r = Xoshiro256::seed_from_u64(5);
        let mean = 300.0;
        let n = 50_000;
        let total: f64 = (0..n).map(|_| r.exp(mean)).sum();
        assert!((total / n as f64 - mean).abs() < mean * 0.05);
        assert!(r.exp(0.0) == 0.0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Xoshiro256::seed_from_u64(3);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
