//! Token-bucket meters.
//!
//! The paper's rate-limiting use case ("rate-limiting traffic from
//! selected sources", §3; Nimble-style enforcement) maps to a classic
//! hardware token bucket: a credit register refilled by wall-clock time,
//! decremented per conforming byte. The implementation is integer-exact
//! so the conformance property tests can assert tight bounds.

/// Color of a metered packet (two-color marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    /// Conforming: within rate.
    Green,
    /// Non-conforming: exceeds rate.
    Red,
}

/// A single-rate two-color token bucket.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    /// Fill rate in bytes per second.
    rate_bytes_per_sec: u64,
    /// Bucket depth in bytes (burst allowance).
    burst_bytes: u64,
    /// Current credit in micro-tokens (bytes × 10^9 ns precision kept in
    /// token-nanoseconds to avoid rounding drift).
    credit_byte_ns: u128,
    /// Last refill timestamp, ns.
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket at `rate_bps` bits/s with `burst_bytes` of depth,
    /// starting full at time 0.
    pub fn new(rate_bps: u64, burst_bytes: u64) -> TokenBucket {
        assert!(rate_bps >= 8, "rate below one byte per second");
        assert!(burst_bytes > 0, "zero burst would drop everything");
        TokenBucket {
            rate_bytes_per_sec: rate_bps / 8,
            burst_bytes,
            credit_byte_ns: u128::from(burst_bytes) * 1_000_000_000,
            last_ns: 0,
        }
    }

    /// Configured rate in bits per second.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bytes_per_sec * 8
    }

    /// Configured burst in bytes.
    pub fn burst_bytes(&self) -> u64 {
        self.burst_bytes
    }

    fn refill(&mut self, now_ns: u64) {
        if now_ns <= self.last_ns {
            return; // time never goes backwards in hardware
        }
        let dt = u128::from(now_ns - self.last_ns);
        self.last_ns = now_ns;
        let cap = u128::from(self.burst_bytes) * 1_000_000_000;
        self.credit_byte_ns =
            (self.credit_byte_ns + dt * u128::from(self.rate_bytes_per_sec)).min(cap);
    }

    /// Meter a packet of `len` bytes at `now_ns`. Green consumes credit;
    /// red consumes nothing.
    pub fn meter(&mut self, len: usize, now_ns: u64) -> Color {
        self.refill(now_ns);
        let need = u128::from(len as u64) * 1_000_000_000;
        if self.credit_byte_ns >= need {
            self.credit_byte_ns -= need;
            Color::Green
        } else {
            Color::Red
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_throttle() {
        // 8 Mb/s = 1 MB/s, 10 kB burst.
        let mut tb = TokenBucket::new(8_000_000, 10_000);
        // The initial burst passes...
        for _ in 0..10 {
            assert_eq!(tb.meter(1000, 0), Color::Green);
        }
        // ...then the bucket is empty.
        assert_eq!(tb.meter(1000, 0), Color::Red);
        // After 1 ms, 1000 bytes of credit accrued.
        assert_eq!(tb.meter(1000, 1_000_000), Color::Green);
        assert_eq!(tb.meter(1, 1_000_000), Color::Red);
    }

    #[test]
    fn long_term_rate_is_enforced() {
        // Offer 2× the rate for one simulated second; about half should
        // conform (plus the initial burst).
        let rate_bps = 80_000_000u64; // 10 MB/s
        let mut tb = TokenBucket::new(rate_bps, 10_000);
        let pkt = 1000usize;
        let offered = 20_000; // 20 MB over 1 s
        let mut green_bytes = 0u64;
        for i in 0..offered {
            let now = i * 50_000; // one packet every 50 µs
            if tb.meter(pkt, now) == Color::Green {
                green_bytes += pkt as u64;
            }
        }
        let expected = 10_000_000 + 10_000; // rate × 1 s + burst
        let tolerance = 20_000;
        assert!(
            (green_bytes as i64 - expected as i64).unsigned_abs() < tolerance,
            "green {green_bytes} vs expected {expected}"
        );
    }

    #[test]
    fn red_consumes_no_credit() {
        let mut tb = TokenBucket::new(8_000, 100); // 1 kB/s, 100 B burst
        assert_eq!(tb.meter(100, 0), Color::Green);
        // An oversized packet is red and must not take partial credit.
        tb.meter(1000, 1_000_000); // 1 ms -> +1 byte credit
        let before = tb.credit_byte_ns;
        assert_eq!(tb.meter(1000, 1_000_000), Color::Red);
        assert_eq!(tb.credit_byte_ns, before);
    }

    #[test]
    fn time_going_backwards_is_ignored() {
        let mut tb = TokenBucket::new(8_000_000, 1_000);
        tb.meter(1_000, 1_000_000);
        // Clock glitch to the past must not mint credit.
        assert_eq!(tb.meter(1_000, 500_000), Color::Red);
    }

    #[test]
    fn credit_caps_at_burst() {
        let mut tb = TokenBucket::new(8_000_000, 500);
        // A long idle period cannot bank more than the burst.
        tb.refill(10_000_000_000);
        assert_eq!(tb.credit_byte_ns, 500 * 1_000_000_000);
        assert_eq!(tb.meter(501, 10_000_000_000), Color::Red);
        assert_eq!(tb.meter(500, 10_000_000_000), Color::Green);
    }

    #[test]
    fn getters() {
        let tb = TokenBucket::new(10_000_000, 1500);
        assert_eq!(tb.rate_bps(), 10_000_000);
        assert_eq!(tb.burst_bytes(), 1500);
    }
}
