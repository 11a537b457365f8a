//! Token-bucket pacing for the send path.
//!
//! Replaces the CLI's ad-hoc `Pace` struct (sleep N µs per datagram, or a
//! blanket 300 µs nap every 64 datagrams) with a standard token bucket:
//! tokens accrue at `rate` per second up to a `burst` cap, and each
//! datagram spends one. Bursts up to the cap go out back-to-back — which
//! is exactly what `sendmmsg` wants — while the long-run rate stays
//! bounded. The paper's schedules (§5) assume the sender can actually
//! emit at the planned rate; the bucket is what enforces that rate
//! without per-datagram sleeps dominating the hot path.
//!
//! The arithmetic core ([`TokenBucket::wait_for`]) takes an explicit
//! `Instant` so unit tests drive it with a synthetic clock; the blocking
//! wrapper ([`Pacer::acquire`]) sleeps on the real one.

use std::time::{Duration, Instant};

/// Tokens-per-second bucket with a burst cap.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Tokens added per second.
    rate: f64,
    /// Maximum tokens the bucket holds.
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/s, holding at most `burst`.
    /// Starts full, so an initial burst goes out immediately.
    pub fn new(rate: f64, burst: u32) -> TokenBucket {
        let burst = f64::from(burst.max(1));
        TokenBucket {
            rate: rate.max(1e-6),
            burst,
            tokens: burst,
            last: Instant::now(),
        }
    }

    /// Refills from elapsed time, then spends `n` tokens *immediately*,
    /// letting the balance go negative (debt). Returns `Duration::ZERO`
    /// when the balance stayed non-negative, else the sleep that pays the
    /// debt off. Granting debt (rather than refusing) means a single
    /// request larger than the burst cap still completes — it just sleeps
    /// proportionally afterwards — so the long-run rate stays bounded
    /// while bursts up to the cap go out back-to-back.
    /// Deterministic given `now` — the unit-testable core.
    pub fn wait_for(&mut self, n: u32, now: Instant) -> Duration {
        let elapsed = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        self.tokens -= f64::from(n);
        if self.tokens >= 0.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(-self.tokens / self.rate)
    }

    /// Tokens/s this bucket refills at.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

/// A pacing policy: unlimited, or a token bucket.
#[derive(Debug, Clone)]
pub enum Pacer {
    /// No pacing: send as fast as the socket accepts.
    Unlimited,
    /// Token-bucket pacing.
    Bucket(TokenBucket),
}

impl Pacer {
    /// No pacing.
    pub fn unlimited() -> Pacer {
        Pacer::Unlimited
    }

    /// A bucket at `rate` datagrams/s with a `burst` cap.
    pub fn rate(rate: f64, burst: u32) -> Pacer {
        Pacer::Bucket(TokenBucket::new(rate, burst))
    }

    /// One datagram every `micros` µs: a bucket at `1e6 / micros`
    /// datagrams/s with a one-syscall burst allowance; 0 means unlimited.
    /// (The CLI's `--pace` comes here for every value but its default 0,
    /// which it maps to a finite ceiling of its own.)
    pub fn per_datagram_micros(micros: u64) -> Pacer {
        if micros == 0 {
            Pacer::Unlimited
        } else {
            Pacer::rate(1e6 / micros as f64, 64)
        }
    }

    /// Takes `n` tokens, sleeping off any debt (no-op when unlimited).
    /// One call per burst: the grant is immediate, the sleep restores the
    /// long-run rate.
    pub fn acquire(&mut self, n: u32) {
        if let Pacer::Bucket(bucket) = self {
            let wait = bucket.wait_for(n, Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_burst_is_free() {
        let mut b = TokenBucket::new(1000.0, 64);
        let t0 = Instant::now();
        assert_eq!(b.wait_for(64, t0), Duration::ZERO);
        // Bucket drained: the next 10 must wait 10 ms at 1000/s.
        let wait = b.wait_for(10, t0);
        assert!((wait.as_secs_f64() - 0.010).abs() < 1e-9, "{wait:?}");
    }

    #[test]
    fn refill_accrues_with_time() {
        let mut b = TokenBucket::new(1000.0, 64);
        let t0 = Instant::now();
        assert_eq!(b.wait_for(64, t0), Duration::ZERO);
        // 32 ms later, 32 tokens have accrued.
        let t1 = t0 + Duration::from_millis(32);
        assert_eq!(b.wait_for(32, t1), Duration::ZERO);
        assert!(b.wait_for(1, t1) > Duration::ZERO);
    }

    #[test]
    fn burst_caps_accrual() {
        let mut b = TokenBucket::new(1_000_000.0, 8);
        let t0 = Instant::now();
        assert_eq!(b.wait_for(8, t0), Duration::ZERO);
        // An hour of idle still only buys `burst` tokens.
        let t1 = t0 + Duration::from_secs(3600);
        assert_eq!(b.wait_for(8, t1), Duration::ZERO);
        assert!(b.wait_for(1, t1) > Duration::ZERO);
    }

    #[test]
    fn long_run_rate_is_bounded() {
        let mut b = TokenBucket::new(100.0, 4);
        let t0 = Instant::now();
        let mut now = t0;
        let mut total_wait = Duration::ZERO;
        for _ in 0..50 {
            // Mimic `Pacer::acquire`: one grant, sleep off the debt.
            let w = b.wait_for(1, now);
            total_wait += w;
            now += w;
        }
        // 50 datagrams at 100/s with a 4-burst head start: ≥ 0.46 s of
        // enforced waiting (46 paced sends at 10 ms each).
        assert!(total_wait.as_secs_f64() >= 0.459, "{total_wait:?}");
    }

    #[test]
    fn pace_flag_compat() {
        assert!(matches!(Pacer::per_datagram_micros(0), Pacer::Unlimited));
        match Pacer::per_datagram_micros(1000) {
            Pacer::Bucket(b) => assert!((b.rate() - 1000.0).abs() < 1e-9),
            Pacer::Unlimited => panic!("expected bucket"),
        }
    }
}
