//! Link models: serialization + propagation delay under a (possibly
//! time-varying) bandwidth profile.
//!
//! The paper's experiments run over netem-shaped fixed-rate links
//! (1.5–15 MB/s, 20–400 ms request latency) and Mahimahi-emulated LTE traces
//! (§6.1).  [`Link`] models a single FIFO bottleneck: each transmission is
//! serialized at the link's (time-varying) rate behind any transmissions that
//! are still draining, then experiences a fixed one-way propagation delay.
//! This captures exactly the congestion behaviour the paper's baselines
//! suffer from — bursts of full-size responses queue behind each other and
//! delay later, more urgent data.

use khameleon_core::types::{Bandwidth, Bytes, Duration, Time};

/// A time-varying bandwidth profile.
pub trait BandwidthModel: Send + Sync {
    /// The instantaneous link rate at time `t`.
    fn rate_at(&self, t: Time) -> Bandwidth;

    /// Time needed to serialize `bytes` starting at `start`.
    ///
    /// The default implementation integrates the rate in 1 ms steps, which is
    /// exact for piecewise-constant profiles with ≥ 1 ms segments (all the
    /// profiles this crate ships).
    fn transmit_time(&self, bytes: Bytes, start: Time) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        let step = Duration::from_millis(1);
        let mut remaining = bytes as f64;
        let mut t = start;
        let mut elapsed = Duration::ZERO;
        // Hard ceiling to avoid non-termination on all-zero profiles.
        let max_steps = 10_000_000u64;
        for _ in 0..max_steps {
            let rate = self.rate_at(t).bytes_per_sec().max(0.0);
            let can_send = rate * step.as_secs_f64();
            if can_send >= remaining && rate > 0.0 {
                let frac = remaining / rate;
                return elapsed + Duration::from_secs_f64(frac);
            }
            remaining -= can_send;
            t += step;
            elapsed = elapsed + step;
        }
        elapsed
    }

    /// Average rate over the window `[start, start + window)`, used by
    /// harnesses to report the effective bandwidth of a trace.
    fn average_rate(&self, start: Time, window: Duration) -> Bandwidth {
        let steps = (window.as_millis_f64().ceil() as u64).max(1);
        let mut total = 0.0;
        for i in 0..steps {
            total += self
                .rate_at(start + Duration::from_millis(i))
                .bytes_per_sec();
        }
        Bandwidth(total / steps as f64)
    }
}

/// A constant-rate profile (the netem configuration of §6.1).
#[derive(Debug, Clone, Copy)]
pub struct ConstantRate(pub Bandwidth);

impl BandwidthModel for ConstantRate {
    fn rate_at(&self, _t: Time) -> Bandwidth {
        self.0
    }

    fn transmit_time(&self, bytes: Bytes, _start: Time) -> Duration {
        self.0.transmit_time(bytes)
    }

    fn average_rate(&self, _start: Time, _window: Duration) -> Bandwidth {
        self.0
    }
}

/// One direction of a network path: a FIFO serialization queue at the profile
/// rate followed by a fixed propagation delay.
pub struct Link {
    model: Box<dyn BandwidthModel>,
    /// One-way propagation delay.
    propagation: Duration,
    /// Time at which the link finishes serializing everything queued so far.
    busy_until: Time,
    /// Total bytes accepted.
    bytes_sent: u64,
    /// Total transmissions accepted.
    transmissions: u64,
}

impl Link {
    /// Creates a link with the given rate profile and one-way propagation
    /// delay.
    pub fn new(model: Box<dyn BandwidthModel>, propagation: Duration) -> Self {
        Link {
            model,
            propagation,
            busy_until: Time::ZERO,
            bytes_sent: 0,
            transmissions: 0,
        }
    }

    /// The one-way propagation delay.
    pub fn propagation(&self) -> Duration {
        self.propagation
    }

    /// Enqueues a transmission of `bytes` at time `now` and returns the time
    /// the last byte arrives at the receiver.
    ///
    /// Transmissions serialize FIFO: if the link is still draining earlier
    /// data, this one starts after it.
    pub fn send(&mut self, bytes: Bytes, now: Time) -> Time {
        let start = if self.busy_until > now {
            self.busy_until
        } else {
            now
        };
        let serialize = self.model.transmit_time(bytes, start);
        let done_serializing = start + serialize;
        self.busy_until = done_serializing;
        self.bytes_sent += bytes;
        self.transmissions += 1;
        done_serializing + self.propagation
    }

    /// The time at which the link becomes idle (ignoring propagation).
    pub fn busy_until(&self) -> Time {
        self.busy_until
    }

    /// Whether the link is idle at `now`.
    pub fn is_idle(&self, now: Time) -> bool {
        self.busy_until <= now
    }

    /// Instantaneous rate of the underlying profile at `now`.
    pub fn rate_at(&self, now: Time) -> Bandwidth {
        self.model.rate_at(now)
    }

    /// Total bytes accepted by the link.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total transmissions accepted by the link.
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Resets queue state (used between simulation runs sharing a link
    /// object).
    pub fn reset(&mut self) {
        self.busy_until = Time::ZERO;
        self.bytes_sent = 0;
        self.transmissions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed-rate link (netem style).
    fn fixed(rate: Bandwidth, propagation: Duration) -> Link {
        Link::new(Box::new(ConstantRate(rate)), propagation)
    }

    #[test]
    fn constant_rate_transmit_time() {
        let m = ConstantRate(Bandwidth::from_mbps(10.0));
        assert_eq!(
            m.transmit_time(1_000_000, Time::ZERO),
            Duration::from_millis(100)
        );
        assert_eq!(m.rate_at(Time::from_secs(5)).as_mbps(), 10.0);
        assert_eq!(
            m.average_rate(Time::ZERO, Duration::from_secs(1)).as_mbps(),
            10.0
        );
    }

    #[test]
    fn link_serializes_and_propagates() {
        let mut l = fixed(Bandwidth::from_mbps(1.0), Duration::from_millis(50));
        // 100 KB at 1 MB/s = 100 ms serialization + 50 ms propagation.
        let arrival = l.send(100_000, Time::ZERO);
        assert_eq!(arrival, Time::from_millis(150));
        assert_eq!(l.bytes_sent(), 100_000);
        assert_eq!(l.transmissions(), 1);
    }

    #[test]
    fn link_queues_fifo() {
        let mut l = fixed(Bandwidth::from_mbps(1.0), Duration::from_millis(10));
        let a1 = l.send(100_000, Time::ZERO); // serializes 0..100ms
        let a2 = l.send(100_000, Time::ZERO); // queues: serializes 100..200ms
        assert_eq!(a1, Time::from_millis(110));
        assert_eq!(a2, Time::from_millis(210));
        assert!(!l.is_idle(Time::from_millis(150)));
        assert!(l.is_idle(Time::from_millis(250)));
        assert_eq!(l.busy_until(), Time::from_millis(200));
        // A transmission after the queue drains starts immediately.
        let a3 = l.send(1_000, Time::from_millis(300));
        assert_eq!(a3, Time::from_millis(311));
    }

    #[test]
    fn link_reset_clears_queue() {
        let mut l = fixed(Bandwidth::from_mbps(1.0), Duration::ZERO);
        l.send(1_000_000, Time::ZERO);
        l.reset();
        assert!(l.is_idle(Time::ZERO));
        assert_eq!(l.bytes_sent(), 0);
    }

    #[test]
    fn zero_byte_send_is_instant_plus_propagation() {
        let mut l = fixed(Bandwidth::from_mbps(5.0), Duration::from_millis(25));
        assert_eq!(l.send(0, Time::from_millis(7)), Time::from_millis(32));
    }

    /// A profile that alternates between 2 MB/s and 0 every 100 ms.
    struct Alternating;

    impl BandwidthModel for Alternating {
        fn rate_at(&self, t: Time) -> Bandwidth {
            if (t.as_millis_f64() as u64 / 100).is_multiple_of(2) {
                Bandwidth::from_mbps(2.0)
            } else {
                Bandwidth(0.0)
            }
        }
    }

    #[test]
    fn variable_rate_integration() {
        let m = Alternating;
        // 200 KB at 2 MB/s takes 100 ms of "on" time; the first on-period
        // delivers exactly that, so it finishes right at 100 ms.
        let d = m.transmit_time(200_000, Time::ZERO);
        assert!((d.as_millis_f64() - 100.0).abs() <= 1.0, "{d}");
        // 300 KB needs 150 ms of on-time: 100 on, 100 off, 50 on = 250 ms.
        let d = m.transmit_time(300_000, Time::ZERO);
        assert!((d.as_millis_f64() - 250.0).abs() <= 2.0, "{d}");
        // Average over one full period is 1 MB/s.
        let avg = m
            .average_rate(Time::ZERO, Duration::from_millis(200))
            .as_mbps();
        assert!((avg - 1.0).abs() < 0.05, "{avg}");
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arrival times over a FIFO link are monotone in submission order
            /// and never precede submission + propagation.
            #[test]
            fn fifo_monotonicity(
                sizes in proptest::collection::vec(1u64..500_000, 1..20),
                rate in 0.5f64..20.0
            ) {
                let mut l = fixed(Bandwidth::from_mbps(rate), Duration::from_millis(10));
                let mut prev = Time::ZERO;
                for (i, &s) in sizes.iter().enumerate() {
                    let now = Time::from_millis(i as u64);
                    let arrival = l.send(s, now);
                    prop_assert!(arrival >= prev);
                    prop_assert!(arrival >= now + Duration::from_millis(10));
                    prev = arrival;
                }
            }
        }
    }
}
