//! Time-varying cellular link profiles (Verizon / AT&T LTE).
//!
//! The paper's Figure 13 replays recorded Verizon and AT&T LTE traces through
//! the Mahimahi emulator with a 100 ms minimum RTT.  We do not have the
//! recorded packet-delivery traces, so this module synthesizes
//! piecewise-constant rate profiles whose statistics match the published
//! characteristics of those traces (see `DESIGN.md` §2): LTE downlinks vary
//! on a ~1 second timescale over roughly an order of magnitude, Verizon
//! averaging a higher rate than AT&T, with occasional deep fades.  The
//! generator is seeded and deterministic so experiments are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use khameleon_core::types::{Bandwidth, Duration, Time};

use crate::link::BandwidthModel;

/// A piecewise-constant bandwidth trace: rate `i` applies during
/// `[i * segment, (i+1) * segment)`, wrapping around at the end.
#[derive(Debug, Clone)]
pub struct RateTrace {
    segment: Duration,
    rates: Vec<Bandwidth>,
    name: String,
}

impl RateTrace {
    /// Builds a trace from explicit per-segment rates.
    pub fn new(segment: Duration, rates: Vec<Bandwidth>, name: impl Into<String>) -> Self {
        assert!(!rates.is_empty(), "a rate trace needs at least one segment");
        assert!(
            segment.as_micros() > 0,
            "segments must have positive length"
        );
        RateTrace {
            segment,
            rates,
            name: name.into(),
        }
    }

    /// The trace's name (used in experiment reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Duration of one segment.
    pub fn segment(&self) -> Duration {
        self.segment
    }

    /// Mean rate over the whole trace.
    pub fn mean_rate(&self) -> Bandwidth {
        let sum: f64 = self.rates.iter().map(|r| r.bytes_per_sec()).sum();
        Bandwidth(sum / self.rates.len() as f64)
    }

    /// Synthesizes an LTE-like trace via a mean-reverting log-space random
    /// walk with occasional deep fades.
    ///
    /// * `mean_mbps` — long-run average rate;
    /// * `volatility` — per-segment log-rate standard deviation
    ///   (≈ 0.25 gives the ~10× min-to-max spread seen in LTE traces);
    /// * `fade_prob` — probability per segment of a deep fade to ~5% of the
    ///   mean (cell handover / signal loss).
    pub fn synthesize_lte(
        name: impl Into<String>,
        mean_mbps: f64,
        volatility: f64,
        fade_prob: f64,
        segments: usize,
        seed: u64,
    ) -> Self {
        assert!(mean_mbps > 0.0 && segments > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut log_ratio = 0.0f64; // log(rate / mean)
        let mut rates = Vec::with_capacity(segments);
        for _ in 0..segments {
            // Mean-reverting step (Ornstein-Uhlenbeck in log space).
            let noise: f64 = rng.gen_range(-1.0..1.0) * volatility;
            log_ratio = 0.8 * log_ratio + noise;
            let mut mbps = mean_mbps * log_ratio.exp();
            if rng.gen::<f64>() < fade_prob {
                mbps = mean_mbps * 0.05;
            }
            // Clamp to a physically plausible LTE range.
            mbps = mbps.clamp(0.05, mean_mbps * 4.0);
            rates.push(Bandwidth::from_mbps(mbps));
        }
        RateTrace::new(Duration::from_millis(1000), rates, name)
    }

    /// A synthetic stand-in for the Verizon LTE trace used in Figure 13:
    /// higher mean rate, moderate variability.
    pub fn verizon_lte(seed: u64) -> Self {
        Self::synthesize_lte("verizon-lte", 9.6, 0.35, 0.02, 300, seed)
    }

    /// A synthetic stand-in for the AT&T LTE trace used in Figure 13: lower
    /// mean rate, higher variability and more frequent fades.
    pub fn att_lte(seed: u64) -> Self {
        Self::synthesize_lte("att-lte", 5.6, 0.5, 0.05, 300, seed)
    }
}

impl BandwidthModel for RateTrace {
    fn rate_at(&self, t: Time) -> Bandwidth {
        let idx = (t.as_micros() / self.segment.as_micros()) as usize % self.rates.len();
        self.rates[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimum rate over the whole trace.
    fn min_rate(t: &RateTrace) -> Bandwidth {
        Bandwidth(
            t.rates
                .iter()
                .map(|r| r.bytes_per_sec())
                .fold(f64::INFINITY, f64::min),
        )
    }

    /// Maximum rate over the whole trace.
    fn max_rate(t: &RateTrace) -> Bandwidth {
        Bandwidth(
            t.rates
                .iter()
                .map(|r| r.bytes_per_sec())
                .fold(0.0, f64::max),
        )
    }

    #[test]
    fn trace_lookup_wraps() {
        let t = RateTrace::new(
            Duration::from_millis(100),
            vec![Bandwidth::from_mbps(1.0), Bandwidth::from_mbps(2.0)],
            "toy",
        );
        assert_eq!(t.rate_at(Time::from_millis(50)).as_mbps(), 1.0);
        assert_eq!(t.rate_at(Time::from_millis(150)).as_mbps(), 2.0);
        // Wraps after 200 ms.
        assert_eq!(t.rate_at(Time::from_millis(250)).as_mbps(), 1.0);
        assert_eq!(t.rates.len(), 2);
        assert_eq!(t.name(), "toy");
        assert!((t.mean_rate().as_mbps() - 1.5).abs() < 1e-9);
        assert_eq!(min_rate(&t).as_mbps(), 1.0);
        assert_eq!(max_rate(&t).as_mbps(), 2.0);
    }

    #[test]
    fn synthetic_lte_statistics() {
        let v = RateTrace::verizon_lte(1);
        let a = RateTrace::att_lte(1);
        // Means land in the intended ballpark.
        assert!(
            (v.mean_rate().as_mbps() - 9.6).abs() < 4.0,
            "{}",
            v.mean_rate()
        );
        assert!(
            (a.mean_rate().as_mbps() - 5.6).abs() < 3.0,
            "{}",
            a.mean_rate()
        );
        // Verizon is on average faster than AT&T (the relationship Figure 13
        // depends on).
        assert!(v.mean_rate().as_mbps() > a.mean_rate().as_mbps());
        // Substantial variation: max is at least 3x min.
        assert!(max_rate(&v).as_mbps() / min_rate(&v).as_mbps() > 3.0);
        assert!(max_rate(&a).as_mbps() / min_rate(&a).as_mbps() > 3.0);
        // All rates are positive and bounded.
        for t in [&v, &a] {
            assert!(min_rate(t).as_mbps() > 0.0);
            assert!(max_rate(t).as_mbps() < 60.0);
        }
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let a = RateTrace::verizon_lte(7);
        let b = RateTrace::verizon_lte(7);
        let c = RateTrace::verizon_lte(8);
        for i in 0..a.rates.len() {
            let t = Time::from_secs(i as u64);
            assert_eq!(a.rate_at(t).as_mbps(), b.rate_at(t).as_mbps());
        }
        // Different seeds produce different traces.
        let differs = (0..a.rates.len()).any(|i| {
            let t = Time::from_secs(i as u64);
            (a.rate_at(t).as_mbps() - c.rate_at(t).as_mbps()).abs() > 1e-9
        });
        assert!(differs);
    }

    #[test]
    fn transmit_time_through_trace() {
        let t = RateTrace::new(
            Duration::from_millis(100),
            vec![Bandwidth::from_mbps(1.0), Bandwidth::from_mbps(10.0)],
            "step",
        );
        // 150 KB starting at t=0: 100 ms at 1 MB/s sends 100 KB, remaining
        // 50 KB at 10 MB/s takes 5 ms → ~105 ms.
        let d = t.transmit_time(150_000, Time::ZERO);
        assert!((d.as_millis_f64() - 105.0).abs() < 2.0, "{d}");
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_trace_rejected() {
        RateTrace::new(Duration::from_millis(100), vec![], "bad");
    }
}
