//! Fundamental identifiers and time units shared across the Khameleon stack.
//!
//! The paper models the interaction space as a finite set of *possible
//! requests* `Q = {q_1, ..., q_n}` (§5.1).  A request identifies one logical
//! piece of content (an image, a data-cube slice, a query result).  Each
//! response is progressively encoded into an ordered list of *blocks*; any
//! prefix of the block list is renderable at reduced quality (§3.3).

use std::fmt;

/// Identifier of one logical request in the application's request space.
///
/// Request ids are dense indices in `0..n` where `n` is the size of the
/// request space (e.g. 10,000 for the image-exploration application).  Dense
/// ids let the scheduler store per-request state in flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u32);

impl RequestId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u32> for RequestId {
    fn from(v: u32) -> Self {
        RequestId(v)
    }
}

impl From<usize> for RequestId {
    fn from(v: usize) -> Self {
        RequestId(v as u32)
    }
}

/// Reference to the `index`-th block (0-based) of a request's progressive
/// encoding.
///
/// Block `0` is always a complete (low quality) response; later blocks refine
/// it (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// The request this block belongs to.
    pub request: RequestId,
    /// 0-based position of the block within the request's progressive
    /// encoding.
    pub index: u32,
}

impl BlockRef {
    /// Creates a block reference.
    #[inline]
    pub fn new(request: RequestId, index: u32) -> Self {
        Self { request, index }
    }
}

impl fmt::Display for BlockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.request, self.index)
    }
}

/// Simulation / wall-clock time in integer microseconds.
///
/// All Khameleon components are written against a logical clock so that the
/// discrete-event simulator and live deployments share the same code.  A
/// microsecond granularity keeps sub-millisecond scheduling decisions exact
/// while still allowing ~584,000 years of range in a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Time(pub u64);

impl Time {
    /// Time zero.
    pub const ZERO: Time = Time(0);

    /// Largest representable time; useful as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Constructs a time from whole microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> Self {
        Time(us)
    }

    /// Constructs a time from whole milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000)
    }

    /// Constructs a time from fractional milliseconds (rounded to the nearest
    /// microsecond, saturating at zero).
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        Time((ms.max(0.0) * 1_000.0).round() as u64)
    }

    /// Constructs a time from whole seconds.
    #[inline]
    pub fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000)
    }

    /// Constructs a time from fractional seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Time((s.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// The time in microseconds.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The time in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The time in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Time {
        Time(self.0.saturating_add(d.0))
    }

    /// Saturating difference between two instants.
    #[inline]
    pub fn saturating_sub(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// A span of logical time, in integer microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Constructs a duration from whole microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Constructs a duration from whole milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Constructs a duration from fractional milliseconds.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Self {
        Duration((ms.max(0.0) * 1_000.0).round() as u64)
    }

    /// Constructs a duration from whole seconds.
    #[inline]
    pub fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Constructs a duration from fractional seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Duration((s.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// The duration in microseconds.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// Number of bytes, used for block payloads, cache capacities, and link
/// bandwidths.
pub type Bytes = u64;

/// Bandwidth expressed in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// Constructs a bandwidth from megabytes per second (the unit the paper
    /// reports, §6.1).
    #[inline]
    pub fn from_mbps(mb_per_s: f64) -> Self {
        Bandwidth(mb_per_s * 1_000_000.0)
    }

    /// Bandwidth in bytes per second.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Bandwidth in megabytes per second.
    #[inline]
    pub fn as_mbps(self) -> f64 {
        self.0 / 1_000_000.0
    }

    /// Time needed to transmit `bytes` at this bandwidth.
    ///
    /// Returns [`Duration::ZERO`] for non-positive bandwidths to avoid
    /// divisions by zero in degenerate configurations; callers that care
    /// should validate the bandwidth separately.
    #[inline]
    pub fn transmit_time(self, bytes: Bytes) -> Duration {
        if self.0 <= 0.0 {
            return Duration::ZERO;
        }
        Duration::from_secs_f64(bytes as f64 / self.0)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}MB/s", self.as_mbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_id_roundtrip() {
        let r = RequestId::from(42usize);
        assert_eq!(r.index(), 42);
        assert_eq!(r, RequestId(42));
        assert_eq!(r.to_string(), "q42");
    }

    #[test]
    fn block_ref_ordering_groups_by_request() {
        let a = BlockRef::new(RequestId(1), 5);
        let b = BlockRef::new(RequestId(2), 0);
        assert!(a < b);
        assert_eq!(a.to_string(), "q1[5]");
    }

    #[test]
    fn time_conversions() {
        assert_eq!(Time::from_millis(3).as_micros(), 3_000);
        assert_eq!(Time::from_secs(2).as_millis_f64(), 2_000.0);
        assert_eq!(Time::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(Time::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t, Time::from_millis(15));
        assert_eq!(t - Time::from_millis(10), Duration::from_millis(5));
        assert_eq!(
            Time::from_millis(1).saturating_sub(Time::from_millis(5)),
            Duration::ZERO
        );
        let mut t2 = Time::ZERO;
        t2 += Duration::from_micros(7);
        assert_eq!(t2.as_micros(), 7);
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_millis(2) + Duration::from_micros(500);
        assert_eq!(d.as_micros(), 2_500);
        assert_eq!((d - Duration::from_micros(500)).as_millis_f64(), 2.0);
    }

    #[test]
    fn bandwidth_transmit_time() {
        let bw = Bandwidth::from_mbps(10.0);
        assert!((bw.as_mbps() - 10.0).abs() < 1e-9);
        // 1 MB at 10 MB/s takes 100 ms.
        let d = bw.transmit_time(1_000_000);
        assert_eq!(d.as_micros(), 100_000);
        // Degenerate bandwidth does not panic.
        assert_eq!(Bandwidth(0.0).transmit_time(100), Duration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_millis(1).to_string(), "1.000ms");
        assert_eq!(Duration::from_micros(1500).to_string(), "1.500ms");
        assert_eq!(Bandwidth::from_mbps(5.625).to_string(), "5.62MB/s");
    }
}
