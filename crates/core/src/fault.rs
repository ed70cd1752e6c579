//! Deterministic fault injection for the transport and sim layers.
//!
//! A [`FaultPlan`] is a schedule of faults keyed by `(lane, index)`:
//! for the transport the lane is the connection's accept-order index and the
//! index counts outbound frames on that connection, starting with the first
//! one queued after the peer's first frame was handled; for the simulator the
//! lane is the session index and the index counts uplink messages. Keeping
//! the plan in `khameleon-core` lets both layers share one grammar without a
//! dependency cycle, and keying by logical indices (never wall-clock time)
//! keeps every injected failure reproducible from the seed alone.

/// What to do to a frame (or message) when its `(lane, index)` key matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently discard the frame.
    Drop,
    /// Deliver the frame, but `ticks` logical steps late. The transport
    /// treats a delay as a stall of the flush path; the simulator adds
    /// `ticks` microseconds of extra propagation.
    Delay {
        /// How many logical steps (microseconds in the sim) to delay by.
        ticks: u64,
    },
    /// Deliver only the first `keep` bytes of the encoded frame.
    Truncate {
        /// How many leading bytes survive.
        keep: usize,
    },
    /// XOR the byte at `offset % len` with `xor` (never zero), producing a
    /// corrupt but well-framed payload the strict decoder must reject.
    Corrupt {
        /// Byte position to flip, reduced modulo the frame length.
        offset: usize,
        /// XOR mask applied to the byte (use a non-zero mask).
        xor: u8,
    },
    /// Freeze the lane for `ticks` logical steps before sending anything
    /// further (models a stalled peer rather than a lossy link).
    Stall {
        /// How many logical steps the lane stays frozen.
        ticks: u64,
    },
}

/// One scheduled fault: apply `kind` to frame `frame` of lane `lane`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Which lane (connection accept index / session index) is affected.
    pub lane: usize,
    /// Which frame (outbound frame index / uplink message index) on the lane.
    pub frame: u64,
    /// What happens to the matched frame.
    pub kind: FaultKind,
}

/// A deterministic schedule of [`FaultEvent`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: every lookup misses.
    pub fn new() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Add one explicit fault. Builder-style, so plans read as literals:
    /// `FaultPlan::new().with(0, 3, FaultKind::Drop)`.
    pub fn with(mut self, lane: usize, frame: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { lane, frame, kind });
        self
    }

    /// The fault (if any) scheduled for frame `frame` of lane `lane`.
    /// First match wins; plans are small, linear scan is fine.
    pub fn lookup(&self, lane: usize, frame: u64) -> Option<FaultKind> {
        self.events
            .iter()
            .find(|e| e.lane == lane && e.frame == frame)
            .map(|e| e.kind)
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// The splitmix64 finalizer: a cheap bijective mixer used for deterministic
/// jitter and resume tokens. Being a bijection on `u64` means distinct
/// inputs (e.g. globally unique session ids) always produce distinct
/// outputs — resume tokens need no collision handling.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_plan_matches_only_its_keys() {
        let plan = FaultPlan::new().with(0, 3, FaultKind::Drop).with(
            1,
            0,
            FaultKind::Truncate { keep: 2 },
        );
        assert_eq!(plan.lookup(0, 3), Some(FaultKind::Drop));
        assert_eq!(plan.lookup(1, 0), Some(FaultKind::Truncate { keep: 2 }));
        assert_eq!(plan.lookup(0, 0), None);
        assert_eq!(plan.lookup(2, 3), None);
        assert_eq!(plan.len(), 2);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn splitmix64_is_deterministic_and_injective_on_small_range() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..4096u64 {
            assert!(seen.insert(splitmix64(i)), "collision at {i}");
        }
        assert_eq!(splitmix64(7), splitmix64(7));
    }
}
