//! The pacing gate of a paced event loop, socket-free.
//!
//! A paced server emits at most one block per
//! `SessionManager::pacing_interval`.  The gate keeps the one piece of state
//! that takes: when the next block may go.  It advances from its *own*
//! deadline, not from the moment the loop happened to wake, so a wake-up
//! that is late by less than an interval costs nothing — the next deadline
//! is as early as if the loop had been on time, and the long-run rate is
//! exactly `1 / interval`.  Backlog beyond one interval is forgiven: after
//! an idle stretch the gate releases the block that is due and one more,
//! not one per interval it sat idle, so there is no burst and no constant to
//! tune.

use khameleon_core::types::{Duration, Time};

/// When the next paced block may be sent, on the loop's wall clock.
#[derive(Debug, Default)]
pub(crate) struct PacingGate {
    next_send: Time,
}

impl PacingGate {
    /// Whether a block may be sent at `now`.
    pub(crate) fn is_open(&self, now: Time) -> bool {
        now >= self.next_send
    }

    /// The instant the gate opens again.
    pub(crate) fn next_send(&self) -> Time {
        self.next_send
    }

    /// Records a block sent at `now` under the current pacing `interval`.
    pub(crate) fn note_sent(&mut self, now: Time, interval: Duration) {
        let earliest = Time::from_micros(now.as_micros().saturating_sub(interval.as_micros()));
        self.next_send = self.next_send.max(earliest) + interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERVAL: Duration = Duration(728);

    /// Sends every block the gate allows at `now`; returns how many.
    fn drain(gate: &mut PacingGate, now: Time) -> u64 {
        let mut sent = 0;
        while gate.is_open(now) {
            gate.note_sent(now, INTERVAL);
            sent += 1;
        }
        sent
    }

    #[test]
    fn late_wakeups_under_one_interval_keep_the_exact_rate() {
        // A loop that always wakes late by a varying amount below one
        // interval still sends block `k` no later than `k` intervals plus
        // that lateness after the first: nothing accumulates.
        let mut gate = PacingGate::default();
        let mut sent = 0u64;
        for k in 0..10_000u64 {
            let lateness = (k * 37) % INTERVAL.as_micros();
            let now = gate.next_send() + Duration(lateness);
            assert!(gate.is_open(now));
            gate.note_sent(now, INTERVAL);
            sent += 1;
            assert!(!gate.is_open(now), "one block per interval");
        }
        assert_eq!(gate.next_send(), Time::ZERO + INTERVAL.mul(sent));
    }

    #[test]
    fn an_on_time_loop_sends_one_block_per_interval() {
        let mut gate = PacingGate::default();
        let mut sent = 0;
        for us in 0..=(100 * INTERVAL.as_micros()) {
            sent += drain(&mut gate, Time::from_micros(us));
        }
        assert_eq!(sent, 101, "one at time zero, then one per interval");
    }

    #[test]
    fn ten_idle_intervals_release_one_backlog_block_not_ten() {
        let mut gate = PacingGate::default();
        assert_eq!(drain(&mut gate, Time::ZERO), 1);
        let woke = Time::ZERO + INTERVAL.mul(11);
        // The block due now plus one forgiven interval of backlog — a gate
        // that kept the whole backlog would release eleven here.
        assert_eq!(drain(&mut gate, woke), 2);
        assert_eq!(gate.next_send(), woke + INTERVAL);
        assert_eq!(
            drain(&mut gate, woke + Duration(INTERVAL.as_micros() - 1)),
            0
        );
        assert_eq!(drain(&mut gate, woke + INTERVAL), 1);
    }

    #[test]
    fn the_interval_may_change_between_blocks() {
        let mut gate = PacingGate::default();
        gate.note_sent(Time::ZERO, Duration(1_000));
        assert_eq!(gate.next_send(), Time::from_micros(1_000));
        gate.note_sent(Time::from_micros(1_000), Duration(250));
        assert_eq!(gate.next_send(), Time::from_micros(1_250));
    }
}
