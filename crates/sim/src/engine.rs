//! A small deterministic discrete-event engine.
//!
//! All end-to-end experiments run on a logical clock so results are exactly
//! reproducible and independent of host speed.  [`EventQueue`] is a plain
//! time-ordered priority queue with a sequence-number tiebreaker so that
//! events scheduled for the same instant fire in insertion order (which keeps
//! simulations deterministic even when many events share a timestamp).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use khameleon_core::types::Time;

/// A time-ordered event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Time,
}

#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
        }
    }

    /// The current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `at`.  Events scheduled in the past
    /// fire "now" (monotonicity is preserved by clamping at pop time).
    pub fn schedule(&mut self, at: Time, event: E) {
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Pops the next event, advancing the clock.  Returns `None` when empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(entry) = self.heap.pop()?;
        // The clock never runs backwards even if a caller scheduled an event
        // in the past.
        self.now = self.now.max(entry.at);
        Some((self.now, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khameleon_core::types::Duration;

    /// Time of the next pending event, if any.
    fn peek_time<E>(q: &EventQueue<E>) -> Option<Time> {
        q.heap.peek().map(|Reverse(e)| e.at)
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(30), "c");
        q.schedule(Time::from_millis(10), "a");
        q.schedule(Time::from_millis(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(peek_time(&q), Some(Time::from_millis(10)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(q.is_empty());
        assert_eq!(q.now(), Time::from_millis(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::from_millis(5);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_millis(100), "late");
        let _ = q.pop();
        // Scheduling in the past still pops, but the clock stays at 100 ms.
        q.schedule(Time::from_millis(50), "early");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_millis(100));
        assert_eq!(q.now(), Time::from_millis(100));
    }

    #[test]
    fn default_and_empty() {
        let mut q: EventQueue<()> = EventQueue::default();
        assert!(q.pop().is_none());
        assert_eq!(peek_time(&q), None);
        assert_eq!(q.now() + Duration::ZERO, Time::ZERO);
    }
}
