//! scope: crates/core/src/scheduler/fixture.rs
//! Fixture: assert-slot fires when asserts about the log of unconfirmed sends
//! omit the slot.

use std::collections::VecDeque;

struct S {
    unconfirmed: VecDeque<(u32, Option<u32>)>,
    since_install: usize,
    t: usize,
}

impl S {
    fn bad(&self) {
        debug_assert!(!self.unconfirmed.is_empty()); //~ assert-slot
        debug_assert_eq!(self.unconfirmed.back().map(|e| e.0), Some(3)); //~ assert-slot
    }

    fn good(&self, slot: usize) {
        debug_assert!(self.unconfirmed.len() >= self.since_install, "log out of step");
        debug_assert!(self.unconfirmed.get(slot).is_some());
        debug_assert!(self.since_install > 0); // not about the log at all
    }

    fn stale(&self) {
        // A clock named `t` is not the slot index.
        debug_assert!(self.unconfirmed.len() >= self.t); //~ assert-slot
    }
}
