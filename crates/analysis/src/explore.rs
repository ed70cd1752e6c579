//! Deterministic interleaving explorer for the park/evict/resume machine.
//!
//! A vendored loom-style harness: depth-first search over every bounded
//! schedule of an [`Explore`] system, checking its invariants after every
//! transition on every path.  The search is pruned with *sleep sets* (the
//! core of dynamic partial-order reduction): after a branch explores action
//! `a`, sibling branches inherit a sleep set containing every
//! already-explored action independent of `a`, so commuting permutations of
//! independent actions are visited exactly once.  Sleep-set pruning never
//! discards a Mazurkiewicz trace — every reachable state (up to commutation
//! of independent actions) is still visited — so an invariant that holds
//! over the pruned search holds over the full interleaving space.
//!
//! The explored system ([`crate::model`]) is production code — real
//! `SessionManager`s and `ResumeTable`s — and is not `Clone`, so the search
//! is *stateless*: a child state is rebuilt by replaying its schedule prefix
//! on a fresh instance.  Scripts are finite, so the state space is a DAG and
//! the search terminates without state hashing.

use std::collections::BTreeSet;

/// A system that the schedule explorer can drive exhaustively.
///
/// `dependent` is the static dependency relation for partial-order
/// reduction: it must return `true` whenever two actions could fail to
/// commute (or could enable/disable each other) in *some* state.
pub trait Explore {
    /// One schedulable transition.
    type Action: Copy + Ord + std::fmt::Debug;
    /// Actions enabled in the current state, in deterministic order.
    fn enabled(&self) -> Vec<Self::Action>;
    /// Apply one enabled action.
    fn apply(&mut self, action: Self::Action);
    /// Check the system's invariants; `Err` describes the violation.
    fn invariant(&self) -> Result<(), String>;
    /// Conservative static dependency between two actions.
    fn dependent(a: Self::Action, b: Self::Action) -> bool;
}

/// One invariant violation found during exploration.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The schedule (one rendered action per step) that reached the bad
    /// state, including the violating action itself.
    pub schedule: Vec<String>,
    /// The invariant's error message.
    pub error: String,
}

/// The outcome of an exhaustive exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Distinct maximal interleavings explored (post-DPOR).
    pub interleavings: u64,
    /// Transitions applied across all explored paths.
    pub transitions: u64,
    /// Longest schedule, in actions.
    pub max_depth: usize,
    /// Invariant violations, capped at the limit passed to [`explore`].
    pub violations: Vec<Violation>,
}

impl ExploreReport {
    /// Did every explored path satisfy every invariant?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively explore the bounded schedules of the system `initial`
/// builds (it must build the same initial state every time), collecting at
/// most `max_violations` invariant violations (the search below a violating
/// prefix is cut off; pass `1` for fail-fast).
pub fn explore<M: Explore>(initial: impl Fn() -> M, max_violations: usize) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut trace: Vec<M::Action> = Vec::new();
    dfs(
        &initial,
        initial(),
        &BTreeSet::new(),
        &mut trace,
        &mut report,
        max_violations.max(1),
    );
    report
}

fn dfs<M: Explore>(
    initial: &impl Fn() -> M,
    state: M,
    sleep: &BTreeSet<M::Action>,
    trace: &mut Vec<M::Action>,
    report: &mut ExploreReport,
    max_violations: usize,
) {
    if report.violations.len() >= max_violations {
        return;
    }
    let enabled = state.enabled();
    if enabled.is_empty() {
        // A maximal schedule.  (A state whose every enabled action sleeps is
        // NOT counted: its continuations are permutations of schedules
        // explored by an earlier sibling.)
        report.interleavings += 1;
        report.max_depth = report.max_depth.max(trace.len());
        return;
    }
    // Actions already explored from this state; each prunes its independent
    // successors from the branches to its right.
    let mut done: Vec<M::Action> = Vec::new();
    for &a in &enabled {
        if sleep.contains(&a) {
            done.push(a);
            continue;
        }
        // Rebuild this state from scratch and step it: the child.
        let mut next = initial();
        for &step in trace.iter() {
            next.apply(step);
        }
        next.apply(a);
        report.transitions += 1;
        trace.push(a);
        if let Err(error) = next.invariant() {
            report.violations.push(Violation {
                schedule: trace.iter().map(|t| format!("{t:?}")).collect(),
                error,
            });
        } else {
            let child_sleep: BTreeSet<M::Action> = sleep
                .iter()
                .chain(done.iter())
                .copied()
                .filter(|&x| !M::dependent(x, a))
                .collect();
            dfs(initial, next, &child_sleep, trace, report, max_violations);
        }
        trace.pop();
        done.push(a);
        if report.violations.len() >= max_violations {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Action, Fault, Op, ResumeHarness};

    /// A two-process toy whose actions all commute: DPOR must collapse the
    /// interleaving lattice to a single representative per trace class.
    struct Independent {
        left: u8,
        right: u8,
    }

    impl Explore for Independent {
        type Action = (u8, u8);
        fn enabled(&self) -> Vec<(u8, u8)> {
            let mut v = Vec::new();
            if self.left > 0 {
                v.push((0, self.left));
            }
            if self.right > 0 {
                v.push((1, self.right));
            }
            v
        }
        fn apply(&mut self, a: (u8, u8)) {
            if a.0 == 0 {
                self.left -= 1;
            } else {
                self.right -= 1;
            }
        }
        fn invariant(&self) -> Result<(), String> {
            Ok(())
        }
        fn dependent(a: (u8, u8), b: (u8, u8)) -> bool {
            a.0 == b.0
        }
    }

    #[test]
    fn sleep_sets_collapse_independent_lattices() {
        // 3+3 fully-independent steps: 20 raw interleavings, 1 trace class.
        let r = explore(|| Independent { left: 3, right: 3 }, 1);
        assert_eq!(r.interleavings, 1);
        assert!(r.is_clean());
        assert_eq!(r.max_depth, 6);
    }

    #[test]
    fn fully_dependent_lattices_are_not_pruned() {
        struct Dep(u8, u8);
        impl Explore for Dep {
            type Action = (u8, u8);
            fn enabled(&self) -> Vec<(u8, u8)> {
                let mut v = Vec::new();
                if self.0 > 0 {
                    v.push((0, self.0));
                }
                if self.1 > 0 {
                    v.push((1, self.1));
                }
                v
            }
            fn apply(&mut self, a: (u8, u8)) {
                if a.0 == 0 {
                    self.0 -= 1;
                } else {
                    self.1 -= 1;
                }
            }
            fn invariant(&self) -> Result<(), String> {
                Ok(())
            }
            fn dependent(_: (u8, u8), _: (u8, u8)) -> bool {
                true
            }
        }
        // All actions conflict: every one of C(6,3) = 20 orders is distinct.
        let r = explore(|| Dep(3, 3), 1);
        assert_eq!(r.interleavings, 20);
    }

    #[test]
    fn park_model_explores_clean() {
        let r = explore(ResumeHarness::two_shard, 8);
        assert!(r.is_clean(), "violations: {:?}", r.violations);
        assert!(
            r.interleavings >= 500,
            "expected >= 500 post-DPOR interleavings, got {}",
            r.interleavings
        );
    }

    #[test]
    fn seeded_bugs_are_caught_with_schedules() {
        for fault in Fault::ALL {
            let r = explore(|| ResumeHarness::two_shard().with_fault(fault), 1);
            assert!(
                !r.is_clean(),
                "seeded fault {fault:?} was not caught by the explorer"
            );
            let v = &r.violations[0];
            assert!(!v.schedule.is_empty() && !v.error.is_empty());
        }
    }

    #[test]
    fn violating_schedules_replay_deterministically() {
        // The reported schedule is a real counterexample: replaying it
        // step-by-step reproduces the violation.
        let faulty = || ResumeHarness::two_shard().with_fault(Fault::ResetSeqOnResume);
        let r = explore(faulty, 1);
        let schedule = &r.violations[0].schedule;
        let mut m = faulty();
        for (i, step) in schedule.iter().enumerate() {
            let a = m
                .enabled()
                .into_iter()
                .find(|a| &format!("{a:?}") == step)
                .unwrap_or_else(|| panic!("step {i} `{step}` not enabled on replay"));
            m.apply(a);
        }
        assert!(m.invariant().is_err());
    }

    #[test]
    fn emits_are_independent_of_the_clock() {
        let emit = Action::Session {
            proc: 0,
            shard: 0,
            op: Op::Emit,
        };
        assert!(!ResumeHarness::dependent(emit, Action::Tick));
        assert!(ResumeHarness::dependent(Action::Tick, Action::Tick));
    }
}
