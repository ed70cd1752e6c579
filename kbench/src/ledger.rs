//! What a workload records while it runs — ops with the instants that end
//! their latencies, blocks, completed updates, failed checks — and the
//! arithmetic that turns the record into end-to-end metrics.
//!
//! A latency is made of observed samples only: an op that was never answered
//! is counted (as unanswered, pre-empted or timed out), never given a
//! made-up time.  Which metrics a workload reports is the workload's
//! business (`bench/README.md` has the metric × workload table).

use crate::procfs::ThreadSample;
use crate::stats::{percentile_sorted, top_percentile, WindowCounter};

/// Throughput windows per measured interval (the rate is their median).
const WINDOWS: usize = 5;

#[derive(Debug, Clone, Copy)]
struct Op {
    due_ns: u64,
    /// The client's upcall for the op, with what it showed.
    answered_ns: Option<u64>,
    hit: bool,
    utility: f64,
    /// First block of the op's target decoded after the op was issued.
    first_block_ns: Option<u64>,
    /// Every block of the target held, while the op was still the newest.
    complete_ns: Option<u64>,
    /// A newer op replaced this one before it was complete.
    preempted: bool,
    /// Blocks the client received between the op's issue and its completion.
    blocks_to_complete: u32,
    target_blocks: u32,
}

/// A measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

impl Value {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Value {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

pub struct Ledger {
    /// The measured interval, on the workload's clock.
    pub start_ns: u64,
    pub end_ns: u64,
    /// An op with no first block this long after it was due has timed out
    /// (`None`: the workload's ops have no first block to wait for).
    first_block_timeout_ns: Option<u64>,
    ops: Vec<Op>,
    blocks: WindowCounter,
    updates: WindowCounter,
    /// How late each measured op was issued against its due time.
    late_ns: Vec<f64>,
    /// Output checks that failed (bad payload, decode error, resync, ...),
    /// with when; the message is empty past the first few.
    check_failures: Vec<(u64, String)>,
}

impl Ledger {
    pub fn new(start_ns: u64, end_ns: u64, first_block_timeout_ns: Option<u64>) -> Self {
        Ledger {
            start_ns,
            end_ns,
            first_block_timeout_ns,
            ops: Vec::with_capacity(1 << 16),
            blocks: WindowCounter::new(start_ns, end_ns, WINDOWS),
            updates: WindowCounter::new(start_ns, end_ns, WINDOWS),
            late_ns: Vec::with_capacity(1 << 16),
            check_failures: Vec::new(),
        }
    }

    pub fn in_window(&self, at_ns: u64) -> bool {
        (self.start_ns..self.end_ns).contains(&at_ns)
    }

    /// Records an op due at `due_ns` (open loop: its scheduled time; closed
    /// loop: when it was sent) whose target has `target_blocks` blocks;
    /// returns its index.
    pub fn issue(&mut self, due_ns: u64, target_blocks: u32) -> usize {
        self.ops.push(Op {
            due_ns,
            answered_ns: None,
            hit: false,
            utility: 0.0,
            first_block_ns: None,
            complete_ns: None,
            preempted: false,
            blocks_to_complete: 0,
            target_blocks,
        });
        self.ops.len() - 1
    }

    /// A newer op replaced `op`.
    pub fn supersede(&mut self, op: usize) {
        let op = &mut self.ops[op];
        op.preempted = op.complete_ns.is_none();
    }

    pub fn answer(&mut self, op: usize, at_ns: u64, hit: bool, utility: f64) {
        let op = &mut self.ops[op];
        if op.answered_ns.is_none() {
            op.answered_ns = Some(at_ns);
            op.hit = hit;
            op.utility = utility;
        }
    }

    pub fn first_block(&mut self, op: usize, at_ns: u64) {
        self.ops[op].first_block_ns.get_or_insert(at_ns);
    }

    pub fn complete(&mut self, op: usize, at_ns: u64, blocks_since_issue: u32) {
        let op = &mut self.ops[op];
        if op.complete_ns.is_none() && !op.preempted {
            op.complete_ns = Some(at_ns);
            op.blocks_to_complete = blocks_since_issue;
        }
    }

    pub fn block(&mut self, at_ns: u64) {
        self.blocks.add(at_ns, 1);
    }

    /// An update op completed.
    pub fn update(&mut self, at_ns: u64) {
        self.updates.add(at_ns, 1);
    }

    /// How late the generator ran for the op due at `due_ns`: an open-loop
    /// op issued after it was due, or a closed loop's own work between two
    /// ops.  Measured ops only.
    pub fn late(&mut self, due_ns: u64, ns: u64) {
        if self.in_window(due_ns) {
            self.late_ns.push(ns as f64);
        }
    }

    pub fn check_failed(&mut self, at_ns: u64, what: impl Into<String>) {
        // Keep the first few messages; the count is what matters after that.
        let what = if self.check_failures.len() < 64 {
            what.into()
        } else {
            String::new()
        };
        self.check_failures.push((at_ns, what));
    }

    /// The messages of the failed checks, inside the measured interval or
    /// not: any of them makes the run incorrect.
    pub fn check_messages(&self) -> impl Iterator<Item = &str> {
        self.check_failures
            .iter()
            .map(|(_, what)| what.as_str())
            .filter(|what| !what.is_empty())
    }

    pub fn checks_failed(&self) -> usize {
        self.check_failures.len()
    }

    fn measured_ops(&self) -> impl Iterator<Item = &Op> {
        self.ops.iter().filter(|op| self.in_window(op.due_ns))
    }

    pub fn attempted(&self) -> u64 {
        self.measured_ops().count() as u64
    }

    /// Measured ops whose first block did not arrive within the workload's
    /// time-out, as a share of all measured ops.
    pub fn timed_out_share(&self) -> Value {
        let all = self.attempted();
        let late = match self.first_block_timeout_ns {
            None => 0,
            Some(timeout) => self
                .measured_ops()
                .filter(|op| {
                    op.first_block_ns
                        .is_none_or(|at| at.saturating_sub(op.due_ns) > timeout)
                })
                .count(),
        };
        Value::new(
            "ops.timed_out_share",
            late as f64 / all.max(1) as f64,
            "ratio",
            all,
        )
    }

    /// Failed ops, against [`attempted`](Ledger::attempted): checks that
    /// failed inside the measured interval (an I/O or decode error, a
    /// refused session, an unforced resync, a bad block, a server that
    /// stopped answering).
    pub fn failed(&self) -> u64 {
        let checks = self
            .check_failures
            .iter()
            .filter(|(at, _)| self.in_window(*at))
            .count() as u64;
        checks.min(self.attempted())
    }

    pub fn blocks_measured(&self) -> u64 {
        self.blocks.total()
    }

    /// Blocks per second, median window, with the blocks counted.
    pub fn goodput(&self) -> Value {
        Value::new(
            "goodput_blocks_per_s",
            self.blocks.median_rate(),
            "blocks/s",
            self.blocks.total(),
        )
    }

    /// Completed update ops per second, median window.
    pub fn updates_per_s(&self) -> Value {
        Value::new(
            "updates_per_s",
            self.updates.median_rate(),
            "1/s",
            self.updates.total(),
        )
    }

    /// Process CPU over the measured interval per block and, where the
    /// workload completes update ops, per update.
    pub fn cpu_costs(&self, cpu: ThreadSample) -> Vec<Value> {
        let mut out = Vec::new();
        for (name, count) in [
            ("proc.cpu_us_per_block", self.blocks.total()),
            ("proc.cpu_us_per_update", self.updates.total()),
        ] {
            if count > 0 {
                let us = cpu.run_ns as f64 / 1e3 / count as f64;
                out.push(Value::new(name, us, "us", count));
            }
        }
        out
    }

    /// p99 of generator lateness in ms, with its sample count.
    pub fn lateness_ms_p99(&self) -> Value {
        let mut late = self.late_ns.clone();
        late.sort_by(f64::total_cmp);
        Value::new(
            "tclient.gen_late_ms_p99",
            percentile_sorted(&late, 99.0) / 1e6,
            "ms",
            late.len() as u64,
        )
    }

    /// Response quality over the measured ops, as the client cache saw it:
    /// `hit_share` (answered at issue ÷ all ops), `cache.answered_share`
    /// (any upcall ÷ all ops) and `utility_mean` (utility of the prefix shown
    /// at the upcall, over answered ops; absent when none was answered).
    pub fn quality(&self) -> Vec<Value> {
        let all = self.attempted();
        let answered: Vec<&Op> = self
            .measured_ops()
            .filter(|op| op.answered_ns.is_some())
            .collect();
        let hits = answered.iter().filter(|op| op.hit).count();
        let share = |n: usize| n as f64 / all.max(1) as f64;
        let mut out = vec![
            Value::new("hit_share", share(hits), "ratio", all),
            Value::new("cache.answered_share", share(answered.len()), "ratio", all),
        ];
        if !answered.is_empty() {
            out.push(Value::new(
                "utility_mean",
                answered.iter().map(|op| op.utility).sum::<f64>() / answered.len() as f64,
                "ratio",
                answered.len() as u64,
            ));
        }
        out
    }

    /// Due → upcall in ms, ascending, over measured ops that missed at issue
    /// and were answered later.
    pub fn miss_wait_ms(&self) -> Vec<f64> {
        self.observed_ms(|op| op.answered_ns.filter(|_| !op.hit))
    }

    /// Due → first block of the target in ms, ascending, over measured ops
    /// that got one.
    pub fn first_block_ms(&self) -> Vec<f64> {
        self.observed_ms(|op| op.first_block_ns)
    }

    /// Due → every block of the target held in ms, ascending, over measured
    /// ops that got there before the next op replaced them.
    pub fn full_quality_ms(&self) -> Vec<f64> {
        self.observed_ms(|op| op.complete_ns)
    }

    fn observed_ms(&self, end: impl Fn(&Op) -> Option<u64>) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .measured_ops()
            .filter_map(|op| Some(end(op)?.saturating_sub(op.due_ns) as f64 / 1e6))
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Measured ops a newer op replaced before they were complete, as a
    /// share of all measured ops.
    pub fn preempted_share(&self) -> Value {
        let all = self.attempted();
        let preempted = self.measured_ops().filter(|op| op.preempted).count();
        Value::new(
            "cache.preempted_share",
            preempted as f64 / all.max(1) as f64,
            "ratio",
            all,
        )
    }

    /// Blocks of the requested item ÷ blocks delivered until full quality,
    /// over completed measured ops.
    pub fn useful_block_share(&self) -> Value {
        let (mut useful, mut delivered, mut n) = (0u64, 0u64, 0u64);
        for op in self.measured_ops().filter(|op| op.complete_ns.is_some()) {
            useful += u64::from(op.target_blocks.min(op.blocks_to_complete));
            delivered += u64::from(op.blocks_to_complete.max(1));
            n += 1;
        }
        Value::new(
            "session.useful_block_share",
            useful as f64 / delivered.max(1) as f64,
            "ratio",
            n,
        )
    }
}

/// The values one latency is reported as: `<family>_ms_p50` and
/// `<family>_ms_<tail>` (the issue's names), then, as diagnostics, p99 and
/// p99.9 and the highest percentile the sample count supports (at least ten
/// samples beyond it).  Nothing at all without samples.
pub fn latency_values(family: &str, tail: f64, sorted_ms: &[f64]) -> Vec<Value> {
    let n = sorted_ms.len() as u64;
    if n == 0 {
        return Vec::new();
    }
    let at = |name: String, p: f64| Value::new(name, percentile_sorted(sorted_ms, p), "ms", n);
    let mut out = vec![
        at(format!("{family}_ms_p50"), 50.0),
        at(format!("{family}_ms_p{tail}"), tail),
        at(format!("{family}_ms_p99"), 99.0),
        at(format!("{family}_ms_p999"), 99.9),
    ];
    if let Some(p) = top_percentile(sorted_ms.len()) {
        out.push(Value::new(
            format!("{family}_ms.highest_supported_percentile"),
            p,
            "%",
            n,
        ));
    }
    out
}

/// Everything one real (socket or in-process) run hands back.
pub struct Measured {
    pub ledger: Ledger,
    /// Median of the run's repeated set-ups, in seconds, and how many.
    pub setup_s: f64,
    pub setups: usize,
    /// Whole process and the system's own server threads over the measured
    /// interval.
    pub cpu: ThreadSample,
    pub server: ThreadSample,
    /// Allocations and bytes requested over the measured interval.
    pub allocs: (u64, u64),
    /// What this workload measures beyond the metrics every workload has:
    /// its own end-to-end metrics and the counters of the layers it drives.
    pub own: Vec<Value>,
    /// Running hash of the block sequence the client received, after each
    /// op (lockstep workloads only; empty elsewhere).
    pub block_hashes: Vec<u64>,
    /// Ops the run completed in total (warm-up included), so the replay can
    /// cover the same prefix of the input.
    pub ops_total: u64,
    /// Hash of the generated inputs the run consumed: two runs with the same
    /// seed and length print the same value.
    pub input_hash: u64,
}

impl Measured {
    pub fn seconds(&self) -> f64 {
        (self.ledger.end_ns - self.ledger.start_ns) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;
    const MS: u64 = 1_000_000;

    #[test]
    fn latencies_hold_observed_samples_only() {
        // Measured interval 1 s .. 11 s, first-block time-out 250 ms.
        let mut l = Ledger::new(S, 11 * S, Some(250 * MS));
        // Before the interval: ignored by every metric.
        let early = l.issue(S / 2, 4);
        l.first_block(early, S / 2 + 5);
        // First block after 3 ms (later blocks do not move it), complete
        // after 10 ms and 8 blocks; superseding a complete op changes nothing.
        let fast = l.issue(3 * S, 4);
        l.late(3 * S, 1_000);
        l.late(S / 2, 9_000_000); // warm-up: ignored
        l.first_block(fast, 3 * S + 3 * MS);
        l.first_block(fast, 3 * S + 9 * MS);
        l.complete(fast, 3 * S + 10 * MS, 8);
        l.supersede(fast);
        // Replaced by the next op before it was complete; its first block
        // still arrives, 60 ms after it was due; a late completion does not
        // count.
        let slow = l.issue(5 * S, 4);
        l.supersede(slow);
        l.first_block(slow, 5 * S + 60 * MS);
        l.complete(slow, 5 * S + 70 * MS, 9);
        // First block after the time-out, and an op nothing ever happened to.
        let late = l.issue(6 * S, 4);
        l.first_block(late, 6 * S + 300 * MS);
        l.issue(7 * S, 4);
        for i in 0..100 {
            l.block(S + i * (S / 10));
        }
        l.update(2 * S);
        l.check_failed(2 * S, "bad payload");
        l.check_failed(S / 2, "bad payload in warm-up");

        assert_eq!(l.attempted(), 4);
        assert_eq!(l.timed_out_share().value, 0.5);
        assert_eq!(l.failed(), 1, "the in-window check");
        assert_eq!(l.checks_failed(), 2);
        assert_eq!(l.check_messages().count(), 2);
        assert_eq!(l.first_block_ms(), vec![3.0, 60.0, 300.0]);
        assert_eq!(l.full_quality_ms(), vec![10.0]);
        assert_eq!(l.preempted_share().value, 0.25);
        assert_eq!(l.useful_block_share().value, 0.5);
        assert_eq!(l.goodput().value, 10.0);
        assert_eq!(l.updates_per_s().samples, 1);
        assert_eq!(l.lateness_ms_p99().value, 0.001);
        let cpu = l.cpu_costs(ThreadSample {
            run_ns: 1_000_000,
            ..Default::default()
        });
        assert_eq!(cpu[0].value, 10.0);
        assert_eq!(cpu[1].value, 1_000.0);

        let values = latency_values("first_block", 95.0, &l.first_block_ms());
        let names: Vec<&str> = values.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "first_block_ms_p50",
                "first_block_ms_p95",
                "first_block_ms_p99",
                "first_block_ms_p999"
            ]
        );
        assert_eq!((values[0].value, values[0].samples), (60.0, 3));
        assert!(latency_values("miss_wait", 90.0, &[]).is_empty());
    }

    #[test]
    fn quality_counts_hits_against_every_op() {
        let mut l = Ledger::new(S, 11 * S, None);
        // A hit, answered at issue.
        let hit = l.issue(2 * S, 4);
        l.answer(hit, 2 * S + 1_000, true, 0.5);
        // A miss answered 3 ms after it was due.
        let miss = l.issue(3 * S, 4);
        l.answer(miss, 3 * S + 3 * MS, false, 0.25);
        l.answer(miss, 3 * S + 9 * MS, false, 1.0); // only the first upcall counts
        let unanswered = l.issue(4 * S, 4);
        l.issue(5 * S, 4);

        let q = l.quality();
        let get = |name: &str| q.iter().find(|v| v.name == name).unwrap();
        assert_eq!(
            (get("hit_share").value, get("hit_share").samples),
            (0.25, 4)
        );
        assert_eq!(get("cache.answered_share").value, 0.5);
        assert_eq!(get("utility_mean").value, 0.375);
        assert_eq!(l.miss_wait_ms(), vec![3.0]);
        assert_eq!(l.timed_out_share().value, 0.0, "no time-out rule here");
        assert_eq!(l.failed(), 0);
        // A system that starts answering misses keeps its hit share.
        l.answer(unanswered, 4 * S + MS, false, 0.1);
        assert_eq!(l.quality()[0].value, 0.25);
        assert_eq!(l.quality()[1].value, 0.75);
        assert!(Ledger::new(0, 1, None)
            .quality()
            .iter()
            .all(|v| v.name != "utility_mean"));
    }
}
