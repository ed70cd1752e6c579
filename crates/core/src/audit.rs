//! Runtime invariant auditor (the `audit` cargo feature).
//!
//! The in-tree parity proptests catch determinism bugs *end to end*: a seed
//! draws a different block and the whole 256-case suite fails.  The auditor
//! attacks the same invariants from inside, at configurable sampling
//! frequency, and **localizes** a violation to the exact Fenwick node, bucket
//! coefficient, or model slot instead of a failed end-to-end assert:
//!
//! * **Fenwick sums** — every tree node re-summed against the stored values,
//!   plus the positive-entry counter (the phantom-total defense).
//! * **Bucket coefficients** — each materialized request's sampler weight
//!   re-derived from the model's tails (`coef × shape factor`), each bucket's
//!   factor against the model's shape vector.
//! * **Slot alignment** — the log of unconfirmed sends against the
//!   simulated ring's newest entries, and the rollback's per-entry guard,
//!   promoted from a `debug_assert!` into a counted check that *reports*
//!   instead of aborting.
//! * **Diff signature** — after a diff-applied prediction update, the diffed
//!   model shadow-compared against a from-scratch rebuild.
//!
//! Everything in this module is compiled only with `--features audit`; with
//! the feature off the scheduler carries no auditor field and no hook code,
//! so the overhead is exactly zero.
//!
//! See `docs/ANALYSIS.md` for how to run the auditor locally.

use crate::types::RequestId;

/// The four invariant families the auditor verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditCheck {
    /// Fenwick subtree sums vs. brute-force recomputation.
    FenwickSums,
    /// Bucket coefficient × shared-shape-vector consistency vs. the model's
    /// materialized tails.
    BucketCoefficients,
    /// The log of unconfirmed sends holds the simulated ring's newest
    /// entries, newest last.
    SlotAlignment,
    /// Diff-path model vs. a from-scratch per-slot evaluation of the same
    /// summary (`PredictionSummary::at` on every slot) after a delta was
    /// applied (`apply_update_sparse`).
    DiffSignature,
}

impl AuditCheck {
    /// All checks, in report order.
    pub const ALL: [AuditCheck; 4] = [
        AuditCheck::FenwickSums,
        AuditCheck::BucketCoefficients,
        AuditCheck::SlotAlignment,
        AuditCheck::DiffSignature,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AuditCheck::FenwickSums => "fenwick_sums",
            AuditCheck::BucketCoefficients => "bucket_coefficients",
            AuditCheck::SlotAlignment => "slot_alignment",
            AuditCheck::DiffSignature => "diff_signature",
        }
    }

    fn idx(self) -> usize {
        match self {
            AuditCheck::FenwickSums => 0,
            AuditCheck::BucketCoefficients => 1,
            AuditCheck::SlotAlignment => 2,
            AuditCheck::DiffSignature => 3,
        }
    }
}

/// Sampling frequencies for the auditor's shadow checks.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Run the structural checks every `block_every` scheduled blocks
    /// (`1` = every block, `0` disables the per-block checks).
    pub block_every: u64,
    /// Run the post-update checks (including the expensive shadow rebuild of
    /// the diff-signature check) every `update_every` prediction updates
    /// (`0` disables them).
    pub update_every: u64,
    /// How many violations to retain verbatim in the report (counters keep
    /// counting past the cap).
    pub max_recorded: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            block_every: 64,
            update_every: 4,
            max_recorded: 32,
        }
    }
}

/// One localized invariant violation.
#[derive(Debug, Clone)]
pub struct AuditViolation {
    /// Which invariant family failed.
    pub check: AuditCheck,
    /// Model slot the violation localizes to, counted in blocks drawn since
    /// the last prediction update, when applicable.
    pub slot: Option<usize>,
    /// Request the violation localizes to, when applicable.
    pub request: Option<RequestId>,
    /// Human-readable specifics (tree/node, expected vs. stored, ...).
    pub detail: String,
}

/// Machine-readable audit outcome: per-check run/violation counters plus a
/// capped list of recorded violations.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Total auditor hook invocations (blocks + updates seen, checked or
    /// not).
    pub events: u64,
    runs: [u64; 4],
    violations: [u64; 4],
    recorded: Vec<AuditViolation>,
    max_recorded: usize,
}

impl AuditReport {
    fn new(max_recorded: usize) -> Self {
        AuditReport {
            events: 0,
            runs: [0; 4],
            violations: [0; 4],
            recorded: Vec::new(),
            max_recorded,
        }
    }

    /// Times `check` ran.
    pub fn runs(&self, check: AuditCheck) -> u64 {
        self.runs[check.idx()]
    }

    /// Violations `check` found (counted past the recording cap).
    pub fn violations_of(&self, check: AuditCheck) -> u64 {
        self.violations[check.idx()]
    }

    /// Total violations across all checks.
    pub fn total_violations(&self) -> u64 {
        self.violations.iter().sum()
    }

    /// The retained violations (first `max_recorded`).
    pub fn recorded(&self) -> &[AuditViolation] {
        &self.recorded
    }

    pub(crate) fn begin(&mut self, check: AuditCheck) {
        self.runs[check.idx()] += 1;
    }

    pub(crate) fn record(&mut self, violation: AuditViolation) {
        self.violations[violation.check.idx()] += 1;
        if self.recorded.len() < self.max_recorded {
            self.recorded.push(violation);
        }
    }

    /// Serializes the report as JSON (hand-rolled: the workspace has no
    /// serde, per the offline vendored-stub policy).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\"events\":");
        s.push_str(&self.events.to_string());
        s.push_str(",\"total_violations\":");
        s.push_str(&self.total_violations().to_string());
        s.push_str(",\"checks\":[");
        for (i, check) in AuditCheck::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"check\":\"");
            s.push_str(check.name());
            s.push_str("\",\"runs\":");
            s.push_str(&self.runs(*check).to_string());
            s.push_str(",\"violations\":");
            s.push_str(&self.violations_of(*check).to_string());
            s.push('}');
        }
        s.push_str("],\"recorded\":[");
        for (i, v) in self.recorded.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"check\":\"");
            s.push_str(v.check.name());
            s.push_str("\",\"slot\":");
            match v.slot {
                Some(slot) => s.push_str(&slot.to_string()),
                None => s.push_str("null"),
            }
            s.push_str(",\"request\":");
            match v.request {
                Some(r) => s.push_str(&r.index().to_string()),
                None => s.push_str("null"),
            }
            s.push_str(",\"detail\":\"");
            json_escape_into(&mut s, &v.detail);
            s.push_str("\"}");
        }
        s.push_str("]}");
        s
    }
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// The auditor a scheduler carries when attached: frequency gating plus the
/// accumulating report.  The scheduler drives it from its block/update hooks;
/// the checks themselves live next to the state they inspect
/// (`GreedyScheduler`'s audit impl).
#[derive(Debug, Clone)]
pub struct SamplerAuditor {
    cfg: AuditConfig,
    /// Accumulated counters and violations.
    pub report: AuditReport,
    blocks_seen: u64,
    updates_seen: u64,
    diffs_seen: u64,
}

impl SamplerAuditor {
    /// Creates an auditor with the given sampling frequencies.
    pub fn new(cfg: AuditConfig) -> Self {
        let report = AuditReport::new(cfg.max_recorded);
        SamplerAuditor {
            cfg,
            report,
            blocks_seen: 0,
            updates_seen: 0,
            diffs_seen: 0,
        }
    }

    /// Registers a scheduled block; true when the per-block checks should
    /// run now.
    pub fn tick_block(&mut self) -> bool {
        self.report.events += 1;
        self.blocks_seen += 1;
        self.cfg.block_every > 0 && self.blocks_seen.is_multiple_of(self.cfg.block_every)
    }

    /// Registers a prediction update; true when the post-update checks
    /// should run now.
    pub fn tick_update(&mut self) -> bool {
        self.report.events += 1;
        self.updates_seen += 1;
        self.cfg.update_every > 0 && self.updates_seen.is_multiple_of(self.cfg.update_every)
    }

    /// Registers a diff-applied prediction update; true when the
    /// diff-signature shadow rebuild should run now.  Counted separately
    /// from [`SamplerAuditor::tick_update`] (which already logged the event)
    /// so the expensive shadow check samples the *diff-applied* updates at
    /// `update_every` instead of hoping the two cadences coincide.
    pub fn tick_diff(&mut self) -> bool {
        self.diffs_seen += 1;
        self.cfg.update_every > 0 && self.diffs_seen.is_multiple_of(self.cfg.update_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_caps() {
        let mut a = SamplerAuditor::new(AuditConfig {
            block_every: 2,
            update_every: 1,
            max_recorded: 1,
        });
        assert!(!a.tick_block());
        assert!(a.tick_block());
        assert!(a.tick_update());
        a.report.begin(AuditCheck::FenwickSums);
        a.report.record(AuditViolation {
            check: AuditCheck::FenwickSums,
            slot: None,
            request: None,
            detail: "node 3".into(),
        });
        a.report.record(AuditViolation {
            check: AuditCheck::SlotAlignment,
            slot: Some(7),
            request: None,
            detail: "len \"mismatch\"".into(),
        });
        assert_eq!(a.report.events, 3);
        assert_eq!(a.report.runs(AuditCheck::FenwickSums), 1);
        assert_eq!(a.report.total_violations(), 2);
        assert_eq!(a.report.recorded().len(), 1, "cap respected");
        let json = a.report.to_json();
        assert!(json.contains("\"total_violations\":2"), "{json}");
        assert!(json.contains("\"check\":\"slot_alignment\",\"runs\":0"));
        assert!(json.contains("\\\"mismatch\\\"") || json.contains("node 3"));
    }
}
