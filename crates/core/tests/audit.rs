//! Integration tests of the `audit` cargo feature: a clean mixed-churn
//! workload must produce a zero-violation report with every check exercised,
//! and a deliberately misaligned rollback must be *caught and counted* by
//! the promoted slot-alignment checks instead of aborting the process.
#![cfg(feature = "audit")]

use std::sync::Arc;

use khameleon_core::audit::{AuditCheck, AuditConfig};
use khameleon_core::block::ResponseCatalog;
use khameleon_core::delta::DirectUplink;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::scheduler::{GreedyScheduler, GreedySchedulerConfig, Scheduler};
use khameleon_core::types::{RequestId, Time};
use khameleon_core::utility::{LinearUtility, UtilityModel};

fn sparse_pred(n: usize, entries: Vec<(RequestId, f64)>, residual: f64) -> PredictionSummary {
    let dist = SparseDistribution::from_entries(n, entries, residual);
    let slices = PredictionSummary::default_deltas()
        .into_iter()
        .map(|delta| HorizonSlice {
            delta,
            dist: dist.clone(),
        })
        .collect();
    PredictionSummary::new(n, slices, Time::ZERO)
}

/// Check on every block and every update.
fn every_event() -> AuditConfig {
    AuditConfig {
        block_every: 1,
        update_every: 1,
        ..AuditConfig::default()
    }
}

fn scheduler(n: usize, cache: usize) -> GreedyScheduler {
    GreedyScheduler::new(
        GreedySchedulerConfig {
            cache_blocks: cache,
            ..Default::default()
        },
        UtilityModel::homogeneous(&LinearUtility, 6),
        Arc::new(ResponseCatalog::uniform(n, 6, 1000)),
    )
}

/// A churning sequence of predictions over a fixed materialized core plus a
/// rotating fringe — small deltas on the wire, so all but the first take the
/// diff path (exercising the diff-signature shadow rebuild).
fn churn_pred(n: usize, round: usize) -> PredictionSummary {
    let core = [
        (RequestId(3), 0.25 + 0.01 * (round % 7) as f64),
        (RequestId(11), 0.20),
        (RequestId(19), 0.15 - 0.01 * (round % 5) as f64),
    ];
    let fringe = (
        RequestId::from(30 + (round * 3) % 20),
        0.10 + 0.02 * (round % 3) as f64,
    );
    let mut entries: Vec<(RequestId, f64)> = core.to_vec();
    entries.push(fringe);
    let explicit: f64 = entries.iter().map(|e| e.1).sum();
    sparse_pred(n, entries, 1.0 - explicit)
}

#[test]
fn clean_mixed_churn_run_audits_to_zero_violations() {
    let n = 80;
    let cache = 48;
    let mut s = scheduler(n, cache);
    s.audit_attach(every_event());
    let mut uplink = DirectUplink::new();
    for round in 0..40 {
        uplink.ship(&mut s, &churn_pred(n, round));
        // Alternate forward progress with partial rollbacks so the audited
        // state covers scheduling, eviction, schedule wrap, and re-planning:
        // every fourth batch the sender drops its last 5 blocks.
        let batch = s.next_batch(12);
        let sent = if round % 4 == 2 {
            batch.len().saturating_sub(5)
        } else {
            batch.len()
        };
        for &b in &batch[..sent] {
            s.note_sent(b);
        }
    }
    assert!(
        s.diff_applied_updates() >= 30,
        "churn workload must exercise the diff path"
    );
    let report = s.audit_report().expect("auditor attached");
    for check in AuditCheck::ALL {
        assert!(
            report.runs(check) > 0,
            "check {} never ran over the mixed-churn workload",
            check.name()
        );
        assert_eq!(
            report.violations_of(check),
            0,
            "check {} found violations:\n{}",
            check.name(),
            report.to_json()
        );
    }
    assert_eq!(report.total_violations(), 0);
    assert!(report.events > 0);
    // The report round-trips to JSON with per-check counters present.
    let json = report.to_json();
    assert!(json.contains("\"total_violations\":0"), "{json}");
    assert!(json.contains("\"check\":\"diff_signature\""), "{json}");
}

#[test]
fn misaligned_rollback_is_counted_not_aborted() {
    let n = 40;
    let mut s = scheduler(n, 32);
    s.audit_attach(every_event());
    s.update_prediction(&churn_pred(n, 0), 0);
    let batch = s.next_batch(10);
    let before = s.audit_report().expect("auditor attached");
    assert_eq!(before.total_violations(), 0, "clean before injection");
    // Deliberately desynchronize the eviction log from the slot index, then
    // force a rollback across the damage.  Without an attached auditor this
    // state debug-aborts; with one it must be reported and counted.
    s.audit_inject_eviction_log_truncation();
    for &b in &batch[..6] {
        s.note_sent(b);
    }
    s.update_prediction(&churn_pred(n, 1), 0);
    let report = s.audit_report().expect("auditor attached");
    assert!(
        report.violations_of(AuditCheck::SlotAlignment) > 0,
        "misaligned rollback must be caught by the slot-alignment check:\n{}",
        report.to_json()
    );
    let json = report.to_json();
    assert!(json.contains("\"check\":\"slot_alignment\""), "{json}");
    assert!(
        json.contains("eviction log"),
        "recorded violation should localize the fault: {json}"
    );
    // The scheduler keeps operating after reporting (audit observes, never
    // unwinds).
    s.next_batch(4);
}
