//! The benchmark's tables: workloads, the metrics of the contract
//! (`BENCHMARK.json`) with their regression bounds, and the end-to-end
//! metrics only some workloads have.  A unit test keeps the committed
//! `BENCHMARK.json` equal to [`contract`], and every run checks it again.
//!
//! The contract takes every end-to-end metric from every untraced run of
//! every workload, never zero, and every per-layer metric from every traced
//! run.  Its lists therefore hold only the metrics that one definition makes
//! a real measurement on all four workloads; the rest of the issue's
//! fourteen end-to-end metrics and of its per-layer table are reported, with
//! the same care, by the workloads that have them ([`OWN_END_TO_END`], and
//! `bench/README.md` for the layers).

use crate::json::Json;

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "trace_replay",
        why: "paper scenario on a real socket, server CPU nearly idle: guards response quality (hit rate, utility) and miss latency; compute optimisations should not move it",
    },
    Workload {
        name: "reaction_burst",
        why: "event-loop dominated: tiny predictions every 40 ms, small frames, 129 sockets to poll under pacing; scheduler and model work is negligible",
    },
    Workload {
        name: "update_heavy",
        why: "write side of scheduler and uplink: 10k-entry predictions churning 1 % per op in lockstep, 4 block draws per op, so draw-speed changes should not move it",
    },
    Workload {
        name: "fleet_inproc",
        why: "session layer at fleet scale without syscalls: 2000 sessions on 2 shards, arbitration, lookup and model dedup; transport changes should not move it",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The gated end-to-end metrics: defined, by one definition each, on every
/// workload.  `setup_s` and the goodput carry the largest bound the contract
/// allows: across ten seeds on a noisy evening `fleet_inproc`'s goodput
/// spread by 15 % (see `bench/README.md`).
pub const END_TO_END: [EndToEnd; 3] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("goodput_blocks_per_s", "blocks/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// The issue's end-to-end metrics that only some workloads have, with the
/// bound `--repeat` and `--diff` print beside them.  They are reported by
/// every untraced run of the workloads named, and are not in the contract.
/// The two CPU costs are named `proc.*` because the issue's rule for a metric
/// that does not repeat within its bound moves it under its layer: CPU time
/// drifted by up to 24 % between two sets of runs twenty minutes apart.
pub struct OwnEndToEnd {
    pub metric: EndToEnd,
    pub workloads: &'static [&'static str],
}

const fn own(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    workloads: &'static [&'static str],
) -> OwnEndToEnd {
    OwnEndToEnd {
        metric: e2e(name, unit, better, bound),
        workloads,
    }
}

const SOCKET_OPS: &[&str] = &["reaction_burst", "update_heavy"];

pub const OWN_END_TO_END: [OwnEndToEnd; 11] = [
    own("hit_share", "ratio", "higher", 0.05, &["trace_replay"]),
    own("utility_mean", "ratio", "higher", 0.05, &["trace_replay"]),
    own("miss_wait_ms_p50", "ms", "lower", 0.10, &["trace_replay"]),
    own("miss_wait_ms_p90", "ms", "lower", 0.10, &["trace_replay"]),
    own("first_block_ms_p50", "ms", "lower", 0.10, SOCKET_OPS),
    own("first_block_ms_p95", "ms", "lower", 0.10, SOCKET_OPS),
    own(
        "full_quality_ms_p50",
        "ms",
        "lower",
        0.10,
        &["reaction_burst"],
    ),
    own(
        "full_quality_ms_p95",
        "ms",
        "lower",
        0.10,
        &["reaction_burst"],
    ),
    own("updates_per_s", "1/s", "higher", 0.10, &["update_heavy"]),
    own(
        "proc.cpu_us_per_block",
        "us",
        "lower",
        0.10,
        &["trace_replay", "reaction_burst", "fleet_inproc"],
    ),
    own(
        "proc.cpu_us_per_update",
        "us",
        "lower",
        0.10,
        &["update_heavy"],
    ),
];

/// The bound printed beside `metric`, if it is an end-to-end metric.
pub fn bound_of(metric: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .chain(OWN_END_TO_END.iter().map(|o| &o.metric))
        .find(|m| m.name == metric)
        .map(|m| m.bound)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics of the contract: the layers every workload drives
/// (session, scheduler, sampling), the system's own threads (the transport
/// event loop on the socket workloads, the shard workers on `fleet_inproc`)
/// and the process.  The transport, wire, delta, client-cache, predictor,
/// bandwidth and shard layers are not on every workload's path; their
/// metrics are printed by the traced runs of the workloads that drive them.
pub const PER_LAYER: [PerLayer; 16] = [
    layer("server_threads.cpu_us_per_block", "us", "lower"),
    layer("server_threads.runq_wait_us_per_s", "us/s", "lower"),
    layer("server_threads.wakeups_per_s", "1/s", "lower"),
    layer("session.on_message_us_p50", "us", "lower"),
    layer("session.on_message_us_p99", "us", "lower"),
    layer("session.next_event_ns", "ns", "lower"),
    layer("scheduler.apply_update_us_p50", "us", "lower"),
    layer("scheduler.apply_update_us_p99", "us", "lower"),
    layer("scheduler.next_block_ns", "ns", "lower"),
    layer("scheduler.diff_applied_share", "ratio", "higher"),
    layer("sampling.live_entries", "count", "lower"),
    layer("sampling.locate_ns", "ns", "lower"),
    layer("proc.cpu_us_per_block", "us", "lower"),
    layer("proc.allocs_per_block", "count", "lower"),
    layer("proc.alloc_bytes_per_block", "bytes", "lower"),
    layer("trace_overhead_share", "ratio", "lower"),
];

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn contract() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "kbench/Cargo.toml",
        "--",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        (
            "paths",
            Json::Arr(vec![Json::str("kbench"), Json::str("bench")]),
        ),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Compares `BENCHMARK.json` in the working directory (the checkout's root,
/// where the contract's driver runs) with [`contract`].  A missing file is
/// fine: the suite may be run from anywhere.
pub fn committed_contract_matches() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    if Json::parse(&text).as_ref() == Ok(&contract()) {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json is out of step with kbench/src/spec.rs; it should read:\n{}",
            contract().pretty()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn contract_stays_inside_its_limits() {
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name), "{}", m.name);
            names.push(m.name);
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(contract().compact().len() < 64 * 1024);
    }

    #[test]
    fn own_metrics_name_known_workloads_and_no_gated_metric() {
        for own in &OWN_END_TO_END {
            assert!(!own.workloads.is_empty(), "{}", own.metric.name);
            for w in own.workloads {
                assert!(WORKLOADS.iter().any(|k| k.name == *w), "{w}");
            }
            assert!(END_TO_END.iter().all(|m| m.name != own.metric.name));
        }
        assert_eq!(bound_of("goodput_blocks_per_s"), Some(0.25));
        assert_eq!(bound_of("first_block_ms_p95"), Some(0.10));
        assert_eq!(bound_of("wire.encode_event_ns"), None);
    }

    #[test]
    fn committed_contract_is_generated_from_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("valid JSON"),
            contract(),
            "BENCHMARK.json should read:\n{}",
            contract().pretty()
        );
    }
}
