//! One run of one workload in this process: measure, derive the metrics the
//! contract names, check outputs, print.

use crate::json::Json;
use crate::ledger::{Measured, Value};
use crate::procfs;
use crate::replay::Replay;
use crate::spec;
use crate::stats::median;
use crate::workloads::{fleet_inproc, reaction_burst, trace_replay, update_heavy};

/// Spans written to a trace file (the aggregates use all recorded spans).
const TRACE_FILE_SPANS: usize = 100_000;

struct Workload {
    run: fn(u64, f64) -> Measured,
    /// `(seed, spans on, time budget in s, op limit)`; the op limit lets the
    /// second replay repeat exactly the work of the first.
    replay: fn(u64, bool, f64, u64) -> Replay,
    /// Further traced-mode measurements only this workload can make.
    extra: fn(u64) -> Vec<Value>,
}

fn workload(name: &str) -> Workload {
    match name {
        "trace_replay" => Workload {
            run: trace_replay::run,
            replay: trace_replay::replay,
            extra: |_| Vec::new(),
        },
        "reaction_burst" => Workload {
            run: reaction_burst::run,
            replay: reaction_burst::replay,
            extra: |_| Vec::new(),
        },
        "update_heavy" => Workload {
            run: update_heavy::run,
            replay: update_heavy::replay,
            extra: |_| Vec::new(),
        },
        "fleet_inproc" => Workload {
            run: fleet_inproc::run,
            replay: fleet_inproc::replay,
            extra: |seed| vec![fleet_inproc::channel_overhead(seed)],
        },
        other => unreachable!("workload `{other}` passed argument validation"),
    }
}

/// What one run reports: the contract's last line plus everything printed
/// above it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The contract's metrics for this mode, in the contract's order.
    pub metrics: Vec<Value>,
    /// Everything else the run measured.
    pub other: Vec<Value>,
    pub problems: Vec<String>,
    pub input_hash: u64,
}

/// The metrics every workload has, from the real run.
fn common(m: &Measured) -> Vec<Value> {
    let mut values = vec![
        Value::new("setup_s", m.setup_s, "s", m.setups as u64),
        m.ledger.goodput(),
        Value::new("peak_rss_mb", procfs::peak_rss_mb(), "MB", 1),
    ];
    values.extend(m.ledger.cpu_costs(m.cpu));
    values
}

fn untraced(name: &str, w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let m = (w.run)(seed, seconds);
    let mut values = common(&m);
    values.extend(m.own.iter().cloned());
    let mut problems = Vec::new();
    for own in spec::OWN_END_TO_END
        .iter()
        .filter(|own| own.workloads.contains(&name))
    {
        if !values.iter().any(|v| v.name == own.metric.name) {
            // Not a failure: e.g. no miss was answered in this run.
            println!("note   {} has no samples in this run", own.metric.name);
        }
    }
    for v in &values {
        if spec::END_TO_END.iter().any(|e| e.name == v.name) && v.value == 0.0 {
            problems.push(format!("end-to-end metric {} is zero", v.name));
        }
    }
    finish(&m, values, problems, &spec::END_TO_END.map(|e| e.name))
}

fn traced(name: &str, w: &Workload, seed: u64, seconds: f64) -> Outcome {
    // Half the time on the real run (for the server-thread counters and the
    // latency the replay is subtracted from), the rest on two replays.
    let m = (w.run)(seed, seconds / 2.0);
    let with_spans = (w.replay)(seed, true, seconds / 4.0, m.ops_total);
    let spans_s = with_spans.elapsed_s();
    let without = (w.replay)(seed, false, seconds, with_spans.ops_done);
    let plain_s = without.elapsed_s();

    let secs = m.seconds();
    let blocks = m.ledger.blocks_measured().max(1) as f64;
    let mut values = with_spans.metrics();
    values.extend([
        Value::new(
            "server_threads.cpu_us_per_block",
            m.server.run_ns as f64 / 1e3 / blocks,
            "us",
            blocks as u64,
        ),
        Value::new(
            "server_threads.runq_wait_us_per_s",
            m.server.wait_ns as f64 / 1e3 / secs,
            "us/s",
            1,
        ),
        Value::new(
            "server_threads.wakeups_per_s",
            m.server.voluntary_switches as f64 / secs,
            "1/s",
            m.server.voluntary_switches,
        ),
        Value::new(
            "proc.allocs_per_block",
            m.allocs.0 as f64 / blocks,
            "count",
            blocks as u64,
        ),
        Value::new(
            "proc.alloc_bytes_per_block",
            m.allocs.1 as f64 / blocks,
            "bytes",
            blocks as u64,
        ),
        Value::new(
            "trace_overhead_share",
            (spans_s - plain_s) / plain_s,
            "ratio",
            with_spans.spans.len() as u64,
        ),
    ]);
    // Where ops have a first block: its latency on the real run minus the
    // in-process time of the same path in the replay (uplink, then the first
    // block pulled).  What is left is syscalls, polling, pacing and sleeping.
    let first_block_ms = m.ledger.first_block_ms();
    let paths: Vec<f64> = with_spans.path_ns().values().map(|&ns| ns as f64).collect();
    if !first_block_ms.is_empty() && !paths.is_empty() {
        values.push(Value::new(
            "server_loop.residual_us_p50",
            median(&first_block_ms) * 1e3 - median(&paths) / 1e3,
            "us",
            first_block_ms.len().min(paths.len()) as u64,
        ));
    }
    values.extend((w.extra)(seed));
    values.extend(
        common(&m)
            .into_iter()
            .filter(|v| v.name.starts_with("proc.")),
    );
    // Where the real run and the replay measured the same name (the client
    // predictor's poll), the traced run reports the replay's.
    for v in &m.own {
        if !values.iter().any(|have| have.name == v.name) {
            values.push(v.clone());
        }
    }

    let mut problems: Vec<String> = with_spans
        .check_failures
        .iter()
        .chain(&without.check_failures)
        .map(|p| format!("replay: {p}"))
        .collect();
    if !m.block_hashes.is_empty() {
        // Lockstep parity: the same ops must draw the same blocks over the
        // socket and in-process.  The replay may cover a prefix of the
        // socket run's ops, so compare at its length.
        let socket = (with_spans.ops_done as usize)
            .checked_sub(1)
            .and_then(|last| m.block_hashes.get(last))
            .copied();
        if socket != Some(with_spans.block_hash.0) {
            problems.push(format!(
                "block-sequence hash after {} ops differs: socket {socket:x?}, replay {:x}",
                with_spans.ops_done, with_spans.block_hash.0
            ));
        }
    }
    if with_spans.spans.dropped() > 0 {
        eprintln!(
            "# note: span buffer full, {} spans not recorded",
            with_spans.spans.dropped()
        );
    }
    write_trace(name, &with_spans);

    finish(&m, values, problems, &spec::PER_LAYER.map(|p| p.name))
}

/// Writes the spans to `bench/results/<workload>.trace.json`, relative to
/// the working directory (the checkout's root).
fn write_trace(name: &str, replay: &Replay) {
    let dir = std::path::Path::new("bench/results");
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{name}.trace.json")),
            replay.spans.to_json(name, TRACE_FILE_SPANS).compact(),
        )
    });
    if let Err(e) = written {
        eprintln!("# note: trace file not written: {e}");
    }
}

/// Splits what was measured into the contract's metrics (`names`, in the
/// contract's order) and the rest, checks every contract metric is there
/// and finite, and folds the run's own checks in.
fn finish(
    m: &Measured,
    measured: Vec<Value>,
    mut problems: Vec<String>,
    names: &[&'static str],
) -> Outcome {
    let (mut metrics, other): (Vec<Value>, Vec<Value>) = measured
        .into_iter()
        .partition(|v| names.contains(&v.name.as_str()));
    metrics.sort_by_key(|v| names.iter().position(|n| *n == v.name));
    for name in names {
        match metrics.iter().find(|v| v.name == *name) {
            None => problems.push(format!("metric {name} was not measured")),
            Some(v) if !v.value.is_finite() => {
                problems.push(format!("metric {name} has no samples"))
            }
            Some(_) => {}
        }
    }
    for failure in m.ledger.check_messages() {
        problems.push(format!("check: {failure}"));
    }
    let attempted = m.ledger.attempted();
    if attempted == 0 {
        problems.push("no op fell inside the measured interval".into());
    }
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: m.ledger.failed(),
        metrics,
        other,
        problems,
        input_hash: m.input_hash,
    }
}

fn values_json(values: &[Value], with_samples: bool) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|v| {
                let mut fields = vec![("value", Json::Num(v.value)), ("unit", Json::str(v.unit))];
                if with_samples {
                    fields.push(("n", Json::Num(v.samples as f64)));
                }
                (v.name.clone(), Json::obj(fields))
            })
            .collect(),
    )
}

/// Runs `name` once and prints the result; `false` if any check failed.
pub fn one(name: &str, seed: u64, seconds: f64, trace: bool) -> bool {
    if let Err(e) = spec::committed_contract_matches() {
        eprintln!("kbench: {e}");
        return false;
    }
    let w = workload(name);
    println!(
        "# kbench {name} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
    let outcome = if trace {
        traced(name, &w, seed, seconds)
    } else {
        untraced(name, &w, seed, seconds)
    };
    // `metric`: in the contract for this mode; `local`: an end-to-end metric
    // of this workload only; `diag`: everything else.
    let print = |label: &str, v: &Value| {
        println!(
            "{label:<6} {:<36} {:>16.6} {:<9} n={}",
            v.name, v.value, v.unit, v.samples
        );
    };
    for v in &outcome.metrics {
        print("metric", v);
    }
    let is_local = |v: &&Value| spec::OWN_END_TO_END.iter().any(|o| o.metric.name == v.name);
    for v in outcome.other.iter().filter(is_local) {
        print("local", v);
    }
    for v in outcome.other.iter().filter(|v| !is_local(v)) {
        print("diag", v);
    }
    println!("input  hash={:016x}", outcome.input_hash);
    println!(
        "ops    attempted={} succeeded={} failed={}",
        outcome.attempted,
        outcome.attempted.saturating_sub(outcome.failed),
        outcome.failed
    );
    for problem in &outcome.problems {
        println!("FAIL   {problem}");
    }
    // Machine-readable extras for the suite parent, then the contract's
    // last line.
    let mut all = outcome.metrics.clone();
    all.extend(outcome.other.iter().cloned());
    println!("#detail {}", values_json(&all, true).compact());
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(outcome.correct)),
            ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", values_json(&outcome.metrics, false)),
        ])
        .compact()
    );
    outcome.correct
}
