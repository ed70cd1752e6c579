//! The suite: every workload in its own child process (so peak RSS and CPU
//! counters are per workload), one result file, `--repeat` statistics over
//! consecutive seeds and `--diff` between two result files.

use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::procfs;
use crate::spec;
use crate::stats::{median, quartiles, rel_spread};
use crate::Args;

const SCHEMA: &str = "kbench-result-v1";

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one workload in a child process and parses what it printed.
/// Returns the run's JSON (`correct`, `attempted`, `failed`, `metrics`,
/// `detail`, `wall_s`, `exit_ok`).  A child that broke the output protocol
/// (it panicked, say) still gets an entry, marked incorrect, so the result
/// file and `--diff` see that the run happened and failed.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Json {
    let started = Instant::now();
    let output = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let (stdout, exit_ok) = match &output {
        Ok(out) => (String::from_utf8_lossy(&out.stdout), out.status.success()),
        Err(e) => {
            eprintln!("kbench: cannot start the child: {e}");
            ("".into(), false)
        }
    };
    for line in stdout.lines().filter(|l| !l.starts_with(['{', '#'])) {
        println!("  {line}");
    }
    let mut fields = match stdout.lines().last().map(Json::parse) {
        Some(Ok(Json::Obj(fields))) => fields,
        _ => {
            println!("FAIL   {workload} printed no result");
            vec![("correct".to_string(), Json::Bool(false))]
        }
    };
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#detail "))
        .and_then(|d| Json::parse(d).ok())
        .unwrap_or(Json::Null);
    fields.push(("detail".into(), detail));
    fields.push(("wall_s".into(), Json::Num(wall_s)));
    fields.push(("exit_ok".into(), Json::Bool(exit_ok)));
    Json::Obj(fields)
}

fn mode_key(trace: bool) -> &'static str {
    if trace {
        "traced"
    } else {
        "untraced"
    }
}

/// One pass over the selected workloads: the untraced run of each and, with
/// `--trace 1`, its traced run.
fn one_pass(args: &Args, seed: u64) -> (Json, bool) {
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in spec::WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == w.name))
    {
        let mut modes = Vec::new();
        for trace in [false, true].into_iter().filter(|t| !*t || args.trace) {
            println!("== {} ({}) seed={seed}", w.name, mode_key(trace));
            let run = child(w.name, seed, args.seconds, trace);
            ok &= run.get("correct").and_then(Json::as_bool) == Some(true)
                && run.get("exit_ok").and_then(Json::as_bool) == Some(true);
            modes.push((mode_key(trace).to_string(), run));
        }
        workloads.push((w.name.to_string(), Json::Obj(modes)));
    }
    (Json::Obj(workloads), ok)
}

fn header(args: &Args) -> Vec<(&'static str, Json)> {
    let host = procfs::host();
    vec![
        ("schema", Json::str(SCHEMA)),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("kernel", Json::str(host.kernel)),
        ("cpu_model", Json::str(host.cpu_model)),
        ("nproc", Json::Num(host.nproc as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
    ]
}

/// `(workload, mode, metric) -> value` of every metric in a result's
/// `workloads` object, contract metrics and diagnostics alike.
fn flatten(workloads: &Json) -> Vec<((String, String, String), f64)> {
    let mut out = Vec::new();
    for (workload, modes) in workloads.as_obj().unwrap_or_default() {
        for (mode, run) in modes.as_obj().unwrap_or_default() {
            let detail = run.get("detail").and_then(Json::as_obj);
            let metrics = run.get("metrics").and_then(Json::as_obj);
            for (name, v) in detail.or(metrics).unwrap_or_default() {
                if let Some(value) = v.get("value").and_then(Json::as_f64) {
                    out.push(((workload.clone(), mode.clone(), name.clone()), value));
                }
            }
        }
    }
    out
}

/// Prints, per metric, median, quartiles and relative spread over the
/// passes, flagging end-to-end metrics whose spread exceeds their bound or a
/// third of it (`setup_s` is exempt: the contract judges it by its median
/// only).
fn repeat_summary(passes: &[Json]) -> Json {
    let mut series: Vec<((String, String, String), Vec<f64>)> = Vec::new();
    for pass in passes {
        for (key, value) in flatten(pass) {
            match series.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => series.push((key, vec![value])),
            }
        }
    }
    println!(
        "\n{:<15} {:<8} {:<34} {:>14} {:>14} {:>14} {:>8}  bound",
        "workload", "mode", "metric", "median", "q1", "q3", "spread"
    );
    let mut rows = Vec::new();
    for ((workload, mode, metric), values) in &series {
        let med = median(values);
        let (q1, q3) = quartiles(values).unwrap_or((med, med));
        let spread = rel_spread(values).unwrap_or(0.0);
        let bound = spec::bound_of(metric).filter(|_| mode == "untraced");
        let flag = match bound {
            Some(b) if metric != "setup_s" && spread > b => "  EXCEEDS",
            Some(b) if metric != "setup_s" && spread > b / 3.0 => "  above a third",
            _ => "",
        };
        println!(
            "{workload:<15} {mode:<8} {metric:<34} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}%  {}{flag}",
            spread * 100.0,
            bound.map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
        );
        rows.push(Json::obj(vec![
            ("workload", Json::str(workload.as_str())),
            ("mode", Json::str(mode.as_str())),
            ("metric", Json::str(metric.as_str())),
            ("median", Json::Num(med)),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("spread", Json::Num(spread)),
            (
                "values",
                Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
            ),
        ]));
    }
    Json::Arr(rows)
}

/// Runs the suite `--repeat` times; `false` if any run failed a check.
pub fn suite(args: &Args) -> bool {
    let started = Instant::now();
    let mut ok = true;
    let mut passes = Vec::new();
    for i in 0..args.repeat.max(1) {
        let (workloads, pass_ok) = one_pass(args, args.seed + i as u64);
        ok &= pass_ok;
        passes.push(workloads);
    }
    let mut fields = header(args);
    fields.push(("wall_s", Json::Num(started.elapsed().as_secs_f64())));
    if passes.len() > 1 {
        fields.push(("repeat", repeat_summary(&passes)));
    }
    fields.push(("workloads", passes.pop().expect("at least one pass")));
    if let Some(path) = &args.out {
        match std::fs::write(path, Json::obj(fields).pretty()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("kbench: cannot write {path}: {e}");
                ok = false;
            }
        }
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    ok
}

/// Per-workload, per-metric deltas between two result files, the bound
/// beside each end-to-end metric.  Timing differences never fail the diff;
/// failed-op or output-check differences do.
pub fn diff(a_path: &str, b_path: &str) -> bool {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| eprintln!("kbench: {path}: {e}"))
            .ok()
    };
    let (Some(a), Some(b)) = (load(a_path), load(b_path)) else {
        return false;
    };
    for key in [
        "commit",
        "rustc",
        "kernel",
        "cpu_model",
        "nproc",
        "seed",
        "seconds",
    ] {
        let show = |j: &Json| j.get(key).map_or("?".into(), Json::compact);
        let (va, vb) = (show(&a), show(&b));
        let mark = if va == vb { "" } else { "   <- differs" };
        println!("{key:<10} {va}  |  {vb}{mark}");
    }
    let (Some(wa), Some(wb)) = (a.get("workloads"), b.get("workloads")) else {
        eprintln!("kbench: not a result file (no `workloads`)");
        return false;
    };
    let before = flatten(wa);
    println!(
        "\n{:<15} {:<8} {:<34} {:>14} {:>14} {:>9}  bound",
        "workload", "mode", "metric", "a", "b", "delta"
    );
    for (key, vb) in flatten(wb) {
        let Some((_, va)) = before.iter().find(|(k, _)| *k == key) else {
            continue;
        };
        let delta = if *va != 0.0 {
            (vb - va) / va.abs()
        } else {
            0.0
        };
        let bound = spec::bound_of(&key.2).filter(|_| key.1 == "untraced");
        println!(
            "{:<15} {:<8} {:<34} {va:>14.4} {vb:>14.4} {:>+8.2}%  {}",
            key.0,
            key.1,
            key.2,
            delta * 100.0,
            bound.map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    let differences = check_differences(wa, wb);
    for line in &differences {
        println!("DIFFERS {line}");
    }
    differences.is_empty()
}

/// The only differences that fail a diff: `correct` and `failed`, over every
/// run either file has.  A run one file lacks, or one that left no count of
/// failed ops (it broke off), is a difference.
fn check_differences(wa: &Json, wb: &Json) -> Vec<String> {
    let runs = |w: &Json| -> Vec<(String, String)> {
        let mut keys = Vec::new();
        for (workload, modes) in w.as_obj().unwrap_or_default() {
            for (mode, _) in modes.as_obj().unwrap_or_default() {
                keys.push((workload.clone(), mode.clone()));
            }
        }
        keys
    };
    let mut keys = runs(wa);
    for key in runs(wb) {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    let mut out = Vec::new();
    for (workload, mode) in keys {
        for key in ["correct", "failed"] {
            let field = |w: &Json| w.get(&workload)?.get(&mode)?.get(key).cloned();
            let (va, vb) = (field(wa), field(wb));
            if va != vb || va.is_none() {
                let show = |v: Option<Json>| v.map_or("missing".into(), |v| v.compact());
                out.push(format!(
                    "{workload} {mode} {key}: {} -> {}",
                    show(va),
                    show(vb)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(runs: &[(&str, &str, &str)]) -> Json {
        let mut workloads: Vec<(String, Json)> = Vec::new();
        for (workload, mode, run) in runs {
            let run = Json::parse(run).expect("fixture");
            match workloads.iter_mut().find(|(w, _)| w == workload) {
                Some((_, Json::Obj(modes))) => modes.push((mode.to_string(), run)),
                _ => workloads.push((
                    workload.to_string(),
                    Json::Obj(vec![(mode.to_string(), run)]),
                )),
            }
        }
        Json::Obj(workloads)
    }

    #[test]
    fn diff_fails_on_checks_failed_ops_and_missing_runs_only() {
        const OK: &str = r#"{"correct":true,"failed":0,"metrics":{"x":{"value":1}}}"#;
        const SLOWER: &str = r#"{"correct":true,"failed":0,"metrics":{"x":{"value":9}}}"#;
        const FAILED_OPS: &str = r#"{"correct":true,"failed":3}"#;
        const CRASHED: &str = r#"{"correct":false}"#;
        let a = result(&[("w1", "untraced", OK), ("w2", "untraced", OK)]);
        assert!(check_differences(&a, &a).is_empty());
        let slower = result(&[("w1", "untraced", SLOWER), ("w2", "untraced", OK)]);
        assert!(check_differences(&a, &slower).is_empty(), "timing only");
        let failed = result(&[("w1", "untraced", FAILED_OPS), ("w2", "untraced", OK)]);
        assert_eq!(check_differences(&a, &failed).len(), 1);
        // A run that crashed in B, one that B lacks, one that only B has.
        let crashed = result(&[("w1", "untraced", CRASHED), ("w2", "untraced", OK)]);
        assert_eq!(check_differences(&a, &crashed).len(), 2);
        let lacking = result(&[("w1", "untraced", OK)]);
        assert_eq!(check_differences(&a, &lacking).len(), 2);
        assert_eq!(check_differences(&lacking, &a).len(), 2);
        // Crashed on both sides is still reported.
        assert!(!check_differences(&crashed, &crashed).is_empty());
    }
}
