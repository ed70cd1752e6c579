//! `kbench`: the repo's benchmark.
//!
//! Drives the real stack — client → loopback TCP → transport server →
//! session manager → greedy scheduler → back into a client cache — over
//! four named workloads, prints every metric by name and unit, and checks
//! outputs.  End-to-end numbers come from an untraced run; a traced run adds
//! an in-process replay of the same generated inputs with a span around
//! every call into a layer.  See `bench/README.md`.
//!
//! ```text
//! kbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, in this process
//! kbench --suite [--workload <name>] [--seed <n>] [--seconds <s>]
//!        [--trace <0|1>] [--repeat <n>] [--out <file>]              one child process per run
//! kbench --diff <a.json> <b.json>                                   compare two result files
//! ```

mod alloc;
mod gen;
mod json;
mod ledger;
mod procfs;
mod rawclient;
mod replay;
mod report;
mod run;
mod spans;
mod spec;
mod stats;
mod sut;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[derive(Default)]
pub struct Args {
    /// One run needs it; the suite runs all four without it.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    /// One run: untraced or traced.  Suite: also make the traced runs.
    pub trace: bool,
    pub suite: bool,
    /// Passes over the suite; pass *i* uses seed `seed + i`.
    pub repeat: usize,
    pub out: Option<String>,
    pub diff: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        repeat: 1,
        ..Default::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--suite" => args.suite = true,
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => args.out = Some(value("--out")?),
            "--diff" => args.diff = Some((value("--diff")?, value("--diff")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if let Some(name) = &args.workload {
        if !spec::WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload `{name}`"));
        }
    }
    if args.diff.is_none() && !args.suite && args.workload.is_none() {
        return Err("name a --workload for one run, or pass --suite or --diff".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.diff, args.suite, &args.workload) {
        (Some((a, b)), _, _) => report::diff(a, b),
        (None, true, _) => report::suite(&args),
        (None, false, Some(workload)) => run::one(workload, args.seed, args.seconds, args.trace),
        (None, false, None) => unreachable!("parse_args asks for a mode"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
