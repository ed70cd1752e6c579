//! The four workloads.  Each module has a `run` (the real thing: sockets or
//! shard threads, measured untraced) and a `replay` (the same generated
//! inputs pushed through each layer's public functions in-process, with
//! spans).

pub mod fleet_inproc;
pub mod reaction_burst;
pub mod trace_replay;
pub mod update_heavy;

use std::time::Instant;

use crate::alloc;
use crate::ledger::{Ledger, Measured, Value};
use crate::procfs::{self, ThreadSample};
use crate::stats::median;
use crate::sut::ServerStats;

/// Seconds run before the measured interval, so caches, the bandwidth
/// estimate and the client cache reach steady state first.
pub const WARMUP_S: f64 = 3.0;

/// Set-ups per run; `setup_s` is their median and the last one is used.
/// (The contract asks for several set-ups a run and their median.)
const SETUPS_PER_RUN: usize = 5;

/// Nanoseconds since the run's origin.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    pub fn at(&self, ns: u64) -> Instant {
        self.0 + std::time::Duration::from_nanos(ns)
    }
}

/// Builds the system [`SETUPS_PER_RUN`] times, dropping all but the last, and
/// returns it with the set-up times in seconds.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS_PER_RUN);
    loop {
        let started = Instant::now();
        let system = build();
        times.push(started.elapsed().as_secs_f64());
        if times.len() == SETUPS_PER_RUN {
            return (system, times);
        }
    }
}

/// CPU and allocation counters sampled at the edges of the measured
/// interval.
pub struct Counters {
    process: ThreadSample,
    server: ThreadSample,
    allocs: (u64, u64),
}

impl Counters {
    pub fn sample() -> Self {
        Counters {
            process: procfs::sample_process(),
            server: procfs::sample_server_threads(),
            allocs: alloc::counts(),
        }
    }
}

/// Tracks the measured interval: call [`tick`](Interval::tick) with the
/// current time from the run loop; it samples the counters once when the
/// warm-up ends and once when the interval does.
pub struct Interval {
    begin: Option<Counters>,
    end: Option<Counters>,
}

impl Interval {
    pub fn new() -> Self {
        Interval {
            begin: None,
            end: None,
        }
    }

    pub fn tick(&mut self, now_ns: u64, ledger: &Ledger) {
        if self.begin.is_none() && now_ns >= ledger.start_ns {
            self.begin = Some(Counters::sample());
        }
        // Sampled while the server threads still exist: a joined thread
        // takes its counters with it.
        if self.end.is_none() && now_ns >= ledger.end_ns {
            self.end = Some(Counters::sample());
        }
    }

    /// Closes the interval and assembles the run's result.
    pub fn finish(
        self,
        ledger: Ledger,
        setups: Vec<f64>,
        own: Vec<Value>,
        block_hashes: Vec<u64>,
        ops_total: u64,
        input_hash: u64,
    ) -> Measured {
        let (begin, end) = match (self.begin, self.end) {
            (Some(begin), Some(end)) => (begin, end),
            _ => panic!("the run loop must tick past both ends of the measured interval"),
        };
        Measured {
            ledger,
            setup_s: median(&setups),
            setups: setups.len(),
            cpu: end.process.since(begin.process),
            server: end.server.since(begin.server),
            allocs: (end.allocs.0 - begin.allocs.0, end.allocs.1 - begin.allocs.1),
            own,
            block_hashes,
            ops_total,
            input_hash,
        }
    }
}

/// The transport server's own counters.
pub fn server_stats(stats: &ServerStats, stats_read_us: f64) -> Vec<Value> {
    vec![
        Value::new("server_loop.stats_read_us", stats_read_us, "us", 50),
        Value::new(
            "server_loop.peak_queue_frames",
            stats.peak_queue_frames as f64,
            "count",
            1,
        ),
        Value::new(
            "server_loop.backpressure_skips",
            stats.backpressure_skips as f64,
            "count",
            1,
        ),
        Value::new(
            "server_loop.frames_out",
            stats.frames_out as f64,
            "count",
            1,
        ),
        Value::new(
            "server_loop.decode_errors",
            stats.decode_errors as f64,
            "count",
            1,
        ),
    ]
}

/// Mean of `f` timed `n` times, in microseconds.
pub fn mean_call_us(n: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..n {
        f();
    }
    started.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Mean of a sample set; NaN when empty so a missing measurement is caught
/// instead of reported as zero.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
