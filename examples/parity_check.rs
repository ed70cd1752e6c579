//! Exhaustive randomized parity check, `Scan` (oracle) vs `Lazy`, meta on
//! and off (dev tool).
//!
//! This is a standalone, higher-volume (400k cases) companion to the
//! in-tree `sampler_variants_emit_identical_schedules` proptest in
//! `crates/core/src/scheduler/greedy.rs` — the op grammar (`drive`) and
//! generators (`het`, `sparse_pred`) mirror that test's `drive_variant` /
//! `heterogeneous_utility` and the two must be extended together.
use std::sync::Arc;

use khameleon_core::block::ResponseCatalog;
use khameleon_core::delta::DirectUplink;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::scheduler::{GreedyScheduler, GreedySchedulerConfig, SamplerVariant};
use khameleon_core::types::{BlockRef, Duration, RequestId, Time};
use khameleon_core::utility::{GainTable, LinearUtility, PowerUtility, UtilityModel};

fn het(n: usize, blocks: u32) -> UtilityModel {
    let concave = PowerUtility::new(0.5);
    let steep = PowerUtility::new(0.25);
    let tables: Vec<GainTable> = (0..n)
        .map(|i| match i % 3 {
            0 => GainTable::new(&LinearUtility, blocks),
            1 => GainTable::new(&concave, blocks),
            _ => GainTable::new(&steep, blocks),
        })
        .collect();
    UtilityModel::per_request(tables)
}

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

#[allow(clippy::too_many_arguments)]
fn drive(
    variant: SamplerVariant,
    n: usize,
    blocks: u32,
    cache: usize,
    seed: u64,
    meta: bool,
    utility: &UtilityModel,
    ops: &[(u8, usize, usize)],
) -> (Vec<BlockRef>, Vec<BlockRef>) {
    let catalog = Arc::new(ResponseCatalog::uniform(n, blocks, 100));
    let mut s = GreedyScheduler::new(
        GreedySchedulerConfig {
            cache_blocks: cache,
            seed,
            sampler: variant,
            use_meta_request: meta,
            ..Default::default()
        },
        utility.clone(),
        catalog,
    );
    let mut emitted = Vec::new();
    // Every prediction travels as it does on the wire (whole, or as a delta
    // through the scheduler's diff path), as in the in-tree proptest.
    let mut uplink = DirectUplink::new();
    // Drifting prediction state for the overlapping-update ops (kinds 6–7).
    let mut evolving: Vec<(usize, f64)> = vec![(0, 0.3), (1 % n, 0.2)];
    let drifting = |evolving: &[(usize, f64)]| {
        let entries: Vec<(RequestId, f64)> = evolving
            .iter()
            .map(|&(r, p)| (RequestId::from(r), p))
            .collect();
        let mass: f64 = evolving.iter().map(|e| e.1).sum();
        sparse_pred(n, entries, (1.0 - mass).max(0.1))
    };
    for &(kind, a, b) in ops {
        match kind {
            0..=2 => emitted.extend(s.next_batch(a % (2 * cache) + 1)),
            3 => {
                let p1 = (a % 9 + 1) as f64 / 20.0;
                let p2 = (b % 7 + 1) as f64 / 30.0;
                let pred = sparse_pred(
                    n,
                    vec![(RequestId::from(a % n), p1), (RequestId::from(b % n), p2)],
                    1.0 - p1 - p2,
                );
                let pos = b % (s.position() + 1);
                uplink.ship(&mut s, &pred, pos);
            }
            4 => {
                let slices = vec![
                    HorizonSlice {
                        delta: Duration::from_millis(10),
                        dist: SparseDistribution::from_entries(
                            n,
                            vec![(RequestId::from(a % n), 0.8)],
                            0.2,
                        ),
                    },
                    HorizonSlice {
                        delta: Duration::from_millis(400),
                        dist: SparseDistribution::from_entries(
                            n,
                            vec![(RequestId::from(b % n), 0.7)],
                            0.3,
                        ),
                    },
                ];
                let pred = PredictionSummary::new(n, slices, Time::ZERO);
                let pos = a % (s.position() + 1);
                uplink.ship(&mut s, &pred, pos);
            }
            5 => {
                let pos = (s.position() + b % 3).min(cache);
                let pred = PredictionSummary::uniform(n, Time::ZERO);
                uplink.ship(&mut s, &pred, pos);
            }
            6 => {
                // Overlapping re-prediction: mutate one entry of the
                // drifting prediction (add / remove / reweight) — the diff
                // path's point-update grammar.
                match a % 3 {
                    0 => {
                        let r = b % n;
                        let p = (b % 9 + 1) as f64 / 30.0;
                        match evolving.iter_mut().find(|e| e.0 == r) {
                            Some(e) => e.1 = p,
                            None => evolving.push((r, p)),
                        }
                    }
                    1 if evolving.len() > 1 => {
                        evolving.remove(b % evolving.len());
                    }
                    _ => {
                        let i = b % evolving.len();
                        evolving[i].1 *= (a % 5 + 1) as f64 / 3.0;
                    }
                }
                let pos = a % (s.position() + 1);
                uplink.ship(&mut s, &drifting(&evolving), pos);
            }
            _ => {
                // Overlapping shape-changing re-prediction over the default
                // slice offsets: moves requests between shape buckets —
                // through the diff path when the shadow certifies the delta.
                let early =
                    SparseDistribution::from_entries(n, vec![(RequestId::from(a % n), 0.6)], 0.4);
                let entries: Vec<(RequestId, f64)> = evolving
                    .iter()
                    .map(|&(r, p)| (RequestId::from(r), p))
                    .collect();
                let mass: f64 = evolving.iter().map(|e| e.1).sum();
                let late = SparseDistribution::from_entries(n, entries, (1.0 - mass).max(0.1));
                let slices = PredictionSummary::default_deltas()
                    .into_iter()
                    .enumerate()
                    .map(|(i, delta)| HorizonSlice {
                        delta,
                        dist: if i < 2 { early.clone() } else { late.clone() },
                    })
                    .collect();
                let pred = PredictionSummary::new(n, slices, Time::ZERO);
                let pos = b % (s.position() + 1);
                uplink.ship(&mut s, &pred, pos);
            }
        }
    }
    // Every case ends on the delta path: the drifting summary, then one
    // reweighted entry of it under a rollback, then a batch drawn from the
    // diffed sampler.
    let pos = s.position();
    uplink.ship(&mut s, &drifting(&evolving), pos);
    emitted.extend(s.next_batch(cache));
    evolving[0].1 *= 0.5;
    let (diffed, pos) = (s.diff_applied_updates(), s.position() / 2);
    uplink.ship(&mut s, &drifting(&evolving), pos);
    assert!(s.diff_applied_updates() > diffed, "delta not diffed");
    emitted.extend(s.next_batch(cache));
    assert!(
        s.debug_weight_divergence().is_empty(),
        "sampler diverged from model: {:?}",
        s.debug_weight_divergence()
    );
    (emitted, s.simulated_ring())
}

struct Lcg(u64);
impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn main() {
    let mut found = 0u32;
    let mut lcg = Lcg(98765);
    for case in 0..400_000u64 {
        let n = (lcg.next() as usize % 12) + 2;
        let blocks = (lcg.next() as u32 % 5) + 1;
        let cache = (lcg.next() as usize % 18) + 2;
        let seed = lcg.next() % 10_000;
        let meta = lcg.next().is_multiple_of(2);
        let len = (lcg.next() as usize % 13) + 1;
        let ops: Vec<(u8, usize, usize)> = (0..len)
            .map(|_| {
                (
                    (lcg.next() % 8) as u8,
                    lcg.next() as usize % 64,
                    lcg.next() as usize % 64,
                )
            })
            .collect();
        let u = het(n, blocks);
        let scan = drive(SamplerVariant::Scan, n, blocks, cache, seed, meta, &u, &ops);
        let lazy = drive(SamplerVariant::Lazy, n, blocks, cache, seed, meta, &u, &ops);
        if lazy != scan {
            println!("MISMATCH case={case} n={n} blocks={blocks} cache={cache} seed={seed} meta={meta} ops={ops:?}");
            found += 1;
        }
        if found > 2 {
            std::process::exit(1);
        }
    }
    if found == 0 {
        println!("parity ok over 400k randomized cases");
    } else {
        std::process::exit(1);
    }
}
