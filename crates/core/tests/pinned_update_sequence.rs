//! The block sequence of an `update_heavy`-shaped run, pinned by hash.
//!
//! A 2 000-entry prediction over 4 slices churns ~1 % an op (70 % rescale,
//! 30 % structural, every 64th op moves every entry) and reaches a
//! [`GreedyScheduler`] the way the wire delivers it: [`DirectUplink`] =
//! `DeltaTracker` → `ShadowSummary` → `update_prediction[_sparse]`.  Each op
//! draws 4 blocks.  The delta path is an optimisation of *how* the mirrors
//! and the model are maintained, never of *what* they hold, so the hash of
//! the blocks drawn is a constant: it was recorded before the in-place patch
//! landed and must hold unedited after any change to `delta.rs`,
//! `SparseDistribution`'s patch or `HorizonModel::apply_update_sparse`.
//! (`kbench update_heavy --trace 1` compares a socket run with a replay
//! inside one build, so it cannot see both sides drifting together.)
//!
//! The same stream, shortened, pins both sampler variants with the
//! meta-request optimisation on and off: the variant parity harnesses
//! compare `Scan` with `Lazy`, so only a constant sees both move.

use std::sync::Arc;

use khameleon_core::block::ResponseCatalog;
use khameleon_core::delta::DirectUplink;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::sampling::SamplerVariant;
use khameleon_core::scheduler::{GreedyScheduler, GreedySchedulerConfig, Scheduler};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::{PowerUtility, UtilityModel};

const REQUESTS: usize = 4_000;
const EXPLICIT: usize = 2_000;
const BLOCKS: u32 = 8;
const CHURN: usize = 20;
const FULL_EVERY: u64 = 64;
const OPS: u64 = 640;
/// The op count of the shorter runs: the Scan variant and meta-requests off
/// draw over every request, and a debug build pays for it.
const SHORT_OPS: u64 = 96;
const BLOCKS_PER_OP: usize = 4;
const SLICES_MS: [u64; 4] = [50, 150, 250, 500];

/// Per-slice shapes an entry's probability can follow; entries of one shape
/// share a scheduler bucket, and changing shape is a structural change.
const SHAPES: [[f64; 4]; 4] = [
    [1.0, 1.0, 1.0, 1.0],
    [1.0, 0.9, 0.8, 0.7],
    [0.7, 0.8, 0.9, 1.0],
    [1.0, 1.1, 1.0, 0.9],
];

/// The recorded hash.  A change that moves it changed what the delta path
/// computes, not how fast.  Re-recorded when the scheduler began reading its
/// model from the last prediction instead of from the schedule's start,
/// again when the schedule reset went (the draw layout moved), and again
/// when the draw's randomness became a function of (seed, update, slot).
const PINNED_BLOCK_HASH: u64 = 0xa50d_6bf9_9be5_5b87;

/// The recorded hashes of the first `SHORT_OPS` ops with the meta-request
/// optimisation on and off.  Both sampler variants must draw them: the
/// parity harnesses compare the variants with each other, so only a
/// constant sees both drift together.  Re-recorded when the draw's
/// randomness became a function of (seed, update, slot).
const PINNED_META_ON: u64 = 0x6f40_9466_5e6b_746f;
const PINNED_META_OFF: u64 = 0x8341_9143_0031_b4f0;

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The mutable prediction the test's client owns.
struct Input {
    rng: SplitMix,
    ops: u64,
    base: Vec<f64>,
    raised: Vec<bool>,
    shape: Vec<u8>,
    is_explicit: Vec<bool>,
    explicit_ids: Vec<u32>,
    free_ids: Vec<u32>,
}

impl Input {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix(seed);
        let mut ids: Vec<u32> = (0..REQUESTS as u32).collect();
        for i in (1..REQUESTS).rev() {
            ids.swap(i, rng.below(i + 1));
        }
        let free_ids = ids.split_off(EXPLICIT);
        let mut is_explicit = vec![false; REQUESTS];
        for &r in &ids {
            is_explicit[r as usize] = true;
        }
        Input {
            base: (0..REQUESTS).map(|r| Self::base_of(r, 0)).collect(),
            raised: vec![false; REQUESTS],
            shape: (0..REQUESTS)
                .map(|_| rng.below(SHAPES.len()) as u8)
                .collect(),
            is_explicit,
            explicit_ids: ids,
            free_ids,
            rng,
            ops: 0,
        }
    }

    fn base_of(r: usize, refresh: usize) -> f64 {
        let drift = if refresh == 0 {
            1.0
        } else {
            1.0 + ((r + refresh) % 5) as f64 * 0.01
        };
        0.5 / EXPLICIT as f64 * (1.0 + (r % 7) as f64 * 0.05) * drift
    }

    fn pick_explicit(&mut self) -> usize {
        self.explicit_ids[self.rng.below(self.explicit_ids.len())] as usize
    }

    fn next_op(&mut self) {
        self.ops += 1;
        if self.ops.is_multiple_of(FULL_EVERY) {
            let refresh = (self.ops / FULL_EVERY) as usize;
            for (r, base) in self.base.iter_mut().enumerate() {
                *base = Self::base_of(r, refresh);
            }
        } else if self.rng.below(10) < 7 {
            for _ in 0..CHURN {
                let r = self.pick_explicit();
                self.raised[r] = !self.raised[r];
            }
        } else {
            for _ in 0..CHURN / 2 {
                // One entry leaves, one joins: the explicit count holds.
                let leave_at = self.rng.below(self.explicit_ids.len());
                let join_at = self.rng.below(self.free_ids.len());
                let (leaver, joiner) = (self.explicit_ids[leave_at], self.free_ids[join_at]);
                self.explicit_ids[leave_at] = joiner;
                self.free_ids[join_at] = leaver;
                self.is_explicit[joiner as usize] = true;
                self.is_explicit[leaver as usize] = false;
                self.shape[joiner as usize] = self.rng.below(SHAPES.len()) as u8;
            }
            for _ in 0..CHURN / 4 {
                let r = self.pick_explicit();
                let step = 1 + self.rng.below(SHAPES.len() - 1) as u8;
                self.shape[r] = (self.shape[r] + step) % SHAPES.len() as u8;
            }
        }
    }

    fn summary(&self) -> PredictionSummary {
        let slices = (SLICES_MS.iter().enumerate())
            .map(|(s, &ms)| {
                let mut mass = 0.0;
                let mut entries = Vec::with_capacity(EXPLICIT);
                for r in (0..REQUESTS).filter(|&r| self.is_explicit[r]) {
                    let lift = if self.raised[r] { 1.25 } else { 1.0 };
                    let p = self.base[r] * lift * SHAPES[self.shape[r] as usize][s];
                    mass += p;
                    entries.push((RequestId(r as u32), p));
                }
                HorizonSlice {
                    delta: Duration::from_millis(ms),
                    dist: SparseDistribution::from_normalized(REQUESTS, entries, 1.0 - mass),
                }
            })
            .collect();
        PredictionSummary::new(REQUESTS, slices, Time::ZERO)
    }
}

/// What a run of `ops` ops leaves: the hash of the blocks drawn after each
/// op (the first entry is the draw on the opening install), and the
/// scheduler's update and diff counts.
struct Run {
    hashes: Vec<u64>,
    updates: u64,
    diffed: u64,
}

/// Runs `ops` ops through a scheduler with the sampler `variant` and the
/// meta-request optimisation on or off.
fn run(variant: SamplerVariant, use_meta_request: bool, ops: u64) -> Run {
    let mut scheduler = GreedyScheduler::new(
        GreedySchedulerConfig {
            cache_blocks: 1_024,
            seed: 7,
            slot_duration: Duration::from_millis(1),
            use_meta_request,
            sampler: variant,
            ..Default::default()
        },
        UtilityModel::homogeneous(&PowerUtility::new(0.5), BLOCKS),
        Arc::new(ResponseCatalog::uniform(REQUESTS, BLOCKS, 4_096)),
    );
    let mut uplink = DirectUplink::new();
    let mut input = Input::new(0x5eed);
    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over one word a block
    let mut hashes = Vec::with_capacity(ops as usize + 1);
    // Every drawn block goes on the wire: the sender confirms it.
    let mut draw = |scheduler: &mut GreedyScheduler| {
        let blocks = scheduler.next_batch(BLOCKS_PER_OP);
        assert_eq!(blocks.len(), BLOCKS_PER_OP);
        for b in blocks {
            scheduler.note_sent(b);
            hash ^= u64::from(b.request.0) << 32 | u64::from(b.index);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hashes.push(hash);
    };
    uplink.ship(&mut scheduler, &input.summary());
    draw(&mut scheduler);
    for _ in 0..ops {
        input.next_op();
        uplink.ship(&mut scheduler, &input.summary());
        draw(&mut scheduler);
    }
    Run {
        hashes,
        updates: scheduler.prediction_updates(),
        diffed: scheduler.diff_applied_updates(),
    }
}

#[test]
fn update_heavy_block_sequence_is_pinned() {
    let run = run(SamplerVariant::Lazy, true, OPS);
    // Every op after the first travelled as a delta, and all but the
    // occasional refused one were diffed.
    assert_eq!(run.updates, OPS + 1);
    assert!(
        run.diffed >= OPS * 9 / 10,
        "only {} of {OPS} updates were diffed",
        run.diffed
    );
    let short = run.hashes[SHORT_OPS as usize];
    assert_eq!(
        short, PINNED_META_ON,
        "block sequence moved within {SHORT_OPS} ops: {short:#018x}"
    );
    let hash = run.hashes[OPS as usize];
    assert_eq!(
        hash, PINNED_BLOCK_HASH,
        "block sequence moved: {hash:#018x}"
    );
}

#[test]
fn scan_draws_the_pinned_sequence() {
    let hash = run(SamplerVariant::Scan, true, SHORT_OPS).hashes[SHORT_OPS as usize];
    assert_eq!(hash, PINNED_META_ON, "Scan's sequence moved: {hash:#018x}");
}

#[test]
fn meta_off_block_sequence_is_pinned() {
    for variant in [SamplerVariant::Lazy, SamplerVariant::Scan] {
        let run = run(variant, false, SHORT_OPS);
        assert_eq!(run.updates, SHORT_OPS + 1);
        let hash = run.hashes[SHORT_OPS as usize];
        assert_eq!(
            hash, PINNED_META_OFF,
            "{variant:?}'s sequence with meta-requests off moved: {hash:#018x}"
        );
    }
}
