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

use std::sync::Arc;

use khameleon_core::block::ResponseCatalog;
use khameleon_core::delta::DirectUplink;
use khameleon_core::distribution::{HorizonSlice, PredictionSummary, SparseDistribution};
use khameleon_core::scheduler::{GreedyScheduler, GreedySchedulerConfig, Scheduler};
use khameleon_core::types::{Duration, RequestId, Time};
use khameleon_core::utility::{PowerUtility, UtilityModel};

const REQUESTS: usize = 4_000;
const EXPLICIT: usize = 2_000;
const BLOCKS: u32 = 8;
const CHURN: usize = 20;
const FULL_EVERY: u64 = 64;
const OPS: u64 = 640;
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
/// computes, not how fast.
const PINNED_BLOCK_HASH: u64 = 0x8918_3cc3_083d_b552;

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

#[test]
fn update_heavy_block_sequence_is_pinned() {
    let mut scheduler = GreedyScheduler::new(
        GreedySchedulerConfig {
            cache_blocks: 1_024,
            seed: 7,
            slot_duration: Duration::from_millis(1),
            ..Default::default()
        },
        UtilityModel::homogeneous(&PowerUtility::new(0.5), BLOCKS),
        Arc::new(ResponseCatalog::uniform(REQUESTS, BLOCKS, 4_096)),
    );
    let mut uplink = DirectUplink::new();
    let mut input = Input::new(0x5eed);
    let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over one word a block
                                             // Every drawn block goes on the wire: the sender confirms it.
    let draw = |scheduler: &mut GreedyScheduler, hash: &mut u64| {
        let blocks = scheduler.next_batch(BLOCKS_PER_OP);
        assert_eq!(blocks.len(), BLOCKS_PER_OP);
        for b in blocks {
            scheduler.note_sent(b);
            *hash ^= u64::from(b.request.0) << 32 | u64::from(b.index);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    uplink.ship(&mut scheduler, &input.summary());
    draw(&mut scheduler, &mut hash);
    for _ in 0..OPS {
        input.next_op();
        uplink.ship(&mut scheduler, &input.summary());
        draw(&mut scheduler, &mut hash);
    }
    // Every op after the first travelled as a delta, and all but the
    // occasional refused one were diffed.
    assert_eq!(scheduler.prediction_updates(), OPS + 1);
    assert!(
        scheduler.diff_applied_updates() >= OPS * 9 / 10,
        "only {} of {OPS} updates were diffed",
        scheduler.diff_applied_updates()
    );
    assert_eq!(
        hash, PINNED_BLOCK_HASH,
        "block sequence moved: {hash:#018x}"
    );
}
