//! Seeded input generation.  The system only ever sees what these
//! generators produce; the same seed gives the same inputs, which the
//! op-list hashes (and their unit tests) pin down.

use crate::sut::{
    generate_image_trace, Duration, HorizonSlice, ImageExplorationApp, ImageTraceConfig,
    InteractionTrace, PredictionSummary, PredictorState, RequestId, RequestLayout,
    SparseDistribution, Time,
};

/// SplitMix64: the benchmark's own generator, so its inputs do not move when
/// the repo's vendored `rand` stand-in does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over 64-bit words: the op-list and block-sequence hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn flat_summary(
    n: usize,
    slice_ms: &[u64],
    mut at: impl FnMut(usize) -> SparseDistribution,
) -> PredictionSummary {
    let slices = slice_ms
        .iter()
        .enumerate()
        .map(|(s, &ms)| HorizonSlice {
            delta: Duration::from_millis(ms),
            dist: at(s),
        })
        .collect();
    PredictionSummary::new(n, slices, Time::ZERO)
}

// --- trace_replay ----------------------------------------------------------

/// Grid side of the image application (100 × 100 = 10 k requests).
pub const TRACE_GRID_SIDE: usize = 100;

/// The seeded image-exploration trace covering `seconds` of interaction.
pub fn image_trace(app: &ImageExplorationApp, seed: u64, seconds: u64) -> InteractionTrace {
    generate_image_trace(
        &app.layout(),
        &ImageTraceConfig {
            duration: Duration::from_millis(seconds * 1_000),
            seed,
            ..Default::default()
        },
    )
}

/// When the cursor actually entered each interaction's thumbnail, in µs.
///
/// The generator stamps an interaction with the 20 ms mouse sample that
/// first sees the cursor inside the new thumbnail; the crossing itself
/// happened somewhere since the previous sample.  Interpolating it along
/// the cursor's straight path gives the instant the user started looking at
/// the thumbnail — the due time latencies are counted from — and keeps them
/// from collapsing onto multiples of the sample period.
pub fn crossing_times_us(app: &ImageExplorationApp, trace: &InteractionTrace) -> Vec<u64> {
    let layout = app.layout();
    let mut sample = 0usize;
    trace
        .requests
        .iter()
        .map(|&(at, request)| {
            while trace.samples[sample].at < at {
                sample += 1;
            }
            let (now, before) = match sample.checked_sub(1) {
                Some(prev) => (trace.samples[sample], trace.samples[prev]),
                None => return at.as_micros(),
            };
            let (x_lo, y_lo, x_hi, y_hi) = layout.bounds(request);
            // Where along before → now the path enters the cell, per axis.
            let entry = |from: f64, to: f64, lo: f64, hi: f64| {
                if from < lo {
                    (lo - from) / (to - from)
                } else if from >= hi {
                    (hi - from) / (to - from)
                } else {
                    0.0
                }
            };
            let share = entry(before.x, now.x, x_lo, x_hi)
                .max(entry(before.y, now.y, y_lo, y_hi))
                .clamp(0.0, 1.0);
            let span = (now.at.as_micros() - before.at.as_micros()) as f64;
            before.at.as_micros() + (share * span) as u64
        })
        .collect()
}

pub fn trace_hash(trace: &InteractionTrace) -> u64 {
    let mut h = Fnv::new();
    h.word(trace.samples.len() as u64);
    for s in &trace.samples {
        h.word(s.x.to_bits());
        h.word(s.y.to_bits());
    }
    for &(at, r) in &trace.requests {
        h.word(at.as_micros());
        h.word(u64::from(r.0));
    }
    h.0
}

// --- reaction_burst --------------------------------------------------------

pub const BURST_REQUESTS: usize = 4_096;
pub const BURST_BLOCKS: u32 = 8;
pub const BURST_BLOCK_BYTES: u64 = 4_096;
/// Mean probe spacing and the half-width of its seeded jitter.
pub const BURST_PERIOD_US: u64 = 40_000;
pub const BURST_JITTER_US: u64 = 4_000;

/// One re-prediction of the active connection: at `due_us` the user turns
/// to `target`, and the predictor also gives `second` some mass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    pub due_us: u64,
    pub target: u32,
    pub second: u32,
}

/// `count` probes.  Targets walk a seeded permutation of the lower half of
/// the request space, so every probe turns to a fresh request (a target
/// recurs after 2 048 probes, far longer than the client cache remembers);
/// the secondary entry is a seeded decoy from the upper half, which is never
/// targeted.
pub fn burst_probes(seed: u64, count: usize) -> Vec<Probe> {
    let half = BURST_REQUESTS / 2;
    let mut rng = Rng::new(seed, 2);
    let mut order: Vec<u32> = (0..half as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    (0..count)
        .map(|i| {
            let jitter = rng.below(2 * BURST_JITTER_US as usize + 1) as u64;
            Probe {
                due_us: (i as u64 + 1) * BURST_PERIOD_US + jitter - BURST_JITTER_US,
                target: order[i % half],
                second: (half + rng.below(half)) as u32,
            }
        })
        .collect()
}

/// The probe's prediction: `p = 0.7 / 0.2`, residual 0.05, four slices.
pub fn burst_summary(probe: &Probe) -> PredictionSummary {
    let mut entries = vec![
        (RequestId(probe.target), 0.7),
        (RequestId(probe.second), 0.2),
    ];
    entries.sort_by_key(|&(r, _)| r);
    flat_summary(BURST_REQUESTS, &[50, 100, 150, 200], |_| {
        SparseDistribution::from_normalized(BURST_REQUESTS, entries.clone(), 0.05)
    })
}

pub fn burst_hash(probes: &[Probe]) -> u64 {
    let mut h = Fnv::new();
    for p in probes {
        h.word(p.due_us);
        h.word(u64::from(p.target) << 32 | u64::from(p.second));
    }
    h.0
}

// --- update_heavy ----------------------------------------------------------

pub const UPDATE_REQUESTS: usize = 20_000;
pub const UPDATE_BLOCKS: u32 = 8;
pub const UPDATE_EXPLICIT: usize = 10_000;
/// Entries one op touches (~1 % of the explicit set).
pub const UPDATE_CHURN: usize = 100;
/// Every this-many-th op perturbs every entry, which ships as a full frame.
pub const UPDATE_FULL_EVERY: u64 = 64;
pub const UPDATE_SLICES_MS: [u64; 4] = [50, 150, 250, 500];

/// Per-slice shapes an entry's probability can follow.  Entries of one
/// shape have proportional tails (one scheduler bucket); changing an
/// entry's shape is a structural change.
const SHAPES: [[f64; 4]; 4] = [
    [1.0, 1.0, 1.0, 1.0],
    [1.0, 0.9, 0.8, 0.7],
    [0.7, 0.8, 0.9, 1.0],
    [1.0, 1.1, 1.0, 0.9],
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// ~1 % of entries change magnitude, uniformly across slices.
    Rescale,
    /// Entries join and leave the explicit set and change per-slice shape.
    Structural,
    /// Every entry moves a little: too large for a delta, ships in full.
    Full,
}

/// The mutable prediction the `update_heavy` client owns.  Each call to
/// [`next_op`](UpdateInput::next_op) mutates it; the socket run and the
/// traced replay each build their own from the same seed and so see the
/// same sequence of summaries.
pub struct UpdateInput {
    rng: Rng,
    ops: u64,
    /// Base probability of every request, explicit or not.
    base: Vec<f64>,
    /// Raised (`× 1.25`) or not; a rescale flips it.
    raised: Vec<bool>,
    shape: Vec<u8>,
    /// Slot in `explicit_ids`, or `usize::MAX` when not explicit.
    slot: Vec<usize>,
    explicit_ids: Vec<u32>,
    free_ids: Vec<u32>,
    hash: Fnv,
}

impl UpdateInput {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 3);
        let n = UPDATE_REQUESTS;
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.below(i + 1));
        }
        let free_ids = ids.split_off(UPDATE_EXPLICIT);
        let mut slot = vec![usize::MAX; n];
        for (i, &r) in ids.iter().enumerate() {
            slot[r as usize] = i;
        }
        UpdateInput {
            base: (0..n)
                .map(|r| 0.5 / UPDATE_EXPLICIT as f64 * (1.0 + (r % 7) as f64 * 0.05))
                .collect(),
            raised: vec![false; n],
            shape: (0..n).map(|_| rng.below(SHAPES.len()) as u8).collect(),
            slot,
            explicit_ids: ids,
            free_ids,
            rng,
            ops: 0,
            hash: Fnv::new(),
        }
    }

    fn pick_explicit(&mut self) -> usize {
        self.explicit_ids[self.rng.below(self.explicit_ids.len())] as usize
    }

    /// Applies the next op of the seeded mix: every 64th a full refresh,
    /// otherwise 70 % rescale-only and 30 % structural.
    pub fn next_op(&mut self) -> UpdateKind {
        self.ops += 1;
        let kind = if self.ops.is_multiple_of(UPDATE_FULL_EVERY) {
            UpdateKind::Full
        } else if self.rng.below(10) < 7 {
            UpdateKind::Rescale
        } else {
            UpdateKind::Structural
        };
        self.hash.word(kind as u64);
        match kind {
            UpdateKind::Rescale => {
                for _ in 0..UPDATE_CHURN {
                    let r = self.pick_explicit();
                    self.raised[r] = !self.raised[r];
                    self.hash.word(r as u64);
                }
            }
            UpdateKind::Structural => {
                for _ in 0..UPDATE_CHURN / 2 {
                    // One entry leaves, one joins: the explicit count holds.
                    let leave_at = self.rng.below(self.explicit_ids.len());
                    let join_at = self.rng.below(self.free_ids.len());
                    let leaver = self.explicit_ids[leave_at];
                    let joiner = self.free_ids[join_at];
                    self.explicit_ids[leave_at] = joiner;
                    self.free_ids[join_at] = leaver;
                    self.slot[joiner as usize] = leave_at;
                    self.slot[leaver as usize] = usize::MAX;
                    self.shape[joiner as usize] = self.rng.below(SHAPES.len()) as u8;
                    self.hash.word(u64::from(leaver) << 32 | u64::from(joiner));
                }
                for _ in 0..UPDATE_CHURN / 4 {
                    let r = self.pick_explicit();
                    let step = 1 + self.rng.below(SHAPES.len() - 1) as u8;
                    self.shape[r] = (self.shape[r] + step) % SHAPES.len() as u8;
                    self.hash.word(r as u64);
                }
            }
            UpdateKind::Full => {
                // Bounded: the factor depends on the refresh count, not on
                // the previous value.
                let k = (self.ops / UPDATE_FULL_EVERY) as usize;
                for (r, base) in self.base.iter_mut().enumerate() {
                    *base = 0.5 / UPDATE_EXPLICIT as f64
                        * (1.0 + (r % 7) as f64 * 0.05)
                        * (1.0 + ((r + k) % 5) as f64 * 0.01);
                }
            }
        }
        kind
    }

    /// The current prediction: explicit entries ascending by id, residual
    /// the remaining mass (always above 0.2 by construction).
    pub fn summary(&self) -> PredictionSummary {
        flat_summary(UPDATE_REQUESTS, &UPDATE_SLICES_MS, |s| {
            let mut mass = 0.0;
            // Sized up front: growing a 160 KB vector by doubling would cost
            // the harness more than the system spends on the update.
            let mut entries = Vec::with_capacity(self.explicit_ids.len());
            for r in (0..UPDATE_REQUESTS).filter(|&r| self.slot[r] != usize::MAX) {
                let lift = if self.raised[r] { 1.25 } else { 1.0 };
                let p = self.base[r] * lift * SHAPES[self.shape[r] as usize][s];
                mass += p;
                entries.push((RequestId(r as u32), p));
            }
            SparseDistribution::from_normalized(UPDATE_REQUESTS, entries, 1.0 - mass)
        })
    }

    /// Hash of every op applied so far.
    pub fn op_hash(&self) -> u64 {
        self.hash.0
    }
}

// --- fleet_inproc ----------------------------------------------------------

pub const FLEET_SESSIONS: usize = 2_000;
pub const FLEET_REQUESTS: usize = 256;
pub const FLEET_BLOCKS: u32 = 4;
pub const FLEET_PROFILES: usize = 16;
/// Predictions a profile's sessions move between.
pub const FLEET_VARIANTS: usize = 8;
/// Sessions re-predicted (5 %) and rate-reporting (1 %) per round.
pub const FLEET_REPREDICT: usize = FLEET_SESSIONS / 20;
pub const FLEET_RATE_REPORTS: usize = FLEET_SESSIONS / 100;

/// One round of fleet input: which sessions re-predict (to which variant of
/// their profile's prediction) and which report a receive rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRound {
    pub repredict: Vec<(usize, u8)>,
    pub rates: Vec<(usize, f64)>,
}

/// The round generator; like [`UpdateInput`], rebuilt from the seed by
/// every consumer.
pub struct FleetInput {
    rng: Rng,
    /// Scratch for drawing distinct sessions: a permutation of all of them,
    /// partially reshuffled every round.
    sessions: Vec<usize>,
    hash: Fnv,
}

impl FleetInput {
    pub fn new(seed: u64) -> Self {
        FleetInput {
            rng: Rng::new(seed, 4),
            sessions: (0..FLEET_SESSIONS).collect(),
            hash: Fnv::new(),
        }
    }

    /// A seeded 5 % of the sessions (distinct) each re-predict to a seeded
    /// variant of their profile's prediction; a seeded 1 % report a rate.
    pub fn next_round(&mut self) -> FleetRound {
        for i in 0..FLEET_REPREDICT {
            let j = i + self.rng.below(FLEET_SESSIONS - i);
            self.sessions.swap(i, j);
        }
        let repredict: Vec<(usize, u8)> = self.sessions[..FLEET_REPREDICT]
            .iter()
            .map(|&s| (s, self.rng.below(FLEET_VARIANTS) as u8))
            .collect();
        let rates: Vec<(usize, f64)> = (0..FLEET_RATE_REPORTS)
            .map(|_| {
                (
                    self.rng.below(FLEET_SESSIONS),
                    5.0 + self.rng.below(7) as f64,
                )
            })
            .collect();
        for &(s, variant) in &repredict {
            self.hash.word((s as u64) << 8 | u64::from(variant));
        }
        for &(s, mbps) in &rates {
            self.hash.word((s as u64) << 8 | mbps as u64);
        }
        FleetRound { repredict, rates }
    }

    pub fn op_hash(&self) -> u64 {
        self.hash.0
    }
}

pub fn fleet_profile(session: usize) -> usize {
    session % FLEET_PROFILES
}

/// Share weight of a session: five classes keyed by profile, as in
/// `session_scale` (only sessions with equal weight and history can share a
/// model).
pub fn fleet_weight(session: usize) -> f64 {
    1.0 + (fleet_profile(session) % 5) as f64 * 0.25
}

/// The top-3 prediction of `profile`'s `variant`.
pub fn fleet_prediction(profile: usize, variant: u8) -> [(RequestId, f64); 3] {
    let n = FLEET_REQUESTS;
    let hot = (profile * 16 + variant as usize * 3) % n;
    [
        (RequestId(hot as u32), 0.6),
        (RequestId(((hot + 5) % n) as u32), 0.3),
        (RequestId(((hot + 11) % n) as u32), 0.1),
    ]
}

/// Mass the fleet's predictions leave to requests they do not name.
const FLEET_RESIDUAL: f64 = 0.1;

/// The state a session ships: the top-3 scaled to 0.9 plus 0.1 of residual
/// mass over the other requests.  A bare `TopK` would give everything else
/// probability zero, and a session then falls idle once its three requests
/// are pushed (12 blocks) however small `cache_blocks` is; with residual
/// mass there is always a next block, so the pump budget, not the
/// re-prediction rate, decides how many blocks a round moves.
pub fn fleet_state(profile: usize, variant: u8) -> PredictorState {
    let mut entries: Vec<(RequestId, f64)> = fleet_prediction(profile, variant)
        .iter()
        .map(|&(r, p)| (r, p * (1.0 - FLEET_RESIDUAL)))
        .collect();
    entries.sort_by_key(|&(r, _)| r);
    PredictorState::Summary(flat_summary(FLEET_REQUESTS, &[50, 150, 250, 500], |_| {
        SparseDistribution::from_normalized(FLEET_REQUESTS, entries.clone(), FLEET_RESIDUAL)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_probes_are_seeded_fresh_and_jittered() {
        let a = burst_probes(7, 600);
        assert_eq!(burst_hash(&a), burst_hash(&burst_probes(7, 600)));
        assert_ne!(burst_hash(&a), burst_hash(&burst_probes(8, 600)));
        let mut targets: Vec<u32> = a.iter().map(|p| p.target).collect();
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), 600, "targets never repeat within a run");
        for w in a.windows(2) {
            let gap = w[1].due_us - w[0].due_us;
            assert!((32_000..=48_000).contains(&gap), "gap {gap}");
        }
        let half = (BURST_REQUESTS / 2) as u32;
        assert!(a.iter().all(|p| p.target < half && p.second >= half));
    }

    #[test]
    fn update_ops_are_seeded_and_keep_the_summary_well_formed() {
        let run = |seed| {
            let mut input = UpdateInput::new(seed);
            let kinds: Vec<UpdateKind> = (0..200).map(|_| input.next_op()).collect();
            (input.op_hash(), kinds, input.summary())
        };
        let (hash, kinds, summary) = run(11);
        assert_eq!(hash, run(11).0);
        assert_ne!(hash, run(12).0);
        assert_eq!(kinds.iter().filter(|k| **k == UpdateKind::Full).count(), 3);
        let structural = kinds
            .iter()
            .filter(|k| **k == UpdateKind::Structural)
            .count();
        assert!((35..85).contains(&structural), "{structural} structural");
        for slice in summary.slices() {
            let entries = slice.dist.explicit_entries();
            assert_eq!(entries.len(), UPDATE_EXPLICIT);
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
            let mass: f64 = entries.iter().map(|e| e.1).sum();
            assert!(
                slice.dist.residual_mass() > 0.2 && mass < 0.8,
                "mass {mass}"
            );
        }
    }

    #[test]
    fn fleet_rounds_are_seeded_with_distinct_sessions() {
        let run = |seed| {
            let mut input = FleetInput::new(seed);
            let rounds: Vec<FleetRound> = (0..50).map(|_| input.next_round()).collect();
            (input.op_hash(), rounds)
        };
        let (hash, rounds) = run(3);
        assert_eq!(hash, run(3).0);
        assert_ne!(hash, run(4).0);
        let mut profiles_seen = [false; FLEET_PROFILES];
        for round in &rounds {
            let mut ids: Vec<usize> = round.repredict.iter().map(|r| r.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), FLEET_REPREDICT);
            assert!(ids.iter().all(|&s| s < FLEET_SESSIONS));
            assert!(round
                .repredict
                .iter()
                .all(|&(_, v)| (v as usize) < FLEET_VARIANTS));
            assert_eq!(round.rates.len(), FLEET_RATE_REPORTS);
            for &(s, _) in &round.repredict {
                profiles_seen[fleet_profile(s)] = true;
            }
        }
        assert!(profiles_seen.iter().all(|&seen| seen));
        let [a, b, c] = fleet_prediction(15, 7);
        assert!(a.0 != b.0 && b.0 != c.0 && a.0 != c.0);
    }

    #[test]
    fn image_trace_is_seeded_and_crossings_fall_inside_the_sample_period() {
        let app = ImageExplorationApp::reduced(TRACE_GRID_SIDE, 5);
        let trace = image_trace(&app, 5, 10);
        let a = trace_hash(&trace);
        assert_eq!(a, trace_hash(&image_trace(&app, 5, 10)));
        assert_ne!(a, trace_hash(&image_trace(&app, 6, 10)));
        let crossings = crossing_times_us(&app, &trace);
        assert_eq!(crossings.len(), trace.requests.len());
        let mut strictly_inside = 0;
        for (&(at, _), &crossed) in trace.requests.iter().zip(&crossings) {
            let at = at.as_micros();
            assert!(crossed <= at && at - crossed <= 20_000, "{crossed} vs {at}");
            strictly_inside += usize::from(crossed < at && at - crossed < 20_000);
        }
        assert!(
            strictly_inside * 2 > crossings.len(),
            "most crossings interpolate"
        );
    }
}
