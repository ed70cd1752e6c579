//! Backend-concurrency limiting (§5.4).
//!
//! Khameleon assumes backends scale to many concurrent speculative requests
//! (file systems, key-value stores).  Backends like PostgreSQL degrade past a
//! concurrency limit, so the paper post-processes schedules "to ensure that
//! they do not refer to blocks from more than `C − n` distinct requests",
//! where `C` is the backend's scalable concurrency and `n` the number of
//! queries it is already processing.

use std::collections::{HashMap, HashSet};

use crate::types::{BlockRef, RequestId};

/// Restricts `schedule` to blocks from at most `max_distinct` distinct
/// requests.
///
/// The first `max_distinct` distinct requests encountered (in schedule order,
/// i.e. by scheduler priority) are kept.  Blocks of excluded requests are
/// replaced, where possible, by the next unsent blocks of the kept requests
/// so the sender still fills the available bandwidth; if the kept requests
/// run out of blocks the schedule simply shrinks.
///
/// `blocks_per_request` maps every request to its total block count, and
/// `already_sent` to the number of blocks already pushed (so backfill starts
/// at the right index).
pub fn limit_distinct_requests(
    schedule: &[BlockRef],
    max_distinct: usize,
    blocks_per_request: impl Fn(RequestId) -> u32,
    already_sent: &HashMap<RequestId, u32>,
) -> Vec<BlockRef> {
    if max_distinct == 0 {
        return Vec::new();
    }
    // Pass 1: decide which requests to keep.
    let mut kept: Vec<RequestId> = Vec::with_capacity(max_distinct);
    let mut kept_set: HashSet<RequestId> = HashSet::with_capacity(max_distinct);
    for b in schedule {
        if kept_set.contains(&b.request) {
            continue;
        }
        if kept.len() < max_distinct {
            kept.push(b.request);
            kept_set.insert(b.request);
        }
    }

    // Track the next unsent block index per kept request (continuing each
    // prefix past what was already pushed) so the rewritten schedule always
    // pushes contiguous, never-duplicated prefixes.
    let mut next_index: HashMap<RequestId, u32> = kept
        .iter()
        .map(|&r| (r, already_sent.get(&r).copied().unwrap_or(0)))
        .collect();

    // Emits the next block of `r` if it still has capacity.
    let emit = |r: RequestId, next_index: &mut HashMap<RequestId, u32>| -> Option<BlockRef> {
        let idx = next_index[&r];
        if idx < blocks_per_request(r) {
            next_index.insert(r, idx + 1);
            Some(BlockRef::new(r, idx))
        } else {
            None
        }
    };

    let mut out = Vec::with_capacity(schedule.len());
    for b in schedule {
        // A slot owned by a kept request continues that request's prefix;
        // a slot owned by an excluded request backfills the least-advanced
        // kept request (breadth-first hedging among the allowed ones).
        let preferred = if kept_set.contains(&b.request) {
            Some(b.request)
        } else {
            None
        };
        let produced = preferred
            .and_then(|r| emit(r, &mut next_index))
            .or_else(|| {
                kept.iter()
                    .copied()
                    .filter(|&r| next_index[&r] < blocks_per_request(r))
                    .min_by_key(|&r| next_index[&r])
                    .and_then(|r| emit(r, &mut next_index))
            });
        if let Some(block) = produced {
            out.push(block);
        }
        // No capacity left among kept requests: drop the slot.
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(r: u32, i: u32) -> BlockRef {
        BlockRef::new(RequestId(r), i)
    }

    /// Counts the number of distinct requests a schedule refers to.
    fn distinct_requests(schedule: &[BlockRef]) -> usize {
        schedule
            .iter()
            .map(|b| b.request)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn passes_through_when_under_limit() {
        let s = vec![b(0, 0), b(1, 0), b(0, 1)];
        let out = limit_distinct_requests(&s, 5, |_| 10, &HashMap::new());
        assert_eq!(out, s);
        assert_eq!(distinct_requests(&out), 2);
    }

    #[test]
    fn replaces_excess_requests_with_backfill() {
        // Limit 2: requests 0 and 1 are kept, blocks of 2 and 3 become extra
        // blocks of 0/1.
        let s = vec![b(0, 0), b(1, 0), b(2, 0), b(3, 0), b(0, 1)];
        let out = limit_distinct_requests(&s, 2, |_| 10, &HashMap::new());
        assert_eq!(out.len(), 5);
        assert!(distinct_requests(&out) <= 2);
        // Prefix continuity: block indices per request are consecutive.
        let mut per: HashMap<RequestId, Vec<u32>> = HashMap::new();
        for x in &out {
            per.entry(x.request).or_default().push(x.index);
        }
        for (_, mut v) in per {
            v.sort_unstable();
            for (i, idx) in v.iter().enumerate() {
                assert_eq!(*idx as usize, i);
            }
        }
    }

    #[test]
    fn drops_slots_when_kept_requests_exhausted() {
        // Only request 0 is kept and it has 2 blocks total; the two blocks of
        // request 1 can only backfill one extra block.
        let s = vec![b(0, 0), b(1, 0), b(1, 1), b(1, 2)];
        let out = limit_distinct_requests(&s, 1, |_| 2, &HashMap::new());
        assert_eq!(out, vec![b(0, 0), b(0, 1)]);
    }

    #[test]
    fn respects_already_sent_offsets() {
        let mut sent = HashMap::new();
        sent.insert(RequestId(0), 3u32);
        let s = vec![b(0, 3), b(7, 0)];
        let out = limit_distinct_requests(&s, 1, |_| 10, &sent);
        assert_eq!(out, vec![b(0, 3), b(0, 4)]);
    }

    #[test]
    fn zero_limit_empties_schedule() {
        let s = vec![b(0, 0)];
        assert!(limit_distinct_requests(&s, 0, |_| 10, &HashMap::new()).is_empty());
    }

    #[test]
    fn distinct_count() {
        assert_eq!(distinct_requests(&[]), 0);
        assert_eq!(distinct_requests(&[b(1, 0), b(1, 1), b(2, 0)]), 2);
    }
}
