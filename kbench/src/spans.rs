//! In-memory spans for the traced replay: one record per call into a layer,
//! linked to the span that caused it, written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

const NO_PARENT: u32 = u32::MAX;

/// One timed call: `op` is the workload operation it belongs to (spans of
/// one operation share it), `parent` the enclosing span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A preallocated span buffer.  When disabled, `enter`/`exit` do nothing,
/// which is how the replay measures what recording itself costs.
pub struct SpanBuf {
    spans: Vec<Span>,
    stack: Vec<u32>,
    origin: Instant,
    enabled: bool,
    dropped: u64,
}

/// Handle returned by [`SpanBuf::enter`]; `None` when nothing was recorded.
#[derive(Clone, Copy)]
pub struct Open(Option<u32>);

impl SpanBuf {
    pub fn new(capacity: usize, enabled: bool) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            stack: Vec::with_capacity(16),
            origin: Instant::now(),
            enabled,
            dropped: 0,
        }
    }

    #[inline]
    pub fn enter(&mut self, op: u32, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() == self.spans.capacity() {
            // Never grow mid-run: a reallocation would land in some span.
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Times `f` as one span.
    #[inline]
    pub fn time<T>(&mut self, op: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(op, name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Self times in nanoseconds grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            by_name.entry(span.name).or_default().push(own as f64);
        }
        by_name
    }

    /// The trace file: at most `limit` spans (the aggregates in the result
    /// use all of them), with the totals needed to tell.
    pub fn to_json(&self, workload: &str, limit: usize) -> Json {
        let own = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .take(limit)
            .map(|(s, own)| {
                Json::obj(vec![
                    ("id", Json::Num(f64::from(s.id))),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    ("op", Json::Num(f64::from(s.op))),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(*own as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("recorded", Json::Num(self.spans.len() as f64)),
            ("dropped", Json::Num(self.dropped as f64)),
            ("written", Json::Num(self.spans.len().min(limit) as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100 with children 10..30 and 40..90; the second child has
        // its own child 50..60.
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 30),
            span(2, 0, 40, 90),
            span(3, 2, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn nesting_links_parents_and_disabled_records_nothing() {
        let mut buf = SpanBuf::new(8, true);
        let outer = buf.enter(7, "outer");
        buf.time(7, "inner", || ());
        buf.exit(outer);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.spans()[1].parent, 0);
        assert_eq!(buf.spans()[0].parent, NO_PARENT);
        assert!(buf.spans()[0].end_ns >= buf.spans()[1].end_ns);

        let mut off = SpanBuf::new(8, false);
        off.time(0, "x", || ());
        assert_eq!(off.len(), 0);
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut buf = SpanBuf::new(1, true);
        buf.time(0, "a", || ());
        buf.time(0, "b", || ());
        assert_eq!((buf.len(), buf.dropped()), (1, 1));
    }
}
