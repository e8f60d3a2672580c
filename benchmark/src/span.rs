//! Harness-side spans: one record around each call into a layer.
//!
//! The benchmark measures every layer from outside, so the spans live
//! here and not in the program. A span carries its name, start, end,
//! the span that caused it and the id of the op it belongs to. They are
//! kept in a preallocated buffer and written out when the run ends.

use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its buffer.
pub type SpanId = u32;

/// Marks a span without a parent.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded span. Times are ns since the buffer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call` name; the same vocabulary as the per-layer metrics.
    pub name: &'static str,
    /// The op (request, statement, cycle) this span belongs to.
    pub op: u32,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: SpanId,
    /// Start, ns since the buffer's origin.
    pub start_ns: u64,
    /// End, ns since the buffer's origin.
    pub end_ns: u64,
    /// A replayed span repeats, on the same inputs, a call the parent
    /// makes internally. It is outside the parent's interval, so it
    /// takes no part in self-time arithmetic; the parent's residual is
    /// reported separately.
    pub replay: bool,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span buffer of one replay pass.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer with room for `capacity` spans, so that recording does
    /// not allocate inside a timed region.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanBuf {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// ns since the buffer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`SpanBuf::close`].
    pub fn open(&mut self, name: &'static str, op: u32, parent: SpanId) -> SpanId {
        let start_ns = self.now_ns();
        self.push(name, op, parent, start_ns, start_ns, false)
    }

    /// Closes a span now.
    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a span with explicit times (for intervals observed from
    /// a schedule, such as due time to reply).
    pub fn push(
        &mut self,
        name: &'static str,
        op: u32,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
        replay: bool,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
            replay,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` inside a replayed span (see [`Span::replay`]).
    pub fn replay<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let next = self.spans.len();
        let out = self.time(name, op, parent, f);
        self.spans[next].replay = true;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its (non-replayed) child spans cover. Children may overlap each
/// other, so coverage is the union of their intervals clipped to the
/// parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT && !s.replay {
            if let (Some(p), Some(slot)) = (
                spans.get(s.parent as usize),
                children.get_mut(s.parent as usize),
            ) {
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if b > a {
                    slot.push((a, b));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Median duration in µs of the spans with this name; `None` if absent.
pub fn median_us(spans: &[Span], name: &str) -> Option<f64> {
    let durs = durations_us(spans, name);
    (!durs.is_empty()).then(|| median(&durs))
}

/// Durations in µs of the spans with this name.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// The accounting identity of one buffer: for every root span, the self
/// times of the root and all its (non-replayed) descendants, summed,
/// against the root's own duration. Returns the median of
/// `|sum − root| / root` over the roots; `None` without roots.
pub fn accounting_gap(spans: &[Span]) -> Option<f64> {
    let selfs = self_times_ns(spans);
    let mut root_of: Vec<SpanId> = vec![NO_PARENT; spans.len()];
    let mut sums: BTreeMap<SpanId, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.replay {
            continue;
        }
        // Parents are always recorded before their children.
        let root = if s.parent == NO_PARENT {
            i as SpanId
        } else {
            match root_of.get(s.parent as usize) {
                Some(&r) if r != NO_PARENT => r,
                _ => continue,
            }
        };
        root_of[i] = root;
        *sums.entry(root).or_insert(0) += selfs[i];
    }
    let gaps: Vec<f64> = sums
        .iter()
        .filter_map(|(&root, &sum)| {
            let dur = spans[root as usize].dur_ns();
            (dur > 0).then(|| (sum as f64 - dur as f64).abs() / dur as f64)
        })
        .collect();
    (!gaps.is_empty()).then(|| median(&gaps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start: u64, end: u64, replay: bool) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns: start,
            end_ns: end,
            replay,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("root", NO_PARENT, 0, 100, false),
            span("a", 0, 10, 30, false),
            span("b", 0, 40, 70, false),
            span("b.inner", 2, 45, 55, false),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
        assert_eq!(accounting_gap(&spans), Some(0.0));
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = vec![
            span("root", NO_PARENT, 0, 100, false),
            span("a", 0, 10, 60, false),
            span("b", 0, 40, 120, false),
        ];
        // The union [10, 100) covers 90 of the root's 100.
        assert_eq!(self_times_ns(&spans)[0], 10);
        // Overlap counts twice in the sum, so the identity is off by
        // (10 + 50 + 80 − 100) / 100.
        assert_eq!(accounting_gap(&spans), Some(0.4));
    }

    #[test]
    fn replayed_spans_take_no_part_in_self_time() {
        let spans = vec![
            span("root", NO_PARENT, 0, 100, false),
            span("child", 0, 0, 40, false),
            span("child.replayed", 1, 200, 230, true),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 40, 30]);
        assert_eq!(accounting_gap(&spans), Some(0.0));
    }

    #[test]
    fn buffer_records_nested_calls() {
        let mut buf = SpanBuf::with_capacity(4);
        let root = buf.open("root", 7, NO_PARENT);
        let got = buf.time("leaf", 7, root, || 42);
        buf.close(root);
        assert_eq!(got, 42);
        let spans = buf.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(median_us(spans, "leaf").is_some());
        assert!(median_us(spans, "absent").is_none());
    }
}
