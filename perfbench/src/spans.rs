//! In-memory spans around the benchmark's own calls into each layer, the
//! self-time arithmetic over them, and their Chrome-trace export.
//!
//! The benchmark never instruments the simulator from inside: every span
//! wraps one public call (`SimBuilder::run`, `IdleReport::analyze`, an
//! exporter, `FleetSim::run_observed`) or one gap between two
//! `FleetObserver` callbacks. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use agilewatts::aw_telemetry::export::chrome_trace_json;
use agilewatts::aw_telemetry::{EventKind, TraceEvent};
use agilewatts::aw_types::Nanos;

/// One timed interval: a call into a layer, or a whole benchmark op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `server.run`.
    pub name: &'static str,
    /// Seconds since the recorder's origin.
    pub start: f64,
    /// Seconds since the recorder's origin; `>= start`.
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The benchmark op the span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans into memory. A disabled recorder reads no clock and
/// stores nothing, so untraced ops pay only a branch per boundary.
#[derive(Debug)]
pub struct SpanRecorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans begun and not yet ended, innermost last.
    open: Vec<usize>,
}

impl SpanRecorder {
    /// A recorder whose clock starts now.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        SpanRecorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans begun from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied(), op });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if recording is on and no span is open: begin and end
    /// calls are unbalanced, which is a bug in the benchmark.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end = self.now();
    }

    /// Closes every open span now (after a call panicked mid-span).
    pub fn close_open(&mut self) {
        let now = self.now();
        for idx in self.open.drain(..) {
            self.spans[idx].end = now;
        }
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    /// Records an already-closed interval `[start, end)` as a child of
    /// the innermost open span (for intervals measured by a callback).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        let span =
            Span { name, start: at(start), end: at(end), parent: self.open.last().copied(), op };
        self.spans.push(span);
    }

    /// Every span recorded so far, in begin order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of `[lo, hi)` covered by the union of `intervals` (each
/// clipped to `[lo, hi)`).
fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Overlapping children count once; child time
/// outside the parent's interval is ignored.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration() - covered(span.start, span.end, kids))
        .collect()
}

/// Per-name totals for one op: `(self seconds, inclusive seconds)`.
#[must_use]
pub fn layer_totals(spans: &[Span], op: u64) -> BTreeMap<&'static str, (f64, f64)> {
    let selfs = self_times(spans);
    let mut totals: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (span, self_s) in spans.iter().zip(selfs) {
        if span.op == op {
            let entry = totals.entry(span.name).or_default();
            entry.0 += self_s;
            entry.1 += span.duration();
        }
    }
    totals
}

/// Renders spans with aw-telemetry's Chrome-trace exporter: each span is
/// one complete slice on track 0, so nesting shows as stacked slices.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<TraceEvent> = spans
        .iter()
        .map(|s| TraceEvent {
            time: Nanos::from_secs(s.start),
            core: 0,
            kind: EventKind::FlowStep { step: s.name, duration: Nanos::from_secs(s.duration()) },
        })
        .collect();
    chrome_trace_json(&events, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, op: 1 }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("a", 1.0, 3.5, None)];
        assert!(close(self_times(&spans)[0], 2.5));
    }

    #[test]
    fn parent_self_time_subtracts_children() {
        let spans = [
            span("op", 0.0, 10.0, None),
            span("server.run", 1.0, 4.0, Some(0)),
            span("report.format", 6.0, 7.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert!(close(selfs[0], 6.0));
        assert!(close(selfs[1], 3.0));
        assert!(close(selfs[2], 1.0));
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("op", 0.0, 10.0, None),
            span("cluster.run", 0.0, 8.0, Some(0)),
            span("cluster.epoch", 0.0, 5.0, Some(1)),
            span("cluster.report", 5.0, 7.5, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert!(close(selfs[0], 2.0));
        assert!(close(selfs[1], 0.5));
        assert!(close(selfs[2], 5.0));
        assert!(close(selfs[3], 2.5));
    }

    #[test]
    fn overlapping_and_clipped_children_count_once() {
        let spans = [
            span("p", 2.0, 6.0, None),
            span("x", 1.0, 3.0, Some(0)),
            span("y", 2.5, 4.0, Some(0)),
            span("z", 5.5, 9.0, Some(0)),
        ];
        // Covered: [2, 4) and [5.5, 6) = 2.5 of 4.
        assert!(close(self_times(&spans)[0], 1.5));
    }

    #[test]
    fn layer_totals_sum_per_name_and_filter_by_op() {
        let mut spans = vec![
            span("op", 0.0, 4.0, None),
            span("sleep.analyze", 0.0, 1.0, Some(0)),
            span("sleep.analyze", 2.0, 2.5, Some(0)),
        ];
        spans.push(Span { name: "sleep.analyze", start: 5.0, end: 9.0, parent: None, op: 2 });
        let totals = layer_totals(&spans, 1);
        let (self_s, incl) = totals["sleep.analyze"];
        assert!(close(self_s, 1.5) && close(incl, 1.5));
        assert!(close(totals["op"].0, 2.5));
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut rec = SpanRecorder::new(true);
        rec.begin("op", 7);
        rec.time("inner", 7, || ());
        rec.end();
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);

        let mut off = SpanRecorder::new(false);
        off.begin("op", 1);
        off.end();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_slice_per_span() {
        let spans = [span("op", 0.0, 1.0, None), span("server.run", 0.1, 0.2, Some(0))];
        let json = chrome_trace(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"server.run\""));
    }
}
