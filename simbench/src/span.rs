//! In-memory spans around the benchmark's calls into the simulator, and the
//! self-time arithmetic over them.
//!
//! A span has a name, a tag (the phase kind, for phase spans), a track (the
//! camera index, or `usize::MAX` for cluster-wide spans), start and end in
//! nanoseconds from the log's epoch, and the span that caused it. Spans stay
//! in memory until the benchmark writes them out at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// Track of spans that belong to no single camera.
pub const CLUSTER_TRACK: usize = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the span covers, e.g. `session.step_phase`.
    pub name: &'static str,
    /// A qualifier such as the phase kind (`""` when none).
    pub tag: &'static str,
    /// Camera index, or [`CLUSTER_TRACK`].
    pub track: usize,
    /// Start, in nanoseconds from the log's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds from the log's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log sharing one epoch.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span at the current time and returns its index; its end is
    /// set by [`SpanLog::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        tag: &'static str,
        track: usize,
        parent: Option<usize>,
    ) -> usize {
        let now = self.now_ns();
        self.record(Span { name, tag, track, start_ns: now, end_ns: now, parent })
    }

    /// Closes span `id` at the current time.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Appends a finished span and returns its index.
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Moves the end of span `id` to `end_ns`.
    pub fn set_end(&mut self, id: usize, end_ns: u64) {
        self.spans[id].end_ns = end_ns;
    }

    /// Changes the tag of span `id`.
    pub fn retag(&mut self, id: usize, tag: &'static str) {
        self.spans[id].tag = tag;
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves every span of `other` (which must share this log's epoch) into
    /// this log, re-parenting its roots under `parent`.
    pub fn absorb(&mut self, other: SpanLog, parent: Option<usize>) {
        let offset = self.spans.len();
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + offset).or(parent);
            self.spans.push(span);
        }
    }

    /// Durations in microseconds of the spans named `name` with tag `tag`.
    pub fn durations_us(&self, name: &str, tag: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.tag == tag)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Total duration in seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum::<u64>() as f64
            / 1e9
    }

    /// Self time of every span, indexed like [`SpanLog::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| self_time_ns((span.start_ns, span.end_ns), kids))
            .collect()
    }

    /// Per span name (and tag): count, total time and total self time, in
    /// name order. The layer breakdown of a traced run.
    pub fn breakdown(&self) -> Vec<(String, usize, f64, f64)> {
        let self_ns = self.self_times_ns();
        let mut rows: std::collections::BTreeMap<String, (usize, u64, u64)> = Default::default();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let key = if span.tag.is_empty() {
                span.name.to_string()
            } else {
                format!("{}[{}]", span.name, span.tag)
            };
            let row = rows.entry(key).or_default();
            row.0 += 1;
            row.1 += span.duration_ns();
            row.2 += own;
        }
        rows.into_iter()
            .map(|(key, (n, total, own))| (key, n, total as f64 / 1e9, own as f64 / 1e9))
            .collect()
    }

    /// The spans as JSON Lines, one object per span, with its self time.
    pub fn to_json_lines(&self) -> String {
        let self_ns = self.self_times_ns();
        let mut out = String::new();
        for (i, (span, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let track = if span.track == CLUSTER_TRACK { -1 } else { span.track as i64 };
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\"track\":{track},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                span.name, span.tag, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// A span's self time: its length minus the part of it that the union of
/// its direct children covers. Children may nest, overlap each other (as
/// spans from parallel threads do) or stick out of the parent; only the
/// covered part inside the parent counts, and only once.
pub fn self_time_ns(parent: (u64, u64), children: Vec<(u64, u64)>) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .into_iter()
        .map(|(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let from = s.max(cursor);
        if e > from {
            covered += e - from;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s", tag: "", track: 0, start_ns, end_ns, parent }
    }

    fn log(spans: Vec<Span>) -> SpanLog {
        let mut log = SpanLog::new(Instant::now());
        for s in spans {
            log.record(s);
        }
        log
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_time_ns((10, 50), vec![]), 40);
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        assert_eq!(self_time_ns((0, 100), vec![(10, 20), (50, 80)]), 60);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Union of [10, 40) and [30, 60) is 50 long.
        assert_eq!(self_time_ns((0, 100), vec![(30, 60), (10, 40)]), 50);
        // A child inside another child adds nothing.
        assert_eq!(self_time_ns((0, 100), vec![(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time_ns((10, 20), vec![(0, 15), (18, 40)]), 3);
        assert_eq!(self_time_ns((10, 20), vec![(30, 40)]), 10);
        assert_eq!(self_time_ns((10, 20), vec![(0, 40)]), 0);
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root [0,100) > child [10,60) > grandchild [20,40).
        let log = log(vec![span(0, 100, None), span(10, 60, Some(0)), span(20, 40, Some(1))]);
        assert_eq!(log.self_times_ns(), vec![50, 30, 20]);
        // Self times of a properly nested tree sum to the root's length.
        assert_eq!(log.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_siblings_from_parallel_tracks() {
        // Two threads' camera spans overlap inside one root.
        let log = log(vec![span(0, 100, None), span(5, 70, Some(0)), span(40, 95, Some(0))]);
        assert_eq!(log.self_times_ns(), vec![10, 65, 55]);
    }

    #[test]
    fn absorb_reparents_roots_and_shifts_parents() {
        let epoch = Instant::now();
        let mut main = SpanLog::new(epoch);
        main.record(span(0, 100, None));
        let mut other = SpanLog::new(epoch);
        other.record(span(10, 50, None));
        other.record(span(20, 30, Some(0)));
        main.absorb(other, Some(0));
        assert_eq!(main.spans()[1].parent, Some(0));
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.self_times_ns(), vec![60, 30, 10]);
    }

    #[test]
    fn breakdown_groups_by_name_and_tag() {
        let mut log = log(vec![span(0, 100, None)]);
        log.record(Span { name: "p", tag: "label", ..span(0, 10, Some(0)) });
        log.record(Span { name: "p", tag: "label", ..span(20, 30, Some(0)) });
        let rows = log.breakdown();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "p[label]");
        assert_eq!(rows[0].1, 2);
        assert!((rows[1].3 - 80e-9).abs() < 1e-15);
    }
}
