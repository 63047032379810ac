//! In-memory spans recorded by the benchmark's own code around each call into
//! a layer (spans *inside* the program are a later change, ROADMAP item 2).
//!
//! A root span is one real operation (a `Client` round trip, a block). Its
//! children are the same operation's stages executed one by one through the
//! crates' public functions, so they are *replays*: a child's interval lies
//! after its root's, and all arithmetic here is on durations, never on
//! interval containment. What the children do not explain is the root's
//! remainder — transport, dispatch, thread wake-ups — and it is reported
//! under its own name instead of being spread over the layers.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats::median;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by a root and every span it caused.
    pub request_id: u64,
    pub name: &'static str,
    /// Distinguishes roots of one name (`get`/`prov`) or outcomes of one
    /// call (`noflush`/`flush`/`merge`).
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The spans of one traced pass, written out once at the end.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

/// How a root's median splits into its children's medians and a remainder.
#[derive(Clone, Debug, PartialEq)]
pub struct Breakdown {
    pub roots: usize,
    pub root_p50_us: f64,
    /// `(child name, p50 of its durations)`, by name.
    pub children: Vec<(&'static str, f64)>,
    /// `root_p50_us - sum(children)`: by construction the parts add up.
    pub remainder_us: f64,
}

impl Breakdown {
    /// The remainder as a share of the root (0 when there were no roots).
    pub fn remainder_share(&self) -> f64 {
        if self.root_p50_us == 0.0 {
            0.0
        } else {
            self.remainder_us / self.root_p50_us
        }
    }
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a new span and returns the span's id with `f`'s value.
    pub fn record<T>(
        &mut self,
        parent: Option<u64>,
        request_id: u64,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce() -> T,
    ) -> (u64, T) {
        let start = self.origin.elapsed();
        let value = f();
        let end = self.origin.elapsed();
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            request_id,
            name,
            tag,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (id, value)
    }

    /// Books a span the caller timed itself — the stages of a block are
    /// nested calls, timed once, inside their root — and returns its id.
    pub fn adopt(
        &mut self,
        parent: Option<u64>,
        request_id: u64,
        name: &'static str,
        tag: &'static str,
        (start, end): (Instant, Instant),
    ) -> u64 {
        let id = self.spans.len() as u64;
        let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request_id,
            name,
            tag,
            start_ns: since(start),
            end_ns: since(end),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`, optionally of one tag.
    pub fn durations_us(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.map_or(true, |t| s.tag == t))
            .map(Span::duration_us)
            .collect()
    }

    /// Self time (µs) per span id: its duration minus its direct children's.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_us).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent as usize] -= span.duration_us();
            }
        }
        own
    }

    /// Median self time (µs) of the spans of each name.
    pub fn self_p50_us_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_us()) {
            by_name.entry(span.name).or_default().push(own);
        }
        by_name
            .into_iter()
            .map(|(name, own)| (name, median(&own)))
            .collect()
    }

    /// Splits the median of the roots called `root` (with `tag`) into the
    /// medians of their direct children, by child name, plus the remainder.
    pub fn breakdown(&self, root: &str, tag: &str) -> Breakdown {
        let mut root_durations = Vec::new();
        let mut is_root = vec![false; self.spans.len()];
        for span in &self.spans {
            if span.parent.is_none() && span.name == root && span.tag == tag {
                is_root[span.id as usize] = true;
                root_durations.push(span.duration_us());
            }
        }
        let mut by_child: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for span in &self.spans {
            if span.parent.is_some_and(|p| is_root[p as usize]) {
                by_child
                    .entry(span.name)
                    .or_default()
                    .push(span.duration_us());
            }
        }
        let root_p50_us = median(&root_durations);
        let children: Vec<(&'static str, f64)> = by_child
            .into_iter()
            .map(|(name, durations)| (name, median(&durations)))
            .collect();
        let explained: f64 = children.iter().map(|(_, p50)| p50).sum();
        Breakdown {
            roots: root_durations.len(),
            root_p50_us,
            children,
            remainder_us: root_p50_us - explained,
        }
    }

    /// The trace file: every span, as recorded.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .set("id", s.id)
                        .set("parent", s.parent.map_or(Json::Null, Json::from))
                        .set("request_id", s.request_id)
                        .set("name", s.name)
                        .set("tag", s.tag)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(parent, request, name, tag, start_ns, end_ns)`.
    type Row = (Option<u64>, u64, &'static str, &'static str, u64, u64);

    /// A log with hand-set times.
    fn log_of(spans: &[Row]) -> SpanLog {
        let mut log = SpanLog::new();
        for (i, &(parent, request_id, name, tag, start_ns, end_ns)) in spans.iter().enumerate() {
            log.spans.push(Span {
                id: i as u64,
                parent,
                request_id,
                name,
                tag,
                start_ns,
                end_ns,
            });
        }
        log
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let log = log_of(&[
            (None, 0, "request", "prov", 0, 100_000),          // 100 µs
            (Some(0), 0, "core.snapshot_prov", "", 0, 40_000), // 40 µs
            (Some(0), 0, "protocol.verify", "", 0, 30_000),    // 30 µs
            (Some(2), 0, "protocol.proof_decode", "", 0, 10_000), // grandchild
        ]);
        let own = log.self_times_us();
        assert_eq!(
            own[0], 30.0,
            "root: 100 - 40 - 30; the grandchild is not its child"
        );
        assert_eq!(own[1], 40.0);
        assert_eq!(own[2], 20.0, "verify: 30 - 10");
        assert_eq!(own[3], 10.0);
        let by_name = log.self_p50_us_by_name();
        assert_eq!(by_name["protocol.verify"], 20.0);
        assert_eq!(by_name["request"], 30.0);
    }

    #[test]
    fn breakdown_adds_up_and_keeps_tags_apart() {
        let mut spans = Vec::new();
        // Three `get` roots of 20/30/40 µs with one 10 µs child each, and a
        // `prov` root that must not leak into the `get` figures.
        for (i, root_us) in [20u64, 30, 40].into_iter().enumerate() {
            let id = (i * 2) as u64;
            spans.push((None, id, "request", "get", 0, root_us * 1000));
            spans.push((Some(id), id, "core.snapshot_get", "", 0, 10_000));
        }
        spans.push((None, 9, "request", "prov", 0, 900_000));
        spans.push((Some(6), 9, "core.snapshot_prov", "", 0, 500_000));
        let log = log_of(&spans);
        let get = log.breakdown("request", "get");
        assert_eq!(get.roots, 3);
        assert_eq!(get.root_p50_us, 30.0);
        assert_eq!(get.children, vec![("core.snapshot_get", 10.0)]);
        assert_eq!(get.remainder_us, 20.0);
        let explained: f64 = get.children.iter().map(|c| c.1).sum();
        assert_eq!(explained + get.remainder_us, get.root_p50_us);
        assert!((get.remainder_share() - 2.0 / 3.0).abs() < 1e-12);
        let prov = log.breakdown("request", "prov");
        assert_eq!((prov.roots, prov.remainder_us), (1, 400.0));
        assert_eq!(log.breakdown("block", "").remainder_share(), 0.0);
    }

    #[test]
    fn record_nests_ids_and_orders_times() {
        let mut log = SpanLog::new();
        let (root, ()) = log.record(None, 7, "block", "", || ());
        let (child, value) = log.record(Some(root), 7, "core.put_batch", "noflush", || 42);
        assert_eq!((child, value), (1, 42));
        let (start, end) = (Instant::now(), Instant::now());
        let adopted = log.adopt(Some(root), 7, "core.finalize_block", "flush", (start, end));
        let spans = log.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[adopted as usize].parent, Some(0));
        assert!(spans[0].start_ns <= spans[0].end_ns && spans[0].end_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns && spans[2].start_ns <= spans[2].end_ns);
        assert_eq!(log.durations_us("core.put_batch", Some("flush")).len(), 0);
        assert_eq!(log.durations_us("core.put_batch", None).len(), 1);
        assert_eq!(
            log.durations_us("core.finalize_block", Some("flush")).len(),
            1
        );
    }
}
