//! Bench-side spans: the traced run wraps one around each call into a
//! layer's public functions. Spans stay in memory and are written as
//! Chrome-trace JSON when the run ends; the engine itself is not edited.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: u32,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next request: spans recorded from here on share its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Runs `f` inside a span named `name`, a child of whichever span is
    /// open. `f` gets the recorder back so that it can open children.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Times a leaf call: a span with no children.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.scope(name, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time in µs, grouped by name, each group ascending.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut groups: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            groups
                .entry(span.name)
                .or_default()
                .push(self_ns as f64 / 1e3);
        }
        for values in groups.values_mut() {
            crate::stats::sort(values);
        }
        groups
    }

    /// The `chrome://tracing` / Perfetto "complete event" form: one `X`
    /// event per span, requests on separate rows.
    pub fn chrome_trace(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("ph", Json::str("X")),
                        ("ts", Json::num(s.start_ns as f64 / 1e3)),
                        ("dur", Json::num((s.end_ns - s.start_ns) as f64 / 1e3)),
                        ("pid", Json::num(1.0)),
                        ("tid", Json::num(f64::from(s.request))),
                        (
                            "args",
                            Json::obj([
                                ("id", Json::num(id as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                                ),
                            ]),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time is its duration minus the part its direct children
/// cover. Children of one parent never overlap here (one thread, strictly
/// nested scopes), so the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("op", 0, 100, None),
            span("parse", 5, 15, Some(0)),
            span("query", 20, 90, Some(0)),
            span("dpll", 30, 80, Some(2)),
        ];
        // op: 100 − (10 + 70); query: 70 − 50; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![20, 10, 20, 50]);
    }

    #[test]
    fn scopes_nest_and_share_the_request_id() {
        let mut rec = Recorder::new();
        rec.next_request();
        let out = rec.scope("op", |rec| {
            rec.leaf("a", || 1) + rec.scope("b", |rec| rec.leaf("c", || 2))
        });
        assert_eq!(out, 3);
        rec.next_request();
        rec.leaf("op", || ());
        let s = rec.spans();
        let shape: Vec<_> = s.iter().map(|s| (s.name, s.parent, s.request)).collect();
        assert_eq!(
            shape,
            vec![
                ("op", None, 1),
                ("a", Some(0), 1),
                ("b", Some(0), 1),
                ("c", Some(2), 1),
                ("op", None, 2)
            ]
        );
        assert!(s.iter().all(|s| s.start_ns <= s.end_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
        assert_eq!(rec.self_us_by_name()["op"].len(), 2);
        assert_eq!(rec.chrome_trace().as_arr().len(), 5);
    }
}
