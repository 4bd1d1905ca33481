//! Per-query span trees over the engine cascade.
//!
//! A [`Tracer`] records a tree of [`SpanRecord`]s for one query: parse →
//! plan/engine selection → compile → flatten → kernel eval / sampler chunks →
//! cache, each span carrying wall time and stage-specific attributes. Spans
//! are created with the free function [`span`], which consults a thread-local
//! current tracer installed by [`with_tracer`]. Work a query hands to the
//! pool carries the tracer with it ([`TraceContext`]), so spans opened on a
//! pool worker join the same tree under the span that submitted the work.
//!
//! Cost model: when no tracer is installed *anywhere in the process*, [`span`]
//! is a single relaxed atomic load returning an inert guard — near-zero cost.
//! When a tracer is installed on some other thread, uninvolved threads pay the
//! load plus one thread-local check. Recording itself allocates only on the
//! traced coordinator path (never inside kernel eval / DPLL / sampler loops —
//! those report through attribute deltas computed by the coordinator), and the
//! tracer never touches RNG state, so results are bit-identical with tracing
//! on or off at every pool size (the PR 3 guarantee; pinned by
//! `tests/obs_equivalence.rs`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Cascade stages a span can describe. `rank` gives the canonical cascade
/// order used by the well-formedness proptest: within one parent, sibling
/// stages appear in non-decreasing rank order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Root span for one query.
    Query,
    /// Normalization + parsing of the query text.
    Parse,
    /// Result-cache probe.
    Cache,
    /// Lifted / safe-plan attempt.
    Lifted,
    /// Lineage construction (compiling tuples into a Boolean circuit).
    Compile,
    /// Circuit flattening into a `FlatProgram`.
    Flatten,
    /// Grounded exact evaluation (DPLL / WMC).
    Ground,
    /// Kernel batch evaluation.
    Eval,
    /// Karp–Luby sampling.
    Sample,
    /// Plan/dissociation bounds.
    Bounds,
    /// Timeout degradation to the approximate engine.
    Degrade,
    /// View refresh / recompute.
    Refresh,
}

impl Stage {
    /// Stable lowercase name used in rendered trees and Chrome trace JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Query => "query",
            Stage::Parse => "parse",
            Stage::Cache => "cache",
            Stage::Lifted => "lifted",
            Stage::Compile => "compile",
            Stage::Flatten => "flatten",
            Stage::Ground => "ground",
            Stage::Eval => "eval",
            Stage::Sample => "sample",
            Stage::Bounds => "bounds",
            Stage::Degrade => "degrade",
            Stage::Refresh => "refresh",
        }
    }

    /// Canonical cascade position: earlier stages have smaller ranks.
    pub fn rank(self) -> u32 {
        match self {
            Stage::Query => 0,
            Stage::Parse => 1,
            Stage::Cache => 2,
            Stage::Lifted => 3,
            Stage::Compile => 4,
            Stage::Flatten => 5,
            Stage::Ground => 6,
            Stage::Eval => 7,
            Stage::Sample => 8,
            Stage::Bounds => 9,
            Stage::Degrade => 10,
            Stage::Refresh => 11,
        }
    }
}

/// An attribute value attached to a span.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One finished span. `start_us` is relative to the tracer's origin instant;
/// `dur_us` is wall time. Parent links reconstruct the tree.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: Option<u32>,
    pub stage: Stage,
    pub start_us: u64,
    pub dur_us: u64,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

struct Inner {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Process-wide count of installed tracers; `span()`'s fast path when this is
/// zero is a single relaxed load.
static ENABLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<Active>> = const { RefCell::new(None) };
}

#[derive(Clone)]
struct Active {
    tracer: Tracer,
    stack: Vec<u32>,
}

/// True when any thread in the process currently has a tracer installed.
/// Instrumentation sites can use this to skip attribute *computation* (e.g.
/// kernel-stats deltas) — `span()` itself already short-circuits.
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) > 0
}

/// A thread-safe recorder for one query's span tree. Cloning shares the
/// underlying record buffer.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                origin: Instant::now(),
                next_id: AtomicU32::new(0),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    fn now_us(&self) -> u64 {
        self.inner
            .origin
            .elapsed()
            .as_micros()
            .min(u64::MAX as u128) as u64
    }

    fn push(&self, record: SpanRecord) {
        self.inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(record);
    }

    /// All finished spans, sorted by `(start_us, id)` so parents precede
    /// children with equal timestamps (a parent's id is smaller).
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut spans = self
            .inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        spans
    }

    /// Render the span tree as indented text with per-stage timings:
    ///
    /// ```text
    /// query 1234µs [engine=Grounded]
    ///   parse 2µs
    ///   cache 1µs [hit=false]
    /// ```
    pub fn render_text(&self) -> String {
        let records = self.records();
        if records.is_empty() {
            return "(no spans recorded)\n".to_owned();
        }
        let mut children: BTreeMap<Option<u32>, Vec<&SpanRecord>> = BTreeMap::new();
        for r in &records {
            children.entry(r.parent).or_default().push(r);
        }
        let mut out = String::new();
        let mut stack: Vec<(&SpanRecord, usize)> = records
            .iter()
            .rev()
            .filter(|r| r.parent.is_none())
            .map(|r| (r, 0))
            .collect();
        while let Some((r, depth)) = stack.pop() {
            for _ in 0..depth {
                out.push_str("  ");
            }
            let _ = write!(out, "{} {}µs", r.stage.name(), r.dur_us);
            if !r.attrs.is_empty() {
                out.push_str(" [");
                for (i, (k, v)) in r.attrs.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    let _ = write!(out, "{k}={v}");
                }
                out.push(']');
            }
            out.push('\n');
            if let Some(kids) = children.get(&Some(r.id)) {
                for kid in kids.iter().rev() {
                    stack.push((kid, depth + 1));
                }
            }
        }
        out
    }

    /// Render the trace as Chrome trace format (the JSON array form): load it
    /// in `chrome://tracing` or Perfetto. Timestamps and durations are in
    /// microseconds, as the format expects.
    pub fn render_chrome_json(&self) -> String {
        let mut out = String::from("[");
        for (i, r) in self.records().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"cascade\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{",
                r.stage.name(),
                r.start_us,
                r.dur_us
            );
            let mut first = true;
            if let Some(p) = r.parent {
                let _ = write!(out, "\"parent\":{p}");
                first = false;
            }
            let _ = write!(out, "{}\"span\":{}", if first { "" } else { "," }, r.id);
            for (k, v) in &r.attrs {
                match v {
                    AttrValue::U64(n) => {
                        let _ = write!(out, ",\"{}\":{}", escape_json(k), n);
                    }
                    AttrValue::F64(n) if n.is_finite() => {
                        let _ = write!(out, ",\"{}\":{}", escape_json(k), n);
                    }
                    AttrValue::F64(n) => {
                        let _ = write!(out, ",\"{}\":\"{}\"", escape_json(k), n);
                    }
                    AttrValue::Bool(b) => {
                        let _ = write!(out, ",\"{}\":{}", escape_json(k), b);
                    }
                    AttrValue::Str(s) => {
                        let _ = write!(out, ",\"{}\":\"{}\"", escape_json(k), escape_json(s));
                    }
                }
            }
            out.push_str("}}");
        }
        out.push(']');
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Check structural invariants of a finished span set: every parent exists,
/// child intervals nest inside their parent's interval, and within one parent
/// siblings appear in non-decreasing cascade rank order. Returns a
/// description of the first violation.
pub fn check_well_formed(records: &[SpanRecord]) -> Result<(), String> {
    let by_id: BTreeMap<u32, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    for r in records {
        let Some(pid) = r.parent else { continue };
        let Some(p) = by_id.get(&pid) else {
            return Err(format!("span {} has missing parent {}", r.id, pid));
        };
        let (cs, ce) = (r.start_us, r.start_us + r.dur_us);
        let (ps, pe) = (p.start_us, p.start_us + p.dur_us);
        if cs < ps || ce > pe {
            return Err(format!(
                "span {} [{cs},{ce}]µs not nested in parent {} [{ps},{pe}]µs",
                r.id, p.id
            ));
        }
    }
    let mut siblings: BTreeMap<Option<u32>, Vec<&SpanRecord>> = BTreeMap::new();
    for r in records {
        siblings.entry(r.parent).or_default().push(r);
    }
    for (parent, mut kids) in siblings {
        kids.sort_by_key(|r| (r.start_us, r.id));
        for pair in kids.windows(2) {
            if let [a, b] = pair {
                if a.stage.rank() > b.stage.rank() {
                    return Err(format!(
                        "stages out of cascade order under {:?}: {} before {}",
                        parent,
                        a.stage.name(),
                        b.stage.name()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Install `tracer` as the current tracer for this thread for the duration of
/// `f`. Spans created by `f` (and anything it calls on this thread) record
/// into it. Nests: the previous tracer (if any) is restored afterwards, also
/// on panic.
pub fn with_tracer<R>(tracer: &Tracer, f: impl FnOnce() -> R) -> R {
    let active = Active {
        tracer: tracer.clone(),
        stack: Vec::new(),
    };
    install(Some(active), f)
}

/// Runs `f` with `active` as this thread's tracing state, restoring the
/// previous state afterwards (also on panic).
fn install<R>(active: Option<Active>, f: impl FnOnce() -> R) -> R {
    struct Restore {
        prev: Option<Active>,
        counted: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| {
                *c.borrow_mut() = self.prev.take();
            });
            if self.counted {
                ENABLED.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
    let counted = active.is_some();
    let prev = CURRENT.with(|c| c.replace(active));
    if counted {
        ENABLED.fetch_add(1, Ordering::Relaxed);
    }
    let _restore = Restore { prev, counted };
    f()
}

/// A thread's tracing state — its tracer and innermost open span — carried
/// to another thread, so that spans opened there join the same tree under
/// that span. The pool carries one with every structured job submitted
/// while tracing is enabled.
pub struct TraceContext {
    active: Option<Active>,
}

impl TraceContext {
    /// Captures the current thread's tracer and innermost open span (or
    /// their absence).
    pub fn capture() -> TraceContext {
        let active = CURRENT.with(|c| {
            let c = c.borrow();
            let a = c.as_ref()?;
            let parent = a.stack.last().copied();
            // pdb-lint: allow(A1, reason = "traced submits only: a handle clone, a one-span stack")
            let (tracer, stack) = (a.tracer.clone(), parent.into_iter().collect());
            Some(Active { tracer, stack })
        });
        TraceContext { active }
    }

    /// Runs `f` with the captured state installed on this thread, restoring
    /// the thread's own state afterwards (also on panic).
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        install(self.active, f)
    }
}

/// Open a span for `stage`. If no tracer is installed on this thread the
/// returned guard is inert (and when no tracer is installed process-wide this
/// costs one relaxed atomic load). The span ends when the guard drops.
pub fn span(stage: Stage) -> SpanGuard {
    if ENABLED.load(Ordering::Relaxed) == 0 {
        return SpanGuard { active: None };
    }
    let opened = CURRENT.with(|c| {
        let mut slot = c.borrow_mut();
        let active = slot.as_mut()?;
        let tracer = active.tracer.clone();
        let id = tracer.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = active.stack.last().copied();
        active.stack.push(id);
        Some(OpenSpan {
            tracer,
            id,
            parent,
            stage,
            start_us: 0,
            attrs: Vec::new(),
        })
    });
    let opened = opened.map(|mut o| {
        o.start_us = o.tracer.now_us();
        o
    });
    SpanGuard { active: opened }
}

struct OpenSpan {
    tracer: Tracer,
    id: u32,
    parent: Option<u32>,
    stage: Stage,
    start_us: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// RAII guard for an open span. Attribute setters are no-ops when inert.
pub struct SpanGuard {
    active: Option<OpenSpan>,
}

impl SpanGuard {
    /// True when this guard is actually recording; use to skip expensive
    /// attribute computation.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    pub fn set_u64(&mut self, key: &'static str, v: u64) {
        if let Some(a) = self.active.as_mut() {
            a.attrs.push((key, AttrValue::U64(v)));
        }
    }

    pub fn set_f64(&mut self, key: &'static str, v: f64) {
        if let Some(a) = self.active.as_mut() {
            a.attrs.push((key, AttrValue::F64(v)));
        }
    }

    pub fn set_bool(&mut self, key: &'static str, v: bool) {
        if let Some(a) = self.active.as_mut() {
            a.attrs.push((key, AttrValue::Bool(v)));
        }
    }

    pub fn set_str(&mut self, key: &'static str, v: impl Into<String>) {
        if let Some(a) = self.active.as_mut() {
            a.attrs.push((key, AttrValue::Str(v.into())));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.active.take() else {
            return;
        };
        let end_us = open.tracer.now_us();
        // Pop our id from the thread's span stack (defensively: only if we
        // are on top, which we always are for properly nested guards).
        CURRENT.with(|c| {
            if let Some(active) = c.borrow_mut().as_mut() {
                if active.stack.last() == Some(&open.id) {
                    active.stack.pop();
                }
            }
        });
        open.tracer.push(SpanRecord {
            id: open.id,
            parent: open.parent,
            stage: open.stage,
            start_us: open.start_us,
            dur_us: end_us.saturating_sub(open.start_us),
            attrs: open.attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_without_tracer_is_inert() {
        let mut g = span(Stage::Query);
        assert!(!g.is_recording());
        g.set_u64("x", 1); // no-op, must not panic
    }

    #[test]
    fn spans_record_a_nested_tree() {
        let tracer = Tracer::new();
        with_tracer(&tracer, || {
            let mut root = span(Stage::Query);
            root.set_str("engine", "Lifted");
            {
                let _p = span(Stage::Parse);
            }
            {
                let mut c = span(Stage::Cache);
                c.set_bool("hit", false);
            }
        });
        let records = tracer.records();
        assert_eq!(records.len(), 3);
        let root = records.iter().find(|r| r.stage == Stage::Query).unwrap();
        assert_eq!(root.parent, None);
        let parse = records.iter().find(|r| r.stage == Stage::Parse).unwrap();
        assert_eq!(parse.parent, Some(root.id));
        check_well_formed(&records).unwrap();
        let text = tracer.render_text();
        assert!(text.starts_with("query "));
        assert!(text.contains("engine=Lifted"));
        assert!(text.contains("\n  parse "));
        assert!(text.contains("hit=false"));
    }

    #[test]
    fn tracer_restores_previous_on_exit_and_panic() {
        let outer = Tracer::new();
        with_tracer(&outer, || {
            let inner = Tracer::new();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_tracer(&inner, || {
                    let _g = span(Stage::Parse);
                    panic!("boom");
                })
            }));
            assert!(result.is_err());
            // Outer tracer must be current again.
            let _g = span(Stage::Cache);
        });
        assert!(outer.records().iter().any(|r| r.stage == Stage::Cache));
        assert!(!tracing_enabled());
    }

    #[test]
    fn chrome_json_is_minimally_sane() {
        let tracer = Tracer::new();
        with_tracer(&tracer, || {
            let mut root = span(Stage::Query);
            root.set_str("query", "exists x. R(x) & \"quoted\"");
            let _c = span(Stage::Compile);
        });
        let json = tracer.render_chrome_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert_eq!(json.matches("\"name\"").count(), 2);
    }

    #[test]
    fn well_formedness_detects_violations() {
        let ok = vec![
            SpanRecord {
                id: 0,
                parent: None,
                stage: Stage::Query,
                start_us: 0,
                dur_us: 100,
                attrs: Vec::new(),
            },
            SpanRecord {
                id: 1,
                parent: Some(0),
                stage: Stage::Parse,
                start_us: 10,
                dur_us: 20,
                attrs: Vec::new(),
            },
        ];
        check_well_formed(&ok).unwrap();

        let mut escaped = ok.clone();
        escaped[1].dur_us = 500; // child interval escapes the parent
        assert!(check_well_formed(&escaped).is_err());

        let mut orphan = ok.clone();
        orphan[1].parent = Some(42);
        assert!(check_well_formed(&orphan).is_err());

        let mut out_of_order = ok.clone();
        out_of_order[1].stage = Stage::Cache;
        out_of_order.push(SpanRecord {
            id: 2,
            parent: Some(0),
            stage: Stage::Parse, // parse after cache: wrong cascade order
            start_us: 40,
            dur_us: 10,
            attrs: Vec::new(),
        });
        assert!(check_well_formed(&out_of_order).is_err());
    }
}
