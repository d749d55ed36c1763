//! Hierarchical span traces and the Chrome trace-event exporter.
//!
//! The flat stage registry answers "how much did stage X cost in total";
//! a *trace* answers "what ran inside what". When a [`crate::Registry`]
//! is built with [`crate::Registry::with_trace`], spans opened through
//! [`crate::Recorder::span_at`] with a traced parent additionally log one
//! [`TraceEvent`] each, forming a tree:
//!
//! ```text
//! run
//! ├── build.ecosystem
//! │   └── datagen.*            (stage spans)
//! ├── analyze.scan
//! │   └── analyze.pass.<name>  (group per pass)
//! │       └── shard spans      (one per shard, indexed)
//! └── report.*
//! ```
//!
//! Parenting is explicit: a parent span hands its [`SpanCtx`] to children
//! (an opaque id, [`SpanCtx::NONE`] when tracing is off), so the tree
//! shape is decided by the instrumentation points, not by thread-local
//! ambient state. That is what makes the *structure* of a trace — names,
//! nesting, event counts — deterministic across thread counts: the same
//! spans open with the same parents and indexes no matter which worker
//! runs them, and [`TraceSnapshot`] sorts siblings by `(name, index)`
//! rather than by completion time.
//!
//! [`TraceSnapshot::render_chrome_json`] emits the Chrome trace-event
//! format (schema `idnre-trace/1`) loadable in `about:tracing`, Perfetto
//! or `chrome://tracing`; [`TraceSnapshot::render_structure`] emits the
//! timing-free skeleton that determinism tests compare byte-for-byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Schema identifier embedded in the Chrome trace-event JSON export.
pub const TRACE_SCHEMA: &str = "idnre-trace/1";

/// Reserved id meaning "not traced"; spans parented here log nothing.
const NONE_ID: u64 = 0;
/// Reserved id of the implicit root ("run") node.
const ROOT_ID: u64 = 1;

/// An opaque handle to a position in the span tree, passed from parent
/// spans to their children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx(u64);

impl SpanCtx {
    /// The untraced context: children parented here log no events.
    pub const NONE: SpanCtx = SpanCtx(NONE_ID);
    /// The implicit root of the trace ("run"); top-level pipeline spans
    /// parent here.
    pub const ROOT: SpanCtx = SpanCtx(ROOT_ID);

    pub(crate) fn from_id(id: u64) -> Self {
        SpanCtx(id)
    }

    pub(crate) fn id(self) -> u64 {
        self.0
    }

    /// Whether events parented to this context will be logged.
    pub fn is_traced(self) -> bool {
        self.0 != NONE_ID
    }
}

/// One completed span in the trace.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Unique id of this span (children reference it as `parent`).
    pub id: u64,
    /// Id of the enclosing span ([`SpanCtx::ROOT`]'s id for top level).
    pub parent: u64,
    /// Stage name.
    pub name: String,
    /// Sibling index (shard number, stage position) used for the
    /// deterministic sibling order; 0 when a name appears once.
    pub index: u64,
    /// Structural group node (e.g. one per pass): its timing is the
    /// envelope of its children, recomputed at snapshot time.
    pub group: bool,
    /// Start offset from the trace origin, in nanoseconds.
    pub start_nanos: u64,
    /// Duration, in nanoseconds.
    pub duration_nanos: u64,
}

/// The shared, append-only event log behind a tracing registry.
#[derive(Debug)]
pub struct TraceLog {
    origin: Instant,
    next_id: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceLog {
    /// Creates an empty log; span offsets are measured from this instant.
    pub fn new() -> Self {
        TraceLog {
            origin: Instant::now(),
            // 0 and 1 are reserved for NONE and ROOT.
            next_id: AtomicU64::new(ROOT_ID + 1),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The instant offsets are measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Allocates a fresh span id.
    pub(crate) fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends a completed span.
    pub(crate) fn push(&self, event: TraceEvent) {
        self.events.lock().expect("trace log poisoned").push(event);
    }

    /// Creates a structural group node under `parent` and returns its
    /// context for parenting children. Group timing is recomputed from
    /// the children at snapshot time, so the node can be created eagerly
    /// (e.g. before fan-out) without distorting the picture.
    pub fn group(&self, name: &str, parent: SpanCtx, index: u64) -> SpanCtx {
        if !parent.is_traced() {
            return SpanCtx::NONE;
        }
        let id = self.alloc_id();
        self.push(TraceEvent {
            id,
            parent: parent.id(),
            name: name.to_string(),
            index,
            group: true,
            start_nanos: 0,
            duration_nanos: 0,
        });
        SpanCtx::from_id(id)
    }

    /// Number of events logged so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace log poisoned").len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Assembles the events into a tree snapshot.
    pub fn snapshot(&self) -> TraceSnapshot {
        TraceSnapshot::build(&self.events.lock().expect("trace log poisoned"))
    }
}

/// One node of the assembled span tree.
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// Stage name (`run` for the synthetic root).
    pub name: String,
    /// Sibling index.
    pub index: u64,
    /// Start offset from the trace origin, in nanoseconds.
    pub start_nanos: u64,
    /// Duration, in nanoseconds.
    pub duration_nanos: u64,
    /// Children, sorted by `(name, index)`.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Total node count of this subtree, including `self`.
    pub fn event_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceNode::event_count)
            .sum::<usize>()
    }

    /// The child named `name`, if any.
    pub fn child(&self, name: &str) -> Option<&TraceNode> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// A point-in-time tree of every span logged so far.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// The synthetic `run` root; real spans hang below it.
    pub root: TraceNode,
}

impl TraceSnapshot {
    fn build(events: &[TraceEvent]) -> TraceSnapshot {
        // Group children by parent id. Events whose parent never logged
        // (e.g. a child outliving a parent that was never closed) attach
        // to the root rather than vanish.
        let known: std::collections::HashSet<u64> = events.iter().map(|e| e.id).collect();
        let mut by_parent: std::collections::HashMap<u64, Vec<&TraceEvent>> =
            std::collections::HashMap::new();
        for event in events {
            let parent = if event.parent == ROOT_ID || known.contains(&event.parent) {
                event.parent
            } else {
                ROOT_ID
            };
            by_parent.entry(parent).or_default().push(event);
        }
        let mut root = Self::assemble(ROOT_ID, "run", 0, 0, 0, &by_parent);
        Self::envelope(&mut root);
        TraceSnapshot { root }
    }

    fn assemble(
        id: u64,
        name: &str,
        index: u64,
        start_nanos: u64,
        duration_nanos: u64,
        by_parent: &std::collections::HashMap<u64, Vec<&TraceEvent>>,
    ) -> TraceNode {
        let mut children: Vec<TraceNode> = by_parent
            .get(&id)
            .map(|kids| {
                kids.iter()
                    .map(|e| {
                        Self::assemble(
                            e.id,
                            &e.name,
                            e.index,
                            e.start_nanos,
                            e.duration_nanos,
                            by_parent,
                        )
                    })
                    .collect()
            })
            .unwrap_or_default();
        children.sort_by(|a, b| (a.name.as_str(), a.index).cmp(&(b.name.as_str(), b.index)));
        TraceNode {
            name: name.to_string(),
            index,
            start_nanos,
            duration_nanos,
            children,
        }
    }

    /// Recomputes group/root timing as the envelope of the children, so
    /// eagerly-created structural nodes span exactly what ran inside
    /// them.
    fn envelope(node: &mut TraceNode) {
        for child in &mut node.children {
            Self::envelope(child);
        }
        if node.duration_nanos == 0 && !node.children.is_empty() {
            let start = node
                .children
                .iter()
                .map(|c| c.start_nanos)
                .min()
                .unwrap_or(0);
            let end = node
                .children
                .iter()
                .map(|c| c.start_nanos + c.duration_nanos)
                .max()
                .unwrap_or(start);
            node.start_nanos = start;
            node.duration_nanos = end - start;
        }
    }

    /// Renders the Chrome trace-event JSON document (`idnre-trace/1`).
    ///
    /// Layout: `{"schema":"idnre-trace/1","traceEvents":[...]}` where
    /// each event is a complete ("X") event with microsecond `ts`/`dur`.
    /// Chrome and Perfetto ignore the extra top-level `schema` key.
    /// Events appear in deterministic depth-first `(name, index)` order.
    pub fn render_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"");
        out.push_str(TRACE_SCHEMA);
        out.push_str("\",\"traceEvents\":[");
        let mut first = true;
        Self::push_chrome_events(&self.root, 0, &mut out, &mut first);
        out.push_str("]}");
        out
    }

    fn push_chrome_events(node: &TraceNode, depth: usize, out: &mut String, first: &mut bool) {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("{\"name\":");
        crate::render::push_json_string(out, &node.name);
        out.push_str(&format!(
            ",\"cat\":\"idnre\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\
             \"args\":{{\"index\":{},\"depth\":{}}}}}",
            node.start_nanos / 1_000,
            node.duration_nanos / 1_000,
            node.index,
            depth,
        ));
        for child in &node.children {
            Self::push_chrome_events(child, depth + 1, out, first);
        }
    }

    /// Renders the timing-free skeleton of the tree: one line per span,
    /// indented by depth, `name#index` plus the child count. Two runs of
    /// the same pipeline configuration must produce byte-identical output
    /// here regardless of thread count — determinism tests compare this
    /// rendering.
    pub fn render_structure(&self) -> String {
        let mut out = String::new();
        Self::push_structure(&self.root, 0, &mut out);
        out
    }

    fn push_structure(node: &TraceNode, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{}#{} ({} children)\n",
            node.name,
            node.index,
            node.children.len()
        ));
        for child in &node.children {
            Self::push_structure(child, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64, parent: u64, name: &str, index: u64, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            id,
            parent,
            name: name.to_string(),
            index,
            group: false,
            start_nanos: start,
            duration_nanos: dur,
        }
    }

    #[test]
    fn span_ctx_reserved_values() {
        assert!(!SpanCtx::NONE.is_traced());
        assert!(SpanCtx::ROOT.is_traced());
    }

    #[test]
    fn snapshot_builds_a_sorted_tree() {
        let log = TraceLog::new();
        // Push out of order; sibling sort is by (name, index).
        log.push(event(3, 1, "b.stage", 0, 50, 10));
        log.push(event(2, 1, "a.stage", 0, 10, 30));
        log.push(event(4, 2, "a.child", 1, 20, 5));
        log.push(event(5, 2, "a.child", 0, 12, 5));
        let snap = log.snapshot();
        assert_eq!(snap.root.name, "run");
        let names: Vec<_> = snap.root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a.stage", "b.stage"]);
        let kids = &snap.root.children[0].children;
        assert_eq!(kids.len(), 2);
        assert_eq!((kids[0].index, kids[1].index), (0, 1));
        assert_eq!(snap.root.event_count(), 5);
    }

    #[test]
    fn group_envelope_covers_children() {
        let log = TraceLog::new();
        let group = log.group("scan.pass", SpanCtx::ROOT, 0);
        assert!(group.is_traced());
        log.push(event(100, group.id(), "shard", 0, 10, 20));
        log.push(event(101, group.id(), "shard", 1, 25, 15));
        let snap = log.snapshot();
        let pass = snap.root.child("scan.pass").unwrap();
        assert_eq!(pass.start_nanos, 10);
        assert_eq!(pass.duration_nanos, 30); // 10 → 40
    }

    #[test]
    fn orphans_attach_to_root() {
        let log = TraceLog::new();
        log.push(event(7, 999, "lost.stage", 0, 0, 1));
        let snap = log.snapshot();
        assert!(snap.root.child("lost.stage").is_some());
    }

    #[test]
    fn groups_under_untraced_parents_log_nothing() {
        let log = TraceLog::new();
        let ctx = log.group("hidden", SpanCtx::NONE, 0);
        assert!(!ctx.is_traced());
        assert!(log.is_empty());
    }

    #[test]
    fn chrome_json_has_schema_and_events() {
        let log = TraceLog::new();
        log.push(event(2, 1, "demo.stage", 0, 1_000, 2_000));
        let json = log.snapshot().render_chrome_json();
        assert!(json.starts_with("{\"schema\":\"idnre-trace/1\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"name\":\"demo.stage\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1,\"dur\":2"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn structure_rendering_is_timing_free() {
        let a = TraceLog::new();
        a.push(event(2, 1, "stage", 0, 10, 100));
        let b = TraceLog::new();
        b.push(event(2, 1, "stage", 0, 999, 5));
        assert_eq!(
            a.snapshot().render_structure(),
            b.snapshot().render_structure()
        );
        assert!(a
            .snapshot()
            .render_structure()
            .contains("stage#0 (0 children)"));
    }
}
