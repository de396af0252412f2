//! Hierarchical spans: RAII guards opened by [`crate::span!`] and the
//! arena the flight recorder keeps them in.
//!
//! Spans mark *stages* — `flow.prepare`, `flow.synthesize` — and are meant
//! to be opened from the orchestration thread, which is single-threaded in
//! every flow this workspace runs (workers inside a stage record counters,
//! not spans). Nesting follows lexical scope: a guard opened while another
//! is live becomes its child, and dropping the guard closes the span.
//!
//! By default a span records only its name and position in the tree, so
//! the serialized trace is byte-identical across reruns. The `wall-clock`
//! feature additionally stamps each span with its monotonic-clock duration
//! in nanoseconds, trading that byte-level determinism for timing.

/// One node of the reported span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Stage name, e.g. `"flow.prepare"`.
    pub name: String,
    /// Monotonic-clock duration in nanoseconds. Always `None` in default
    /// builds; `Some` only when the `wall-clock` feature is enabled.
    pub nanos: Option<u64>,
    /// Child spans in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Depth-first pre-order walk over this subtree's names.
    pub fn names_preorder<'a>(&'a self, out: &mut Vec<&'a str>) {
        out.push(&self.name);
        for child in &self.children {
            child.names_preorder(out);
        }
    }
}

/// Flat storage for spans while they are being recorded.
#[derive(Debug, Default)]
pub(crate) struct SpanArena {
    nodes: Vec<RawSpan>,
    /// Indices of currently open spans, innermost last.
    stack: Vec<usize>,
}

#[derive(Debug)]
struct RawSpan {
    name: &'static str,
    parent: Option<usize>,
    nanos: Option<u64>,
}

impl SpanArena {
    /// Opens a span under the innermost open span and returns its index.
    pub(crate) fn open(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied();
        let index = self.nodes.len();
        self.nodes.push(RawSpan {
            name,
            parent,
            nanos: None,
        });
        self.stack.push(index);
        index
    }

    /// Closes the span at `index`. Guards drop in LIFO order under normal
    /// control flow; if an outer guard drops first (e.g. a forgotten inner
    /// guard), every span opened after it is closed with it so the tree
    /// stays well formed.
    pub(crate) fn close(&mut self, index: usize, nanos: Option<u64>) {
        if let Some(span) = self.nodes.get_mut(index) {
            span.nanos = nanos;
        }
        while let Some(top) = self.stack.pop() {
            if top == index {
                break;
            }
        }
    }

    /// Builds the reported tree: every root span with its children, in
    /// open order.
    pub(crate) fn to_tree(&self) -> Vec<SpanNode> {
        // Convert the flat parent-pointer form into nested nodes. Children
        // are attached in index order, which is open order.
        let mut built: Vec<SpanNode> = self
            .nodes
            .iter()
            .map(|raw| SpanNode {
                name: raw.name.to_owned(),
                nanos: raw.nanos,
                children: Vec::new(),
            })
            .collect();
        // Walk backwards so each node's children are complete before it is
        // moved into its own parent.
        let mut roots = Vec::new();
        for index in (0..self.nodes.len()).rev() {
            let node = std::mem::replace(
                &mut built[index],
                SpanNode {
                    name: String::new(),
                    nanos: None,
                    children: Vec::new(),
                },
            );
            match self.nodes[index].parent {
                Some(parent) => built[parent].children.insert(0, node),
                None => roots.insert(0, node),
            }
        }
        roots
    }
}

/// RAII guard returned by [`crate::span!`]; closes the span on drop.
///
/// Inert (records nothing) when opened outside a capture or while its
/// spans are paused. The guard holds the recorder that opened the span,
/// so it closes in the right arena even across scope changes.
#[derive(Debug)]
#[must_use = "a span guard closes its span when dropped; binding it to _ closes immediately"]
pub struct SpanGuard {
    pub(crate) slot: Option<(crate::JobRecorder, usize)>,
    #[cfg(feature = "wall-clock")]
    pub(crate) start: std::time::Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((job, index)) = self.slot.take() {
            #[cfg(feature = "wall-clock")]
            let nanos = Some(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            #[cfg(not(feature = "wall-clock"))]
            let nanos = None;
            job.lock().spans.close(index, nanos);
        }
    }
}

/// Opens a hierarchical stage span; the returned [`SpanGuard`] closes it
/// when dropped.
///
/// ```
/// let _guard = varitune_trace::span!("flow.prepare");
/// // ... stage body ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::open_span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_builds_nested_tree() {
        let mut arena = SpanArena::default();
        let a = arena.open("a");
        let b = arena.open("b");
        arena.close(b, None);
        let c = arena.open("c");
        arena.close(c, None);
        arena.close(a, None);
        let d = arena.open("d");
        arena.close(d, None);
        let tree = arena.to_tree();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].name, "a");
        let kids: Vec<_> = tree[0].children.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(kids, ["b", "c"]);
        assert_eq!(tree[1].name, "d");
        assert!(tree[1].children.is_empty());
    }

    #[test]
    fn out_of_order_close_keeps_tree_well_formed() {
        let mut arena = SpanArena::default();
        let a = arena.open("a");
        let _b = arena.open("b"); // never closed explicitly
        arena.close(a, None); // closes b with it
        let c = arena.open("c");
        arena.close(c, None);
        let tree = arena.to_tree();
        // c is a root, not a child of the leaked b.
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[1].name, "c");
    }
}
