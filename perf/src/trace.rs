//! Spans, recorded by the benchmark around its calls into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`. Spans are kept
//! in memory and written out once, when the run ends. The traced pass
//! drives one operation at a time, so a span belongs to the operation
//! whose round trip contains it and its parent is the innermost span
//! that contains it in time — which holds across threads (the router's
//! handler contains its shards' handlers) without passing an identifier
//! through the program under test.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent in the resolved list.
    pub parent: Option<usize>,
    pub op_id: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    /// Off: [`Tracer::span`] runs its closure and records nothing, so
    /// one deployment serves both the untraced reference phase and the
    /// traced phase.
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        // Publishes nothing but itself: a span racing the switch is
        // either recorded or not, and both are fine between phases.
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span that began at `start_ns` and ends now. `op_id` is
    /// known only to the client side; server-side spans pass `None` and
    /// get theirs by containment.
    pub fn record(&self, name: &'static str, start_ns: u64, op_id: Option<u64>) {
        if self.on.load(Ordering::Relaxed) {
            let end_ns = self.now_ns();
            self.spans.lock().push(Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                op_id,
            });
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &'static str, op_id: Option<u64>, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        self.record(name, start_ns, op_id);
        out
    }

    /// Take every span recorded so far, parents and operations resolved.
    pub fn drain(&self) -> Vec<Span> {
        resolve(std::mem::take(&mut *self.spans.lock()))
    }
}

/// Order spans by start (outermost first on ties) and give each the
/// innermost earlier span that contains it as parent, inheriting the
/// operation from the root it hangs under.
pub fn resolve(mut spans: Vec<Span>) -> Vec<Span> {
    spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = open.last() {
            if spans[top].end_ns >= spans[i].end_ns {
                break;
            }
            open.pop();
        }
        if let Some(&top) = open.last() {
            spans[i].parent = Some(top);
            if spans[i].op_id.is_none() {
                spans[i].op_id = spans[top].op_id;
            }
        }
        open.push(i);
    }
    spans
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One JSON object per line: `{"name", "start_ns", "end_ns", "parent",
/// "op_id"}`, `parent` being the line number (from 0) of the parent.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.op_id)
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, op_id: Option<u64>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op_id,
        }
    }

    #[test]
    fn containment_gives_parents_operations_and_self_time() {
        // Two operations; the second fans out to two overlapping shards.
        let spans = resolve(vec![
            span("shard", 130, 170, None),
            span("roundtrip", 0, 50, Some(1)),
            span("dispatch", 10, 40, None),
            span("roundtrip", 100, 200, Some(2)),
            span("shard", 120, 160, None),
            span("router", 110, 190, None),
        ]);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "roundtrip",
                "dispatch",
                "roundtrip",
                "router",
                "shard",
                "shard"
            ]
        );
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None, Some(2), Some(3), Some(3)]);
        let ops: Vec<_> = spans.iter().map(|s| s.op_id).collect();
        assert_eq!(ops, [Some(1), Some(1), Some(2), Some(2), Some(2), Some(2)]);
        // roundtrip 1: 50 - 30; router: 80 - union(120..170) = 30.
        assert_eq!(self_times_ns(&spans), [20, 30, 20, 30, 40, 40]);
    }

    #[test]
    fn tracer_records_only_while_on() {
        let t = Tracer::new();
        assert_eq!(t.span("a", None, || 1), 1);
        assert!(t.drain().is_empty());
        t.set_on(true);
        t.span("outer", Some(7), || t.span("inner", None, || ()));
        let spans = t.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[1].name), ("outer", "inner"));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op_id, Some(7));
        assert!(t.drain().is_empty(), "drain empties the buffer");
    }
}
