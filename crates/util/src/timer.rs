//! Per-component stopwatches.
//!
//! The paper reports per-component time breakdowns: Figure 7 (average
//! embedding time per news document) and Table VIII (query processing time
//! per component: NLP / NE / NS). [`ComponentTimer`] accumulates wall-clock
//! time under string keys and reports means over a counted number of work
//! items, which is exactly the shape those tables need.

use std::time::Duration;

use crate::FxHashMap;

/// Accumulates elapsed time per named component.
#[derive(Debug, Default, Clone)]
pub struct ComponentTimer {
    totals: FxHashMap<&'static str, Duration>,
    counts: FxHashMap<&'static str, u64>,
}

impl ComponentTimer {
    /// Create an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time a closure under `component`, counting one work item.
    #[cfg(test)]
    pub(crate) fn time<R>(&mut self, component: &'static str, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let out = f();
        self.record(component, start.elapsed());
        out
    }

    /// Record an externally measured duration (one work item).
    pub fn record(&mut self, component: &'static str, elapsed: Duration) {
        *self.totals.entry(component).or_default() += elapsed;
        *self.counts.entry(component).or_default() += 1;
    }

    /// Record a duration that covers `items` work items.
    pub fn record_batch(&mut self, component: &'static str, elapsed: Duration, items: u64) {
        *self.totals.entry(component).or_default() += elapsed;
        *self.counts.entry(component).or_default() += items;
    }

    /// Total accumulated time for a component.
    pub fn total(&self, component: &str) -> Duration {
        self.totals.get(component).copied().unwrap_or_default()
    }

    /// Number of recorded work items for a component.
    pub fn count(&self, component: &str) -> u64 {
        self.counts.get(component).copied().unwrap_or_default()
    }

    /// Mean time per work item for a component, or zero when unrecorded.
    #[cfg(test)]
    pub(crate) fn mean(&self, component: &str) -> Duration {
        let n = self.count(component);
        if n == 0 {
            Duration::ZERO
        } else {
            self.total(component) / n as u32
        }
    }

    /// Merge another timer's accumulations into this one.
    pub fn merge(&mut self, other: &ComponentTimer) {
        for (k, v) in &other.totals {
            *self.totals.entry(k).or_default() += *v;
        }
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_default() += *v;
        }
    }

    /// Component names observed so far, sorted for stable reporting.
    #[cfg(any(test, feature = "serde"))]
    pub(crate) fn components(&self) -> Vec<&'static str> {
        let mut keys: Vec<_> = self.totals.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}

/// Render as `{component: {"total_ns", "count"}, …}` with components in
/// sorted order, the wire shape of per-request timer reports.
#[cfg(feature = "serde")]
impl serde::Serialize for ComponentTimer {
    fn serialize_value(&self) -> serde::Value {
        let fields = self
            .components()
            .into_iter()
            .map(|c| {
                let total_ns = u64::try_from(self.total(c).as_nanos()).unwrap_or(u64::MAX);
                let entry = serde::Value::Object(vec![
                    ("total_ns".to_string(), total_ns.serialize_value()),
                    ("count".to_string(), self.count(c).serialize_value()),
                ]);
                (c.to_string(), entry)
            })
            .collect();
        serde::Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates_and_counts() {
        let mut t = ComponentTimer::new();
        let v = t.time("ne", || 21 * 2);
        assert_eq!(v, 42);
        t.time("ne", || ());
        assert_eq!(t.count("ne"), 2);
        assert!(t.total("ne") >= Duration::ZERO);
    }

    #[test]
    fn unknown_component_is_zero() {
        let t = ComponentTimer::new();
        assert_eq!(t.total("nope"), Duration::ZERO);
        assert_eq!(t.count("nope"), 0);
        assert_eq!(t.mean("nope"), Duration::ZERO);
    }

    #[test]
    fn record_batch_divides_mean() {
        let mut t = ComponentTimer::new();
        t.record_batch("nlp", Duration::from_millis(100), 10);
        assert_eq!(t.mean("nlp"), Duration::from_millis(10));
        assert_eq!(t.count("nlp"), 10);
    }

    #[test]
    fn merge_combines_streams() {
        let mut a = ComponentTimer::new();
        a.record("x", Duration::from_millis(5));
        let mut b = ComponentTimer::new();
        b.record("x", Duration::from_millis(7));
        b.record("y", Duration::from_millis(1));
        a.merge(&b);
        assert_eq!(a.total("x"), Duration::from_millis(12));
        assert_eq!(a.count("x"), 2);
        assert_eq!(a.count("y"), 1);
        assert_eq!(a.components(), vec!["x", "y"]);
    }
}
