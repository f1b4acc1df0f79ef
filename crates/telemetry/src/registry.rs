//! Name → metric registry with deterministic, ordered snapshots.
//!
//! Metric names and histogram bounds are interned process-wide: every
//! registry, and every snapshot taken of it, shares one allocation per
//! distinct name or bound set. A sweep builds a registry per cell and
//! may keep each cell's snapshots, so a retained snapshot holds only
//! reference counts and values.

use crate::metric::{Counter, Gauge, HistogramSnapshot, LatencyHistogram};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

static NAMES: Mutex<BTreeSet<Arc<str>>> = Mutex::new(BTreeSet::new());

/// The shared copy of `value` in `set`, added on first use. The set
/// grows only with the number of distinct values.
pub(crate) fn intern<T: Ord + ?Sized>(set: &Mutex<BTreeSet<Arc<T>>>, value: &T) -> Arc<T>
where
    Arc<T>: for<'a> From<&'a T>,
{
    let mut set = set.lock().expect("intern set poisoned");
    if let Some(shared) = set.get(value) {
        return shared.clone();
    }
    let shared = Arc::from(value);
    set.insert(Arc::clone(&shared));
    shared
}

/// The process-wide shared copy of the metric name `name`.
fn intern_name(name: &str) -> Arc<str> {
    intern(&NAMES, name)
}

/// A registered metric handle (shared with the component that updates
/// it).
#[derive(Clone, Debug)]
pub enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(LatencyHistogram),
}

/// Shared, cloneable registry mapping stable dotted names to metric
/// handles. Names are kept in a `BTreeMap`, so snapshots are always
/// lexicographically ordered — the property that makes JSON exports and
/// determinism fingerprints byte-stable.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<Arc<str>, Metric>>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a clone of `counter` under `name`. Re-registering a
    /// name replaces the previous handle (components are re-registered
    /// when devices are rebuilt between capacity/cycle runs).
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        self.insert(name, Metric::Counter(counter.clone()));
    }

    pub fn register_gauge(&self, name: &str, gauge: &Gauge) {
        self.insert(name, Metric::Gauge(gauge.clone()));
    }

    pub fn register_histogram(&self, name: &str, hist: &LatencyHistogram) {
        self.insert(name, Metric::Histogram(hist.clone()));
    }

    fn insert(&self, name: &str, metric: Metric) {
        self.metrics
            .lock()
            .expect("registry poisoned")
            .insert(intern_name(name), metric);
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("registry poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Plain-data snapshot of every registered metric, ordered by name.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("registry poisoned");
        Snapshot {
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    let value = match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// Snapshotted value of one metric. A histogram is boxed so that the
/// common counter entries stay two words wide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(Box<HistogramSnapshot>),
}

/// Ordered, plain-data snapshot of a whole registry at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` pairs sorted by name; names are interned (see the
    /// [module documentation](self)).
    pub metrics: Vec<(Arc<str>, MetricValue)>,
}

impl Snapshot {
    /// Counter value by exact name, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(n, _)| **n == *name)
            .and_then(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
    }

    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.metrics
            .iter()
            .find(|(n, _)| **n == *name)
            .and_then(|(_, v)| match v {
                MetricValue::Gauge(g) => Some(*g),
                _ => None,
            })
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.metrics
            .iter()
            .find(|(n, _)| **n == *name)
            .and_then(|(_, v)| match v {
                MetricValue::Histogram(h) => Some(&**h),
                _ => None,
            })
    }

    /// New snapshot with every metric name prefixed (`prefix.name`);
    /// used to merge several systems' metrics into one per-cell bundle.
    pub fn prefixed(&self, prefix: &str) -> Snapshot {
        Snapshot {
            metrics: self
                .metrics
                .iter()
                .map(|(n, v)| (intern_name(&format!("{prefix}.{n}")), v.clone()))
                .collect(),
        }
    }

    /// Merges snapshots (already disjointly named) into one, re-sorted
    /// by name.
    pub fn merged(parts: &[Snapshot]) -> Snapshot {
        let mut metrics: Vec<(Arc<str>, MetricValue)> = parts
            .iter()
            .flat_map(|s| s.metrics.iter().cloned())
            .collect();
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_name_sorted_regardless_of_registration_order() {
        let reg = Registry::new();
        let b = Counter::new();
        let a = Counter::new();
        reg.register_counter("z.last", &b);
        reg.register_counter("a.first", &a);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|(n, _)| &**n).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
    }

    #[test]
    fn snapshot_sees_later_updates_through_shared_handle() {
        let reg = Registry::new();
        let mut c = Counter::new();
        reg.register_counter("x.total", &c);
        c += 5;
        assert_eq!(reg.snapshot().counter("x.total"), Some(5));
        c += 1;
        assert_eq!(reg.snapshot().counter("x.total"), Some(6));
    }

    #[test]
    fn reregistering_replaces_handle() {
        let reg = Registry::new();
        let old = Counter::new();
        old.add(99);
        reg.register_counter("x", &old);
        let fresh = Counter::new();
        reg.register_counter("x", &fresh);
        assert_eq!(reg.snapshot().counter("x"), Some(0));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn prefixed_and_merged() {
        let reg = Registry::new();
        let c = Counter::new();
        c.add(1);
        reg.register_counter("hits", &c);
        let s = reg.snapshot().prefixed("lcp");
        assert_eq!(s.counter("lcp.hits"), Some(1));
        let merged = Snapshot::merged(&[s.clone(), reg.snapshot().prefixed("compresso")]);
        assert_eq!(merged.metrics.len(), 2);
        assert_eq!(&*merged.metrics[0].0, "compresso.hits");
    }
}
