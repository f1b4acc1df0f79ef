//! Unified observability layer for the Compresso reproduction.
//!
//! Every simulator crate (mem-sim, cache-sim, compresso, oskit) keeps
//! its event counts in shared-handle [`Counter`]s, [`Gauge`]s and
//! [`LatencyHistogram`]s. Components register clones of their handles
//! into a [`Registry`] under stable dotted names
//! (`compresso.page_overflow.total`, `dram.bank03.latency`, ...); the
//! experiment harness snapshots the registry — once at the end of a run
//! and periodically via an [`EpochRecorder`] — into plain, ordered
//! [`Snapshot`]s that serialize deterministically. A component declares
//! a counter set once with [`counters!`], which generates its plain
//! snapshot struct, its live handle struct and their registration.
//!
//! The crate is zero-dependency by design: JSON is hand-rolled, and a
//! minimal depth-bounded [`json`] parser backs the schema checker and
//! round-trip tests.
//!
//! # Example
//!
//! ```
//! use compresso_telemetry::{Counter, LatencyHistogram, Registry};
//!
//! let reg = Registry::new();
//! let mut hits = Counter::new();
//! reg.register_counter("cache.l1.hit.total", &hits);
//! hits += 3;
//!
//! let lat = LatencyHistogram::cycles();
//! reg.register_histogram("dram.bank00.latency", &lat);
//! lat.record(42);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("cache.l1.hit.total"), Some(3));
//! ```

#![forbid(unsafe_code)]

mod counters;
pub mod epoch;
pub mod export;
pub mod json;
pub mod metric;
pub mod registry;
pub mod schema;

pub use epoch::{Epoch, EpochRecorder, MetricsReport};
pub use export::{render_doc, write_doc};
pub use json::JsonValue;
pub use metric::{Counter, Gauge, HistogramSnapshot, LatencyHistogram};
pub use registry::{Metric, MetricValue, Registry, Snapshot};
pub use schema::{validate_metrics_doc, CellMetrics, MetricsDoc, METRICS_SCHEMA};
