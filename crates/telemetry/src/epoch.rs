//! Epoch time-series: periodic registry snapshots keyed by simulated
//! time (cycles for timing runs, pages for static studies).

use crate::registry::{Registry, Snapshot};
use std::collections::BTreeMap;

/// One periodic snapshot of every registered metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Epoch {
    /// Simulated tick (cycle / page index) at which the epoch closed.
    pub tick: u64,
    pub snapshot: Snapshot,
}

/// Snapshots a [`Registry`] every `every` simulated ticks.
///
/// Driven by the simulation loop calling [`EpochRecorder::observe`]
/// with the current simulated time; because the trigger is simulated
/// (not wall-clock) time, the recorded series is bit-identical across
/// `--jobs 1/4/8` runs.
#[derive(Clone, Debug)]
pub struct EpochRecorder {
    registry: Registry,
    every: u64,
    next: u64,
    epochs: Vec<Epoch>,
}

impl EpochRecorder {
    /// `every == 0` disables recording (observe becomes a no-op).
    pub fn new(registry: Registry, every: u64) -> Self {
        Self {
            registry,
            every,
            next: every,
            epochs: Vec::new(),
        }
    }

    /// Call with the current simulated tick; closes every epoch
    /// boundary crossed since the last call.
    #[inline]
    pub fn observe(&mut self, tick: u64) {
        if self.every == 0 {
            return;
        }
        while tick >= self.next {
            self.epochs.push(Epoch {
                tick: self.next,
                snapshot: self.registry.snapshot(),
            });
            self.next += self.every;
        }
    }

    pub fn epoch_len(&self) -> u64 {
        self.every
    }

    pub fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    pub fn into_epochs(self) -> Vec<Epoch> {
        self.epochs
    }
}

/// Per-run metric bundle: the final snapshot plus the recorded epoch
/// series. Plain data — travels through sweep cells and equality
/// checks in the determinism suite.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// Snapshot at end of run.
    pub last: Snapshot,
    /// Epoch series (empty when `--epoch 0` / not requested).
    pub epochs: Vec<Epoch>,
    /// Epoch length in ticks (0 = disabled).
    pub epoch_len: u64,
}

impl MetricsReport {
    pub fn from_parts(last: Snapshot, recorder: EpochRecorder) -> Self {
        let epoch_len = recorder.epoch_len();
        Self {
            last,
            epochs: recorder.into_epochs(),
            epoch_len,
        }
    }

    /// Merges several labelled reports into one, prefixing every metric
    /// (and epoch metric) name with its label. Epochs are merged by
    /// tick: each merged epoch holds every report that closed an epoch
    /// at that tick, so a report whose run ended early simply drops out
    /// of the later epochs.
    pub fn merged_prefixed(parts: &[(&str, &MetricsReport)]) -> Self {
        let last = Snapshot::merged(
            &parts
                .iter()
                .map(|(p, r)| r.last.prefixed(p))
                .collect::<Vec<_>>(),
        );
        let mut by_tick: BTreeMap<u64, Vec<Snapshot>> = BTreeMap::new();
        for (p, r) in parts {
            for e in &r.epochs {
                by_tick
                    .entry(e.tick)
                    .or_default()
                    .push(e.snapshot.prefixed(p));
            }
        }
        let epochs = by_tick
            .into_iter()
            .map(|(tick, snaps)| Epoch {
                tick,
                snapshot: Snapshot::merged(&snaps),
            })
            .collect();
        let epoch_len = parts
            .iter()
            .find(|(_, r)| !r.epochs.is_empty())
            .map_or(0, |(_, r)| r.epoch_len);
        Self {
            last,
            epochs,
            epoch_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Counter;

    #[test]
    fn records_every_n_ticks() {
        let reg = Registry::new();
        let c = Counter::new();
        reg.register_counter("ops", &c);
        let mut rec = EpochRecorder::new(reg, 100);
        c.add(1);
        rec.observe(50); // no boundary yet
        assert!(rec.epochs().is_empty());
        c.add(1);
        rec.observe(100); // closes epoch at 100
        c.add(10);
        rec.observe(350); // closes 200 and 300
        let epochs = rec.epochs();
        assert_eq!(epochs.len(), 3);
        assert_eq!(epochs[0].tick, 100);
        assert_eq!(epochs[0].snapshot.counter("ops"), Some(2));
        assert_eq!(epochs[1].tick, 200);
        assert_eq!(epochs[1].snapshot.counter("ops"), Some(12));
        assert_eq!(epochs[2].tick, 300);
    }

    #[test]
    fn zero_epoch_disables_recording() {
        let mut rec = EpochRecorder::new(Registry::new(), 0);
        rec.observe(1_000_000);
        assert!(rec.epochs().is_empty());
    }

    #[test]
    fn merged_prefixed_merges_epochs_by_tick() {
        let mk = |n: u64| {
            let reg = Registry::new();
            let c = Counter::new();
            c.add(n);
            reg.register_counter("x", &c);
            reg.snapshot()
        };
        let epoch = |tick: u64, n: u64| Epoch {
            tick,
            snapshot: mk(n),
        };
        let idle = MetricsReport {
            last: mk(1),
            epochs: vec![],
            epoch_len: 0,
        };
        let short = MetricsReport {
            last: mk(2),
            epochs: vec![epoch(10, 2)],
            epoch_len: 10,
        };
        let long = MetricsReport {
            last: mk(4),
            epochs: vec![epoch(10, 3), epoch(20, 4)],
            epoch_len: 10,
        };
        let m = MetricsReport::merged_prefixed(&[
            ("uncompressed", &idle),
            ("lcp", &short),
            ("compresso", &long),
        ]);
        assert_eq!(m.last.counter("uncompressed.x"), Some(1));
        assert_eq!(m.last.counter("lcp.x"), Some(2));
        assert_eq!(m.last.counter("compresso.x"), Some(4));
        assert_eq!(m.epoch_len, 10);
        let ticks: Vec<u64> = m.epochs.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![10, 20]);
        assert_eq!(m.epochs[0].snapshot.counter("lcp.x"), Some(2));
        assert_eq!(m.epochs[0].snapshot.counter("compresso.x"), Some(3));
        assert_eq!(m.epochs[1].snapshot.counter("lcp.x"), None);
        assert_eq!(m.epochs[1].snapshot.counter("compresso.x"), Some(4));
    }
}
