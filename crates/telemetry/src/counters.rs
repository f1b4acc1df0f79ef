//! The [`counters!`](crate::counters) macro: one declaration per counter
//! set.

/// Declares a counter set from one list of `/// doc` + `field => "name"`
/// entries.
///
/// It generates:
/// - the snapshot struct: one `pub u64` per entry, deriving `Debug`,
///   `Clone`, `Copy`, `Default`, `PartialEq` and `Eq`;
/// - the live struct: one `pub` [`Counter`](crate::Counter) per entry,
///   deriving `Debug`, `Clone` and `Default`, with the visibility the
///   caller writes. The hot path bumps its fields (`events.hits += 1`);
///   a [`Registry`](crate::Registry) holds clones of the same handles;
/// - `snapshot()` on the live struct, the plain-data copy of every
///   counter;
/// - `register_metrics(registry, prefix)` on the live struct, which
///   registers each counter as `{prefix}.{name}`, or under its bare
///   `name` when `prefix` is empty.
///
/// Both structs keep the entries' order, so a snapshot's `Debug` output
/// lists the fields as declared.
///
/// ```
/// use compresso_telemetry::{counters, Registry};
///
/// counters! {
///     /// Cache statistics.
///     pub struct Stats;
///     /// Live handles behind [`Stats`].
///     pub struct Events {
///         /// Accesses that hit.
///         hits => "hit.total",
///         /// Accesses that missed.
///         misses => "miss.total",
///     }
/// }
///
/// let mut events = Events::default();
/// let registry = Registry::new();
/// events.register_metrics(&registry, "cache.l1");
/// events.hits += 2;
/// assert_eq!(events.snapshot(), Stats { hits: 2, misses: 0 });
/// assert_eq!(registry.snapshot().counter("cache.l1.hit.total"), Some(2));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$snap_meta:meta])*
        $snap_vis:vis struct $snap:ident;
        $(#[$live_meta:meta])*
        $live_vis:vis struct $live:ident {
            $( $(#[$field_meta:meta])* $field:ident => $name:literal ),+ $(,)?
        }
    ) => {
        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $snap_vis struct $snap {
            $( $(#[$field_meta])* pub $field: u64, )+
        }

        $(#[$live_meta])*
        #[derive(Debug, Clone, Default)]
        $live_vis struct $live {
            $( $(#[$field_meta])* pub $field: $crate::Counter, )+
        }

        impl $live {
            /// Plain-data copy of every counter.
            pub fn snapshot(&self) -> $snap {
                $snap { $( $field: self.$field.get(), )+ }
            }

            /// Registers every counter as `{prefix}.{name}` (bare `name`
            /// when `prefix` is empty); the registry shares the handles,
            /// so it sees every later update.
            pub fn register_metrics(&self, registry: &$crate::Registry, prefix: &str) {
                $(
                    let name = match prefix {
                        "" => $name.to_string(),
                        _ => format!("{prefix}.{}", $name),
                    };
                    registry.register_counter(&name, &self.$field);
                )+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    crate::counters! {
        /// Two-field snapshot.
        pub struct PairStats;
        /// Live handles behind [`PairStats`].
        struct PairEvents {
            /// First counter.
            first => "first.total",
            /// Second counter.
            second => "nested.second.total",
        }
    }

    #[test]
    fn snapshot_registration_and_shared_handles() {
        let mut events = PairEvents::default();
        events.first += 3;
        events.second.add(5);
        assert_eq!(
            events.snapshot(),
            PairStats {
                first: events.first.get(),
                second: events.second.get(),
            }
        );
        assert_eq!(
            events.snapshot(),
            PairStats {
                first: 3,
                second: 5
            }
        );

        let registry = Registry::new();
        events.register_metrics(&registry, "unit");
        let names: Vec<String> = registry
            .snapshot()
            .metrics
            .iter()
            .map(|(name, _)| name.to_string())
            .collect();
        assert_eq!(names, ["unit.first.total", "unit.nested.second.total"]);

        // Later updates reach the registry through the shared handles.
        events.first += 4;
        events.second.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("unit.first.total"), Some(7));
        assert_eq!(snap.counter("unit.nested.second.total"), Some(6));
        assert_eq!(
            events.snapshot(),
            PairStats {
                first: 7,
                second: 6
            }
        );
    }
}
