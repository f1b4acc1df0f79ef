//! Deterministic fault injection for the device stack.
//!
//! A [`FaultPlan`] is a seeded stream of adverse events that a device
//! consults at well-defined hook points: metadata fetches from DRAM
//! (bit flips and hard decode failures), chunk/block allocations (forced
//! refusals), metadata-cache accesses (forced eviction storms), and
//! balloon-driver inflates (refusals). Devices hold an
//! `Option<FaultPlan>` that defaults to `None`, so production runs pay a
//! single never-taken branch per hook and draw no randomness at all.
//!
//! Determinism is the point: the same seed against the same access
//! stream injects the same faults in the same order, so a chaos run is
//! exactly reproducible (asserted by `fault_tests.rs`).
//!
//! Two durability hooks model storage faults: [`FaultPlan::durable_rot`]
//! flips bits in the durable metadata image between writes (silent media
//! rot, caught by the scrubber), and [`FaultPlan::crash_on_append`]
//! crashes the device mid-journal-append so the journal ends in a torn
//! record. [`FaultPlan::to_json`] prints a plan's seed, crash point and
//! rates on a failing soak run's repro line. A soak schedule is a pure
//! function of its seed and round count, so a failure is replayed with
//! `soak --seeds 1 --base-seed S --rounds R`, taking `S` and `R` from
//! that line.

use compresso_workloads::mix64;
use std::fmt::Write as _;

/// A fault produced at a metadata-fetch hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataFault {
    /// One bit of the 64 B packed entry reads flipped. Depending on where
    /// the bit lands this is harmless (padding / spare / tracked-free
    /// bits) or detected corruption.
    BitFlip {
        /// Bit index within the 512-bit entry.
        bit: usize,
    },
    /// The entry is unreadable outright (modelling an uncorrectable ECC
    /// error on the metadata region).
    DecodeFailure,
}

/// Per-kind injection rates, in events per thousand opportunities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// ‰ of metadata DRAM fetches that read one bit flipped.
    pub bit_flip_per_mille: u32,
    /// ‰ of metadata DRAM fetches that fail to decode entirely.
    pub decode_failure_per_mille: u32,
    /// ‰ of chunk/block allocations that are (transiently) refused.
    pub alloc_failure_per_mille: u32,
    /// ‰ of metadata-cache misses that trigger a forced eviction storm.
    pub eviction_storm_per_mille: u32,
    /// Entries flushed per eviction storm.
    pub storm_evictions: usize,
    /// ‰ of balloon inflate attempts that the OS refuses.
    pub balloon_refusal_per_mille: u32,
    /// ‰ of durable metadata-image writes after which one stored bit
    /// rots (silent media decay; repaired by the scrubber).
    pub rot_per_mille: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            bit_flip_per_mille: 0,
            decode_failure_per_mille: 0,
            alloc_failure_per_mille: 0,
            eviction_storm_per_mille: 0,
            storm_evictions: 32,
            balloon_refusal_per_mille: 0,
            rot_per_mille: 0,
        }
    }
}

impl FaultConfig {
    /// A hostile preset exercising every fault kind at rates high enough
    /// that short chaos runs hit all of them.
    pub fn aggressive() -> Self {
        Self {
            bit_flip_per_mille: 50,
            decode_failure_per_mille: 35,
            // Allocation and decode hooks fire far less often than
            // metadata accesses, so their rates are high enough that even
            // a few-thousand-access chaos run draws every kind.
            alloc_failure_per_mille: 150,
            eviction_storm_per_mille: 10,
            storm_evictions: 64,
            balloon_refusal_per_mille: 400,
            rot_per_mille: 60,
        }
    }

    /// Serializes the rates as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"bit_flip_per_mille\":{},\"decode_failure_per_mille\":{},",
                "\"alloc_failure_per_mille\":{},\"eviction_storm_per_mille\":{},",
                "\"storm_evictions\":{},\"balloon_refusal_per_mille\":{},",
                "\"rot_per_mille\":{}}}"
            ),
            self.bit_flip_per_mille,
            self.decode_failure_per_mille,
            self.alloc_failure_per_mille,
            self.eviction_storm_per_mille,
            self.storm_evictions,
            self.balloon_refusal_per_mille,
            self.rot_per_mille,
        )
    }
}

/// Count of faults injected so far, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Metadata bit flips injected.
    pub bit_flips: u64,
    /// Metadata decode failures injected.
    pub decode_failures: u64,
    /// Allocation refusals injected.
    pub alloc_refusals: u64,
    /// Eviction storms injected.
    pub eviction_storms: u64,
    /// Balloon-inflate refusals injected.
    pub balloon_refusals: u64,
    /// Bits rotted in the durable metadata image.
    pub rot_flips: u64,
    /// Crashes triggered mid-journal-append.
    pub crashes: u64,
}

impl FaultStats {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.bit_flips
            + self.decode_failures
            + self.alloc_refusals
            + self.eviction_storms
            + self.balloon_refusals
            + self.rot_flips
            + self.crashes
    }

    /// Number of distinct fault kinds that fired at least once.
    pub fn distinct_kinds(&self) -> usize {
        [
            self.bit_flips,
            self.decode_failures,
            self.alloc_refusals,
            self.eviction_storms,
            self.balloon_refusals,
            self.rot_flips,
            self.crashes,
        ]
        .iter()
        .filter(|&&n| n > 0)
        .count()
    }
}

/// A seeded, deterministic schedule of faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
    state: u64,
    stats: FaultStats,
    /// One-shot crash trigger: the device crashes while appending journal
    /// record number `crash_at_record` (0-based), leaving a torn tail.
    crash_at_record: Option<u64>,
    crash_armed: bool,
}

impl FaultPlan {
    /// Creates a plan drawing from `seed` with the given rates.
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        Self {
            seed,
            cfg,
            // Spread nearby seeds apart; keep the xorshift state nonzero.
            state: mix64(seed) | 1,
            stats: FaultStats::default(),
            crash_at_record: None,
            crash_armed: false,
        }
    }

    /// Arms a one-shot crash while journal record `record` (0-based) is
    /// being appended: the record is written torn (header + partial
    /// payload, no checksum) and the device stops mutating state.
    pub fn with_crash_at(mut self, record: u64) -> Self {
        self.crash_at_record = Some(record);
        self.crash_armed = true;
        self
    }

    /// The armed crash point, if any (survives firing, for repro lines).
    pub fn crash_at(&self) -> Option<u64> {
        self.crash_at_record
    }

    /// A plan using the [`FaultConfig::aggressive`] preset.
    pub fn aggressive(seed: u64) -> Self {
        Self::new(seed, FaultConfig::aggressive())
    }

    /// The seed this plan was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured rates.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Faults injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// xorshift64*: tiny, fast, and plenty for fault scheduling.
    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// One draw against a per-mille rate. Always consumes a draw so that
    /// the schedule of one fault kind does not shift when another kind's
    /// rate changes.
    fn roll(&mut self, per_mille: u32) -> bool {
        (self.next() % 1000) < per_mille as u64
    }

    /// Hook: a metadata entry was fetched from DRAM. Returns the fault to
    /// apply, if any.
    pub fn metadata_fetch_fault(&mut self) -> Option<MetadataFault> {
        let decode = self.roll(self.cfg.decode_failure_per_mille);
        let flip = self.roll(self.cfg.bit_flip_per_mille);
        let bit = (self.next() % 512) as usize;
        if decode {
            self.stats.decode_failures += 1;
            Some(MetadataFault::DecodeFailure)
        } else if flip {
            self.stats.bit_flips += 1;
            Some(MetadataFault::BitFlip { bit })
        } else {
            None
        }
    }

    /// Hook: a chunk/block allocation is about to be attempted. Returns
    /// `true` if the attempt must be refused.
    pub fn alloc_refused(&mut self) -> bool {
        let refused = self.roll(self.cfg.alloc_failure_per_mille);
        if refused {
            self.stats.alloc_refusals += 1;
        }
        refused
    }

    /// Hook: a metadata-cache miss occurred. Returns the number of
    /// entries to forcibly evict, if a storm fires.
    pub fn eviction_storm(&mut self) -> Option<usize> {
        if self.roll(self.cfg.eviction_storm_per_mille) {
            self.stats.eviction_storms += 1;
            Some(self.cfg.storm_evictions)
        } else {
            None
        }
    }

    /// Hook: the balloon driver is about to inflate. Returns `true` if
    /// the OS refuses to hand pages back.
    pub fn balloon_refused(&mut self) -> bool {
        let refused = self.roll(self.cfg.balloon_refusal_per_mille);
        if refused {
            self.stats.balloon_refusals += 1;
        }
        refused
    }

    /// Hook: a 64 B entry was written to the durable metadata image.
    /// Returns the bit (within the 512-bit entry) that rots afterwards,
    /// if rot fires. Always consumes two draws (roll + position) so the
    /// schedule is stable across rate changes.
    pub fn durable_rot(&mut self) -> Option<usize> {
        let rot = self.roll(self.cfg.rot_per_mille);
        let bit = (self.next() % 512) as usize;
        if rot {
            self.stats.rot_flips += 1;
            Some(bit)
        } else {
            None
        }
    }

    /// Hook: the journal is about to append record `record_index`
    /// (0-based, counted over the journal's lifetime). Returns `true`
    /// exactly once, when the armed crash point is reached: the append
    /// must be torn and the device must stop.
    pub fn crash_on_append(&mut self, record_index: u64) -> bool {
        if self.crash_armed && self.crash_at_record == Some(record_index) {
            self.crash_armed = false;
            self.stats.crashes += 1;
            true
        } else {
            false
        }
    }

    /// Serializes seed, crash point and rates as one JSON line — the
    /// repro format printed by chaos/soak failures.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"seed\":{}", self.seed);
        match self.crash_at_record {
            Some(r) => {
                let _ = write!(out, ",\"crash_at_record\":{r}");
            }
            None => out.push_str(",\"crash_at_record\":null"),
        }
        let _ = write!(out, ",\"config\":{}}}", self.cfg.to_json());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultPlan::aggressive(42);
        let mut b = FaultPlan::aggressive(42);
        for _ in 0..2000 {
            assert_eq!(a.metadata_fetch_fault(), b.metadata_fetch_fault());
            assert_eq!(a.alloc_refused(), b.alloc_refused());
            assert_eq!(a.eviction_storm(), b.eviction_storm());
            assert_eq!(a.balloon_refused(), b.balloon_refused());
            assert_eq!(a.durable_rot(), b.durable_rot());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::aggressive(1);
        let mut b = FaultPlan::aggressive(2);
        let same = (0..256)
            .filter(|_| a.metadata_fetch_fault() == b.metadata_fetch_fault())
            .count();
        assert!(
            same < 256,
            "seeds 1 and 2 must not produce identical schedules"
        );
    }

    #[test]
    fn aggressive_preset_hits_every_kind() {
        let mut plan = FaultPlan::aggressive(7).with_crash_at(100);
        for i in 0..4000u64 {
            let _ = plan.metadata_fetch_fault();
            let _ = plan.alloc_refused();
            let _ = plan.eviction_storm();
            let _ = plan.balloon_refused();
            let _ = plan.durable_rot();
            let _ = plan.crash_on_append(i);
        }
        let s = plan.stats();
        assert_eq!(s.distinct_kinds(), 7, "all seven kinds must fire: {s:?}");
        assert_eq!(
            s.total(),
            s.bit_flips
                + s.decode_failures
                + s.alloc_refusals
                + s.eviction_storms
                + s.balloon_refusals
                + s.rot_flips
                + s.crashes
        );
    }

    #[test]
    fn crash_hook_fires_exactly_once() {
        let mut plan = FaultPlan::aggressive(1).with_crash_at(3);
        assert!(!plan.crash_on_append(0));
        assert!(!plan.crash_on_append(2));
        assert!(plan.crash_on_append(3));
        assert!(!plan.crash_on_append(3), "one-shot: must not re-fire");
        assert_eq!(plan.stats().crashes, 1);
        assert_eq!(plan.crash_at(), Some(3), "crash point survives firing");
    }

    #[test]
    fn plan_json_names_seed_crash_point_and_rates() {
        let rates = FaultConfig::default().to_json();
        let plan = FaultPlan::new(5, FaultConfig::default());
        assert_eq!(
            plan.to_json(),
            format!("{{\"seed\":5,\"crash_at_record\":null,\"config\":{rates}}}")
        );
        assert_eq!(
            plan.with_crash_at(42).to_json(),
            format!("{{\"seed\":5,\"crash_at_record\":42,\"config\":{rates}}}")
        );
    }

    #[test]
    fn default_config_injects_nothing() {
        let mut plan = FaultPlan::new(9, FaultConfig::default());
        for _ in 0..1000 {
            assert_eq!(plan.metadata_fetch_fault(), None);
            assert!(!plan.alloc_refused());
            assert_eq!(plan.eviction_storm(), None);
            assert!(!plan.balloon_refused());
        }
        assert_eq!(plan.stats().total(), 0);
    }

    #[test]
    fn rates_are_approximately_respected() {
        let cfg = FaultConfig {
            alloc_failure_per_mille: 250,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(3, cfg);
        let refused = (0..10_000).filter(|_| plan.alloc_refused()).count();
        assert!(
            (2000..3000).contains(&refused),
            "≈25% expected, got {refused}/10000"
        );
    }

    #[test]
    fn bit_flip_positions_cover_the_entry() {
        let cfg = FaultConfig {
            bit_flip_per_mille: 1000,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(11, cfg);
        let mut low = false;
        let mut high = false;
        for _ in 0..200 {
            if let Some(MetadataFault::BitFlip { bit }) = plan.metadata_fetch_fault() {
                assert!(bit < 512);
                low |= bit < 256;
                high |= bit >= 256;
            }
        }
        assert!(
            low && high,
            "flips must land across the whole 512-bit entry"
        );
    }
}
