//! Phase model and SimPoint vs CompressPoint interval selection (§VI-B).
//!
//! Cycle-based simulation runs a few representative intervals of a long
//! benchmark. SimPoint picks intervals by basic-block-vector (BBV)
//! similarity alone; CompressPoint (Choukse et al., CAL 2018) extends the
//! vector with compression metrics. Fig. 9 shows why this matters: for
//! GemsFDTD the two pick intervals whose compression ratios differ by an
//! order of magnitude, because compressibility phases are invisible to
//! BBVs.

use crate::data::mix64;
use crate::profile::{BenchmarkProfile, PhaseShape};

/// One 200M-instruction interval of a full benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Interval index (time order).
    pub index: usize,
    /// Basic-block execution vector proxy (8 buckets, normalized).
    pub bbv: [f64; 8],
    /// Compression ratio of memory contents during this interval.
    pub compression_ratio: f64,
    /// Page overflows per million instructions.
    pub overflow_rate: f64,
    /// Fraction of the footprint resident during the interval.
    pub memory_usage: f64,
}

fn noise(seed: u64, i: u64, scale: f64) -> f64 {
    ((mix64(seed ^ i) % 1000) as f64 / 1000.0 - 0.5) * 2.0 * scale
}

/// Generates the full-run phase trace of a benchmark: `n` intervals with
/// BBVs and compression ratios following the profile's [`PhaseShape`].
///
/// `base_ratio` anchors the compressibility level (e.g. the benchmark's
/// measured steady-state ratio).
pub fn full_run(profile: &BenchmarkProfile, base_ratio: f64, n: usize) -> Vec<Interval> {
    let seed = profile.seed;
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            let (ratio, bbv_drift) = match profile.phase_shape {
                PhaseShape::Flat => (base_ratio * (1.0 + noise(seed, i as u64, 0.05)), 0.3),
                PhaseShape::BigSwings => {
                    // Long square-wave-ish swings between ~1x and ~13x
                    // (GemsFDTD in Fig. 9), while the BBV stays flat: the
                    // FDTD kernel loops are identical in both phases.
                    let phase = ((t * 4.0) as usize) % 2;
                    let hi = 13.0 + noise(seed, i as u64, 0.8);
                    let lo = 1.1 + noise(seed, i as u64, 0.05).abs();
                    (if phase == 0 { lo } else { hi }, 0.02)
                }
                PhaseShape::Drift => {
                    // Gradual drift up with a compressible tail (astar).
                    let drifted = 1.3 + t * t * 8.0 + noise(seed, i as u64, 0.3);
                    (drifted, 0.05)
                }
            };
            let mut bbv = [0.0f64; 8];
            for (b, slot) in bbv.iter_mut().enumerate() {
                // A stable code signature plus shape-dependent drift.
                let base = ((mix64(seed ^ 0xBB ^ b as u64) % 100) as f64 + 10.0) / 100.0;
                *slot = base + noise(seed ^ 0xB2, (i * 8 + b) as u64, bbv_drift);
            }
            let norm: f64 = bbv.iter().sum();
            for slot in bbv.iter_mut() {
                *slot /= norm;
            }
            Interval {
                index: i,
                bbv,
                compression_ratio: ratio.max(1.0),
                overflow_rate: (4.0 / ratio).min(8.0),
                memory_usage: 0.5 + 0.5 * t,
            }
        })
        .collect()
}

fn bbv_distance(a: &[f64; 8], b: &[f64; 8]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// SimPoint-style selection: the interval whose BBV is closest to the
/// run's mean BBV (single-cluster SimPoint).
///
/// # Panics
///
/// Panics if `intervals` is empty.
pub fn simpoint(intervals: &[Interval]) -> &Interval {
    assert!(!intervals.is_empty(), "need at least one interval");
    let mut mean = [0.0f64; 8];
    for iv in intervals {
        for (m, v) in mean.iter_mut().zip(&iv.bbv) {
            *m += v;
        }
    }
    for m in mean.iter_mut() {
        *m /= intervals.len() as f64;
    }
    intervals
        .iter()
        .min_by(|a, b| {
            bbv_distance(&a.bbv, &mean)
                .partial_cmp(&bbv_distance(&b.bbv, &mean))
                .expect("finite distances")
        })
        .expect("nonempty")
}

/// CompressPoint selection: augments the BBV with normalized compression
/// metrics (ratio, overflow rate, memory usage) before picking the
/// interval closest to the mean feature vector.
///
/// # Panics
///
/// Panics if `intervals` is empty.
pub fn compresspoint(intervals: &[Interval]) -> &Interval {
    assert!(!intervals.is_empty(), "need at least one interval");
    let max_ratio = intervals
        .iter()
        .map(|i| i.compression_ratio)
        .fold(1.0, f64::max);
    let max_ovf = intervals
        .iter()
        .map(|i| i.overflow_rate)
        .fold(1e-9, f64::max);
    let features: Vec<[f64; 11]> = intervals
        .iter()
        .map(|iv| {
            let mut f = [0.0f64; 11];
            f[..8].copy_from_slice(&iv.bbv);
            f[8] = iv.compression_ratio / max_ratio;
            f[9] = iv.overflow_rate / max_ovf;
            f[10] = iv.memory_usage;
            f
        })
        .collect();
    let mut mean = [0.0f64; 11];
    for f in &features {
        for (m, v) in mean.iter_mut().zip(f) {
            *m += v;
        }
    }
    for m in mean.iter_mut() {
        *m /= features.len() as f64;
    }
    let dist = |f: &[f64; 11]| -> f64 {
        f.iter()
            .zip(&mean)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };
    let best = features
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| dist(a).partial_cmp(&dist(b)).expect("finite"))
        .map(|(i, _)| i)
        .expect("nonempty");
    &intervals[best]
}

/// Mean compression ratio over the whole run (ground truth the selected
/// interval should represent).
pub fn run_average_ratio(intervals: &[Interval]) -> f64 {
    if intervals.is_empty() {
        return 1.0;
    }
    intervals.iter().map(|i| i.compression_ratio).sum::<f64>() / intervals.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::benchmark;

    #[test]
    fn flat_benchmarks_agree() {
        let p = benchmark("gcc").unwrap();
        let run = full_run(&p, 2.2, 64);
        let sp = simpoint(&run).compression_ratio;
        let cp = compresspoint(&run).compression_ratio;
        let avg = run_average_ratio(&run);
        assert!(
            (sp - avg).abs() / avg < 0.15,
            "flat: simpoint {sp} vs avg {avg}"
        );
        assert!(
            (cp - avg).abs() / avg < 0.15,
            "flat: compresspoint {cp} vs avg {avg}"
        );
    }

    #[test]
    fn gems_simpoint_misrepresents_compressibility() {
        let p = benchmark("GemsFDTD").unwrap();
        let run = full_run(&p, 1.2, 64);
        let sp = simpoint(&run).compression_ratio;
        let cp = compresspoint(&run).compression_ratio;
        let avg = run_average_ratio(&run);
        let sp_err = (sp - avg).abs() / avg;
        let cp_err = (cp - avg).abs() / avg;
        assert!(
            cp_err < sp_err,
            "CompressPoint ({cp}, err {cp_err:.2}) must beat SimPoint ({sp}, err {sp_err:.2}) vs avg {avg}"
        );
        assert!(
            sp_err > 0.3,
            "GemsFDTD SimPoint should be way off, err {sp_err:.2}"
        );
    }

    #[test]
    fn ratio_swings_span_order_of_magnitude() {
        let p = benchmark("GemsFDTD").unwrap();
        let run = full_run(&p, 1.2, 64);
        let max = run.iter().map(|i| i.compression_ratio).fold(0.0, f64::max);
        let min = run
            .iter()
            .map(|i| i.compression_ratio)
            .fold(f64::MAX, f64::min);
        assert!(max > 10.0, "GemsFDTD highs ~13 (got {max})");
        assert!(min < 2.0, "GemsFDTD lows ~1 (got {min})");
    }

    #[test]
    fn astar_drifts_upward() {
        let p = benchmark("astar").unwrap();
        let run = full_run(&p, 1.5, 64);
        let early = run[..8].iter().map(|i| i.compression_ratio).sum::<f64>() / 8.0;
        let late = run[56..].iter().map(|i| i.compression_ratio).sum::<f64>() / 8.0;
        assert!(late > early * 2.0, "astar must drift up: {early} -> {late}");
    }

    #[test]
    fn bbvs_are_normalized() {
        let p = benchmark("milc").unwrap();
        for iv in full_run(&p, 1.4, 32) {
            let sum: f64 = iv.bbv.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one interval")]
    fn empty_selection_panics() {
        let _ = simpoint(&[]);
    }
}
