//! Crash/corruption soak harness — the CI durability-smoke gate.
//!
//! Usage: `soak [--seeds N] [--base-seed S] [--rounds R] [--out FILE]`.
//!
//! Each seed derives a randomized-but-pinned schedule: a benchmark, a
//! fault mix (aggressive injection plus durable-metadata rot), and an
//! armed crash record. The schedule runs against a journaled
//! [`CompressoDevice`] and a journaled LCP baseline, the torn journal is
//! cold-boot recovered, and every stage is diffed against the
//! [`ShadowModel`] reference replay. Any divergence prints a one-line
//! JSON repro (seed, rounds, stage, fault plan) — written to `--out` when
//! given, so CI can upload it as an artifact — and exits non-zero.
//!
//! The schedules are deterministic: a run is a pure function of its seed
//! and round count, so the repro line is sufficient to replay a failure
//! with `soak --seeds 1 --base-seed S --rounds R`.

use compresso_cache_sim::Backend;
use compresso_core::journal::frame_boundaries;
use compresso_core::{
    parse_journal, CompressoConfig, CompressoDevice, DurabilityConfig, FaultConfig, FaultPlan,
    LcpDevice, MemoryDevice, PageImage, ShadowModel,
};
use compresso_workloads::{benchmark, DataWorld, PAGE_BYTES};
use std::collections::BTreeMap;

const BENCHES: [&str; 4] = ["gcc", "mcf", "soplex", "zeusmp"];

struct SoakFailure {
    seed: u64,
    rounds: u64,
    stage: &'static str,
    detail: String,
    plan: FaultPlan,
}

impl SoakFailure {
    /// The one-line JSON repro printed on divergence.
    fn repro_line(&self) -> String {
        format!(
            "{{\"schema\":\"compresso.soak.repro.v1\",\"seed\":{},\"rounds\":{},\"stage\":\"{}\",\"detail\":{:?},\"plan\":{}}}",
            self.seed,
            self.rounds,
            self.stage,
            self.detail,
            self.plan.to_json()
        )
    }
}

/// The seed-pinned demand stream: mixed fills/writebacks over a hot set
/// with periodic invalidations, same shape as the chaos suite.
fn drive<B: Backend>(device: &mut B, invalidate: impl Fn(&mut B, u64), pages: u64, rounds: u64) {
    let mut t = 0;
    for round in 0..rounds {
        for page in 0..pages {
            for line in 0..64u64 {
                let addr = page * PAGE_BYTES + line * 64;
                t = device.fill(t, addr).max(t);
                if (line + round) % 3 == 0 {
                    t = device.writeback(t, addr).max(t);
                }
            }
            if (page + round) % 17 == 16 {
                invalidate(device, page);
            }
        }
    }
}

fn durable_config() -> CompressoConfig {
    let mut cfg = CompressoConfig::durable();
    // Scrub aggressively so rot repair exercises every soak run.
    cfg.durability = DurabilityConfig {
        journaling: true,
        scrub_interval: 25_000,
    };
    cfg
}

/// The per-seed fault mix: the aggressive chaos rates plus heavy rot.
fn fault_plan(seed: u64, crash_at: u64) -> FaultPlan {
    let cfg = FaultConfig {
        rot_per_mille: 80 + (seed % 120) as u32,
        ..FaultConfig::aggressive()
    };
    FaultPlan::new(seed, cfg).with_crash_at(crash_at)
}

fn shadow_pages(shadow: &ShadowModel) -> BTreeMap<u64, [u8; 64]> {
    shadow
        .pages()
        .iter()
        .filter_map(|(&p, img)| match img {
            PageImage::Packed(b) => Some((p, *b)),
            PageImage::Lcp(_) => None,
        })
        .collect()
}

/// Replays `bytes` through the shadow model; any replay violation is
/// the failure detail.
fn replay_clean(bytes: &[u8]) -> Result<ShadowModel, String> {
    let (records, _) = parse_journal(bytes);
    let (shadow, _) = ShadowModel::replay(&records);
    if shadow.violations().is_empty() {
        Ok(shadow)
    } else {
        Err(format!("shadow violations: {:?}", shadow.violations()))
    }
}

/// One Compresso soak cell: chaos → crash → recover → diff → more chaos.
fn soak_compresso(seed: u64, rounds: u64) -> Result<String, Box<SoakFailure>> {
    let bench = BENCHES[(seed % BENCHES.len() as u64) as usize];
    let world = || DataWorld::new(&benchmark(bench).expect("paper benchmark"));
    let crash_at = 40 + (seed.wrapping_mul(97)) % 260;
    let plan = fault_plan(seed, crash_at);
    let fail = |stage: &'static str, detail: String| {
        Box::new(SoakFailure {
            seed,
            rounds,
            stage,
            detail,
            plan: plan.clone(),
        })
    };

    let mut device = CompressoDevice::new(durable_config(), world());
    device.inject_faults(plan.clone());
    drive(&mut device, |d, p| d.invalidate_page(p), 48, rounds);
    let faults = *device.fault_stats().expect("plan attached");
    if !device.is_crashed() {
        return Err(fail(
            "crash",
            format!("crash at record {crash_at} never fired ({faults:?})"),
        ));
    }
    let torn = device.journal_bytes().expect("journaling on").to_vec();
    let records = frame_boundaries(&torn).len() - 1;

    let shadow = replay_clean(&torn).map_err(|d| fail("replay-torn", d))?;
    let (mut recovered, report) =
        CompressoDevice::recover(durable_config(), Box::new(world()), &torn);
    if !report.is_clean() {
        return Err(fail(
            "recover",
            format!("violations: {:?}", report.violations),
        ));
    }
    if recovered.pages_snapshot() != shadow_pages(&shadow) {
        return Err(fail(
            "diff-pages",
            "recovered metadata != shadow replay".into(),
        ));
    }
    if recovered.owners_snapshot() != *shadow.owners() {
        return Err(fail(
            "diff-owners",
            "recovered ownership != shadow replay".into(),
        ));
    }

    // The recovered device must keep absorbing chaos (fresh fault plan,
    // no crash armed) and stay journal-consistent.
    recovered.inject_faults(FaultPlan::new(seed ^ 0xA5A5, *plan.config()));
    drive(&mut recovered, |d, p| d.invalidate_page(p), 48, rounds);
    if recovered.is_crashed() {
        return Err(fail("post-recovery", "unarmed run must not crash".into()));
    }
    let post = replay_clean(recovered.journal_bytes().expect("journaling on"))
        .map_err(|d| fail("replay-post", d))?;
    if recovered.pages_snapshot() != shadow_pages(&post) {
        return Err(fail(
            "diff-post",
            "post-recovery metadata != shadow replay".into(),
        ));
    }
    let stats = recovered.device_stats();
    if stats.corruption_undetected != 0 {
        return Err(fail(
            "undetected",
            format!("{} silent corruptions", stats.corruption_undetected),
        ));
    }
    Ok(format!(
        "seed {seed:>3} compresso/{bench}: crash@{crash_at} ({records} records), \
         {} pages rebuilt, {} prewarmed, rot {} / repairs {}, ratio {:.2}",
        report.pages_rebuilt,
        report.prewarmed,
        faults.rot_flips,
        recovered
            .metrics()
            .snapshot()
            .counter("scrub.repair.total")
            .unwrap_or(0),
        recovered.compression_ratio()
    ))
}

/// One LCP soak cell: the OS-aware baseline crashes and recovers too.
fn soak_lcp(seed: u64, rounds: u64) -> Result<String, Box<SoakFailure>> {
    let bench = BENCHES[((seed / 2) % BENCHES.len() as u64) as usize];
    let world = || DataWorld::new(&benchmark(bench).expect("paper benchmark"));
    let crash_at = 40 + (seed.wrapping_mul(61)) % 300;
    let plan = FaultPlan::new(seed, FaultConfig::aggressive()).with_crash_at(crash_at);
    let fail = |stage: &'static str, detail: String| {
        Box::new(SoakFailure {
            seed,
            rounds,
            stage,
            detail,
            plan: plan.clone(),
        })
    };

    let mut device = LcpDevice::lcp_align(world());
    device.enable_journaling();
    device.inject_faults(plan.clone());
    drive(&mut device, |_, _| (), 48, rounds);
    if !device.is_crashed() {
        return Err(fail(
            "crash",
            format!("crash at record {crash_at} never fired"),
        ));
    }
    let torn = device.journal_bytes().expect("journaling on").to_vec();
    let shadow = replay_clean(&torn).map_err(|d| fail("replay-torn", d))?;
    let (mut recovered, report) = LcpDevice::recover_lcp_align(Box::new(world()), &torn);
    if !report.is_clean() {
        return Err(fail(
            "recover",
            format!("violations: {:?}", report.violations),
        ));
    }
    // The recovery checkpoint must replay to the crash-time state.
    let ck = replay_clean(recovered.journal_bytes().expect("journaling on"))
        .map_err(|d| fail("replay-checkpoint", d))?;
    if ck.pages() != shadow.pages() || ck.owners() != shadow.owners() {
        return Err(fail(
            "diff-checkpoint",
            "checkpoint != crash-time shadow".into(),
        ));
    }
    drive(&mut recovered, |_, _| (), 48, 1);
    if recovered.is_crashed() {
        return Err(fail("post-recovery", "unarmed run must not crash".into()));
    }
    Ok(format!(
        "seed {seed:>3} lcp+align/{bench}: crash@{crash_at}, {} pages rebuilt, ratio {:.2}",
        report.pages_rebuilt,
        recovered.compression_ratio()
    ))
}

fn main() {
    let mut seeds = 8u64;
    let mut base_seed = 1u64;
    let mut rounds = 3u64;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => seeds = value("--seeds").parse().expect("--seeds: integer"),
            "--base-seed" => {
                base_seed = value("--base-seed").parse().expect("--base-seed: integer")
            }
            "--rounds" => rounds = value("--rounds").parse().expect("--rounds: integer"),
            "--out" => out = Some(value("--out")),
            other => {
                eprintln!("usage: soak [--seeds N] [--base-seed S] [--rounds R] [--out FILE]");
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let mut failures = Vec::new();
    for seed in base_seed..base_seed + seeds {
        for (label, result) in [
            ("compresso", soak_compresso(seed, rounds)),
            ("lcp", soak_lcp(seed, rounds)),
        ] {
            match result {
                Ok(line) => println!("{line}"),
                Err(f) => {
                    eprintln!("FAIL {label} {}", f.repro_line());
                    failures.push(f);
                }
            }
        }
    }

    if failures.is_empty() {
        println!("soak: {seeds} seeds x 2 devices, zero invariant violations");
        return;
    }
    if let Some(path) = out {
        let doc: String = failures.iter().map(|f| f.repro_line() + "\n").collect();
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("soak: cannot write {path}: {e}");
        } else {
            eprintln!("soak: wrote {} repro line(s) to {path}", failures.len());
        }
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use compresso_telemetry::json;

    #[test]
    fn repro_line_carries_seed_rounds_and_stage() {
        let failure = SoakFailure {
            seed: 17,
            rounds: 2,
            stage: "diff-pages",
            detail: "recovered metadata != shadow replay".into(),
            plan: fault_plan(17, 99),
        };
        let doc = json::parse(&failure.repro_line()).expect("repro line is JSON");
        assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(17));
        assert_eq!(doc.get("rounds").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(
            doc.get("stage").and_then(|v| v.as_str()),
            Some("diff-pages")
        );
    }
}
