//! Device fingerprint golden: the exact results of one fixed access
//! schedule on the four journaled compressed devices, with and without
//! injected faults, pinned against a checked-in text file.
//!
//! The figure goldens run short fault-free sweeps; this schedule is built
//! to reach the paths they miss: eviction storms, allocation retries and
//! failures, corruption fallbacks, the scrubber, Variable4 layout, LCP
//! journaling, ballooning invalidations and cold-boot recovery. Each run
//! pins `DeviceStats`, `MemStats`, `FaultStats`, the per-op completion
//! times, the metrics registry, the journal bytes and (for Compresso) the
//! page and ownership snapshots, then recovers a device from the journal
//! and pins the recovery report and the recovered device's results.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! COMPRESSO_BLESS=1 cargo test -p compresso-core --test device_fingerprint
//! ```

use compresso_cache_sim::Backend;
use compresso_core::{
    CompressoConfig, CompressoDevice, FaultPlan, LcpDevice, MemoryDevice, PageAllocation,
    RecoveryReport,
};
use compresso_workloads::{benchmark, DataWorld, PAGE_BYTES};
use std::fmt::Write as _;

const BENCH: &str = "gcc";
/// Demand operations per run.
const OPS: u64 = 12_000;
/// Pages written often enough to overflow lines and pages.
const HOT_PAGES: u64 = 48;
/// Pages swept round-robin: more than the metadata cache's 1536 full
/// entries, so entries are evicted (and pages repacked) without faults.
const SWEEP_PAGES: u64 = 2_400;
/// Fault seeds replayed after the fault-free run.
const SEEDS: [u64; 2] = [0xC0FFEE, 0x5EED_0002];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

fn world() -> DataWorld {
    DataWorld::new(&benchmark(BENCH).expect("paper benchmark"))
}

/// The fixed schedule: a write-heavy hot set interleaved with a sweep
/// over many cold pages, plus a ballooning invalidation every 500
/// ops where the device supports it. Returns a digest of every op's
/// completion time and the final time.
fn drive<B: Backend>(device: &mut B, mut invalidate: impl FnMut(&mut B, u64)) -> (u64, u64) {
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let mut times = Fnv::new();
    let mut t = 0u64;
    let mut sweep = 0u64;
    for i in 0..OPS {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let r = lcg >> 33;
        let (page, write) = if r.is_multiple_of(3) {
            sweep += 1;
            (HOT_PAGES + sweep % SWEEP_PAGES, (r >> 4).is_multiple_of(3))
        } else {
            (r % HOT_PAGES, (r >> 8) % 5 < 2)
        };
        let addr = page * PAGE_BYTES + ((r >> 12) % 64) * 64;
        let done = if write {
            device.writeback(t, addr)
        } else {
            device.fill(t, addr)
        };
        times.u64(done);
        t = done.max(t) + 20;
        if i % 500 == 499 {
            invalidate(device, (r >> 20) % HOT_PAGES);
        }
    }
    (times.0, t)
}

fn write_common<D: MemoryDevice>(out: &mut String, device: &D, times: (u64, u64)) {
    writeln!(out, "  times: digest {:016x}, end {}", times.0, times.1).unwrap();
    writeln!(out, "  device: {:?}", device.device_stats()).unwrap();
    writeln!(out, "  dram: {:?}", device.dram_stats()).unwrap();
    let mut metrics = Fnv::new();
    let snapshot = device.metrics().snapshot();
    for (name, value) in &snapshot.metrics {
        metrics.bytes(format!("{name}={value:?};").as_bytes());
    }
    writeln!(
        out,
        "  metrics: {} entries, digest {:016x}",
        snapshot.metrics.len(),
        metrics.0
    )
    .unwrap();
    writeln!(
        out,
        "  mpa: used {} B, touched {} B, ratio {:?}",
        device.mpa_used_bytes(),
        device.touched_ospa_bytes(),
        device.compression_ratio()
    )
    .unwrap();
}

fn write_journal(out: &mut String, journal: Option<&[u8]>) {
    let j = journal.expect("journaling on");
    writeln!(out, "  journal: {} B, digest {:016x}", j.len(), fnv(j)).unwrap();
}

fn write_report(out: &mut String, report: &RecoveryReport) {
    writeln!(out, "  recovery: {report:?}").unwrap();
}

fn write_compresso_snapshots(out: &mut String, d: &CompressoDevice) {
    let mut pages = Fnv::new();
    for (page, img) in d.pages_snapshot() {
        pages.u64(page);
        pages.bytes(&img);
    }
    let mut owners = Fnv::new();
    for (addr, (page, bytes)) in d.owners_snapshot() {
        owners.u64(addr);
        owners.u64(page);
        owners.u64(bytes as u64);
    }
    writeln!(
        out,
        "  pages: {} entries, digest {:016x}; owners: {} blocks, digest {:016x}",
        d.pages_snapshot().len(),
        pages.0,
        d.owners_snapshot().len(),
        owners.0
    )
    .unwrap();
}

fn plans() -> Vec<(String, Option<FaultPlan>)> {
    let mut plans = vec![("no faults".to_string(), None)];
    for seed in SEEDS {
        plans.push((
            format!("aggressive({seed:#x})"),
            Some(FaultPlan::aggressive(seed)),
        ));
    }
    plans
}

fn compresso_fingerprint(out: &mut String, label: &str, cfg: CompressoConfig) {
    let durable = || {
        let mut d = CompressoDevice::new(cfg.clone(), world());
        d.enable_journaling(100_000);
        d
    };
    for (plan_label, plan) in plans() {
        writeln!(out, "{label} / {plan_label}").unwrap();
        let mut d = durable();
        if let Some(p) = plan {
            d.inject_faults(p);
        }
        let times = drive(&mut d, |d, p| d.invalidate_page(p));
        write_common(out, &d, times);
        writeln!(out, "  faults: {:?}", d.fault_stats()).unwrap();
        write_journal(out, d.journal_bytes());
        write_compresso_snapshots(out, &d);

        let (mut r, report) = durable().recover(d.journal_bytes().expect("journaling on"));
        write_report(out, &report);
        write_journal(out, r.journal_bytes());
        write_compresso_snapshots(out, &r);
        let times = drive(&mut r, |d, p| d.invalidate_page(p));
        write_common(out, &r, times);
        write_journal(out, r.journal_bytes());
    }
}

fn lcp_fingerprint(out: &mut String, align: bool) {
    let label = if align { "LCP+Align" } else { "LCP" };
    let build = || {
        if align {
            LcpDevice::lcp_align(world())
        } else {
            LcpDevice::lcp(world())
        }
    };
    for (plan_label, plan) in plans() {
        writeln!(out, "{label} / {plan_label}").unwrap();
        let mut d = build();
        d.enable_journaling();
        if let Some(p) = plan {
            d.inject_faults(p);
        }
        let times = drive(&mut d, |_, _| ());
        write_common(out, &d, times);
        writeln!(out, "  faults: {:?}", d.fault_stats()).unwrap();
        write_journal(out, d.journal_bytes());

        let (mut r, report) = build().recover(d.journal_bytes().expect("journaling on"));
        write_report(out, &report);
        write_journal(out, r.journal_bytes());
        let times = drive(&mut r, |_, _| ());
        write_common(out, &r, times);
        write_journal(out, r.journal_bytes());
    }
}

#[test]
fn device_fingerprint_matches_golden() {
    let mut out = String::new();
    lcp_fingerprint(&mut out, false);
    lcp_fingerprint(&mut out, true);
    compresso_fingerprint(&mut out, "Compresso durable", CompressoConfig::compresso());
    let variable = CompressoConfig {
        allocation: PageAllocation::Variable4,
        ..CompressoConfig::compresso()
    };
    compresso_fingerprint(&mut out, "Compresso durable Variable4", variable);

    let path = format!(
        "{}/tests/golden/device_fingerprint.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("COMPRESSO_BLESS").is_ok() {
        std::fs::create_dir_all(format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR")))
            .expect("create golden dir");
        std::fs::write(&path, &out).expect("write golden file");
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(
        golden, out,
        "\nthe device fingerprint changed. If this behaviour change is \
         intentional, regenerate with \
         `COMPRESSO_BLESS=1 cargo test -p compresso-core --test device_fingerprint` \
         and commit the new golden file."
    );
}
