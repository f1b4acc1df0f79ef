//! `layerbench`: the repository's steady-state, layer-by-layer host-time
//! benchmark of the Compresso simulator.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload gcc-steady|mix10-steady|grid-cold \
//!     [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! cargo run --release --manifest-path layerbench/Cargo.toml -- --compare A.json B.json
//! ```
//!
//! Workloads (one process each; caches start empty; all four evaluated
//! systems):
//!
//! - `gcc-steady`: one gcc trace on the single-core Tab. III platform
//!   (2 MB L3). gcc has the heaviest streaming, degrading write mix and a
//!   16 MB footprint far beyond the L3, so past the warm-up it is the
//!   writeback- and overflow-heavy regime.
//! - `mix10-steady`: Tab. IV mix10 on the 4-core shared 8 MB L3, the
//!   paper's metadata stress case, dominated by repack-on-eviction
//!   re-sizing; the only workload on the multi-core path.
//! - `grid-cold`: the frozen 6-benchmark × 4-system grid of short cold
//!   cells on the sweep engine with one worker per core: first-touch
//!   sizing plus sweep scheduling.
//!
//! `--seed N` moves every benchmark's trace seed by `N × 1000` (0, the
//! default, keeps the paper seeds; see `driver::Spec` for why the data
//! worlds keep theirs). `--trace 0` reports the end-to-end metrics;
//! `--trace 1` wraps the layers' public interfaces in timers and reports
//! the per-layer metrics. Both check that the benchmark's driver
//! reproduces `compresso_exp`'s entry points bit for bit, that every
//! repetition and the traced run simulate the same thing, and that every
//! steady window exercises writebacks, overflows, the inflation room and
//! repacking. End-to-end host times are reported at a reference host
//! speed, measured by a fixed kernel timed alongside the workload, so
//! that the shared host's drifting speed cancels (see `calib`). The last
//! line of standard output is the JSON result;
//! `--out` also saves it with the run parameters, and `--compare` refuses
//! two saved outputs whose parameters differ.

mod calib;
mod driver;
mod grid;
mod layers;
mod probe;
mod report;
mod steady;

use report::{Params, Report};
use std::path::{Path, PathBuf};

/// Set-up samples behind the `setup_s` median.
pub const SETUP_SAMPLES: usize = 9;

const WORKLOADS: [&str; 3] = ["gcc-steady", "mix10-steady", "grid-cold"];

const USAGE: &str = "usage: layerbench --workload gcc-steady|mix10-steady|grid-cold \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       layerbench --compare A.json B.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: want a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            "--out" => args.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: want one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Runs `work`, turning a panic into an error.
pub fn guarded<T>(work: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic of unknown type".to_string());
        Err(format!("panicked: {message}"))
    })
}

/// The process's peak resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out git revision, or `none` outside a git checkout.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a digest of the simulator's sources (`crates/**/*.{rs,toml}`),
/// which names the code under test where there is no git revision.
fn src_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    if files.is_empty() {
        return "none".to_string();
    }
    files.sort();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for file in files {
        let name = file.to_string_lossy().into_owned().into_bytes();
        for byte in name
            .into_iter()
            .chain(std::fs::read(&file).unwrap_or_default())
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{hash:016x}")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        match report::compare(a, b) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut params = Params::default();
    params.set("schema", report::SCHEMA);
    params.set("workload", &args.workload);
    params.set("seed", args.seed);
    params.set("trace", u8::from(args.trace));
    params.set("seconds", args.seconds);
    params.set(
        "systems",
        driver::Sys::ALL.map(driver::Sys::label).join(","),
    );
    params.set("nproc", nproc);
    params.set("git_rev", git_rev());
    params.set("src_digest", src_digest());

    let mut report = Report::default();
    if args.workload == "grid-cold" {
        grid::describe(&mut params, nproc);
        grid::run(args.seed, args.seconds, args.trace, nproc, &mut report);
    } else {
        let workload = if args.workload == "gcc-steady" {
            steady::Steady::gcc(args.seed)
        } else {
            steady::Steady::mix10(args.seed)
        };
        workload.describe(&mut params);
        workload.run(args.seed, args.seconds, args.trace, &mut report);
    }
    report.print(&params);
    if let Some(path) = &args.out {
        if let Err(e) = report.save(path, &params) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}
