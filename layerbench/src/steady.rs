//! The steady-state workloads, `gcc-steady` and `mix10-steady`.
//!
//! Each repetition sets the four systems up, runs a warm-up that is
//! excluded from measurement (writebacks only start once the L3 holds
//! dirty lines), then runs the steady window. Warm-up and window run in
//! op chunks, round-robin across the systems, so that a slow spell of the
//! shared host hits all four alike, with a calibration slice after each
//! round; each phase's host times are reported at the reference host
//! speed its slices measured (see `calib`). Throughput is the median over
//! chunks.

use crate::calib::{self, Slices};
use crate::driver::{
    check_equivalence, elapsed_ns, Digest, SetupTimes, SimRun, Spec, Sys, SysWindow,
};
use crate::layers::{layer_metrics, LayerInput};
use crate::probe::LineSample;
use crate::report::{median, ratio, Params, Report};
use crate::{guarded, peak_rss_mb, SETUP_SAMPLES};
use compresso_workloads::mix;
use std::time::Instant;

pub struct Steady {
    name: &'static str,
    spec: Spec,
    /// Demand ops (over all cores) excluded from measurement.
    warmup: u64,
    /// Demand ops in the measured window.
    window: u64,
    /// Demand ops per timed chunk of the window.
    chunk: u64,
    /// Demand ops generated per core: enough that no core runs out
    /// before the window ends.
    trace_ops_per_core: usize,
    /// Demand ops per core of the equivalence check.
    check_ops: usize,
}

/// What the traced repetition adds.
struct TraceExtras {
    sample: LineSample,
    dram: Result<f64, String>,
    snapshot_ns: f64,
}

/// One repetition: set-up, warm-up and window of the four systems.
struct Rep {
    setup: Vec<SetupTimes>,
    warmup_ns: Vec<u64>,
    windows: Vec<SysWindow>,
    digests: Vec<Digest>,
    /// Host time of the round-robin window loop.
    loop_ns: u64,
    /// Host time of the set-up, warm-up and window, without the
    /// calibration slices run between them.
    wall_ns: u64,
    /// Calibration slices of the warm-up, of the window, and of the
    /// whole repetition.
    warmup_slices: Slices,
    window_slices: Slices,
    slices: Slices,
    extras: Option<TraceExtras>,
}

impl Rep {
    /// Host time each system took, set-up through window.
    fn system_ns(&self) -> Vec<u64> {
        (0..self.windows.len())
            .map(|i| self.setup[i].total_ns() + self.warmup_ns[i] + self.windows[i].span_ns())
            .collect()
    }
}

/// Every steady window must exercise the paper's data-movement
/// mechanisms.
fn regime(sys: Sys, w: &SysWindow) -> Result<(), String> {
    let c = &w.counts;
    let required: Vec<(&str, u64)> = match sys {
        Sys::Compresso => vec![
            ("writebacks", c.writebacks),
            ("line overflows", c.line_overflows),
            ("IR placements", c.ir_placements),
            ("IR expansions", c.ir_expansions),
            ("overflow_extra", c.overflow_extra),
            ("repacks", c.repacks),
        ],
        Sys::Lcp | Sys::LcpAlign => vec![("page overflows", c.page_overflows)],
        Sys::Uncompressed => Vec::new(),
    };
    let missing: Vec<&str> = required
        .iter()
        .filter(|(_, n)| *n == 0)
        .map(|(name, _)| *name)
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!("steady window without {}", missing.join(", ")))
    }
}

impl Steady {
    /// One gcc trace on the single-core Tab. III platform.
    pub fn gcc(seed: u64) -> Self {
        Self {
            name: "gcc-steady",
            spec: Spec::single("gcc", seed),
            warmup: 60_000,
            window: 60_000,
            chunk: 2_000,
            trace_ops_per_core: 120_000,
            check_ops: 3_000,
        }
    }

    /// Tab. IV mix10 on the 4-core shared-L3 platform.
    pub fn mix10(seed: u64) -> Self {
        let members = mix("mix10").expect("Tab. IV lists mix10");
        Self {
            name: "mix10-steady",
            spec: Spec::mix("mix10", members, seed),
            warmup: 120_000,
            window: 120_000,
            chunk: 2_000,
            trace_ops_per_core: 90_000,
            check_ops: 1_000,
        }
    }

    pub fn describe(&self, params: &mut Params) {
        let names: Vec<&str> = self.spec.profiles.iter().map(|p| p.name).collect();
        params.set("benchmarks", names.join("+"));
        params.set("jobs", 1);
        params.set("warmup_ops", self.warmup);
        params.set("window_ops", self.window);
        params.set("chunk_ops", self.chunk);
        params.set("trace_ops_per_core", self.trace_ops_per_core);
        params.set("check_ops", self.check_ops);
    }

    fn run_rep(&self, sample_seed: Option<u64>) -> Result<Rep, String> {
        let rep_start = Instant::now();
        let mut slices = Slices::default();
        let mut runs = Vec::with_capacity(Sys::ALL.len());
        let mut setup = Vec::with_capacity(Sys::ALL.len());
        for sys in Sys::ALL {
            let (run, times) = SimRun::setup(&self.spec, sys, self.trace_ops_per_core, sample_seed);
            runs.push(run);
            setup.push(times);
            slices.take();
        }
        // The warm-up runs round-robin in chunks too, so that its slices
        // sample the host all through it.
        let mut warmup_slices = Slices::default();
        let mut warmup_ns = vec![0; runs.len()];
        let mut target = 0;
        while target < self.warmup {
            target = (target + self.chunk).min(self.warmup);
            for (run, ns) in runs.iter_mut().zip(&mut warmup_ns) {
                let start = Instant::now();
                if !run.advance(target) {
                    return Err(format!("{}: trace ended in the warm-up", run.sys.label()));
                }
                *ns += elapsed_ns(start);
            }
            warmup_slices.take();
        }
        let marks: Vec<_> = runs.iter_mut().map(SimRun::mark).collect();
        let mut windows = vec![SysWindow::default(); runs.len()];
        let end = self.warmup + self.window;
        let loop_start = Instant::now();
        let mut window_slices = Slices::default();
        while target < end {
            target = (target + self.chunk).min(end);
            for (run, window) in runs.iter_mut().zip(&mut windows) {
                if !run.timed_advance(target, window) {
                    return Err(format!("{}: trace ended in the window", run.sys.label()));
                }
            }
            window_slices.take();
        }
        let loop_ns = elapsed_ns(loop_start) - window_slices.total_ns();
        slices.absorb(&warmup_slices);
        slices.absorb(&window_slices);
        for ((run, mark), window) in runs.iter_mut().zip(&marks).zip(&mut windows) {
            run.close(mark, window);
        }
        let extras = sample_seed.map(|_| {
            let mut sample = LineSample::new(0);
            for sys in [Sys::Compresso, Sys::Lcp, Sys::LcpAlign] {
                if let Some(s) = runs[sys.index()].sample() {
                    sample.absorb(&s);
                }
            }
            TraceExtras {
                sample,
                dram: runs[Sys::Uncompressed.index()]
                    .dram_check()
                    .unwrap_or_else(|| Err("no DRAM stream recorded".to_string())),
                snapshot_ns: runs[Sys::Compresso.index()].snapshot_ns(),
            }
        });
        let digests = runs.iter_mut().map(SimRun::finish).collect();
        drop(runs);
        Ok(Rep {
            setup,
            warmup_ns,
            windows,
            digests,
            loop_ns,
            wall_ns: elapsed_ns(rep_start) - slices.total_ns(),
            warmup_slices,
            window_slices,
            slices,
            extras,
        })
    }

    /// Runs the checks and the repetitions, and reports the end-to-end
    /// metrics (`trace` false) or the per-layer ones.
    pub fn run(&self, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
        let sample_seed = seed ^ 0x5A3D_17E5;
        for sys in Sys::ALL {
            let label = format!("{}/{}", self.spec.name, sys.label());
            report.attempt(
                &format!("equivalence {label} vs compresso_exp"),
                guarded(|| check_equivalence(&self.spec, sys, self.check_ops, None)),
            );
            if trace {
                report.attempt(
                    &format!("equivalence {label} (traced) vs compresso_exp"),
                    guarded(|| {
                        check_equivalence(&self.spec, sys, self.check_ops, Some(sample_seed))
                    }),
                );
            }
        }

        let start = Instant::now();
        let mut reps = Vec::new();
        loop {
            match guarded(|| self.run_rep(None)) {
                Ok(rep) => reps.push(rep),
                Err(e) => {
                    report.attempt(&format!("{} repetition", self.name), Err(e));
                    break;
                }
            }
            if trace || start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        let traced = if trace {
            match guarded(|| self.run_rep(Some(sample_seed))) {
                Ok(rep) => Some(rep),
                Err(e) => {
                    report.attempt(&format!("{} traced repetition", self.name), Err(e));
                    None
                }
            }
        } else {
            None
        };

        // Every window must be in regime and simulate exactly what the
        // first untraced repetition did: the wrappers are invisible.
        let reference = reps.first().map(|r| r.digests.clone());
        for (i, rep) in reps.iter().chain(&traced).enumerate() {
            let tag = if i < reps.len() {
                format!("repetition {i}")
            } else {
                "traced repetition".to_string()
            };
            for sys in Sys::ALL {
                let k = sys.index();
                let mut outcome = regime(sys, &rep.windows[k]);
                if let Some(reference) = &reference {
                    let differs = reference[k].diff(&rep.digests[k]);
                    if outcome.is_ok() && !differs.is_empty() {
                        outcome = Err(format!(
                            "simulated digest differs from repetition 0 in {}",
                            differs.join(", ")
                        ));
                    }
                }
                report.attempt(&format!("{}/{} {tag}", self.name, sys.label()), outcome);
            }
        }
        if let Some(rep) = reps.first() {
            for sys in Sys::ALL {
                let (digest, c) = (&rep.digests[sys.index()], &rep.windows[sys.index()].counts);
                report.note(format!(
                    "digest {}/{}: {}",
                    self.name,
                    sys.label(),
                    digest.summary()
                ));
                report.note(format!(
                    "window {}/{}: ops={} writebacks={} line_overflows={} ir_placements={} ir_expansions={} overflow_extra={} page_overflows={} repacks={}",
                    self.name,
                    sys.label(),
                    rep.windows[sys.index()].ops,
                    c.writebacks,
                    c.line_overflows,
                    c.ir_placements,
                    c.ir_expansions,
                    c.overflow_extra,
                    c.page_overflows,
                    c.repacks,
                ));
            }
            let c = &rep.windows[Sys::Compresso.index()].counts;
            if c.page_overflows == 0 {
                report.note(format!(
                    "finding: Compresso page overflows stay 0 in the steady window although recompressions fire (overflow_extra = {})",
                    c.overflow_extra
                ));
            }
        }

        match &traced {
            Some(traced) => self.layers(&reps, traced, sample_seed, report),
            None => self.end_to_end(&reps, report),
        }
    }

    /// Reports the end-to-end metrics, each host time at the reference
    /// host speed of its phase (see `calib`).
    fn end_to_end(&self, reps: &[Rep], report: &mut Report) {
        // Set-up samples of their own, each between two slices: the
        // slower workloads run too few repetitions for a steady median.
        let setups: Vec<f64> = (0..SETUP_SAMPLES)
            .map(|_| {
                let mut slices = Slices::default();
                slices.take();
                let ns: u64 = Sys::ALL
                    .into_iter()
                    .map(|sys| {
                        SimRun::setup(&self.spec, sys, self.trace_ops_per_core, None)
                            .1
                            .total_ns()
                    })
                    .sum();
                slices.take();
                ns as f64 / 1e9 / slices.slowdown()
            })
            .collect();
        calib::note(report);
        report.metric("setup_s", median(&setups), "s");
        let warmups: Vec<f64> = reps
            .iter()
            .map(|r| r.warmup_ns.iter().sum::<u64>() as f64 / 1e9 / r.warmup_slices.slowdown())
            .collect();
        report.metric("warmup_s", median(&warmups), "s");
        for sys in Sys::ALL {
            let rates: Vec<f64> = reps
                .iter()
                .flat_map(|r| {
                    let slowdown = r.window_slices.slowdown();
                    r.windows[sys.index()]
                        .chunks
                        .iter()
                        .map(move |&(ops, ns)| ratio(ops as f64 * 1e9, ns as f64) * slowdown)
                })
                .collect();
            report.metric(format!("{}.ops_per_s", sys.key()), median(&rates), "1/s");
        }
        let walls: Vec<f64> = reps
            .iter()
            .map(|r| r.wall_ns as f64 / 1e9 / r.slices.slowdown())
            .collect();
        let wall = median(&walls);
        report.metric("wall_s", wall, "s");
        report.metric("cells_per_s", ratio(Sys::ALL.len() as f64, wall), "1/s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }

    fn layers(&self, reps: &[Rep], traced: &Rep, sample_seed: u64, report: &mut Report) {
        let Some(extras) = &traced.extras else {
            return;
        };
        report.attempt(
            "DRAM replay of the uncompressed device matches its MemStats",
            extras.dram.clone().map(|_| ()),
        );
        let ns_per_op = |windows: &mut dyn Iterator<Item = &SysWindow>| {
            let (ns, ops) = windows.fold((0.0, 0.0), |(ns, ops), w| {
                (ns + w.span_ns() as f64, ops + w.ops as f64)
            });
            ratio(ns, ops)
        };
        let untraced = ns_per_op(&mut reps.iter().flat_map(|r| &r.windows));
        let setups: Vec<&SetupTimes> = reps.iter().flat_map(|r| &r.setup).collect();
        let worlds: Vec<f64> = setups.iter().map(|s| s.world_ns as f64).collect();
        let (trace_ns, trace_ops) = setups.iter().fold((0.0, 0.0), |(ns, ops), s| {
            (ns + s.trace_ns as f64, ops + s.trace_ops as f64)
        });
        let efficiency: Vec<f64> = reps
            .iter()
            .map(|r| ratio(r.system_ns().iter().sum::<u64>() as f64, r.wall_ns as f64))
            .collect();
        let slowest: Vec<f64> = reps
            .iter()
            .map(|r| r.system_ns().into_iter().max().unwrap_or(0) as f64 / 1e6)
            .collect();
        let input = LayerInput {
            traced: traced.windows.clone(),
            loop_ns: traced.loop_ns,
            overhead: ratio(ns_per_op(&mut traced.windows.iter()), untraced) - 1.0,
            sample: extras.sample.clone(),
            seed: sample_seed,
            world_build_ns: median(&worlds),
            trace_gen_ns_per_op: ratio(trace_ns, trace_ops),
            dram_ns_per_request: extras.dram.clone().unwrap_or(0.0),
            snapshot_ns: extras.snapshot_ns,
            parallel_efficiency: median(&efficiency),
            cell_ms_max: median(&slowest),
        };
        layer_metrics(&input, report);
    }
}
