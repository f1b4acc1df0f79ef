//! The command line every figure binary shares.
//!
//! A binary declares its value flags with their defaults. [`Cli::parse`]
//! accepts those plus the common `--jobs N`, `--metrics-out PATH` and
//! `--epoch TICKS`, exits with code 2 and a usage line on anything else,
//! and prints the Tab. III banner. The binary then runs its entry point
//! with [`Cli::opts`], passes the metric cells to [`Cli::write_metrics`]
//! and prints its report.

use crate::sweep::SweepOptions;
use compresso_telemetry::{write_doc, CellMetrics, MetricsDoc};
use std::path::PathBuf;
use std::str::FromStr;

/// The flags every figure binary accepts.
const COMMON: [&str; 3] = ["--jobs", "--metrics-out", "--epoch"];

/// A figure binary's parsed command line.
#[derive(Debug)]
pub struct Cli {
    name: &'static str,
    /// How the binary's sweeps run: `--jobs` workers (else the
    /// machine's parallelism), progress lines
    /// on stderr, and an epoch series every `--epoch` ticks, recorded only
    /// when `--metrics-out` asks for a document to hold it.
    pub opts: SweepOptions,
    metrics_out: Option<PathBuf>,
}

impl Cli {
    /// Parses the process's arguments for binary `name`, whose own value
    /// flags are `flags` (`(flag, default)`), and returns the parsed
    /// command line with those flags' values in declaration order. Prints
    /// the Tab. III banner; on a bad command line prints the error and
    /// the usage line to stderr and exits with code 2 instead.
    pub fn parse<const N: usize>(
        name: &'static str,
        flags: [(&'static str, usize); N],
    ) -> (Self, [usize; N]) {
        match Self::try_parse(name, flags, std::env::args().skip(1)) {
            Ok(parsed) => {
                println!("{}\n", crate::params_banner());
                parsed
            }
            Err(e) => {
                eprintln!("{name}: {e}\n{}", usage(name, &flags));
                std::process::exit(2);
            }
        }
    }

    /// [`Cli::parse`] over `args` (without the program name), returning
    /// the error instead of exiting: an unknown argument, a flag without
    /// its value, or a value that is not a whole number.
    fn try_parse<const N: usize>(
        name: &'static str,
        flags: [(&'static str, usize); N],
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Self, [usize; N]), String> {
        let mut values = flags.map(|(_, default)| default);
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut opts = SweepOptions {
            progress: true,
            ..SweepOptions::with_jobs(jobs)
        };
        let (mut metrics_out, mut epoch) = (None, 0);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let declared = flags.iter().position(|(f, _)| *f == flag);
            if declared.is_none() && !COMMON.contains(&flag.as_str()) {
                return Err(format!("unknown argument `{flag}`"));
            }
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            match (declared, flag.as_str()) {
                (Some(i), _) => values[i] = number(&flag, &value)?,
                (None, "--jobs") => opts.jobs = number::<usize>(&flag, &value)?.max(1),
                (None, "--epoch") => epoch = number(&flag, &value)?,
                (None, _) => metrics_out = Some(PathBuf::from(value)),
            }
        }
        opts.epoch = if metrics_out.is_some() { epoch } else { 0 };
        let cli = Self {
            name,
            opts,
            metrics_out,
        };
        Ok((cli, values))
    }

    /// Writes the `compresso.metrics.v1` document, named after the
    /// binary, if `--metrics-out` was given; reports the path (or the
    /// error) on stderr, never aborting the run.
    pub fn write_metrics(&self, epoch_unit: &str, cells: Vec<CellMetrics>) {
        let Some(path) = &self.metrics_out else {
            return;
        };
        let doc = MetricsDoc::new(self.name, epoch_unit, self.opts.epoch, cells);
        match write_doc(path, &doc) {
            Ok(()) => eprintln!(
                "[metrics] wrote {} ({} cells)",
                path.display(),
                doc.cells.len()
            ),
            Err(e) => eprintln!("[metrics] FAILED to write {}: {e}", path.display()),
        }
    }
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag}` takes a whole number, not `{value}`"))
}

/// The usage line of binary `name` with its own value flags `flags`.
fn usage(name: &str, flags: &[(&str, usize)]) -> String {
    let own: String = flags
        .iter()
        .map(|(flag, default)| format!(" [{flag} N (default {default})]"))
        .collect();
    format!("usage: {name}{own} [--jobs N] [--metrics-out PATH] [--epoch TICKS]")
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG10: [(&str, usize); 2] = [("--ops", 50_000), ("--cap-ops", 4_000_000)];

    fn parse<const N: usize>(
        flags: [(&'static str, usize); N],
        args: &[&str],
    ) -> Result<(Cli, [usize; N]), String> {
        Cli::try_parse("prog", flags, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn declared_flags_default_and_override() {
        let (cli, values) = parse(FIG10, &[]).expect("no arguments parse");
        assert_eq!(values, [50_000, 4_000_000]);
        assert!(cli.opts.jobs >= 1);
        assert!(cli.opts.progress);
        assert_eq!(cli.opts.epoch, 0);

        let (cli, values) =
            parse(FIG10, &["--cap-ops", "7", "--jobs", "3", "--ops", "800000"]).expect("parses");
        assert_eq!(values, [800_000, 7]);
        assert_eq!(cli.opts.jobs, 3);
        let (cli, _) = parse(FIG10, &["--jobs", "0"]).expect("parses");
        assert_eq!(cli.opts.jobs, 1, "at least one worker");
    }

    #[test]
    fn bad_command_lines_are_errors_not_defaults() {
        for (args, expected) in [
            (&["--opps", "800000"][..], "unknown argument `--opps`"),
            (&["--pages", "10"], "unknown argument `--pages`"),
            (&["800000"], "unknown argument `800000`"),
            (&["--ops", "8e5"], "`--ops` takes a whole number, not `8e5`"),
            (&["--ops", "-1"], "not `-1`"),
            (&["--jobs", "two"], "`--jobs` takes a whole number"),
            (&["--epoch", "1.5"], "`--epoch` takes a whole number"),
            (&["--ops"], "`--ops` needs a value"),
            (&["--metrics-out"], "`--metrics-out` needs a value"),
        ] {
            let err = parse(FIG10, args).expect_err("must be rejected");
            assert!(err.contains(expected), "{args:?}: {err}");
        }
    }

    #[test]
    fn a_binary_without_flags_still_takes_the_common_ones() {
        let (cli, []) = parse(
            [],
            &["--jobs", "2", "--metrics-out", "m.json", "--epoch", "500"],
        )
        .expect("common flags parse");
        assert_eq!(cli.opts.jobs, 2);
        assert_eq!(cli.opts.epoch, 500);
        assert_eq!(
            cli.metrics_out.as_deref(),
            Some(std::path::Path::new("m.json"))
        );
        assert!(parse([], &["--ops", "5"]).is_err());
    }

    #[test]
    fn epoch_is_recorded_only_for_a_metrics_document() {
        let (cli, _) = parse(FIG10, &["--epoch", "500"]).expect("parses");
        assert_eq!(cli.opts.epoch, 0);
        assert!(cli.metrics_out.is_none());
    }

    #[test]
    fn usage_lists_declared_and_common_flags() {
        assert_eq!(
            usage("fig10", &FIG10),
            "usage: fig10 [--ops N (default 50000)] [--cap-ops N (default 4000000)] \
             [--jobs N] [--metrics-out PATH] [--epoch TICKS]"
        );
    }
}
