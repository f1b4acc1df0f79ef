//! Every figure binary parses its command line through `Cli`: it accepts
//! the common flags, and a bad argument exits with code 2 and the
//! binary's usage line before anything runs.

use std::process::Command;

/// Each figure binary with the path Cargo built it at.
const BINARIES: [(&str, &str); 12] = [
    ("all", env!("CARGO_BIN_EXE_all")),
    ("balloon", env!("CARGO_BIN_EXE_balloon")),
    ("fig2", env!("CARGO_BIN_EXE_fig2")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("fig7", env!("CARGO_BIN_EXE_fig7")),
    ("fig9", env!("CARGO_BIN_EXE_fig9")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("fig12", env!("CARGO_BIN_EXE_fig12")),
    ("tab2", env!("CARGO_BIN_EXE_tab2")),
    ("tradeoffs", env!("CARGO_BIN_EXE_tradeoffs")),
];

#[test]
fn a_bad_argument_exits_2_with_usage_after_the_common_flags_parse() {
    for (name, path) in BINARIES {
        let out = Command::new(path)
            .args([
                "--jobs",
                "2",
                "--metrics-out",
                "unused.json",
                "--epoch",
                "5",
            ])
            .args(["--opps", "800000"])
            .output()
            .expect("binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} printed before failing");
        assert!(
            stderr.starts_with(&format!(
                "{name}: unknown argument `--opps`\nusage: {name} "
            )),
            "{name}: {stderr}"
        );
        assert!(
            stderr.contains("[--jobs N] [--metrics-out PATH] [--epoch TICKS]"),
            "{name}: {stderr}"
        );
    }
}
