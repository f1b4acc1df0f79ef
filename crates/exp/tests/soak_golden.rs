//! Soak output golden: `soak --seeds 8 --base-seed 1 --rounds 2` must
//! print exactly the checked-in lines. Each line carries a seed's crash
//! record, pages rebuilt, prewarm count, rot flips and scrub repairs, so
//! any drift in journaling, recovery or scrubbing shows up here, not
//! only in the exit code.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! COMPRESSO_BLESS=1 cargo test -p compresso-exp --test soak_golden
//! ```

use std::process::Command;

#[test]
fn soak_stdout_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_soak"))
        .args(["--seeds", "8", "--base-seed", "1", "--rounds", "2"])
        .output()
        .expect("soak runs");
    assert!(
        out.status.success(),
        "soak failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let path = format!(
        "{}/tests/golden/soak_seeds8_rounds2.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("COMPRESSO_BLESS").is_ok() {
        std::fs::write(&path, &actual).expect("write golden file");
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(
        golden, actual,
        "\nthe soak output changed. If this behaviour change is intentional, \
         regenerate with `COMPRESSO_BLESS=1 cargo test -p compresso-exp \
         --test soak_golden` and commit the new golden file."
    );
}
