//! Golden: a `llm-pilot characterize` run whose fault plan aborts a load
//! test mid-run (an engine crash at ~85 virtual seconds on
//! Llama-2-13b/2xA100-40GB) and then measures the cell on the retry.
//!
//! The printed report — every `[tails]` line included — must match
//! `tests/data/characterize_llama2_13b_fault.stdout`, and the dataset rows
//! must match the Llama-2-13b rows of the fault-free full-grid dataset in
//! `perfbench/data/offline-seed0.csv`. The tails count the aborted attempt's
//! samples too, so a load test that dropped its samples on an early
//! return changes the 2xA100-40GB line.

use std::path::Path;
use std::process::Command;

const LLM: &str = "Llama-2-13b";

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn faulted_sweep_matches_the_golden_tails_and_rows() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = std::env::temp_dir().join(format!("llmpilot-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("fault.csv");

    let run = Command::new(env!("CARGO_BIN_EXE_llm-pilot"))
        .args(["characterize", "--llm", LLM, "--fault-prob", "0.02", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    assert!(run.status.success(), "characterize failed: {}", String::from_utf8_lossy(&run.stderr));

    let golden = read(&root.join("tests/data/characterize_llama2_13b_fault.stdout"));
    assert!(golden.contains("1 retried"), "the golden run must retry a cell");
    let stdout = String::from_utf8(run.stdout).unwrap();
    let report: String =
        stdout.lines().filter(|l| !l.starts_with("wrote ")).map(|l| format!("{l}\n")).collect();
    assert_eq!(report, golden, "characterize report differs from the golden");

    let full = read(&root.join("perfbench/data/offline-seed0.csv"));
    let mut full_lines = full.lines();
    let header = full_lines.next().unwrap();
    let want: Vec<&str> = std::iter::once(header)
        .chain(full_lines.filter(|l| l.split(',').next() == Some(LLM)))
        .collect();
    let got = read(&out);
    assert_eq!(got.lines().collect::<Vec<_>>(), want, "dataset rows differ from the full grid's");
    std::fs::remove_dir_all(&dir).unwrap();
}
