//! Integration: a `llm-pilot characterize --journal` process killed mid-sweep
//! and then resumed writes a dataset byte-identical to a one-shot run.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use llm_pilot::sim::gpu::paper_profiles;
use llm_pilot::sim::llm::llm_catalog;

fn characterize(out: &Path, journal: Option<&Path>) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_llm-pilot"));
    cmd.args(["characterize", "--duration", "20", "--out"]).arg(out).stdout(Stdio::null());
    if let Some(journal) = journal {
        cmd.arg("--journal").arg(journal);
    }
    cmd
}

/// Cells the journal records in full (each cell's lines are one append).
fn journaled_cells(journal: &Path) -> usize {
    std::fs::read_to_string(journal)
        .map(|text| text.lines().filter(|l| l.starts_with("cell,")).count())
        .unwrap_or(0)
}

#[test]
fn killed_sweep_resumes_to_the_one_shot_dataset() {
    let dir = std::env::temp_dir().join(format!("llmpilot-kill-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.csv");
    let resumed = dir.join("resumed.csv");
    let one_shot = dir.join("one-shot.csv");
    let grid = llm_catalog().len() * paper_profiles().len();

    let mut child = characterize(&resumed, Some(&journal)).spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(300);
    while journaled_cells(&journal) == 0 {
        assert!(child.try_wait().unwrap().is_none(), "the sweep exited before journaling a cell");
        assert!(Instant::now() < deadline, "no cell journaled in time");
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    let killed_at = journaled_cells(&journal);
    assert!(killed_at < grid, "the kill must land mid-sweep ({killed_at} of {grid} cells)");
    assert!(!resumed.exists(), "a killed sweep must not leave a dataset behind");

    assert!(characterize(&resumed, Some(&journal)).status().unwrap().success());
    assert!(characterize(&one_shot, None).status().unwrap().success());
    assert!(
        std::fs::read(&resumed).unwrap() == std::fs::read(&one_shot).unwrap(),
        "the resumed dataset must be byte-identical to the one-shot dataset"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
