//! Goldens: the stdout of the cheap load-test experiments must match
//! `tests/data/experiments_<id>.stdout` byte for byte.
//!
//! Between them these runs cover what the full-grid golden does not: load
//! tests with a warm-up (`fig1`), paged admission with preemption
//! (`ablate_paged`), multi-pod deployments (`table1`, including the
//! Table I diagonal spread), the Sec. V-A sampling ablation
//! (`corr_ablation`), 80 GBDT fits over the sweep dataset under four
//! weight/monotone settings (`ablate_regressor`) and fault-injected sweeps
//! under 1–32 retries (`resilience`): deploy failures, tuning OOMs and
//! load-test crashes, the one experiment that drives a `FaultPlan` end to
//! end.

use std::path::Path;
use std::process::Command;

fn assert_matches_golden(id: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(format!("experiments_{id}.stdout"));
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    let run = Command::new(env!("CARGO_BIN_EXE_experiments")).arg(id).output().unwrap();
    assert!(
        run.status.success(),
        "experiments {id} failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert_eq!(stdout, golden, "experiments {id} differs from {}", golden_path.display());
}

#[test]
fn fig1_matches_the_golden() {
    assert_matches_golden("fig1");
}

#[test]
fn table1_matches_the_golden() {
    assert_matches_golden("table1");
}

#[test]
fn ablate_paged_matches_the_golden() {
    assert_matches_golden("ablate_paged");
}

#[test]
fn corr_ablation_matches_the_golden() {
    assert_matches_golden("corr_ablation");
}

#[test]
fn ablate_regressor_matches_the_golden() {
    assert_matches_golden("ablate_regressor");
}

#[test]
fn resilience_matches_the_golden() {
    assert_matches_golden("resilience");
}
