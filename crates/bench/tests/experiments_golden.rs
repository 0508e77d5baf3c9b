//! Goldens: the stdout of the cheap deterministic experiments must match
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
//!
//! The rest pin the paper's other tables and figures: the trace
//! statistics (`table2`), the feasibility matrix (`table3`), the
//! request-parameter correlations (`fig3`), the knob MDI of one deployment
//! (`fig4`), the marginal CDFs of traces against the workload generator
//! (`fig6`), the flan-t5-xxl latency/throughput curves across GPU profiles
//! (`fig7`), the random-forest latency model on the traces with its MDI
//! ranking (`mdi_traces`), the benchmarking-tool row, which runs the full
//! characterization sweep (`table4`), and the workload generator's bin
//! budget (`ablate_bins`).

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

/// One `#[test]` per golden: `name => experiment id`.
macro_rules! golden_tests {
    ($($test:ident => $id:literal,)*) => {$(
        #[test]
        fn $test() {
            assert_matches_golden($id);
        }
    )*};
}

golden_tests! {
    fig1_matches_the_golden => "fig1",
    table1_matches_the_golden => "table1",
    ablate_paged_matches_the_golden => "ablate_paged",
    corr_ablation_matches_the_golden => "corr_ablation",
    ablate_regressor_matches_the_golden => "ablate_regressor",
    resilience_matches_the_golden => "resilience",
    table2_matches_the_golden => "table2",
    table3_matches_the_golden => "table3",
    fig3_matches_the_golden => "fig3",
    fig4_matches_the_golden => "fig4",
    fig6_matches_the_golden => "fig6",
    fig7_matches_the_golden => "fig7",
    mdi_traces_matches_the_golden => "mdi_traces",
    table4_matches_the_golden => "table4",
    ablate_bins_matches_the_golden => "ablate_bins",
}
