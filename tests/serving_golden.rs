//! Golden: the daemon's serving model, trained with
//! `online_predictor_config()` and the paper's default constraints on the
//! full-grid dataset `perfbench/data/offline-seed0.csv`, predicts exactly
//! the nTTFT/ITL bit patterns in `tests/data/serving_predictions_seed0.txt`
//! for every dataset row. Any change to the GBDT fit that moves a single
//! float of either model changes a line.

use std::fmt::Write as _;
use std::path::Path;

use llm_pilot::core::recommend::parse_profile;
use llm_pilot::core::{
    online_predictor_config, CharacterizationDataset, LatencyConstraints, ServingModel,
};
use llm_pilot::sim::llm::llm_by_name;

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One `llm,profile,users,nttft_bits,itl_bits` line per dataset row, the
/// bits as 16 hex digits.
fn prediction_bits(csv: &str) -> String {
    let ds = CharacterizationDataset::from_csv(csv).unwrap();
    let model =
        ServingModel::train(&ds, &LatencyConstraints::paper_defaults(), &online_predictor_config())
            .unwrap();
    let mut out = String::new();
    for row in &ds.rows {
        let llm = llm_by_name(&row.llm).unwrap();
        let profile = parse_profile(&row.profile).unwrap();
        let (nttft, itl) = model.predictor().predict(&llm, &profile, row.users);
        writeln!(
            out,
            "{},{},{},{:016x},{:016x}",
            row.llm,
            row.profile,
            row.users,
            nttft.to_bits(),
            itl.to_bits()
        )
        .unwrap();
    }
    out
}

#[test]
fn serving_predictions_match_the_golden_bits() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let got = prediction_bits(&read(&root.join("perfbench/data/offline-seed0.csv")));
    let golden = read(&root.join("tests/data/serving_predictions_seed0.txt"));
    assert_eq!(got.lines().count(), 544, "one line per dataset row");
    for (i, (g, want)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, want, "prediction bits differ at row {i}");
    }
    assert_eq!(got.lines().count(), golden.lines().count());
}
