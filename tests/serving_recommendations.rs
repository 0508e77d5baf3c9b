//! Recommendation equivalence gates for the daemon's query path.
//!
//! * Golden: the serving model trained with `online_predictor_config()` and
//!   the paper's default constraints on `perfbench/data/offline-seed0.csv`
//!   answers every catalog LLM × total-user count × SLA × user grid query
//!   exactly as recorded in `tests/data/serving_recommendations_seed0.txt`
//!   (profile, pods, `u_max` and the cost's bit pattern, or the error).
//! * Property: `ServingModel::recommend` equals the Eq. (1)–(3) search run
//!   directly over per-pair predictions of the model's predictor, on the
//!   memory-feasible candidate profiles, for random queries, including
//!   first queries for one LLM racing from several threads.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

use proptest::prelude::*;

use llm_pilot::core::recommend::recommend;
use llm_pilot::core::{
    online_predictor_config, CharacterizationDataset, CoreError, LatencyConstraints,
    Recommendation, RecommendationRequest, ServingModel, PAPER_USER_GRID,
};
use llm_pilot::sim::gpu::GpuProfile;
use llm_pilot::sim::llm::{llm_by_name, llm_catalog};
use llm_pilot::sim::memory::{MemoryConfig, MemoryModel};

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn dataset() -> CharacterizationDataset {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    CharacterizationDataset::from_csv(&read(&root.join("perfbench/data/offline-seed0.csv")))
        .unwrap()
}

fn train(ds: &CharacterizationDataset) -> ServingModel {
    ServingModel::train(ds, &LatencyConstraints::paper_defaults(), &online_predictor_config())
        .unwrap()
}

/// One model for the property tests; queries never fill its tables here
/// except through the code under test.
fn shared_model() -> &'static ServingModel {
    static MODEL: OnceLock<ServingModel> = OnceLock::new();
    MODEL.get_or_init(|| train(&dataset()))
}

/// The paper's 𝕌 and two other grids, one of them with non-powers of two.
fn grids() -> Vec<(&'static str, Vec<u32>)> {
    vec![
        ("paper", PAPER_USER_GRID.to_vec()),
        ("small", vec![1, 2, 3, 4, 6, 8, 12]),
        ("wide", vec![2, 16, 48, 96, 200, 512]),
    ]
}

fn describe(answer: &Result<Recommendation, CoreError>) -> String {
    match answer {
        Ok(r) => format!("{},{},{},{:016x}", r.profile, r.pods, r.u_max, r.cost_per_hour.to_bits()),
        Err(e) => format!("error: {e}"),
    }
}

/// One line per query: `llm,users,nttft_s,itl_s,grid,answer`.
fn recommendation_lines(model: &ServingModel) -> String {
    let slas = [(0.100, 0.050), (0.010, 0.020), (1.0, 0.5), (0.0005, 0.005), (0.100, 0.030)];
    let mut out = String::new();
    for llm in llm_catalog() {
        for users in [1u32, 7, 50, 200, 1000, 10_000_000] {
            for &(nttft_s, itl_s) in &slas {
                for (label, grid) in grids() {
                    let request = RecommendationRequest {
                        total_users: users,
                        constraints: LatencyConstraints { nttft_s, itl_s },
                        user_grid: grid,
                    };
                    let answer = model.recommend(llm.name, &request);
                    writeln!(
                        out,
                        "{},{users},{nttft_s},{itl_s},{label},{}",
                        llm.name,
                        describe(&answer)
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn recommendations_match_the_golden() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let got = recommendation_lines(&train(&dataset()));
    let golden = read(&root.join("tests/data/serving_recommendations_seed0.txt"));
    assert_eq!(got.lines().count(), 10 * 6 * 5 * 3, "one line per query");
    for (i, (g, want)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, want, "recommendation differs at line {i}");
    }
    assert_eq!(got.lines().count(), golden.lines().count());
    assert!(got.contains("error: "), "the golden must cover infeasible queries");
}

/// The answer of the Eq. (1)–(3) search over per-pair predictions of the
/// model's predictor, on the memory-feasible candidates.
fn direct_answer(
    model: &ServingModel,
    llm_name: &str,
    request: &RecommendationRequest,
) -> Result<Recommendation, CoreError> {
    let llm = llm_by_name(llm_name).expect("catalog LLM");
    let candidates: Vec<GpuProfile> = model
        .profiles()
        .iter()
        .filter(|p| {
            MemoryModel::new(llm.clone(), (*p).clone(), MemoryConfig::default())
                .feasibility()
                .is_feasible()
        })
        .cloned()
        .collect();
    if candidates.is_empty() {
        return Err(CoreError::NoFeasibleRecommendation);
    }
    recommend(&candidates, request, |p, u| Some(model.predictor().predict(&llm, p, u)))
}

fn catalog_names() -> Vec<&'static str> {
    llm_catalog().iter().map(|m| m.name).collect()
}

/// An ascending user grid: the paper's; some of the paper's counts plus a
/// few others, so it often starts at 1 yet differs; or a random one.
fn grid_strategy() -> impl Strategy<Value = Vec<u32>> {
    (0u32..3, 0u32..256, prop::collection::vec(1u32..300, 1..6)).prop_map(|(kind, mask, extra)| {
        let mut grid: Vec<u32> = match kind {
            0 => return PAPER_USER_GRID.to_vec(),
            1 => (0..PAPER_USER_GRID.len())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| PAPER_USER_GRID[i])
                .chain(extra)
                .collect(),
            _ => extra,
        };
        grid.sort_unstable();
        grid.dedup();
        grid
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_recommend_equals_the_direct_search(
        llm in prop::sample::select(catalog_names()),
        users in 1u32..5000,
        // Log-uniform SLAs across the dataset's latency ranges (nTTFT
        // 8 µs–0.15 s per token, ITL 5–85 ms), so the constraints cut
        // through the predicted grids.
        nttft_log10 in -5.0f64..-0.5,
        itl_log10 in -2.5f64..-0.9,
        grid in grid_strategy(),
    ) {
        let model = shared_model();
        let request = RecommendationRequest {
            total_users: users,
            constraints: LatencyConstraints {
                nttft_s: 10f64.powf(nttft_log10),
                itl_s: 10f64.powf(itl_log10),
            },
            user_grid: grid,
        };
        let direct = direct_answer(model, llm, &request);
        // Twice: the first call may fill a table, the second reads it.
        prop_assert_eq!(&model.recommend(llm, &request), &direct);
        prop_assert_eq!(&model.recommend(llm, &request), &direct);
    }
}

#[test]
fn first_queries_racing_from_threads_agree() {
    let model = train(&dataset());
    let requests: Vec<RecommendationRequest> = [(200u32, 0.100, 0.050), (37, 0.010, 0.020)]
        .iter()
        .map(|&(total_users, nttft_s, itl_s)| RecommendationRequest {
            total_users,
            constraints: LatencyConstraints { nttft_s, itl_s },
            ..RecommendationRequest::paper_defaults()
        })
        .collect();
    let names = catalog_names();
    let answers: Vec<Vec<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    for name in &names {
                        for request in &requests {
                            out.push(model.recommend(name, request));
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut want = Vec::new();
    for name in &names {
        for request in &requests {
            want.push(direct_answer(&model, name, request));
        }
    }
    for got in &answers {
        assert_eq!(got, &want);
    }
}
