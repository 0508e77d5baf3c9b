//! Synthetic production-trace generation.
//!
//! Substitutes the paper's proprietary 5.5-month, 17.3M-request trace
//! collection (Table II): requests are drawn from a mixture of task
//! archetypes; users have Zipf-skewed activity, a dominant personal task and
//! a small set of preferred LLMs; timestamps follow a diurnal daily profile
//! over a configurable horizon. Every record is labeled with a ground-truth
//! end-to-end latency (see [`crate::latency_model`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::archetype::{default_archetypes, Archetype};
use crate::dist::{Categorical, Zipf};
use crate::latency_model::LatencyModel;
use crate::record::{TraceDataset, TraceRecord};

/// Seconds in the paper's 5.5-month collection window.
pub const PAPER_HORIZON_S: f64 = 5.5 * 30.0 * 86_400.0;

/// Configuration of a synthetic trace generation run.
#[derive(Debug, Clone)]
pub struct TraceGeneratorConfig {
    /// Number of requests to generate. The paper's collection holds 17.3M;
    /// experiments here default to a smaller corpus with the same structure.
    pub num_requests: usize,
    /// Number of distinct users (paper: ≈ 2500).
    pub num_users: u32,
    /// Number of LLMs hosted on the platform (paper: 24).
    pub num_llms: u16,
    /// Collection-window length, virtual seconds.
    pub horizon_s: f64,
    /// Zipf exponent of per-user activity skew.
    pub user_activity_skew: f64,
    /// Probability a request uses its user's dominant archetype (the rest
    /// draws from the global mixture).
    pub user_task_affinity: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceGeneratorConfig {
    fn default() -> Self {
        Self {
            num_requests: 100_000,
            num_users: 2_500,
            num_llms: 24,
            horizon_s: PAPER_HORIZON_S,
            user_activity_skew: 1.1,
            user_task_affinity: 0.8,
            seed: 0xC0FFEE,
        }
    }
}

/// Synthetic trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceGeneratorConfig,
    archetypes: Vec<Archetype>,
    latency_model: LatencyModel,
}

impl TraceGenerator {
    /// Generator with the default archetype mixture and latency model.
    pub fn new(config: TraceGeneratorConfig) -> Self {
        Self { config, archetypes: default_archetypes(), latency_model: LatencyModel::default() }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TraceGeneratorConfig {
        &self.config
    }

    /// Hour-of-day weights of a typical enterprise platform: traffic ramps
    /// during working hours and thins overnight.
    fn diurnal_weights() -> [f64; 24] {
        let mut w = [0.0f64; 24];
        for (h, wh) in w.iter_mut().enumerate() {
            let x = (h as f64 - 14.0) / 24.0 * std::f64::consts::TAU;
            *wh = 1.0 + 0.85 * x.cos();
        }
        w
    }

    /// Generate the trace dataset. Deterministic for a fixed config.
    pub fn generate(&self) -> TraceDataset {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let user_rank = Zipf::new(cfg.num_users as usize, cfg.user_activity_skew);
        let global_mix =
            Categorical::new(&self.archetypes.iter().map(|a| a.weight).collect::<Vec<_>>());
        let hours = Categorical::new(&Self::diurnal_weights());

        // Per-user dominant archetype and preferred LLM (assigned lazily and
        // deterministically from the user id so memory stays O(users)).
        let mut user_archetype: Vec<Option<u8>> = vec![None; cfg.num_users as usize];
        let mut user_llm: Vec<Option<u16>> = vec![None; cfg.num_users as usize];

        let mut records = Vec::with_capacity(cfg.num_requests);
        for _ in 0..cfg.num_requests {
            let user_id = (user_rank.sample(&mut rng) - 1) as u32;
            let dominant = *user_archetype[user_id as usize]
                .get_or_insert_with(|| global_mix.sample(&mut rng) as u8);
            let preferred_llm = *user_llm[user_id as usize]
                .get_or_insert_with(|| rng.random_range(0..cfg.num_llms));

            let archetype_idx = if rng.random::<f64>() < cfg.user_task_affinity {
                usize::from(dominant)
            } else {
                global_mix.sample(&mut rng)
            };
            let params = self.archetypes[archetype_idx].sample(&mut rng);

            let llm_id = if rng.random::<f64>() < 0.85 {
                preferred_llm
            } else {
                rng.random_range(0..cfg.num_llms)
            };

            // Timestamp: uniform day within the horizon, diurnal hour.
            let day = rng.random_range(0..(cfg.horizon_s / 86_400.0).max(1.0) as u64);
            let hour = hours.sample(&mut rng) as f64;
            let within = rng.random::<f64>() * 3_600.0;
            let timestamp_s = day as f64 * 86_400.0 + hour * 3_600.0 + within;

            let latency_s = self.latency_model.sample_latency(&params, &mut rng);

            records.push(TraceRecord {
                user_id,
                llm_id,
                timestamp_s,
                input_tokens: params.input_tokens,
                output_tokens: params.output_tokens,
                batch_size: params.batch_size,
                decoding_method: params.decoding_method,
                temperature: params.temperature,
                top_k: params.top_k,
                top_p: params.top_p,
                typical_p: params.typical_p,
                repetition_penalty: params.repetition_penalty,
                length_penalty: params.length_penalty,
                max_new_tokens: params.max_new_tokens,
                min_new_tokens: params.min_new_tokens,
                stop_sequences: params.stop_sequences,
                truncate_input_tokens: params.truncate_input_tokens,
                streaming: params.streaming,
                aux: params.aux,
                latency_s,
            });
        }
        records.sort_by(|a, b| a.timestamp_s.partial_cmp(&b.timestamp_s).expect("finite times"));
        TraceDataset::new(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::{MAX_BATCH_SIZE, MAX_INPUT_TOKENS, MAX_OUTPUT_TOKENS};
    use crate::record::Param;

    fn small() -> TraceDataset {
        TraceGenerator::new(TraceGeneratorConfig {
            num_requests: 20_000,
            num_users: 500,
            num_llms: 24,
            seed: 7,
            ..TraceGeneratorConfig::default()
        })
        .generate()
    }

    #[test]
    fn generates_requested_count_sorted_by_time() {
        let ds = small();
        assert_eq!(ds.len(), 20_000);
        assert!(ds.records.windows(2).all(|w| w[0].timestamp_s <= w[1].timestamp_s));
    }

    #[test]
    fn bounds_match_table2() {
        let ds = small();
        for r in &ds.records {
            assert!(r.input_tokens >= 1 && r.input_tokens <= MAX_INPUT_TOKENS);
            assert!(r.output_tokens >= 1 && r.output_tokens <= MAX_OUTPUT_TOKENS);
            assert!(r.batch_size >= 1 && r.batch_size <= MAX_BATCH_SIZE);
            assert!(r.latency_s > 0.0);
            assert!(r.timestamp_s >= 0.0 && r.timestamp_s <= PAPER_HORIZON_S + 86_400.0);
        }
    }

    #[test]
    fn user_population_is_skewed_but_wide() {
        let ds = small();
        let users = ds.distinct_users();
        // Zipf skew: far fewer active users than requests, but a wide base.
        assert!(users > 200, "users = {users}");
        assert!(users <= 500);
        // The most active user sends far more than the median user.
        let mut counts = std::collections::HashMap::new();
        for r in &ds.records {
            *counts.entry(r.user_id).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        let median = {
            let mut v: Vec<_> = counts.values().copied().collect();
            v.sort_unstable();
            v[v.len() / 2]
        };
        assert!(max > 10 * median, "max {max} median {median}");
    }

    #[test]
    fn all_llms_receive_traffic() {
        let ds = small();
        assert_eq!(ds.distinct_llms(), 24);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.records[0], b.records[0]);
        assert_eq!(a.records[a.len() - 1], b.records[b.len() - 1]);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small();
        let b = TraceGenerator::new(TraceGeneratorConfig {
            num_requests: 20_000,
            num_users: 500,
            seed: 8,
            ..TraceGeneratorConfig::default()
        })
        .generate();
        assert_ne!(a.records[0], b.records[0]);
    }

    #[test]
    fn input_output_tokens_positively_correlated() {
        // The headline Fig. 3 structure must survive the full pipeline.
        let ds = small();
        let xs = ds.column(Param::InputTokens);
        let ys = ds.column(Param::OutputTokens);
        let mx = xs.iter().sum::<f64>() / xs.len() as f64;
        let my = ys.iter().sum::<f64>() / ys.len() as f64;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
        assert!(cov / (vx.sqrt() * vy.sqrt()) > 0.15);
    }

    #[test]
    fn diurnal_profile_concentrates_daytime_traffic() {
        let ds = small();
        let mut by_hour = [0usize; 24];
        for r in &ds.records {
            let hour = ((r.timestamp_s % 86_400.0) / 3_600.0) as usize % 24;
            by_hour[hour] += 1;
        }
        let afternoon = by_hour[14];
        let night = by_hour[2];
        assert!(afternoon > 2 * night, "14h={afternoon} 02h={night}");
    }
}
