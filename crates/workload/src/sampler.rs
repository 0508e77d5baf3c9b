//! Request sampling (Sec. III-B-2).
//!
//! Samples a multi-dimensional bin with probability proportional to its
//! occurrence count in the traces, then materializes a request from the bin
//! centers. Sampling is O(1) per draw via Walker's alias method — the
//! property behind the paper's 35× speedup over resampling raw traces.
//!
//! Also provided:
//!
//! * [`IndependentSampler`] — the ablation of Sec. V-A: samples every
//!   parameter from its *marginal* distribution independently, destroying
//!   the correlations while preserving each marginal exactly;
//! * [`TraceResampler`] — the baseline the paper compares against: draws
//!   whole historical requests uniformly from the trace collection.

use std::sync::Arc;

use rand::Rng;

use llmpilot_traces::{Param, TraceDataset};

use crate::model::{GeneratedRequest, WorkloadModel};

/// Walker's alias table for O(1) weighted sampling.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build from non-negative weights (at least one positive).
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0 && total.is_finite(), "weights must sum to a positive finite value");
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();

        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Residuals (floating-point slack) stay as certain draws.
        for &s in small.iter().chain(large.iter()) {
            prob[s as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// Draw an index with probability proportional to its weight.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.random_range(0..self.prob.len());
        if rng.random::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }
}

/// The workload generator's sampler: draws requests from the joint model.
///
/// The model and its alias table are immutable once built and shared
/// behind an `Arc`, so `clone()` — one per load test — is a reference
/// count bump, not a copy of the joint histogram.
#[derive(Debug, Clone)]
pub struct WorkloadSampler {
    shared: Arc<(WorkloadModel, AliasTable)>,
}

impl WorkloadSampler {
    /// Build the sampler from a fitted model.
    pub fn new(model: WorkloadModel) -> Self {
        let weights: Vec<f64> = model.counts().iter().map(|&c| c as f64).collect();
        let table = AliasTable::new(&weights);
        Self { shared: Arc::new((model, table)) }
    }

    /// The underlying model.
    pub fn model(&self) -> &WorkloadModel {
        &self.shared.0
    }

    /// Draw one request from the joint distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> GeneratedRequest {
        let (model, table) = &*self.shared;
        model.request_from_bin(table.sample(rng))
    }
}

/// Ablation sampler: draws every parameter independently from its marginal
/// histogram (Sec. V-A, "parameter correlation" experiment). Marginals match
/// the joint model exactly; the correlations do not.
#[derive(Debug, Clone)]
pub struct IndependentSampler {
    params: Vec<Param>,
    /// Per-parameter `(centers, alias table)`.
    marginals: Vec<(Vec<f64>, AliasTable)>,
}

impl IndependentSampler {
    /// Build from a fitted joint model.
    pub fn new(model: &WorkloadModel) -> Self {
        let params = model.params().to_vec();
        let marginals = params
            .iter()
            .map(|&p| {
                let hist = model.marginal_histogram(p).expect("param is modeled");
                let centers: Vec<f64> = hist.iter().map(|&(c, _)| c).collect();
                let weights: Vec<f64> = hist.iter().map(|&(_, m)| m).collect();
                (centers, AliasTable::new(&weights))
            })
            .collect();
        Self { params, marginals }
    }

    /// Draw one request with independently sampled parameters.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> GeneratedRequest {
        let values =
            self.marginals.iter().map(|(centers, table)| centers[table.sample(rng)]).collect();
        GeneratedRequest::new(self.params.clone(), values)
    }
}

/// Baseline sampler: draw whole historical requests uniformly from the raw
/// trace collection (what prior benchmarking tools do; slower and requires
/// keeping the full traces resident).
#[derive(Debug)]
pub struct TraceResampler<'a> {
    traces: &'a TraceDataset,
    params: Vec<Param>,
}

impl<'a> TraceResampler<'a> {
    /// Resample the given parameters from a trace collection.
    pub fn new(traces: &'a TraceDataset, params: &[Param]) -> Self {
        assert!(!traces.is_empty(), "cannot resample empty traces");
        Self { traces, params: params.to_vec() }
    }

    /// Draw one historical request.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> GeneratedRequest {
        let i = rng.random_range(0..self.traces.len());
        let record = &self.traces.records[i];
        let values = self.params.iter().map(|&p| p.value(record)).collect();
        GeneratedRequest::new(self.params.clone(), values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpilot_traces::{spearman, TraceGenerator, TraceGeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn traces(n: usize) -> TraceDataset {
        TraceGenerator::new(TraceGeneratorConfig {
            num_requests: n,
            seed: 33,
            ..TraceGeneratorConfig::default()
        })
        .generate()
    }

    #[test]
    fn alias_table_matches_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = AliasTable::new(&[1.0, 2.0, 7.0]);
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        assert!((counts[0] as f64 / 100_000.0 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / 100_000.0 - 0.2).abs() < 0.01);
        assert!((counts[2] as f64 / 100_000.0 - 0.7).abs() < 0.01);
    }

    #[test]
    fn alias_table_single_category() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = AliasTable::new(&[5.0]);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn alias_table_zero_weight_category_never_sampled() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = AliasTable::new(&[0.0, 1.0, 0.0]);
        for _ in 0..1_000 {
            assert_eq!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn joint_sampler_reproduces_marginal_means() {
        let ds = traces(40_000);
        let model = WorkloadModel::fit(&ds, &Param::core()).unwrap();
        let sampler = WorkloadSampler::new(model);
        let mut rng = StdRng::seed_from_u64(4);
        let n = 40_000;
        let mean_in_gen: f64 = (0..n)
            .map(|_| f64::from(sampler.sample(&mut rng).input_tokens().unwrap()))
            .sum::<f64>()
            / n as f64;
        let col = ds.column(Param::InputTokens);
        let mean_in_emp: f64 = col.iter().sum::<f64>() / col.len() as f64;
        let rel = (mean_in_gen - mean_in_emp).abs() / mean_in_emp;
        assert!(rel < 0.05, "generator mean {mean_in_gen} vs empirical {mean_in_emp}");
    }

    #[test]
    fn joint_sampler_preserves_correlation_independent_destroys_it() {
        let ds = traces(40_000);
        let model = WorkloadModel::fit(&ds, &Param::core()).unwrap();
        let joint = WorkloadSampler::new(model.clone());
        let indep = IndependentSampler::new(&model);
        let mut rng = StdRng::seed_from_u64(5);
        let draw = |f: &mut dyn FnMut(&mut StdRng) -> GeneratedRequest, rng: &mut StdRng| {
            let mut ins = Vec::new();
            let mut outs = Vec::new();
            for _ in 0..20_000 {
                let r = f(rng);
                ins.push(f64::from(r.input_tokens().unwrap()));
                outs.push(f64::from(r.output_tokens().unwrap()));
            }
            spearman(&ins, &outs)
        };
        let rho_joint = draw(&mut |rng| joint.sample(rng), &mut rng);
        let rho_indep = draw(&mut |rng| indep.sample(rng), &mut rng);
        let rho_emp = spearman(&ds.column(Param::InputTokens), &ds.column(Param::OutputTokens));
        assert!((rho_joint - rho_emp).abs() < 0.1, "joint rho {rho_joint} vs empirical {rho_emp}");
        assert!(rho_indep.abs() < 0.1, "independent rho {rho_indep}");
    }

    #[test]
    fn trace_resampler_returns_historical_values() {
        let ds = traces(1_000);
        let rs = TraceResampler::new(&ds, &Param::core());
        let mut rng = StdRng::seed_from_u64(6);
        let inputs: std::collections::HashSet<u64> =
            ds.records.iter().map(|r| u64::from(r.input_tokens)).collect();
        for _ in 0..200 {
            let r = rs.sample(&mut rng);
            assert!(inputs.contains(&u64::from(r.input_tokens().unwrap())));
        }
    }

    #[test]
    fn samplers_are_deterministic_given_seed() {
        let ds = traces(5_000);
        let model = WorkloadModel::fit(&ds, &Param::core()).unwrap();
        let sampler = WorkloadSampler::new(model);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut a), sampler.sample(&mut b));
        }
    }

    #[test]
    fn clone_shares_the_model_and_draws_the_same_stream() {
        let ds = traces(5_000);
        let model = WorkloadModel::fit(&ds, &Param::core()).unwrap();
        let sampler = WorkloadSampler::new(model);
        let clone = sampler.clone();
        assert!(Arc::ptr_eq(&sampler.shared, &clone.shared), "clone copied the model");
        let mut a = StdRng::seed_from_u64(8);
        let mut b = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            assert_eq!(sampler.sample(&mut a), clone.sample(&mut b));
        }
    }
}
