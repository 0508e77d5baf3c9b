//! Roofline step-time model for LLM inference on a GPU profile.
//!
//! The model follows the phase split the paper relies on (Sec. V-B, citing
//! DéjàVu): *prompt processing is compute bound*, so prefill time scales with
//! FLOPs over the profile's tensor-core throughput, while the *decode phase
//! is memory-bandwidth bound*, so a decode step scales with the bytes moved —
//! the (sharded) model weights plus the KV cache of every running sequence.
//! Tensor-parallel pods additionally pay per-layer all-reduce costs over
//! NVLink or PCIe, and every engine iteration pays a fixed scheduler/kernel
//! launch overhead plus a small per-sequence serving overhead (tokenization,
//! de-tokenization, response streaming — substantial in Python serving
//! stacks such as TGIS).

use crate::fault::LatencyNoise;
use crate::gpu::GpuProfile;
use crate::llm::{DType, LlmArch, LlmSpec};

/// Empirical derating constants of the performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfModelConfig {
    /// Achieved fraction of peak FP16 TFLOPS during prompt processing
    /// (model FLOP utilization; large dense matmuls).
    pub prefill_flop_efficiency: f64,
    /// Achieved fraction of peak memory bandwidth during decode.
    pub decode_bandwidth_efficiency: f64,
    /// Fixed per-iteration overhead: scheduler, kernel launches, batching
    /// bookkeeping (seconds).
    pub fixed_step_overhead_s: f64,
    /// Per-running-sequence, per-iteration serving overhead (seconds):
    /// sampling, de-tokenization and response streaming per sequence.
    pub per_seq_step_overhead_s: f64,
    /// Fixed latency of one tensor-parallel all-reduce (seconds).
    pub allreduce_latency_s: f64,
    /// All-reduce calls per transformer layer (attention + MLP).
    pub allreduce_calls_per_layer: f64,
    /// Achieved fraction of the interconnect bandwidth during collectives.
    pub comm_efficiency: f64,
}

impl Default for PerfModelConfig {
    fn default() -> Self {
        Self {
            prefill_flop_efficiency: 0.45,
            decode_bandwidth_efficiency: 0.8,
            fixed_step_overhead_s: 3.0e-3,
            per_seq_step_overhead_s: 3.0e-4,
            allreduce_latency_s: 20.0e-6,
            allreduce_calls_per_layer: 2.0,
            comm_efficiency: 0.7,
        }
    }
}

/// Step-time model for one `(LLM, GPU profile)` pair.
#[derive(Debug, Clone)]
pub struct PerfModel {
    llm: LlmSpec,
    profile: GpuProfile,
    config: PerfModelConfig,
    /// Multiplicative noise on step times (inert by default — every query
    /// is scaled by exactly 1.0, preserving bit-identical behaviour).
    noise: LatencyNoise,
}

impl PerfModel {
    /// Build a performance model.
    pub fn new(llm: LlmSpec, profile: GpuProfile, config: PerfModelConfig) -> Self {
        Self { llm, profile, config, noise: LatencyNoise::none() }
    }

    /// Replace the latency-noise source in place.
    pub fn set_noise(&mut self, noise: LatencyNoise) {
        self.noise = noise;
    }

    /// The modeled LLM.
    pub fn llm(&self) -> &LlmSpec {
        &self.llm
    }

    /// The modeled GPU profile.
    pub fn profile(&self) -> &GpuProfile {
        &self.profile
    }

    /// Tensor-parallel degree.
    fn tp(&self) -> f64 {
        self.profile.count as f64
    }

    /// Effective aggregate FLOP/s across the pod, accounting for MFU and the
    /// halved tensor-core rate of FP32-served models.
    fn effective_flops(&self) -> f64 {
        let dtype_rate = match self.llm.dtype {
            DType::Fp16 | DType::Bf16 => 1.0,
            DType::Fp32 => 0.5,
        };
        self.profile.gpu.fp16_tflops
            * 1.0e12
            * dtype_rate
            * self.config.prefill_flop_efficiency
            * self.tp()
    }

    /// Effective aggregate memory bandwidth across the pod, bytes/s.
    fn effective_bandwidth(&self) -> f64 {
        self.profile.gpu.memory_bandwidth_gbps
            * 1.0e9
            * self.config.decode_bandwidth_efficiency
            * self.tp()
    }

    /// Time for tensor-parallel collectives moving `tokens` activations
    /// through `layers` transformer layers (zero for single-GPU pods).
    fn comm_time(&self, tokens: f64, layers: f64) -> f64 {
        let t = self.tp();
        if t <= 1.0 {
            return 0.0;
        }
        let calls = layers * self.config.allreduce_calls_per_layer;
        let bytes_per_call =
            2.0 * (t - 1.0) / t * tokens * self.llm.hidden_size as f64 * self.llm.dtype.bytes();
        let link =
            self.profile.gpu.interconnect_bandwidth_gbps() * 1.0e9 * self.config.comm_efficiency;
        calls * (self.config.allreduce_latency_s + bytes_per_call / link)
    }

    /// Time to process a prompt of `prompt_tokens` and emit the first output
    /// token (the compute-bound phase), excluding queueing. Seconds.
    ///
    /// Encoder-decoder models run the prompt through the encoder and then
    /// execute one decoder step; decoder-only models run the full stack over
    /// the prompt.
    pub fn prefill_time(&self, prompt_tokens: u32) -> f64 {
        let n = prompt_tokens as f64;
        let params = self.llm.prompt_parameters();
        let layers = match self.llm.arch {
            LlmArch::DecoderOnly => self.llm.num_layers as f64,
            LlmArch::EncoderDecoder => self.llm.encoder_layers() as f64,
        };
        // Dense matmul FLOPs plus the quadratic attention term.
        let flops = 2.0 * params * n + 4.0 * layers * n * n * self.llm.hidden_size as f64;
        let compute = flops / self.effective_flops();
        let comm = self.comm_time(n, layers);
        let first_token = match self.llm.arch {
            LlmArch::DecoderOnly => 0.0,
            // Enc-dec: the first output token requires one decoder step over
            // the fresh cross-attention cache.
            LlmArch::EncoderDecoder => self.decode_marginal_time(1, u64::from(prompt_tokens)),
        };
        (compute + comm + first_token) * self.noise.factor()
    }

    /// Marginal decode cost without fixed/per-sequence overheads; used
    /// internally for the enc-dec first token.
    fn decode_marginal_time(&self, batch_seqs: u32, kv_tokens: u64) -> f64 {
        let weight_read = self.llm.decoder_parameters() * self.llm.dtype.bytes();
        let kv_read = kv_tokens as f64 * self.llm.kv_bytes_per_token();
        let mem = (weight_read + kv_read) / self.effective_bandwidth();
        let flops = 2.0 * self.llm.decoder_parameters() * batch_seqs as f64;
        let compute = flops / self.effective_flops();
        let comm = self.comm_time(batch_seqs as f64, self.llm.decoder_layers() as f64);
        mem.max(compute) + comm
    }

    /// Time of one engine iteration generating one token for each of
    /// `batch_seqs` running sequences whose caches jointly hold `kv_tokens`
    /// tokens (the memory-bandwidth-bound phase). Seconds.
    pub fn decode_step_time(&self, batch_seqs: u32, kv_tokens: u64) -> f64 {
        if batch_seqs == 0 {
            return self.config.fixed_step_overhead_s;
        }
        (self.decode_marginal_time(batch_seqs, kv_tokens)
            + self.config.fixed_step_overhead_s
            + self.config.per_seq_step_overhead_s * batch_seqs as f64)
            * self.noise.factor()
    }

    /// Time to pull the weights into GPU memory over the host link when the
    /// pod is created (deployment step of the characterization pipeline).
    pub fn model_load_time(&self) -> f64 {
        let pcie = match self.profile.gpu.pcie_gen {
            0..=3 => 16.0e9,
            4 => 32.0e9,
            _ => 64.0e9,
        };
        self.llm.weight_bytes() / pcie
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::*;
    use crate::llm::*;

    fn model(llm: LlmSpec, gpu: GpuSpec, count: u32) -> PerfModel {
        PerfModel::new(llm, GpuProfile::new(gpu, count), PerfModelConfig::default())
    }

    #[test]
    fn prefill_grows_with_prompt_length() {
        let m = model(llama2_13b(), a100_80(), 1);
        assert!(m.prefill_time(2000) > m.prefill_time(500));
        assert!(m.prefill_time(500) > 0.0);
    }

    #[test]
    fn prefill_superlinear_for_long_prompts() {
        // The quadratic attention term makes doubling the prompt more than
        // double the prefill time at long lengths.
        let m = model(gpt_neox_20b(), a100_80(), 1);
        assert!(m.prefill_time(4000) > 2.0 * m.prefill_time(2000));
    }

    #[test]
    fn decode_step_grows_with_batch_and_kv() {
        let m = model(llama2_13b(), a100_80(), 1);
        let base = m.decode_step_time(1, 500);
        assert!(m.decode_step_time(8, 4000) > base);
        assert!(m.decode_step_time(1, 50_000) > base);
    }

    #[test]
    fn batch_one_itl_matches_table1_magnitude() {
        // Table I: one Llama-2-13b pod on A100-80 serves ~47 output tokens/s
        // for a single user, i.e. a ~21ms step.
        let m = model(llama2_13b(), a100_80(), 1);
        let step = m.decode_step_time(1, 700);
        assert!(step > 0.010 && step < 0.040, "step = {step}");
    }

    #[test]
    fn faster_gpu_decodes_faster() {
        let h = model(llama2_13b(), h100(), 1);
        let a = model(llama2_13b(), a100_40(), 1);
        assert!(h.decode_step_time(16, 10_000) < a.decode_step_time(16, 10_000));
        assert!(h.prefill_time(1000) < a.prefill_time(1000));
    }

    #[test]
    fn tensor_parallel_speeds_up_prefill_on_nvlink() {
        let one = model(gpt_neox_20b(), a100_40(), 1);
        let two = model(gpt_neox_20b(), a100_40(), 2);
        assert!(two.prefill_time(2000) < one.prefill_time(2000));
    }

    #[test]
    fn pcie_tensor_parallel_pays_heavy_comm() {
        // On PCIe-only T4s, the all-reduce traffic erodes the 2x compute: the
        // speedup of 2xT4 over 1xT4 for long prefills must be well below 2x.
        let one = model(flan_t5_xl(), t4(), 1);
        let two = model(flan_t5_xl(), t4(), 2);
        let speedup = one.prefill_time(4000) / two.prefill_time(4000);
        assert!(speedup < 1.7, "speedup = {speedup}");
        // While on NVLink-connected H100s the same model scales closer to 2x.
        let h1 = model(flan_t5_xl(), h100(), 1);
        let h2 = model(flan_t5_xl(), h100(), 2);
        let h_speedup = h1.prefill_time(4000) / h2.prefill_time(4000);
        assert!(h_speedup > speedup);
    }

    #[test]
    fn enc_dec_prefill_includes_first_decoder_step() {
        let t5 = model(flan_t5_xxl(), a100_80(), 1);
        // Must be strictly more expensive than the encoder pass alone.
        let full = t5.prefill_time(1000);
        assert!(full > 0.0);
        // And the decoder step uses decoder weights only: an enc-dec decode
        // step is cheaper than a same-size decoder-only model's step.
        let dec_only = model(mt0_xxl(), a100_80(), 1);
        assert!(dec_only.llm().decoder_parameters() < dec_only.llm().num_parameters);
    }

    #[test]
    fn fp32_models_are_slower_per_parameter() {
        // mpt-7b (FP32) vs llama-2-7b (FP16): same parameter count, but the
        // FP32 model moves twice the bytes and halves the tensor rate.
        let mpt = model(mpt_7b(), a100_80(), 1);
        let llama = model(llama2_7b(), a100_80(), 1);
        assert!(mpt.decode_step_time(1, 100) > 1.5 * llama.decode_step_time(1, 100));
    }

    #[test]
    fn empty_batch_costs_only_fixed_overhead() {
        let m = model(llama2_7b(), t4(), 1);
        assert_eq!(m.decode_step_time(0, 0), PerfModelConfig::default().fixed_step_overhead_s);
    }

    #[test]
    fn model_load_time_scales_with_size() {
        let small = model(flan_t5_xl(), a100_40(), 1);
        let big = model(flan_ul2(), a100_40(), 1);
        assert!(big.model_load_time() > small.model_load_time());
        // A 13B FP16 model over PCIe gen4 loads in under a minute.
        let m = model(llama2_13b(), a100_40(), 1);
        assert!(m.model_load_time() < 60.0);
    }

    #[test]
    fn decode_roofline_is_bandwidth_bound_at_small_batch() {
        // For small batches the memory term dominates: doubling batch size
        // (compute) barely moves the marginal time, while doubling the KV
        // footprint does.
        let m = model(llama2_13b(), a100_80(), 1);
        let a = m.decode_step_time(2, 1_000);
        let b = m.decode_step_time(2, 40_000_000 / 1_000);
        assert!(b > a);
    }
}
