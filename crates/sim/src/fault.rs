//! Deterministic fault injection for the simulator.
//!
//! On real hardware the characterization pipeline (Sec. III) is exactly the
//! part that fails: transient deploy failures, OOMs of the batch-weight
//! tuning run at the weight boundary (the reason Sec. III-C-2's corner-case
//! probes exist), crashed pods mid-load-test, and noisy or straggling
//! iterations. This module lets the simulator reproduce those failures
//! *reproducibly*: a [`FaultPlan`] is a seeded description of which fault
//! classes fire and how often, and every decision is drawn from a
//! SplitMix64 stream derived from `(plan seed, site string)` — so two runs
//! with the same plan make identical decisions, regardless of thread
//! scheduling or call interleaving across cells.
//!
//! The three transient classes (deploy failure, tuning OOM, load-test
//! crash) are what [`FaultConfig::transient`] enables and what the sweep
//! retries. Latency noise and stragglers perturb step times instead and
//! never abort anything.
//!
//! Fault *sites* are strings identifying one decision point, e.g.
//! `deploy/Llama-2-13b/1xA100-80GB#a0`. Including the retry attempt in the
//! site makes faults *transient*: a retried attempt draws fresh faults while
//! the measurement seed of the cell stays fixed, so a retry that succeeds
//! produces bit-identical rows to a fault-free run.
//!
//! [`FaultPlan::none`] — the default everywhere — injects nothing and draws
//! no random numbers, keeping existing behaviour unchanged.

use crate::error::SimError;

/// Probabilities and knobs of every fault class. All probabilities are in
/// `[0, 1]`; zero disables the class.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault-decision streams (independent from measurement
    /// seeds).
    pub seed: u64,
    /// Probability that one deployment attempt fails transiently.
    pub deploy_failure_prob: f64,
    /// Probability that one batch-weight tuning run aborts with an OOM at
    /// the weight boundary (the real-world corner-case crash).
    pub tuning_oom_prob: f64,
    /// Probability that one load test crashes at a uniform virtual-time
    /// point inside its window.
    pub crash_prob: f64,
    /// Amplitude of multiplicative latency noise on every modeled step time:
    /// each queried step time is scaled by a factor uniform in
    /// `[1 - amplitude, 1 + amplitude]`. Zero disables noise entirely.
    pub latency_noise_amplitude: f64,
    /// Probability that a step is a straggler.
    pub straggler_prob: f64,
    /// Multiplier applied to straggler steps (on top of the noise factor).
    pub straggler_factor: f64,
}

impl FaultConfig {
    /// A configuration that injects nothing.
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            deploy_failure_prob: 0.0,
            tuning_oom_prob: 0.0,
            crash_prob: 0.0,
            latency_noise_amplitude: 0.0,
            straggler_prob: 0.0,
            straggler_factor: 4.0,
        }
    }

    /// A configuration where the three *transient, retryable* fault classes
    /// (deploy failure, tuning OOM, load-test crash) all fire with
    /// probability `p`.
    pub fn transient(seed: u64, p: f64) -> Self {
        Self { seed, deploy_failure_prob: p, tuning_oom_prob: p, crash_prob: p, ..Self::disabled() }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a site string, mixed with the plan seed.
fn site_hash(seed: u64, site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in site.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A deterministic per-site random stream (SplitMix64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRng {
    state: u64,
}

impl SiteRng {
    /// Derive the stream for `site` under `seed`.
    pub fn new(seed: u64, site: &str) -> Self {
        SiteRng { state: site_hash(seed, site) }
    }

    /// Next `u64` of the stream.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Next uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw; `false` without consuming the stream when `p <= 0`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }
}

/// A seeded, cloneable description of the faults to inject.
///
/// The plan itself is immutable; callers derive per-site state
/// ([`LoadFaults`], [`LatencyNoise`], boolean decisions) from it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The no-fault plan: injects nothing, draws nothing, costs nothing.
    pub fn none() -> Self {
        FaultPlan { config: FaultConfig::disabled() }
    }

    /// A plan injecting faults per `config`.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan { config }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    fn rng(&self, class: &str, site: &str) -> SiteRng {
        SiteRng::new(self.config.seed, &format!("{class}/{site}"))
    }

    /// Whether the deployment attempt at `site` fails transiently.
    pub fn deploy_fails(&self, site: &str) -> bool {
        self.config.deploy_failure_prob > 0.0
            && self.rng("deploy", site).chance(self.config.deploy_failure_prob)
    }

    /// Whether the batch-weight tuning run at `site` aborts with a
    /// boundary OOM.
    pub fn tuning_ooms(&self, site: &str) -> bool {
        self.config.tuning_oom_prob > 0.0
            && self.rng("tune", site).chance(self.config.tuning_oom_prob)
    }

    /// The in-test fault state for one load test of `duration_s` virtual
    /// seconds at `site`: a pre-drawn crash time, if the test crashes.
    pub fn load_faults(&self, site: &str, duration_s: f64) -> LoadFaults {
        let crash_at = if self.config.crash_prob > 0.0 {
            let mut rng = self.rng("crash", site);
            if rng.chance(self.config.crash_prob) {
                Some(rng.next_f64() * duration_s)
            } else {
                None
            }
        } else {
            None
        };
        LoadFaults { crash_at, ..LoadFaults::none() }
    }

    /// The latency-noise state for one engine at `site`; [`LatencyNoise`] is
    /// inert (always factor 1.0, no draws) when the plan has no noise.
    pub fn latency_noise(&self, site: &str) -> LatencyNoise {
        if self.config.latency_noise_amplitude <= 0.0 && self.config.straggler_prob <= 0.0 {
            return LatencyNoise::none();
        }
        LatencyNoise {
            amplitude: self.config.latency_noise_amplitude,
            straggler_prob: self.config.straggler_prob,
            straggler_factor: self.config.straggler_factor,
            rng: Some(std::cell::RefCell::new(self.rng("noise", site))),
        }
    }
}

/// Fault state threaded through one load test; see
/// [`crate::load::run_load_test_observed`].
#[derive(Debug, Clone)]
pub struct LoadFaults {
    /// Virtual time at which the engine crashes (pre-drawn), if any.
    pub crash_at: Option<f64>,
    /// Step budget: the load test fails with
    /// [`SimError::BudgetExhausted`] instead of running past this many
    /// engine iterations (a guard against virtual-time stalls).
    pub max_steps: Option<u64>,
    /// Engine iterations consumed by the load test (written back by
    /// `run_load_test_observed`; cumulative across calls reusing the value).
    pub steps_used: u64,
}

impl LoadFaults {
    /// No crash, no budget: a load test that injects nothing.
    pub fn none() -> Self {
        LoadFaults { crash_at: None, max_steps: None, steps_used: 0 }
    }

    /// Check the fault state after one engine step at virtual time `clock`.
    pub fn check_step(&mut self, clock: f64) -> Result<(), SimError> {
        self.steps_used += 1;
        if let Some(max) = self.max_steps {
            if self.steps_used > max {
                return Err(SimError::BudgetExhausted {
                    what: format!("load test exceeded step budget of {max}"),
                });
            }
        }
        if let Some(t) = self.crash_at {
            if clock >= t {
                return Err(SimError::EngineCrashed { at_s: t });
            }
        }
        Ok(())
    }
}

/// Deterministic multiplicative latency noise for one engine's step times.
///
/// The inert instance ([`LatencyNoise::none`]) always returns factor `1.0`
/// and never draws, so attaching it changes nothing — bit for bit.
#[derive(Debug, Clone)]
pub struct LatencyNoise {
    amplitude: f64,
    straggler_prob: f64,
    straggler_factor: f64,
    /// `None` for the inert instance. Interior mutability because the
    /// performance model queries are `&self`.
    rng: Option<std::cell::RefCell<SiteRng>>,
}

impl LatencyNoise {
    /// The inert noise source.
    pub fn none() -> Self {
        LatencyNoise { amplitude: 0.0, straggler_prob: 0.0, straggler_factor: 1.0, rng: None }
    }

    /// Whether this source can ever perturb a step time.
    pub fn is_none(&self) -> bool {
        self.rng.is_none()
    }

    /// The multiplicative factor for the next step time. `1.0` (no draw)
    /// when inert.
    pub fn factor(&self) -> f64 {
        let Some(rng) = &self.rng else {
            return 1.0;
        };
        let mut rng = rng.borrow_mut();
        let mut f = 1.0;
        if self.amplitude > 0.0 {
            f *= 1.0 + self.amplitude * (2.0 * rng.next_f64() - 1.0);
        }
        if rng.chance(self.straggler_prob) {
            f *= self.straggler_factor;
        }
        f.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_streams_are_deterministic_and_distinct() {
        let mut a = SiteRng::new(7, "deploy/m/p#a0");
        let mut b = SiteRng::new(7, "deploy/m/p#a0");
        let mut c = SiteRng::new(7, "deploy/m/p#a1");
        let mut d = SiteRng::new(8, "deploy/m/p#a0");
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], c.next_u64());
        assert_ne!(xs[0], d.next_u64());
    }

    #[test]
    fn none_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(!plan.deploy_fails("deploy/x"));
        assert!(!plan.tuning_ooms("tune/x"));
        let lf = plan.load_faults("load/x", 120.0);
        assert!(lf.crash_at.is_none());
        let noise = plan.latency_noise("noise/x");
        assert!(noise.is_none());
        for _ in 0..16 {
            assert_eq!(noise.factor(), 1.0);
        }
    }

    #[test]
    fn certain_faults_always_fire() {
        let plan = FaultPlan::new(FaultConfig {
            deploy_failure_prob: 1.0,
            crash_prob: 1.0,
            ..FaultConfig::disabled()
        });
        assert!(plan.deploy_fails("deploy/x"));
        let lf = plan.load_faults("load/x", 60.0);
        let t = lf.crash_at.expect("crash must be scheduled");
        assert!((0.0..60.0).contains(&t));
    }

    #[test]
    fn fault_decisions_depend_on_attempt_site() {
        // With p = 0.5, different attempt suffixes must produce different
        // decisions for at least one of a handful of cells.
        let plan = FaultPlan::new(FaultConfig::transient(42, 0.5));
        let differs = (0..16).any(|cell| {
            plan.deploy_fails(&format!("c{cell}#a0")) != plan.deploy_fails(&format!("c{cell}#a1"))
        });
        assert!(differs);
    }

    #[test]
    fn step_budget_trips() {
        let mut lf = LoadFaults::none();
        lf.max_steps = Some(3);
        for _ in 0..3 {
            assert!(lf.check_step(0.0).is_ok());
        }
        assert!(matches!(lf.check_step(0.0), Err(SimError::BudgetExhausted { .. })));
    }

    #[test]
    fn latency_noise_stays_within_band() {
        let plan =
            FaultPlan::new(FaultConfig { latency_noise_amplitude: 0.2, ..FaultConfig::disabled() });
        let noise = plan.latency_noise("noise/x");
        for _ in 0..256 {
            let f = noise.factor();
            assert!((0.8..=1.2).contains(&f), "factor {f} out of band");
        }
    }

    #[test]
    fn stragglers_multiply() {
        let plan = FaultPlan::new(FaultConfig {
            straggler_prob: 1.0,
            straggler_factor: 5.0,
            ..FaultConfig::disabled()
        });
        let noise = plan.latency_noise("noise/x");
        assert_eq!(noise.factor(), 5.0);
    }
}
