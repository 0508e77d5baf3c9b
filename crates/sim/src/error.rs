//! Error types of the simulator crate.

use std::fmt;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A request had zero tokens or zero batch size.
    InvalidRequest {
        /// Human-readable cause.
        reason: String,
    },
    /// A request's weight exceeds the engine's maximum batch weight and can
    /// never be admitted.
    RequestTooLarge {
        /// The request's weight in tokens.
        weight: u64,
        /// The engine's configured maximum batch weight.
        max_batch_weight: u64,
    },
    /// The `(LLM, GPU profile)` combination cannot be deployed (an × or −
    /// cell of Table III).
    InfeasibleDeployment {
        /// LLM name.
        llm: String,
        /// GPU profile name.
        profile: String,
        /// Why (memory vs software/hardware support).
        reason: String,
    },
    /// Batch-weight tuning could not find any valid weight.
    TuningFailed {
        /// LLM name.
        llm: String,
        /// GPU profile name.
        profile: String,
    },
    /// Batch-weight tuning ramped past the search cap without ever finding
    /// an invalid weight, so the returned weight could not be validated as
    /// maximal (typically a misconfigured memory model).
    TuningDiverged {
        /// LLM name.
        llm: String,
        /// GPU profile name.
        profile: String,
        /// The last weight validated before the search cap.
        weight: u64,
    },
    /// A deployment attempt failed transiently (injected fault).
    DeployFailed {
        /// LLM name.
        llm: String,
        /// GPU profile name.
        profile: String,
    },
    /// The engine crashed at a virtual-time point mid-load-test (injected
    /// fault).
    EngineCrashed {
        /// Virtual time of the crash, seconds.
        at_s: f64,
    },
    /// The batch-weight tuning run ran out of GPU memory at the weight
    /// boundary (injected fault).
    OutOfMemory {
        /// Running batch weight at the OOM, tokens.
        running_weight: u64,
        /// The engine's maximum batch weight, tokens.
        max_batch_weight: u64,
    },
    /// A per-cell step budget was exhausted before the experiment
    /// finished.
    BudgetExhausted {
        /// Which budget, and its limit.
        what: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            SimError::RequestTooLarge { weight, max_batch_weight } => write!(
                f,
                "request weight {weight} tokens exceeds maximum batch weight {max_batch_weight}"
            ),
            SimError::InfeasibleDeployment { llm, profile, reason } => {
                write!(f, "cannot deploy {llm} on {profile}: {reason}")
            }
            SimError::TuningFailed { llm, profile } => {
                write!(f, "no valid maximum batch weight for {llm} on {profile}")
            }
            SimError::TuningDiverged { llm, profile, weight } => write!(
                f,
                "batch-weight tuning for {llm} on {profile} diverged past the search cap \
                 (last validated weight {weight})"
            ),
            SimError::DeployFailed { llm, profile } => {
                write!(f, "transient deployment failure of {llm} on {profile}")
            }
            SimError::EngineCrashed { at_s } => {
                write!(f, "engine crashed at virtual time {at_s:.3}s")
            }
            SimError::OutOfMemory { running_weight, max_batch_weight } => write!(
                f,
                "out of memory at batch weight {running_weight} of {max_batch_weight} tokens"
            ),
            SimError::BudgetExhausted { what } => write!(f, "budget exhausted: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::RequestTooLarge { weight: 10_000, max_batch_weight: 4_096 };
        let msg = e.to_string();
        assert!(msg.contains("10000"));
        assert!(msg.contains("4096"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SimError::TuningFailed { llm: "m".into(), profile: "p".into() });
    }
}
