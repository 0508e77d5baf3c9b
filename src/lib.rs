#![forbid(unsafe_code)]
//! # llm-pilot
//!
//! Facade crate of the LLM-Pilot reproduction (SC'24): re-exports eight
//! member crates so applications can depend on a single package. The
//! ninth, `llmpilot-bench`, holds the paper's experiments.
//!
//! * [`sim`] — GPU/LLM catalogs and the inference-service simulator.
//! * [`traces`] — synthetic production traces and analytics.
//! * [`workload`] — the binned joint-histogram workload generator.
//! * [`ml`] — the from-scratch ML substrate (trees, GBDT, MLP, MF, CV).
//! * [`core`] — the characterization pipeline and GPU recommendation tool.
//! * [`serve`] — the online GPU-recommendation daemon (`llm-pilot serve`).
//! * [`obs`] — structured spans, counters, and Chrome-trace export.
//! * [`cli`] — the typed command-line parser shared by the binaries.
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/experiments.rs` for the paper's tables/figures.

pub use llmpilot_cli as cli;
pub use llmpilot_core as core;
pub use llmpilot_ml as ml;
pub use llmpilot_obs as obs;
pub use llmpilot_serve as serve;
pub use llmpilot_sim as sim;
pub use llmpilot_traces as traces;
pub use llmpilot_workload as workload;

/// The unified error of the facade: every sub-crate error converts into
/// it via `From`, so application code (and the `llm-pilot` binary) can
/// use one `Result<_, llm_pilot::Error>` end to end and render every
/// failure as a single consistent `error: …` line.
#[derive(Debug)]
pub enum Error {
    /// Characterization/recommendation pipeline failure ([`core`]).
    Core(llmpilot_core::CoreError),
    /// Simulator failure ([`sim`]).
    Sim(llmpilot_sim::error::SimError),
    /// ML-substrate failure ([`ml`]).
    Ml(llmpilot_ml::MlError),
    /// Workload-model failure ([`workload`]).
    Workload(llmpilot_workload::WorkloadError),
    /// Serving-daemon failure ([`serve`]).
    Serve(llmpilot_serve::ServeError),
    /// File or socket I/O failure.
    Io(std::io::Error),
    /// Invalid input that no sub-crate owns (bad CSV text, unknown
    /// LLM/profile names, …).
    Invalid(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Core(e) => write!(f, "{e}"),
            Error::Sim(e) => write!(f, "{e}"),
            Error::Ml(e) => write!(f, "{e}"),
            Error::Workload(e) => write!(f, "{e}"),
            Error::Serve(e) => write!(f, "{e}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Core(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Ml(e) => Some(e),
            Error::Workload(e) => Some(e),
            Error::Serve(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Invalid(_) => None,
        }
    }
}

impl From<llmpilot_core::CoreError> for Error {
    fn from(e: llmpilot_core::CoreError) -> Self {
        Error::Core(e)
    }
}
impl From<llmpilot_sim::error::SimError> for Error {
    fn from(e: llmpilot_sim::error::SimError) -> Self {
        Error::Sim(e)
    }
}
impl From<llmpilot_ml::MlError> for Error {
    fn from(e: llmpilot_ml::MlError) -> Self {
        Error::Ml(e)
    }
}
impl From<llmpilot_workload::WorkloadError> for Error {
    fn from(e: llmpilot_workload::WorkloadError) -> Self {
        Error::Workload(e)
    }
}
impl From<llmpilot_serve::ServeError> for Error {
    fn from(e: llmpilot_serve::ServeError) -> Self {
        Error::Serve(e)
    }
}
impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}
impl From<String> for Error {
    fn from(msg: String) -> Self {
        Error::Invalid(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::Error;

    #[test]
    fn every_sub_crate_error_converts_and_displays_without_prefix_noise() {
        let core: Error = llmpilot_core::CoreError::NoFeasibleRecommendation.into();
        assert!(core.to_string().contains("no GPU profile"));
        let ml: Error = llmpilot_ml::MlError::NotFitted.into();
        assert!(!ml.to_string().is_empty());
        let io: Error = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
        let invalid: Error = String::from("unknown LLM \"x\"").into();
        assert_eq!(invalid.to_string(), "unknown LLM \"x\"");
        // `source()` gives callers the typed cause for the wrapped cases.
        use std::error::Error as _;
        assert!(core.source().is_some());
        assert!(invalid.source().is_none());
    }
}
