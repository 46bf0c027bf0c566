//! # htc-core
//!
//! The HTC alignment pipeline — the primary contribution of *"Towards
//! Higher-order Topological Consistency for Unsupervised Network Alignment"*
//! (ICDE 2023).
//!
//! Given two attributed networks `G_s = (V_s, A_s, X_s)` and
//! `G_t = (V_t, A_t, X_t)`, HTC produces an alignment matrix
//! `M ∈ R^{n_s × n_t}` without any labelled anchor links.  The pipeline is
//! exposed as a **staged session** whose stage artifacts are first-class,
//! inspectable and reusable:
//!
//! | Stage | Artifact | Paper |
//! |---|---|---|
//! | 1. GOM construction | [`TopologyViews`] | 13 edge orbits, Eq. 1 |
//! | 2. Orbit Laplacians | [`Propagators`] | Eq. 3–5 |
//! | 3. Multi-orbit-aware training | [`TrainedEncoder`] | Alg. 1 |
//! | 4. Trusted-pair fine-tuning | [`OrbitRefinements`] | Alg. 2 |
//! | 5. Weighted integration | [`HtcResult`] | Eq. 15 |
//!
//! ## One-off alignment
//!
//! [`HtcAligner::align`] runs all five stages in one blocking call (it is a
//! thin wrapper over a one-shot session and bit-identical to the staged run):
//!
//! ```
//! use htc_core::{HtcAligner, HtcConfig};
//! use htc_datasets::{generate_pair, SyntheticPairConfig};
//!
//! let pair = generate_pair(&SyntheticPairConfig::tiny(8));
//! let result = HtcAligner::new(HtcConfig::fast())
//!     .align(&pair.source, &pair.target)
//!     .unwrap();
//! assert_eq!(result.alignment().shape(), (8, 8));
//! ```
//!
//! ## Serving: one source vs. many targets
//!
//! A serving workload aligns one catalog graph against a stream of incoming
//! graphs.  [`AlignmentSession`] pays the source-dominated stages — orbit
//! counting and encoder training, the two heaviest bars of the paper's
//! Fig. 8 — **once**, then fans per-target fine-tuning and integration out on
//! the shared thread pool:
//!
//! ```
//! use htc_core::{AlignmentSession, HtcConfig};
//! use htc_core::pipeline::stages;
//! use htc_datasets::{generate_pair, SyntheticPairConfig};
//!
//! let mut config = HtcConfig::fast();
//! config.epochs = 5;
//! let a = generate_pair(&SyntheticPairConfig::tiny(10));
//! let b = generate_pair(&SyntheticPairConfig::tiny(10));
//!
//! let mut session = AlignmentSession::new(config, &a.source).unwrap();
//! let results = session.align_many(&[a.target, b.target]).unwrap();
//! assert_eq!(results.len(), 2);
//! // Counting and training ran exactly once, no matter how many targets:
//! assert_eq!(session.timer().count(stages::TRAINING), 1);
//! assert_eq!(session.timer().count(stages::ORBIT_COUNTING), 1);
//! ```
//!
//! Sessions can also advance **stage by stage** ([`AlignmentSession::begin`])
//! for checkpointing and inspection, report progress / honour cancellation
//! through [`ProgressObserver`], and persist their trained encoder and GOMs
//! ([`TrainedEncoder::save`], [`TopologyViews::save`]) for bit-exact warm
//! starts across processes.
//!
//! Ablation variants (HTC-L, HTC-H, HTC-LT, HTC-DT) live in [`variants`].

pub mod config;
pub mod diffusion;
pub mod error;
pub mod finetune;
pub mod integrate;
pub mod laplacian;
pub mod lisi;
pub mod matching;
pub mod persist;
pub mod pipeline;
pub mod session;
pub mod topk;
pub mod training;
pub mod variants;

pub use config::{HtcConfig, ScaleTier, TopologyMode};
pub use error::HtcError;
pub use pipeline::{HtcAligner, HtcResult};
pub use session::{
    graph_fingerprint, AlignmentSession, DeadlineObserver, OrbitRefinements, PairAlignment,
    ProgressObserver, Propagators, TopologyViews, TrainedEncoder,
};
pub use topk::TopKRows;
pub use variants::HtcVariant;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HtcError>;

#[cfg(test)]
#[path = "../tests/support/lisi_oracle.rs"]
mod lisi_oracle;
