//! # adprom-hmm
//!
//! Hidden Markov model library for AD-PROM: the substrate replacing the
//! paper's Jahmm dependency. Implements the three classic HMM problems
//! (§II):
//!
//! * **evaluation** — scaled forward algorithm ([`forward()`](forward::forward)), used by the
//!   Detection Engine to compute `P(cs | λ)` for every call sequence;
//! * **decoding** — [`viterbi()`](viterbi::viterbi);
//! * **learning** — multi-sequence Baum–Welch ([`baumwelch`]) with held-out
//!   (CSDS) convergence, used by the Profile Constructor.
//!
//! For monitoring at scale, [`sliding`] provides [`SlidingState`]: an
//! incremental scorer that advances an n-length detection window by one
//! event in O(N²) instead of recomputing the whole window, and [`sparse`]
//! provides [`SparseTransitions`]: a CSR transition kernel that drops the
//! per-event constant to O(nnz + N) — exactly for smoothed pCTM models via
//! the background + deviation decomposition. [`batch`] layers a
//! lane-major cross-window kernel on top ([`score_windows_batch`]): up to
//! [`LANE_CAP`] same-profile windows scored in one pass over the
//! transition structure, each lane bit-identical to the scalar kernel.
//!
//! Models can be initialized randomly (the Rand-HMM baseline) or from the
//! statically computed pCTM (done in `adprom-core`).

#![warn(missing_docs)]

pub mod batch;
pub mod baumwelch;
pub mod forward;
pub mod model;
pub mod sliding;
pub mod sparse;
pub mod viterbi;

pub use batch::{score_windows_batch, BatchScores, LANE_CAP};
pub use baumwelch::{
    mean_log_likelihood, reestimate, reestimate_with_config, train, TrainConfig, TrainReport,
};
pub use forward::{
    backward, dense_step, forward, log_likelihood, step_scores, ForwardPass, StepScores,
};
pub use model::{normalize, Hmm, HmmError};
pub use sliding::{SlidingState, SlidingStats};
pub use sparse::{
    log_likelihood_sparse, step_scores_sparse, SparseConfig, SparseStats, SparseTransitions,
};
pub use viterbi::viterbi;
