//! # adprom-core
//!
//! AD-PROM proper: the Profile Constructor and Detection Engine from the
//! ICDE 2020 paper, assembled over the analysis, HMM, ML and trace
//! substrates.
//!
//! Training phase (§IV-C): [`constructor::build_profile`] takes the static
//! [`Analysis`](adprom_analysis::Analysis) and the collected training
//! traces, initializes an HMM from the pCTM ([`init`]) — with CTV → PCA →
//! k-means state reduction for large programs — trains it with Baum–Welch
//! under CSDS convergence, and selects a detection threshold by
//! cross-validation ([`threshold`]).
//!
//! Detection phase (§IV-D): [`detect::DetectionEngine`] scores n-length
//! call windows and raises the paper's four flags (Normal / Anomalous /
//! DataLeak / OutOfContext). Streaming monitoring — one session or many —
//! runs through [`shard::ShardedMonitor`], the one public monitor: it
//! routes an interleaved stream (pre-tagged or as wire frames) to N ≥ 1
//! shards, each of which demultiplexes its share into per-session
//! scorers, replays their buffered windows across the scoring pool
//! (deterministic, arrival-order output), scores each distinct
//! exact-mode window once per profile epoch, and can score windows
//! incrementally via [`SlidingState`](adprom_hmm::SlidingState); a batch
//! of traces is that monitor fed one session per trace.
//!
//! Baselines (§V): [`baselines::build_cmarkov`] (static init, no data-flow
//! labels, no caller tracking) and [`baselines::build_rand_hmm`] (random
//! init). Metrics for the evaluation harnesses live in [`metrics`].

#![warn(missing_docs)]

pub mod alphabet;
pub mod baselines;
pub mod constructor;
pub mod detect;
pub mod extensions;
pub mod init;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod resilience;
pub mod runtime;
pub mod scorer;
pub mod shard;
pub mod telemetry;
pub mod threshold;
pub mod wire;

pub use alphabet::{Alphabet, UNKNOWN};
pub use baselines::{build_cmarkov, build_rand_hmm, strip_ctm, strip_label, strip_trace};
pub use constructor::{build_profile, trace_windows, BuildReport, ConstructorConfig};
pub use detect::{Alert, DetectionEngine, Flag, KernelConfig};
pub use extensions::{ExtensionAlert, ExtensionKind, FileLabelMonitor, QuerySignatureMonitor};
pub use init::{build_ctvs, init_from_pctm, InitConfig, InitializedModel};
pub use metrics::{fn_rate_at_fp, roc_curve, Confusion, RocPoint};
pub use profile::{LoadPolicy, Profile, ProfileDefect, ProfileIoError};
pub use registry::{ProfileEpoch, ProfileRegistry, SwapError};
pub use resilience::{
    apply_ingest_faults, FailPoint, FaultInjector, FaultKind, FaultPlan, FaultyWriter, Health,
    HealthMonitor, RetryPolicy, Trigger,
};
pub use runtime::{
    IngestStatus, OverloadConfig, RuntimeConfig, SessionEnd, SessionReport, ShedPolicy,
};
pub use scorer::{ForensicsConfig, KernelStatus, ScoringMode, ScoringTier, WindowScorer};
pub use shard::{shard_for, FrameIngest, ShardStatus, ShardTally, ShardedMonitor};
pub use telemetry::{
    audit_record_from_alert, DetectMetrics, FrameMetrics, MonitorMetrics, RegistryMetrics,
    ResilienceMetrics, ShardMetrics,
};
pub use threshold::{select_threshold, threshold_sweep, AdaptiveThreshold};
pub use wire::{
    decode_frames, encode_frame, encode_frame_into, encode_stream, FrameDecoder, FrameDefect,
    WireError, WireRecord, WIRE_HEADER, WIRE_MAGIC,
};
