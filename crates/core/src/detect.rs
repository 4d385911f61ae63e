//! The Detection Engine (§IV-B4, §IV-D): scores n-length call sequences
//! against the profile and raises flags.
//!
//! Flags, in the paper's order (§V-C):
//!
//! 1. **OutOfContext** — a call issued by a function that never issued it
//!    during training (a new call inserted in a function);
//! 2. **DataLeak** — an anomalous sequence containing a DDG-labeled output
//!    call (`*_Q<bid>`), i.e. targeted data flowed to an output statement
//!    along an unlikely path — the alert carries the label, *connecting the
//!    activity to its source*;
//! 3. **Anomalous** — an unlikely sequence without labeled output calls;
//! 4. **Normal** — everything else.
//!
//! The whole-trace [`DetectionEngine`] is a thin shell over the shared
//! scoring core, [`crate::scorer::WindowScorer`]; so is each
//! session-multiplexed shard of
//! [`ShardedMonitor`](crate::shard::ShardedMonitor), which serves
//! streaming (§IV-D online) monitoring. There is exactly
//! one forward-scoring / classification / observation path in the crate.

use crate::profile::Profile;
use crate::scorer::{KernelStatus, WindowScorer};
use crate::telemetry::DetectMetrics;
use adprom_hmm::{SparseConfig, SparseTransitions};
use adprom_obs::{AuditLog, Registry};
use adprom_trace::CallEvent;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Detection flags (§V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Flag {
    /// Sequence consistent with the profile.
    Normal,
    /// Unlikely sequence with no labeled output call.
    Anomalous,
    /// Unlikely sequence containing a labeled output call: a potential
    /// data-leak attempt, connected to its source via the label.
    DataLeak,
    /// A call issued from a caller never seen issuing it.
    OutOfContext,
}

impl Flag {
    /// The pure flag-precedence rule (§V-C), shared by every scoring path
    /// — [`DetectionEngine::classify`], the incremental batch scanner, and
    /// anything else that already knows the per-window facts:
    ///
    /// 1. `out_of_context` wins outright (structural, likelihood-blind);
    /// 2. below-threshold windows are [`Flag::DataLeak`] when a
    ///    DDG-labeled output call is present, else [`Flag::Anomalous`];
    /// 3. everything else is [`Flag::Normal`].
    ///
    /// `ll = NaN` never compares below the threshold, so an undefined
    /// score degrades to Normal rather than a spurious alarm.
    pub fn classify(
        ll: f64,
        threshold: f64,
        has_labeled_output: bool,
        out_of_context: bool,
    ) -> Flag {
        if out_of_context {
            Flag::OutOfContext
        } else if ll < threshold {
            if has_labeled_output {
                Flag::DataLeak
            } else {
                Flag::Anomalous
            }
        } else {
            Flag::Normal
        }
    }
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Flag::Normal => "NORMAL",
            Flag::Anomalous => "ANOMALOUS",
            Flag::DataLeak => "DATA-LEAK",
            Flag::OutOfContext => "OUT-OF-CONTEXT",
        };
        f.write_str(s)
    }
}

/// Which scoring kernel a [`DetectionEngine`] (or a
/// [`ProfileRegistry`](crate::registry::ProfileRegistry) epoch) runs per
/// window.
///
/// `Sparse` with `epsilon = 0` is *exact*: on smoothed profiles it
/// produces `Dense`'s log-likelihoods (up to summation order) in
/// O(nnz + N) per event instead of O(N²) (see [`adprom_hmm::sparse`]).
/// Neither kernel approximates under load: the monitor's overload tiers
/// skip windows, but every window they score is scored exactly.
#[derive(Debug, Clone, Copy, Default)]
pub enum KernelConfig {
    /// The dense O(N²)-per-event forward pass (the default).
    #[default]
    Dense,
    /// The sparse CSR kernel — exact at `epsilon = 0` on smoothed models.
    Sparse {
        /// CSR construction parameters (fold epsilon, density cutoff).
        sparse: SparseConfig,
    },
}

impl KernelConfig {
    /// Short name for metrics and audit records: `dense` or `sparse`.
    pub fn label(&self) -> &'static str {
        match self {
            KernelConfig::Dense => "dense",
            KernelConfig::Sparse { .. } => "sparse",
        }
    }
}

/// A [`KernelConfig`] resolved against a concrete profile: the CSR
/// decomposition is built once and shared (`Arc`) by every scorer using
/// it — batch workers clone the handle, not the matrix.
#[derive(Debug, Clone, Default)]
pub(crate) enum KernelState {
    /// Dense forward pass.
    #[default]
    Dense,
    /// Exact sparse scoring through a shared CSR kernel.
    Sparse(Arc<SparseTransitions>),
}

impl KernelState {
    /// Builds the state for `config`, constructing the CSR kernel from
    /// `profile`'s transition matrix when one is needed.
    pub(crate) fn build(config: KernelConfig, profile: &Profile) -> KernelState {
        match config {
            KernelConfig::Dense => KernelState::Dense,
            KernelConfig::Sparse { sparse } => {
                KernelState::Sparse(Arc::new(SparseTransitions::from_hmm(&profile.hmm, &sparse)))
            }
        }
    }

    /// The shared CSR kernel, when one is in force — what a sliding
    /// recurrence propagates through (`None`: the dense sweep).
    pub(crate) fn sparse(&self) -> Option<&SparseTransitions> {
        match self {
            KernelState::Dense => None,
            KernelState::Sparse(sp) => Some(sp),
        }
    }

    /// [`KernelState::build`] with CSR validation: the profile's model is
    /// checked (finite, row-stochastic) before building, and the built
    /// decomposition self-checks its structure. `Err` carries the reason,
    /// and the profile registry rejects the registration with it.
    pub(crate) fn build_validated(
        config: KernelConfig,
        profile: &Profile,
    ) -> Result<KernelState, adprom_hmm::HmmError> {
        match config {
            KernelConfig::Dense => Ok(KernelState::Dense),
            KernelConfig::Sparse { sparse } => Ok(KernelState::Sparse(Arc::new(
                SparseTransitions::try_from_hmm(&profile.hmm, &sparse)?,
            ))),
        }
    }
}

/// An alert raised for one window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// The flag.
    pub flag: Flag,
    /// `log P(cs | λ)` of the window.
    pub log_likelihood: f64,
    /// Threshold in force when the window was scored.
    pub threshold: f64,
    /// The call names of the window.
    pub window: Vec<String>,
    /// Human-readable detail: the leak label and source connection, or the
    /// out-of-context (call, caller) pair.
    pub detail: String,
}

impl Alert {
    /// True for any non-normal flag.
    pub fn is_alarm(&self) -> bool {
        self.flag != Flag::Normal
    }
}

/// Scores windows against a profile — the serial, whole-trace front end of
/// the shared [`WindowScorer`] core.
#[derive(Debug, Clone)]
pub struct DetectionEngine {
    scorer: WindowScorer,
    /// Session id stamped on audit records (empty when unknown).
    session: String,
}

impl DetectionEngine {
    /// Creates an engine over a profile (cloned behind an `Arc`).
    /// Instrumentation starts disabled. When the profile is already
    /// shared, prefer [`DetectionEngine::from_arc`] — it reuses the
    /// allocation.
    pub fn new(profile: &Profile) -> DetectionEngine {
        DetectionEngine::from_arc(Arc::new(profile.clone()))
    }

    /// Creates an engine over an already-shared profile.
    pub fn from_arc(profile: Arc<Profile>) -> DetectionEngine {
        DetectionEngine {
            scorer: WindowScorer::new(profile),
            session: String::new(),
        }
    }

    /// Creates an engine directly over a prepared scorer — the path the
    /// registry uses so engines share an epoch's CSR decomposition.
    pub fn from_scorer(scorer: WindowScorer) -> DetectionEngine {
        DetectionEngine {
            scorer,
            session: String::new(),
        }
    }

    /// Selects the scoring kernel, building the CSR decomposition from the
    /// profile when `config` needs one. With [`KernelConfig::Sparse`] at
    /// `epsilon = 0` the engine's scores (and therefore its alerts) are
    /// bit-identical to the dense default on smoothed profiles.
    pub fn with_kernel(mut self, config: KernelConfig) -> DetectionEngine {
        self.scorer = self.scorer.with_kernel(config);
        self
    }

    /// Registers metric handles against `registry` (window counts, flag
    /// counters, score latency).
    pub fn with_registry(mut self, registry: &Registry) -> DetectionEngine {
        self.scorer = self.scorer.with_registry(registry);
        self
    }

    /// Installs pre-fetched metric handles — the zero-registration-lock
    /// path batch workers use.
    pub fn with_metrics(mut self, metrics: DetectMetrics) -> DetectionEngine {
        self.scorer = self.scorer.with_metrics(metrics);
        self
    }

    /// Routes every non-Normal detection to `audit` as a JSONL-ready
    /// [`adprom_obs::AuditRecord`].
    pub fn with_audit(mut self, audit: Arc<AuditLog>) -> DetectionEngine {
        self.scorer = self.scorer.with_audit(audit);
        self
    }

    /// Sets the session id stamped on audit records.
    pub fn set_session(&mut self, session: &str) {
        self.session = session.to_string();
    }

    /// The profile in use.
    pub fn profile(&self) -> &Profile {
        self.scorer.profile()
    }

    /// Overrides the detection threshold.
    pub fn set_threshold(&mut self, threshold: f64) {
        self.scorer.set_threshold(threshold);
    }

    /// The active threshold.
    pub fn threshold(&self) -> f64 {
        self.scorer.threshold()
    }

    /// Short name of the active scoring kernel (`dense` or `sparse`) —
    /// stamped on audit records.
    pub fn kernel_label(&self) -> &str {
        &self.scorer.status().effective
    }

    /// Requested/effective kernel, precision and batch width.
    pub fn kernel_status(&self) -> &KernelStatus {
        self.scorer.status()
    }

    /// The shared scoring core this engine fronts.
    pub fn scorer(&self) -> &WindowScorer {
        &self.scorer
    }

    /// `log P(window | λ)` for a window of call names, computed by the
    /// configured kernel.
    pub fn score(&self, names: &[String]) -> f64 {
        self.scorer.score(names)
    }

    /// Classifies one window of events.
    pub fn classify(&self, events: &[CallEvent]) -> Alert {
        self.scorer.classify(events, &self.session)
    }

    /// Feeds a finished alert through the instrumentation — the window
    /// counter, its flag-kind counter, and (for non-Normal alerts) the
    /// audit log — and returns it unchanged.
    pub fn observe(&self, alert: Alert) -> Alert {
        self.scorer.observe(alert, &self.session)
    }

    /// Scans a whole trace with sliding windows; returns one alert per
    /// window. Alerts are identical to classifying each window
    /// independently.
    pub fn scan(&self, events: &[CallEvent]) -> Vec<Alert> {
        self.scorer.scan(events, &self.session)
    }

    /// Highest-severity flag over a whole trace (severity order:
    /// OutOfContext > DataLeak > Anomalous > Normal).
    pub fn verdict(&self, events: &[CallEvent]) -> Flag {
        self.scan(events)
            .into_iter()
            .map(|a| a.flag)
            .max()
            .unwrap_or(Flag::Normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use adprom_hmm::Hmm;
    use adprom_lang::{CallSiteId, LibCall};
    use std::collections::{BTreeMap, BTreeSet};

    fn event(name: &str, caller: &str) -> CallEvent {
        CallEvent {
            name: name.into(),
            call: LibCall::Printf,
            caller: caller.into(),
            site: CallSiteId(0),
            detail: None,
        }
    }

    /// A profile whose model strongly expects the cycle a→b→c.
    fn cyclic_profile() -> Profile {
        let alphabet = Alphabet::new(vec!["a".to_string(), "b".to_string(), "c_Q7".to_string()]);
        let m = alphabet.len();
        let mut a = vec![vec![0.001; m]; m];
        a[0][1] = 1.0;
        a[1][2] = 1.0;
        a[2][0] = 1.0;
        a[3][3] = 1.0;
        let mut b = vec![vec![0.001; m]; m];
        for (i, row) in b.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        let pi = vec![1.0; m];
        let mut hmm = Hmm::from_rows(a, b, pi);
        hmm.smooth(1e-4);
        let mut call_callers: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for name in ["a", "b", "c_Q7"] {
            call_callers
                .entry(name.to_string())
                .or_default()
                .insert("main".to_string());
        }
        Profile {
            app_name: "cyclic".into(),
            alphabet,
            hmm,
            window: 3,
            threshold: -5.0,
            call_callers,
            labeled_outputs: vec!["c_Q7".to_string()],
        }
    }

    #[test]
    fn normal_window_passes() {
        let profile = cyclic_profile();
        let engine = DetectionEngine::new(&profile);
        let events = vec![
            event("a", "main"),
            event("b", "main"),
            event("c_Q7", "main"),
        ];
        let alert = engine.classify(&events);
        assert_eq!(alert.flag, Flag::Normal, "{alert:?}");
    }

    #[test]
    fn unknown_call_window_is_flagged_as_leak_when_labeled_output_present() {
        let profile = cyclic_profile();
        let engine = DetectionEngine::new(&profile);
        let events = vec![
            event("a", "main"),
            event("evil_exfil", "main"),
            event("c_Q7", "main"),
        ];
        let alert = engine.classify(&events);
        assert_eq!(alert.flag, Flag::DataLeak);
        assert!(alert.detail.contains("c_Q7"));
    }

    #[test]
    fn unlikely_order_without_label_is_anomalous() {
        let profile = cyclic_profile();
        let engine = DetectionEngine::new(&profile);
        let events = vec![event("b", "main"), event("a", "main"), event("a", "main")];
        let alert = engine.classify(&events);
        assert_eq!(alert.flag, Flag::Anomalous, "ll={}", alert.log_likelihood);
    }

    #[test]
    fn out_of_context_caller_is_flagged() {
        let profile = cyclic_profile();
        let engine = DetectionEngine::new(&profile);
        let events = vec![
            event("a", "main"),
            event("b", "attacker_function"),
            event("c_Q7", "main"),
        ];
        let alert = engine.classify(&events);
        assert_eq!(alert.flag, Flag::OutOfContext);
        assert!(alert.detail.contains("attacker_function"));
    }

    #[test]
    fn verdict_takes_max_severity() {
        let profile = cyclic_profile();
        let engine = DetectionEngine::new(&profile);
        let events = vec![
            event("a", "main"),
            event("b", "main"),
            event("c_Q7", "main"),
            event("a", "main"),
            event("b", "attacker_function"),
            event("c_Q7", "main"),
        ];
        assert_eq!(engine.verdict(&events), Flag::OutOfContext);
    }

    #[test]
    fn flag_classify_covers_every_fact_combination() {
        let th = -5.0;
        // out_of_context wins outright, whatever the score or labels say.
        for ll in [-100.0, th, 0.0, f64::NEG_INFINITY, f64::NAN] {
            for labeled in [false, true] {
                assert_eq!(
                    Flag::classify(ll, th, labeled, true),
                    Flag::OutOfContext,
                    "ll={ll} labeled={labeled}"
                );
            }
        }
        // Below threshold: a labeled output upgrades Anomalous → DataLeak.
        for ll in [-100.0, -5.000001, f64::NEG_INFINITY] {
            assert_eq!(
                Flag::classify(ll, th, true, false),
                Flag::DataLeak,
                "ll={ll}"
            );
            assert_eq!(
                Flag::classify(ll, th, false, false),
                Flag::Anomalous,
                "ll={ll}"
            );
        }
        // At or above threshold: Normal, labels notwithstanding.
        for ll in [th, -1.0, 0.0, f64::INFINITY] {
            for labeled in [false, true] {
                assert_eq!(
                    Flag::classify(ll, th, labeled, false),
                    Flag::Normal,
                    "ll={ll} labeled={labeled}"
                );
            }
        }
        // An undefined score never alarms.
        assert_eq!(Flag::classify(f64::NAN, th, true, false), Flag::Normal);
        assert_eq!(Flag::classify(f64::NAN, th, false, false), Flag::Normal);
    }

    #[test]
    fn flag_classify_agrees_with_classify_scored() {
        let profile = cyclic_profile();
        let engine = DetectionEngine::new(&profile);
        for window in [
            vec![
                event("a", "main"),
                event("b", "main"),
                event("c_Q7", "main"),
            ],
            vec![event("b", "main"), event("a", "main"), event("a", "main")],
            vec![
                event("a", "main"),
                event("evil_exfil", "main"),
                event("c_Q7", "main"),
            ],
            vec![
                event("a", "main"),
                event("b", "attacker_function"),
                event("c_Q7", "main"),
            ],
        ] {
            let alert = engine.classify(&window);
            let has_label = window.iter().any(|e| e.name.contains("_Q"));
            let ooc = window
                .iter()
                .any(|e| profile.is_out_of_context(&e.name, &e.caller));
            assert_eq!(
                alert.flag,
                Flag::classify(alert.log_likelihood, engine.threshold(), has_label, ooc)
            );
        }
    }

    #[test]
    fn engine_metrics_and_audit_capture_detections() {
        use adprom_obs::{AuditLog, AuditSink, MemoryAuditSink};
        let profile = cyclic_profile();
        let registry = Registry::new();
        let sink = Arc::new(MemoryAuditSink::new());
        let audit = Arc::new(AuditLog::new(Arc::clone(&sink) as Arc<dyn AuditSink>));
        let mut engine = DetectionEngine::new(&profile)
            .with_registry(&registry)
            .with_audit(audit);
        engine.set_session("conn-1");
        engine.classify(&[
            event("a", "main"),
            event("b", "main"),
            event("c_Q7", "main"),
        ]);
        engine.classify(&[
            event("a", "main"),
            event("evil_exfil", "main"),
            event("c_Q7", "main"),
        ]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("detect.windows_scored"), Some(2));
        assert_eq!(snap.counter("detect.flags.normal"), Some(1));
        assert_eq!(snap.counter("detect.flags.data_leak"), Some(1));
        assert_eq!(snap.histograms["detect.score_ns"].count, 2);
        // Only the non-Normal detection reached the audit trail, with the
        // session id and leak label attached.
        let records = sink.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].session, "conn-1");
        assert_eq!(records[0].flag, "DATA-LEAK");
        assert_eq!(records[0].kernel, "dense");
        assert_eq!(records[0].label.as_deref(), Some("c_Q7"));
        assert_eq!(records[0].bid.as_deref(), Some("7"));
        // The flagged window is attributed to the kernel that scored it.
        assert_eq!(snap.counter("detect.kernel.dense"), Some(1));
        assert_eq!(snap.counter("detect.kernel.sparse"), Some(0));
    }

    #[test]
    fn sparse_kernel_produces_equivalent_alerts() {
        // ε = 0: the sparse path computes the same quantity as dense
        // (summation order differs, so scores agree to 1e-9 rather than
        // bitwise) — flags, windows and details must be identical.
        let profile = cyclic_profile();
        let dense = DetectionEngine::new(&profile);
        let sparse = DetectionEngine::new(&profile).with_kernel(KernelConfig::Sparse {
            sparse: SparseConfig::default(),
        });
        assert_eq!(sparse.kernel_label(), "sparse");
        let trace: Vec<CallEvent> = [
            "a",
            "b",
            "c_Q7",
            "a",
            "evil_exfil",
            "c_Q7",
            "b",
            "a",
            "a",
            "b",
        ]
        .iter()
        .map(|n| event(n, "main"))
        .collect();
        let dense_alerts = dense.scan(&trace);
        let sparse_alerts = sparse.scan(&trace);
        assert_eq!(dense_alerts.len(), sparse_alerts.len());
        for (d, s) in dense_alerts.iter().zip(&sparse_alerts) {
            assert_eq!(d.flag, s.flag);
            assert_eq!(d.window, s.window);
            assert_eq!(d.detail, s.detail);
            assert!((d.log_likelihood - s.log_likelihood).abs() < 1e-9);
        }
    }

    #[test]
    fn threshold_override() {
        let profile = cyclic_profile();
        let mut engine = DetectionEngine::new(&profile);
        engine.set_threshold(0.0); // everything below 0 → all flagged
        let events = vec![
            event("a", "main"),
            event("b", "main"),
            event("c_Q7", "main"),
        ];
        assert_ne!(engine.classify(&events).flag, Flag::Normal);
    }
}
