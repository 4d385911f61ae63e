//! Layer 1 of the detection stack: the kernel-agnostic window scorer.
//!
//! [`WindowScorer`] owns everything needed to turn call windows into
//! [`Alert`]s — the `Arc`-shared [`Profile`], the resolved scoring kernel
//! (dense or sparse CSR), the detection threshold, metric handles, and an
//! optional audit log. [`DetectionEngine`](crate::detect::DetectionEngine)
//! and the shards of [`ShardedMonitor`](crate::shard::ShardedMonitor) are
//! thin shells over it: every forward pass, every [`Flag::classify`]
//! decision, and every metrics/audit observation in the crate funnels
//! through this one type, so the two paths cannot drift apart.
//!
//! The crate-private `SessionScorer` is the streaming counterpart: the
//! per-session state a shard keeps while events arrive in batches. It
//! reproduces the batch scanners event-for-event — exact mode emits the
//! same π-anchored window alerts as [`WindowScorer::scan`], incremental
//! mode the same conditional [`SlidingState`] alerts as
//! [`WindowScorer::scan_incremental`] — so de-interleaving a stream and
//! scanning each session's trace in isolation is bit-identical to feeding
//! the interleaved stream through per-session `SessionScorer`s.

use crate::detect::{Alert, Flag, KernelConfig, KernelState};
use crate::profile::Profile;
use crate::telemetry::{audit_record_from_alert, DetectMetrics};
use adprom_hmm::{
    log_likelihood, log_likelihood_sparse, score_windows_batch, step_scores, step_scores_sparse,
    SlidingState, SlidingStats, StepScores, LANE_CAP,
};
use adprom_obs::{AuditLog, DeviantTransition, ForensicReport, Registry, WindowTrace};
use adprom_trace::CallEvent;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// How windows are scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringMode {
    /// A full scaled-forward pass per window (exactly
    /// [`WindowScorer::scan`]): output is byte-identical to the serial
    /// engine loop.
    #[default]
    ExactWindows,
    /// Incremental [`SlidingState`] scoring: one O(N²) update per event.
    /// Deterministic, but windows are scored conditionally on session
    /// history (see [`adprom_hmm::sliding`]).
    Incremental,
}

/// Knobs of the per-session flight recorder (see
/// [`ShardedMonitor::with_forensics`](crate::shard::ShardedMonitor::with_forensics)).
/// Defaults keep reports small enough to ride every audit record while
/// still showing the score trajectory into an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForensicsConfig {
    /// Bounded ring of recent window traces kept per session — the
    /// delta-vs-threshold series a [`ForensicReport`] carries (values
    /// below 1 behave as 1: the alerting window itself is always kept).
    pub flight_capacity: usize,
    /// Most-deviant steps reported per alarmed window (values below 1
    /// behave as 1).
    pub top_k: usize,
}

impl Default for ForensicsConfig {
    fn default() -> ForensicsConfig {
        ForensicsConfig {
            flight_capacity: 8,
            top_k: 5,
        }
    }
}

/// Unified kernel reporting: which kernel was asked for, which is scoring,
/// and the precision and batch width it scores with. Session reports and
/// the benchmark's kernel line carry it; audit records carry only the
/// effective kernel's label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStatus {
    /// The kernel the caller configured (`dense` or `sparse`).
    pub requested: String,
    /// The kernel scoring windows — always the requested one: a profile
    /// whose CSR fails validation is rejected at registration, never
    /// downgraded.
    pub effective: String,
    /// Scoring precision: always `f64` — every kernel scores in double
    /// precision.
    pub precision: String,
    /// Widest window-batch the scorer's batched paths hand the kernel in
    /// one pass; `1` means windows are scored one at a time.
    pub batch_width: u32,
}

impl Default for KernelStatus {
    fn default() -> KernelStatus {
        KernelStatus::in_force("dense")
    }
}

impl KernelStatus {
    /// The requested kernel is the one scoring.
    pub fn in_force(label: &str) -> KernelStatus {
        KernelStatus {
            requested: label.to_string(),
            effective: label.to_string(),
            precision: "f64".to_string(),
            batch_width: 1,
        }
    }
}

/// The scoring tier the risk-budget scheduler holds a live session at
/// while the monitor is overloaded (see
/// [`OverloadConfig`](crate::runtime::OverloadConfig)). Ordered by
/// fidelity — `SpotCheck < Full` — so the starvation floor "never below
/// tier X" is an `Ord` comparison.
///
/// Every tier scores every window exactly; the tiers differ only in
/// which windows emit. A window whose unconstrained verdict is an alarm
/// therefore alarms at either tier, with the same alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub enum ScoringTier {
    /// Only every k-th window's verdict is emitted; skipped windows carry
    /// the last verdict forward and are skipped only when Normal (exact
    /// score at or above threshold, no out-of-context call in the
    /// window).
    SpotCheck,
    /// The unconstrained baseline: exact incremental pushes, every window
    /// emitted. Sessions start here and alarmed sessions are pinned here.
    #[default]
    Full,
}

impl ScoringTier {
    /// Short label used by metrics, audit records, and bench JSON:
    /// `"spot"` or `"full"`.
    pub fn label(&self) -> &'static str {
        match self {
            ScoringTier::SpotCheck => "spot",
            ScoringTier::Full => "full",
        }
    }
}

impl fmt::Display for ScoringTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-alarm tier provenance recorded by a tier-armed [`SessionScorer`]:
/// the tier the window was scored under and the escalation it triggered
/// (if any) — one stamp per emitted alarm, in alarm order, drained
/// alongside forensics at commit.
#[derive(Debug, Clone)]
pub(crate) struct TierStamp {
    /// Tier the alarming window was scored under.
    pub(crate) tier: ScoringTier,
    /// Why the alarm escalated the session back to full scoring, when it
    /// did.
    pub(crate) escalation: Option<String>,
}

/// Human-readable explanation for an alert, from the window facts that
/// decided its flag — `(name, caller)` of the first out-of-context event
/// and the first DDG-labeled call name. Every scoring path shares this
/// one function, so alert wording is identical everywhere.
pub(crate) fn alert_detail(flag: Flag, ooc: Option<(&str, &str)>, leak: Option<&str>) -> String {
    match flag {
        Flag::OutOfContext => {
            let (name, caller) = ooc.expect("flag requires an out-of-context event");
            format!("call `{name}` issued by `{caller}`, which never issued it in training")
        }
        Flag::DataLeak => {
            let leak = leak.expect("flag requires a labeled output");
            format!(
                "anomalous sequence contains labeled output `{leak}` \
                 (block {}): targeted data from the DB reached an output statement",
                leak.rsplit("_Q").next().unwrap_or("?")
            )
        }
        Flag::Anomalous => "sequence probability below threshold".to_string(),
        Flag::Normal => String::new(),
    }
}

/// The single scoring core: profile + kernel + threshold + observation
/// funnel. Cheap to clone — the profile, the CSR decomposition, and every
/// metric handle are shared, so per-session or per-worker clones cost a
/// handful of `Arc` bumps.
#[derive(Debug, Clone)]
pub struct WindowScorer {
    profile: Arc<Profile>,
    /// Active threshold (defaults to the profile's).
    threshold: f64,
    /// Scoring kernel resolved against the profile (dense by default).
    kernel: KernelState,
    /// Requested/effective kernel, precision and batch width.
    status: KernelStatus,
    /// Metric handles (no-ops unless a registry installed live ones).
    metrics: DetectMetrics,
    /// Audit log for non-Normal detections, if any. The monitor, which
    /// needs deterministic sequence numbers under parallelism, leaves
    /// this unset and audits at its serial commit, in arrival order.
    audit: Option<Arc<AuditLog>>,
}

impl WindowScorer {
    /// Creates a scorer over a shared profile. Dense kernel,
    /// instrumentation disabled.
    pub fn new(profile: Arc<Profile>) -> WindowScorer {
        let threshold = profile.threshold;
        WindowScorer {
            profile,
            threshold,
            kernel: KernelState::Dense,
            status: KernelStatus::default(),
            metrics: DetectMetrics::disabled(),
            audit: None,
        }
    }

    /// Selects the scoring kernel, building the CSR decomposition from the
    /// profile when `config` needs one (unvalidated — the trusted-profile
    /// path; [`ProfileRegistry::register`](crate::registry::ProfileRegistry::register)
    /// is the validated one).
    pub fn with_kernel(self, config: KernelConfig) -> WindowScorer {
        let kernel = KernelState::build(config, &self.profile);
        self.with_kernel_state(kernel, KernelStatus::in_force(config.label()))
    }

    /// Installs an already-resolved kernel with its status — how a
    /// registry epoch shares one CSR matrix across every scorer built
    /// from it.
    pub(crate) fn with_kernel_state(
        mut self,
        kernel: KernelState,
        status: KernelStatus,
    ) -> WindowScorer {
        self.status = KernelStatus {
            batch_width: match &kernel {
                KernelState::Sparse(_) => LANE_CAP as u32,
                KernelState::Dense => 1,
            },
            ..status
        };
        self.kernel = kernel;
        self
    }

    /// Registers metric handles against `registry`.
    pub fn with_registry(self, registry: &Registry) -> WindowScorer {
        self.with_metrics(DetectMetrics::from_registry(registry))
    }

    /// Installs pre-fetched metric handles.
    pub fn with_metrics(mut self, metrics: DetectMetrics) -> WindowScorer {
        self.metrics = metrics;
        self
    }

    /// Routes every non-Normal detection through
    /// [`WindowScorer::observe`] to `audit`.
    pub fn with_audit(mut self, audit: Arc<AuditLog>) -> WindowScorer {
        self.audit = Some(audit);
        self
    }

    /// Overrides the detection threshold.
    pub fn set_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
    }

    /// The active threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The shared profile.
    pub fn profile(&self) -> &Arc<Profile> {
        &self.profile
    }

    /// Requested/effective kernel, precision and batch width.
    pub fn status(&self) -> &KernelStatus {
        &self.status
    }

    /// The resolved kernel (shared CSR handle).
    pub(crate) fn kernel(&self) -> &KernelState {
        &self.kernel
    }

    /// The metric handles in force.
    pub(crate) fn metrics(&self) -> &DetectMetrics {
        &self.metrics
    }

    /// Digests one event, given by its call name and caller, against the
    /// profile — encoding, out-of-context and labeled-output facts,
    /// computed exactly once per event. Borrowed input, so the framed
    /// ingest path digests straight from the frame bytes; the only
    /// allocations are an out-of-vocabulary name (alerts print it) and an
    /// out-of-context caller (alerts describe it).
    pub(crate) fn digest(&self, name: &str, caller: &str) -> WindowEvent {
        let alphabet = &self.profile.alphabet;
        let ooc = self.profile.is_out_of_context(name, caller);
        let encoded = alphabet.encode(name);
        // A name that mapped to `<unk>` without literally being `<unk>`
        // is out-of-vocabulary: keep it so alerts show the real call.
        let oov = (encoded == alphabet.unknown() && name != alphabet.decode(encoded))
            .then(|| Arc::from(name));
        WindowEvent {
            name: oov,
            caller: if ooc {
                caller.to_string()
            } else {
                String::new()
            },
            encoded,
            ooc,
            labeled: name.contains("_Q"),
        }
    }

    /// `log P(window | λ)` for a window of call names, computed by the
    /// configured kernel.
    pub fn score(&self, names: &[String]) -> f64 {
        let encoded = self.profile.alphabet.encode_seq(names);
        self.score_encoded(&encoded)
    }

    /// Scores already-encoded, same-length windows, in input order. The
    /// sparse kernel scores them in passes of up to [`LANE_CAP`] lanes
    /// ([`adprom_hmm::score_windows_batch`]; each lane is bit-identical to
    /// scoring its window alone), the dense kernel one window at a time,
    /// so every caller batches through this one entry point whatever the
    /// kernel.
    pub(crate) fn score_batch_encoded(&self, windows: &[&[usize]]) -> Vec<f64> {
        match &self.kernel {
            KernelState::Sparse(sp) => {
                self.metrics.batch_windows.add(windows.len() as u64);
                score_windows_batch(&self.profile.hmm, sp, windows, false).scores
            }
            KernelState::Dense => windows.iter().map(|w| self.score_encoded(w)).collect(),
        }
    }

    /// [`WindowScorer::score`] for an already-encoded window — trace
    /// scanners encode each trace once and score slices of it, so the
    /// per-window cost is only the forward recursion itself.
    fn score_encoded(&self, encoded: &[usize]) -> f64 {
        match &self.kernel {
            KernelState::Dense => log_likelihood(&self.profile.hmm, encoded),
            KernelState::Sparse(sp) => log_likelihood_sparse(&self.profile.hmm, sp, encoded),
        }
    }

    /// Kernel-matched per-step score attribution for one encoded window:
    /// `steps[t] = ln P(o_t | o_0..o_{t-1}, λ)`, the exact factors of the
    /// window's log-likelihood under the configured kernel. The factors
    /// sum (left to right) bitwise to the window's score, so an alert's
    /// deficit can be charged to individual call transitions without a
    /// second scoring model. No metric side effects — the diagnostic path.
    pub(crate) fn attribution_encoded(&self, encoded: &[usize]) -> StepScores {
        match &self.kernel {
            KernelState::Dense => step_scores(&self.profile.hmm, encoded),
            KernelState::Sparse(sp) => step_scores_sparse(&self.profile.hmm, sp, encoded),
        }
    }

    /// Classifies one window of events, stamping `session` on any audit
    /// record it raises.
    pub fn classify(&self, events: &[CallEvent], session: &str) -> Alert {
        let names: Vec<String> = events.iter().map(|e| e.name.to_string()).collect();
        // Only read the clock when a live histogram will receive the
        // sample — disabled instrumentation must not cost two syscalls
        // per window.
        let timer = self.metrics.score_ns.is_enabled().then(Instant::now);
        let ll = self.score(&names);
        if let Some(start) = timer {
            self.metrics
                .score_ns
                .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        // Per-window facts first, then the shared precedence rule
        // ([`Flag::classify`]) decides the flag.
        let ooc = events
            .iter()
            .find(|e| self.profile.is_out_of_context(&e.name, &e.caller));
        let leak = names.iter().find(|n| n.contains("_Q"));
        let flag = Flag::classify(ll, self.threshold, leak.is_some(), ooc.is_some());
        let detail = alert_detail(
            flag,
            ooc.map(|e| (&*e.name, &*e.caller)),
            leak.map(String::as_str),
        );
        self.observe(
            Alert {
                flag,
                log_likelihood: ll,
                threshold: self.threshold,
                window: names,
                detail,
            },
            session,
        )
    }

    /// Feeds a finished alert through the instrumentation — the window
    /// counter, its flag-kind counter, and (for non-Normal alerts) the
    /// audit log — and returns it unchanged. Every classify path ends
    /// here.
    pub fn observe(&self, alert: Alert, session: &str) -> Alert {
        self.metrics.windows_scored.inc();
        self.metrics.flag_counter(alert.flag).inc();
        if alert.is_alarm() {
            // Attribute every flagged window to the kernel that scored it.
            match &self.kernel {
                KernelState::Dense => self.metrics.kernel_dense.inc(),
                KernelState::Sparse(_) => self.metrics.kernel_sparse.inc(),
            }
            if let Some(audit) = &self.audit {
                audit.record(audit_record_from_alert(
                    &alert,
                    session,
                    &self.status.effective,
                ));
            }
        }
        alert
    }

    /// Scans a whole trace with sliding windows; returns one alert per
    /// window.
    ///
    /// Per-trace facts are computed once up front — the symbol encoding,
    /// out-of-context verdicts, and labeled-output (`_Q`) markers — so the
    /// per-window work is one forward recursion plus the flag decision.
    /// Alerts are identical to classifying each window independently.
    pub fn scan(&self, events: &[CallEvent], session: &str) -> Vec<Alert> {
        let n = self.profile.window;
        if events.is_empty() {
            return Vec::new();
        }
        if events.len() <= n {
            return vec![self.classify(events, session)];
        }
        let names: Vec<String> = events.iter().map(|e| e.name.to_string()).collect();
        let encoded = self.profile.alphabet.encode_seq(&names);
        let ooc: Vec<bool> = events
            .iter()
            .map(|e| self.profile.is_out_of_context(&e.name, &e.caller))
            .collect();
        let labeled: Vec<bool> = names.iter().map(|name| name.contains("_Q")).collect();
        let total = events.len() - n + 1;
        let mut alerts = Vec::with_capacity(total);
        // Windows go to the kernel in chunks of LANE_CAP adjacent windows,
        // one sparse pass over the transition structure each (scores
        // identical to scoring each window alone).
        let mut first = 0usize;
        while first < total {
            let k = LANE_CAP.min(total - first);
            let lanes: Vec<&[usize]> = (first..first + k).map(|s| &encoded[s..s + n]).collect();
            let timer = self.metrics.score_ns.is_enabled().then(Instant::now);
            let scores = self.score_batch_encoded(&lanes);
            if let Some(t0) = timer {
                // One histogram sample per window (the pinned contract),
                // each carrying the batch's per-window share.
                let per = u64::try_from(t0.elapsed().as_nanos() / k as u128).unwrap_or(u64::MAX);
                for _ in 0..k {
                    self.metrics.score_ns.record(per);
                }
            }
            for (lane, ll) in scores.into_iter().enumerate() {
                let (start, end) = (first + lane, first + lane + n);
                let ooc_event = (start..end).find(|&t| ooc[t]).map(|t| &events[t]);
                let leak_name = (start..end).find(|&t| labeled[t]).map(|t| &names[t]);
                let flag =
                    Flag::classify(ll, self.threshold, leak_name.is_some(), ooc_event.is_some());
                let detail = alert_detail(
                    flag,
                    ooc_event.map(|e| (&*e.name, &*e.caller)),
                    leak_name.map(String::as_str),
                );
                alerts.push(self.observe(
                    Alert {
                        flag,
                        log_likelihood: ll,
                        threshold: self.threshold,
                        window: names[start..end].to_vec(),
                        detail,
                    },
                    session,
                ));
            }
            first += k;
        }
        alerts
    }

    /// Incremental scan: one sliding scorer per trace, one alert per
    /// window, same window set as [`WindowScorer::scan`] but scored under
    /// the conditional semantics of [`adprom_hmm::sliding`]. Returns the
    /// sliding scorer's lifetime stats so callers can surface
    /// `sliding.pushes` / `sliding.reanchors`.
    pub fn scan_incremental(
        &self,
        events: &[CallEvent],
        session: &str,
    ) -> (Vec<Alert>, SlidingStats) {
        let n = self.profile.window;
        if events.is_empty() {
            return (Vec::new(), SlidingStats::default());
        }
        let names: Vec<String> = events.iter().map(|e| e.name.to_string()).collect();
        let encoded = self.profile.alphabet.encode_seq(&names);
        let out_of_context: Vec<bool> = events
            .iter()
            .map(|e| self.profile.is_out_of_context(&e.name, &e.caller))
            .collect();
        let labeled: Vec<bool> = names.iter().map(|name| name.contains("_Q")).collect();
        // Prefix counts make "any flagged event in the window?" O(1).
        let prefix = |flags: &[bool]| -> Vec<u32> {
            let mut acc = Vec::with_capacity(flags.len() + 1);
            acc.push(0u32);
            for &f in flags {
                acc.push(acc.last().unwrap() + u32::from(f));
            }
            acc
        };
        let ooc_prefix = prefix(&out_of_context);
        let labeled_prefix = prefix(&labeled);

        let mut sliding = SlidingState::new(self.profile.hmm.n_states(), n);
        // The configured kernel carries into the per-event scorer.
        let kernel = self.kernel.sparse();
        let mut alerts = Vec::with_capacity(events.len().saturating_sub(n) + 1);
        let mut emit = |start: usize, end: usize, ll: f64| {
            // The shared precedence rule ([`Flag::classify`]), driven by
            // the precomputed per-event facts.
            let window = names[start..end].to_vec();
            let ooc = (ooc_prefix[end] > ooc_prefix[start])
                .then(|| (start..end).find(|&t| out_of_context[t]).expect("counted"));
            let leak = (labeled_prefix[end] > labeled_prefix[start])
                .then(|| (start..end).find(|&t| labeled[t]).expect("counted"));
            let flag = Flag::classify(ll, self.threshold, leak.is_some(), ooc.is_some());
            let detail = alert_detail(
                flag,
                ooc.map(|t| (&*events[t].name, &*events[t].caller)),
                leak.map(|t| names[t].as_str()),
            );
            alerts.push(self.observe(
                Alert {
                    flag,
                    log_likelihood: ll,
                    threshold: self.threshold,
                    window,
                    detail,
                },
                session,
            ));
        };

        if events.len() <= n {
            let mut score = 0.0;
            for &symbol in &encoded {
                score = sliding.push(&self.profile.hmm, kernel, symbol);
            }
            emit(0, events.len(), score);
        } else {
            for (t, &symbol) in encoded.iter().enumerate() {
                let score = sliding.push(&self.profile.hmm, kernel, symbol);
                if t + 1 >= n {
                    emit(t + 1 - n, t + 1, score);
                }
            }
        }
        (alerts, sliding.stats())
    }

    /// Highest-severity flag over a whole trace (severity order:
    /// OutOfContext > DataLeak > Anomalous > Normal).
    pub fn verdict(&self, events: &[CallEvent]) -> Flag {
        self.scan(events, "")
            .into_iter()
            .map(|a| a.flag)
            .max()
            .unwrap_or(Flag::Normal)
    }
}

/// Scores `windows` through a flush-start memo snapshot: hits read
/// `memo`, a repeat within this replay reuses its first score, and only
/// the distinct missing windows reach the kernel — in first-seen order. `keys[i]` is `windows[i]` as memo key. The missing
/// windows and their scores land in `delta.fresh`; `memo` itself is never
/// written here.
fn score_memoized(
    scorer: &WindowScorer,
    windows: &[&[usize]],
    keys: &[&[u16]],
    memo: &WindowMemo,
    delta: &mut MemoDelta,
) -> Vec<f64> {
    let mut scores = vec![0.0; windows.len()];
    let mut missing = Vec::new();
    for (i, &key) in keys.iter().enumerate() {
        match memo.get(key) {
            Some(score) => scores[i] = score,
            None => missing.push(i),
        }
    }
    // Each distinct missing window is one `fresh` entry and one kernel
    // lane, both in first-seen order.
    delta.fresh = WindowMemo::with_capacity(missing.len(), windows.first().map_or(0, |w| w.len()));
    let mut lanes: Vec<&[usize]> = Vec::new();
    let mut lane_of = Vec::with_capacity(missing.len());
    for &i in &missing {
        let (lane, new) = delta.fresh.insert(keys[i], f64::NAN);
        if new {
            lanes.push(windows[i]);
        }
        lane_of.push(lane);
    }
    delta.misses = lanes.len() as u64;
    delta.hits = (windows.len() - lanes.len()) as u64;
    delta.fresh.scores = scorer.score_batch_encoded(&lanes);
    for (&i, lane) in missing.iter().zip(lane_of) {
        scores[i] = delta.fresh.scores[lane];
    }
    scores
}

/// One event digested against a profile: everything the streaming scorer
/// needs, precomputed once. Facts are cheap to clone — the monitor
/// runtime buffers them at ingest and replays clones through
/// crash-isolated workers — because the common case stores no strings at
/// all.
#[derive(Debug, Clone)]
pub(crate) struct WindowEvent {
    /// The literal call name, kept only when it is out-of-vocabulary; an
    /// in-vocabulary fact's name is the profile alphabet's symbol for
    /// `encoded`, read back at emit time (the alphabet is small and hot,
    /// where 10⁴ buffered copies would be scattered across the heap).
    name: Option<Arc<str>>,
    /// Only out-of-context facts keep their caller (it is only ever read
    /// to describe one); everything else stores the empty string.
    caller: String,
    encoded: usize,
    ooc: bool,
    labeled: bool,
}

impl WindowEvent {
    /// The call name this fact was digested from.
    fn name<'a>(&'a self, profile: &'a Profile) -> &'a str {
        self.name
            .as_deref()
            .unwrap_or_else(|| profile.alphabet.decode(self.encoded))
    }

    /// True when this fact can flag a window by itself — out-of-context
    /// or DDG-labeled. Load shedding must never drop such an event.
    pub(crate) fn is_dangerous(&self) -> bool {
        self.ooc || self.labeled
    }
}

/// Exact window-score memo of one profile epoch: a window's full encoded
/// symbol sequence, one `u16` per call, → the log-likelihood the epoch's
/// kernel computed for it. Keyed by the whole sequence, never a hash
/// alone: a lookup compares every symbol, so a hit is the very `f64` a
/// fresh pass returned. Only a monitor shard owns memos, one per pinned
/// `(app, epoch)`.
///
/// Open addressing over flat arrays: keys sit back to back in one arena
/// and each slot holds `(hash, entry + 1)`, so an insert allocates
/// nothing per entry and growing the table never re-reads a key.
#[derive(Debug, Default)]
pub(crate) struct WindowMemo {
    /// Symbols per key — the epoch's window length, fixed by the first
    /// insert.
    width: usize,
    /// Every key, back to back, in insertion order.
    keys: Vec<u16>,
    /// Entry `e`'s score.
    scores: Vec<f64>,
    /// Power-of-two table, at most half full; `(_, 0)` is an empty slot.
    slots: Vec<(u32, u32)>,
}

/// Largest alphabet whose symbols fit a memo key (every profile in
/// practice: a dense model this wide would hold 2³² transitions).
const MEMO_MAX_SYMBOLS: usize = 1 << 16;

impl WindowMemo {
    /// An empty memo with room for `n` keys of `width` symbols before it
    /// grows.
    fn with_capacity(n: usize, width: usize) -> WindowMemo {
        WindowMemo {
            width,
            keys: Vec::with_capacity(n * width),
            scores: Vec::with_capacity(n),
            slots: if n == 0 {
                Vec::new()
            } else {
                vec![(0, 0); (2 * n + 2).next_power_of_two().max(64)]
            },
        }
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.scores.len()
    }

    /// The score memoized for `key`, if any.
    pub(crate) fn get(&self, key: &[u16]) -> Option<f64> {
        self.find(key, memo_hash(key)).ok().map(|e| self.scores[e])
    }

    /// Adds `key → score` unless `key` is present. Returns the key's entry
    /// index and whether it was added.
    pub(crate) fn insert(&mut self, key: &[u16], score: f64) -> (usize, bool) {
        if self.scores.is_empty() {
            self.width = key.len();
        }
        assert_eq!(key.len(), self.width, "memo keys share one window length");
        if 2 * (self.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = memo_hash(key);
        match self.find(key, hash) {
            Ok(entry) => (entry, false),
            Err(slot) => {
                let entry = self.len();
                self.slots[slot] = (hash, entry as u32 + 1);
                self.keys.extend_from_slice(key);
                self.scores.push(score);
                (entry, true)
            }
        }
    }

    /// Every `(key, score)` in insertion order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&[u16], f64)> {
        self.keys
            .chunks(self.width.max(1))
            .zip(self.scores.iter().copied())
    }

    /// The entry holding `key`, or the empty slot where it belongs.
    fn find(&self, key: &[u16], hash: u32) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let (h, e) = self.slots[slot];
            if e == 0 {
                return Err(slot);
            }
            let entry = e as usize - 1;
            if h == hash && &self.keys[entry * self.width..][..self.width] == key {
                return Ok(entry);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table, re-placing slots by their stored hashes.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(64);
        let mut slots = vec![(0u32, 0u32); size];
        for &(hash, e) in self.slots.iter().filter(|s| s.1 != 0) {
            let mut slot = hash as usize & (size - 1);
            while slots[slot].1 != 0 {
                slot = (slot + 1) & (size - 1);
            }
            slots[slot] = (hash, e);
        }
        self.slots = slots;
    }
}

/// Memo key hash: four symbols per 64-bit word through the `FxHasher`
/// multiply-rotate step, folded so the well-mixed high bits index the
/// table. A collision costs a probe, never a wrong score.
fn memo_hash(key: &[u16]) -> u32 {
    let mut h = 0u64;
    for chunk in key.chunks(4) {
        let word = chunk
            .iter()
            .rev()
            .fold(0u64, |w, &s| (w << 16) | u64::from(s));
        h = (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    (h >> 32) as u32
}

/// What one exact-mode replay adds to its epoch's [`WindowMemo`]: the
/// windows the kernel scored because the flush-start memo lacked them,
/// in first-scored order, and the replay's tally. A repeat within the
/// replay reuses its first score and counts as a hit, so `misses` is the
/// number of kernel evaluations.
#[derive(Debug, Default)]
pub(crate) struct MemoDelta {
    pub(crate) fresh: WindowMemo,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

/// Tier-ladder state of one session, boxed inside [`SessionScorer`] so
/// unarmed sessions (every scorer outside an overload-configured monitor)
/// pay one null pointer. Cloned with the scorer state, so a
/// crash-isolated replay that is retried cannot double-count escalations
/// or stamps.
#[derive(Debug, Clone)]
struct TierState {
    /// Tier currently in force (scheduler-assigned or self-escalated).
    tier: ScoringTier,
    /// Spot-check cadence: every `spot_every`-th window emits.
    spot_every: u32,
    /// Windows skipped since the last emitted one (spot tier).
    since_check: u32,
    /// The verdict carried forward across skipped spot-check windows.
    carried: Flag,
    /// Self-escalations back to [`ScoringTier::Full`] so far.
    escalations: u32,
    /// True once any window alarmed — pins the session at the full tier.
    alarmed: bool,
    /// Last emitted window's `score − threshold` (the risk scheduler's
    /// margin input; `+∞` until the first window emits, so brand-new
    /// sessions rank as unknown rather than safe).
    margin: f64,
    /// Tier provenance of alarms since the last drain.
    stamps: Vec<TierStamp>,
}

/// The session flight recorder: a bounded ring of recent window traces
/// plus the forensic reports built at alarms since the last drain. Boxed
/// inside [`SessionScorer`] so sessions without forensics pay one null
/// pointer; cloned with the scorer state, so a crash-isolated replay that
/// is retried cannot duplicate reports (the clone starts from the
/// last-committed, already-drained state).
#[derive(Debug, Clone)]
struct FlightRecorder {
    config: ForensicsConfig,
    /// Recent window traces, oldest first, bounded by `flight_capacity`.
    windows: VecDeque<WindowTrace>,
    /// Windows emitted so far — the next window's index.
    emitted: u64,
    /// Reports built at alarms, in alarm order, awaiting
    /// [`SessionScorer::take_forensics`].
    pending: Vec<ForensicReport>,
}

/// The per-session streaming state of one monitored connection: the
/// last ≤ n events' facts plus (in incremental mode) the sliding forward
/// recurrence. The monitor runtime feeds it batches of digested events
/// (`push_facts`); close the session with [`SessionScorer::finalize`] to
/// emit the single short window of a trace that never filled a full one.
///
/// Equivalence contract (what the interleaving proptest pins): feeding a
/// session's events through a `SessionScorer` — in any interleaving with
/// other sessions, in batches of any size — produces exactly the alerts of
/// [`WindowScorer::scan`] (exact mode) or
/// [`WindowScorer::scan_incremental`] (incremental mode) over the
/// de-interleaved trace, bit for bit.
///
/// `Clone` snapshots the whole recurrence: a crash-isolated worker clones
/// the state, replays events into the clone, and commits it only on
/// success, so a retried panic never double-pushes.
#[derive(Debug, Clone)]
pub(crate) struct SessionScorer {
    mode: ScoringMode,
    window: usize,
    ring: VecDeque<WindowEvent>,
    sliding: Option<SlidingState>,
    seen: usize,
    done: bool,
    flight: Option<Box<FlightRecorder>>,
    tier: Option<Box<TierState>>,
}

impl SessionScorer {
    /// Creates streaming state compatible with `scorer`'s profile and
    /// kernel.
    pub(crate) fn new(scorer: &WindowScorer, mode: ScoringMode) -> SessionScorer {
        let window = scorer.profile.window;
        let sliding = (mode == ScoringMode::Incremental)
            .then(|| SlidingState::new(scorer.profile.hmm.n_states(), window));
        SessionScorer {
            mode,
            window,
            ring: VecDeque::with_capacity(window),
            sliding,
            seen: 0,
            done: false,
            flight: None,
            tier: None,
        }
    }

    /// Arms the session flight recorder: every scored window's
    /// `(score, threshold, delta, flag)` lands in a bounded ring, and each
    /// alarmed window additionally gets a [`ForensicReport`] — its top-k
    /// most-deviant call transitions (exact per-step factors of the
    /// window's score) plus the recorder's recent-window tail. Reports
    /// accumulate until [`SessionScorer::take_forensics`] drains them.
    ///
    /// In exact mode the scoring pass itself produces the per-step
    /// factors, so forensics adds no extra forward recursion; benign
    /// windows allocate nothing beyond the ring slot. In incremental mode
    /// the alert's score is conditional on session history, so the
    /// attribution is a separate π-anchored pass over the alarmed
    /// window's own calls — run only when a window alarms.
    pub(crate) fn with_forensics(mut self, config: ForensicsConfig) -> SessionScorer {
        self.flight = Some(Box::new(FlightRecorder {
            config,
            windows: VecDeque::with_capacity(config.flight_capacity.max(1)),
            emitted: 0,
            pending: Vec::new(),
        }));
        self
    }

    /// Drains the forensic reports built since the last drain, in alarm
    /// order (empty when forensics are disabled or no window alarmed).
    pub(crate) fn take_forensics(&mut self) -> Vec<ForensicReport> {
        self.flight
            .as_mut()
            .map(|f| std::mem::take(&mut f.pending))
            .unwrap_or_default()
    }

    /// Arms the risk-budget tier ladder: the session starts at
    /// [`ScoringTier::Full`] and the monitor's scheduler may demote it
    /// to [`ScoringTier::SpotCheck`]. No-op outside incremental mode
    /// (the ladder rides the sliding recurrence, which scores every
    /// window whether or not it emits). Must be called before the
    /// session is fed.
    pub(crate) fn with_tier_support(mut self, spot_every: u32) -> SessionScorer {
        if self.mode != ScoringMode::Incremental {
            return self;
        }
        self.tier = Some(Box::new(TierState {
            tier: ScoringTier::Full,
            spot_every: spot_every.max(1),
            since_check: 0,
            carried: Flag::Normal,
            escalations: 0,
            alarmed: false,
            margin: f64::INFINITY,
            stamps: Vec::new(),
        }));
        self
    }

    /// True when [`SessionScorer::with_tier_support`] armed the ladder.
    pub(crate) fn tier_armed(&self) -> bool {
        self.tier.is_some()
    }

    /// The scoring tier in force ([`ScoringTier::Full`] when the ladder
    /// is unarmed).
    pub(crate) fn tier(&self) -> ScoringTier {
        self.tier.as_deref().map_or(ScoringTier::Full, |t| t.tier)
    }

    /// Assigns the session's scoring tier (the serial scheduler's side of
    /// the ladder). Alarmed sessions are pinned at [`ScoringTier::Full`]
    /// — the starvation floor — so a demotion request on one is a no-op.
    pub(crate) fn assign_tier(&mut self, tier: ScoringTier) {
        let Some(state) = self.tier.as_deref_mut() else {
            return;
        };
        let tier = if state.alarmed {
            ScoringTier::Full
        } else {
            tier
        };
        state.tier = tier;
        state.since_check = 0;
    }

    /// Last emitted window's `score − threshold` (`+∞` until one emits)
    /// — the risk scheduler's margin input.
    pub(crate) fn risk_margin(&self) -> f64 {
        self.tier.as_deref().map_or(f64::INFINITY, |t| t.margin)
    }

    /// True once any window of this session alarmed (tier-armed sessions
    /// only).
    pub(crate) fn has_alarmed(&self) -> bool {
        self.tier.as_deref().is_some_and(|t| t.alarmed)
    }

    /// Self-escalations back to [`ScoringTier::Full`] so far.
    pub(crate) fn escalations(&self) -> u32 {
        self.tier.as_deref().map_or(0, |t| t.escalations)
    }

    /// The verdict in force between spot checks — the last emitted
    /// window's flag, carried forward across skipped windows (`None`
    /// until a tier-armed session emits its first window).
    #[cfg(test)]
    pub(crate) fn carried_verdict(&self) -> Option<Flag> {
        self.tier
            .as_deref()
            .filter(|t| t.margin.is_finite())
            .map(|t| t.carried)
    }

    /// Drains the tier stamps recorded for alarms since the last drain,
    /// in alarm order (empty when the ladder is unarmed).
    pub(crate) fn take_tier_stamps(&mut self) -> Vec<TierStamp> {
        self.tier
            .as_deref_mut()
            .map(|t| std::mem::take(&mut t.stamps))
            .unwrap_or_default()
    }

    /// Events pushed so far.
    pub(crate) fn seen(&self) -> usize {
        self.seen
    }

    /// Sliding-scorer accounting (incremental mode; zeroes otherwise).
    pub(crate) fn stats(&self) -> SlidingStats {
        self.sliding
            .as_ref()
            .map(SlidingState::stats)
            .unwrap_or_default()
    }

    /// Replays a batch of digested facts, appending each window's alert
    /// to `out` — the one way a session is fed. Alerts do not depend on
    /// how a stream is cut into batches: one fact per call emits what one
    /// call with every fact does. Exact mode hands every window that
    /// completes during the batch to the kernel in one call
    /// ([`WindowScorer::score_batch_encoded`]), which is how multiplexed
    /// sessions sharing an app profile batch naturally — the scores are
    /// identical to scoring each window alone.
    ///
    /// With `memo` (the epoch's memo as it stood at flush start), exact
    /// mode scores only the windows it lacks — each distinct one once —
    /// and returns them for the caller to merge. Incremental mode never
    /// reads the memo.
    pub(crate) fn push_facts(
        &mut self,
        scorer: &WindowScorer,
        facts: &[WindowEvent],
        session: &str,
        out: &mut Vec<Alert>,
        memo: Option<&WindowMemo>,
    ) -> MemoDelta {
        let mut delta = MemoDelta::default();
        match self.mode {
            ScoringMode::ExactWindows => {
                assert!(!self.done, "session already finalized");
                if facts.is_empty() {
                    return delta;
                }
                let w = self.window;
                // One contiguous view of ring + incoming facts: every
                // window completing during this batch is a slice of it.
                let mut combined: Vec<WindowEvent> =
                    Vec::with_capacity(self.ring.len() + facts.len());
                combined.extend(self.ring.iter().cloned());
                combined.extend_from_slice(facts);
                let encoded: Vec<usize> = combined.iter().map(|f| f.encoded).collect();
                // The window ending at combined[e] completes once e+1 ≥ w;
                // only windows ending at one of this batch's facts are new.
                let first_end = (combined.len() - facts.len()).max(w.saturating_sub(1));
                let windows: Vec<&[usize]> = (first_end..combined.len())
                    .map(|e| &encoded[e + 1 - w..=e])
                    .collect();
                let memo = memo.filter(|_| scorer.profile().alphabet.len() <= MEMO_MAX_SYMBOLS);
                let timer = scorer.metrics().score_ns.is_enabled().then(Instant::now);
                let scores = match memo {
                    Some(memo) => {
                        let narrow: Vec<u16> = encoded.iter().map(|&s| s as u16).collect();
                        let keys: Vec<&[u16]> = (first_end..combined.len())
                            .map(|e| &narrow[e + 1 - w..=e])
                            .collect();
                        score_memoized(scorer, &windows, &keys, memo, &mut delta)
                    }
                    None => scorer.score_batch_encoded(&windows),
                };
                if let Some(t0) = timer {
                    // One sample per window, carrying the replay's
                    // per-window share (the pinned count contract).
                    let k = windows.len().max(1) as u128;
                    let per = u64::try_from(t0.elapsed().as_nanos() / k).unwrap_or(u64::MAX);
                    for _ in &windows {
                        scorer.metrics().score_ns.record(per);
                    }
                }
                for (lane, ll) in scores.into_iter().enumerate() {
                    let e = first_end + lane;
                    out.push(Self::emit_window(
                        self.mode,
                        &mut self.flight,
                        scorer,
                        ll,
                        session,
                        &combined[e + 1 - w..=e],
                    ));
                }
                // Advance the ring to the post-batch state: the last ≤ w
                // events, exactly as per-fact pushes would have left it.
                self.seen += facts.len();
                let keep = combined.len().min(w);
                let tail = combined.len() - keep;
                self.ring.clear();
                self.ring.extend(combined.drain(tail..));
            }
            ScoringMode::Incremental => {
                assert!(!self.done, "session already finalized");
                let profile = scorer.profile();
                let kernel = scorer.kernel().sparse();
                for fact in facts {
                    let encoded = fact.encoded;
                    if self.ring.len() == self.window {
                        self.ring.pop_front();
                    }
                    self.ring.push_back(fact.clone());
                    self.seen += 1;
                    let sliding = self.sliding.as_mut().expect("incremental state");
                    let ll = sliding.push(&profile.hmm, kernel, encoded);
                    if self.seen >= self.window {
                        if let Some(alert) = self.emit_scored(scorer, ll, session) {
                            out.push(alert);
                        }
                    }
                }
            }
        }
        delta
    }

    /// Closes the session: a trace that never filled a full window emits
    /// its single short window now (matching the whole-trace scanners'
    /// `len ≤ n` branch); longer traces emit nothing further.
    pub(crate) fn finalize(&mut self, scorer: &WindowScorer, session: &str) -> Option<Alert> {
        if self.done {
            return None;
        }
        self.done = true;
        if self.seen == 0 || self.seen >= self.window {
            return None;
        }
        let ll = match self.mode {
            ScoringMode::ExactWindows => {
                let encoded: Vec<usize> = self.ring.iter().map(|f| f.encoded).collect();
                let timer = scorer.metrics().score_ns.is_enabled().then(Instant::now);
                let ll = scorer.score_encoded(&encoded);
                if let Some(t0) = timer {
                    scorer
                        .metrics()
                        .score_ns
                        .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
                ll
            }
            ScoringMode::Incremental => self.sliding.as_ref().expect("incremental state").score(),
        };
        let alert = self.emit(scorer, ll, session);
        if alert.is_alarm() {
            if let Some(state) = self.tier.as_deref_mut() {
                state.alarmed = true;
                state.stamps.push(TierStamp {
                    tier: state.tier,
                    escalation: None,
                });
            }
        }
        Some(alert)
    }

    /// Tier-aware emission of the incremental window ending at the
    /// current event: unarmed sessions emit every window; armed sessions
    /// at [`ScoringTier::SpotCheck`] skip the windows between checks whose
    /// verdict is Normal, and self-escalate back to [`ScoringTier::Full`]
    /// when an emitted window alarms. Every score is exact, so an emitted
    /// alert is the one the unarmed session would emit.
    fn emit_scored(&mut self, scorer: &WindowScorer, ll: f64, session: &str) -> Option<Alert> {
        let Some(state) = self.tier.as_deref() else {
            return Some(self.emit(scorer, ll, session));
        };
        let tier = state.tier;
        let due = state.since_check + 1 >= state.spot_every;
        let threshold = scorer.threshold();
        if tier == ScoringTier::SpotCheck && !due {
            // Skip only when the verdict is Normal: DataLeak and
            // Anomalous both require a below-threshold score, and
            // OutOfContext is decided by the window facts alone.
            let ooc_in_window = self.ring.iter().any(|f| f.ooc);
            if ll >= threshold && !ooc_in_window {
                let state = self.tier.as_deref_mut().expect("tier state");
                state.since_check += 1;
                state.margin = ll - threshold;
                scorer.metrics().tier_spot_skipped.inc();
                return None;
            }
        }
        let alert = self.emit(scorer, ll, session);
        let metrics = scorer.metrics();
        match tier {
            ScoringTier::Full => metrics.tier_full_windows.inc(),
            ScoringTier::SpotCheck => metrics.tier_spot_windows.inc(),
        }
        let alarm = alert.is_alarm();
        let escalation =
            (alarm && tier != ScoringTier::Full).then_some("alarm raised below full tier");
        let state = self.tier.as_deref_mut().expect("tier state");
        state.since_check = 0;
        state.margin = ll - threshold;
        state.carried = alert.flag;
        if alarm {
            state.alarmed = true;
            state.stamps.push(TierStamp {
                tier,
                escalation: escalation.map(str::to_string),
            });
        }
        if escalation.is_some() {
            state.tier = ScoringTier::Full;
            state.escalations += 1;
            metrics.tier_escalations.inc();
        }
        Some(alert)
    }

    /// Builds and observes the alert for the window currently in the ring,
    /// feeding the flight recorder when one is armed.
    fn emit(&mut self, scorer: &WindowScorer, ll: f64, session: &str) -> Alert {
        self.ring.make_contiguous();
        let (window, _) = self.ring.as_slices();
        Self::emit_window(self.mode, &mut self.flight, scorer, ll, session, window)
    }

    /// [`SessionScorer::emit`] over an explicit window slice — the batched
    /// replay path emits windows that live in its combined ring+facts
    /// buffer rather than the ring, so this takes the recorder and mode as
    /// split borrows instead of `&mut self`. An alarmed window is
    /// attributed by a fresh kernel-matched pass over its calls,
    /// π-anchored: in exact mode its factors re-sum bitwise to `ll`, in
    /// incremental mode (scores conditioned on session history) the
    /// report carries both likelihoods.
    fn emit_window(
        mode: ScoringMode,
        flight: &mut Option<Box<FlightRecorder>>,
        scorer: &WindowScorer,
        ll: f64,
        session: &str,
        window: &[WindowEvent],
    ) -> Alert {
        let profile = scorer.profile();
        let names: Vec<String> = window.iter().map(|f| f.name(profile).to_string()).collect();
        let ooc = window.iter().find(|f| f.ooc);
        let leak = window.iter().find(|f| f.labeled);
        let flag = Flag::classify(ll, scorer.threshold(), leak.is_some(), ooc.is_some());
        let detail = alert_detail(
            flag,
            ooc.map(|f| (f.name(profile), f.caller.as_str())),
            leak.map(|f| f.name(profile)),
        );
        let alert = Alert {
            flag,
            log_likelihood: ll,
            threshold: scorer.threshold(),
            window: names,
            detail,
        };
        if let Some(flight) = flight {
            let threshold = scorer.threshold();
            let index = flight.emitted;
            flight.emitted += 1;
            if flight.windows.len() >= flight.config.flight_capacity.max(1) {
                flight.windows.pop_front();
            }
            flight.windows.push_back(WindowTrace {
                index,
                log_likelihood: ll,
                threshold,
                delta: ll - threshold,
                flag: alert.flag.to_string(),
            });
            if alert.is_alarm() {
                let encoded: Vec<usize> = window.iter().map(|f| f.encoded).collect();
                let scored = scorer.attribution_encoded(&encoded);
                let share = threshold / window.len().max(1) as f64;
                let mut ranked: Vec<DeviantTransition> = scored
                    .steps
                    .iter()
                    .enumerate()
                    .map(|(t, &log_prob)| DeviantTransition {
                        step: t,
                        call: window[t].name(profile).to_string(),
                        from: t
                            .checked_sub(1)
                            .map(|p| window[p].name(profile).to_string()),
                        log_prob,
                        deficit: log_prob - share,
                    })
                    .collect();
                ranked.sort_by(|a, b| a.log_prob.total_cmp(&b.log_prob).then(a.step.cmp(&b.step)));
                ranked.truncate(flight.config.top_k.max(1));
                flight.pending.push(ForensicReport {
                    mode: match mode {
                        ScoringMode::ExactWindows => "exact_windows",
                        ScoringMode::Incremental => "incremental",
                    }
                    .to_string(),
                    window_index: index,
                    attributed_log_likelihood: scored.log_likelihood,
                    top_deviant: ranked,
                    recent_windows: flight.windows.iter().cloned().collect(),
                });
            }
        }
        scorer.observe(alert, session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use adprom_hmm::Hmm;
    use adprom_lang::{CallSiteId, LibCall};
    use adprom_trace::CallEvent;
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

    fn trace_from(names: &[&str]) -> Vec<CallEvent> {
        names.iter().map(|n| event(n, "main")).collect()
    }

    fn traces() -> Vec<Vec<CallEvent>> {
        vec![
            ["a", "b", "c_Q7", "a", "b", "c_Q7"]
                .iter()
                .map(|n| event(n, "main"))
                .collect(),
            ["b", "a", "a", "b", "a"]
                .iter()
                .map(|n| event(n, "main"))
                .collect(),
            ["a", "evil_exfil", "c_Q7"]
                .iter()
                .map(|n| event(n, "main"))
                .collect(),
            Vec::new(),
            ["a", "b"].iter().map(|n| event(n, "main")).collect(),
            vec![
                event("a", "main"),
                event("b", "attacker_function"),
                event("c_Q7", "main"),
            ],
        ]
    }

    /// `push_facts` batch sizes every streaming test runs: fact by fact,
    /// and the whole trace as one batch.
    const FEEDS: [usize; 2] = [1, usize::MAX];

    /// Feeds `trace` through [`SessionScorer::push_facts`] in batches of
    /// `batch` facts (no memo) and returns the alerts; the session stays
    /// open.
    fn feed(
        state: &mut SessionScorer,
        scorer: &WindowScorer,
        trace: &[CallEvent],
        batch: usize,
    ) -> Vec<Alert> {
        let facts: Vec<WindowEvent> = trace
            .iter()
            .map(|e| scorer.digest(&e.name, &e.caller))
            .collect();
        let mut alerts = Vec::new();
        for chunk in facts.chunks(batch) {
            state.push_facts(scorer, chunk, "", &mut alerts, None);
        }
        alerts
    }

    #[test]
    fn session_scorer_exact_matches_whole_trace_scan() {
        let scorer = WindowScorer::new(Arc::new(cyclic_profile()));
        for (i, trace) in traces().iter().enumerate() {
            let expected = format!("{:?}", scorer.scan(trace, ""));
            for batch in FEEDS {
                let mut state = SessionScorer::new(&scorer, ScoringMode::ExactWindows);
                let mut streamed = feed(&mut state, &scorer, trace, batch);
                streamed.extend(state.finalize(&scorer, ""));
                assert_eq!(
                    expected,
                    format!("{streamed:?}"),
                    "trace {i}, batch {batch}: streaming must be bit-identical to scan"
                );
            }
        }
    }

    #[test]
    fn session_scorer_incremental_matches_whole_trace_scan() {
        let scorer = WindowScorer::new(Arc::new(cyclic_profile()));
        for (i, trace) in traces().iter().enumerate() {
            let (expected, stats) = scorer.scan_incremental(trace, "");
            for batch in FEEDS {
                let mut state = SessionScorer::new(&scorer, ScoringMode::Incremental);
                let mut streamed = feed(&mut state, &scorer, trace, batch);
                streamed.extend(state.finalize(&scorer, ""));
                assert_eq!(
                    format!("{expected:?}"),
                    format!("{streamed:?}"),
                    "trace {i}, batch {batch}: streaming must be bit-identical to scan_incremental"
                );
                assert_eq!(state.stats(), stats, "trace {i}: same push/reanchor totals");
            }
        }
    }

    #[test]
    fn flight_recorder_attributes_alarms_and_stays_empty_when_benign() {
        let scorer = WindowScorer::new(Arc::new(cyclic_profile()));
        let mut first_reports = None;
        for batch in FEEDS {
            // The trained cycle never alarms: no reports, and the
            // recorder's pending list never allocates.
            let benign = trace_from(&["a", "b", "c_Q7", "a", "b", "c_Q7"]);
            let mut state = SessionScorer::new(&scorer, ScoringMode::ExactWindows)
                .with_forensics(ForensicsConfig::default());
            feed(&mut state, &scorer, &benign, batch);
            state.finalize(&scorer, "");
            assert!(state.take_forensics().is_empty());

            // An exfiltration call drives windows under threshold: one
            // report per alarm, attributed bitwise to the alert's own score.
            let attack = trace_from(&["a", "evil_exfil", "c_Q7", "a"]);
            let mut state = SessionScorer::new(&scorer, ScoringMode::ExactWindows)
                .with_forensics(ForensicsConfig::default());
            let mut alerts = feed(&mut state, &scorer, &attack, batch);
            alerts.extend(state.finalize(&scorer, ""));
            assert_eq!(
                format!("{alerts:?}"),
                format!("{:?}", scorer.scan(&attack, "")),
                "batch {batch}"
            );
            let alarms: Vec<&Alert> = alerts.iter().filter(|a| a.is_alarm()).collect();
            assert!(!alarms.is_empty());
            let reports = state.take_forensics();
            assert_eq!(reports.len(), alarms.len());
            for (report, alarm) in reports.iter().zip(&alarms) {
                assert_eq!(
                    report.attributed_log_likelihood.to_bits(),
                    alarm.log_likelihood.to_bits(),
                    "exact mode attributes the alert's own score"
                );
                assert!(!report.top_deviant.is_empty());
                assert!(report
                    .top_deviant
                    .windows(2)
                    .all(|w| w[0].log_prob <= w[1].log_prob));
                assert_eq!(
                    report.alert_delta(),
                    Some(alarm.log_likelihood - alarm.threshold)
                );
            }
            // Drained means drained: a second take returns nothing.
            assert!(state.take_forensics().is_empty());
            // Reports do not depend on how the stream was batched.
            match &first_reports {
                None => first_reports = Some(reports),
                Some(first) => assert_eq!(first, &reports, "batch {batch}"),
            }
        }
    }

    #[test]
    fn forensics_do_not_change_alerts() {
        let scorer = WindowScorer::new(Arc::new(cyclic_profile()));
        for (i, trace) in traces().iter().enumerate() {
            let expected = format!("{:?}", scorer.scan(trace, ""));
            for batch in FEEDS {
                let mut armed = SessionScorer::new(&scorer, ScoringMode::ExactWindows)
                    .with_forensics(ForensicsConfig::default());
                let mut got = feed(&mut armed, &scorer, trace, batch);
                got.extend(armed.finalize(&scorer, ""));
                assert_eq!(expected, format!("{got:?}"), "trace {i}, batch {batch}");
            }
        }
    }

    #[test]
    fn full_tier_armed_session_is_bit_identical_to_unarmed_baseline() {
        // As long as an armed session holds the full tier, every alert is
        // bit-identical to the unarmed incremental baseline.
        let scorer =
            WindowScorer::new(Arc::new(cyclic_profile())).with_kernel(KernelConfig::Sparse {
                sparse: adprom_hmm::SparseConfig::default(),
            });
        for (i, trace) in traces().iter().enumerate() {
            let expected = format!("{:?}", scorer.scan_incremental(trace, "").0);
            for batch in FEEDS {
                let mut armed =
                    SessionScorer::new(&scorer, ScoringMode::Incremental).with_tier_support(4);
                assert_eq!(armed.tier(), ScoringTier::Full);
                let mut got = feed(&mut armed, &scorer, trace, batch);
                got.extend(armed.finalize(&scorer, ""));
                assert_eq!(
                    expected,
                    format!("{got:?}"),
                    "trace {i}, batch {batch}: full tier must not perturb the baseline"
                );
            }
        }
    }

    #[test]
    fn spot_tier_skips_provably_normal_windows_and_carries_the_verdict() {
        for batch in FEEDS {
            let registry = Registry::new();
            let scorer = WindowScorer::new(Arc::new(cyclic_profile())).with_registry(&registry);
            let mut state =
                SessionScorer::new(&scorer, ScoringMode::Incremental).with_tier_support(4);
            state.assign_tier(ScoringTier::SpotCheck);
            assert_eq!(state.carried_verdict(), None, "no window emitted yet");
            // Four benign cycles: 12 events, 10 windows. Only every fourth
            // check emits (windows 4 and 8); the other eight are Normal —
            // the exact score clears the threshold and no call is out of
            // context — and are skipped.
            let trace = trace_from(&[
                "a", "b", "c_Q7", "a", "b", "c_Q7", "a", "b", "c_Q7", "a", "b", "c_Q7",
            ]);
            let alerts = feed(&mut state, &scorer, &trace, batch);
            assert!(state.finalize(&scorer, "").is_none());
            assert_eq!(alerts.len(), 2, "batch {batch}: every fourth window emits");
            assert!(alerts.iter().all(|a| a.flag == Flag::Normal));
            assert_eq!(state.carried_verdict(), Some(Flag::Normal));
            let snap = registry.snapshot();
            assert_eq!(snap.counter("monitor.tier.spot.windows"), Some(2));
            assert_eq!(snap.counter("monitor.tier.spot.skipped"), Some(8));
            assert_eq!(snap.counter("monitor.tier.escalations"), Some(0));
        }
    }

    #[test]
    fn spot_tier_alarm_escalates_back_to_full_and_pins() {
        for batch in FEEDS {
            let registry = Registry::new();
            let scorer = WindowScorer::new(Arc::new(cyclic_profile())).with_registry(&registry);
            let mut state =
                SessionScorer::new(&scorer, ScoringMode::Incremental).with_tier_support(4);
            state.assign_tier(ScoringTier::SpotCheck);
            assert_eq!(state.tier(), ScoringTier::SpotCheck);
            // The exfiltration call is out of context, so SpotCheck cannot
            // skip its window: it alarms and the session escalates itself
            // back to full scoring, emitting exactly the unarmed alerts.
            let attack = trace_from(&["a", "evil_exfil", "c_Q7", "a"]);
            let mut alerts = feed(&mut state, &scorer, &attack, batch);
            alerts.extend(state.finalize(&scorer, ""));
            assert_eq!(
                format!("{alerts:?}"),
                format!("{:?}", scorer.scan_incremental(&attack, "").0),
                "batch {batch}"
            );
            assert!(alerts.iter().any(Alert::is_alarm));
            assert_eq!(state.escalations(), 1);
            assert_eq!(state.tier(), ScoringTier::Full);
            // An alarmed session is pinned: a later demotion is a no-op.
            state.assign_tier(ScoringTier::SpotCheck);
            assert_eq!(state.tier(), ScoringTier::Full);
            let snap = registry.snapshot();
            assert_eq!(snap.counter("monitor.tier.escalations"), Some(1));
            // Every alarm carries a tier stamp, in emit order.
            let stamps = state.take_tier_stamps();
            assert_eq!(stamps.len(), alerts.iter().filter(|a| a.is_alarm()).count());
            assert_eq!(stamps[0].tier, ScoringTier::SpotCheck);
            assert_eq!(
                stamps[0].escalation.as_deref(),
                Some("alarm raised below full tier")
            );
            assert!(state.take_tier_stamps().is_empty(), "drained means drained");
        }
    }

    #[test]
    fn window_memo_agrees_with_a_std_map_through_growth() {
        // 15-symbol keys over two- and three-symbol alphabets, some
        // repeated: every lookup and insert must agree with a std map.
        let mut memo = WindowMemo::default();
        let mut reference = std::collections::HashMap::new();
        let mut x = 7u64;
        for i in 0..5_000 {
            let key: Vec<u16> = (0..15)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    ((x >> 33) % if i % 2 == 0 { 3 } else { 2 }) as u16
                })
                .collect();
            assert_eq!(memo.get(&key), reference.get(&key).copied());
            let (entry, new) = memo.insert(&key, f64::from(i));
            assert_eq!(new, !reference.contains_key(&key));
            reference.entry(key.clone()).or_insert(f64::from(i));
            assert_eq!(memo.get(&key), Some(reference[&key]));
            assert_eq!(memo.entries().nth(entry).map(|(k, _)| k), Some(&key[..]));
        }
        assert_eq!(memo.len(), reference.len());
        assert!(memo.len() < 5_000, "the stream repeats keys");
        for (key, score) in memo.entries() {
            assert_eq!(reference[key], score);
        }
        // A key of another length is never a hit.
        assert_eq!(memo.get(&[0; 14]), None);
    }
}
