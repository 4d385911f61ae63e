//! Layer 3 of the detection stack: the session-multiplexed monitor.
//!
//! One deployed monitor watches many applications at once. Their
//! collectors feed a single interleaved stream of
//! [`TaggedCall`]s — `(app, session, event)` — and [`MonitorRuntime`]
//! demultiplexes it into per-session [`SessionScorer`]s, resolving each
//! session's profile through the [`ProfileRegistry`] (Layer 2) and scoring
//! through the shared [`WindowScorer`] core (Layer 1).
//!
//! Guarantees, in decreasing order of importance:
//!
//! * **Interleaving-independence.** A session's alerts depend only on its
//!   own events, in its own order — any interleaving of the stream yields
//!   the alerts of scanning the de-interleaved trace with
//!   [`DetectionEngine::scan`](crate::detect::DetectionEngine) (exact
//!   mode) or `scan_incremental` (incremental mode), bit for bit.
//! * **Epoch pinning.** A session scores every window against the profile
//!   epoch that was current at its first event. A mid-stream hot-swap
//!   ([`ProfileRegistry::register`]) affects only sessions opened after
//!   it; `monitor.epoch_pins` counts events that kept scoring on a
//!   superseded epoch.
//! * **Determinism.** Reports come back in session arrival order, audit
//!   records are written serially at deterministic stream positions, and
//!   eviction decisions depend on logical event ticks — never on thread
//!   count, wall-clock time, or scheduling. Worker panics are caught and
//!   retried per session batch; a retried panic cannot duplicate audit
//!   records (writes happen only at serial commit). The exact-mode
//!   window-score memo follows the same rule: workers read it as it
//!   stood at flush start, and only the serial commit adds to it.
//! * **Bounded memory.** The session table holds at most
//!   [`RuntimeConfig::max_sessions`] live sessions (admitting a new one
//!   evicts the least-recently-active) and at most
//!   [`RuntimeConfig::queue_capacity`] buffered events (hitting the bound
//!   flushes the scoring pool — backpressure, not growth). Sessions idle
//!   for [`RuntimeConfig::idle_timeout`] ticks are finalized at flush
//!   boundaries. The window-score memos hold at most 16,384 entries in
//!   all.

use crate::detect::{Alert, Flag};
use crate::registry::ProfileRegistry;
use crate::resilience::{sites, FailPoint, FaultInjector, FaultKind, Health, RetryPolicy};
use crate::scorer::{
    ForensicsConfig, KernelStatus, MemoDelta, ScoringMode, ScoringTier, SessionScorer, TierStamp,
    WindowEvent, WindowMemo, WindowScorer,
};
use crate::telemetry::{audit_record_from_alert, DetectMetrics, MonitorMetrics, ResilienceMetrics};
use crate::wire::WireRecord;
use adprom_obs::{AuditLog, ForensicReport, Registry, SpanContext, Tracer};
use adprom_trace::TaggedCall;
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// FNV-1a for the live-session index: two short-string lookups per
/// ingested event, where SipHash's per-hash setup dominates. Collision
/// quality is irrelevant at this scale (hundreds of live sessions).
/// Streaming: writing a key in pieces hashes exactly like writing it
/// whole, which is how [`shard_for`](crate::shard::shard_for) hashes
/// `app ‖ 0xFF ‖ session` without building the key.
#[derive(Debug)]
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv>>;

/// FNV-1a over `bytes` — the same hash the live-session index uses.
/// [`ShardedMonitor`](crate::shard::ShardedMonitor) partitions sessions
/// with it so routing and the in-shard index agree on one cheap function.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// What replaying one session's buffered batch produced: the advanced
/// scorer state, its window alerts and the window scores it adds to its
/// epoch's memo — or the (caught) panic message.
type ReplayOutcome = Result<(SessionScorer, Vec<Alert>, MemoDelta), String>;

/// Window-score memo entries a runtime keeps over all its epochs (about
/// 1.2 MiB of keys, scores and slots at n = 15). A commit whose merge
/// would pass it clears every memo first.
const MEMO_CAP: usize = 1 << 14;

/// One pinned `(app, epoch)`: the prototype scorer its sessions clone
/// (`Arc` bumps) and its exact window-score memo.
#[derive(Debug)]
struct EpochScoring {
    scorer: WindowScorer,
    memo: WindowMemo,
}

/// What the ingest boundary does with an event that arrives while the
/// bounded queue ([`OverloadConfig::capacity`]) is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Flush synchronously, then admit the event: the caller stalls for
    /// one flush (the explicit backpressure signal,
    /// `monitor.backpressure.flushes`) and no event is ever lost.
    #[default]
    Backpressure,
    /// Shed the incoming event (`monitor.shed.events`) when its session
    /// is currently demoted below the full tier and the event itself is
    /// benign (not out-of-context, not DDG-labeled). Protected sessions —
    /// unarmed, full-tier, alarmed — and dangerous events always fall
    /// back to the backpressure flush, so a shed can never remove the
    /// fact that would have flagged a window by itself.
    DropNewest,
}

/// Overload-control knobs of the [`MonitorRuntime`]: the hard ingest
/// bound with its shed policy, and the risk-budget tier scheduler.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Hard buffered-event bound, enforced *before* buffering: an event
    /// arriving with `capacity` events already pending takes the
    /// [`ShedPolicy`] path, so `pending()` never exceeds it (`0` = no
    /// hard bound; the soft [`RuntimeConfig::queue_capacity`] flush
    /// still applies).
    pub capacity: usize,
    /// What happens to an event that hits the bound.
    pub shed_policy: ShedPolicy,
    /// Events the monitor can afford to full-score per flush. `0`
    /// disarms the tier ladder (every session stays on the unconstrained
    /// path); otherwise each flush re-assigns every working session a
    /// [`ScoringTier`] so the highest-risk sessions spend the budget.
    /// Only meaningful in [`ScoringMode::Incremental`] — exact mode
    /// scores and emits a flush's windows in batched passes.
    pub budget: usize,
    /// Spot-check cadence: a spot-tier session emits every
    /// `spot_every`-th window (values below 1 behave as 1; danger
    /// windows always emit regardless).
    pub spot_every: u32,
}

impl Default for OverloadConfig {
    fn default() -> OverloadConfig {
        OverloadConfig {
            capacity: 0,
            shed_policy: ShedPolicy::Backpressure,
            budget: 0,
            spot_every: 4,
        }
    }
}

/// What the ingest boundary did with one event — the backpressure
/// signal a collector can react to (slow down, buffer upstream, or
/// account for the shed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestStatus {
    /// Buffered normally.
    Admitted,
    /// Buffered, but only after a forced synchronous flush — the queue
    /// was at capacity and the caller paid the flush latency.
    Backpressured,
    /// Dropped by [`ShedPolicy::DropNewest`] at capacity.
    Shed,
    /// Dropped because the app has no registered profile.
    UnknownApp,
}

/// Knobs of the [`MonitorRuntime`]. Defaults suit tests and moderate
/// deployments; production monitors size `max_sessions` to their memory
/// budget and `queue_capacity` to their flush latency target.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// How per-session windows are scored (exact π-anchored recompute, or
    /// the incremental sliding recurrence).
    pub mode: ScoringMode,
    /// Live-session bound; admitting a session beyond it evicts the
    /// least-recently-active one (`0` = unbounded).
    pub max_sessions: usize,
    /// Sessions with no event for this many ingested-event ticks are
    /// finalized at the next flush boundary (`0` = never).
    pub idle_timeout: u64,
    /// Buffered-event bound; reaching it triggers a flush through the
    /// scoring pool (`0` = flush only on [`MonitorRuntime::flush`] /
    /// [`MonitorRuntime::finish`]).
    pub queue_capacity: usize,
    /// Overload control: the hard ingest bound, shed policy, and the
    /// risk-budget tier scheduler (disarmed by default).
    pub overload: OverloadConfig,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            mode: ScoringMode::ExactWindows,
            max_sessions: 4096,
            idle_timeout: 0,
            queue_capacity: 1024,
            overload: OverloadConfig::default(),
        }
    }
}

/// Why a session's report was closed out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEnd {
    /// Closed by [`MonitorRuntime::finish`] — the stream ended.
    Finished,
    /// Finalized by the idle timeout.
    IdleEvicted,
    /// Finalized to admit another session (capacity bound, or an injected
    /// session-table-pressure fault).
    PressureEvicted,
    /// Scoring failed every retry; the session carries the alerts
    /// committed before the failure.
    Failed(String),
}

/// The monitoring outcome of one session: identity, the profile epoch it
/// was pinned to, its alerts, and how it ended. [`MonitorRuntime::finish`]
/// returns reports in session arrival order.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Application id.
    pub app: String,
    /// Session id (unique within the app while live; a session reopened
    /// after eviction produces a second report).
    pub session: String,
    /// Arrival index: the order sessions first appeared on the stream.
    pub arrival: usize,
    /// The profile epoch every window of this session was scored against.
    pub epoch: u64,
    /// Requested/effective kernel of that epoch.
    pub kernel: KernelStatus,
    /// Events this session contributed to the stream.
    pub events: usize,
    /// One alert per scored window, in window order.
    pub alerts: Vec<Alert>,
    /// Highest-severity flag across the alerts.
    pub verdict: Flag,
    /// How the session closed.
    pub end: SessionEnd,
    /// The scoring tier in force when the session closed
    /// ([`ScoringTier::Full`] when the ladder was disarmed).
    pub tier: ScoringTier,
    /// Every tier the risk scheduler assigned this session, in flush
    /// order (empty when the ladder was disarmed) — the determinism
    /// proptest compares these bit for bit across thread counts.
    pub tiers: Vec<ScoringTier>,
    /// Self-escalations back to the full tier the session took.
    pub escalations: u32,
}

impl SessionReport {
    /// The non-Normal alerts.
    pub fn alarms(&self) -> impl Iterator<Item = &Alert> {
        self.alerts.iter().filter(|a| a.is_alarm())
    }
}

/// Per-session state while the session is live (and its report material
/// after it closes). Slots are append-only — `arrival` indexes into the
/// runtime's slot table forever, which is what keeps fail-point keys and
/// report order stable under eviction.
#[derive(Debug)]
struct SessionSlot {
    app: String,
    session: String,
    arrival: usize,
    epoch: u64,
    /// Index of the pinned epoch in the runtime's `epochs` (its memo).
    scoring: usize,
    /// Epoch-shared scorer (profile + CSR via `Arc`; audit deliberately
    /// unset — the runtime audits serially at commit).
    scorer: WindowScorer,
    state: SessionScorer,
    /// Events buffered since the last flush, digested at ingest against
    /// the pinned epoch's profile (clones are `Arc` bumps, so a retried
    /// replay re-reads them for free).
    pending: Vec<WindowEvent>,
    alerts: Vec<Alert>,
    events: usize,
    last_touch: u64,
    end: Option<SessionEnd>,
    /// Scheduler assignment history, one entry per flush that worked
    /// this session (empty while the tier ladder is disarmed).
    tiers: Vec<ScoringTier>,
}

/// The session-multiplexed monitor. Feed it an interleaved stream with
/// [`MonitorRuntime::ingest`] / [`MonitorRuntime::ingest_stream`], then
/// collect per-session reports with [`MonitorRuntime::finish`].
#[derive(Debug)]
pub struct MonitorRuntime {
    profiles: Arc<ProfileRegistry>,
    config: RuntimeConfig,
    slots: Vec<SessionSlot>,
    /// app → session → slot index, live sessions only. Nested so the
    /// per-event lookup borrows `&str` keys and never allocates.
    live: FnvMap<String, FnvMap<String, usize>>,
    /// `(app, epoch)` → its index in `epochs`, resolved once per session
    /// at admission.
    scorers: HashMap<(String, u64), usize>,
    /// Per pinned epoch: the prototype scorer and the exact window-score
    /// memo. Workers read a memo as it stood at flush start; only the
    /// serial commit writes it, so its contents, its hit/miss counts and
    /// every verdict are the same at any thread count.
    epochs: Vec<EpochScoring>,
    /// Entries over every memo in `epochs` (at most [`MEMO_CAP`]).
    memo_entries: usize,
    /// Logical clock: events ingested so far.
    tick: u64,
    /// Buffered events across all live sessions.
    pending_total: usize,
    metrics: MonitorMetrics,
    detect_metrics: DetectMetrics,
    res_metrics: ResilienceMetrics,
    audit: Option<Arc<AuditLog>>,
    pool: Option<ThreadPool>,
    retry: RetryPolicy,
    /// Flight-recorder knobs; `None` leaves forensics off (the default).
    forensics: Option<ForensicsConfig>,
    /// Span tracer for end-to-end pipeline tracing (disabled by default:
    /// one branch per stage).
    tracer: Tracer,
    /// Monotonic flush-batch id, stamped on score/commit/audit span
    /// contexts (0 until the first non-empty flush).
    flush_seq: u64,
    /// Shard index stamped on every span context this runtime opens (0
    /// for an unsharded monitor; set by
    /// [`ShardedMonitor`](crate::shard::ShardedMonitor)).
    shard_id: u32,
    /// Fail point `monitor.swap_mid_stream`: panic a flush worker, keyed
    /// by session arrival — proves a retry keeps scoring on the pinned
    /// epoch.
    fault_swap: FailPoint,
    /// Fail point `monitor.session_pressure`: force-evict the LRU session,
    /// keyed by ingest tick — simulates the capacity bound biting.
    fault_pressure: FailPoint,
    /// Fail point `monitor.queue_overflow`: treat the bounded ingest
    /// queue as full for the keyed tick — exercises the backpressure /
    /// shed path without actually filling the queue.
    fault_overflow: FailPoint,
    /// True while inside an overload episode (pending work above the
    /// risk budget) — edges, not levels, drive health raises and the
    /// `monitor.overload.episodes` counter.
    overload_episode: bool,
}

impl MonitorRuntime {
    /// A runtime resolving profiles through `profiles`, with the default
    /// [`RuntimeConfig`].
    pub fn new(profiles: Arc<ProfileRegistry>) -> MonitorRuntime {
        MonitorRuntime {
            profiles,
            config: RuntimeConfig::default(),
            slots: Vec::new(),
            live: FnvMap::default(),
            scorers: HashMap::new(),
            epochs: Vec::new(),
            memo_entries: 0,
            tick: 0,
            pending_total: 0,
            metrics: MonitorMetrics::disabled(),
            detect_metrics: DetectMetrics::disabled(),
            res_metrics: ResilienceMetrics::disabled(),
            audit: None,
            pool: None,
            retry: RetryPolicy::default(),
            forensics: None,
            tracer: Tracer::disabled(),
            flush_seq: 0,
            shard_id: 0,
            fault_swap: FailPoint::disabled(),
            fault_pressure: FailPoint::disabled(),
            fault_overflow: FailPoint::disabled(),
            overload_episode: false,
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: RuntimeConfig) -> MonitorRuntime {
        self.config = config;
        self
    }

    /// Registers metric handles (`monitor.*`, the per-window `detect.*`
    /// family, and `resilience.*`) against `registry`.
    pub fn with_registry(mut self, registry: &Registry) -> MonitorRuntime {
        self.metrics = MonitorMetrics::from_registry(registry);
        self.detect_metrics = DetectMetrics::from_registry(registry);
        self.res_metrics = ResilienceMetrics::from_registry(registry);
        self
    }

    /// Routes every alarm to `audit`, each record stamped with the
    /// session's app id and pinned profile epoch. Records are written
    /// serially at commit points, so sequence numbers are deterministic at
    /// any thread count and under retry.
    pub fn with_audit(mut self, audit: Arc<AuditLog>) -> MonitorRuntime {
        self.audit = Some(audit);
        self
    }

    /// Arms a flight recorder on every session: each scored window's
    /// score/threshold/delta/flag lands in a bounded per-session ring, and
    /// every alarm's audit record carries a
    /// [`ForensicReport`] — the window's top-k most-deviant call
    /// transitions (exact factors of the forward recursion that scores
    /// it) plus the session's recent window-score series. Reports are
    /// drained at the serial commit point, so — like verdicts and audit
    /// sequence numbers — they are bit-identical at any thread count.
    pub fn with_forensics(mut self, config: ForensicsConfig) -> MonitorRuntime {
        self.forensics = Some(config);
        self
    }

    /// Traces the pipeline end to end: ingest, flush, per-session score,
    /// commit, and audit stages open spans carrying a [`SpanContext`]
    /// (app, session, pinned epoch, flush batch id), so one session's path
    /// through the runtime can be reassembled from the span stream.
    /// Ingest spans carry epoch 0 (the session's epoch is resolved at
    /// admission, after the span opens).
    pub fn with_tracer(mut self, tracer: Tracer) -> MonitorRuntime {
        self.tracer = tracer;
        self
    }

    /// Scores each flush's sessions on `threads` participants (`0`
    /// restores the process default, `available_parallelism()` unless
    /// `RAYON_NUM_THREADS` is set): the flushing thread plus `threads − 1`
    /// helpers queued on the process's resident rayon workers, each taking
    /// the next unscored session until none is left, so a flush ends when
    /// its work does. The workers number `available_parallelism()` whatever
    /// `threads` is, so no call starts a thread; verdicts, memo counts and
    /// audit sequence numbers are the same at every `threads`.
    pub fn with_threads(mut self, threads: usize) -> MonitorRuntime {
        self.pool = (threads > 0).then(|| {
            ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool builds")
        });
        self
    }

    /// Stamps `shard` on every span context this runtime opens, so a
    /// sharded service's stage histograms can be filtered per shard.
    pub fn with_shard_id(mut self, shard: u32) -> MonitorRuntime {
        self.shard_id = shard;
        self
    }

    /// Replaces the per-session-batch retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> MonitorRuntime {
        self.retry = retry;
        self
    }

    /// Arms the runtime's fail points from an injector
    /// ([`sites::MONITOR_SWAP`], [`sites::MONITOR_PRESSURE`],
    /// [`sites::MONITOR_QUEUE_OVERFLOW`]).
    pub fn with_faults(mut self, injector: &FaultInjector) -> MonitorRuntime {
        self.fault_swap = injector.point(sites::MONITOR_SWAP);
        self.fault_pressure = injector.point(sites::MONITOR_PRESSURE);
        self.fault_overflow = injector.point(sites::MONITOR_QUEUE_OVERFLOW);
        self
    }

    /// Live sessions currently in the table.
    pub fn sessions_active(&self) -> usize {
        self.live.values().map(HashMap::len).sum()
    }

    /// Events buffered and not yet flushed through the scoring pool.
    pub fn pending(&self) -> usize {
        self.pending_total
    }

    /// The configuration in force.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Ingests one tagged event and reports what the boundary did with it
    /// — the explicit backpressure signal. Serial by design: admission,
    /// eviction, and backpressure decisions happen here, on the logical
    /// event clock, so they replay identically at any thread count.
    pub fn ingest(&mut self, tagged: &TaggedCall) -> IngestStatus {
        self.ingest_record(&WireRecord::from(tagged))
    }

    /// [`MonitorRuntime::ingest`] over a borrowed record — the one
    /// per-record core behind pre-tagged and framed ingest alike.
    pub(crate) fn ingest_record(&mut self, record: &WireRecord<'_>) -> IngestStatus {
        self.metrics.events.inc();
        // The span borrows a clone of the tracer so the guard can outlive
        // the `&mut self` call it times. Built only when tracing is on.
        let tracer = self.tracer.is_enabled().then(|| self.tracer.clone());
        let _span = tracer.as_ref().map(|t| {
            t.enter_with(
                "monitor/ingest",
                SpanContext {
                    app: record.app.to_string(),
                    session: record.session.to_string(),
                    epoch: 0,
                    batch: self.flush_seq,
                    shard: self.shard_id,
                },
            )
        });
        self.ingest_inner(record)
    }

    /// The per-event hot path, with counter updates hoisted out so
    /// [`MonitorRuntime::ingest_stream`] pays for them once per stream
    /// rather than once per event.
    fn ingest_inner(&mut self, record: &WireRecord<'_>) -> IngestStatus {
        let timer = self.metrics.stage_ingest_ns.is_enabled().then(Instant::now);
        let status = self.ingest_event(record);
        if let Some(t0) = timer {
            self.metrics
                .stage_ingest_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        // High-water mark, recorded before the soft-capacity flush drains
        // it — a last-write-wins snapshot here would hide every spike.
        self.metrics
            .queue_depth
            .record_max(self.pending_total as i64);
        if self.config.queue_capacity > 0 && self.pending_total >= self.config.queue_capacity {
            self.flush();
        }
        status
    }

    /// Ingest bookkeeping proper: admission, eviction, digestion,
    /// buffering, and the hard queue bound — everything except the
    /// backpressure flush itself (excluded from `monitor.stage.ingest_ns`
    /// so the histogram measures ingest, not a whole flush that happened
    /// to trigger here).
    fn ingest_event(&mut self, record: &WireRecord<'_>) -> IngestStatus {
        self.tick += 1;
        if matches!(
            self.fault_pressure.fire(self.tick),
            Some(FaultKind::EvictSession)
        ) {
            if let Some(victim) = self.lru_candidate() {
                self.evict(victim, SessionEnd::PressureEvicted);
            }
        }
        let idx = match self
            .live
            .get(record.app)
            .and_then(|sessions| sessions.get(record.session))
        {
            Some(&idx) => idx,
            None => match self.open_session(record.app, record.session) {
                Some(idx) => idx,
                None => {
                    // No profile registered for this app: the event cannot
                    // be scored. Drop it, visibly.
                    self.metrics.unknown_app.inc();
                    return IngestStatus::UnknownApp;
                }
            },
        };
        // The hard bound is checked *before* buffering, so `pending()`
        // never exceeds `OverloadConfig.capacity` — not even transiently.
        let capacity = self.config.overload.capacity;
        let full = (capacity > 0 && self.pending_total >= capacity)
            || matches!(
                self.fault_overflow.fire(self.tick),
                Some(FaultKind::QueueOverflow)
            );
        let mut status = IngestStatus::Admitted;
        let fact = self.slots[idx].scorer.digest(record.name, record.caller);
        if full {
            if self.config.overload.shed_policy == ShedPolicy::DropNewest
                && !self.protected(idx)
                && !fact.is_dangerous()
            {
                // Shed: the event arrived (it counts and keeps the
                // session warm) but is never scored.
                let slot = &mut self.slots[idx];
                slot.events += 1;
                slot.last_touch = self.tick;
                self.metrics.shed_events.inc();
                return IngestStatus::Shed;
            }
            self.metrics.backpressure_flushes.inc();
            self.flush();
            status = IngestStatus::Backpressured;
        }
        let slot = &mut self.slots[idx];
        slot.pending.push(fact);
        slot.events += 1;
        slot.last_touch = self.tick;
        self.pending_total += 1;
        status
    }

    /// Sessions the shed policy may never drop events from: unarmed
    /// sessions (no tier ladder bounds the loss) and sessions holding the
    /// full tier — the floor class of alarmed and brand-new sessions.
    fn protected(&self, idx: usize) -> bool {
        let state = &self.slots[idx].state;
        !state.tier_armed() || state.tier() == ScoringTier::Full
    }

    /// Ingests a whole stream in order. Equivalent to calling
    /// [`MonitorRuntime::ingest`] per event, but the `monitor.events`
    /// counter settles once at the end of the stream instead of ticking
    /// per event.
    pub fn ingest_stream(&mut self, stream: &[TaggedCall]) {
        self.metrics.events.add(stream.len() as u64);
        for tagged in stream {
            self.ingest_inner(&WireRecord::from(tagged));
        }
    }

    /// Scores every buffered event: idle sessions are finalized first,
    /// then the remaining per-session batches replay across the pool
    /// (each into a clone of its session state, committed serially in
    /// arrival order on success — a retried panic never double-pushes and
    /// never reorders the audit log).
    pub fn flush(&mut self) {
        if self.config.idle_timeout > 0 {
            let mut idle: Vec<usize> = self
                .live
                .values()
                .flat_map(HashMap::values)
                .copied()
                .filter(|&i| {
                    self.tick.saturating_sub(self.slots[i].last_touch) >= self.config.idle_timeout
                })
                .collect();
            idle.sort_unstable();
            for idx in idle {
                self.evict(idx, SessionEnd::IdleEvicted);
            }
        }
        let mut work: Vec<usize> = self
            .live
            .values()
            .flat_map(HashMap::values)
            .copied()
            .filter(|&i| !self.slots[i].pending.is_empty())
            .collect();
        work.sort_unstable();
        if work.is_empty() {
            return;
        }
        self.metrics.flushes.inc();
        self.flush_seq += 1;
        self.metrics.flush_batch_sessions.set(work.len() as i64);
        self.assign_tiers(&work);
        // One registry read per app per flush, not per session.
        let mut epochs: HashMap<&str, u64> = HashMap::new();
        for &idx in &work {
            let slot = &self.slots[idx];
            let current = *epochs.entry(slot.app.as_str()).or_insert_with(|| {
                self.profiles
                    .current(&slot.app)
                    .map(|e| e.epoch())
                    .unwrap_or(0)
            });
            if current > slot.epoch {
                self.metrics.epoch_pins.add(slot.pending.len() as u64);
            }
        }
        let this = &*self;
        // A one-worker pool (or a single batch) gains nothing from the
        // rayon round-trip; replay inline and skip the cross-thread hop.
        let single = work.len() == 1
            || match &self.pool {
                Some(pool) => pool.current_num_threads() <= 1,
                None => rayon::current_num_threads() <= 1,
            };
        let outcomes: Vec<(usize, ReplayOutcome)> = {
            // The flush span covers the scoring fan-out; the serial commit
            // loop below opens its own per-session spans.
            let _span = self.tracer.is_enabled().then(|| {
                self.tracer.enter_with(
                    "monitor/flush",
                    SpanContext {
                        batch: self.flush_seq,
                        shard: self.shard_id,
                        ..SpanContext::default()
                    },
                )
            });
            if single {
                work.iter()
                    .map(|&idx| (idx, this.replay_guarded(idx)))
                    .collect()
            } else {
                this.run(|| {
                    work.par_iter()
                        .map(|&idx| (idx, this.replay_guarded(idx)))
                        .collect()
                })
            }
        };
        // Commit serially, in arrival order (`work` is sorted and the
        // pipeline preserves it).
        for (idx, outcome) in outcomes {
            self.commit(idx, outcome);
        }
    }

    /// The risk-budget scheduler: re-evaluates every working session's
    /// scoring tier at the serial flush boundary — on the ingest clock,
    /// never inside a worker — so assignments are bit-identical at any
    /// thread count. No-op while the ladder is disarmed (`budget == 0`)
    /// or outside incremental mode.
    ///
    /// Risk has three inputs (after Grushka-Cohen et al.: allocate the
    /// scoring budget by per-session risk, not uniformly):
    ///
    /// * the **floor class** holds the full tier unconditionally —
    ///   sessions that already alarmed (a self-escalation is always an
    ///   alarm), sessions still inside their first window (the
    ///   new-session prior: an unknown session is assumed risky), and
    ///   sessions of an app whose
    ///   [`HealthMonitor`](crate::resilience::HealthMonitor) is already
    ///   at or above [`Health::Degraded`];
    /// * everything else ranks by **margin** — last emitted score minus
    ///   threshold, ascending, ties by arrival — so sessions scoring
    ///   closest to the threshold get scrutinized first;
    /// * the **budget walk**: full tier while cumulative pending events
    ///   fit the budget, spot-check after that. When total pending fits
    ///   the budget everyone lands back at full — recovery lowers the
    ///   ladder automatically.
    ///
    /// Crossing into overload (total pending above budget) degrades the
    /// health of every app in the batch once per episode, in sorted app
    /// order; draining back under budget closes the episode.
    fn assign_tiers(&mut self, work: &[usize]) {
        let budget = self.config.overload.budget;
        if budget == 0 || self.config.mode != ScoringMode::Incremental {
            return;
        }
        let mut spent = 0usize;
        let mut ranked: Vec<(u8, f64, usize)> = Vec::with_capacity(work.len());
        for &idx in work {
            let slot = &self.slots[idx];
            let window = slot.scorer.profile().window;
            let degraded = self
                .profiles
                .health(&slot.app)
                .is_some_and(|h| h.state() >= Health::Degraded);
            let floor = slot.state.has_alarmed() || slot.state.seen() < window;
            if floor {
                spent += slot.pending.len();
                self.set_tier(idx, ScoringTier::Full);
            } else {
                // Degraded-app sessions rank ahead of healthy ones at
                // equal margin: the app is already absorbing faults, so
                // its sessions get the benefit of full scoring first.
                ranked.push((u8::from(!degraded), slot.state.risk_margin(), idx));
            }
        }
        ranked.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
                .then(self.slots[a.2].arrival.cmp(&self.slots[b.2].arrival))
        });
        for &(_, _, idx) in &ranked {
            let cost = self.slots[idx].pending.len();
            let tier = if spent + cost <= budget {
                spent += cost;
                ScoringTier::Full
            } else {
                ScoringTier::SpotCheck
            };
            self.set_tier(idx, tier);
        }
        let total: usize = work.iter().map(|&i| self.slots[i].pending.len()).sum();
        let overloaded = total > budget;
        // The gauge moves by ±1 on episode edges (never `set`), so shards
        // sharing one registry sum to the number currently overloaded.
        if overloaded && !self.overload_episode {
            self.overload_episode = true;
            self.metrics.overload_active.add(1);
            self.metrics.overload_episodes.inc();
            // Sorted app order: FnvMap iteration must never order an
            // externally visible effect.
            let mut apps: Vec<&str> = work.iter().map(|&i| self.slots[i].app.as_str()).collect();
            apps.sort_unstable();
            apps.dedup();
            for app in apps {
                if let Some(health) = self.profiles.health(app) {
                    health.degrade(&format!(
                        "ingest overload: {total} pending events exceed scoring budget {budget}"
                    ));
                }
            }
        } else if !overloaded && self.overload_episode {
            self.overload_episode = false;
            self.metrics.overload_active.add(-1);
        }
    }

    /// Applies one scheduler decision: the session may override a
    /// demotion (alarmed sessions are pinned at full — the starvation
    /// floor), so the recorded history carries the tier actually in
    /// force.
    fn set_tier(&mut self, idx: usize, tier: ScoringTier) {
        let slot = &mut self.slots[idx];
        slot.state.assign_tier(tier);
        let assigned = slot.state.tier();
        slot.tiers.push(assigned);
        match assigned {
            ScoringTier::Full => self.metrics.tier_full_assigned.inc(),
            ScoringTier::SpotCheck => self.metrics.tier_spot_assigned.inc(),
        }
    }

    /// Closes the stream: flushes everything buffered, finalizes every
    /// live session, and returns one report per session slot, in arrival
    /// order — evicted and failed sessions included, with their `end`
    /// reason.
    pub fn finish(mut self) -> Vec<SessionReport> {
        self.flush();
        let mut live: Vec<usize> = self
            .live
            .values()
            .flat_map(HashMap::values)
            .copied()
            .collect();
        live.sort_unstable();
        for idx in live {
            if self.slots[idx].end.is_none() {
                self.close_slot(idx, SessionEnd::Finished);
            }
        }
        // `monitor.queue.depth` is a run-lifetime high-water mark now —
        // finishing must not erase it.
        self.slots
            .into_iter()
            .map(|slot| {
                let verdict = slot
                    .alerts
                    .iter()
                    .map(|a| a.flag)
                    .max()
                    .unwrap_or(Flag::Normal);
                SessionReport {
                    app: slot.app,
                    session: slot.session,
                    arrival: slot.arrival,
                    epoch: slot.epoch,
                    kernel: slot.scorer.status().clone(),
                    events: slot.events,
                    alerts: slot.alerts,
                    verdict,
                    end: slot.end.unwrap_or(SessionEnd::Finished),
                    tier: slot.state.tier(),
                    tiers: slot.tiers,
                    escalations: slot.state.escalations(),
                }
            })
            .collect()
    }

    /// Admits a session: resolves the app's current epoch (pinning it),
    /// evicting the LRU session first if the table is full. `None` when
    /// the app has no registered profile.
    fn open_session(&mut self, app: &str, session: &str) -> Option<usize> {
        let epoch = self.profiles.current(app)?;
        if self.config.max_sessions > 0 && self.sessions_active() >= self.config.max_sessions {
            if let Some(victim) = self.lru_candidate() {
                self.evict(victim, SessionEnd::PressureEvicted);
            }
        }
        let epochs = &mut self.epochs;
        let scoring = *self
            .scorers
            .entry((app.to_string(), epoch.epoch()))
            .or_insert_with(|| {
                epochs.push(EpochScoring {
                    scorer: epoch.scorer().with_metrics(self.detect_metrics.clone()),
                    memo: WindowMemo::default(),
                });
                epochs.len() - 1
            });
        let scorer = self.epochs[scoring].scorer.clone();
        let mut state = SessionScorer::new(&scorer, self.config.mode);
        if self.config.overload.budget > 0 {
            state = state.with_tier_support(self.config.overload.spot_every);
        }
        if let Some(config) = self.forensics {
            state = state.with_forensics(config);
        }
        let arrival = self.slots.len();
        self.slots.push(SessionSlot {
            app: app.to_string(),
            session: session.to_string(),
            arrival,
            epoch: epoch.epoch(),
            scoring,
            scorer,
            state,
            pending: Vec::new(),
            alerts: Vec::new(),
            events: 0,
            last_touch: self.tick,
            end: None,
            tiers: Vec::new(),
        });
        self.live
            .entry(app.to_string())
            .or_default()
            .insert(session.to_string(), arrival);
        self.metrics.sessions_opened.inc();
        // Deltas, not `set`: shards sharing one registry sum to the total.
        self.metrics.sessions_active.add(1);
        Some(arrival)
    }

    /// The least-recently-active live session (ties broken by arrival).
    fn lru_candidate(&self) -> Option<usize> {
        self.live
            .values()
            .flat_map(HashMap::values)
            .copied()
            .min_by_key(|&i| (self.slots[i].last_touch, self.slots[i].arrival))
    }

    /// Evicts one session: its buffered events are scored (serially —
    /// evictions happen at deterministic stream positions) and the session
    /// is finalized with `end`.
    fn evict(&mut self, idx: usize, end: SessionEnd) {
        if !self.slots[idx].pending.is_empty() {
            let outcome = self.replay_guarded(idx);
            self.commit(idx, outcome);
        }
        if self.slots[idx].end.is_none() {
            self.close_slot(idx, end);
        }
    }

    /// Replays one session's pending batch into a clone of its state,
    /// under panic isolation and bounded retry (keyed by arrival index, so
    /// an injected fault schedule replays identically at any thread
    /// count). Returns the advanced state, the windows it emitted and the
    /// scores it adds to the epoch memo — a panicked attempt's additions
    /// die with its clone.
    fn replay_guarded(&self, idx: usize) -> ReplayOutcome {
        let slot = &self.slots[idx];
        let memo = &self.epochs[slot.scoring].memo;
        let timer = self.metrics.stage_score_ns.is_enabled().then(Instant::now);
        let _span = self.tracer.is_enabled().then(|| {
            self.tracer.enter_with(
                "monitor/score",
                SpanContext {
                    app: slot.app.clone(),
                    session: slot.session.clone(),
                    epoch: slot.epoch,
                    batch: self.flush_seq,
                    shard: self.shard_id,
                },
            )
        });
        let mut attempts = 0u32;
        let outcome = loop {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if matches!(
                    self.fault_swap.fire(slot.arrival as u64),
                    Some(FaultKind::Panic)
                ) {
                    panic!(
                        "fault-injected panic at {} (session `{}`, arrival {})",
                        sites::MONITOR_SWAP,
                        slot.session,
                        slot.arrival
                    );
                }
                let mut state = slot.state.clone();
                let mut alerts = Vec::with_capacity(slot.pending.len());
                let delta = state.push_facts(
                    &slot.scorer,
                    &slot.pending,
                    &slot.session,
                    &mut alerts,
                    Some(memo),
                );
                (state, alerts, delta)
            }));
            match outcome {
                Ok(done) => {
                    if attempts > 0 {
                        self.res_metrics.traces_recovered.inc();
                        if let Some(health) = self.profiles.health(&slot.app) {
                            health.degrade(&format!(
                                "session `{}` recovered after {attempts} retr{}",
                                slot.session,
                                if attempts == 1 { "y" } else { "ies" }
                            ));
                        }
                    }
                    break Ok(done);
                }
                Err(payload) => {
                    self.res_metrics.worker_panics.inc();
                    let message = panic_message(payload.as_ref());
                    if attempts >= self.retry.max_retries {
                        self.res_metrics.traces_failed.inc();
                        break Err(message);
                    }
                    attempts += 1;
                    self.res_metrics.trace_retries.inc();
                    let backoff = self.retry.backoff * 2u32.saturating_pow(attempts - 1);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
        };
        if let Some(t0) = timer {
            self.metrics
                .stage_score_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        outcome
    }

    /// Applies one replay outcome: on success the advanced state replaces
    /// the slot's, its alerts are recorded (and audited, serially, here —
    /// never inside a worker) and its fresh window scores merge into the
    /// epoch memo; on failure the session closes as `Failed` and its app's
    /// health goes to Failed. Forensic reports are drained here too — from
    /// the advanced state, so a retried panic (whose clone was discarded)
    /// cannot duplicate them — and paired with their alarms in emit order.
    fn commit(&mut self, idx: usize, outcome: ReplayOutcome) {
        let timer = self.metrics.stage_commit_ns.is_enabled().then(Instant::now);
        match outcome {
            Ok((mut state, alerts, delta)) => {
                self.merge_memo(self.slots[idx].scoring, delta);
                let _span = self.tracer.is_enabled().then(|| {
                    let slot = &self.slots[idx];
                    self.tracer.enter_with(
                        "monitor/commit",
                        SpanContext {
                            app: slot.app.clone(),
                            session: slot.session.clone(),
                            epoch: slot.epoch,
                            batch: self.flush_seq,
                            shard: self.shard_id,
                        },
                    )
                });
                let reports = state.take_forensics();
                self.metrics.forensics_reports.add(reports.len() as u64);
                let mut reports = reports.into_iter();
                // Tier stamps are per-alarm in emit order, exactly like
                // forensic reports — drained from the advanced state so a
                // retried panic cannot duplicate them.
                let mut stamps = state.take_tier_stamps().into_iter();
                for alert in &alerts {
                    let (forensics, stamp) = if alert.is_alarm() {
                        (reports.next(), stamps.next())
                    } else {
                        (None, None)
                    };
                    self.audit_alarm(idx, alert, forensics, stamp);
                }
                let slot = &mut self.slots[idx];
                self.pending_total -= slot.pending.len();
                slot.pending.clear();
                slot.state = state;
                slot.alerts.extend(alerts);
            }
            Err(message) => {
                let slot = &mut self.slots[idx];
                self.pending_total -= slot.pending.len();
                slot.pending.clear();
                if let Some(health) = self.profiles.health(&slot.app) {
                    health.fail(&format!(
                        "session `{}` unrecoverable: {message}",
                        slot.session
                    ));
                }
                self.close_slot(idx, SessionEnd::Failed(message));
            }
        }
        if let Some(t0) = timer {
            self.metrics
                .stage_commit_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Folds one committed replay into its epoch's memo — serially, in
    /// arrival order — and counts its hits and misses. A merge that would
    /// take the runtime past [`MEMO_CAP`] entries first clears every memo
    /// (freeing their tables), so memory stays bounded while the working
    /// set re-warms.
    fn merge_memo(&mut self, scoring: usize, delta: MemoDelta) {
        self.metrics.memo_hits.add(delta.hits);
        self.metrics.memo_misses.add(delta.misses);
        if self.memo_entries + delta.fresh.len() > MEMO_CAP {
            for epoch in &mut self.epochs {
                epoch.memo = WindowMemo::default();
            }
            self.memo_entries = 0;
        }
        let memo = &mut self.epochs[scoring].memo;
        for (window, score) in delta.fresh.entries() {
            if self.memo_entries == MEMO_CAP {
                break;
            }
            if memo.insert(window, score).1 {
                self.memo_entries += 1;
            }
        }
    }

    /// Finalizes a session (emitting the short window of a trace that
    /// never filled one, except after a failure) and removes it from the
    /// live table.
    fn close_slot(&mut self, idx: usize, end: SessionEnd) {
        let timer = self
            .metrics
            .stage_finalize_ns
            .is_enabled()
            .then(Instant::now);
        if !matches!(end, SessionEnd::Failed(_)) {
            let finale = {
                let slot = &mut self.slots[idx];
                let scorer = slot.scorer.clone();
                let session = slot.session.clone();
                slot.state.finalize(&scorer, &session)
            };
            if let Some(alert) = finale {
                // Finalize emits at most one window, so at most one report
                // (and one tier stamp) is pending — everything earlier
                // drained at commit.
                let forensics = {
                    let mut reports = self.slots[idx].state.take_forensics();
                    self.metrics.forensics_reports.add(reports.len() as u64);
                    reports.pop()
                };
                let stamp = self.slots[idx].state.take_tier_stamps().pop();
                self.audit_alarm(idx, &alert, forensics, stamp);
                self.slots[idx].alerts.push(alert);
            }
        }
        self.slots[idx].end = Some(end.clone());
        let slot = &self.slots[idx];
        let emptied = match self.live.get_mut(slot.app.as_str()) {
            Some(sessions) => {
                sessions.remove(slot.session.as_str());
                sessions.is_empty()
            }
            None => false,
        };
        if emptied {
            self.live.remove(slot.app.as_str());
        }
        match end {
            SessionEnd::Finished => self.metrics.sessions_finished.inc(),
            SessionEnd::IdleEvicted => self.metrics.evictions_idle.inc(),
            SessionEnd::PressureEvicted => self.metrics.evictions_lru.inc(),
            SessionEnd::Failed(_) => {}
        }
        self.metrics.sessions_active.add(-1);
        // The committed state carries the whole session's sliding
        // accounting; a retried replay's discarded clone never reaches it.
        let stats = slot.state.stats();
        self.metrics.sliding_pushes.add(stats.pushes);
        self.metrics.sliding_reanchors.add(stats.reanchors);
        if let Some(t0) = timer {
            self.metrics
                .stage_finalize_ns
                .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }

    /// Writes one alarm to the audit log, stamped with the session's app
    /// id, pinned epoch, (when the flight recorder is armed) the alarm's
    /// forensic report, and (when the tier ladder is armed) its tier and
    /// escalation provenance.
    fn audit_alarm(
        &self,
        idx: usize,
        alert: &Alert,
        forensics: Option<ForensicReport>,
        stamp: Option<TierStamp>,
    ) {
        let Some(audit) = &self.audit else {
            return;
        };
        if !alert.is_alarm() {
            return;
        }
        let slot = &self.slots[idx];
        let _span = self.tracer.is_enabled().then(|| {
            self.tracer.enter_with(
                "monitor/audit",
                SpanContext {
                    app: slot.app.clone(),
                    session: slot.session.clone(),
                    epoch: slot.epoch,
                    batch: self.flush_seq,
                    shard: self.shard_id,
                },
            )
        });
        let mut record =
            audit_record_from_alert(alert, &slot.session, &slot.scorer.status().effective);
        record.app = slot.app.clone();
        record.epoch = slot.epoch;
        record.forensics = forensics;
        if let Some(stamp) = stamp {
            record.tier = Some(stamp.tier.label().to_string());
            record.escalation = stamp.escalation;
        }
        audit.record(record);
    }

    /// Runs `op` inside the explicit pool when one is configured.
    fn run<R>(&self, op: impl FnOnce() -> R) -> R {
        match &self.pool {
            Some(pool) => pool.install(op),
            None => op(),
        }
    }
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::detect::KernelConfig;
    use crate::profile::Profile;
    use crate::resilience::{FaultPlan, Health, Trigger};
    use adprom_hmm::Hmm;
    use adprom_lang::{CallSiteId, LibCall};
    use adprom_trace::{interleave, CallEvent};
    use std::collections::{BTreeMap, BTreeSet};

    fn quiet_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("fault-injected"));
                if !injected {
                    default(info);
                }
            }));
        });
    }

    fn event(name: &str, caller: &str) -> CallEvent {
        CallEvent {
            name: name.into(),
            call: LibCall::Printf,
            caller: caller.into(),
            site: CallSiteId(0),
            detail: None,
        }
    }

    fn cyclic_profile(app: &str, threshold: f64) -> Profile {
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
            app_name: app.into(),
            alphabet,
            hmm,
            window: 3,
            threshold,
            call_callers,
            labeled_outputs: vec!["c_Q7".to_string()],
        }
    }

    fn trace_of(names: &[&str]) -> Vec<CallEvent> {
        names.iter().map(|n| event(n, "main")).collect()
    }

    fn two_app_registry() -> Arc<ProfileRegistry> {
        let registry = ProfileRegistry::new();
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        registry
            .register("shop", cyclic_profile("shop", -1.0))
            .unwrap();
        Arc::new(registry)
    }

    fn demo_sessions() -> Vec<(String, String, Vec<CallEvent>)> {
        vec![
            (
                "bank".into(),
                "s-0".into(),
                trace_of(&["a", "b", "c_Q7", "a", "b", "c_Q7"]),
            ),
            (
                "bank".into(),
                "s-1".into(),
                trace_of(&["a", "evil_exfil", "c_Q7"]),
            ),
            ("shop".into(), "s-0".into(), trace_of(&["b", "a", "a", "b"])),
            ("shop".into(), "s-7".into(), trace_of(&["a", "b"])),
        ]
    }

    /// Every memo entry as `(app, epoch, window, score bits)`, sorted.
    fn memo_contents(runtime: &MonitorRuntime) -> Vec<(String, u64, Vec<u16>, u64)> {
        let mut rows: Vec<_> = runtime
            .scorers
            .iter()
            .flat_map(|((app, epoch), &i)| {
                runtime.epochs[i]
                    .memo
                    .entries()
                    .map(move |(w, s)| (app.clone(), *epoch, w.to_vec(), s.to_bits()))
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Eight bank sessions re-issuing the same calls: every window recurs
    /// across sessions, and one of them carries an out-of-vocabulary call.
    fn repeating_sessions() -> Vec<(String, String, Vec<CallEvent>)> {
        (0..8)
            .map(|i| {
                let mut trace = trace_of(&["a", "b", "c_Q7", "a", "b", "c_Q7", "a", "b"]);
                if i == 5 {
                    trace.push(event("evil_exfil", "main"));
                    trace.push(event("c_Q7", "main"));
                }
                ("bank".to_string(), format!("s-{i}"), trace)
            })
            .collect()
    }

    #[test]
    fn interleaved_stream_matches_isolated_engine_scans() {
        let profiles = two_app_registry();
        let sessions = demo_sessions();
        let stream = interleave(&sessions, 0xFEED);
        let mut verdicts = Vec::new();
        for mode in [ScoringMode::ExactWindows, ScoringMode::Incremental] {
            let mut runtime =
                MonitorRuntime::new(Arc::clone(&profiles)).with_config(RuntimeConfig {
                    mode,
                    ..RuntimeConfig::default()
                });
            runtime.ingest_stream(&stream);
            let reports = runtime.finish();
            assert_eq!(reports.len(), sessions.len());
            for report in &reports {
                let (_, _, trace) = sessions
                    .iter()
                    .find(|(app, session, _)| *app == report.app && *session == report.session)
                    .expect("known session");
                let scorer = profiles.scorer(&report.app).unwrap();
                let expected = match mode {
                    ScoringMode::ExactWindows => scorer.scan(trace, &report.session),
                    ScoringMode::Incremental => scorer.scan_incremental(trace, &report.session).0,
                };
                assert_eq!(
                    format!("{:?}", report.alerts),
                    format!("{expected:?}"),
                    "{}/{} ({mode:?})",
                    report.app,
                    report.session
                );
                assert_eq!(report.end, SessionEnd::Finished);
                assert_eq!(report.events, trace.len());
            }
            // Arrival order is first-appearance order on the stream.
            let mut seen = std::collections::HashSet::new();
            let first_appearance: Vec<(String, String)> = stream
                .iter()
                .filter(|t| seen.insert((t.app.clone(), t.session.clone())))
                .map(|t| (t.app.clone(), t.session.clone()))
                .collect();
            let report_order: Vec<(String, String)> = reports
                .iter()
                .map(|r| (r.app.clone(), r.session.clone()))
                .collect();
            assert_eq!(report_order, first_appearance);
            verdicts.push(reports.iter().map(|r| r.verdict).collect::<Vec<_>>());
        }
        // The demo traces sit far from their thresholds, so exact and
        // incremental scoring agree on every session's verdict.
        assert_eq!(verdicts[0], verdicts[1]);
        assert!(verdicts[0].contains(&Flag::DataLeak) && verdicts[0].contains(&Flag::Anomalous));
    }

    #[test]
    fn hot_swap_mid_stream_pins_inflight_sessions() {
        let obs = Registry::new();
        let registry = ProfileRegistry::new();
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        let profiles = Arc::new(registry);
        let mut runtime = MonitorRuntime::new(Arc::clone(&profiles)).with_registry(&obs);

        let tag = |session: &str, name: &str| TaggedCall {
            app: "bank".into(),
            session: session.into(),
            event: event(name, "main"),
        };
        // s-old opens on epoch 1...
        runtime.ingest(&tag("s-old", "a"));
        runtime.ingest(&tag("s-old", "b"));
        // ...the profile hot-swaps to a flag-everything threshold...
        profiles
            .register("bank", cyclic_profile("bank", 0.0))
            .unwrap();
        // ...s-old keeps streaming (still epoch 1), s-new opens on epoch 2.
        runtime.ingest(&tag("s-old", "c_Q7"));
        runtime.ingest(&tag("s-new", "a"));
        runtime.ingest(&tag("s-new", "b"));
        runtime.ingest(&tag("s-new", "c_Q7"));
        let reports = runtime.finish();

        assert_eq!(reports[0].session, "s-old");
        assert_eq!(reports[0].epoch, 1);
        assert_eq!(reports[1].session, "s-new");
        assert_eq!(reports[1].epoch, 2);
        // s-old scored on the old threshold: the cycle is normal. s-new on
        // the new threshold: everything is flagged.
        assert_eq!(reports[0].verdict, Flag::Normal);
        assert_ne!(reports[1].verdict, Flag::Normal);
        // All of s-old's events were buffered when the swap landed, so all
        // of them count as epoch-pinned.
        let snap = obs.snapshot();
        assert_eq!(snap.counter("monitor.epoch_pins"), Some(3));
        assert_eq!(snap.counter("monitor.sessions.opened"), Some(2));
        // The queue gauge is a high-water mark: all 6 events were
        // buffered (nothing flushed before `finish`), and finishing does
        // not erase the peak.
        assert_eq!(snap.gauge("monitor.queue.depth"), Some(6));
    }

    #[test]
    fn capacity_bound_evicts_lru_and_reopens_deterministically() {
        let obs = Registry::new();
        let profiles = two_app_registry();
        let mut runtime = MonitorRuntime::new(profiles)
            .with_registry(&obs)
            .with_config(RuntimeConfig {
                max_sessions: 1,
                ..RuntimeConfig::default()
            });
        let tag = |session: &str, name: &str| TaggedCall {
            app: "bank".into(),
            session: session.into(),
            event: event(name, "main"),
        };
        runtime.ingest(&tag("s-0", "a"));
        runtime.ingest(&tag("s-0", "b"));
        runtime.ingest(&tag("s-0", "c_Q7"));
        // Admitting s-1 evicts s-0 (table holds one session).
        runtime.ingest(&tag("s-1", "a"));
        // s-0 returns: a fresh slot, evicting s-1 in turn.
        runtime.ingest(&tag("s-0", "a"));
        let reports = runtime.finish();

        assert_eq!(reports.len(), 3);
        assert_eq!(
            (reports[0].session.as_str(), reports[0].end.clone()),
            ("s-0", SessionEnd::PressureEvicted)
        );
        assert_eq!(reports[0].events, 3);
        assert_eq!(
            (reports[1].session.as_str(), reports[1].end.clone()),
            ("s-1", SessionEnd::PressureEvicted)
        );
        assert_eq!(
            (reports[2].session.as_str(), reports[2].end.clone()),
            ("s-0", SessionEnd::Finished)
        );
        assert_eq!(reports[2].events, 1);
        // The evicted full trace still scored: the cyclic window is one
        // whole alert (window == trace length == 3).
        assert_eq!(reports[0].alerts.len(), 1);
        assert_eq!(obs.snapshot().counter("monitor.evictions.lru"), Some(2));
    }

    #[test]
    fn idle_sessions_finalize_at_flush_boundaries() {
        let obs = Registry::new();
        let profiles = two_app_registry();
        let mut runtime = MonitorRuntime::new(profiles)
            .with_registry(&obs)
            .with_config(RuntimeConfig {
                idle_timeout: 3,
                ..RuntimeConfig::default()
            });
        let tag = |session: &str, name: &str| TaggedCall {
            app: "bank".into(),
            session: session.into(),
            event: event(name, "main"),
        };
        runtime.ingest(&tag("s-idle", "a"));
        for _ in 0..4 {
            runtime.ingest(&tag("s-busy", "a"));
        }
        runtime.flush();
        assert_eq!(runtime.sessions_active(), 1, "idle session closed");
        let reports = runtime.finish();
        assert_eq!(reports[0].session, "s-idle");
        assert_eq!(reports[0].end, SessionEnd::IdleEvicted);
        // A short trace still emits its single short window at eviction.
        assert_eq!(reports[0].alerts.len(), 1);
        assert_eq!(reports[1].end, SessionEnd::Finished);
        assert_eq!(obs.snapshot().counter("monitor.evictions.idle"), Some(1));
    }

    #[test]
    fn unknown_app_events_are_dropped_and_counted() {
        let obs = Registry::new();
        let profiles = two_app_registry();
        let mut runtime = MonitorRuntime::new(profiles).with_registry(&obs);
        runtime.ingest(&TaggedCall {
            app: "nobody".into(),
            session: "s-0".into(),
            event: event("a", "main"),
        });
        assert_eq!(runtime.sessions_active(), 0);
        let reports = runtime.finish();
        assert!(reports.is_empty());
        assert_eq!(obs.snapshot().counter("monitor.unknown_app"), Some(1));
    }

    #[test]
    fn pressure_fault_point_forces_deterministic_eviction() {
        let profiles = two_app_registry();
        let injector = FaultPlan::new(7)
            .inject(
                sites::MONITOR_PRESSURE,
                FaultKind::EvictSession,
                Trigger::OnceForKeys([3u64].into()),
            )
            .arm();
        let mut runtime = MonitorRuntime::new(profiles).with_faults(&injector);
        let tag = |session: &str, name: &str| TaggedCall {
            app: "bank".into(),
            session: session.into(),
            event: event(name, "main"),
        };
        runtime.ingest(&tag("s-0", "a")); // tick 1
        runtime.ingest(&tag("s-1", "a")); // tick 2
        runtime.ingest(&tag("s-1", "b")); // tick 3: s-0 (LRU) force-evicted
        let reports = runtime.finish();
        assert_eq!(injector.injected(sites::MONITOR_PRESSURE), 1);
        assert_eq!(reports[0].session, "s-0");
        assert_eq!(reports[0].end, SessionEnd::PressureEvicted);
        assert_eq!(reports[1].end, SessionEnd::Finished);
    }

    #[test]
    fn alarm_audit_records_carry_forensics_and_benign_sessions_produce_none() {
        use adprom_obs::{AuditLog, MemoryAuditSink};
        let obs = Registry::new();
        let sink = Arc::new(MemoryAuditSink::new());
        let audit = Arc::new(AuditLog::new(sink.clone() as Arc<dyn adprom_obs::AuditSink>));
        let profiles = two_app_registry();
        let mut runtime = MonitorRuntime::new(profiles)
            .with_registry(&obs)
            .with_audit(audit)
            .with_forensics(crate::scorer::ForensicsConfig::default());
        let stream = interleave(&demo_sessions(), 0xFEED);
        runtime.ingest_stream(&stream);
        let reports = runtime.finish();
        let alarm_total: usize = reports.iter().map(|r| r.alarms().count()).sum();
        assert!(alarm_total > 0, "demo sessions include an attack");
        let records = sink.records();
        assert_eq!(records.len(), alarm_total);
        for record in &records {
            // Stamped with the alarming session and the kernel that
            // scored it.
            let report = reports
                .iter()
                .find(|r| r.app == record.app && r.session == record.session)
                .expect("record names a session");
            assert!(report.alarms().count() > 0);
            assert_eq!(record.kernel, report.kernel.effective);
            let forensics = record.forensics.as_ref().expect("every alarm explained");
            assert!(!forensics.top_deviant.is_empty());
            assert_eq!(
                forensics.alert_delta(),
                Some(record.log_likelihood - record.threshold)
            );
            assert_eq!(
                forensics.attributed_log_likelihood.to_bits(),
                record.log_likelihood.to_bits(),
                "exact mode attributes the audited score itself"
            );
        }
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("monitor.forensics.reports"),
            Some(alarm_total as u64)
        );
        assert_eq!(
            snap.counter("detect.kernel.dense"),
            Some(alarm_total as u64)
        );

        // A purely benign stream builds no reports at all.
        let obs2 = Registry::new();
        let sink2 = Arc::new(MemoryAuditSink::new());
        let mut benign = MonitorRuntime::new(two_app_registry())
            .with_registry(&obs2)
            .with_audit(Arc::new(AuditLog::new(
                sink2.clone() as Arc<dyn adprom_obs::AuditSink>
            )))
            .with_forensics(crate::scorer::ForensicsConfig::default());
        for e in trace_of(&["a", "b", "c_Q7", "a", "b", "c_Q7"]) {
            benign.ingest(&TaggedCall {
                app: "bank".into(),
                session: "s-ok".into(),
                event: e,
            });
        }
        let reports = benign.finish();
        assert_eq!(reports[0].verdict, Flag::Normal);
        assert!(sink2.records().is_empty());
        assert_eq!(
            obs2.snapshot().counter("monitor.forensics.reports"),
            Some(0)
        );
    }

    #[test]
    fn tracer_spans_carry_session_context_through_the_pipeline() {
        use adprom_obs::{RingSink, SpanSink, Tracer};
        let span_registry = Registry::new();
        let ring = Arc::new(RingSink::new(256));
        let tracer = Tracer::new(span_registry.clone(), ring.clone() as Arc<dyn SpanSink>);
        let mut runtime = MonitorRuntime::new(two_app_registry()).with_tracer(tracer);
        for e in trace_of(&["a", "b", "c_Q7", "a"]) {
            runtime.ingest(&TaggedCall {
                app: "bank".into(),
                session: "s-0".into(),
                event: e,
            });
        }
        runtime.finish();
        let events = ring.events();
        let stage = |path: &str| -> Vec<_> { events.iter().filter(|e| e.path == path).collect() };
        assert_eq!(stage("monitor/ingest").len(), 4);
        assert_eq!(stage("monitor/flush").len(), 1);
        let score = stage("monitor/score");
        assert_eq!(score.len(), 1);
        let ctx = score[0].context.as_ref().expect("score span has context");
        assert_eq!((ctx.app.as_str(), ctx.session.as_str()), ("bank", "s-0"));
        assert_eq!((ctx.epoch, ctx.batch), (1, 1));
        let commit = stage("monitor/commit");
        assert_eq!(commit.len(), 1);
        assert_eq!(commit[0].context, score[0].context);
        // Span durations also landed in the tracer's registry.
        assert_eq!(span_registry.histogram("span.monitor/ingest").count(), 4);
    }

    #[test]
    fn stage_histograms_populate_under_a_live_registry() {
        let stream = interleave(&demo_sessions(), 0xBEEF);
        let events: u64 = demo_sessions().iter().map(|(_, _, t)| t.len() as u64).sum();
        let sessions = demo_sessions().len() as u64;
        for mode in [ScoringMode::ExactWindows, ScoringMode::Incremental] {
            let obs = Registry::new();
            let mut runtime = MonitorRuntime::new(two_app_registry())
                .with_registry(&obs)
                .with_config(RuntimeConfig {
                    mode,
                    ..RuntimeConfig::default()
                });
            runtime.ingest_stream(&stream);
            runtime.finish();
            assert_eq!(obs.histogram("monitor.stage.ingest_ns").count(), events);
            assert_eq!(obs.histogram("monitor.stage.score_ns").count(), sessions);
            assert_eq!(obs.histogram("monitor.stage.commit_ns").count(), sessions);
            assert_eq!(obs.histogram("monitor.stage.finalize_ns").count(), sessions);
            let snap = obs.snapshot();
            assert_eq!(
                snap.gauge("monitor.flush.batch_sessions"),
                Some(sessions as i64)
            );
            assert_eq!(snap.gauge("monitor.sessions.active"), Some(0));
            let flags = ["normal", "anomalous", "data_leak", "out_of_context"]
                .map(|f| snap.counter(&format!("detect.flags.{f}")).unwrap());
            assert_eq!(
                snap.counter("detect.windows_scored"),
                Some(flags.iter().sum())
            );
            // Every admitted event went through a sliding scorer in
            // incremental mode (none in exact mode); the smoothed cyclic
            // profile never re-anchors.
            let pushes = events * u64::from(mode == ScoringMode::Incremental);
            assert_eq!(snap.counter("sliding.pushes"), Some(pushes));
            assert_eq!(snap.counter("sliding.reanchors"), Some(0));
        }
    }

    #[test]
    fn swap_fault_panic_retries_on_the_pinned_epoch() {
        quiet_injected_panics();
        let obs = Registry::new();
        let registry = ProfileRegistry::new().with_kernel(KernelConfig::Sparse {
            sparse: adprom_hmm::SparseConfig::default(),
        });
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        let profiles = Arc::new(registry);
        let injector = FaultPlan::new(11)
            .inject(
                sites::MONITOR_SWAP,
                FaultKind::Panic,
                Trigger::OnceForKeys([0u64].into()),
            )
            .arm();
        let trace = trace_of(&["a", "b", "c_Q7", "a", "b", "c_Q7"]);
        let mut runtime = MonitorRuntime::new(Arc::clone(&profiles))
            .with_registry(&obs)
            .with_faults(&injector);
        for e in &trace {
            runtime.ingest(&TaggedCall {
                app: "bank".into(),
                session: "s-0".into(),
                event: e.clone(),
            });
        }
        // Swap lands while s-0's batch is still buffered; the injected
        // panic then kills the first flush attempt. The retry must score
        // on epoch 1 — the pinned scorer — not re-resolve epoch 2.
        profiles
            .register("bank", cyclic_profile("bank", 0.0))
            .unwrap();
        let reports = runtime.finish();
        assert_eq!(injector.injected(sites::MONITOR_SWAP), 1);
        assert_eq!(reports[0].epoch, 1);
        assert_eq!(reports[0].verdict, Flag::Normal, "epoch-1 threshold");
        assert_eq!(reports[0].kernel.effective, "sparse");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("resilience.worker_panics"), Some(1));
        assert_eq!(snap.counter("resilience.traces_recovered"), Some(1));
        assert_eq!(profiles.health("bank").unwrap().state(), Health::Degraded);
    }

    #[test]
    fn tier_ladder_demotes_escalates_and_pins_under_budget_pressure() {
        let obs = Registry::new();
        let registry = ProfileRegistry::new();
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        let profiles = Arc::new(registry);
        let mut runtime = MonitorRuntime::new(Arc::clone(&profiles))
            .with_registry(&obs)
            .with_config(RuntimeConfig {
                mode: ScoringMode::Incremental,
                overload: OverloadConfig {
                    budget: 6,
                    ..OverloadConfig::default()
                },
                ..RuntimeConfig::default()
            });
        let tag = |session: &str, name: &str| TaggedCall {
            app: "bank".into(),
            session: session.into(),
            event: event(name, "main"),
        };
        // Flush 1: all three sessions are inside their first window — the
        // new-session prior holds every one at the full tier, and nine
        // pending events over a budget of six open an overload episode.
        for s in ["s-0", "s-1", "s-2"] {
            for name in ["a", "b", "c_Q7"] {
                runtime.ingest(&tag(s, name));
            }
        }
        runtime.flush();
        assert_eq!(profiles.health("bank").unwrap().state(), Health::Degraded);
        // Flush 2: margins are identical (same benign first window), so
        // ties break by arrival and the budget walk demotes s-2 to the
        // spot tier — where its out-of-context call cannot be skipped, so
        // it alarms and the session escalates itself back to full
        // mid-flush.
        for s in ["s-0", "s-1"] {
            for name in ["a", "b", "c_Q7"] {
                runtime.ingest(&tag(s, name));
            }
        }
        for name in ["a", "evil_exfil", "c_Q7"] {
            runtime.ingest(&tag("s-2", name));
        }
        runtime.flush();
        // Flush 3: the alarmed session is pinned at full regardless of
        // rank, and three pending events fit the budget — recovery.
        for s in ["s-0", "s-1", "s-2"] {
            runtime.ingest(&tag(s, "a"));
        }
        let reports = runtime.finish();
        let s2 = reports.iter().find(|r| r.session == "s-2").unwrap();
        assert_eq!(
            s2.tiers,
            vec![ScoringTier::Full, ScoringTier::SpotCheck, ScoringTier::Full]
        );
        assert_eq!(s2.tier, ScoringTier::Full);
        assert_eq!(s2.escalations, 1, "spot-tier alarm must escalate");
        assert!(s2.alarms().count() >= 1, "the exfil window still alarms");
        for report in reports.iter().filter(|r| r.session != "s-2") {
            assert_eq!(report.verdict, Flag::Normal);
            assert_eq!(report.escalations, 0);
            assert_eq!(report.tiers.len(), 3);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counter("monitor.tier.escalations"), Some(1));
        assert_eq!(snap.counter("monitor.tier.full.assigned"), Some(8));
        assert_eq!(snap.counter("monitor.tier.spot.assigned"), Some(1));
        // The episode opened once (flushes 1–2 were one continuous
        // overload) and closed when flush 3 fit the budget.
        assert_eq!(snap.counter("monitor.overload.episodes"), Some(1));
        assert_eq!(snap.gauge("monitor.overload.active"), Some(0));
    }

    #[test]
    fn drop_newest_sheds_only_demoted_benign_traffic() {
        let obs = Registry::new();
        let registry = ProfileRegistry::new();
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        let mut runtime = MonitorRuntime::new(Arc::new(registry))
            .with_registry(&obs)
            .with_config(RuntimeConfig {
                mode: ScoringMode::Incremental,
                overload: OverloadConfig {
                    capacity: 6,
                    shed_policy: ShedPolicy::DropNewest,
                    budget: 3,
                    ..OverloadConfig::default()
                },
                ..RuntimeConfig::default()
            });
        let tag = |session: &str, name: &str| TaggedCall {
            app: "bank".into(),
            session: session.into(),
            event: event(name, "main"),
        };
        // Two flushes establish margins; the second demotes s-1 (equal
        // margin, later arrival) to the spot tier under budget 3.
        for _ in 0..2 {
            for s in ["s-0", "s-1"] {
                for name in ["a", "b", "c_Q7"] {
                    assert_eq!(runtime.ingest(&tag(s, name)), IngestStatus::Admitted);
                }
            }
            runtime.flush();
        }
        // Fill the queue to its hard bound...
        for name in ["a", "b", "c_Q7", "a", "b", "c_Q7"] {
            assert_eq!(runtime.ingest(&tag("s-0", name)), IngestStatus::Admitted);
        }
        assert_eq!(runtime.pending(), 6);
        // ...a benign event for the demoted session is shed (counted,
        // never scored, queue still at the bound)...
        assert_eq!(runtime.ingest(&tag("s-1", "a")), IngestStatus::Shed);
        assert_eq!(runtime.pending(), 6);
        // ...but a dangerous (DDG-labeled) event for the same demoted
        // session must not be lost: it falls back to the backpressure
        // flush and is admitted.
        assert_eq!(
            runtime.ingest(&tag("s-1", "c_Q7")),
            IngestStatus::Backpressured
        );
        assert_eq!(runtime.pending(), 1);
        let reports = runtime.finish();
        let s1 = reports.iter().find(|r| r.session == "s-1").unwrap();
        // The shed event still counted toward the session's event total.
        assert_eq!(s1.events, 8);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("monitor.shed.events"), Some(1));
        assert_eq!(snap.counter("monitor.backpressure.flushes"), Some(1));
        assert_eq!(snap.gauge("monitor.queue.depth"), Some(6));
    }

    #[test]
    fn hard_capacity_bound_holds_via_backpressure() {
        let obs = Registry::new();
        let registry = ProfileRegistry::new();
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        let mut runtime = MonitorRuntime::new(Arc::new(registry))
            .with_registry(&obs)
            .with_config(RuntimeConfig {
                overload: OverloadConfig {
                    capacity: 4,
                    ..OverloadConfig::default()
                },
                ..RuntimeConfig::default()
            });
        let mut backpressured = 0;
        for i in 0..10 {
            let status = runtime.ingest(&TaggedCall {
                app: "bank".into(),
                session: "s-0".into(),
                event: event(["a", "b", "c_Q7"][i % 3], "main"),
            });
            if status == IngestStatus::Backpressured {
                backpressured += 1;
            }
            assert!(runtime.pending() <= 4, "hard bound breached at event {i}");
        }
        // Events 5 and 9 arrive with four already pending: each pays one
        // synchronous flush and is then admitted.
        assert_eq!(backpressured, 2);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("monitor.backpressure.flushes"), Some(2));
        assert_eq!(snap.gauge("monitor.queue.depth"), Some(4));
        runtime.finish();
    }

    #[test]
    fn failed_session_closes_without_poisoning_the_stream() {
        quiet_injected_panics();
        let profiles = two_app_registry();
        let injector = FaultPlan::new(13)
            .inject(sites::MONITOR_SWAP, FaultKind::Panic, Trigger::Always)
            .arm();
        let mut runtime = MonitorRuntime::new(Arc::clone(&profiles))
            .with_faults(&injector)
            .with_retry(RetryPolicy {
                max_retries: 1,
                backoff: std::time::Duration::ZERO,
            });
        // Trigger::Always panics every flush attempt: retries cannot save
        // this session.
        runtime.ingest(&TaggedCall {
            app: "bank".into(),
            session: "s-dead".into(),
            event: event("a", "main"),
        });
        let reports = runtime.finish();
        assert!(matches!(reports[0].end, SessionEnd::Failed(_)));
        assert!(reports[0].alerts.is_empty());
        assert_eq!(reports[0].verdict, Flag::Normal);
        assert_eq!(profiles.health("bank").unwrap().state(), Health::Failed);

        // Without retries, a keyed panic fails its session only: the
        // session flushed beside it still scores.
        let obs = Registry::new();
        let injector = FaultPlan::new(13)
            .inject(
                sites::MONITOR_SWAP,
                FaultKind::Panic,
                Trigger::OnceForKeys([0u64].into()),
            )
            .arm();
        let mut runtime = MonitorRuntime::new(two_app_registry())
            .with_registry(&obs)
            .with_faults(&injector)
            .with_retry(RetryPolicy::none());
        for session in ["s-dead", "s-live"] {
            for event in trace_of(&["b", "a", "a"]) {
                runtime.ingest(&TaggedCall {
                    app: "bank".into(),
                    session: session.into(),
                    event,
                });
            }
        }
        let reports = runtime.finish();
        assert!(matches!(reports[0].end, SessionEnd::Failed(_)));
        assert_eq!(reports[1].end, SessionEnd::Finished);
        assert_eq!(reports[1].verdict, Flag::Anomalous);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("resilience.traces_failed"), Some(1));
        assert_eq!(snap.gauge("monitor.sessions.active"), Some(0));
    }

    #[test]
    fn memo_scores_repeats_once_and_is_thread_count_independent() {
        let sessions = repeating_sessions();
        let stream = interleave(&sessions, 0x3E30);
        let profiles = two_app_registry();
        let reference = profiles.scorer("bank").unwrap();
        let mut baseline = None;
        for threads in [1usize, 4, 8] {
            let obs = Registry::new();
            let mut runtime = MonitorRuntime::new(Arc::clone(&profiles))
                .with_registry(&obs)
                .with_threads(threads)
                .with_config(RuntimeConfig {
                    queue_capacity: 8,
                    ..RuntimeConfig::default()
                });
            runtime.ingest_stream(&stream);
            runtime.flush();
            let memo = memo_contents(&runtime);
            assert_eq!(runtime.memo_entries, memo.len());
            // Each entry is the very score a fresh pass gives the window.
            let alphabet = &reference.profile().alphabet;
            for (_, _, window, bits) in &memo {
                let names: Vec<String> = window
                    .iter()
                    .map(|&s| alphabet.decode(usize::from(s)).to_string())
                    .collect();
                assert_eq!(reference.score(&names).to_bits(), *bits);
            }
            let reports = runtime.finish();
            for report in &reports {
                let (_, _, trace) = sessions
                    .iter()
                    .find(|(_, session, _)| *session == report.session)
                    .expect("known session");
                assert_eq!(
                    format!("{:?}", report.alerts),
                    format!("{:?}", reference.scan(trace, &report.session)),
                    "{} (threads {threads})",
                    report.session
                );
            }
            let snap = obs.snapshot();
            let hits = snap.counter("monitor.memo.hits").unwrap();
            let misses = snap.counter("monitor.memo.misses").unwrap();
            // Every window took the memo path, far fewer reached the
            // kernel, and each still left one score-time sample.
            assert_eq!(Some(hits + misses), snap.counter("detect.windows_scored"));
            assert_eq!(obs.histogram("detect.score_ns").count(), hits + misses);
            assert!(hits > 4 * misses, "hits {hits}, misses {misses}");
            match &baseline {
                None => baseline = Some((memo, hits, misses)),
                Some(expected) => assert_eq!(&(memo, hits, misses), expected, "threads {threads}"),
            }
        }
    }

    #[test]
    fn memo_is_bypassed_where_a_score_is_not_a_pure_function_of_the_window() {
        quiet_injected_panics();
        let stream = interleave(&repeating_sessions(), 0xB1A5);
        let memo_counters = |obs: &Registry| {
            let snap = obs.snapshot();
            (
                snap.counter("monitor.memo.hits"),
                snap.counter("monitor.memo.misses"),
            )
        };

        // Incremental mode scores through the sliding recurrence.
        let obs = Registry::new();
        let mut runtime = MonitorRuntime::new(two_app_registry())
            .with_registry(&obs)
            .with_config(RuntimeConfig {
                mode: ScoringMode::Incremental,
                queue_capacity: 8,
                ..RuntimeConfig::default()
            });
        runtime.ingest_stream(&stream);
        runtime.flush();
        assert_eq!(runtime.memo_entries, 0);
        runtime.finish();
        assert_eq!(memo_counters(&obs), (Some(0), Some(0)));

        // Exact mode with a flight recorder armed reads the memo too: an
        // alarm served from it is attributed by a fresh pass over its
        // window, which re-sums to the memoized score bit for bit.
        use adprom_obs::{AuditLog, MemoryAuditSink};
        let obs = Registry::new();
        let sink = Arc::new(MemoryAuditSink::new());
        let mut runtime = MonitorRuntime::new(two_app_registry())
            .with_registry(&obs)
            .with_audit(Arc::new(AuditLog::new(
                sink.clone() as Arc<dyn adprom_obs::AuditSink>
            )))
            .with_forensics(ForensicsConfig::default())
            .with_config(RuntimeConfig {
                queue_capacity: 8,
                ..RuntimeConfig::default()
            });
        runtime.ingest_stream(&stream);
        runtime.flush();
        assert!(runtime.memo_entries > 0);
        runtime.finish();
        assert_eq!(memo_counters(&obs), (Some(39), Some(11)));
        let records = sink.records();
        assert!(!records.is_empty());
        for record in &records {
            let forensics = record.forensics.as_ref().expect("every alarm explained");
            assert_eq!(
                forensics.attributed_log_likelihood.to_bits(),
                record.log_likelihood.to_bits()
            );
        }
    }

    #[test]
    fn memo_cap_clears_every_memo_and_keeps_alerts_unchanged() {
        // 12-call windows over three calls: a pseudo-random 20k-call
        // session has ~19.6k distinct windows, past the cap.
        let mut profile = cyclic_profile("bank", -5.0);
        profile.window = 12;
        let registry = ProfileRegistry::new();
        registry.register("bank", profile).unwrap();
        let profiles = Arc::new(registry);
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let names = ["a", "b", "c_Q7"];
        let trace: Vec<CallEvent> = (0..20_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                event(names[(x >> 33) as usize % names.len()], "main")
            })
            .collect();
        let obs = Registry::new();
        let mut runtime = MonitorRuntime::new(Arc::clone(&profiles))
            .with_registry(&obs)
            .with_config(RuntimeConfig {
                queue_capacity: 0,
                ..RuntimeConfig::default()
            });
        let mut peak = 0;
        let mut cleared = false;
        for chunk in trace.chunks(1_000) {
            for e in chunk {
                runtime.ingest(&TaggedCall {
                    app: "bank".into(),
                    session: "s-0".into(),
                    event: e.clone(),
                });
            }
            runtime.flush();
            let entries = memo_contents(&runtime).len();
            assert_eq!(entries, runtime.memo_entries);
            assert!(entries <= MEMO_CAP, "{entries} entries");
            cleared |= entries < peak;
            peak = peak.max(entries);
        }
        assert!(cleared, "more distinct windows than the cap must clear");
        let reports = runtime.finish();
        let expected = profiles.scorer("bank").unwrap().scan(&trace, "s-0");
        assert_eq!(reports[0].alerts.len(), expected.len());
        assert_eq!(reports[0].alerts, expected);
        let snap = obs.snapshot();
        let misses = snap.counter("monitor.memo.misses").unwrap();
        assert!(misses > MEMO_CAP as u64);
        assert_eq!(
            Some(snap.counter("monitor.memo.hits").unwrap() + misses),
            snap.counter("detect.windows_scored")
        );
    }
}
