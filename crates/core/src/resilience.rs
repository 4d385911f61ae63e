//! Fault tolerance: deterministic fail points, the pipeline health state
//! machine, and retry policy.
//!
//! A protection system that dies under faults is itself the vulnerability
//! (the monitor guards the database exactly when things go wrong), so
//! every failure path in the pipeline must be *exercisable on demand*.
//! [`FaultPlan`] describes a deterministic, seedable set of faults —
//! which [`FaultKind`] fires at which named site, for which keys — and
//! arms into a [`FaultInjector`] handing out per-site [`FailPoint`]
//! handles. The discipline mirrors the obs [`Registry`]: a handle from a
//! disabled plan is a `None` and every probe costs a single branch, so
//! fail points stay in hot paths permanently (benchmarked by
//! `benches/obs.rs`).
//!
//! Decisions are keyed (by trace index, session arrival index or ingest
//! tick), never by wall clock or thread interleaving, so a fault schedule
//! replays identically at any thread count — the property the
//! `tests/resilience.rs` suite leans on to assert that non-quarantined
//! traces score bit-identically to a fault-free run.
//!
//! [`HealthMonitor`] is the monotonic Healthy → Degraded → Failed state
//! machine the pipeline surfaces through telemetry (`health.state`), and
//! [`RetryPolicy`] bounds the per-session retry/backoff behavior of
//! each shard of [`ShardedMonitor`](crate::shard::ShardedMonitor) — the
//! one panic-isolation path in the crate.

use adprom_obs::{Gauge, Registry};
use adprom_trace::CallEvent;
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Well-known fail-point site names.
pub mod sites {
    /// Corrupt one event of a trace during ingest (keyed by trace index).
    pub const INGEST_CORRUPT: &str = "ingest.corrupt_event";
    /// Truncate a trace to half its length during ingest.
    pub const INGEST_TRUNCATE: &str = "ingest.truncate_trace";
    /// Swap two adjacent events during ingest.
    pub const INGEST_REORDER: &str = "ingest.reorder_events";
    /// Fail an audit/profile write with an I/O error (keyed by write
    /// ordinal, via [`FaultyWriter`](super::FaultyWriter)).
    pub const AUDIT_IO: &str = "audit.io_error";
    /// Panic a monitor shard's session worker mid-flush — exercises
    /// hot-swap-while-scoring (keyed by the session's arrival index
    /// within its shard).
    pub const MONITOR_SWAP: &str = "monitor.swap_mid_stream";
    /// Force-evict the least-recently-active session from a shard's
    /// session table, as if table pressure had reclaimed it (keyed by the
    /// shard's ingest tick).
    pub const MONITOR_PRESSURE: &str = "monitor.session_pressure";
    /// Treat a shard's bounded ingest queue as full for the keyed
    /// event (keyed by the shard's ingest tick) — exercises the backpressure/shed
    /// path without actually filling the queue.
    pub const MONITOR_QUEUE_OVERFLOW: &str = "monitor.queue_overflow";
}

/// What a fail point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Panic the calling thread (payload contains `fault-injected`).
    Panic,
    /// Return an I/O error from a [`FaultyWriter`].
    IoError,
    /// Corrupt one event of the keyed trace (control byte + malformed
    /// DDG label — caught by ingest validation).
    CorruptEvent,
    /// Drop the second half of the keyed trace.
    TruncateTrace,
    /// Swap the keyed trace's first two events.
    ReorderEvents,
    /// Evict the keyed session from the runtime's session table (as table
    /// pressure would), forcing it to finish early.
    EvictSession,
    /// Report the runtime's bounded ingest queue as full for the keyed
    /// event, forcing the configured overload response (backpressure
    /// flush or shed) as a real capacity hit would.
    QueueOverflow,
}

/// When a fail point fires.
#[derive(Debug, Clone)]
pub enum Trigger {
    /// Every probe.
    Always,
    /// The first probe at the site, ever.
    Once,
    /// The first probe for each listed key — retries of the same key do
    /// not re-fire, which is how injected panics stay recoverable.
    OnceForKeys(BTreeSet<u64>),
    /// Every `n`-th probe at the site (hit-counter based).
    EveryNth(u64),
    /// Pseudo-random per `(site, key, occurrence)`: fires with this
    /// probability, derived from the plan seed — deterministic across
    /// runs and thread interleavings.
    Ratio(f64),
}

/// One configured fault.
#[derive(Debug, Clone)]
struct FaultSpec {
    kind: FaultKind,
    trigger: Trigger,
    fired: AtomicU64Box,
}

/// `AtomicU64` behind a `Clone` (fresh counter per clone — specs are only
/// cloned while building, before arming).
#[derive(Debug, Default)]
struct AtomicU64Box(AtomicU64);

impl Clone for AtomicU64Box {
    fn clone(&self) -> AtomicU64Box {
        AtomicU64Box(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

/// A deterministic, seedable fault schedule. Build with
/// [`FaultPlan::new`] + [`inject`](FaultPlan::inject), then
/// [`arm`](FaultPlan::arm) it into a [`FaultInjector`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<(String, FaultSpec)>,
}

impl FaultPlan {
    /// An empty plan with a seed for [`Trigger::Ratio`] decisions.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// The no-fault plan: arming it yields disabled handles.
    pub fn disabled() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault at `site`.
    pub fn inject(mut self, site: &str, kind: FaultKind, trigger: Trigger) -> FaultPlan {
        self.specs.push((
            site.to_string(),
            FaultSpec {
                kind,
                trigger,
                fired: AtomicU64Box::default(),
            },
        ));
        self
    }

    /// Resolves the plan into per-site state. An empty plan arms to a
    /// disabled injector whose handles are all `None`.
    pub fn arm(&self) -> FaultInjector {
        if self.specs.is_empty() {
            return FaultInjector { sites: None };
        }
        let mut sites: HashMap<String, Arc<SiteState>> = HashMap::new();
        for (site, spec) in &self.specs {
            let state = sites.entry(site.clone()).or_insert_with(|| {
                Arc::new(SiteState {
                    seed: self.seed ^ splitmix64(hash_str(site)),
                    specs: Mutex::new(Vec::new()),
                    hits: AtomicU64::new(0),
                    injected: AtomicU64::new(0),
                    per_key: Mutex::new(HashMap::new()),
                })
            });
            state
                .specs
                .lock()
                .expect("plan poisoned")
                .push(spec.clone());
        }
        FaultInjector {
            sites: Some(Arc::new(sites)),
        }
    }
}

/// Armed per-site fault state.
#[derive(Debug)]
struct SiteState {
    seed: u64,
    specs: Mutex<Vec<FaultSpec>>,
    hits: AtomicU64,
    injected: AtomicU64,
    /// Probe count per `(spec index, key)` — drives [`Trigger::OnceForKeys`]
    /// and the occurrence term of [`Trigger::Ratio`]. Enabled-only cost.
    per_key: Mutex<HashMap<(usize, u64), u64>>,
}

impl SiteState {
    fn fire(self: &Arc<SiteState>, key: u64) -> Option<FaultKind> {
        let hit = self.hits.fetch_add(1, Ordering::Relaxed);
        let specs = self.specs.lock().expect("site poisoned");
        for (si, spec) in specs.iter().enumerate() {
            let occurrence = {
                let mut per_key = self.per_key.lock().expect("site poisoned");
                let slot = per_key.entry((si, key)).or_insert(0);
                let occ = *slot;
                *slot += 1;
                occ
            };
            let fires = match &spec.trigger {
                Trigger::Always => true,
                Trigger::Once => spec.fired.0.load(Ordering::Relaxed) == 0,
                Trigger::OnceForKeys(keys) => keys.contains(&key) && occurrence == 0,
                Trigger::EveryNth(n) => *n > 0 && hit.is_multiple_of(*n),
                Trigger::Ratio(p) => {
                    let h = splitmix64(
                        self.seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ occurrence,
                    );
                    ((h >> 11) as f64 / (1u64 << 53) as f64) < *p
                }
            };
            if fires {
                spec.fired.0.fetch_add(1, Ordering::Relaxed);
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(spec.kind);
            }
        }
        None
    }
}

/// FNV-1a over a site name (stable across runs).
fn hash_str(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// splitmix64 finalizer — the plan's deterministic bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An armed fault schedule; hands out [`FailPoint`] handles.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    sites: Option<Arc<HashMap<String, Arc<SiteState>>>>,
}

impl FaultInjector {
    /// The always-disabled injector (what production code holds).
    pub fn disabled() -> FaultInjector {
        FaultInjector::default()
    }

    /// The handle for `site` — disabled (`None` inside, single-branch
    /// probes) when the plan has no fault there. Acquire once, outside
    /// hot loops, like a metrics handle.
    pub fn point(&self, site: &str) -> FailPoint {
        FailPoint(
            self.sites
                .as_ref()
                .and_then(|sites| sites.get(site).cloned()),
        )
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: &str) -> u64 {
        self.sites
            .as_ref()
            .and_then(|sites| sites.get(site))
            .map_or(0, |s| s.injected.load(Ordering::Relaxed))
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.sites.as_ref().map_or(0, |sites| {
            sites
                .values()
                .map(|s| s.injected.load(Ordering::Relaxed))
                .sum()
        })
    }
}

/// A per-site fail-point handle. Disabled handles (the default, and
/// everything an empty plan arms) probe with a single `None` branch —
/// the same zero-overhead discipline as [`adprom_obs::Counter`].
#[derive(Debug, Clone, Default)]
pub struct FailPoint(Option<Arc<SiteState>>);

impl FailPoint {
    /// A handle that never fires.
    pub fn disabled() -> FailPoint {
        FailPoint(None)
    }

    /// Probes the fail point for `key` (e.g. a trace index). Returns the
    /// fault to apply, or `None`.
    #[inline]
    pub fn fire(&self, key: u64) -> Option<FaultKind> {
        match &self.0 {
            None => None,
            Some(site) => site.fire(key),
        }
    }

    /// True when a fault is configured at this site.
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }
}

/// Applies the ingest-site faults of an armed plan to a batch in place
/// (keyed by trace index): [`FaultKind::CorruptEvent`] mangles one event
/// name (control byte + malformed label — ingest validation quarantines
/// the trace), [`FaultKind::TruncateTrace`] halves the trace (degrades to
/// shorter windows), [`FaultKind::ReorderEvents`] swaps the first two
/// events. Returns the number of faults applied.
pub fn apply_ingest_faults(injector: &FaultInjector, traces: &mut [Vec<CallEvent>]) -> u64 {
    let corrupt = injector.point(sites::INGEST_CORRUPT);
    let truncate = injector.point(sites::INGEST_TRUNCATE);
    let reorder = injector.point(sites::INGEST_REORDER);
    if !corrupt.is_armed() && !truncate.is_armed() && !reorder.is_armed() {
        return 0;
    }
    let mut applied = 0u64;
    for (index, trace) in traces.iter_mut().enumerate() {
        let key = index as u64;
        if matches!(corrupt.fire(key), Some(FaultKind::CorruptEvent)) && !trace.is_empty() {
            let victim = (splitmix64(key) as usize) % trace.len();
            trace[victim].name = format!("{}\u{1}_Qxx", trace[victim].name).into();
            applied += 1;
        }
        if matches!(truncate.fire(key), Some(FaultKind::TruncateTrace)) {
            let keep = trace.len() / 2;
            trace.truncate(keep);
            applied += 1;
        }
        if matches!(reorder.fire(key), Some(FaultKind::ReorderEvents)) && trace.len() >= 2 {
            trace.swap(0, 1);
            applied += 1;
        }
    }
    applied
}

/// A `Write` adapter that consults a fail point before every write —
/// deterministic disk-failure injection for audit sinks and profile
/// saves (site [`sites::AUDIT_IO`], keyed by write ordinal).
#[derive(Debug)]
pub struct FaultyWriter<W> {
    inner: W,
    point: FailPoint,
    writes: u64,
}

impl<W: Write> FaultyWriter<W> {
    /// Wraps `inner`; `point` decides which writes fail.
    pub fn new(inner: W, point: FailPoint) -> FaultyWriter<W> {
        FaultyWriter {
            inner,
            point,
            writes: 0,
        }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let key = self.writes;
        self.writes += 1;
        if matches!(self.point.fire(key), Some(FaultKind::IoError)) {
            return Err(std::io::Error::other("fault-injected io error"));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Pipeline health, coarsest first. Transitions are monotonic within a
/// run: recovered faults (retries, quarantines, rejected profile swaps,
/// overload episodes) reach `Degraded`; an unrecoverable session reaches
/// `Failed`. [`HealthMonitor::reset`] re-arms between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// No faults observed.
    Healthy,
    /// Faults observed and absorbed; results remain trustworthy but the
    /// operator should look (reasons are recorded).
    Degraded,
    /// At least one trace could not be scored.
    Failed,
}

impl Health {
    /// Gauge encoding (`health.state`): 0 healthy, 1 degraded, 2 failed.
    pub fn as_gauge(self) -> i64 {
        match self {
            Health::Healthy => 0,
            Health::Degraded => 1,
            Health::Failed => 2,
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Health::Healthy => write!(f, "HEALTHY"),
            Health::Degraded => write!(f, "DEGRADED"),
            Health::Failed => write!(f, "FAILED"),
        }
    }
}

#[derive(Debug, Default)]
struct HealthInner {
    /// `Health::as_gauge` encoding.
    state: AtomicU8,
    reasons: Mutex<Vec<String>>,
}

/// Shared, thread-safe health state machine. Clones share state (workers
/// report, the operator reads).
#[derive(Debug, Clone, Default)]
pub struct HealthMonitor {
    inner: Arc<HealthInner>,
    gauge: Gauge,
}

impl HealthMonitor {
    /// A healthy monitor with no telemetry.
    pub fn new() -> HealthMonitor {
        HealthMonitor::default()
    }

    /// A monitor that mirrors its state into the `health.state` gauge.
    pub fn with_registry(registry: &Registry) -> HealthMonitor {
        let monitor = HealthMonitor {
            inner: Arc::new(HealthInner::default()),
            gauge: registry.gauge("health.state"),
        };
        monitor.gauge.set(0);
        monitor
    }

    /// Current state.
    pub fn state(&self) -> Health {
        match self.inner.state.load(Ordering::Relaxed) {
            0 => Health::Healthy,
            1 => Health::Degraded,
            _ => Health::Failed,
        }
    }

    /// Records an absorbed fault; raises the state to at least Degraded.
    /// Returns true when the state actually rose (false on a repeat
    /// absorb in the same or a higher state, which records the reason but
    /// re-emits nothing).
    pub fn degrade(&self, reason: &str) -> bool {
        self.transition(Health::Degraded, reason)
    }

    /// Records an unrecoverable fault; raises the state to Failed.
    /// Returns true when the state actually rose.
    pub fn fail(&self, reason: &str) -> bool {
        self.transition(Health::Failed, reason)
    }

    /// Every reason recorded so far, in arrival order.
    pub fn reasons(&self) -> Vec<String> {
        self.inner.reasons.lock().expect("health poisoned").clone()
    }

    /// Returns to Healthy and clears the reasons (start of a new run).
    pub fn reset(&self) {
        self.inner.state.store(0, Ordering::Relaxed);
        self.inner.reasons.lock().expect("health poisoned").clear();
        self.gauge.set(0);
    }

    fn transition(&self, to: Health, reason: &str) -> bool {
        let prev = self
            .inner
            .state
            .fetch_max(to.as_gauge() as u8, Ordering::Relaxed);
        let rose = prev < to.as_gauge() as u8;
        // Touch the gauge only on a genuine rise: repeated same-state
        // absorbs must not re-emit `health.state` transitions.
        if rose {
            self.gauge.record_max(to.as_gauge());
        }
        let mut reasons = self.inner.reasons.lock().expect("health poisoned");
        // Bounded: a fault storm must not turn the monitor into a leak.
        if reasons.len() < 256 {
            reasons.push(reason.to_string());
        }
        rose
    }
}

/// Bounded retry behavior for the per-session replays of a monitor
/// shard ([`ShardedMonitor::with_retry`](crate::shard::ShardedMonitor::with_retry)).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Re-attempts after a panicked scoring pass (0 disables retry).
    pub max_retries: u32,
    /// Sleep before retry `k` is `backoff · 2^(k−1)`.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// No retries — every panic is terminal for its session.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_hands_out_disabled_points() {
        let injector = FaultPlan::disabled().arm();
        let point = injector.point(sites::MONITOR_SWAP);
        assert!(!point.is_armed());
        assert_eq!(point.fire(0), None);
        assert_eq!(injector.total_injected(), 0);
    }

    #[test]
    fn once_for_keys_fires_once_per_key() {
        let plan = FaultPlan::new(7).inject(
            sites::MONITOR_SWAP,
            FaultKind::Panic,
            Trigger::OnceForKeys([2u64, 5].into()),
        );
        let injector = plan.arm();
        let point = injector.point(sites::MONITOR_SWAP);
        assert_eq!(point.fire(0), None);
        assert_eq!(point.fire(2), Some(FaultKind::Panic));
        // Retry of the same key does not re-fire.
        assert_eq!(point.fire(2), None);
        assert_eq!(point.fire(5), Some(FaultKind::Panic));
        assert_eq!(injector.injected(sites::MONITOR_SWAP), 2);
    }

    #[test]
    fn ratio_trigger_is_deterministic_in_the_seed() {
        let fires = |seed: u64| -> Vec<u64> {
            let injector = FaultPlan::new(seed)
                .inject(
                    sites::MONITOR_QUEUE_OVERFLOW,
                    FaultKind::QueueOverflow,
                    Trigger::Ratio(0.3),
                )
                .arm();
            let point = injector.point(sites::MONITOR_QUEUE_OVERFLOW);
            (0..64).filter(|&k| point.fire(k).is_some()).collect()
        };
        let a = fires(42);
        assert_eq!(a, fires(42), "same seed, same schedule");
        assert_ne!(a, fires(43), "different seed, different schedule");
        assert!(!a.is_empty() && a.len() < 40, "p=0.3 over 64 keys: {a:?}");
    }

    #[test]
    fn ingest_faults_mutate_only_keyed_traces() {
        use adprom_lang::{CallSiteId, LibCall};
        let event = |name: &str| CallEvent {
            name: name.into(),
            call: LibCall::Printf,
            caller: "main".into(),
            site: CallSiteId(0),
            detail: None,
        };
        let mut traces: Vec<Vec<CallEvent>> = (0..4)
            .map(|_| vec![event("a"), event("b"), event("c"), event("d")])
            .collect();
        let injector = FaultPlan::new(1)
            .inject(
                sites::INGEST_CORRUPT,
                FaultKind::CorruptEvent,
                Trigger::OnceForKeys([1u64].into()),
            )
            .inject(
                sites::INGEST_TRUNCATE,
                FaultKind::TruncateTrace,
                Trigger::OnceForKeys([3u64].into()),
            )
            .arm();
        let applied = apply_ingest_faults(&injector, &mut traces);
        assert_eq!(applied, 2);
        assert_eq!(traces[0].len(), 4, "untouched");
        assert!(
            traces[1].iter().any(|e| e.name.contains('\u{1}')),
            "corrupted"
        );
        assert_eq!(traces[3].len(), 2, "truncated");
    }

    #[test]
    fn faulty_writer_fails_keyed_writes() {
        let injector = FaultPlan::new(0)
            .inject(
                sites::AUDIT_IO,
                FaultKind::IoError,
                Trigger::OnceForKeys([1u64].into()),
            )
            .arm();
        let mut writer = FaultyWriter::new(Vec::new(), injector.point(sites::AUDIT_IO));
        assert!(writer.write(b"first").is_ok());
        assert!(writer.write(b"second").is_err());
        assert!(writer.write(b"third").is_ok());
        assert_eq!(writer.into_inner(), b"firstthird");
    }

    #[test]
    fn health_transitions_are_monotonic() {
        let health = HealthMonitor::new();
        assert_eq!(health.state(), Health::Healthy);
        health.degrade("retry");
        assert_eq!(health.state(), Health::Degraded);
        health.fail("trace 3 unrecoverable");
        assert_eq!(health.state(), Health::Failed);
        // A later degrade cannot lower the state.
        health.degrade("quarantine");
        assert_eq!(health.state(), Health::Failed);
        assert_eq!(health.reasons().len(), 3);
        health.reset();
        assert_eq!(health.state(), Health::Healthy);
        assert!(health.reasons().is_empty());
    }

    #[test]
    fn health_gauge_tracks_state() {
        let registry = Registry::new();
        let health = HealthMonitor::with_registry(&registry);
        health.degrade("x");
        assert_eq!(registry.snapshot().gauge("health.state"), Some(1));
        let clone = health.clone();
        clone.fail("y");
        assert_eq!(health.state(), Health::Failed);
        assert_eq!(registry.snapshot().gauge("health.state"), Some(2));
    }

    #[test]
    fn reset_rearms_monotonic_ladder_between_runs() {
        let registry = Registry::new();
        let health = HealthMonitor::with_registry(&registry);
        assert!(health.fail("run 1 fatal"));
        assert_eq!(registry.snapshot().gauge("health.state"), Some(2));
        health.reset();
        assert_eq!(health.state(), Health::Healthy);
        assert_eq!(registry.snapshot().gauge("health.state"), Some(0));
        // The ladder is re-armed: the same climb fires again from the
        // bottom, not swallowed by the previous run's Failed state.
        assert!(health.degrade("run 2 absorb"));
        assert_eq!(health.state(), Health::Degraded);
        assert_eq!(registry.snapshot().gauge("health.state"), Some(1));
        assert!(health.fail("run 2 fatal"));
        assert_eq!(registry.snapshot().gauge("health.state"), Some(2));
        assert_eq!(health.reasons(), vec!["run 2 absorb", "run 2 fatal"]);
    }

    #[test]
    fn repeated_same_state_absorbs_do_not_reemit_gauge() {
        let registry = Registry::new();
        let health = HealthMonitor::with_registry(&registry);
        assert!(health.degrade("first absorb"), "rise emits");
        assert!(!health.degrade("second absorb"), "repeat does not");
        assert!(!health.degrade("third absorb"));
        // Reasons still accumulate — only the gauge transition is
        // deduplicated.
        assert_eq!(health.reasons().len(), 3);
        assert_eq!(registry.snapshot().gauge("health.state"), Some(1));
        assert!(health.fail("escalate"), "a genuine rise still emits");
        assert!(!health.degrade("late absorb"), "below current state");
        assert_eq!(registry.snapshot().gauge("health.state"), Some(2));
    }
}
