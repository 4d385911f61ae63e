//! Pipeline instrumentation: pre-fetched metric handles for the hot
//! detection paths, and the Alert → audit-record bridge.
//!
//! Handles are acquired once (taking the registry's registration lock) and
//! cloned freely afterwards — clones share the underlying atomics, so a
//! monitor shard can hand one set of handles to every rayon worker. Everything defaults to the disabled
//! (no-op) state: a [`DetectionEngine`](crate::detect::DetectionEngine)
//! built without [`with_registry`](crate::detect::DetectionEngine::with_registry)
//! pays a single branch per update.

use crate::detect::{Alert, Flag};
use adprom_obs::{AuditRecord, Counter, Gauge, Histogram, Registry};

/// Metric handles for [`DetectionEngine`](crate::detect::DetectionEngine):
/// one counter per flag kind, the total window count, and the score
/// latency histogram.
#[derive(Debug, Clone, Default)]
pub struct DetectMetrics {
    /// `detect.windows_scored` — every window classified.
    pub windows_scored: Counter,
    /// `detect.flags.normal`.
    pub flags_normal: Counter,
    /// `detect.flags.anomalous`.
    pub flags_anomalous: Counter,
    /// `detect.flags.data_leak`.
    pub flags_data_leak: Counter,
    /// `detect.flags.out_of_context`.
    pub flags_out_of_context: Counter,
    /// `detect.score_ns` — wall-clock nanoseconds of the per-window
    /// forward scoring pass (exact mode only; incremental scoring is
    /// per-event, timed per session replay by `monitor.stage.score_ns`).
    pub score_ns: Histogram,
    /// `detect.kernel.dense` — flagged windows scored by the dense O(N²)
    /// kernel.
    pub kernel_dense: Counter,
    /// `detect.kernel.sparse` — flagged windows scored by the exact sparse
    /// CSR kernel.
    pub kernel_sparse: Counter,
    /// `detect.kernel.batch_windows` — windows scored through the batched
    /// sparse kernel; `windows_scored` minus this is the lane-by-lane
    /// remainder (dense kernel, short windows).
    pub batch_windows: Counter,
    /// `monitor.tier.full.windows` — windows emitted by tier-armed
    /// sessions while assigned the full-incremental tier.
    pub tier_full_windows: Counter,
    /// `monitor.tier.spot.windows` — windows emitted under the
    /// spot-check tier (cadence checks plus danger escapes).
    pub tier_spot_windows: Counter,
    /// `monitor.tier.spot.skipped` — spot-check windows whose verdict was
    /// carried forward without emission (Normal: exact score at or above
    /// threshold and no out-of-context call).
    pub tier_spot_skipped: Counter,
    /// `monitor.tier.escalations` — self-escalations back to the full
    /// tier (an alarm raised below the full tier).
    pub tier_escalations: Counter,
}

impl DetectMetrics {
    /// All-no-op handles (the default).
    pub fn disabled() -> DetectMetrics {
        DetectMetrics::default()
    }

    /// Registers every handle against `registry`. Call once, outside the
    /// scoring loop.
    pub fn from_registry(registry: &Registry) -> DetectMetrics {
        DetectMetrics {
            windows_scored: registry.counter("detect.windows_scored"),
            flags_normal: registry.counter("detect.flags.normal"),
            flags_anomalous: registry.counter("detect.flags.anomalous"),
            flags_data_leak: registry.counter("detect.flags.data_leak"),
            flags_out_of_context: registry.counter("detect.flags.out_of_context"),
            score_ns: registry.histogram("detect.score_ns"),
            kernel_dense: registry.counter("detect.kernel.dense"),
            kernel_sparse: registry.counter("detect.kernel.sparse"),
            batch_windows: registry.counter("detect.kernel.batch_windows"),
            tier_full_windows: registry.counter("monitor.tier.full.windows"),
            tier_spot_windows: registry.counter("monitor.tier.spot.windows"),
            tier_spot_skipped: registry.counter("monitor.tier.spot.skipped"),
            tier_escalations: registry.counter("monitor.tier.escalations"),
        }
    }

    /// The counter for one flag kind.
    pub fn flag_counter(&self, flag: Flag) -> &Counter {
        match flag {
            Flag::Normal => &self.flags_normal,
            Flag::Anomalous => &self.flags_anomalous,
            Flag::DataLeak => &self.flags_data_leak,
            Flag::OutOfContext => &self.flags_out_of_context,
        }
    }
}

/// Metric handles for the resilience layer of a monitor shard: panic
/// isolation and bounded retry of per-session replays. Health itself lives in the
/// per-app [`HealthMonitor`](crate::resilience::HealthMonitor)s of the
/// [`ProfileRegistry`](crate::registry::ProfileRegistry).
#[derive(Debug, Clone, Default)]
pub struct ResilienceMetrics {
    /// `resilience.worker_panics` — scoring attempts that panicked and
    /// were caught.
    pub worker_panics: Counter,
    /// `resilience.trace_retries` — re-attempts after a caught panic.
    pub trace_retries: Counter,
    /// `resilience.traces_recovered` — session replays that succeeded on
    /// a retry.
    pub traces_recovered: Counter,
    /// `resilience.traces_failed` — session replays abandoned after
    /// exhausting retries (the session closes as failed).
    pub traces_failed: Counter,
}

impl ResilienceMetrics {
    /// All-no-op handles (the default).
    pub fn disabled() -> ResilienceMetrics {
        ResilienceMetrics::default()
    }

    /// Registers every handle against `registry`.
    pub fn from_registry(registry: &Registry) -> ResilienceMetrics {
        ResilienceMetrics {
            worker_panics: registry.counter("resilience.worker_panics"),
            trace_retries: registry.counter("resilience.trace_retries"),
            traces_recovered: registry.counter("resilience.traces_recovered"),
            traces_failed: registry.counter("resilience.traces_failed"),
        }
    }
}

/// Metric handles for
/// [`ProfileRegistry`](crate::registry::ProfileRegistry): tenant count and
/// hot-swap accounting.
#[derive(Debug, Clone, Default)]
pub struct RegistryMetrics {
    /// `registry.apps` — applications currently registered.
    pub apps: Gauge,
    /// `registry.swaps` — successful profile publications (first
    /// registration included).
    pub swaps: Counter,
    /// `registry.swaps_rejected` — hot-swaps refused by validation (the
    /// profile's, or the kernel's CSR build) or a failed load; the old
    /// epoch stayed in force.
    pub swaps_rejected: Counter,
}

impl RegistryMetrics {
    /// All-no-op handles (the default).
    pub fn disabled() -> RegistryMetrics {
        RegistryMetrics::default()
    }

    /// Registers every handle against `registry`.
    pub fn from_registry(registry: &Registry) -> RegistryMetrics {
        RegistryMetrics {
            apps: registry.gauge("registry.apps"),
            swaps: registry.counter("registry.swaps"),
            swaps_rejected: registry.counter("registry.swaps_rejected"),
        }
    }
}

/// Metric handles for the shards of
/// [`ShardedMonitor`](crate::shard::ShardedMonitor): session-table
/// occupancy, ingest queue depth, and eviction/swap accounting across the
/// interleaved stream.
#[derive(Debug, Clone, Default)]
pub struct MonitorMetrics {
    /// `monitor.sessions.active` — sessions currently resident in the
    /// session table (±1 deltas, so shards sharing a registry sum).
    pub sessions_active: Gauge,
    /// `monitor.sessions.opened` — sessions admitted to the table.
    pub sessions_opened: Counter,
    /// `monitor.sessions.finished` — sessions closed normally.
    pub sessions_finished: Counter,
    /// `monitor.queue.depth` — run-lifetime high-water mark of events
    /// buffered and not yet flushed through the scoring pool (recorded
    /// via [`Gauge::record_max`] so transient spikes between flushes are
    /// not hidden by a last-write-wins snapshot).
    pub queue_depth: Gauge,
    /// `monitor.events` — tagged events ingested.
    pub events: Counter,
    /// `monitor.evictions.lru` — sessions force-finalized because the
    /// session table hit its capacity bound.
    pub evictions_lru: Counter,
    /// `monitor.evictions.idle` — sessions finalized by the idle timeout.
    pub evictions_idle: Counter,
    /// `monitor.epoch_pins` — events scored against a pinned (superseded)
    /// epoch after a mid-stream hot-swap.
    pub epoch_pins: Counter,
    /// `monitor.flushes` — scoring-pool flushes (backpressure or final).
    pub flushes: Counter,
    /// `monitor.unknown_app` — events dropped because their app id has no
    /// registered profile.
    pub unknown_app: Counter,
    /// `monitor.stage.ingest_ns` — wall-clock nanoseconds per ingested
    /// event (digestion + session-table bookkeeping, excluding any
    /// backpressure flush it triggers).
    pub stage_ingest_ns: Histogram,
    /// `monitor.stage.score_ns` — wall-clock nanoseconds to replay one
    /// session's buffered batch through the scoring kernel (retries
    /// included).
    pub stage_score_ns: Histogram,
    /// `monitor.stage.commit_ns` — wall-clock nanoseconds to serially
    /// commit one replay outcome (audit writes included).
    pub stage_commit_ns: Histogram,
    /// `monitor.stage.finalize_ns` — wall-clock nanoseconds to close one
    /// session slot (short-window finalization + table removal).
    pub stage_finalize_ns: Histogram,
    /// `monitor.flush.batch_sessions` — session batches scored by the most
    /// recent flush.
    pub flush_batch_sessions: Gauge,
    /// `monitor.forensics.reports` — forensic reports drained from session
    /// flight recorders (0 while no session alarms, however many events
    /// flow — the benign-path no-allocation observable).
    pub forensics_reports: Counter,
    /// `monitor.tier.full.assigned` — risk-scheduler assignments to the
    /// full-incremental tier (one per session per re-evaluation).
    pub tier_full_assigned: Counter,
    /// `monitor.tier.spot.assigned` — assignments to the spot-check
    /// tier.
    pub tier_spot_assigned: Counter,
    /// `monitor.shed.events` — events dropped at the ingest boundary by
    /// the `DropNewest` shed policy while the queue sat at capacity.
    pub shed_events: Counter,
    /// `monitor.backpressure.flushes` — synchronous flushes forced at the
    /// ingest boundary because the bounded queue was full (the explicit
    /// backpressure signal: the caller stalls for one flush).
    pub backpressure_flushes: Counter,
    /// `monitor.overload.active` — 1 while the pending load exceeds the
    /// configured risk budget, 0 once a flush drains back under it (±1
    /// on episode edges, so over shards it counts those overloaded).
    pub overload_active: Gauge,
    /// `monitor.overload.episodes` — transitions from under-budget to
    /// over-budget (distinct overload episodes, not per-event).
    pub overload_episodes: Counter,
    /// `monitor.memo.hits` — exact-mode windows whose score came from the
    /// epoch's window-score memo or an earlier identical window of the
    /// same replay, with no kernel pass (counted at commit).
    pub memo_hits: Counter,
    /// `monitor.memo.misses` — exact-mode windows the kernel scored
    /// through the memo path: one per distinct window a replay found
    /// missing (counted at commit).
    pub memo_misses: Counter,
    /// `sliding.pushes` — events fed through the sliding scorers of closed
    /// sessions (incremental mode; 0 in exact mode).
    pub sliding_pushes: Counter,
    /// `sliding.reanchors` — exact-recompute fallbacks those sliding
    /// scorers took (0 for smoothed profiles).
    pub sliding_reanchors: Counter,
}

impl MonitorMetrics {
    /// All-no-op handles (the default).
    pub fn disabled() -> MonitorMetrics {
        MonitorMetrics::default()
    }

    /// Registers every handle against `registry`.
    pub fn from_registry(registry: &Registry) -> MonitorMetrics {
        MonitorMetrics {
            sessions_active: registry.gauge("monitor.sessions.active"),
            sessions_opened: registry.counter("monitor.sessions.opened"),
            sessions_finished: registry.counter("monitor.sessions.finished"),
            queue_depth: registry.gauge("monitor.queue.depth"),
            events: registry.counter("monitor.events"),
            evictions_lru: registry.counter("monitor.evictions.lru"),
            evictions_idle: registry.counter("monitor.evictions.idle"),
            epoch_pins: registry.counter("monitor.epoch_pins"),
            flushes: registry.counter("monitor.flushes"),
            unknown_app: registry.counter("monitor.unknown_app"),
            stage_ingest_ns: registry.histogram("monitor.stage.ingest_ns"),
            stage_score_ns: registry.histogram("monitor.stage.score_ns"),
            stage_commit_ns: registry.histogram("monitor.stage.commit_ns"),
            stage_finalize_ns: registry.histogram("monitor.stage.finalize_ns"),
            flush_batch_sessions: registry.gauge("monitor.flush.batch_sessions"),
            forensics_reports: registry.counter("monitor.forensics.reports"),
            tier_full_assigned: registry.counter("monitor.tier.full.assigned"),
            tier_spot_assigned: registry.counter("monitor.tier.spot.assigned"),
            shed_events: registry.counter("monitor.shed.events"),
            backpressure_flushes: registry.counter("monitor.backpressure.flushes"),
            overload_active: registry.gauge("monitor.overload.active"),
            overload_episodes: registry.counter("monitor.overload.episodes"),
            memo_hits: registry.counter("monitor.memo.hits"),
            memo_misses: registry.counter("monitor.memo.misses"),
            sliding_pushes: registry.counter("sliding.pushes"),
            sliding_reanchors: registry.counter("sliding.reanchors"),
        }
    }
}

/// Per-shard metric handles for
/// [`ShardedMonitor`](crate::shard::ShardedMonitor): what each shard's
/// ingest boundary did with the events routed to it. Registered as
/// `monitor.shard.<i>.{ingested,backpressured,shed}` so dashboards can
/// spot a hot or shedding shard that aggregate `monitor.*` counters
/// (shared by every shard's runtime) would average away.
#[derive(Debug, Clone, Default)]
pub struct ShardMetrics {
    /// `monitor.shard.<i>.ingested` — events admitted by this shard
    /// (normally or after a backpressure flush).
    pub ingested: Counter,
    /// `monitor.shard.<i>.backpressured` — events this shard admitted
    /// only after a forced synchronous flush.
    pub backpressured: Counter,
    /// `monitor.shard.<i>.shed` — events this shard dropped at capacity
    /// under [`ShedPolicy::DropNewest`](crate::runtime::ShedPolicy).
    pub shed: Counter,
}

impl ShardMetrics {
    /// All-no-op handles (the default).
    pub fn disabled() -> ShardMetrics {
        ShardMetrics::default()
    }

    /// Registers the family for shard `shard` against `registry`.
    pub fn from_registry(registry: &Registry, shard: usize) -> ShardMetrics {
        ShardMetrics {
            ingested: registry.counter(&format!("monitor.shard.{shard}.ingested")),
            backpressured: registry.counter(&format!("monitor.shard.{shard}.backpressured")),
            shed: registry.counter(&format!("monitor.shard.{shard}.shed")),
        }
    }
}

/// Per-frame stage histograms of
/// [`ShardedMonitor::ingest_frames`](crate::shard::ShardedMonitor::ingest_frames):
/// one sample per valid frame in each, from one clock read per stage, so
/// the framed path shows its own stage costs without a clock read per
/// record.
#[derive(Debug, Clone, Default)]
pub struct FrameMetrics {
    /// `wire.decode_ns` — decoding one valid frame (header, CRC, payload
    /// parse), including any defective frames the decoder skipped on the
    /// way to it.
    pub decode_ns: Histogram,
    /// `ingest.screen_ns` — screening every record of the frame through
    /// the trace validator.
    pub screen_ns: Histogram,
    /// `shard.route_ns` — hashing the frame's clean records to shards.
    pub route_ns: Histogram,
}

impl FrameMetrics {
    /// All-no-op handles (the default).
    pub fn disabled() -> FrameMetrics {
        FrameMetrics::default()
    }

    /// Registers the three histograms against `registry`.
    pub fn from_registry(registry: &Registry) -> FrameMetrics {
        FrameMetrics {
            decode_ns: registry.histogram("wire.decode_ns"),
            screen_ns: registry.histogram("ingest.screen_ns"),
            route_ns: registry.histogram("shard.route_ns"),
        }
    }
}

/// Converts a (non-Normal) alert into an audit record for `session`,
/// stamped with the scoring `kernel` that produced the window's score
/// (`dense` or `sparse`). The sequence number is assigned later
/// by [`AuditLog::record`](adprom_obs::AuditLog::record). For DataLeak
/// alerts the DDG label and block id are lifted from the window,
/// connecting the alert back to its data source.
pub fn audit_record_from_alert(alert: &Alert, session: &str, kernel: &str) -> AuditRecord {
    let label = if alert.flag == Flag::DataLeak {
        alert.window.iter().find(|n| n.contains("_Q")).cloned()
    } else {
        None
    };
    let bid = label
        .as_deref()
        .and_then(|l| l.rsplit("_Q").next())
        .map(str::to_string);
    AuditRecord {
        seq: 0,
        app: String::new(),
        session: session.to_string(),
        epoch: 0,
        flag: alert.flag.to_string(),
        window: alert.window.clone(),
        log_likelihood: alert.log_likelihood,
        threshold: alert.threshold,
        detail: alert.detail.clone(),
        kernel: kernel.to_string(),
        label,
        bid,
        forensics: None,
        tier: None,
        escalation: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(flag: Flag, window: &[&str]) -> Alert {
        Alert {
            flag,
            log_likelihood: -42.0,
            threshold: -30.0,
            window: window.iter().map(|s| s.to_string()).collect(),
            detail: "detail".to_string(),
        }
    }

    #[test]
    fn leak_alert_carries_label_and_bid() {
        let record = audit_record_from_alert(
            &alert(Flag::DataLeak, &["PQexec", "printf_Q6"]),
            "conn-3",
            "sparse",
        );
        assert_eq!(record.session, "conn-3");
        assert_eq!(record.flag, "DATA-LEAK");
        assert_eq!(record.kernel, "sparse");
        assert_eq!(record.label.as_deref(), Some("printf_Q6"));
        assert_eq!(record.bid.as_deref(), Some("6"));
    }

    #[test]
    fn non_leak_alert_has_no_label() {
        let record = audit_record_from_alert(&alert(Flag::Anomalous, &["a", "b"]), "", "dense");
        assert_eq!(record.flag, "ANOMALOUS");
        assert_eq!(record.kernel, "dense");
        assert_eq!(record.label, None);
        assert_eq!(record.bid, None);
    }

    #[test]
    fn flag_counters_are_distinct() {
        let registry = Registry::new();
        let metrics = DetectMetrics::from_registry(&registry);
        metrics.flag_counter(Flag::DataLeak).inc();
        metrics.flag_counter(Flag::Normal).add(2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("detect.flags.data_leak"), Some(1));
        assert_eq!(snap.counter("detect.flags.normal"), Some(2));
        assert_eq!(snap.counter("detect.flags.anomalous"), Some(0));
    }

    #[test]
    fn disabled_metrics_discard_updates() {
        let metrics = DetectMetrics::disabled();
        metrics.windows_scored.inc();
        assert_eq!(metrics.windows_scored.get(), 0);
        assert!(!metrics.score_ns.is_enabled());
        let monitor = MonitorMetrics::disabled();
        monitor.sliding_reanchors.add(5);
        assert_eq!(monitor.sliding_reanchors.get(), 0);
    }
}
