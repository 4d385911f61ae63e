//! The runtime's verdict contract, stated once as a differential check.
//!
//! AD-PROM flags an n-call window when its HMM likelihood falls below the
//! profile threshold, so a session's verdict is a function of the profile
//! and the call stream alone. [`check`] replays one interleaved stream
//! through every configuration of a [`Sweep`] and holds each run against
//! a serial reference: a standalone dense-f64 [`WindowScorer`] scanning
//! each de-interleaved session against the profile epoch in force at the
//! session's first event.
//!
//! Audit, forensics and fault injection exist only on [`MonitorRuntime`],
//! so every runtime run carries an audit log and those dimensions run
//! there; [`ShardedMonitor`] runs at each listed shard count under all
//! three drives. Eviction, idle timeout and `DropNewest` shedding change
//! which windows a session scores, so they are outside the contract.

use adprom::core::resilience::sites;
use adprom::core::{
    encode_stream, shard_for, Alert, FaultPlan, ForensicsConfig, KernelConfig, MonitorRuntime,
    OverloadConfig, Profile, ProfileRegistry, RetryPolicy, RuntimeConfig, ScoringMode, ScoringTier,
    SessionEnd, SessionReport, ShardedMonitor, ShedPolicy, WindowScorer,
};
use adprom::obs::{AuditLog, AuditRecord, MemoryAuditSink, MetricsSnapshot, Registry};
use adprom::trace::{CallEvent, TaggedCall};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Duration;

/// Events per ADP1 frame when a run drives `ingest_frames`.
const FRAME_RECORDS: usize = 8;

/// One slice of the runtime's configuration space: the stream and
/// profiles every configuration replays, and the values each dimension
/// takes. [`check`] runs every combination.
pub struct Sweep<'a> {
    /// Each app's profile, published as epoch 1 before the stream starts.
    pub profiles: &'a [(&'a str, Profile)],
    /// The interleaved multi-session stream.
    pub stream: &'a [TaggedCall],
    /// A mid-stream hot-swap `(cut, app, profile)`: `app`'s epoch 2 is
    /// published just before `stream[cut]` arrives.
    pub swap: Option<(usize, &'a str, &'a Profile)>,
    /// Shard counts of the `ShardedMonitor` runs, each driven by
    /// `ingest_stream`, `ingest_stream_parallel` and `ingest_frames`.
    pub shards: &'a [usize],
    /// Scoring threads of each runtime (of each shard).
    pub threads: &'a [usize],
    /// Kernels every epoch is registered with.
    pub kernels: &'a [KernelConfig],
    /// Scoring modes.
    pub modes: &'a [ScoringMode],
    /// Soft flush bound ([`RuntimeConfig::queue_capacity`]).
    pub queue_capacity: usize,
    /// Fault plans armed on the `MonitorRuntime` runs
    /// ([`FaultPlan::disabled`] for none).
    pub faults: &'a [FaultPlan],
    /// Whether the `MonitorRuntime` runs arm forensics.
    pub forensics: &'a [bool],
    /// Overload controls: the default is off, anything else must use
    /// [`ShedPolicy::Backpressure`].
    pub overloads: &'a [OverloadConfig],
}

/// Replays `sweep.stream` through every configuration of `sweep` and
/// checks each run against the reference:
///
/// * every scoring mode scores the same windows of each session;
/// * one report per session, finished at its pinned epoch, with every
///   event counted — merged shard-major, first arrival within a shard;
/// * alerts `Debug`-identical to the reference scan (under a sparse
///   kernel, to a sparse serial scan whose flags and windows equal the
///   dense scan's and whose scores are within 1e-9); with an overload
///   budget, an in-order subsequence of it with the same alarm windows,
///   each alarmed session ending at the full tier, and the queue never
///   above the hard bound;
/// * framed ingest decodes every frame and admits every event;
/// * per `MonitorRuntime` run: every injected panic recovered, one audit
///   row per alarm, and each forensic report explaining its alarm;
/// * reports and memo counts identical across thread counts and with
///   forensics on or off, audit rows identical across thread counts, and
///   sharded reports identical across thread counts and drives.
pub fn check(sweep: &Sweep) -> Result<(), String> {
    quiet_injected_panics();
    let sessions = sessions(sweep.stream);
    for &kernel in sweep.kernels {
        // The modes differ in scores, never in which windows they score.
        let mut windows: Option<Vec<Vec<Vec<String>>>> = None;
        for &mode in sweep.modes {
            let expected = reference(sweep, &sessions, kernel, mode)?;
            let scored = expected
                .iter()
                .map(|(_, alerts)| alerts.iter().map(|a| a.window.clone()).collect());
            same(&mut windows, scored.collect())?;
            for &overload in sweep.overloads {
                prop_assert_eq!(overload.shed_policy, ShedPolicy::Backpressure);
                let config = RuntimeConfig {
                    mode,
                    max_sessions: 0,
                    queue_capacity: sweep.queue_capacity,
                    overload,
                    ..RuntimeConfig::default()
                };
                let truth = Truth {
                    sessions: &sessions,
                    expected: &expected,
                    overload,
                };
                let at = format!("{kernel:?} {mode:?} {overload:?}");
                check_runtime(sweep, kernel, &config, &truth).map_err(|e| format!("{at}: {e}"))?;
                check_sharded(sweep, kernel, &config, &truth).map_err(|e| format!("{at}: {e}"))?;
            }
        }
    }
    Ok(())
}

/// A session on the stream: its id, the index of its first event, and
/// its de-interleaved trace.
struct Session {
    app: String,
    session: String,
    first: usize,
    trace: Vec<CallEvent>,
}

/// What every run of one (kernel, mode, overload) point must reproduce.
struct Truth<'s> {
    sessions: &'s [Session],
    /// Each session's pinned epoch and reference alerts.
    expected: &'s [(u64, Vec<Alert>)],
    overload: OverloadConfig,
}

/// The stream's sessions in first-arrival order.
fn sessions(stream: &[TaggedCall]) -> Vec<Session> {
    let mut index: HashMap<(&str, &str), usize> = HashMap::new();
    let mut sessions: Vec<Session> = Vec::new();
    for (i, tagged) in stream.iter().enumerate() {
        let at = *index
            .entry((tagged.app.as_str(), tagged.session.as_str()))
            .or_insert_with(|| {
                sessions.push(Session {
                    app: tagged.app.clone(),
                    session: tagged.session.clone(),
                    first: i,
                    trace: Vec::new(),
                });
                sessions.len() - 1
            });
        sessions[at].trace.push(tagged.event.clone());
    }
    sessions
}

/// Each session's pinned epoch and its serial scan on that epoch's
/// profile under `kernel` and `mode`, checked against the dense scan.
fn reference(
    sweep: &Sweep,
    sessions: &[Session],
    kernel: KernelConfig,
    mode: ScoringMode,
) -> Result<Vec<(u64, Vec<Alert>)>, String> {
    // Each (app, epoch)'s dense scorer and its scorer under `kernel`.
    let epochs: Vec<(&str, u64, WindowScorer, WindowScorer)> = sweep
        .profiles
        .iter()
        .map(|(app, profile)| (*app, 1, profile))
        .chain(sweep.swap.map(|(_, app, profile)| (app, 2, profile)))
        .map(|(app, epoch, profile)| {
            let dense = WindowScorer::new(Arc::new(profile.clone()));
            (app, epoch, dense.clone(), dense.with_kernel(kernel))
        })
        .collect();
    let scan = |scorer: &WindowScorer, s: &Session| match mode {
        ScoringMode::ExactWindows => scorer.scan(&s.trace, &s.session),
        ScoringMode::Incremental => scorer.scan_incremental(&s.trace, &s.session).0,
    };
    let mut expected = Vec::with_capacity(sessions.len());
    for s in sessions {
        let epoch = match sweep.swap {
            Some((cut, app, _)) if app == s.app && s.first >= cut => 2,
            _ => 1,
        };
        let Some((.., dense, kerneled)) = epochs.iter().find(|e| e.0 == s.app && e.1 == epoch)
        else {
            return Err(format!("no profile for {}", s.app));
        };
        let alerts = scan(kerneled, s);
        if !matches!(kernel, KernelConfig::Dense) {
            let dense = scan(dense, s);
            prop_assert_eq!(alerts.len(), dense.len(), "{}/{}", s.app, s.session);
            for (k, d) in alerts.iter().zip(&dense) {
                let who = format!("{}/{}", s.app, s.session);
                prop_assert_eq!((k.flag, &k.window), (d.flag, &d.window), "{}", who);
                prop_assert!(
                    (k.log_likelihood - d.log_likelihood).abs() < 1e-9,
                    "{}: {} vs dense {}",
                    who,
                    k.log_likelihood,
                    d.log_likelihood
                );
            }
        }
        expected.push((epoch, alerts));
    }
    Ok(expected)
}

/// Every `MonitorRuntime` run of one point: fault plans × forensics ×
/// threads.
fn check_runtime(
    sweep: &Sweep,
    kernel: KernelConfig,
    config: &RuntimeConfig,
    truth: &Truth,
) -> Result<(), String> {
    let order = merge_order(truth.sessions, 1);
    for plan in sweep.faults {
        let mut outcome = None;
        for &forensics in sweep.forensics {
            let mut rows: Option<Vec<String>> = None;
            for &threads in sweep.threads {
                let at = format!("runtime, {threads} threads, forensics {forensics}, {plan:?}");
                let run = run_runtime(sweep, kernel, config, threads, plan, forensics)?;
                check_reports(&run.reports, &order, truth, &run.metrics)
                    .and_then(|()| check_audit(&run, config, forensics))
                    .and_then(|()| {
                        let memo = ["monitor.memo.hits", "monitor.memo.misses"]
                            .map(|name| run.metrics.counter(name));
                        same(&mut outcome, (format!("{:?}", run.reports), memo))?;
                        same(
                            &mut rows,
                            run.audit.iter().map(AuditRecord::to_jsonl).collect(),
                        )
                    })
                    .map_err(|e| format!("{at}: {e}"))?;
            }
        }
    }
    Ok(())
}

/// Every `ShardedMonitor` run of one point: shards × threads × drives.
fn check_sharded(
    sweep: &Sweep,
    kernel: KernelConfig,
    config: &RuntimeConfig,
    truth: &Truth,
) -> Result<(), String> {
    for &shards in sweep.shards {
        let order = merge_order(truth.sessions, shards);
        let mut outcome = None;
        for &threads in sweep.threads {
            for drive in [Drive::Stream, Drive::Parallel, Drive::Frames] {
                let at = format!("{shards} shards, {threads} threads, {drive:?}");
                run_sharded(sweep, kernel, config, shards, threads, drive)
                    .and_then(|(reports, metrics)| {
                        check_reports(&reports, &order, truth, &metrics)?;
                        same(&mut outcome, format!("{reports:?}"))
                    })
                    .map_err(|e| format!("{at}: {e}"))?;
            }
        }
    }
    Ok(())
}

/// How a `ShardedMonitor` run takes the stream.
#[derive(Debug, Clone, Copy)]
enum Drive {
    Stream,
    Parallel,
    Frames,
}

/// What one `MonitorRuntime` run left behind.
struct Run {
    reports: Vec<SessionReport>,
    audit: Vec<AuditRecord>,
    metrics: MetricsSnapshot,
    /// Worker panics the fault plan injected.
    panics: u64,
}

/// The registry every run starts from: each app's epoch 1.
fn registry(sweep: &Sweep, kernel: KernelConfig) -> Result<Arc<ProfileRegistry>, String> {
    let profiles = ProfileRegistry::new().with_kernel(kernel);
    for (app, profile) in sweep.profiles {
        profiles
            .register(app, profile.clone())
            .map_err(|e| e.to_string())?;
    }
    Ok(Arc::new(profiles))
}

/// The stream before and after the swap point.
fn halves<'a>(sweep: &Sweep<'a>) -> (&'a [TaggedCall], &'a [TaggedCall]) {
    let cut = sweep.swap.map_or(sweep.stream.len(), |(cut, ..)| cut);
    sweep.stream.split_at(cut)
}

fn run_runtime(
    sweep: &Sweep,
    kernel: KernelConfig,
    config: &RuntimeConfig,
    threads: usize,
    plan: &FaultPlan,
    forensics: bool,
) -> Result<Run, String> {
    let profiles = registry(sweep, kernel)?;
    let obs = Registry::new();
    let sink = Arc::new(MemoryAuditSink::new());
    let injector = plan.arm();
    let mut runtime = MonitorRuntime::new(Arc::clone(&profiles))
        .with_config(config.clone())
        .with_threads(threads)
        .with_registry(&obs)
        .with_audit(Arc::new(AuditLog::new(sink.clone())))
        .with_faults(&injector)
        .with_retry(RetryPolicy {
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        });
    if forensics {
        runtime = runtime.with_forensics(ForensicsConfig::default());
    }
    let (head, tail) = halves(sweep);
    runtime.ingest_stream(head);
    if let Some((_, app, profile)) = sweep.swap {
        // Sessions pin their epoch at ingest, so a bare publish is the
        // service's flush-then-publish barrier.
        profiles
            .register(app, profile.clone())
            .map_err(|e| e.to_string())?;
    }
    runtime.ingest_stream(tail);
    Ok(Run {
        reports: runtime.finish(),
        audit: sink.records(),
        metrics: obs.snapshot(),
        panics: injector.injected(sites::MONITOR_SWAP),
    })
}

fn run_sharded(
    sweep: &Sweep,
    kernel: KernelConfig,
    config: &RuntimeConfig,
    shards: usize,
    threads: usize,
    drive: Drive,
) -> Result<(Vec<SessionReport>, MetricsSnapshot), String> {
    let obs = Registry::new();
    let mut service = ShardedMonitor::new(registry(sweep, kernel)?, shards)
        .with_config(config.clone())
        .with_threads(threads)
        .with_registry(&obs);
    let (head, tail) = halves(sweep);
    for (part, swap) in [(head, None), (tail, sweep.swap)] {
        if let Some((_, app, profile)) = swap {
            service
                .swap_profile(app, profile.clone())
                .map_err(|e| e.to_string())?;
        }
        match drive {
            Drive::Stream => service.ingest_stream(part),
            Drive::Parallel => service.ingest_stream_parallel(part),
            Drive::Frames => {
                let ingest = service.ingest_frames(&encode_stream(part, FRAME_RECORDS));
                prop_assert_eq!(ingest.frames, part.len().div_ceil(FRAME_RECORDS));
                prop_assert!(
                    ingest.frame_defects.is_empty() && ingest.quarantined.is_empty(),
                    "{ingest:?}"
                );
                prop_assert_eq!(ingest.admitted, part.len(), "every event admitted");
            }
        }
    }
    Ok((service.finish(), obs.snapshot()))
}

/// Session indices in `ShardedMonitor::finish` order: shard-major, first
/// arrival within a shard (one shard is the runtime's arrival order).
fn merge_order(sessions: &[Session], shards: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..sessions.len()).collect();
    order.sort_by_key(|&i| shard_for(&sessions[i].app, &sessions[i].session, shards));
    order
}

/// One run's reports against the reference, in the expected order.
fn check_reports(
    reports: &[SessionReport],
    order: &[usize],
    truth: &Truth,
    metrics: &MetricsSnapshot,
) -> Result<(), String> {
    prop_assert_eq!(reports.len(), order.len(), "one report per session");
    for (report, &i) in reports.iter().zip(order) {
        let (s, (epoch, alerts)) = (&truth.sessions[i], &truth.expected[i]);
        let who = format!("{}/{}", s.app, s.session);
        prop_assert_eq!(
            (&report.app, &report.session),
            (&s.app, &s.session),
            "merge order"
        );
        prop_assert_eq!(report.epoch, *epoch, "{} pinned epoch", who);
        prop_assert_eq!(&report.end, &SessionEnd::Finished, "{}", who);
        prop_assert_eq!(report.events, s.trace.len(), "{} events", who);
        if truth.overload.budget == 0 {
            prop_assert_eq!(
                format!("{:?}", report.alerts),
                format!("{alerts:?}"),
                "{} alerts",
                who
            );
            continue;
        }
        let mut rest = alerts.iter().map(|a| format!("{a:?}"));
        for alert in &report.alerts {
            let rendered = format!("{alert:?}");
            prop_assert!(
                rest.any(|a| a == rendered),
                "{}: {} is not an in-order subsequence of the reference",
                who,
                rendered
            );
        }
        prop_assert_eq!(
            alarm_windows(&report.alerts),
            alarm_windows(alerts),
            "{} alarm windows",
            who
        );
        if report.alarms().next().is_some() {
            prop_assert_eq!(report.tier, ScoringTier::Full, "{} alarmed below full", who);
        }
    }
    let high_water = metrics.gauge("monitor.queue.depth").unwrap_or(0);
    let bound = truth.overload.capacity;
    prop_assert!(
        bound == 0 || high_water <= bound as i64,
        "queue high-water {high_water} over the bound {bound}"
    );
    Ok(())
}

/// The sorted multiset of alarm windows: what recall is counted in.
fn alarm_windows(alerts: &[Alert]) -> Vec<&[String]> {
    let mut windows: Vec<&[String]> = alerts
        .iter()
        .filter(|a| a.is_alarm())
        .map(|a| a.window.as_slice())
        .collect();
    windows.sort();
    windows
}

/// A runtime run's fault recovery and audit trail: every injected panic
/// recovered, and per session one gapless audit row per alarm, in order,
/// each explained by its forensic report when forensics is armed.
fn check_audit(run: &Run, config: &RuntimeConfig, forensics: bool) -> Result<(), String> {
    let recovered = run.metrics.counter("resilience.traces_recovered");
    prop_assert_eq!(recovered.unwrap_or(0), run.panics, "recovered panics");
    let alarms: usize = run.reports.iter().map(|r| r.alarms().count()).sum();
    prop_assert_eq!(run.audit.len(), alarms, "one audit row per alarm");
    // The tier ladder runs only in incremental mode.
    let ladder = config.overload.budget > 0 && config.mode == ScoringMode::Incremental;
    for report in &run.reports {
        let rows: Vec<&AuditRecord> = run
            .audit
            .iter()
            .filter(|r| r.app == report.app && r.session == report.session)
            .collect();
        let who = format!("{}/{}", report.app, report.session);
        prop_assert_eq!(rows.len(), report.alarms().count(), "{} audit rows", who);
        for (row, alarm) in rows.into_iter().zip(report.alarms()) {
            prop_assert!(
                row.epoch == report.epoch
                    && row.window == alarm.window
                    && row.log_likelihood.to_bits() == alarm.log_likelihood.to_bits()
                    && row.flag == alarm.flag.to_string(),
                "{}: audit row {:?} for alarm {:?}",
                who,
                row,
                alarm
            );
            prop_assert!(!ladder || row.tier.is_some(), "audit row without its tier");
            prop_assert_eq!(row.forensics.is_some(), forensics, "forensics attached");
            if let Some(explained) = &row.forensics {
                prop_assert!(!explained.top_deviant.is_empty(), "empty top-k");
                prop_assert_eq!(
                    explained.alert_delta(),
                    Some(row.log_likelihood - row.threshold),
                    "the flight recorder missed the alerting window"
                );
                if config.mode == ScoringMode::ExactWindows {
                    prop_assert_eq!(
                        explained.attributed_log_likelihood.to_bits(),
                        row.log_likelihood.to_bits(),
                        "attribution of another likelihood"
                    );
                }
            }
        }
    }
    for (i, row) in run.audit.iter().enumerate() {
        prop_assert_eq!(row.seq, i as u64, "gapless audit sequence");
    }
    Ok(())
}

/// Records the first run of a group in `seen` and requires every later
/// run to match it.
fn same<T: PartialEq + Debug>(seen: &mut Option<T>, value: T) -> Result<(), String> {
    match seen {
        None => *seen = Some(value),
        Some(first) => prop_assert!(*first == value, "runs differ: {first:?} vs {value:?}"),
    }
    Ok(())
}

/// Injected panics are expected; keep their backtraces out of the output.
pub fn quiet_injected_panics() {
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
