//! The MonitorRuntime equivalence contract, end to end: an interleaved
//! multi-app, multi-session stream — including a mid-stream profile
//! hot-swap — must produce, at any thread count, exactly the per-session
//! verdicts of scoring each de-interleaved trace in isolation against the
//! profile epoch the session was pinned to. Plus regression pins for audit
//! sequence determinism under injected faults and for eviction determinism
//! across thread counts.

mod fixtures;
mod oracle;

use adprom::core::resilience::sites;
use adprom::core::{
    FaultKind, FaultPlan, KernelConfig, MonitorRuntime, OverloadConfig, Profile, ProfileRegistry,
    RuntimeConfig, ScoringMode, SessionEnd, Trigger, WindowScorer,
};
use adprom::hmm::SparseConfig;
use adprom::obs::{AuditLog, MemoryAuditSink, Registry};
use adprom::trace::{interleave, CallEvent, TaggedCall};
use fixtures::{arb_sessions, cyclic_profile, event, ring_profile};
use oracle::Sweep;
use proptest::prelude::*;
use std::sync::Arc;

/// The same alphabet and threshold with the cycle reversed (a→c→b): a
/// different transition matrix, so every window scores differently than
/// under [`cyclic_profile`].
fn reversed_profile(app: &str, threshold: f64) -> Profile {
    ring_profile(app, threshold, [2, 0, 1])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract, through the verdict oracle. For every random
    /// interleaving, swap point, kernel, scoring mode and thread count
    /// ∈ {1, 4, 8}, with queue bound 3 forcing many mid-stream flushes:
    /// each session's alerts are bit-identical to scanning its
    /// de-interleaved trace alone against the profile epoch pinned at its
    /// first event — epoch 1 before the mid-stream hot-swap, epoch 2
    /// after. The swapped-in epoch either moves only the threshold or
    /// rewires the transition matrix, so a window-score memo shared across
    /// epochs would show. Worker panics keyed by session arrival and queue
    /// overflows every k-th event change no verdict.
    #[test]
    fn interleaved_runtime_matches_isolated_scans_across_threads_and_swap(
        sessions in arb_sessions(1..4),
        seed in any::<u64>(),
        swap_pct in 0usize..=100,
        rewire in any::<bool>(),
        panicked in prop::collection::vec(0u64..6, 1..3),
        overflow_every in 1u64..8,
    ) {
        let stream = interleave(&sessions, seed);
        let bank_v2 = if rewire {
            reversed_profile("bank", -5.0)
        } else {
            cyclic_profile("bank", 0.0) // flags everything
        };
        let panics = FaultPlan::new(seed).inject(
            sites::MONITOR_SWAP,
            FaultKind::Panic,
            Trigger::OnceForKeys(panicked.into_iter().collect()),
        );
        let overflows = FaultPlan::new(seed).inject(
            sites::MONITOR_QUEUE_OVERFLOW,
            FaultKind::QueueOverflow,
            Trigger::EveryNth(overflow_every),
        );
        oracle::check(&Sweep {
            profiles: &[
                ("bank", cyclic_profile("bank", -5.0)),
                ("shop", cyclic_profile("shop", -1.0)),
            ],
            stream: &stream,
            swap: Some((stream.len() * swap_pct / 100, "bank", &bank_v2)),
            shards: &[],
            threads: &[1, 4, 8],
            kernels: &[KernelConfig::Dense, KernelConfig::Sparse { sparse: SparseConfig::default() }],
            modes: &[ScoringMode::ExactWindows, ScoringMode::Incremental],
            queue_capacity: 3,
            faults: &[FaultPlan::disabled(), panics, overflows],
            forensics: &[false],
            overloads: &[OverloadConfig::default()],
        })?;
    }
}

/// Audit sequence numbers (and the app/session/epoch stamps) must be
/// identical at any thread count, even with an injected worker panic that
/// forces a retried flush — the regression pin for the runtime half of
/// the deterministic-audit guarantee.
#[test]
fn runtime_audit_sequence_is_deterministic_under_faults_and_threads() {
    /// (seq, app, session, epoch, flag) — the audit-visible identity of
    /// one record.
    type AuditRow = (u64, String, String, u64, String);
    oracle::quiet_injected_panics();
    let make_stream = || -> Vec<TaggedCall> {
        // Three sessions; threshold 0.0 flags every window, so every
        // window lands in the audit log.
        let sessions = vec![
            (
                "bank".to_string(),
                "s-0".to_string(),
                vec![
                    event("a", "main"),
                    event("b", "main"),
                    event("c_Q7", "main"),
                ],
            ),
            (
                "bank".to_string(),
                "s-1".to_string(),
                vec![event("b", "main"), event("a", "main"), event("a", "main")],
            ),
            (
                "bank".to_string(),
                "s-2".to_string(),
                vec![event("a", "main"), event("evil_exfil", "main")],
            ),
        ];
        interleave(&sessions, 0xA11D)
    };

    let mut baseline: Option<(Vec<AuditRow>, u64, u64)> = None;
    for threads in [1usize, 4, 8] {
        let registry = ProfileRegistry::new();
        registry
            .register("bank", cyclic_profile("bank", 0.0))
            .unwrap();
        let obs = Registry::new();
        let sink = Arc::new(MemoryAuditSink::new());
        let audit = Arc::new(AuditLog::new(sink.clone()));
        let injector = FaultPlan::new(21)
            .inject(
                sites::MONITOR_SWAP,
                FaultKind::Panic,
                Trigger::OnceForKeys([1u64].into()),
            )
            .arm();
        let mut runtime = MonitorRuntime::new(Arc::new(registry))
            .with_threads(threads)
            .with_registry(&obs)
            .with_audit(audit)
            .with_faults(&injector);
        runtime.ingest_stream(&make_stream());
        let reports = runtime.finish();
        assert_eq!(
            injector.injected(sites::MONITOR_SWAP),
            1,
            "threads {threads}"
        );

        let got: Vec<AuditRow> = sink
            .records()
            .iter()
            .map(|r| {
                (
                    r.seq,
                    r.app.clone(),
                    r.session.clone(),
                    r.epoch,
                    r.flag.clone(),
                )
            })
            .collect();
        // Sequence numbers are gapless from 0, and every record carries
        // the app + pinned epoch.
        for (i, record) in got.iter().enumerate() {
            assert_eq!(record.0, i as u64, "threads {threads}");
            assert_eq!(record.1, "bank");
            assert_eq!(record.3, 1);
        }
        let alarm_total: usize = reports.iter().map(|r| r.alarms().count()).sum();
        assert_eq!(got.len(), alarm_total, "threads {threads}");
        assert!(alarm_total > 0, "flag-everything threshold must alarm");
        // Memo counters come from the committed outcome only: the retried
        // replay of s-1 counts once. s-0 and s-1 each score one distinct
        // full window; s-2 never fills one.
        let snap = obs.snapshot();
        let hits = snap.counter("monitor.memo.hits").unwrap();
        let misses = snap.counter("monitor.memo.misses").unwrap();
        assert_eq!((hits, misses), (0, 2), "threads {threads}");
        let run = (got, hits, misses);
        match &baseline {
            None => baseline = Some(run),
            Some(expected) => assert_eq!(&run, expected, "threads {threads}"),
        }
    }
}

/// The window-score memo is per pinned epoch: sessions on both sides of a
/// hot-swap that rewires the transition matrix issue the very same
/// windows, yet each must score them on its own epoch. The stream repeats
/// its windows across many small flushes, so every thread count serves
/// most windows from the memo — and must still match the isolated scans.
#[test]
fn memo_is_isolated_per_epoch_and_serves_repeats_at_any_thread_count() {
    let trace = || {
        ["a", "b", "c_Q7", "a", "b", "c_Q7", "a", "b"]
            .iter()
            .map(|n| event(n, "main"))
            .collect::<Vec<_>>()
    };
    let sessions = |prefix: &str| -> Vec<(String, String, Vec<CallEvent>)> {
        (0..6)
            .map(|i| ("bank".to_string(), format!("{prefix}-{i}"), trace()))
            .collect()
    };
    let before = interleave(&sessions("old"), 0x0E90);
    let after = interleave(&sessions("new"), 0x0E91);
    let v1 = WindowScorer::new(Arc::new(cyclic_profile("bank", -5.0)));
    let v2 = WindowScorer::new(Arc::new(reversed_profile("bank", -5.0)));
    let (old_alerts, new_alerts) = (v1.scan(&trace(), ""), v2.scan(&trace(), ""));
    assert!(
        old_alerts
            .iter()
            .zip(&new_alerts)
            .all(|(a, b)| a.window == b.window && a.log_likelihood != b.log_likelihood),
        "shared windows must score differently on the two epochs"
    );

    let mut baseline: Option<(String, u64, u64)> = None;
    for threads in [1usize, 4, 8] {
        let registry = ProfileRegistry::new();
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        let profiles = Arc::new(registry);
        let obs = Registry::new();
        let mut runtime = MonitorRuntime::new(Arc::clone(&profiles))
            .with_threads(threads)
            .with_registry(&obs)
            .with_config(RuntimeConfig {
                queue_capacity: 4,
                ..RuntimeConfig::default()
            });
        runtime.ingest_stream(&before);
        profiles
            .register("bank", reversed_profile("bank", -5.0))
            .unwrap();
        runtime.ingest_stream(&after);
        let reports = runtime.finish();
        assert_eq!(reports.len(), 12);
        for report in &reports {
            let (epoch, scorer) = if report.session.starts_with("old") {
                (1, &v1)
            } else {
                (2, &v2)
            };
            assert_eq!(
                report.epoch, epoch,
                "{} (threads {threads})",
                report.session
            );
            assert_eq!(
                format!("{:?}", report.alerts),
                format!("{:?}", scorer.scan(&trace(), &report.session)),
                "{} (threads {threads})",
                report.session
            );
        }
        let snap = obs.snapshot();
        let hits = snap.counter("monitor.memo.hits").unwrap();
        let misses = snap.counter("monitor.memo.misses").unwrap();
        assert!(hits > 0, "threads {threads}: the memo served no window");
        assert_eq!(
            Some(hits + misses),
            snap.counter("detect.windows_scored"),
            "threads {threads}"
        );
        let run = (format!("{reports:?}"), hits, misses);
        match &baseline {
            None => baseline = Some(run),
            Some(expected) => assert_eq!(&run, expected, "threads {threads}"),
        }
    }
}

/// Eviction decisions ride the serial ingest clock, so a capacity-bound
/// runtime must produce identical reports (ends, event counts, alerts) at
/// any thread count.
#[test]
fn eviction_under_pressure_is_thread_count_independent() {
    let sessions: Vec<(String, String, Vec<CallEvent>)> = (0..6)
        .map(|i| {
            (
                "bank".to_string(),
                format!("s-{i}"),
                vec![
                    event("a", "main"),
                    event("b", "main"),
                    event("c_Q7", "main"),
                    event("a", "main"),
                ],
            )
        })
        .collect();
    let stream = interleave(&sessions, 0xE71C);

    let mut baseline: Option<String> = None;
    for threads in [1usize, 4, 8] {
        let registry = ProfileRegistry::new();
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        let mut runtime = MonitorRuntime::new(Arc::new(registry))
            .with_threads(threads)
            .with_config(RuntimeConfig {
                max_sessions: 2,
                queue_capacity: 4,
                ..RuntimeConfig::default()
            });
        runtime.ingest_stream(&stream);
        let reports = runtime.finish();
        assert!(
            reports.iter().any(|r| r.end == SessionEnd::PressureEvicted),
            "six sessions through a two-slot table must evict"
        );
        let rendered = format!("{reports:?}");
        match &baseline {
            None => baseline = Some(rendered),
            Some(expected) => assert_eq!(&rendered, expected, "threads {threads}"),
        }
    }
}
