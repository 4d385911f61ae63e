//! The MonitorRuntime equivalence contract, end to end: an interleaved
//! multi-app, multi-session stream — including a mid-stream profile
//! hot-swap — must produce, at any thread count, exactly the per-session
//! verdicts of scoring each de-interleaved trace in isolation against the
//! profile epoch the session was pinned to. Plus regression pins for audit
//! sequence determinism under injected faults and for eviction determinism
//! across thread counts.

use adprom::core::resilience::sites;
use adprom::core::{
    Alphabet, FaultKind, FaultPlan, MonitorRuntime, Profile, ProfileRegistry, RuntimeConfig,
    ScoringMode, SessionEnd, Trigger, WindowScorer,
};
use adprom::hmm::Hmm;
use adprom::lang::{CallSiteId, LibCall};
use adprom::obs::{AuditLog, MemoryAuditSink, Registry};
use adprom::trace::{interleave, CallEvent, TaggedCall};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Injected panics are expected; keep their backtraces out of the output.
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

/// The cyclic a→b→c toy profile, parameterized by app name and threshold
/// so each "application" (and each hot-swap epoch) is distinguishable.
fn cyclic_profile(app: &str, threshold: f64) -> Profile {
    ring_profile(app, threshold, [1, 2, 0])
}

/// The same alphabet and threshold with the cycle reversed (a→c→b): a
/// different transition matrix, so every window scores differently than
/// under [`cyclic_profile`].
fn reversed_profile(app: &str, threshold: f64) -> Profile {
    ring_profile(app, threshold, [2, 0, 1])
}

/// A three-call ring profile: call `i` is followed by call `next[i]`.
fn ring_profile(app: &str, threshold: f64, next: [usize; 3]) -> Profile {
    let alphabet = Alphabet::new(vec!["a".to_string(), "b".to_string(), "c_Q7".to_string()]);
    let m = alphabet.len();
    let mut a = vec![vec![0.001; m]; m];
    for (i, &j) in next.iter().enumerate() {
        a[i][j] = 1.0;
    }
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

/// One random session trace: 1–11 calls drawn from the alphabet plus an
/// out-of-vocabulary name, some issued by an untrained caller.
fn arb_trace() -> impl Strategy<Value = Vec<CallEvent>> {
    const NAMES: [&str; 4] = ["a", "b", "c_Q7", "evil_exfil"];
    prop::collection::vec((0usize..NAMES.len(), any::<bool>()), 1..12).prop_map(|calls| {
        calls
            .into_iter()
            .map(|(pick, attacker)| {
                event(
                    NAMES[pick],
                    if attacker {
                        "attacker_function"
                    } else {
                        "main"
                    },
                )
            })
            .collect()
    })
}

/// Random multi-app session sets: 1–3 sessions each for two apps.
fn arb_sessions() -> impl Strategy<Value = Vec<(String, String, Vec<CallEvent>)>> {
    (
        prop::collection::vec(arb_trace(), 1..4),
        prop::collection::vec(arb_trace(), 1..4),
    )
        .prop_map(|(bank, shop)| {
            let mut sessions = Vec::new();
            for (i, trace) in bank.into_iter().enumerate() {
                sessions.push(("bank".to_string(), format!("b-{i}"), trace));
            }
            for (i, trace) in shop.into_iter().enumerate() {
                sessions.push(("shop".to_string(), format!("s-{i}"), trace));
            }
            sessions
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract. For every random interleaving, swap point,
    /// scoring mode, and thread count ∈ {1, 4, 8}: each session's alerts
    /// are bit-identical (Debug-formatted) to scanning its de-interleaved
    /// trace with a standalone scorer over the profile epoch pinned at the
    /// session's first event — epoch 1 for sessions opened before the
    /// mid-stream hot-swap, epoch 2 after. The swapped-in epoch either
    /// moves only the threshold or rewires the transition matrix, so a
    /// window-score memo shared across epochs would show.
    #[test]
    fn interleaved_runtime_matches_isolated_scans_across_threads_and_swap(
        sessions in arb_sessions(),
        seed in any::<u64>(),
        swap_pct in 0usize..=100,
        incremental in any::<bool>(),
        rewire in any::<bool>(),
    ) {
        let stream = interleave(&sessions, seed);
        let swap_at = stream.len() * swap_pct / 100;
        let mode = if incremental { ScoringMode::Incremental } else { ScoringMode::ExactWindows };

        let bank_v1 = cyclic_profile("bank", -5.0);
        let bank_v2 = if rewire {
            reversed_profile("bank", -5.0)
        } else {
            cyclic_profile("bank", 0.0) // flags everything
        };
        let shop_v1 = cyclic_profile("shop", -1.0);

        // Serial reference: each session scored in isolation against its
        // pinned epoch's profile.
        let expected: BTreeMap<(String, String), (u64, String)> = sessions
            .iter()
            .map(|(app, session, trace)| {
                let first = stream
                    .iter()
                    .position(|t| t.app == *app && t.session == *session)
                    .expect("session appears");
                let (epoch, profile) = if app == "bank" && first >= swap_at {
                    (2, &bank_v2)
                } else if app == "bank" {
                    (1, &bank_v1)
                } else {
                    (1, &shop_v1)
                };
                let scorer = WindowScorer::new(Arc::new(profile.clone()));
                let alerts = match mode {
                    ScoringMode::ExactWindows => scorer.scan(trace, session),
                    ScoringMode::Incremental => scorer.scan_incremental(trace, session).0,
                };
                ((app.clone(), session.clone()), (epoch, format!("{alerts:?}")))
            })
            .collect();

        for threads in [1usize, 4, 8] {
            let registry = ProfileRegistry::new();
            registry.register("bank", bank_v1.clone()).unwrap();
            registry.register("shop", shop_v1.clone()).unwrap();
            let profiles = Arc::new(registry);
            let mut runtime = MonitorRuntime::new(Arc::clone(&profiles))
                .with_threads(threads)
                .with_config(RuntimeConfig {
                    mode,
                    queue_capacity: 3, // force many mid-stream flushes
                    ..RuntimeConfig::default()
                });
            runtime.ingest_stream(&stream[..swap_at]);
            profiles.register("bank", bank_v2.clone()).unwrap();
            runtime.ingest_stream(&stream[swap_at..]);
            let reports = runtime.finish();

            prop_assert_eq!(reports.len(), sessions.len(), "threads {}", threads);
            for report in &reports {
                let (epoch, alerts) = &expected[&(report.app.clone(), report.session.clone())];
                prop_assert_eq!(
                    report.epoch, *epoch,
                    "{}/{} pinned epoch (threads {})", report.app, report.session, threads
                );
                prop_assert_eq!(
                    &format!("{:?}", report.alerts), alerts,
                    "{}/{} alerts (threads {}, {:?})", report.app, report.session, threads, mode
                );
                prop_assert_eq!(&report.end, &SessionEnd::Finished);
            }
        }
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
    quiet_injected_panics();
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
