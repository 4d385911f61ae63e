//! The overload-control contract, end to end: a monitor running with a
//! hard ingest bound and a scoring budget far below its load must (1)
//! never hold more than `capacity` events buffered, (2) under
//! backpressure, emit only alerts the unconstrained monitor emits, in
//! its order and bit for bit, with exactly its alarms — any session that
//! alarms is escalated to and pinned at the full tier — and (3) make
//! every tier, shed, and audit decision on the serial ingest clock, so
//! histories are bit-identical at any thread count.

use adprom::core::{
    Alphabet, KernelConfig, MonitorRuntime, OverloadConfig, Profile, ProfileRegistry,
    RuntimeConfig, ScoringMode, ScoringTier, SessionEnd, SessionReport, ShedPolicy,
};
use adprom::hmm::{Hmm, SparseConfig};
use adprom::lang::{CallSiteId, LibCall};
use adprom::obs::{AuditLog, AuditRecord, MemoryAuditSink, Registry};
use adprom::trace::{interleave, CallEvent, TaggedCall};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn event(name: &str, caller: &str) -> CallEvent {
    CallEvent {
        name: name.into(),
        call: LibCall::Printf,
        caller: caller.into(),
        site: CallSiteId(0),
        detail: None,
    }
}

/// The cyclic a→b→c toy profile, parameterized by app name and threshold.
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

/// A two-app registry on the sparse kernel, the two apps at different
/// thresholds.
fn sparse_registry() -> Arc<ProfileRegistry> {
    let registry = ProfileRegistry::new().with_kernel(KernelConfig::Sparse {
        sparse: SparseConfig::default(),
    });
    registry
        .register("bank", cyclic_profile("bank", -5.0))
        .unwrap();
    registry
        .register("shop", cyclic_profile("shop", -1.0))
        .unwrap();
    Arc::new(registry)
}

/// A starved tier schedule: scoring budget of two events per flush against
/// a hard three-event ingest bound, with a sparse spot cadence — nearly
/// every session is demoted on nearly every flush.
fn starved_overload(shed_policy: ShedPolicy, capacity: usize) -> OverloadConfig {
    OverloadConfig {
        capacity,
        shed_policy,
        budget: 2,
        spot_every: 2,
    }
}

fn run_overloaded(
    stream: &[TaggedCall],
    threads: usize,
    overload: OverloadConfig,
) -> (Vec<SessionReport>, Vec<AuditRecord>, Registry) {
    let obs = Registry::new();
    let sink = Arc::new(MemoryAuditSink::new());
    let audit = Arc::new(AuditLog::new(sink.clone()));
    let mut runtime = MonitorRuntime::new(sparse_registry())
        .with_threads(threads)
        .with_registry(&obs)
        .with_audit(audit)
        .with_config(RuntimeConfig {
            mode: ScoringMode::Incremental,
            overload,
            ..RuntimeConfig::default()
        });
    runtime.ingest_stream(stream);
    (runtime.finish(), sink.records(), obs)
}

/// The multiset of alarm windows in one report — the recall currency: an
/// overloaded backpressure run alarms exactly the baseline's windows.
fn alarm_windows(report: &SessionReport) -> Vec<Vec<String>> {
    let mut windows: Vec<Vec<String>> = report.alarms().map(|a| a.window.clone()).collect();
    windows.sort();
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The starvation-floor contract. For every random interleaving, an
    /// overloaded backpressure monitor (budget 2, capacity 3) at threads
    /// ∈ {1, 4, 8}:
    ///
    /// * emits per session an in-order subsequence of the unconstrained
    ///   baseline's alerts, bit for bit, with the same alarm-window
    ///   multiset (recall 1.0, no added alarms),
    /// * pins every alarmed session at the full tier by stream end,
    /// * keeps the buffered-queue high-water at or under the hard bound,
    /// * and produces bit-identical reports, tier histories, and audit
    ///   rows at every thread count.
    #[test]
    fn overload_keeps_recall_and_tier_histories_are_thread_deterministic(
        sessions in arb_sessions(),
        seed in any::<u64>(),
    ) {
        let stream = interleave(&sessions, seed);

        // Unconstrained baseline: same kernel and mode, tier ladder
        // disarmed (budget 0), serial.
        let (baseline, _, _) =
            run_overloaded(&stream, 1, OverloadConfig::default());
        type Expected = (Vec<String>, Vec<Vec<String>>);
        let expected: BTreeMap<(String, String), Expected> = baseline
            .iter()
            .map(|r| {
                let alerts = r.alerts.iter().map(|a| format!("{a:?}")).collect();
                ((r.app.clone(), r.session.clone()), (alerts, alarm_windows(r)))
            })
            .collect();

        let mut reference: Option<(String, Vec<AuditRecord>)> = None;
        for threads in [1usize, 4, 8] {
            let (reports, records, obs) =
                run_overloaded(&stream, threads, starved_overload(ShedPolicy::Backpressure, 3));
            prop_assert_eq!(reports.len(), sessions.len(), "threads {}", threads);

            let high_water = obs.snapshot().gauge("monitor.queue.depth").unwrap_or(0);
            prop_assert!(
                high_water <= 3,
                "queue high-water {} breached capacity (threads {})",
                high_water, threads
            );

            for report in &reports {
                prop_assert_eq!(&report.end, &SessionEnd::Finished);
                let (base_alerts, base_alarms) =
                    &expected[&(report.app.clone(), report.session.clone())];
                // In-order subsequence, bit for bit: every emitted alert is
                // one the baseline emits, and none comes out of order.
                let mut rest = base_alerts.iter();
                for alert in &report.alerts {
                    let rendered = format!("{alert:?}");
                    prop_assert!(
                        rest.any(|b| *b == rendered),
                        "{}/{}: alert not a subsequence of the baseline's: {} (threads {})",
                        report.app, report.session, rendered, threads
                    );
                }
                let got = alarm_windows(report);
                prop_assert_eq!(
                    &got, base_alarms,
                    "{}/{}: alarm windows differ from the baseline's (threads {})",
                    report.app, report.session, threads
                );
                if !got.is_empty() {
                    prop_assert_eq!(
                        report.tier, ScoringTier::Full,
                        "{}/{}: alarmed sessions are pinned at full (threads {})",
                        report.app, report.session, threads
                    );
                }
            }

            // Every audit row of an overloaded run carries its tier
            // provenance.
            for record in &records {
                prop_assert!(record.tier.is_some(), "audit row missing tier");
            }

            let rendered = format!("{reports:?}");
            match &reference {
                None => reference = Some((rendered, records)),
                Some((expected_reports, expected_records)) => {
                    prop_assert_eq!(&rendered, expected_reports, "threads {}", threads);
                    prop_assert_eq!(&records, expected_records, "threads {}", threads);
                }
            }
        }
    }
}

/// DropNewest under sustained pressure: benign traffic of demoted
/// sessions is shed (visibly counted), dangerous facts and alarmed
/// sessions never are — the attack keeps its alarm — and the whole
/// schedule of sheds, tiers, and verdicts rides the serial ingest clock:
/// identical at any thread count.
#[test]
fn drop_newest_sheds_deterministically_and_never_drops_the_attack() {
    let mut sessions: Vec<(String, String, Vec<CallEvent>)> = (0..6)
        .map(|i| {
            let trace = ["a", "b", "c_Q7"]
                .iter()
                .cycle()
                .take(12)
                .map(|n| event(n, "main"))
                .collect();
            ("bank".to_string(), format!("s-{i}"), trace)
        })
        .collect();
    sessions.push((
        "bank".to_string(),
        "s-attack".to_string(),
        vec![
            event("a", "main"),
            event("evil_exfil", "main"),
            event("c_Q7", "main"),
            event("a", "main"),
        ],
    ));
    let stream = interleave(&sessions, 0x0E44);

    let mut reference: Option<(String, u64)> = None;
    for threads in [1usize, 4, 8] {
        let (reports, _, obs) = run_overloaded(
            &stream,
            threads,
            starved_overload(ShedPolicy::DropNewest, 6),
        );
        let snap = obs.snapshot();
        let shed = snap.counter("monitor.shed.events").unwrap_or(0);
        assert!(shed > 0, "sustained pressure must shed (threads {threads})");
        assert!(snap.gauge("monitor.queue.depth").unwrap_or(0) <= 6);

        let attack = reports
            .iter()
            .find(|r| r.session == "s-attack")
            .expect("attack session reported");
        assert!(
            attack.alarms().count() >= 1,
            "the exfiltration alarm survived shedding (threads {threads})"
        );
        assert_eq!(attack.tier, ScoringTier::Full, "alarmed ⇒ pinned full");

        let rendered = format!("{reports:?}");
        match &reference {
            None => reference = Some((rendered, shed)),
            Some((expected, expected_shed)) => {
                assert_eq!(&rendered, expected, "threads {threads}");
                assert_eq!(shed, *expected_shed, "threads {threads}");
            }
        }
    }
}
