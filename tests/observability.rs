//! End-to-end observability: on the banking attack workload, every
//! non-Normal detection must land in the structured audit log as a JSONL
//! record that round-trips through serde and reproduces the engine's flag,
//! and the metrics registry must account for every window scored and name
//! every pipeline counter. Framed service ingest records one sample per
//! frame in each of its stage histograms.

use adprom::analysis::analyze;
use adprom::core::{
    build_profile, ConstructorConfig, DetectionEngine, Flag, ProfileRegistry, RuntimeConfig,
    ScoringMode,
};
use adprom::core::{encode_stream, Alphabet, Profile, ShardedMonitor, WIRE_HEADER};
use adprom::hmm::Hmm;
use adprom::lang::{CallSiteId, LibCall};
use adprom::obs::{AuditLog, AuditRecord, MemoryAuditSink, MetricsSnapshot, Registry};
use adprom::trace::{CallEvent, TaggedCall};
use adprom::workloads::{banking, hospital};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[test]
fn banking_attack_audit_records_roundtrip_and_reproduce_flags() {
    let workload = banking::workload(30, 2);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);

    let registry = Registry::new();
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 12;
    config.registry = registry.clone();
    let (profile, _) = build_profile("App_b", &analysis, &traces, &config);

    let sink = Arc::new(MemoryAuditSink::new());
    let audit = Arc::new(AuditLog::new(sink.clone()));
    let mut engine = DetectionEngine::new(&profile)
        .with_registry(&registry)
        .with_audit(audit);
    engine.set_session("teller-7");

    // The Fig. 2 tautology injection: pure input, unmodified binary.
    let attack_trace = workload.run_case(&banking::injection_case(), &analysis.site_labels);
    let alerts = engine.scan(&attack_trace);
    let alarms: Vec<_> = alerts.iter().filter(|a| a.is_alarm()).collect();
    assert!(
        alarms.iter().any(|a| a.flag == Flag::DataLeak),
        "the injection must produce at least one DATA-LEAK window"
    );

    // One audit record per non-Normal detection, in scan order, with
    // sequence numbers assigned by the log.
    let records = sink.records();
    assert_eq!(records.len(), alarms.len());
    for (i, (record, alert)) in records.iter().zip(&alarms).enumerate() {
        assert_eq!(record.seq, i as u64);
        assert_eq!(record.session, "teller-7");
        assert_eq!(record.flag, alert.flag.to_string(), "flag reproduced");
        assert_eq!(record.window, alert.window);
        assert_eq!(record.log_likelihood, alert.log_likelihood);
        assert_eq!(record.threshold, alert.threshold);
        if alert.flag == Flag::DataLeak {
            let label = record.label.as_deref().expect("leak records carry a label");
            assert!(label.contains("_Q"));
            let bid = record
                .bid
                .as_deref()
                .expect("leak records carry a block id");
            assert!(label.ends_with(bid));
        }

        // Serde round-trip: the JSONL line re-parses to the same record.
        let line = record.to_jsonl();
        let parsed = AuditRecord::from_jsonl(&line).expect("audit JSONL parses");
        assert_eq!(&parsed, record);
    }

    // The registry accounted for training and for every window scored.
    let snap = registry.snapshot();
    let scored = snap.counter("detect.windows_scored").unwrap();
    assert_eq!(scored, alerts.len() as u64);
    let by_flag: u64 = [
        "detect.flags.normal",
        "detect.flags.anomalous",
        "detect.flags.data_leak",
        "detect.flags.out_of_context",
    ]
    .iter()
    .map(|name| snap.counter(name).unwrap())
    .sum();
    assert_eq!(by_flag, scored);
    assert_eq!(
        snap.counter("detect.flags.data_leak").unwrap(),
        alarms.iter().filter(|a| a.flag == Flag::DataLeak).count() as u64
    );
    assert!(snap.counter("train.iterations").unwrap() >= 1);
    assert_eq!(snap.histograms["detect.score_ns"].count, scored);

    // The snapshot itself round-trips through its JSON exposition.
    let reparsed = MetricsSnapshot::from_json(&snap.to_json()).expect("snapshot JSON parses");
    assert_eq!(reparsed.counters, snap.counters);

    // Same workload through the monitor runtime as a one-trace batch:
    // the session id flows into the report and into a fresh audit trail,
    // stamped with the app and its pinned epoch.
    let profiles = ProfileRegistry::new();
    profiles
        .register("App_b", profile.clone())
        .expect("profile validates");
    let batch_sink = Arc::new(MemoryAuditSink::new());
    let mut runtime = ShardedMonitor::new(Arc::new(profiles), 1)
        .with_config(RuntimeConfig {
            max_sessions: 0,
            queue_capacity: 0,
            ..RuntimeConfig::default()
        })
        .with_audit(Arc::new(AuditLog::new(batch_sink.clone())));
    for event in attack_trace {
        runtime.ingest(&TaggedCall {
            app: "App_b".to_string(),
            session: "teller-7".to_string(),
            event,
        });
    }
    let reports = runtime.finish();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].session, "teller-7");
    assert_eq!(reports[0].alerts, alerts, "runtime replays the engine scan");
    assert_ne!(reports[0].verdict, Flag::Normal);
    let batch_records = batch_sink.records();
    assert_eq!(batch_records.len(), records.len());
    for (batched, scanned) in batch_records.iter().zip(&records) {
        assert_eq!(batched.session, "teller-7");
        assert_eq!((batched.app.as_str(), batched.epoch), ("App_b", 1));
        assert_eq!(batched.seq, scanned.seq);
        assert_eq!(batched.flag, scanned.flag);
        assert_eq!(batched.window, scanned.window);
    }
}

/// Training, a serial scan and both runtime modes under one registry: the
/// snapshot names every pipeline counter and carries the score and
/// training latency histograms, and the per-flag counters partition the
/// windows scored.
#[test]
fn metrics_snapshot_names_every_pipeline_counter() {
    let workload = hospital::workload(8, 9);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let registry = Registry::new();
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 3;
    config.registry = registry.clone();
    let (profile, _) = build_profile("App_h", &analysis, &traces, &config);
    let engine = DetectionEngine::new(&profile).with_registry(&registry);
    for trace in &traces {
        engine.scan(trace);
    }
    let profiles = ProfileRegistry::new();
    profiles.register("hospital", profile).unwrap();
    let profiles = Arc::new(profiles);
    let stream: Vec<TaggedCall> = traces
        .iter()
        .enumerate()
        .flat_map(|(i, trace)| {
            trace.iter().map(move |event| TaggedCall {
                app: "hospital".to_string(),
                session: i.to_string(),
                event: event.clone(),
            })
        })
        .collect();
    for mode in [ScoringMode::ExactWindows, ScoringMode::Incremental] {
        let mut runtime = ShardedMonitor::new(Arc::clone(&profiles), 1)
            .with_registry(&registry)
            .with_config(RuntimeConfig {
                mode,
                ..RuntimeConfig::default()
            });
        runtime.ingest_stream(&stream);
        runtime.finish();
    }

    let snap = registry.snapshot();
    let missing: Vec<&str> = [
        "detect.windows_scored",
        "detect.flags.normal",
        "detect.flags.anomalous",
        "detect.flags.data_leak",
        "detect.flags.out_of_context",
        "detect.kernel.batch_windows",
        "monitor.events",
        "monitor.flushes",
        "monitor.sessions.opened",
        "monitor.sessions.finished",
        "monitor.memo.hits",
        "monitor.memo.misses",
        "sliding.pushes",
        "sliding.reanchors",
        "train.iterations",
    ]
    .into_iter()
    .filter(|name| snap.counter(name).is_none())
    .collect();
    assert!(missing.is_empty(), "missing counters: {missing:?}");
    for name in [
        "detect.score_ns",
        "monitor.stage.score_ns",
        "train.baumwelch_ns",
    ] {
        assert!(
            snap.histograms.get(name).is_some_and(|h| h.count > 0),
            "empty histogram {name}"
        );
    }
    let scored = snap.counter("detect.windows_scored").unwrap();
    assert!(scored > 0);
    let by_flag: u64 = ["normal", "anomalous", "data_leak", "out_of_context"]
        .iter()
        .map(|flag| snap.counter(&format!("detect.flags.{flag}")).unwrap())
        .sum();
    assert_eq!(by_flag, scored, "flag counters partition the windows");
}

/// A two-symbol toy profile: enough for sessions to open and score.
fn toy_profile(app: &str) -> Profile {
    let alphabet = Alphabet::new(vec!["a".to_string(), "b".to_string()]);
    let m = alphabet.len();
    let mut hmm = Hmm::from_rows(vec![vec![1.0; m]; m], vec![vec![1.0; m]; m], vec![1.0; m]);
    hmm.smooth(1e-4);
    let call_callers: BTreeMap<String, BTreeSet<String>> = ["a", "b"]
        .into_iter()
        .map(|name| (name.to_string(), BTreeSet::from(["main".to_string()])))
        .collect();
    Profile {
        app_name: app.into(),
        alphabet,
        hmm,
        window: 3,
        threshold: -50.0,
        call_callers,
        labeled_outputs: Vec::new(),
    }
}

#[test]
fn framed_ingest_records_one_stage_sample_per_frame() {
    let profiles = ProfileRegistry::new();
    profiles.register("bank", toy_profile("bank")).unwrap();
    let profiles = Arc::new(profiles);
    let stream: Vec<TaggedCall> = (0..40)
        .map(|i| TaggedCall {
            app: "bank".to_string(),
            session: format!("s-{}", i % 5),
            event: CallEvent {
                name: if i == 17 {
                    "bad\u{1}name"
                } else {
                    ["a", "b"][i % 2]
                }
                .into(),
                call: LibCall::Printf,
                caller: "main".into(),
                site: CallSiteId(0),
                detail: None,
            },
        })
        .collect();
    // Five frames of eight; the first is corrupted and trailing garbage
    // adds a second frame defect.
    let mut bytes = encode_stream(&stream, 8);
    bytes[WIRE_HEADER + 5] ^= 0x10;
    bytes.extend_from_slice(b"garbage");

    let registry = Registry::new();
    let mut service = ShardedMonitor::new(Arc::clone(&profiles), 2).with_registry(&registry);
    let ingest = service.ingest_frames(&bytes);
    assert_eq!((ingest.frames, ingest.records), (4, 32));
    assert_eq!(ingest.frame_defects.len(), 2);
    assert_eq!(ingest.quarantined.len(), 1);
    let snap = registry.snapshot();
    for name in ["wire.decode_ns", "ingest.screen_ns", "shard.route_ns"] {
        assert_eq!(
            snap.histograms[name].count, ingest.frames as u64,
            "{name}: one sample per valid frame"
        );
    }
    assert_eq!(
        snap.counter("ingest.traces_screened"),
        Some(ingest.records as u64)
    );
    assert_eq!(snap.counter("ingest.traces_quarantined"), Some(1));

    // A second call adds its own frames' samples.
    let again = service.ingest_frames(&encode_stream(&stream[..8], 0));
    let snap = registry.snapshot();
    for name in ["wire.decode_ns", "ingest.screen_ns", "shard.route_ns"] {
        assert_eq!(
            snap.histograms[name].count,
            (ingest.frames + again.frames) as u64
        );
    }
}
