//! Fault-tolerance end-to-end: the banking workload monitored under a
//! deterministic [`FaultPlan`] (a corrupt ingested trace, injected panics
//! in the monitor's session replays, a torn audit tail) must quarantine
//! exactly the corrupt trace and produce verdicts identical to a
//! fault-free run for everything else, and audit recovery must preserve
//! every record written before the tear.

use adprom::analysis::analyze;
use adprom::core::resilience::sites;
use adprom::core::{
    build_profile, ConstructorConfig, FaultInjector, FaultKind, FaultPlan, Health, Profile,
    ProfileRegistry, RuntimeConfig, SessionEnd, SessionReport, ShardedMonitor, Trigger,
};
use adprom::hmm::Hmm;
use adprom::obs::{AuditLog, AuditRecord, AuditSink, DurableAuditSink, Registry};
use adprom::trace::{CallEvent, TaggedCall, TraceValidator};
use adprom::workloads::banking;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
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

fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("adprom-resilience-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The cyclic a→b→c toy profile the unit tests use — cheap enough for
/// proptest to save/load hundreds of times.
fn tiny_profile() -> Profile {
    use adprom::core::Alphabet;
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

/// Scores a batch of traces through the monitor runtime, one session per
/// trace (`sessions[i]` names trace `i`), replayed in one parallel flush
/// at `finish`. Reports come back in arrival order; an empty trace opens
/// no session.
fn monitor_batch(
    profiles: &Arc<ProfileRegistry>,
    sessions: &[String],
    traces: &[Vec<CallEvent>],
    audit: Option<Arc<AuditLog>>,
    registry: &Registry,
    faults: &FaultInjector,
) -> Vec<SessionReport> {
    let mut runtime = ShardedMonitor::new(Arc::clone(profiles), 1)
        .with_config(RuntimeConfig {
            max_sessions: 0,
            queue_capacity: 0,
            ..RuntimeConfig::default()
        })
        .with_registry(registry)
        .with_faults(faults);
    if let Some(audit) = audit {
        runtime = runtime.with_audit(audit);
    }
    for (session, trace) in sessions.iter().zip(traces) {
        for event in trace {
            runtime.ingest(&TaggedCall {
                app: "App_b".to_string(),
                session: session.clone(),
                event: event.clone(),
            });
        }
    }
    runtime.finish()
}

#[test]
fn banking_under_faults_matches_fault_free_run() {
    quiet_injected_panics();
    let workload = banking::workload(30, 2);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 12;
    let (profile, _) = build_profile("App_b", &analysis, &traces, &config);

    // The monitored batch: every test case plus the Fig. 2 injection.
    let mut batch: Vec<_> = workload
        .test_cases
        .iter()
        .map(|case| workload.run_case(case, &analysis.site_labels))
        .collect();
    batch.push(workload.run_case(&banking::injection_case(), &analysis.site_labels));
    let sessions: Vec<String> = (0..batch.len()).map(|i| format!("conn-{i}")).collect();

    // Fault-free baseline: its own registry, so its health stays clean.
    let clean_profiles = ProfileRegistry::new();
    clean_profiles
        .register("App_b", profile.clone())
        .expect("profile validates");
    let baseline = monitor_batch(
        &Arc::new(clean_profiles),
        &sessions,
        &batch,
        None,
        &Registry::disabled(),
        &FaultPlan::disabled().arm(),
    );
    assert_eq!(baseline.len(), batch.len(), "no empty traces");

    // ---- Fault run -------------------------------------------------------
    let registry = Registry::new();
    let profiles = ProfileRegistry::new();
    profiles
        .register("App_b", profile.clone())
        .expect("profile validates");
    let profiles = Arc::new(profiles);
    // Panics are keyed by session arrival: the 1st and 4th kept traces.
    let injector = FaultPlan::new(42)
        .inject(
            sites::INGEST_CORRUPT,
            FaultKind::CorruptEvent,
            Trigger::OnceForKeys([2u64].into()),
        )
        .inject(
            sites::MONITOR_SWAP,
            FaultKind::Panic,
            Trigger::OnceForKeys([0u64, 3].into()),
        )
        .arm();

    // Ingest hardening: the corrupt trace is quarantined, not scored.
    let mut faulty = batch.clone();
    let applied = adprom::core::apply_ingest_faults(&injector, &mut faulty);
    assert_eq!(applied, 1, "exactly one trace corrupted");
    let screened = TraceValidator::new()
        .with_registry(&registry)
        .screen(&sessions, &faulty);
    assert_eq!(screened.quarantined.len(), 1);
    assert_eq!(screened.quarantined[0].index, 2);
    assert!(!screened.kept_indices.contains(&2));

    // Crash-safe audit behind the detector.
    let wal = temp_path("audit");
    let (sink, report) = DurableAuditSink::open(&wal).expect("open WAL");
    assert_eq!(report.valid_records, 0);
    let audit = Arc::new(AuditLog::new(Arc::new(sink)));

    let reports = monitor_batch(
        &profiles,
        &screened.sessions,
        &screened.traces,
        Some(Arc::clone(&audit)),
        &registry,
        &injector,
    );

    // Both injected panics were retried and recovered; the app's health
    // records the absorbed faults.
    assert_eq!(injector.injected(sites::MONITOR_SWAP), 2);
    assert!(reports.iter().all(|r| r.end == SessionEnd::Finished));
    let health = profiles.health("App_b").expect("registered app");
    assert_eq!(health.state(), Health::Degraded);
    assert_eq!(
        health
            .reasons()
            .iter()
            .filter(|r| r.contains("recovered after 1 retry"))
            .count(),
        2
    );

    // Every non-quarantined trace gets the verdict of the fault-free run.
    assert_eq!(reports.len(), screened.kept_indices.len());
    for (report, &orig) in reports.iter().zip(&screened.kept_indices) {
        assert_eq!(report.session, baseline[orig].session);
        assert_eq!(report.alerts, baseline[orig].alerts, "trace {orig}");
        assert_eq!(report.verdict, baseline[orig].verdict, "trace {orig}");
    }

    let snap = registry.snapshot();
    assert_eq!(snap.counter("ingest.traces_quarantined"), Some(1));
    assert_eq!(snap.counter("resilience.worker_panics"), Some(2));
    assert_eq!(snap.counter("resilience.traces_recovered"), Some(2));
    assert_eq!(snap.counter("resilience.traces_failed"), Some(0));

    // ---- Torn-tail recovery ----------------------------------------------
    // A crash mid-write leaves a partial frame; reopening must truncate it
    // and lose nothing written before the tear.
    let before = DurableAuditSink::read_records(&wal).expect("read WAL");
    assert!(
        !before.is_empty(),
        "the injection case must have produced audit records"
    );
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&wal)
        .expect("append garbage");
    file.write_all(b"0000001a deadbeef {\"torn").expect("tear");
    drop(file);

    let (reopened, report) = DurableAuditSink::open(&wal).expect("reopen WAL");
    assert!(report.torn, "tear detected");
    assert!(report.truncated_bytes > 0);
    assert_eq!(report.valid_records, before.len() as u64);
    drop(reopened);
    assert_eq!(
        DurableAuditSink::read_records(&wal).expect("reread"),
        before
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single corrupted byte of a saved profile must be rejected at
    /// load time — the envelope CRC (or header/JSON parse) catches it.
    /// Never a panic, never a silently-corrupt profile.
    #[test]
    fn profile_load_rejects_any_single_byte_corruption(
        pos in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let path = temp_path("profile");
        tiny_profile().save(&path).expect("save profile");
        let mut bytes = std::fs::read(&path).expect("read profile");
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).expect("rewrite profile");
        prop_assert!(Profile::load(&path).is_err(), "byte {pos} ^ {flip:#x} accepted");
        let _ = std::fs::remove_file(&path);
    }

    /// Any single corrupted byte of the audit WAL must leave recovery with
    /// a clean prefix of the original records: the reader never panics,
    /// never yields a record that was not written, and every record before
    /// the corrupted frame survives.
    #[test]
    fn audit_recovery_yields_clean_prefix_under_any_byte_corruption(
        pos in 0usize..8192,
        flip in 1u8..=255,
    ) {
        let path = temp_path("wal");
        let (sink, _) = DurableAuditSink::open(&path).expect("open WAL");
        let originals: Vec<AuditRecord> = (0..4)
            .map(|i| AuditRecord {
                seq: i,
                app: String::new(),
                session: format!("conn-{i}"),
                epoch: 0,
                flag: "ANOMALOUS".to_string(),
                window: vec!["a".to_string(), "b".to_string()],
                log_likelihood: -12.5 - i as f64,
                threshold: -5.0,
                detail: "prop".to_string(),
                kernel: "dense".to_string(),
                label: None,
                bid: None,
                forensics: None,
                tier: None,
                escalation: None,
            })
            .collect();
        for record in &originals {
            sink.append(record);
        }
        drop(sink);

        let mut bytes = std::fs::read(&path).expect("read WAL");
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).expect("rewrite WAL");

        let report = DurableAuditSink::recover(&path).expect("recover");
        prop_assert!(report.valid_records < originals.len() as u64,
            "corruption at byte {pos} went undetected");
        let survivors = DurableAuditSink::read_records(&path).expect("read back");
        prop_assert_eq!(survivors.len() as u64, report.valid_records);
        prop_assert_eq!(&survivors[..], &originals[..survivors.len()]);
        let _ = std::fs::remove_file(&path);
    }
}
