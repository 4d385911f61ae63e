//! End-to-end integration: training on each CA-dataset application, then
//! verifying normal runs pass and each §V-C attack is flagged — and the
//! runtime's verdict contract holding on the attack corpus and on three
//! interleaved CA applications.

mod oracle;

use adprom::analysis::{analyze, Analysis};
use adprom::attacks::{
    attack1_insert_similar_print, attack2_new_call_in_function, attack3_reuse_print,
    attack4_binary_patch,
};
use adprom::core::resilience::sites;
use adprom::core::{
    build_profile, shard_for, ConstructorConfig, DetectionEngine, FaultKind, FaultPlan, Flag,
    ForensicsConfig, KernelConfig, MonitorRuntime, OverloadConfig, Profile, ProfileRegistry,
    RuntimeConfig, ScoringMode, SessionReport, ShedPolicy, Trigger,
};
use adprom::hmm::SparseConfig;
use adprom::lang::Program;
use adprom::obs::{AuditLog, AuditRecord, MemoryAuditSink, MetricsSnapshot, Registry};
use adprom::trace::{interleave, CallEvent, TaggedCall};
use adprom::workloads::{banking, hospital, supermarket, Workload};
use oracle::Sweep;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Light training config keeping test runtime reasonable.
fn test_config() -> ConstructorConfig {
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 12;
    config
}

fn train(workload: &Workload, name: &str) -> (Analysis, Profile) {
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let (profile, _) = build_profile(name, &analysis, &traces, &test_config());
    (analysis, profile)
}

/// Runs the attacked program over the workload's cases, returning the
/// worst verdict. Mirrors deployment: the detection-phase instrumenter
/// re-analyzes the *modified* binary for labels, while the profile was
/// built from the original.
fn attacked_verdict(original: &Workload, attacked_program: Program, profile: &Profile) -> Flag {
    let attacked = attacked(original, attacked_program);
    let attacked_analysis = analyze(&attacked.program);
    let engine = DetectionEngine::new(profile);
    let mut worst = Flag::Normal;
    for case in attacked.test_cases.iter().take(20) {
        let trace = attacked.run_case(case, &attacked_analysis.site_labels);
        worst = worst.max(engine.verdict(&trace));
        if worst == Flag::OutOfContext {
            break;
        }
    }
    worst
}

/// `original` with its program replaced by an attacked one.
fn attacked(original: &Workload, program: Program) -> Workload {
    Workload {
        name: original.name.clone(),
        dbms: original.dbms,
        program,
        make_db: original.make_db,
        test_cases: original.test_cases.clone(),
    }
}

fn normal_alarm_rate(workload: &Workload, analysis: &Analysis, profile: &Profile) -> f64 {
    let engine = DetectionEngine::new(profile);
    let mut windows = 0usize;
    let mut alarms = 0usize;
    for case in workload.test_cases.iter().take(15) {
        let trace = workload.run_case(case, &analysis.site_labels);
        for alert in engine.scan(&trace) {
            windows += 1;
            if alert.is_alarm() {
                alarms += 1;
            }
        }
    }
    alarms as f64 / windows.max(1) as f64
}

#[test]
fn hospital_profile_accepts_normal_and_flags_attacks() {
    let workload = hospital::workload(25, 1);
    let (analysis, profile) = train(&workload, "App_h");

    let fp = normal_alarm_rate(&workload, &analysis, &profile);
    assert!(fp < 0.05, "false-positive window rate too high: {fp}");

    let a1 = attack1_insert_similar_print(&workload.program).expect("attack 1 applies");
    assert_ne!(
        attacked_verdict(&workload, a1.program, &profile),
        Flag::Normal,
        "attack 1 must be detected"
    );

    let a2 = attack2_new_call_in_function(&workload.program, "SELECT * FROM patients")
        .expect("attack 2 applies");
    let verdict = attacked_verdict(&workload, a2.program, &profile);
    assert_eq!(
        verdict,
        Flag::OutOfContext,
        "attack 2 inserts a call in a function that never issued it"
    );
}

#[test]
fn banking_attacks_detected_including_injection() {
    let workload = banking::workload(30, 2);
    let (analysis, profile) = train(&workload, "App_b");
    let engine = DetectionEngine::new(&profile);

    // Attack 5: the Fig. 2 tautology injection — pure input, same binary.
    let attack_trace = workload.run_case(&banking::injection_case(), &analysis.site_labels);
    let verdict = engine.verdict(&attack_trace);
    assert_ne!(verdict, Flag::Normal, "injection must be flagged");

    // A benign lookup through the same vulnerable path stays normal.
    let benign = adprom::workloads::TestCase::new(
        "benign-lookup",
        vec!["1".into(), "105".into(), "0".into()],
    );
    let benign_trace = workload.run_case(&benign, &analysis.site_labels);
    assert_eq!(engine.verdict(&benign_trace), Flag::Normal);

    // Attack 3: reuse of an existing print.
    let a3 = attack3_reuse_print(&workload.program).expect("attack 3 applies");
    assert_ne!(
        attacked_verdict(&workload, a3.program, &profile),
        Flag::Normal,
        "attack 3 must be detected"
    );
}

#[test]
fn supermarket_binary_patch_detected() {
    let workload = supermarket::workload(25, 3);
    let (_, profile) = train(&workload, "App_s");

    let a4 =
        attack4_binary_patch(&workload.program, "SELECT * FROM items").expect("attack 4 applies");
    assert_ne!(
        attacked_verdict(&workload, a4.program, &profile),
        Flag::Normal,
        "attack 4 (binary patch) must be detected"
    );
}

#[test]
fn profiles_round_trip_through_disk() {
    let workload = banking::workload(10, 4);
    let (analysis, profile) = train(&workload, "App_b");

    let dir = std::env::temp_dir().join("adprom-pipeline-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("app_b.profile.json");
    profile.save(&path).unwrap();
    let reloaded = Profile::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // A reloaded profile classifies identically.
    let engine_a = DetectionEngine::new(&profile);
    let engine_b = DetectionEngine::new(&reloaded);
    let trace: Vec<CallEvent> = workload.run_case(&workload.test_cases[0], &analysis.site_labels);
    assert_eq!(engine_a.verdict(&trace), engine_b.verdict(&trace));
}

#[test]
fn alert_connects_leak_to_source_block() {
    // The DataLeak alert must carry the `_Q<bid>` label (the "connected to
    // source" property of Table V).
    let workload = banking::workload(30, 5);
    let (analysis, profile) = train(&workload, "App_b");
    let engine = DetectionEngine::new(&profile);
    let attack_trace = workload.run_case(&banking::injection_case(), &analysis.site_labels);
    let leak_alerts: Vec<_> = engine
        .scan(&attack_trace)
        .into_iter()
        .filter(|a| a.flag == Flag::DataLeak)
        .collect();
    assert!(
        !leak_alerts.is_empty(),
        "injection produces DataLeak alerts"
    );
    assert!(leak_alerts[0].detail.contains("_Q"));
}

/// A flattened profile of `workload` (Baum–Welch floor dust collapsed, so
/// the sparse kernel's CSR decomposition is sparse and exact), trained
/// briefly on its own traces, which come back alongside it.
fn flattened(workload: &Workload, name: &str) -> (Analysis, Vec<Vec<CallEvent>>, Profile) {
    let mut config = ConstructorConfig::default();
    config.train.max_iterations = 3;
    config.flatten_epsilon = 1e-4;
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let (profile, _) = build_profile(&format!("App_{name}"), &analysis, &traces, &config);
    (analysis, traces, profile)
}

/// A forensics-armed, audited incremental runtime over `stream`.
fn monitored(
    profiles: &[(&str, Profile)],
    stream: &[TaggedCall],
    overload: OverloadConfig,
) -> (Vec<SessionReport>, Vec<AuditRecord>, MetricsSnapshot) {
    let registry = ProfileRegistry::new();
    for (app, profile) in profiles {
        registry.register(app, profile.clone()).unwrap();
    }
    let obs = Registry::new();
    let sink = Arc::new(MemoryAuditSink::new());
    let mut runtime = MonitorRuntime::new(Arc::new(registry))
        .with_registry(&obs)
        .with_audit(Arc::new(AuditLog::new(sink.clone())))
        .with_forensics(ForensicsConfig::default())
        .with_config(RuntimeConfig {
            mode: ScoringMode::Incremental,
            overload,
            ..RuntimeConfig::default()
        });
    runtime.ingest_stream(stream);
    (runtime.finish(), sink.records(), obs.snapshot())
}

/// The alarmed sessions of a run.
fn alarmed(reports: &[SessionReport]) -> BTreeSet<(String, String)> {
    reports
        .iter()
        .filter(|r| r.alarms().next().is_some())
        .map(|r| (r.app.clone(), r.session.clone()))
        .collect()
}

/// The verdict oracle on real traffic. The §V-C attack corpus — every
/// banking and hospital mutant on two test cases, plus the injection
/// input — rides on the apps' benign training sessions through both
/// kernels, both modes, both fault plans, forensics, and backpressure at
/// 2× the scoring budget. Three CA applications × 64 sessions go through
/// the sharded service at shards {1, 2, 4, 8}, with a mid-stream banking
/// swap, and 4 shards split their events evenly enough that no shard
/// takes half.
#[test]
fn attack_and_ca_corpora_hold_the_verdict_contract() {
    let sparse = KernelConfig::Sparse {
        sparse: SparseConfig::default(),
    };
    let mut profiles = Vec::new();
    let mut sessions = Vec::new();
    for (name, workload, table) in [
        ("banking", banking::workload(12, 0x7AB1), "clients"),
        ("hospital", hospital::workload(12, 9), "patients"),
    ] {
        let (analysis, traces, profile) = flattened(&workload, name);
        let query = format!("SELECT * FROM {table}");
        let mutants = [
            ("attack1", attack1_insert_similar_print(&workload.program)),
            (
                "attack2",
                attack2_new_call_in_function(&workload.program, &query),
            ),
            ("attack3", attack3_reuse_print(&workload.program)),
            ("attack4", attack4_binary_patch(&workload.program, &query)),
        ];
        for (attack, outcome) in mutants {
            let Some(outcome) = outcome else { continue };
            let mutant = attacked(&workload, outcome.program);
            let labels = analyze(&mutant.program).site_labels;
            for (i, case) in mutant.test_cases.iter().take(2).enumerate() {
                let trace = mutant.run_case(case, &labels);
                sessions.push((name.to_string(), format!("{name}/{attack}#{i}"), trace));
            }
        }
        if name == "banking" {
            let trace = workload.run_case(&banking::injection_case(), &analysis.site_labels);
            sessions.push((name.to_string(), "banking/attack5#0".to_string(), trace));
        }
        for (i, trace) in traces.into_iter().enumerate() {
            sessions.push((name.to_string(), format!("{name}-benign-{i}"), trace));
        }
        profiles.push((name, profile));
    }
    let stream = interleave(&sessions, 0x10AD);
    let backpressure = OverloadConfig {
        capacity: 64,
        budget: 32,
        ..OverloadConfig::default()
    };
    oracle::check(&Sweep {
        profiles: &profiles,
        stream: &stream,
        swap: None,
        shards: &[],
        threads: &[1, 4],
        kernels: &[KernelConfig::Dense, sparse],
        modes: &[ScoringMode::ExactWindows, ScoringMode::Incremental],
        queue_capacity: RuntimeConfig::default().queue_capacity,
        faults: &[
            FaultPlan::disabled(),
            FaultPlan::new(42).inject(
                sites::MONITOR_SWAP,
                FaultKind::Panic,
                Trigger::OnceForKeys([0, 4, 9].into()),
            ),
            FaultPlan::new(43).inject(
                sites::MONITOR_QUEUE_OVERFLOW,
                FaultKind::QueueOverflow,
                Trigger::EveryNth(7),
            ),
        ],
        forensics: &[false, true],
        overloads: &[OverloadConfig::default(), backpressure],
    })
    .unwrap();

    // The contract is not vacuous here: attacks alarm, with forensics.
    let (reports, records, _) = monitored(&profiles, &stream, OverloadConfig::default());
    assert!(
        records
            .iter()
            .any(|r| r.session.contains('#') && r.forensics.is_some()),
        "no attack family alarmed"
    );
    // 2× the budget trips the hard bound and demotes sessions.
    let (_, _, snap) = monitored(&profiles, &stream, backpressure);
    for name in [
        "monitor.backpressure.flushes",
        "monitor.tier.full.assigned",
        "monitor.tier.spot.assigned",
    ] {
        assert!(
            snap.counter(name) > Some(0),
            "{name}: {:?}",
            snap.counter(name)
        );
    }
    // Shedding, outside the contract, still keeps every alarmed session.
    let drop_newest = OverloadConfig {
        shed_policy: ShedPolicy::DropNewest,
        ..backpressure
    };
    let (shed_reports, _, snap) = monitored(&profiles, &stream, drop_newest);
    assert!(alarmed(&shed_reports).is_superset(&alarmed(&reports)));
    assert!(snap.counter("monitor.shed.events") > Some(0));

    type Make = fn(usize, u64) -> Workload;
    let apps: [(&str, Make); 3] = [
        ("banking", banking::workload),
        ("supermarket", supermarket::workload),
        ("hospital", hospital::workload),
    ];
    let mut profiles = Vec::new();
    let mut sessions = Vec::new();
    for (seed, (name, make)) in (9..).zip(apps) {
        let (_, traces, profile) = flattened(&make(64, seed), name);
        for (i, trace) in traces.into_iter().enumerate() {
            sessions.push((name.to_string(), format!("{name}-{i}"), trace));
        }
        profiles.push((name, profile));
    }
    let stream = interleave(&sessions, 0x5E55);
    let mut banking_v2 = profiles[0].1.clone();
    banking_v2.threshold -= 1.0;
    oracle::check(&Sweep {
        profiles: &profiles,
        stream: &stream,
        swap: Some((stream.len() / 2, "banking", &banking_v2)),
        shards: &[1, 2, 4, 8],
        threads: &[2],
        kernels: &[sparse],
        modes: &[ScoringMode::Incremental],
        queue_capacity: RuntimeConfig::default().queue_capacity,
        faults: &[FaultPlan::disabled()],
        forensics: &[false],
        overloads: &[OverloadConfig::default()],
    })
    .unwrap();
    let mut per_shard = [0usize; 4];
    for tagged in &stream {
        per_shard[shard_for(&tagged.app, &tagged.session, 4)] += 1;
    }
    assert!(
        per_shard.iter().all(|&n| n > 0 && 2 * n <= stream.len()),
        "4-shard event split {per_shard:?}"
    );
}
