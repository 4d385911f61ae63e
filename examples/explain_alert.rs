//! Explaining an alert: ranked forensic reports for the §V-C attack corpus.
//!
//! An alert alone (`flag + log-likelihood`) tells a security officer that a
//! session deviated, not *where*. With the flight recorder armed, every
//! alarm's audit record carries a [`ForensicReport`]: the top-k most
//! deviant call transitions of the alerted window (exact factors of the
//! same forward pass that scored it — no second scoring run) plus the
//! session's recent window-score series, so a triage decision can be made
//! from the record alone.
//!
//! This walkthrough profiles the banking and hospital applications, replays
//! the §V-C attack mutants (plus the SQL-injection input) through a
//! forensics-armed [`ShardedMonitor`], and prints each attack family's
//! worst window with its ranked attribution and delta-vs-threshold tail.
//!
//! ```text
//! cargo run --release --example explain_alert
//! ```
//!
//! [`ForensicReport`]: adprom::obs::ForensicReport
//! [`ShardedMonitor`]: adprom::core::ShardedMonitor

use adprom::analysis::analyze;
use adprom::attacks::{
    attack1_insert_similar_print, attack2_new_call_in_function, attack3_reuse_print,
    attack4_binary_patch, AttackOutcome,
};
use adprom::core::{
    build_profile, ConstructorConfig, ForensicsConfig, ProfileRegistry, ShardedMonitor,
};
use adprom::obs::{AuditLog, AuditRecord, MemoryAuditSink};
use adprom::trace::{interleave, CallEvent};
use adprom::workloads::{banking, hospital, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;

fn main() {
    // 1. Training phase, per application: analyze → trace → build_profile.
    let apps: Vec<(&str, Workload)> = vec![
        ("banking", banking::workload(20, 0x7AB1)),
        ("hospital", hospital::workload(20, 9)),
    ];
    let profiles = ProfileRegistry::new();
    let mut analyses = Vec::new();
    for (name, workload) in &apps {
        let analysis = analyze(&workload.program);
        let traces = workload.collect_traces(&analysis.site_labels);
        let (profile, _) = build_profile(
            &format!("App_{name}"),
            &analysis,
            &traces,
            &ConstructorConfig::default(),
        );
        println!(
            "{name:<9} profile: {} states, threshold {:.2}",
            profile.hmm.n_states(),
            profile.threshold
        );
        profiles.register(name, profile).expect("profile validates");
        analyses.push(analysis);
    }

    // 2. The attack corpus: each §V-C mutator that finds a target in an
    //    app contributes one family of attacked sessions; attack 5 is a
    //    malicious input on the unmodified banking binary.
    let mut sessions: Vec<(String, String, Vec<CallEvent>)> = Vec::new();
    for (name, workload) in &apps {
        let query = "SELECT * FROM clients";
        let mutants: Vec<(&str, Option<AttackOutcome>)> = vec![
            ("attack1", attack1_insert_similar_print(&workload.program)),
            (
                "attack2",
                attack2_new_call_in_function(&workload.program, query),
            ),
            ("attack3", attack3_reuse_print(&workload.program)),
            ("attack4", attack4_binary_patch(&workload.program, query)),
        ];
        for (attack, outcome) in mutants {
            let Some(outcome) = outcome else { continue };
            let attacked = Workload {
                name: workload.name.clone(),
                dbms: workload.dbms,
                program: outcome.program,
                make_db: workload.make_db,
                test_cases: workload.test_cases.clone(),
            };
            // Detection-time instrumentation re-analyzes the mutant.
            let attacked_analysis = analyze(&attacked.program);
            for (i, case) in attacked.test_cases.iter().take(3).enumerate() {
                let trace = attacked.run_case(case, &attacked_analysis.site_labels);
                sessions.push((name.to_string(), format!("{name}/{attack}#{i}"), trace));
            }
        }
    }
    let banking_analysis = &analyses[0];
    let injected = apps[0]
        .1
        .run_case(&banking::injection_case(), &banking_analysis.site_labels);
    sessions.push(("banking".into(), "banking/attack5#0".into(), injected));

    // 3. Detection phase: the interleaved attack stream through a
    //    forensics-armed monitor with the audit log attached. Reports are
    //    built only when a session alarms — the benign path stays
    //    allocation-free — and land on the alarm's audit record.
    let sink = Arc::new(MemoryAuditSink::new());
    let mut runtime = ShardedMonitor::new(Arc::new(profiles), 1)
        .with_forensics(ForensicsConfig::default())
        .with_audit(Arc::new(AuditLog::new(sink.clone())));
    let stream = interleave(&sessions, 0xF0CE);
    runtime.ingest_stream(&stream);
    runtime.finish();

    let records = sink.records();
    assert!(
        records.iter().all(|r| r.forensics.is_some()),
        "every alarm audit record carries a ForensicReport"
    );
    println!(
        "\n{} attacked sessions → {} alarm records, every one with forensics attached\n",
        sessions.len(),
        records.len()
    );

    // 4. Triage view: per attack family, the worst window's ranked
    //    attribution and the flight recorder's delta-vs-threshold tail.
    let mut by_family: BTreeMap<&str, Vec<&AuditRecord>> = BTreeMap::new();
    for record in &records {
        let family = record.session.split('#').next().unwrap_or(&record.session);
        by_family.entry(family).or_default().push(record);
    }
    for (family, group) in &by_family {
        let worst = group
            .iter()
            .min_by(|a, b| {
                (a.log_likelihood - a.threshold).total_cmp(&(b.log_likelihood - b.threshold))
            })
            .expect("family groups are non-empty");
        let report = worst.forensics.as_ref().expect("asserted above");
        println!(
            "== {family} — {} alarm(s); worst: window {} flagged {} (delta {:+.2}) ==",
            group.len(),
            report.window_index,
            worst.flag,
            report.alert_delta().unwrap_or(f64::NAN),
        );
        println!("   most deviant transitions (exact factors of the window's score):");
        for t in report.top_deviant.iter().take(3) {
            println!(
                "     step {:<2} {:>18} -> {:<18} log_prob {:7.3}  deficit {:+7.3}",
                t.step,
                t.from.as_deref().unwrap_or("<pi>"),
                t.call,
                t.log_prob,
                t.deficit,
            );
        }
        let tail: Vec<String> = report
            .recent_windows
            .iter()
            .map(|w| format!("{:+.1}", w.delta))
            .collect();
        println!(
            "   recent window deltas (oldest first): [{}]\n",
            tail.join(", ")
        );
    }
    println!(
        "Each record round-trips through the JSONL audit trail, e.g.:\n{}",
        records[0].to_jsonl()
    );
}
