//! The forensics determinism contract, end to end: every alarm audit
//! record from a forensics-armed [`ShardedMonitor`] carries a
//! [`ForensicReport`](adprom::obs::ForensicReport) whose serialized form
//! is bit-identical at any worker thread count, at one shard or several
//! sharing one audit log, and benign sessions never
//! promote their flight recorder into a report (no forensics counter
//! tick, no audit attachment).

mod fixtures;
mod oracle;

use adprom::core::{
    FaultPlan, ForensicsConfig, KernelConfig, OverloadConfig, ProfileRegistry, ScoringMode,
    ShardedMonitor,
};
use adprom::hmm::SparseConfig;
use adprom::obs::{AuditLog, MemoryAuditSink, Registry};
use adprom::trace::{interleave, CallEvent};
use fixtures::{arb_sessions, cyclic_profile, event};
use oracle::Sweep;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The forensics slice of the verdict oracle. For every random
    /// interleaving, kernel, scoring mode, shard count ∈ {1, 2} and thread
    /// count ∈ {1, 4, 8}, with queue bound 3 forcing many mid-stream
    /// flushes: arming the
    /// flight recorder changes no report and no memo count; the audit
    /// records — forensic reports included, down to every float bit via
    /// the serialized JSONL form — are identical at every thread count,
    /// one per alarm, each with non-empty top-k attribution and the
    /// alerting window's exact delta in the flight-recorder tail.
    #[test]
    fn forensic_reports_are_bit_identical_across_thread_counts(
        sessions in arb_sessions(1..4),
        seed in any::<u64>(),
    ) {
        let stream = interleave(&sessions, seed);
        oracle::check(&Sweep {
            profiles: &[
                ("bank", cyclic_profile("bank", -5.0)),
                ("shop", cyclic_profile("shop", -1.0)),
            ],
            stream: &stream,
            swap: None,
            shards: &[1, 2],
            threads: &[1, 4, 8],
            kernels: &[KernelConfig::Dense, KernelConfig::Sparse { sparse: SparseConfig::default() }],
            modes: &[ScoringMode::ExactWindows, ScoringMode::Incremental],
            queue_capacity: 3,
            faults: &[FaultPlan::disabled()],
            forensics: &[false, true],
            overloads: &[OverloadConfig::default()],
        })?;
    }
}

/// Benign sessions never promote the flight recorder: the ring buffer
/// fills, but no report is built, nothing lands in the audit log, and the
/// `monitor.forensics.reports` counter stays at zero. Armed sessions read
/// the window-score memo exactly as disarmed ones do: the same reports and
/// the same memo hits and misses.
#[test]
fn benign_sessions_produce_no_forensics() {
    let sessions: Vec<(String, String, Vec<CallEvent>)> = (0..4)
        .map(|i| {
            let cycle = vec![
                event("a", "main"),
                event("b", "main"),
                event("c_Q7", "main"),
                event("a", "main"),
                event("b", "main"),
                event("c_Q7", "main"),
            ];
            ("bank".to_string(), format!("s-{i}"), cycle)
        })
        .collect();
    let stream = interleave(&sessions, 0xBE9);

    let run = |armed: bool| {
        let registry = ProfileRegistry::new();
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        let obs = Registry::new();
        let sink = Arc::new(MemoryAuditSink::new());
        let mut runtime = ShardedMonitor::new(Arc::new(registry), 1)
            .with_registry(&obs)
            .with_audit(Arc::new(AuditLog::new(sink.clone())));
        if armed {
            runtime = runtime.with_forensics(ForensicsConfig::default());
        }
        runtime.ingest_stream(&stream);
        let reports = runtime.finish();
        let snap = obs.snapshot();
        let memo = ["monitor.memo.hits", "monitor.memo.misses"].map(|name| snap.counter(name));
        (reports, sink.records(), snap, memo)
    };
    let (reports, records, snap, memo) = run(true);

    assert_eq!(reports.len(), sessions.len());
    assert!(
        reports.iter().all(|r| r.alarms().count() == 0),
        "the pure cycle must stay benign"
    );
    assert!(records.is_empty(), "no audit record without an alarm");
    assert_eq!(
        snap.counter("monitor.forensics.reports").unwrap_or(0),
        0,
        "flight recorder stays un-promoted on the benign path"
    );
    assert!(
        memo[0] > Some(0),
        "the armed runtime read the memo: {memo:?}"
    );
    let (plain, _, _, plain_memo) = run(false);
    assert_eq!(format!("{plain:?}"), format!("{reports:?}"));
    assert_eq!(plain_memo, memo);
}
