//! The overload-control contract, end to end: a monitor running with a
//! hard ingest bound and a scoring budget far below its load must (1)
//! never hold more than `capacity` events buffered, (2) under
//! backpressure, emit only alerts the serial scan emits, in its order
//! and bit for bit, with exactly its alarms — any session that alarms is
//! escalated to and pinned at the full tier — and (3) make every tier,
//! shed, and audit decision on the serial ingest clock, so histories are
//! bit-identical at any thread count.

mod fixtures;
mod oracle;

use adprom::core::{
    FaultPlan, KernelConfig, MonitorRuntime, OverloadConfig, ProfileRegistry, RuntimeConfig,
    ScoringMode, ScoringTier, SessionReport, ShedPolicy,
};
use adprom::hmm::SparseConfig;
use adprom::obs::Registry;
use adprom::trace::{interleave, CallEvent, TaggedCall};
use fixtures::{arb_sessions, cyclic_profile, event};
use oracle::Sweep;
use proptest::prelude::*;
use std::sync::Arc;

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
) -> (Vec<SessionReport>, Registry) {
    let obs = Registry::new();
    let mut runtime = MonitorRuntime::new(sparse_registry())
        .with_threads(threads)
        .with_registry(&obs)
        .with_config(RuntimeConfig {
            mode: ScoringMode::Incremental,
            overload,
            ..RuntimeConfig::default()
        });
    runtime.ingest_stream(stream);
    (runtime.finish(), obs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The starvation-floor contract, through the verdict oracle. For
    /// every random interleaving, an overloaded backpressure monitor
    /// (sparse kernel, incremental mode, budget 2, capacity 3) at threads
    /// ∈ {1, 4, 8}:
    ///
    /// * emits per session an in-order subsequence of the serial scan's
    ///   alerts, bit for bit, with the same alarm-window multiset (recall
    ///   1.0, no added alarms),
    /// * pins every alarmed session at the full tier by stream end,
    /// * keeps the buffered-queue high-water at or under the hard bound,
    /// * stamps every audit row with its tier,
    /// * and produces bit-identical reports, tier histories, and audit
    ///   rows at every thread count.
    #[test]
    fn overload_keeps_recall_and_tier_histories_are_thread_deterministic(
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
            shards: &[],
            threads: &[1, 4, 8],
            kernels: &[KernelConfig::Sparse { sparse: SparseConfig::default() }],
            modes: &[ScoringMode::Incremental],
            queue_capacity: RuntimeConfig::default().queue_capacity,
            faults: &[FaultPlan::disabled()],
            forensics: &[false],
            overloads: &[starved_overload(ShedPolicy::Backpressure, 3)],
        })?;
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
        let (reports, obs) = run_overloaded(
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
