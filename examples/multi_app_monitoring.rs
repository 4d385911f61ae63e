//! Multi-application monitoring: three applications' sessions multiplexed
//! through one [`ShardedMonitor`](adprom::core::ShardedMonitor).
//!
//! The paper profiles each application program in isolation; a deployed
//! monitor sits in front of the DBMS and sees *every* application's
//! sessions interleaved on one wire. This example builds profiles for the
//! three CA-dataset workloads (banking, supermarket, hospital), registers
//! them in a [`ProfileRegistry`], and feeds an interleaved event stream to
//! the session-multiplexed runtime — including a mid-stream profile
//! hot-swap, which only affects sessions opened after the swap (in-flight
//! sessions stay pinned to the epoch they started on).
//!
//! ```text
//! cargo run --release --example multi_app_monitoring
//! ```

use adprom::analysis::analyze;
use adprom::core::{
    build_profile, ConstructorConfig, ProfileRegistry, RuntimeConfig, ScoringMode, ShardedMonitor,
};
use adprom::obs::Registry;
use adprom::trace::{interleave, CallEvent};
use adprom::workloads::{banking, hospital, supermarket, Workload};
use std::sync::Arc;

/// A named CA-dataset workload generator.
type AppBuild = (&'static str, fn(usize, u64) -> Workload);

fn main() {
    // 1. Profile each application exactly as the single-app pipeline
    //    would: analyze → trace → build_profile.
    let builds: [AppBuild; 3] = [
        ("banking", banking::workload),
        ("supermarket", supermarket::workload),
        ("hospital", hospital::workload),
    ];
    let registry = ProfileRegistry::new();
    let mut sessions: Vec<(String, String, Vec<CallEvent>)> = Vec::new();
    for (i, (name, make)) in builds.iter().enumerate() {
        let workload = make(12, 9 + i as u64);
        let analysis = analyze(&workload.program);
        let traces = workload.collect_traces(&analysis.site_labels);
        let (profile, _) = build_profile(
            &format!("App_{name}"),
            &analysis,
            &traces,
            &ConstructorConfig::default(),
        );
        println!(
            "{name:<12} profile: {} states, {} symbols, threshold {:.2}",
            profile.hmm.n_states(),
            profile.alphabet.len(),
            profile.threshold
        );
        registry
            .register(name, profile)
            .expect("trained profile validates");
        for (s, trace) in traces.iter().enumerate() {
            sessions.push((name.to_string(), format!("{name}-{s}"), trace.clone()));
        }
    }

    // 2. One interleaved wire: events from all sessions shuffled together,
    //    each tagged (app, session). Three banking sessions are held back
    //    so they first appear after the mid-stream hot-swap below.
    let late: Vec<(String, String, Vec<CallEvent>)> = sessions
        .iter()
        .filter(|(app, session, _)| {
            app == "banking"
                && session
                    .strip_prefix("banking-")
                    .and_then(|i| i.parse::<usize>().ok())
                    .is_some_and(|i| i >= 9)
        })
        .cloned()
        .collect();
    sessions.retain(|entry| !late.contains(entry));
    let stream = interleave(&sessions, 0xCA11);
    let late_stream = interleave(&late, 0xCA12);
    println!(
        "\n{} sessions across {} apps → {} interleaved events ({} arriving post-swap)\n",
        sessions.len() + late.len(),
        builds.len(),
        stream.len() + late_stream.len(),
        late_stream.len(),
    );

    // 3. Multiplex through the runtime; flush batches of 256 buffered
    //    events across the worker pool as the stream arrives.
    let profiles = Arc::new(registry);
    let obs = Registry::new();
    let mut runtime = ShardedMonitor::new(Arc::clone(&profiles), 1)
        .with_config(RuntimeConfig {
            mode: ScoringMode::Incremental,
            queue_capacity: 256,
            ..RuntimeConfig::default()
        })
        .with_registry(&obs);

    // Feed the main stream, then hot-swap the banking profile to a
    // stricter threshold. Sessions already open keep scoring on epoch 1;
    // the held-back banking sessions arriving afterwards pin epoch 2.
    runtime.ingest_stream(&stream);
    let mut strict = profiles
        .current("banking")
        .expect("registered")
        .profile()
        .as_ref()
        .clone();
    strict.threshold += 1.0;
    profiles
        .register("banking", strict)
        .expect("swap validates before publishing");
    runtime.ingest_stream(&late_stream);
    let reports = runtime.finish();

    // 4. Per-app roll-up. Every report carries the epoch its session was
    //    pinned to, so the swap is visible in the output.
    for (name, _) in &builds {
        let mine: Vec<_> = reports.iter().filter(|r| r.app == *name).collect();
        let alarms: usize = mine.iter().map(|r| r.alarms().count()).sum();
        let epochs: (usize, usize) = mine.iter().fold((0, 0), |(e1, e2), r| {
            if r.epoch >= 2 {
                (e1, e2 + 1)
            } else {
                (e1 + 1, e2)
            }
        });
        println!(
            "{name:<12} {} sessions ({} on epoch 1, {} on epoch 2), {alarms} alarm(s)",
            mine.len(),
            epochs.0,
            epochs.1,
        );
    }

    let snap = obs.snapshot();
    println!(
        "\nmonitor: {} opened, {} finished, {} flushes, {} epoch-pinned events",
        snap.counter("monitor.sessions.opened").unwrap_or(0),
        snap.counter("monitor.sessions.finished").unwrap_or(0),
        snap.counter("monitor.flushes").unwrap_or(0),
        snap.counter("monitor.epoch_pins").unwrap_or(0),
    );
}
