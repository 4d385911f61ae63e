//! Online monitoring: a live session streamed through the monitor.
//!
//! Instead of scanning traces after the fact, the Calls Collector taps
//! the interpreter: a [`SessionTap`](adprom::trace::SessionTap) tags every
//! library call with its application and session, and a
//! one-shard [`ShardedMonitor`](adprom::core::ShardedMonitor) slides the
//! n-window forward and scores it as the calls stream in (§IV-D — "the
//! sequence includes the last call and the n−1 past calls"). The monitor
//! that multiplexes many sessions serves this one too; its verdicts are
//! the whole-trace scan's, window for window.
//!
//! ```text
//! cargo run --release --example online_monitoring
//! ```

use adprom::analysis::analyze;
use adprom::client::ClientSession;
use adprom::core::{
    build_profile, ConstructorConfig, DetectionEngine, ProfileRegistry, ShardedMonitor,
};
use adprom::trace::{run_program, CallEvent, ExecConfig, InterleavedCollector};
use adprom::workloads::supermarket;
use std::sync::Arc;

fn main() {
    println!("== online monitoring: App_s (supermarket) ==\n");
    let workload = supermarket::workload(30, 5);
    let analysis = analyze(&workload.program);
    let traces = workload.collect_traces(&analysis.site_labels);
    let (profile, _) = build_profile("App_s", &analysis, &traces, &ConstructorConfig::default());
    println!(
        "profile ready: {} states, {} symbols, threshold {:.2}\n",
        profile.hmm.n_states(),
        profile.alphabet.len(),
        profile.threshold
    );
    let engine = DetectionEngine::new(&profile);
    let registry = ProfileRegistry::new();
    registry
        .register("App_s", profile)
        .expect("trained profile validates");

    // A cash-register session traced through the collector: browse, two
    // sales, a restock, then the register closes.
    let inputs: Vec<String> = ["1", "3", "500", "2", "3", "505", "1", "4", "501", "9", "0"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut collector = InterleavedCollector::new();
    let mut session = ClientSession::connect((workload.make_db)());
    run_program(
        &workload.program,
        &mut session,
        &inputs,
        &analysis.site_labels,
        &mut collector.tap("App_s", "register-1"),
        &ExecConfig::default(),
    )
    .expect("session runs");
    let stream = collector.into_stream();

    let mut runtime = ShardedMonitor::new(Arc::new(registry), 1);
    runtime.ingest_stream(&stream);
    let reports = runtime.finish();
    assert_eq!(reports.len(), 1, "one session streamed");
    let alerts = &reports[0].alerts;
    let alarms: Vec<_> = alerts.iter().filter(|a| a.is_alarm()).collect();
    println!(
        "streamed session: {} windows scored, {} alarm(s)",
        alerts.len(),
        alarms.len()
    );
    for a in alarms.iter().take(3) {
        println!("  [{}] ll={:.2} {}", a.flag, a.log_likelihood, a.detail);
    }

    let trace: Vec<CallEvent> = stream.into_iter().map(|call| call.event).collect();
    assert_eq!(
        *alerts,
        engine.scan(&trace),
        "streamed verdicts must equal the whole-trace scan"
    );
    println!("\nDone: live monitoring adds one window score per call.");
}
