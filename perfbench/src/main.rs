//! AD-PROM service benchmark: ADP1 wire bytes → `ShardedMonitor` (two
//! shards) → `finish` → every alarm appended through `AuditLog` over a
//! `DurableAuditSink`. See `perfbench/README.md` for the workloads, the
//! metric catalogue and the per-layer ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mix-steady --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones.

mod measure;
mod sys;
mod workload;

use measure::RoundResult;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{median, Kind};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Untraced rounds run first and left out of every timing: the first
/// round faults in the heap and fills the caches.
const WARM_UP: usize = 1;

/// Output directory, relative to the repository root the benchmark runs
/// from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload `{value}` (one of {})",
                        workload::NAMES.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace is 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit the checkout was built from, read from `.git` when the
/// checkout is a git repository.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|rev| rev.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The rounds the hypervisor disturbed least: those whose steal rate (CPU
/// time it took from this machine per second of the round, the `steal`
/// column of `/proc/stat`) is at most the median rate. A vCPU the host
/// deschedules stalls the frame it is in, and a parallel flush waits for
/// both vCPUs. Keeping at least half the rounds, rather than those under
/// a fixed threshold, means the rule never switches between runs; on a
/// quiet host, where most rounds see no steal, nearly every round counts.
fn least_stolen(rounds: &[RoundResult]) -> Vec<&RoundResult> {
    let rate = |r: &RoundResult| r.steal_ticks as f64 / r.wall_s;
    let mut rates: Vec<f64> = rounds.iter().map(rate).collect();
    let limit = median(&mut rates);
    rounds.iter().filter(|r| rate(r) <= limit).collect()
}

/// Median throughput of `rounds`, records offered per second.
fn median_eps(rounds: &[&RoundResult]) -> f64 {
    let mut eps: Vec<f64> = rounds
        .iter()
        .map(|r| r.tally.offered as f64 / r.wall_s)
        .collect();
    median(&mut eps)
}

fn share(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sum of the quality counters across rounds.
fn total_quality(rounds: &[RoundResult]) -> measure::Quality {
    let mut q = measure::Quality::default();
    for r in rounds {
        q.sessions += r.quality.sessions;
        q.failed += r.quality.failed;
        q.attacked += r.quality.attacked;
        q.attacked_alarmed += r.quality.attacked_alarmed;
        q.benign += r.quality.benign;
        q.benign_alarmed += r.quality.benign_alarmed;
        q.alarms += r.quality.alarms;
    }
    q
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let code = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

fn run(args: &Args, scratch: &Path) -> ExitCode {
    let kind = args.kind;
    let deployment = workload::deploy(kind, SETUP_REPEATS);
    let round = workload::generate(&deployment, args.seed);
    let refs = workload::references(&deployment, &round);
    let expect = round.expect;

    let mut plain: Vec<RoundResult> = Vec::new();
    let mut traced: Vec<RoundResult> = Vec::new();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // Enough rounds: after the warm-up, at least three timed untraced
    // ones (the median needs them), at least 1,000 timed frames (ten
    // samples beyond p99) and, when tracing, at least two timed traced
    // ones.
    let enough = |plain: &[RoundResult], traced: &[RoundResult]| {
        let timed = least_stolen(plain.get(WARM_UP..).unwrap_or_default()).len();
        timed >= 3
            && timed * round.frames.len() >= 1000
            && (!args.trace || least_stolen(traced).len() >= 2)
    };
    let start = Instant::now();
    let mut index = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds || !enough(&plain, &traced) {
        let result = if args.trace && index % 2 == 1 {
            measure::run_traced(&deployment, &round, &refs, scratch, index)
        } else {
            measure::run_plain(&deployment, &round, &refs, scratch, index)
        };
        index += 1;
        let t = result.tally;
        let matches = t.balanced()
            && t.offered == expect.offered
            && t.defective_frames == expect.defective_frames
            && t.in_defective_frames == expect.in_defective_frames
            && t.quarantined == expect.quarantined
            && t.unknown_app == expect.unknown_app
            && t.admitted + t.shed == expect.routed_profiled;
        if !matches {
            eprintln!(
                "perfbench: unbalanced record ledger on {}: got {t:?}, expected {expect:?}",
                kind.name()
            );
            return ExitCode::from(3);
        }
        if result.ledger.is_some() {
            traced.push(result);
        } else {
            plain.push(result);
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    let timed = least_stolen(&plain[WARM_UP..]);
    let timed_traced = least_stolen(&traced);

    let all: Vec<&RoundResult> = plain.iter().chain(&traced).collect();
    let quality = total_quality(&plain);
    let digest = plain[0].digest;
    let deterministic = all.iter().all(|r| r.digest == digest);
    let audit_ok = all
        .iter()
        .all(|r| r.audit_records as usize == r.quality.alarms && r.audit_write_errors == 0);
    let traced_ok = traced
        .iter()
        .all(|r| r.quality.failed == 0 && r.tally == plain[0].tally);
    let recall = share(quality.attacked_alarmed, quality.attacked);
    let correct = quality.failed == 0 && deterministic && audit_ok && traced_ok;
    if !deterministic {
        eprintln!("perfbench: rounds over the same input produced different reports");
    }
    if !audit_ok {
        eprintln!("perfbench: audit records do not match the alarms raised");
    }

    let events_per_s = median_eps(&timed);
    let mut frames: Vec<u64> = timed
        .iter()
        .flat_map(|r| r.frame_ns.iter().copied())
        .collect();
    frames.sort_unstable();
    // Memory a round frees can stay resident (fragmented pages that
    // `malloc_trim` cannot return) and be reused by the next round, which
    // hides growth; reuse can only hide growth, never add it, so the
    // largest growth of any round is the least hidden one.
    let rss_growth = plain.iter().map(|r| r.rss_growth_bytes).fold(0.0, f64::max);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let mut per_metric: Vec<(&'static str, Vec<f64>, &'static str)> = Vec::new();
        for r in &timed_traced {
            let ledger = r.ledger.as_ref().expect("traced rounds carry a ledger");
            for (i, &(name, value, unit)) in ledger.metrics.iter().enumerate() {
                if per_metric.len() <= i {
                    per_metric.push((name, Vec::new(), unit));
                }
                per_metric[i].1.push(value);
            }
        }
        for (name, mut values, unit) in per_metric {
            metrics.push((name.to_string(), median(&mut values), unit));
        }
        let live_peak = traced.iter().map(|r| r.live_peak).max().unwrap_or(0);
        metrics.push((
            "runtime.session.bytes_per_live".to_string(),
            if live_peak > 0 {
                rss_growth / live_peak as f64
            } else {
                0.0
            },
            "bytes",
        ));
        metrics.push((
            "runtime.session.live_peak".to_string(),
            live_peak as f64,
            "count",
        ));
        metrics.push((
            "ledger.tracing_overhead".to_string(),
            events_per_s / median_eps(&timed_traced) - 1.0,
            "ratio",
        ));
    } else {
        metrics.push(("events_per_s".to_string(), events_per_s, "1/s"));
        metrics.push((
            "frame_p50_us".to_string(),
            percentile(&frames, 50.0) / 1e3,
            "us",
        ));
        metrics.push((
            "frame_p99_us".to_string(),
            percentile(&frames, 99.0) / 1e3,
            "us",
        ));
        metrics.push(("setup_s".to_string(), deployment.setup_s, "s"));
        metrics.push((
            "rss_growth_mib".to_string(),
            rss_growth / (1024.0 * 1024.0),
            "MiB",
        ));
    }

    let shed: usize = plain.iter().map(|r| r.tally.shed).sum();
    let offered: usize = plain.iter().map(|r| r.tally.offered).sum();
    let quality_lines = [
        ("failed_share", share(quality.failed, quality.sessions)),
        ("shed_share", share(shed, offered)),
        (
            "attack_recall",
            if quality.attacked == 0 {
                f64::NAN
            } else {
                recall
            },
        ),
        (
            "benign_alarm_share",
            share(quality.benign_alarmed, quality.benign),
        ),
    ];

    // The stamp: what a later run must match to be comparable.
    let stamp = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} git={} rustc=\"{}\" {}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        env!("PERFBENCH_RUSTC"),
        plain[0].kernel,
    );
    println!("perfbench {stamp}");
    println!(
        "rounds: {} untraced ({WARM_UP} warm-up), {} traced in {measured_s:.2} s, {} timed (least hypervisor steal); {} records and {} sessions per round; {} frames timed (p99 leaves {} beyond it)",
        plain.len(),
        traced.len(),
        timed.len() + timed_traced.len(),
        expect.offered,
        plain[0].quality.sessions,
        frames.len(),
        frames.len() / 100,
    );
    println!(
        "untraced rounds, events/s (steal ticks): {}",
        plain
            .iter()
            .map(|r| format!(
                "{:.0} ({})",
                r.tally.offered as f64 / r.wall_s,
                r.steal_ticks
            ))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "untraced rounds, RSS growth MiB: {}",
        plain
            .iter()
            .map(|r| format!("{:.1}", r.rss_growth_bytes / (1024.0 * 1024.0)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    for (name, value) in quality_lines {
        if value.is_nan() {
            println!("  {name:<40} {:>16} (no attacked sessions)", "n/a");
        } else {
            println!("  {name:<40} {value:>16.4} ratio");
        }
    }

    let mut json = String::new();
    write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        quality.sessions.max(1),
        quality.failed
    )
    .expect("write to String");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    json.push_str("}}");

    let base = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}",
        kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let artifact = format!(
        "{{\"stamp\": \"{}\", \"quality\": {{{}}}, \"result\": {json}}}\n",
        stamp.replace('"', "'"),
        quality_lines
            .iter()
            .map(|(n, v)| format!("\"{n}\": {}", if v.is_finite() { *v } else { -1.0 }))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Err(e) = std::fs::write(base.with_extension("json"), artifact) {
        eprintln!("perfbench: cannot write result artifact: {e}");
    }
    if let Some(ledger) = traced.last().and_then(|r| r.ledger.as_ref()) {
        if let Err(e) = ledger.spans.write(&base.with_extension("spans.tsv")) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
    }
    println!("{json}");
    ExitCode::SUCCESS
}
