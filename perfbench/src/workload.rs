//! The three traffic mixes: profile set-up (the timed `setup_s` part),
//! the seeded load generator, and the untimed reference verdicts every
//! run is checked against.

use adprom_analysis::{analyze, Analysis};
use adprom_attacks::{
    attack1_insert_similar_print, attack2_new_call_in_function, attack3_reuse_print,
    attack4_binary_patch,
};
use adprom_core::{
    build_profile, encode_frame, Alert, ConstructorConfig, FrameDecoder, IngestStatus,
    KernelConfig, OverloadConfig, ProfileRegistry, RuntimeConfig, ScoringMode, ShardedMonitor,
    ShedPolicy, WIRE_HEADER,
};
use adprom_hmm::SparseConfig;
use adprom_lang::LibCall;
use adprom_trace::{CallEvent, TaggedCall};
use adprom_workloads::{banking, hospital, supermarket, Workload};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["mix-steady", "attack-overload", "wire-hostile"];

/// Shards of the service under test.
pub const SHARDS: usize = 2;

/// Sessions the load generator keeps open at once.
const OPEN_SESSIONS: usize = 256;

/// What distinguishes one workload from another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MixSteady,
    AttackOverload,
    WireHostile,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "mix-steady" => Some(Kind::MixSteady),
            "attack-overload" => Some(Kind::AttackOverload),
            "wire-hostile" => Some(Kind::WireHostile),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::MixSteady => NAMES[0],
            Kind::AttackOverload => NAMES[1],
            Kind::WireHostile => NAMES[2],
        }
    }

    /// Records per wire frame (one frame per `ingest_frames` call).
    pub fn frame_records(self) -> usize {
        match self {
            Kind::MixSteady => 256,
            Kind::AttackOverload => 64,
            Kind::WireHostile => 16,
        }
    }

    /// Records offered per round. Sized so one round takes roughly half
    /// a second to a second on a 2-core x86-64 box, which leaves room for
    /// many rounds (and their median) in a 30-second run.
    fn round_records(self) -> usize {
        match self {
            Kind::MixSteady => 48_000,
            Kind::AttackOverload => 24_000,
            Kind::WireHostile => 200_000,
        }
    }

    /// The service configuration under test.
    pub fn runtime_config(self) -> RuntimeConfig {
        match self {
            Kind::MixSteady | Kind::WireHostile => RuntimeConfig::default(),
            Kind::AttackOverload => RuntimeConfig {
                mode: ScoringMode::Incremental,
                overload: OverloadConfig {
                    capacity: 64,
                    budget: 32,
                    shed_policy: ShedPolicy::DropNewest,
                    ..OverloadConfig::default()
                },
                ..RuntimeConfig::default()
            },
        }
    }
}

/// One application under monitoring: its program (the load generator
/// runs it) and the CA-dataset training suite its profile learns from.
struct App {
    name: &'static str,
    make: fn(usize, u64) -> Workload,
    train_cases: usize,
    train_seed: u64,
}

/// The CA-dataset applications at their Table III training sizes.
const BANKING: App = App {
    name: "banking",
    make: banking::workload,
    train_cases: 73,
    train_seed: 0xCA02,
};
const SUPERMARKET: App = App {
    name: "supermarket",
    make: supermarket::workload,
    train_cases: 36,
    train_seed: 0xCA03,
};
const HOSPITAL: App = App {
    name: "hospital",
    make: hospital::workload,
    train_cases: 63,
    train_seed: 0xCA01,
};

fn apps(kind: Kind) -> Vec<App> {
    match kind {
        Kind::MixSteady | Kind::WireHostile => vec![BANKING, SUPERMARKET, HOSPITAL],
        Kind::AttackOverload => vec![BANKING, HOSPITAL],
    }
}

/// One monitored session as the load generator produces it.
#[derive(Debug, Clone)]
pub struct Session {
    pub app: String,
    pub id: String,
    pub events: Vec<CallEvent>,
    /// True for §V-C attack sessions (`attack-overload` only).
    pub attacked: bool,
    /// False for tenant apps that have no registered profile.
    pub profiled: bool,
}

/// Profiles and the programs the load generator runs.
pub struct Deployment {
    pub kind: Kind,
    pub profiles: Arc<ProfileRegistry>,
    apps: Vec<(App, Workload, Analysis)>,
    /// Median wall time of one set-up (analysis, training, publication).
    pub setup_s: f64,
}

fn constructor_config(kind: Kind) -> ConstructorConfig {
    let mut config = ConstructorConfig::default();
    // Six Baum–Welch rounds, as the repository's detection benchmarks
    // train: the default 50 would make one set-up cost ~25 s and leave
    // no room to repeat it within a run.
    config.train.max_iterations = 6;
    if kind == Kind::AttackOverload {
        // Flatten Baum–Welch's floor dust so the sparse kernel's CSR
        // decomposition is sparse (and exact at ε = 0).
        config.flatten_epsilon = 1e-4;
    }
    config
}

fn empty_registry(kind: Kind) -> ProfileRegistry {
    match kind {
        Kind::MixSteady | Kind::WireHostile => ProfileRegistry::new(),
        Kind::AttackOverload => ProfileRegistry::new().with_kernel(KernelConfig::Sparse {
            sparse: SparseConfig::default(),
        }),
    }
}

/// Builds the deployment `repeats` times and keeps the last one. Only
/// program work is timed: analysis, profile construction and registry
/// publication. Running the training suites is trace generation, which
/// the load generator pays for, so it happens once, off the clock.
pub fn deploy(kind: Kind, repeats: usize) -> Deployment {
    let config = constructor_config(kind);
    let mut training: Option<Vec<Vec<Vec<CallEvent>>>> = None;
    let mut times = Vec::with_capacity(repeats);
    let mut built = None;
    for _ in 0..repeats.max(1) {
        let workloads: Vec<(App, Workload)> = apps(kind)
            .into_iter()
            .map(|app| {
                let workload = (app.make)(app.train_cases, app.train_seed);
                (app, workload)
            })
            .collect();
        let t0 = Instant::now();
        let analyzed: Vec<(App, Workload, Analysis)> = workloads
            .into_iter()
            .map(|(app, workload)| {
                let analysis = analyze(&workload.program);
                (app, workload, analysis)
            })
            .collect();
        let mut elapsed = t0.elapsed().as_secs_f64();
        let traces = training.get_or_insert_with(|| {
            analyzed
                .iter()
                .map(|(_, workload, analysis)| workload.collect_traces(&analysis.site_labels))
                .collect()
        });
        let t1 = Instant::now();
        let profiles = empty_registry(kind);
        for ((app, _, analysis), app_traces) in analyzed.iter().zip(traces.iter()) {
            let (profile, _) = build_profile(app.name, analysis, app_traces, &config);
            profiles
                .register(app.name, profile)
                .expect("a trained CA-dataset profile validates");
        }
        elapsed += t1.elapsed().as_secs_f64();
        times.push(elapsed);
        built = Some((Arc::new(profiles), analyzed));
    }
    let (profiles, apps) = built.expect("at least one set-up ran");
    Deployment {
        kind,
        profiles,
        apps,
        setup_s: median(&mut times),
    }
}

/// splitmix64: a small, well-mixed, seedable generator so a seed fixes
/// every generated input bit for bit.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seed for the app's held-out test cases. Mixed from the run seed,
/// so it never repeats a training seed in practice; the assertion makes
/// the hold-out explicit.
fn detection_seed(rng: &mut Rng, app: &App) -> u64 {
    let seed = rng.next_u64();
    assert_ne!(seed, app.train_seed, "detection sessions must be held out");
    seed
}

/// Held-out sessions of one app, generated in batches until `want`
/// records are reached. Empty traces carry no event and are dropped.
fn benign_sessions(
    app: &App,
    analysis: &Analysis,
    rng: &mut Rng,
    want: usize,
    tag: &str,
) -> Vec<Session> {
    let mut out = Vec::new();
    let mut have = 0usize;
    while have < want {
        let workload = (app.make)(64, detection_seed(rng, app));
        for events in workload.collect_traces(&analysis.site_labels) {
            if events.is_empty() {
                continue;
            }
            have += events.len();
            out.push(Session {
                app: app.name.to_string(),
                id: format!("{tag}{}-{}", app.name, out.len()),
                events,
                attacked: false,
                profiled: true,
            });
            if have >= want {
                break;
            }
        }
    }
    out
}

/// §V-C attack sessions of one app: attacks 1–4 as program mutants run
/// on held-out inputs (plus the attack-5 injection input for banking).
/// A mutant run whose calls match the unmodified program's on the same
/// input never executed the attack, so it is not an attack session.
fn attack_sessions(
    app: &App,
    workload: &Workload,
    analysis: &Analysis,
    rng: &mut Rng,
    cases: usize,
) -> Vec<Session> {
    let query = if app.name == "banking" {
        "SELECT * FROM clients"
    } else {
        "SELECT * FROM patients"
    };
    let inputs = (app.make)(cases, detection_seed(rng, app)).test_cases;
    let mutants = [
        ("attack1", attack1_insert_similar_print(&workload.program)),
        (
            "attack2",
            attack2_new_call_in_function(&workload.program, query),
        ),
        ("attack3", attack3_reuse_print(&workload.program)),
        ("attack4", attack4_binary_patch(&workload.program, query)),
    ];
    let mut out = Vec::new();
    for (attack, outcome) in mutants {
        let Some(outcome) = outcome else { continue };
        let mutant = Workload {
            name: workload.name.clone(),
            dbms: workload.dbms,
            program: outcome.program,
            make_db: workload.make_db,
            test_cases: inputs.clone(),
        };
        let mutant_analysis = analyze(&mutant.program);
        for (i, case) in inputs.iter().enumerate() {
            let attacked = mutant.run_case(case, &mutant_analysis.site_labels);
            let benign = workload.run_case(case, &analysis.site_labels);
            if attacked.is_empty() || behaviour(&attacked) == behaviour(&benign) {
                continue;
            }
            out.push(Session {
                app: app.name.to_string(),
                id: format!("{}/{attack}#{i}", app.name),
                events: attacked,
                attacked: true,
                profiled: true,
            });
        }
    }
    if app.name == "banking" {
        let injected = workload.run_case(&banking::injection_case(), &analysis.site_labels);
        for i in 0..cases.div_ceil(4) {
            out.push(Session {
                app: app.name.to_string(),
                id: format!("banking/attack5#{i}"),
                events: injected.clone(),
                attacked: true,
                profiled: true,
            });
        }
    }
    out
}

/// What a trace does, without the DDG block ids: re-analysing a mutant
/// renumbers blocks, so labels shift even where no attack code ran. A
/// call, its caller and whether it outputs query data are what an
/// executed attack changes.
fn behaviour(events: &[CallEvent]) -> Vec<(LibCall, &str, bool)> {
    events
        .iter()
        .map(|e| (e.call, &*e.caller, e.name.contains("_Q")))
        .collect()
}

/// One generated round: the frames handed to `ingest_frames`, what each
/// record is expected to become, and the sessions with the events that
/// survive the wire (the reference scans those).
pub struct Round {
    pub sessions: Vec<Session>,
    pub frames: Vec<Vec<u8>>,
    /// Records carried by each frame (known to the generator, so records
    /// lost with a defective frame can still be accounted for).
    pub frame_records: Vec<usize>,
    pub expect: Expected,
    /// Per session, the events that reach the monitor.
    pub surviving: Vec<Vec<CallEvent>>,
}

/// Where every offered record must end up.
#[derive(Debug, Clone, Copy, Default)]
pub struct Expected {
    pub offered: usize,
    pub defective_frames: usize,
    pub in_defective_frames: usize,
    pub quarantined: usize,
    pub unknown_app: usize,
    /// Records of profiled sessions that reach a shard (admitted or shed).
    pub routed_profiled: usize,
}

/// Generates one round of the workload from `seed`.
pub fn generate(deployment: &Deployment, seed: u64) -> Round {
    let kind = deployment.kind;
    let mut rng = Rng::new(seed ^ 0xADB0_0000_0000_0000);
    let target = kind.round_records();
    let mut sessions: Vec<Session> = Vec::new();
    match kind {
        Kind::MixSteady => {
            let per_app = target / deployment.apps.len();
            for (app, _, analysis) in &deployment.apps {
                sessions.extend(benign_sessions(app, analysis, &mut rng, per_app, ""));
            }
        }
        Kind::AttackOverload => {
            let per_app = target / deployment.apps.len();
            for (app, workload, analysis) in &deployment.apps {
                let attacks = attack_sessions(app, workload, analysis, &mut rng, 24);
                let attack_records: usize = attacks.iter().map(|s| s.events.len()).sum();
                sessions.extend(attacks);
                sessions.extend(benign_sessions(
                    app,
                    analysis,
                    &mut rng,
                    per_app.saturating_sub(attack_records),
                    "",
                ));
            }
        }
        Kind::WireHostile => {
            // One record in ten is from a profiled app; the rest come
            // from tenant apps that have no profile. Tenant traffic
            // replays the same programs under 24 tenant app ids.
            let per_app = target / 10 / deployment.apps.len();
            for (app, _, analysis) in &deployment.apps {
                sessions.extend(benign_sessions(app, analysis, &mut rng, per_app, ""));
                let tenants = benign_sessions(app, analysis, &mut rng, per_app * 9, "t");
                for (i, mut session) in tenants.into_iter().enumerate() {
                    session.app = format!("tenant-{:02}", (i * 7 + app.name.len()) % 24);
                    session.profiled = false;
                    sessions.push(session);
                }
            }
        }
    }
    // Arrival order: a seeded shuffle, so apps (and attacks) mix.
    for i in (1..sessions.len()).rev() {
        sessions.swap(i, rng.below(i + 1));
    }
    let stream = arrive(&sessions, &mut rng);
    frame(kind, sessions, &stream, &mut rng)
}

/// Bounded-concurrency arrival: at most [`OPEN_SESSIONS`] sessions are
/// open; each step emits the next event of a uniformly drawn open
/// session, and a finished session's slot goes to the next arrival.
/// O(1) per event. Returns `(session, event index)` pairs in stream
/// order.
fn arrive(sessions: &[Session], rng: &mut Rng) -> Vec<(usize, usize)> {
    let total: usize = sessions.iter().map(|s| s.events.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut open: Vec<(usize, usize)> = Vec::with_capacity(OPEN_SESSIONS);
    let mut next = 0usize;
    while out.len() < total {
        while open.len() < OPEN_SESSIONS && next < sessions.len() {
            open.push((next, 0));
            next += 1;
        }
        let k = rng.below(open.len());
        let (session, cursor) = open[k];
        out.push((session, cursor));
        if cursor + 1 == sessions[session].events.len() {
            open.swap_remove(k);
        } else {
            open[k].1 += 1;
        }
    }
    out
}

/// Encodes the stream as frames and, on `wire-hostile`, damages it: one
/// record in 100 gets a control character in its name (the validator
/// quarantines it) and one frame in 50 gets a flipped payload byte (the
/// decoder's CRC check rejects the whole frame).
fn frame(kind: Kind, sessions: Vec<Session>, stream: &[(usize, usize)], rng: &mut Rng) -> Round {
    let hostile = kind == Kind::WireHostile;
    let mut expect = Expected {
        offered: stream.len(),
        ..Expected::default()
    };
    let mut surviving: Vec<Vec<CallEvent>> = vec![Vec::new(); sessions.len()];
    let mut frames = Vec::new();
    let mut frame_records = Vec::new();
    for chunk in stream.chunks(kind.frame_records()) {
        let mut batch = Vec::with_capacity(chunk.len());
        let mut defective_record = Vec::with_capacity(chunk.len());
        for &(s, e) in chunk {
            let session = &sessions[s];
            let mut event = session.events[e].clone();
            let damaged = hostile && rng.below(100) == 0;
            if damaged {
                let name = event.name.to_string();
                let mid = name.len() / 2;
                event.name = format!("{}\u{7}{}", &name[..mid], &name[mid..]).into();
            }
            defective_record.push(damaged);
            batch.push(TaggedCall {
                app: session.app.clone(),
                session: session.id.clone(),
                event,
            });
        }
        let mut bytes = encode_frame(&batch);
        if hostile && rng.below(50) == 0 {
            let payload = bytes.len() - WIRE_HEADER - 1;
            bytes[WIRE_HEADER + rng.below(payload)] ^= 0x5A;
            expect.defective_frames += 1;
            expect.in_defective_frames += chunk.len();
        } else {
            for (&(s, e), damaged) in chunk.iter().zip(defective_record) {
                if damaged {
                    expect.quarantined += 1;
                } else if sessions[s].profiled {
                    expect.routed_profiled += 1;
                    surviving[s].push(sessions[s].events[e].clone());
                } else {
                    expect.unknown_app += 1;
                }
            }
        }
        frame_records.push(chunk.len());
        frames.push(bytes);
    }
    Round {
        sessions,
        frames,
        frame_records,
        expect,
        surviving,
    }
}

/// What a session's monitoring must produce, computed untimed.
pub enum Reference {
    /// The exact alert sequence of a serial scan of the surviving events.
    Exact(Vec<Alert>),
    /// The unconstrained run's alarm windows over the admitted events,
    /// sorted: an overloaded run may add alarms, never lose one. Shed
    /// events are accounted in `shed_share`; a shed changes which
    /// windows exist, so windows are compared over what was admitted.
    AlarmFloor(Vec<Vec<String>>),
}

impl Deployment {
    /// A service over the deployment's profiles. Each round is a fresh
    /// deployment start: overload episodes of an earlier round must not
    /// carry a degraded-app boost into this one.
    pub fn fresh_monitor(&self) -> ShardedMonitor {
        for app in self.profiles.apps() {
            if let Some(health) = self.profiles.health(&app) {
                health.reset();
            }
        }
        ShardedMonitor::new(Arc::clone(&self.profiles), SHARDS)
            .with_config(self.kind.runtime_config())
    }
}

/// Per session, the events the service admits for scoring. Shedding
/// drops events on the serial ingest clock, so one untimed pass through
/// `ShardedMonitor::ingest` tells which; without a shed policy this is
/// every event that survives the wire.
fn admitted_events(deployment: &Deployment, round: &Round) -> Vec<Vec<CallEvent>> {
    if deployment.kind.runtime_config().overload.shed_policy != ShedPolicy::DropNewest {
        return round.surviving.clone();
    }
    let index: HashMap<(&str, &str), usize> = round
        .sessions
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.app.as_str(), s.id.as_str()), i))
        .collect();
    let mut admitted = vec![Vec::new(); round.sessions.len()];
    let mut monitor = deployment.fresh_monitor();
    for frame in &round.frames {
        for batch in FrameDecoder::new(frame) {
            let batch = batch.expect("the shedding workload sends clean frames");
            for record in &batch {
                let tagged = record.to_tagged();
                if matches!(
                    monitor.ingest(&tagged),
                    IngestStatus::Admitted | IngestStatus::Backpressured
                ) {
                    admitted[index[&(record.app, record.session)]].push(tagged.event);
                }
            }
        }
    }
    monitor.finish();
    admitted
}

/// Per-session references for a round (`None` for sessions that never
/// reach a shard: tenant apps, or every event lost on the wire).
pub fn references(deployment: &Deployment, round: &Round) -> Vec<Option<Reference>> {
    let kind = deployment.kind;
    let mode = kind.runtime_config().mode;
    let admitted = admitted_events(deployment, round);
    round
        .sessions
        .iter()
        .zip(&admitted)
        .map(|(session, events)| {
            if !session.profiled || events.is_empty() {
                return None;
            }
            let scorer = deployment
                .profiles
                .scorer(&session.app)
                .expect("profiled app is registered");
            Some(match mode {
                ScoringMode::ExactWindows => Reference::Exact(scorer.scan(events, &session.id)),
                ScoringMode::Incremental => {
                    let (alerts, _) = scorer.scan_incremental(events, &session.id);
                    Reference::AlarmFloor(alarm_windows(&alerts))
                }
            })
        })
        .collect()
}

/// Sorted alarm windows of an alert sequence.
pub fn alarm_windows(alerts: &[Alert]) -> Vec<Vec<String>> {
    let mut windows: Vec<Vec<String>> = alerts
        .iter()
        .filter(|a| a.is_alarm())
        .map(|a| a.window.clone())
        .collect();
    windows.sort();
    windows
}

/// Median of `values` (sorts in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
