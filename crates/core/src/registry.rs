//! Layer 2 of the detection stack: the multi-application profile registry
//! with epoch-based hot-swap.
//!
//! A production deployment monitors many profiled applications at once,
//! and profiles get retrained while traffic flows (concept drift). The
//! [`ProfileRegistry`] keys profiles by application id and versions each
//! app's profile with a monotonically increasing **epoch**:
//!
//! * [`ProfileRegistry::register`] validates the incoming profile
//!   ([`Profile::validate`]) and resolves the configured scoring kernel
//!   against it (validated CSR build) **before** publishing — a bad
//!   profile, or one the CSR build refuses, can never replace a good one:
//!   it is rejected and the old epoch stays in force;
//! * publishing is an atomic `Arc` swap under a short write lock: readers
//!   ([`ProfileRegistry::current`]) grab an `Arc<ProfileEpoch>` and score
//!   against it lock-free from then on, so **in-flight windows finish on
//!   the epoch they started with** while new sessions pick up the new one;
//! * each app carries a [`HealthMonitor`]: rejected swaps degrade the
//!   app's health so operators see which tenant is running stale.
//!
//! The expensive per-profile work — the CSR decomposition — happens once
//! per epoch, here; every scorer/engine/detector built from the epoch
//! shares it through an `Arc`.

use crate::detect::{DetectionEngine, KernelConfig, KernelState};
use crate::profile::{LoadPolicy, Profile, ProfileDefect, ProfileIoError};
use crate::resilience::HealthMonitor;
use crate::scorer::{KernelStatus, WindowScorer};
use crate::telemetry::RegistryMetrics;
use adprom_hmm::HmmError;
use adprom_obs::Registry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// One published generation of an application's profile: the shared
/// profile, the kernel resolved against it (CSR built once), and the
/// epoch number. Immutable once published — a hot-swap publishes a new
/// `ProfileEpoch`, it never mutates an old one.
#[derive(Debug, Clone)]
pub struct ProfileEpoch {
    app: String,
    epoch: u64,
    profile: Arc<Profile>,
    kernel: KernelState,
    status: KernelStatus,
}

impl ProfileEpoch {
    /// The application id this epoch belongs to.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// The epoch number (1 for the first registration, +1 per swap).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared profile.
    pub fn profile(&self) -> &Arc<Profile> {
        &self.profile
    }

    /// Kernel and batch width this epoch scores with (always in f64).
    pub fn kernel_status(&self) -> &KernelStatus {
        &self.status
    }

    /// A [`WindowScorer`] scoring on this epoch. Cheap: the profile and
    /// the CSR decomposition are shared, not rebuilt.
    pub fn scorer(&self) -> WindowScorer {
        WindowScorer::new(Arc::clone(&self.profile))
            .with_kernel_state(self.kernel.clone(), self.status.clone())
    }

    /// A [`DetectionEngine`] scoring on this epoch.
    pub fn engine(&self) -> DetectionEngine {
        DetectionEngine::from_scorer(self.scorer())
    }
}

/// Why [`ProfileRegistry::register`] refused a profile. The previously
/// published epoch (if any) stays in force.
#[derive(Debug)]
pub enum SwapError {
    /// The profile failed semantic validation.
    Invalid(ProfileDefect),
    /// The profile failed to load from disk.
    Io(ProfileIoError),
    /// The configured kernel's validated CSR build refused the profile's
    /// model; carries the reason.
    KernelRefused(HmmError),
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::Invalid(defect) => write!(f, "profile rejected: {defect}"),
            SwapError::Io(e) => write!(f, "profile load failed: {e}"),
            SwapError::KernelRefused(e) => write!(f, "CSR validation refused the profile: {e}"),
        }
    }
}

impl std::error::Error for SwapError {}

#[derive(Debug)]
struct AppEntry {
    current: Arc<ProfileEpoch>,
    health: HealthMonitor,
}

/// Multi-application profile store with epoch-based atomic hot-swap.
#[derive(Debug)]
pub struct ProfileRegistry {
    /// Kernel resolved against every registered profile (per epoch).
    kernel: KernelConfig,
    /// How profiles loaded from disk treat semantic defects.
    policy: LoadPolicy,
    apps: RwLock<BTreeMap<String, AppEntry>>,
    metrics: RegistryMetrics,
}

impl Default for ProfileRegistry {
    fn default() -> ProfileRegistry {
        ProfileRegistry::new()
    }
}

impl ProfileRegistry {
    /// An empty registry: dense kernel, strict load policy,
    /// instrumentation disabled.
    pub fn new() -> ProfileRegistry {
        ProfileRegistry {
            kernel: KernelConfig::Dense,
            policy: LoadPolicy::Strict,
            apps: RwLock::new(BTreeMap::new()),
            metrics: RegistryMetrics::disabled(),
        }
    }

    /// Selects the scoring kernel resolved against every registered
    /// profile. Applies to registrations from now on; already-published
    /// epochs keep the kernel they were built with.
    pub fn with_kernel(mut self, kernel: KernelConfig) -> ProfileRegistry {
        self.kernel = kernel;
        self
    }

    /// How [`ProfileRegistry::load_file`] treats semantic defects.
    pub fn with_load_policy(mut self, policy: LoadPolicy) -> ProfileRegistry {
        self.policy = policy;
        self
    }

    /// Registers metric handles (`registry.apps`, `registry.swaps`,
    /// `registry.swaps_rejected`).
    pub fn with_registry(mut self, registry: &Registry) -> ProfileRegistry {
        self.metrics = RegistryMetrics::from_registry(registry);
        self
    }

    /// Publishes `profile` for `app`, validating first. On success the new
    /// epoch is visible to every subsequent [`ProfileRegistry::current`]
    /// call and the epoch number is returned; scorers built from the old
    /// epoch keep working on their own `Arc` — in-flight windows finish on
    /// the old epoch.
    ///
    /// On failure — a profile that fails [`Profile::validate`], or one
    /// the configured kernel's CSR build refuses
    /// ([`SwapError::KernelRefused`]) — the old epoch (if any) stays in
    /// force, the app's health degrades with the reason, and
    /// `registry.swaps_rejected` ticks.
    pub fn register(&self, app: &str, profile: Profile) -> Result<u64, SwapError> {
        if let Err(defect) = profile.validate() {
            self.reject(app, &format!("hot-swap rejected for `{app}`: {defect}"));
            return Err(SwapError::Invalid(defect));
        }
        // Resolve the kernel outside the lock — CSR construction is the
        // expensive part of a swap and must not block readers.
        let profile = Arc::new(profile);
        let kernel = match KernelState::build_validated(self.kernel, &profile) {
            Ok(kernel) => kernel,
            Err(reason) => {
                let err = SwapError::KernelRefused(reason);
                self.reject(app, &format!("hot-swap rejected for `{app}`: {err}"));
                return Err(err);
            }
        };
        // The published status reports the batch width the epoch's
        // scorers will run with — derived through the scorer itself so
        // registry snapshots can never drift from what scores.
        let status = WindowScorer::new(Arc::clone(&profile))
            .with_kernel_state(kernel.clone(), KernelStatus::in_force(self.kernel.label()))
            .status()
            .clone();
        let mut apps = self.apps.write().expect("registry poisoned");
        let (epoch, health) = match apps.get(app) {
            Some(entry) => (entry.current.epoch + 1, entry.health.clone()),
            None => (1, HealthMonitor::new()),
        };
        let published = Arc::new(ProfileEpoch {
            app: app.to_string(),
            epoch,
            profile,
            kernel,
            status,
        });
        apps.insert(
            app.to_string(),
            AppEntry {
                current: published,
                health,
            },
        );
        self.metrics.apps.set(apps.len() as i64);
        self.metrics.swaps.inc();
        Ok(epoch)
    }

    /// Loads a versioned `ADPROM-PROFILE v1` file and registers it under
    /// `app` — the persistence-backed hot-swap path. The configured
    /// [`LoadPolicy`] governs defect handling during the load; the
    /// registry's own validation then gates publication as in
    /// [`ProfileRegistry::register`].
    pub fn load_file(&self, app: &str, path: &Path) -> Result<u64, SwapError> {
        let profile = Profile::load_with(path, self.policy).map_err(|e| {
            self.reject(app, &format!("hot-swap load failed for `{app}`: {e}"));
            SwapError::Io(e)
        })?;
        self.register(app, profile)
    }

    /// Books a refused swap: the app's health (once it has an epoch)
    /// degrades with `reason`, and `registry.swaps_rejected` ticks.
    fn reject(&self, app: &str, reason: &str) {
        if let Some(entry) = self.apps.write().expect("registry poisoned").get_mut(app) {
            entry.health.degrade(reason);
        }
        self.metrics.swaps_rejected.inc();
    }

    /// The current epoch for `app` — an `Arc` snapshot; score against it
    /// for as long as needed, swaps never invalidate it.
    pub fn current(&self, app: &str) -> Option<Arc<ProfileEpoch>> {
        self.apps
            .read()
            .expect("registry poisoned")
            .get(app)
            .map(|entry| Arc::clone(&entry.current))
    }

    /// A fresh [`WindowScorer`] on `app`'s current epoch.
    pub fn scorer(&self, app: &str) -> Option<WindowScorer> {
        self.current(app).map(|epoch| epoch.scorer())
    }

    /// A fresh [`DetectionEngine`] on `app`'s current epoch.
    pub fn engine(&self, app: &str) -> Option<DetectionEngine> {
        self.current(app).map(|epoch| epoch.engine())
    }

    /// The per-app health monitor (shared: clones observe the same state).
    pub fn health(&self, app: &str) -> Option<HealthMonitor> {
        self.apps
            .read()
            .expect("registry poisoned")
            .get(app)
            .map(|entry| entry.health.clone())
    }

    /// Registered application ids, sorted.
    pub fn apps(&self) -> Vec<String> {
        self.apps
            .read()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered applications.
    pub fn len(&self) -> usize {
        self.apps.read().expect("registry poisoned").len()
    }

    /// True when no application is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::resilience::Health;
    use adprom_hmm::{Hmm, SparseConfig};
    use adprom_lang::{CallSiteId, LibCall};
    use adprom_trace::CallEvent;
    use std::collections::{BTreeMap, BTreeSet};

    fn event(name: &str, caller: &str) -> CallEvent {
        CallEvent {
            name: name.into(),
            call: LibCall::Printf,
            caller: caller.into(),
            site: CallSiteId(0),
            detail: None,
        }
    }

    fn cyclic_profile(app: &str, threshold: f64) -> Profile {
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
            app_name: app.into(),
            alphabet,
            hmm,
            window: 3,
            threshold,
            call_callers,
            labeled_outputs: vec!["c_Q7".to_string()],
        }
    }

    #[test]
    fn register_assigns_epochs_and_swaps_atomically() {
        let registry = ProfileRegistry::new();
        assert!(registry.is_empty());
        assert_eq!(
            registry
                .register("bank", cyclic_profile("bank", -5.0))
                .unwrap(),
            1
        );
        assert_eq!(
            registry
                .register("shop", cyclic_profile("shop", -5.0))
                .unwrap(),
            1
        );
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.apps(), vec!["bank", "shop"]);

        // An in-flight snapshot keeps the old epoch across a swap.
        let before = registry.current("bank").unwrap();
        assert_eq!(
            registry
                .register("bank", cyclic_profile("bank", -7.0))
                .unwrap(),
            2
        );
        let after = registry.current("bank").unwrap();
        assert_eq!(before.epoch(), 1);
        assert_eq!(after.epoch(), 2);
        assert_eq!(before.profile().threshold, -5.0);
        assert_eq!(after.profile().threshold, -7.0);
    }

    #[test]
    fn invalid_profile_is_rejected_and_old_epoch_survives() {
        let reg_metrics = Registry::new();
        let registry = ProfileRegistry::new().with_registry(&reg_metrics);
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();

        let mut bad = cyclic_profile("bank", -5.0);
        bad.threshold = f64::NAN;
        let err = registry.register("bank", bad).unwrap_err();
        assert!(matches!(
            err,
            SwapError::Invalid(ProfileDefect::BadThreshold)
        ));
        // Old epoch still in force, health degraded, rejection counted.
        let current = registry.current("bank").unwrap();
        assert_eq!(current.epoch(), 1);
        assert_eq!(current.profile().threshold, -5.0);
        assert_eq!(registry.health("bank").unwrap().state(), Health::Degraded);
        let snap = reg_metrics.snapshot();
        assert_eq!(snap.counter("registry.swaps"), Some(1));
        assert_eq!(snap.counter("registry.swaps_rejected"), Some(1));
        assert_eq!(snap.gauge("registry.apps"), Some(1));
    }

    #[test]
    fn epochs_share_kernel_and_report_status() {
        let registry = ProfileRegistry::new().with_kernel(KernelConfig::Sparse {
            sparse: SparseConfig::default(),
        });
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        let epoch = registry.current("bank").unwrap();
        assert_eq!(epoch.kernel_status().requested, "sparse");
        assert_eq!(epoch.kernel_status().effective, "sparse");
        // Scorers built from one epoch produce the same alerts as a
        // standalone engine on the same profile + kernel.
        let engine = epoch.engine();
        let standalone =
            DetectionEngine::new(&cyclic_profile("bank", -5.0)).with_kernel(KernelConfig::Sparse {
                sparse: SparseConfig::default(),
            });
        let trace: Vec<CallEvent> = ["a", "b", "c_Q7", "a", "evil_exfil", "c_Q7"]
            .iter()
            .map(|n| event(n, "main"))
            .collect();
        assert_eq!(
            format!("{:?}", engine.scan(&trace)),
            format!("{:?}", standalone.scan(&trace))
        );
    }

    #[test]
    fn validated_profile_keeps_requested_kernel() {
        // Profile validation (1e-6) is stricter than CSR reconstruction
        // (1e-5), so a profile that passes `register`'s gate is never
        // refused by the CSR build.
        let reg_metrics = Registry::new();
        let registry = ProfileRegistry::new()
            .with_kernel(KernelConfig::Sparse {
                sparse: SparseConfig::default(),
            })
            .with_registry(&reg_metrics);
        registry
            .register("bank", cyclic_profile("bank", -5.0))
            .unwrap();
        let epoch = registry.current("bank").unwrap();
        assert_eq!(epoch.kernel_status().effective, "sparse");
        assert_eq!(
            reg_metrics.snapshot().counter("registry.swaps_rejected"),
            Some(0)
        );
    }

    #[test]
    fn csr_refusal_rejects_the_registration() {
        // A negative fold epsilon passes `Profile::validate` (it is kernel
        // configuration, not profile data) and is refused by the CSR build.
        let refusing = KernelConfig::Sparse {
            sparse: SparseConfig {
                epsilon: -1.0,
                ..SparseConfig::default()
            },
        };
        let reg_metrics = Registry::new();
        let registry = ProfileRegistry::new()
            .with_kernel(refusing)
            .with_registry(&reg_metrics);
        // A first registration publishes nothing.
        let err = registry.register("bank", cyclic_profile("bank", -5.0));
        assert!(matches!(err, Err(SwapError::KernelRefused(_))), "{err:?}");
        assert!(registry.is_empty());
        assert!(registry.current("bank").is_none());
        assert_eq!(
            reg_metrics.snapshot().counter("registry.swaps_rejected"),
            Some(1)
        );

        // A later one leaves the old epoch current, with the reason in
        // the app's health.
        let registry = registry.with_kernel(KernelConfig::Dense);
        assert_eq!(
            registry
                .register("bank", cyclic_profile("bank", -5.0))
                .unwrap(),
            1
        );
        let registry = registry.with_kernel(refusing);
        let err = registry
            .register("bank", cyclic_profile("bank", -7.0))
            .unwrap_err();
        let reason = err.to_string();
        assert!(reason.contains("CSR validation"), "{reason}");
        let current = registry.current("bank").unwrap();
        assert_eq!(current.epoch(), 1);
        assert_eq!(current.profile().threshold, -5.0);
        assert_eq!(current.kernel_status().effective, "dense");
        let health = registry.health("bank").unwrap();
        assert_eq!(health.state(), Health::Degraded);
        assert!(
            health.reasons().iter().any(|r| r.contains(&reason)),
            "{:?}",
            health.reasons()
        );
        let snap = reg_metrics.snapshot();
        assert_eq!(snap.counter("registry.swaps_rejected"), Some(2));
        assert_eq!(snap.counter("registry.swaps"), Some(1));
    }

    #[test]
    fn load_file_round_trips_through_versioned_persistence() {
        let dir = std::env::temp_dir().join("adprom-registry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bank.profile");
        cyclic_profile("bank", -5.0).save(&path).unwrap();

        let registry = ProfileRegistry::new();
        assert_eq!(registry.load_file("bank", &path).unwrap(), 1);
        assert_eq!(registry.current("bank").unwrap().profile().app_name, "bank");

        // A second load is a hot-swap: epoch 2.
        assert_eq!(registry.load_file("bank", &path).unwrap(), 2);

        // A missing file is a rejected swap; epoch 2 survives.
        let err = registry.load_file("bank", &dir.join("missing.profile"));
        assert!(matches!(err, Err(SwapError::Io(_))));
        assert_eq!(registry.current("bank").unwrap().epoch(), 2);
        assert_eq!(registry.health("bank").unwrap().state(), Health::Degraded);
        let _ = std::fs::remove_file(&path);
    }
}
