//! `shc-fault`: deterministic fault injection for the characterization stack.
//!
//! The solver layers assume every LU factorization, Newton solve, transient
//! run and MPNR correction succeeds; this crate lets tests and CI prove the
//! stack degrades gracefully when they do not. A [`FaultPlan`] describes
//! *what* to inject (fault kind, optional site filter, probability) and an
//! [`Injector`] decides *where*, deterministically: each instrumented call
//! site asks [`check`] whether this particular call should fail, and the
//! decision is a pure function of `(plan.seed, site, call_index)` via the
//! same SplitMix64 mix used by the Monte-Carlo sampler. Re-running a plan
//! replays the exact same fault sequence; a retried operation gets a fresh
//! call index and therefore (usually) succeeds, which is what makes the
//! recovery policies in `shc-spice`/`shc-core` testable.
//!
//! Like `shc-obs`, the crate is zero-dependency and inert until an
//! [`Injector`] is installed on the current thread with [`install_scoped`];
//! the off-path cost at every hook is a single thread-local boolean read.
//!
//! ```
//! use shc_fault::{FaultKind, FaultPlan, Injector, Site};
//!
//! let plan = FaultPlan {
//!     probability: 1.0,
//!     site: Some(Site::Newton),
//!     kind: FaultKind::NonConvergence,
//!     seed: 42,
//! };
//! let injector = Injector::new(plan);
//! {
//!     let _guard = shc_fault::install_scoped(&injector);
//!     assert_eq!(shc_fault::check(Site::Newton), Some(FaultKind::NonConvergence));
//!     assert_eq!(shc_fault::check(Site::LuFactor), None); // filtered out
//! }
//! assert_eq!(shc_fault::check(Site::Newton), None); // uninstalled: inert
//! assert_eq!(injector.injected(), 1);
//! ```

#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An instrumented call site in the solver stack where faults can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Dense LU factorization / in-place refactorization (`shc-linalg`).
    LuFactor,
    /// Back-substitution through an existing LU factor (`shc-linalg`).
    LuSolve,
    /// One damped-Newton nonlinear solve, i.e. one transient step (`shc-spice`).
    Newton,
    /// One full transient run (`shc-spice`).
    Transient,
    /// One MPNR corrector solve (`shc-core`).
    Mpnr,
}

impl Site {
    /// Number of sites (length of [`Site::ALL`]).
    pub const COUNT: usize = 5;

    /// Every site, in declaration order.
    pub const ALL: [Site; Site::COUNT] = [
        Site::LuFactor,
        Site::LuSolve,
        Site::Newton,
        Site::Transient,
        Site::Mpnr,
    ];

    /// Stable snake_case name, used by `--fault-plan` specs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Site::LuFactor => "lu_factor",
            Site::LuSolve => "lu_solve",
            Site::Newton => "newton",
            Site::Transient => "transient",
            Site::Mpnr => "mpnr",
        }
    }

    /// Parse a site name as produced by [`Site::name`].
    pub fn parse(name: &str) -> Option<Site> {
        Site::ALL.iter().copied().find(|s| s.name() == name)
    }

    fn index(self) -> usize {
        match self {
            Site::LuFactor => 0,
            Site::LuSolve => 1,
            Site::Newton => 2,
            Site::Transient => 3,
            Site::Mpnr => 4,
        }
    }

    /// Large odd per-site salt so the per-site fault streams are independent
    /// even under the same plan seed.
    fn salt(self) -> u64 {
        const SALTS: [u64; Site::COUNT] = [
            0x9E37_79B9_7F4A_7C15,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
            0xD6E8_FEB8_6659_FD93,
            0xA076_1D64_95FD_5855,
        ];
        SALTS[self.index()]
    }
}

/// What kind of failure an injected fault should present as.
///
/// Each hook site maps the kind onto its layer's own error vocabulary (a
/// singular pivot in `shc-linalg`, `NewtonDiverged` in `shc-spice`, ...), so
/// downstream recovery code sees exactly the errors the real failure modes
/// produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A numerically singular system matrix (pivot below threshold).
    SingularMatrix,
    /// An iteration budget exhausted without meeting tolerance.
    NonConvergence,
    /// A NaN residual / numerical blow-up.
    NanResidual,
    /// A step-size stall at the `dt_min` floor. Only the injector raises it
    /// (the transient reports it as a too-small timestep): the fixed-step
    /// transient cuts steps only when Newton diverges.
    LteStall,
}

impl FaultKind {
    /// Number of kinds (length of [`FaultKind::ALL`]).
    pub const COUNT: usize = 4;

    /// Every fault kind, in declaration order.
    pub const ALL: [FaultKind; FaultKind::COUNT] = [
        FaultKind::SingularMatrix,
        FaultKind::NonConvergence,
        FaultKind::NanResidual,
        FaultKind::LteStall,
    ];

    /// Stable snake_case name, used by `--fault-plan` specs and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SingularMatrix => "singular_matrix",
            FaultKind::NonConvergence => "non_convergence",
            FaultKind::NanResidual => "nan_residual",
            FaultKind::LteStall => "lte_stall",
        }
    }

    /// Parse a kind name as produced by [`FaultKind::name`].
    pub fn parse(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// A declarative description of which faults to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Per-call probability in `[0, 1]` that a matching site faults.
    pub probability: f64,
    /// Restrict injection to one site; `None` injects at every site.
    pub site: Option<Site>,
    /// The failure mode injected calls present as.
    pub kind: FaultKind,
    /// Seed for the deterministic `(site, call_index)` decision stream.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            probability: 0.0,
            site: None,
            kind: FaultKind::NonConvergence,
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// Parse a `--fault-plan` spec string of comma-separated `key=value`
    /// pairs: `p` (or `probability`), `site`, `kind`, `seed`.
    ///
    /// ```
    /// use shc_fault::{FaultKind, FaultPlan, Site};
    /// let plan = FaultPlan::parse("site=newton,kind=non_convergence,p=0.1,seed=7").unwrap();
    /// assert_eq!(plan.site, Some(Site::Newton));
    /// assert_eq!(plan.kind, FaultKind::NonConvergence);
    /// assert!((plan.probability - 0.1).abs() < 1e-12);
    /// assert_eq!(plan.seed, 7);
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut saw_probability = false;
        for pair in spec.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let Some((key, value)) = pair.split_once('=') else {
                return Err(format!("fault-plan entry `{pair}` is not key=value"));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "p" | "probability" => {
                    let p: f64 = value
                        .parse()
                        .map_err(|_| format!("fault-plan probability `{value}` is not a number"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("fault-plan probability {p} outside [0, 1]"));
                    }
                    plan.probability = p;
                    saw_probability = true;
                }
                "site" => {
                    if value == "all" || value == "any" {
                        plan.site = None;
                    } else {
                        plan.site = Some(Site::parse(value).ok_or_else(|| {
                            format!(
                                "unknown fault site `{value}` (expected one of {})",
                                Site::ALL.map(Site::name).join(", ")
                            )
                        })?);
                    }
                }
                "kind" => {
                    plan.kind = FaultKind::parse(value).ok_or_else(|| {
                        format!(
                            "unknown fault kind `{value}` (expected one of {})",
                            FaultKind::ALL.map(FaultKind::name).join(", ")
                        )
                    })?;
                }
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault-plan seed `{value}` is not a u64"))?;
                }
                other => return Err(format!("unknown fault-plan key `{other}`")),
            }
        }
        if !saw_probability {
            return Err("fault-plan must set p=<probability>".to_string());
        }
        Ok(plan)
    }
}

#[derive(Debug)]
struct Inner {
    plan: FaultPlan,
    /// One monotonically increasing call counter per site. The counter value
    /// at the time of a call is its `call_index`; the fault decision for
    /// `(site, call_index)` never changes, which is what makes plans
    /// replayable and checkpoints resumable.
    cursors: [AtomicU64; Site::COUNT],
    injected: AtomicU64,
}

/// A handle on a fault plan plus its per-site call cursors.
///
/// Cloning is shallow: clones share cursors, so an injector captured by a
/// worker thread continues the same deterministic stream.
#[derive(Debug, Clone)]
pub struct Injector {
    inner: Arc<Inner>,
}

impl Injector {
    /// Create an injector for `plan` with all call cursors at zero.
    pub fn new(plan: FaultPlan) -> Injector {
        Injector {
            inner: Arc::new(Inner {
                plan,
                cursors: [const { AtomicU64::new(0) }; Site::COUNT],
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.inner.plan
    }

    /// Total number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.inner.injected.load(Ordering::Relaxed)
    }

    /// Snapshot of the per-site call cursors, in [`Site::ALL`] order.
    ///
    /// Persisted in trace checkpoints so `--resume` replays the remainder of
    /// the fault stream instead of restarting it.
    pub fn cursors(&self) -> [u64; Site::COUNT] {
        let mut out = [0u64; Site::COUNT];
        for (slot, cursor) in out.iter_mut().zip(&self.inner.cursors) {
            *slot = cursor.load(Ordering::Relaxed);
        }
        out
    }

    /// Restore call cursors captured by [`Injector::cursors`].
    pub fn restore_cursors(&self, cursors: &[u64]) {
        for (cursor, value) in self.inner.cursors.iter().zip(cursors) {
            cursor.store(*value, Ordering::Relaxed);
        }
    }

    fn decide(&self, site: Site) -> Option<FaultKind> {
        let plan = &self.inner.plan;
        if plan.probability <= 0.0 {
            return None;
        }
        if let Some(filter) = plan.site {
            if filter != site {
                return None;
            }
        }
        let index = self.inner.cursors[site.index()].fetch_add(1, Ordering::Relaxed);
        if !fires(plan.seed ^ site.salt(), index, plan.probability) {
            return None;
        }
        self.inner.injected.fetch_add(1, Ordering::Relaxed);
        Some(plan.kind)
    }
}

/// Pure `(seed, call_index) -> bool` fault decision at probability `p`.
fn fires(seed: u64, index: u64, p: f64) -> bool {
    if p >= 1.0 {
        return true;
    }
    // Saturating f64 -> u64 cast; p < 1 so the threshold stays below 2^64.
    let threshold = (p * (u64::MAX as f64)) as u64;
    splitmix64(seed, index) < threshold
}

/// The SplitMix64 finalizer over `seed ^ index * golden`, identical to the
/// Monte-Carlo per-sample seeding in `shc-core::montecarlo`.
fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

thread_local! {
    static CURRENT: RefCell<Option<Injector>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Guard returned by [`install_scoped`]; restores the previously installed
/// injector (if any) on drop.
#[must_use = "dropping the guard immediately uninstalls the injector"]
pub struct InstallGuard {
    previous: Option<Injector>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        ENABLED.with(|e| e.set(previous.is_some()));
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

/// Install `injector` on the current thread for the guard's lifetime.
pub fn install_scoped(injector: &Injector) -> InstallGuard {
    let previous = CURRENT.with(|c| c.borrow_mut().replace(injector.clone()));
    ENABLED.with(|e| e.set(true));
    InstallGuard { previous }
}

/// Whether an injector is installed on the current thread.
///
/// A single thread-local boolean read: this is the entire overhead of a
/// disabled fault hook.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Clone of the injector installed on the current thread, if any.
///
/// Worker threads spawned by `shc_core::parallel::run_indexed` capture this
/// and re-install it so fan-out inherits the caller's fault plan.
pub fn current() -> Option<Injector> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Ask whether the current call at `site` should fail, and with which kind.
///
/// Advances the site's call cursor when an injector with a matching site
/// filter is installed; returns `None` (and is nearly free) otherwise.
pub fn check(site: Site) -> Option<FaultKind> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().as_ref().and_then(|inj| inj.decide(site)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(p: f64, site: Option<Site>, kind: FaultKind, seed: u64) -> FaultPlan {
        FaultPlan {
            probability: p,
            site,
            kind,
            seed,
        }
    }

    #[test]
    fn disabled_thread_injects_nothing() {
        assert_eq!(check(Site::Newton), None);
        assert!(!enabled());
        assert!(current().is_none());
    }

    #[test]
    fn probability_one_always_fires_and_zero_never_fires() {
        let always = Injector::new(plan(1.0, None, FaultKind::NanResidual, 1));
        let never = Injector::new(plan(0.0, None, FaultKind::NanResidual, 1));
        {
            let _g = install_scoped(&always);
            for site in Site::ALL {
                assert_eq!(check(site), Some(FaultKind::NanResidual));
            }
        }
        {
            let _g = install_scoped(&never);
            for site in Site::ALL {
                assert_eq!(check(site), None);
            }
        }
        assert_eq!(always.injected(), Site::COUNT as u64);
        assert_eq!(never.injected(), 0);
        assert_eq!(never.cursors(), [0; Site::COUNT]);
    }

    #[test]
    fn site_filter_gates_and_does_not_advance_other_cursors() {
        let inj = Injector::new(plan(1.0, Some(Site::Mpnr), FaultKind::LteStall, 3));
        let _g = install_scoped(&inj);
        assert_eq!(check(Site::Newton), None);
        assert_eq!(check(Site::Mpnr), Some(FaultKind::LteStall));
        assert_eq!(inj.cursors(), [0, 0, 0, 0, 1]);
    }

    #[test]
    fn decision_stream_is_deterministic_and_replayable() {
        let run = || {
            let inj = Injector::new(plan(0.3, None, FaultKind::NonConvergence, 0xDEAD_BEEF));
            let _g = install_scoped(&inj);
            (0..256)
                .map(|_| check(Site::Transient).is_some())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        let hits = a.iter().filter(|x| **x).count();
        assert!((30..120).contains(&hits), "p=0.3 over 256 draws hit {hits}");
    }

    #[test]
    fn restored_cursors_resume_the_same_stream() {
        let inj = Injector::new(plan(0.5, None, FaultKind::SingularMatrix, 9));
        let _g = install_scoped(&inj);
        let full: Vec<_> = (0..64).map(|_| check(Site::LuFactor)).collect();
        let fresh = Injector::new(plan(0.5, None, FaultKind::SingularMatrix, 9));
        drop(_g);
        // Skip the first 32 draws by restoring the cursor snapshot.
        fresh.restore_cursors(&[32, 0, 0, 0, 0]);
        let _g = install_scoped(&fresh);
        let tail: Vec<_> = (0..32).map(|_| check(Site::LuFactor)).collect();
        assert_eq!(tail.as_slice(), &full[32..]);
    }

    #[test]
    fn scoped_install_nests_and_restores() {
        let outer = Injector::new(plan(1.0, None, FaultKind::NanResidual, 1));
        let inner = Injector::new(plan(0.0, None, FaultKind::NanResidual, 1));
        let g = install_scoped(&outer);
        {
            let _g2 = install_scoped(&inner);
            assert_eq!(check(Site::Newton), None);
        }
        assert_eq!(check(Site::Newton), Some(FaultKind::NanResidual));
        drop(g);
        assert!(!enabled());
    }

    #[test]
    fn retry_with_fresh_call_index_usually_recovers() {
        // The whole point of (site, call_index) seeding: a failed call that
        // is retried draws a new index, so p < 1 faults are transient.
        let inj = Injector::new(plan(0.5, None, FaultKind::NonConvergence, 7));
        let _g = install_scoped(&inj);
        let mut recovered = false;
        for _ in 0..64 {
            if check(Site::Newton).is_some() && check(Site::Newton).is_none() {
                recovered = true;
                break;
            }
        }
        assert!(recovered);
    }

    #[test]
    fn plan_spec_parser_round_trips_and_rejects_garbage() {
        let plan = FaultPlan::parse("p=0.25, site=lu_solve, kind=singular_matrix, seed=11")
            .expect("valid spec");
        assert_eq!(plan.site, Some(Site::LuSolve));
        assert_eq!(plan.kind, FaultKind::SingularMatrix);
        assert_eq!(plan.seed, 11);
        assert!((plan.probability - 0.25).abs() < 1e-12);

        let any = FaultPlan::parse("p=1,site=all").expect("site=all spec");
        assert_eq!(any.site, None);

        assert!(FaultPlan::parse("site=newton").is_err(), "missing p");
        assert!(FaultPlan::parse("p=2").is_err(), "p out of range");
        assert!(FaultPlan::parse("p=0.1,site=nope").is_err());
        assert!(FaultPlan::parse("p=0.1,kind=nope").is_err());
        assert!(FaultPlan::parse("p=0.1,bogus=1").is_err());
        assert!(FaultPlan::parse("p=0.1,seed=x").is_err());
        assert!(FaultPlan::parse("p=0.1,site").is_err(), "not key=value");
    }

    #[test]
    fn site_and_kind_names_parse_back() {
        for site in Site::ALL {
            assert_eq!(Site::parse(site.name()), Some(site));
        }
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Site::parse("unknown"), None);
        assert_eq!(FaultKind::parse("unknown"), None);
    }
}
