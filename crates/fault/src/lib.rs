//! # qsc-fault — deterministic fault injection
//!
//! A seeded chaos harness for the execution stack: a [`FaultPlan`] assigns
//! a firing rate to each named [`FaultPoint`], and instrumented code asks
//! [`should_fire`] / [`should_fire_at`] whether the fault fires *here*.
//! Every decision is a pure hash of
//! `(plan seed, fault point, instance key, site key)`, so a chaos run is
//! exactly reproducible: the same plan over the same work produces the
//! same failures regardless of worker count, interleaving, or how many
//! times the run is repeated.
//!
//! Plans are delivered to instrumented code through a **scope**: the batch
//! runner wraps each work item in [`scope`], which installs the plan in a
//! thread-local for the duration of the closure. Instrumentation sites
//! (backend `run`, Lanczos iterations, state allocations) consult the
//! innermost active scope and are no-ops when none is installed — the
//! zero-fault path costs one thread-local read per site.
//!
//! Scopes nest like a stack. This matters on a help-while-waiting worker
//! pool: a thread blocked on a batch may execute *another* instance's task
//! in the meantime, which pushes that instance's scope on top and pops it
//! when done, leaving the original scope intact.
//!
//! # Examples
//!
//! ```
//! use qsc_fault::{scope, should_fire_at, FaultPlan, FaultPoint};
//!
//! let plan = FaultPlan::seeded(7).with_rate(FaultPoint::TaskStart, 1.0);
//! // Outside any scope nothing fires:
//! assert!(!should_fire_at(FaultPoint::TaskStart, 0));
//! // Inside a scope the plan decides, deterministically:
//! let fired = scope(plan, 42, || should_fire_at(FaultPoint::TaskStart, 0));
//! assert!(fired);
//! let again = scope(plan, 42, || should_fire_at(FaultPoint::TaskStart, 0));
//! assert_eq!(fired, again);
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;

/// The named places instrumented code may inject a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// The start of one batch work item (a `Pipeline::run_many` instance) —
    /// fires as a panic, exercising panic isolation.
    TaskStart,
    /// A backend's `run` entry point — fires as a typed simulator error.
    BackendRun,
    /// One Lanczos iteration — fires as a non-convergence error.
    LanczosIteration,
    /// A state-register allocation check — fires as a budget error.
    Allocation,
    /// One remote-executor HTTP call — fires as a transport error,
    /// exercising the remote retry/fallback path without a real network
    /// failure.
    RemoteCall,
}

impl FaultPoint {
    /// Every fault point, in stable order.
    pub const ALL: [FaultPoint; 5] = [
        FaultPoint::TaskStart,
        FaultPoint::BackendRun,
        FaultPoint::LanczosIteration,
        FaultPoint::Allocation,
        FaultPoint::RemoteCall,
    ];

    /// The stable string name used in specs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultPoint::TaskStart => "task_start",
            FaultPoint::BackendRun => "backend_run",
            FaultPoint::LanczosIteration => "lanczos_iteration",
            FaultPoint::Allocation => "allocation",
            FaultPoint::RemoteCall => "remote_call",
        }
    }

    /// Parses a stable string name back into a point.
    pub fn parse(name: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == name)
    }

    fn index(&self) -> usize {
        match self {
            FaultPoint::TaskStart => 0,
            FaultPoint::BackendRun => 1,
            FaultPoint::LanczosIteration => 2,
            FaultPoint::Allocation => 3,
            FaultPoint::RemoteCall => 4,
        }
    }
}

/// A seeded chaos plan: a firing rate in `[0, 1]` per [`FaultPoint`].
///
/// The plan itself is inert data; install it around a unit of work with
/// [`scope`] to arm the instrumentation sites.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed feeding every firing decision.
    pub seed: u64,
    rates: [f64; 5],
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            rates: [0.0; 5],
        }
    }

    /// Sets the firing rate of one point (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `rate` lies in `[0, 1]`.
    pub fn with_rate(mut self, point: FaultPoint, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate {rate} outside [0, 1]"
        );
        self.rates[point.index()] = rate;
        self
    }

    /// The firing rate of one point.
    pub fn rate(&self, point: FaultPoint) -> f64 {
        self.rates[point.index()]
    }

    /// `true` when at least one rate is non-zero.
    pub fn is_active(&self) -> bool {
        self.rates.iter().any(|r| *r > 0.0)
    }

    /// The pure firing decision for `(point, instance_key, site_key)` —
    /// what [`should_fire_at`] evaluates against the innermost scope.
    pub fn decides(&self, point: FaultPoint, instance_key: u64, site_key: u64) -> bool {
        let rate = self.rates[point.index()];
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = mix(self
            .seed
            .wrapping_add(mix(point.index() as u64 + 1))
            .wrapping_add(mix(instance_key.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .wrapping_add(mix(site_key ^ 0x6a09_e667_f3bc_c909)));
        // Top 53 bits → a uniform double in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < rate
    }
}

/// SplitMix64 finalizer — the avalanche behind every firing decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct ScopeEntry {
    plan: FaultPlan,
    instance_key: u64,
    /// Per-point call counters for sites without a natural index.
    counters: [u64; 5],
}

thread_local! {
    static SCOPES: RefCell<Vec<ScopeEntry>> = const { RefCell::new(Vec::new()) };
}

/// Pops the scope entry on drop, so unwinding (an injected panic) restores
/// the outer scope correctly.
struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Runs `f` with `plan` armed for this thread, keyed by `instance_key`
/// (typically the work item's seed). Nested calls shadow the outer plan
/// for their duration; panics restore the outer scope while unwinding.
pub fn scope<T>(plan: FaultPlan, instance_key: u64, f: impl FnOnce() -> T) -> T {
    SCOPES.with(|s| {
        s.borrow_mut().push(ScopeEntry {
            plan,
            instance_key,
            counters: [0; 5],
        })
    });
    let _guard = ScopeGuard;
    f()
}

/// Whether `point` fires at the explicit `site_key` under the innermost
/// active scope. `false` when no scope is installed.
pub fn should_fire_at(point: FaultPoint, site_key: u64) -> bool {
    SCOPES.with(|s| {
        let scopes = s.borrow();
        scopes
            .last()
            .is_some_and(|e| e.plan.decides(point, e.instance_key, site_key))
    })
}

/// Whether `point` fires at its next implicit site — a per-scope counter
/// incremented on every call, for sites without a natural index (backend
/// runs, allocations). `false` when no scope is installed.
pub fn should_fire(point: FaultPoint) -> bool {
    SCOPES.with(|s| {
        let mut scopes = s.borrow_mut();
        match scopes.last_mut() {
            Some(e) => {
                let site = e.counters[point.index()];
                e.counters[point.index()] += 1;
                e.plan.decides(point, e.instance_key, site)
            }
            None => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in FaultPoint::ALL {
            assert_eq!(FaultPoint::parse(p.name()), Some(p));
        }
        assert_eq!(FaultPoint::parse("nope"), None);
    }

    #[test]
    fn decisions_are_deterministic_and_rate_bounded() {
        let plan = FaultPlan::seeded(99).with_rate(FaultPoint::BackendRun, 0.3);
        let mut fired = 0usize;
        for inst in 0..2000u64 {
            let a = plan.decides(FaultPoint::BackendRun, inst, 0);
            let b = plan.decides(FaultPoint::BackendRun, inst, 0);
            assert_eq!(a, b);
            fired += a as usize;
        }
        let frac = fired as f64 / 2000.0;
        assert!((frac - 0.3).abs() < 0.05, "empirical rate {frac}");
        // Other points stay silent.
        assert!(!plan.decides(FaultPoint::TaskStart, 1, 0));
    }

    #[test]
    fn seed_changes_the_pattern() {
        let a = FaultPlan::seeded(1).with_rate(FaultPoint::TaskStart, 0.5);
        let b = FaultPlan::seeded(2).with_rate(FaultPoint::TaskStart, 0.5);
        let differs = (0..64u64).any(|i| {
            a.decides(FaultPoint::TaskStart, i, 0) != b.decides(FaultPoint::TaskStart, i, 0)
        });
        assert!(differs);
    }

    #[test]
    fn no_scope_never_fires() {
        assert!(!should_fire(FaultPoint::Allocation));
        assert!(!should_fire_at(FaultPoint::LanczosIteration, 3));
    }

    #[test]
    fn scope_arms_and_disarms() {
        let plan = FaultPlan::seeded(5).with_rate(FaultPoint::TaskStart, 1.0);
        assert!(scope(plan, 0, || should_fire_at(FaultPoint::TaskStart, 0)));
        assert!(!should_fire_at(FaultPoint::TaskStart, 0));
    }

    #[test]
    fn nested_scopes_restore_outer_plan() {
        let outer = FaultPlan::seeded(5).with_rate(FaultPoint::TaskStart, 1.0);
        let inner = FaultPlan::seeded(5); // all-zero rates
        scope(outer, 0, || {
            assert!(should_fire_at(FaultPoint::TaskStart, 0));
            scope(inner, 1, || {
                assert!(!should_fire_at(FaultPoint::TaskStart, 0));
            });
            assert!(should_fire_at(FaultPoint::TaskStart, 0));
        });
    }

    #[test]
    fn scope_is_restored_across_panics() {
        let outer = FaultPlan::seeded(5).with_rate(FaultPoint::TaskStart, 1.0);
        scope(outer, 0, || {
            let inner = FaultPlan::seeded(6);
            let res = std::panic::catch_unwind(|| scope(inner, 1, || panic!("injected")));
            assert!(res.is_err());
            // The inner scope was popped during unwinding.
            assert!(should_fire_at(FaultPoint::TaskStart, 0));
        });
    }

    #[test]
    fn counter_sites_advance() {
        // Rate 0.5: over 64 sequential sites within one scope both outcomes
        // must occur, proving the counter advances the site key.
        let plan = FaultPlan::seeded(11).with_rate(FaultPoint::Allocation, 0.5);
        let (mut yes, mut no) = (0, 0);
        scope(plan, 7, || {
            for _ in 0..64 {
                if should_fire(FaultPoint::Allocation) {
                    yes += 1;
                } else {
                    no += 1;
                }
            }
        });
        assert!(yes > 0 && no > 0, "yes={yes} no={no}");
    }

    #[test]
    fn rate_validation() {
        let r =
            std::panic::catch_unwind(|| FaultPlan::seeded(0).with_rate(FaultPoint::TaskStart, 1.5));
        assert!(r.is_err());
    }
}
