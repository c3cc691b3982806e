//! Backend-generic empirical threshold search.
//!
//! The paper's central empirical object is the majority-consensus threshold:
//! the smallest initial gap `∆ = a − b` whose success probability reaches
//! the `1 − 1/n` criterion. This module generalises the search along both
//! axes the experiments need:
//!
//! * **scenario** — a [`GapScenario`] factory maps a gap to a concrete
//!   [`Scenario`]: [`TwoSpeciesGap`] realises the paper's `(a, b)` split and
//!   [`PluralityGap`] plants a leader with margin `∆` over `k − 1` symmetric
//!   rivals, so the same search measures `k`-species plurality-margin
//!   thresholds;
//! * **backend** — every probe runs on the [`Backend`](lv_engine::Backend)
//!   selected with [`ThresholdSearch::with_backend`], so the LV kernels and
//!   the protocol baselines (`"approx-majority"`, `"exact-majority"`,
//!   `"czyzowicz-lv"`) are swept through one code path;
//! * **adaptivity** — probes run through the streaming
//!   early-stopped estimator with a decision
//!   [`boundary`](lv_engine::stream::EarlyStop::with_boundary) at the
//!   target, so a gap far from the threshold resolves in a handful of
//!   trials and only near-threshold probes spend the full budget.
//!   [`ThresholdResult::probes`] reports the trials actually spent at every
//!   probed gap.
//!
//! Gaps are probed only on the *feasible lattice* of the factory
//! (`∆ ≡ n mod 2` for two species, `∆ ≡ n mod k` for the symmetric
//! plurality split): the old search probed `a = ⌈(n + ∆)/2⌉, b = n − a`,
//! which silently collapses every odd `∆` to `∆ − 1` when `n` is even — its
//! first probe on an even population measured a dead tie. Factories assert
//! that the built configuration realises exactly the probed gap.

use crate::montecarlo::MonteCarlo;
use crate::seed::Seed;
use lv_crn::StopCondition;
use lv_engine::stream::EarlyStop;
use lv_engine::Scenario;
use lv_lotka::{LvModel, MultiLvModel};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::fmt;

/// A family of scenarios over one population size, indexed by the initial
/// gap (two species) or plurality margin (`k` species) of the leader.
///
/// Feasible gaps form the arithmetic lattice
/// `min_gap, min_gap + stride, …, max_gap`; the search's doubling and
/// binary-search phases move on lattice indices, so they never probe a gap
/// the factory cannot realise exactly.
pub trait GapScenario {
    /// Total initial population `n`.
    fn population(&self) -> u64;

    /// Number of species of the built scenarios.
    fn species_count(&self) -> usize;

    /// The smallest feasible gap (always ≥ 1).
    fn min_gap(&self) -> u64;

    /// The spacing of the feasible-gap lattice.
    fn stride(&self) -> u64;

    /// The largest feasible gap (every non-leader species keeps at least
    /// one individual).
    fn max_gap(&self) -> u64;

    /// Builds the scenario whose initial configuration realises exactly
    /// `gap`.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is not on the feasible lattice.
    fn scenario(&self, gap: u64) -> Scenario;
}

/// The paper's two-species gap family: total population `n` split as
/// `a = (n + ∆)/2, b = (n − ∆)/2`, feasible exactly when `∆ ≡ n (mod 2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoSpeciesGap {
    model: LvModel,
    n: u64,
    max_events: u64,
}

impl TwoSpeciesGap {
    /// A gap family over total population `n` for the given model.
    ///
    /// The default per-trial event budget is
    /// [`lv_engine::default_majority_budget`]; protocol baselines that need
    /// `Θ(n²)` interactions should raise it with
    /// [`TwoSpeciesGap::with_max_events`].
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`.
    pub fn new(model: LvModel, n: u64) -> Self {
        assert!(n >= 4, "threshold search needs a population of at least 4");
        TwoSpeciesGap {
            model,
            n,
            max_events: lv_engine::default_majority_budget(n),
        }
    }

    /// Replaces the per-trial event budget.
    ///
    /// # Panics
    ///
    /// Panics if `max_events == 0`.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        assert!(max_events > 0, "the event budget must be positive");
        self.max_events = max_events;
        self
    }

    /// The initial counts `(a, b)` realising `gap`.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is off the parity-feasible lattice.
    pub fn counts(&self, gap: u64) -> (u64, u64) {
        assert!(
            gap % 2 == self.n % 2,
            "gap {gap} has the wrong parity for n = {} (feasible gaps are ≡ n mod 2)",
            self.n
        );
        assert!(
            gap >= self.min_gap() && gap <= self.max_gap(),
            "gap {gap} outside the feasible range [{}, {}] for n = {}",
            self.min_gap(),
            self.max_gap(),
            self.n
        );
        let a = (self.n + gap) / 2;
        let b = self.n - a;
        assert_eq!(
            a - b,
            gap,
            "configuration ({a}, {b}) does not realise the probed gap {gap}"
        );
        (a, b)
    }
}

impl GapScenario for TwoSpeciesGap {
    fn population(&self) -> u64 {
        self.n
    }

    fn species_count(&self) -> usize {
        2
    }

    fn min_gap(&self) -> u64 {
        if self.n.is_multiple_of(2) {
            2
        } else {
            1
        }
    }

    fn stride(&self) -> u64 {
        2
    }

    fn max_gap(&self) -> u64 {
        self.n - 2
    }

    fn scenario(&self, gap: u64) -> Scenario {
        let (a, b) = self.counts(gap);
        Scenario::new(self.model, (a, b))
            .with_stop(StopCondition::any_species_extinct().with_max_events(self.max_events))
    }
}

/// The `k`-species plurality-margin family: a planted leader with margin
/// `∆` over `k − 1` symmetric rivals — counts `(r + ∆, r, …, r)` with
/// `r = (n − ∆)/k`, feasible exactly when `∆ ≡ n (mod k)`.
///
/// For `k = 2` this is exactly [`TwoSpeciesGap`]'s lattice, so the
/// plurality margin is the strict generalisation of the paper's gap.
#[derive(Debug, Clone, PartialEq)]
pub struct PluralityGap {
    model: MultiLvModel,
    n: u64,
    max_events: u64,
}

impl PluralityGap {
    /// A plurality-margin family over total population `n` for the given
    /// `k`-species model.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2k` (every species needs room for at least two
    /// individuals at the smallest margin).
    pub fn new(model: MultiLvModel, n: u64) -> Self {
        let k = model.species_count() as u64;
        assert!(
            n >= 2 * k,
            "plurality threshold search needs a population of at least 2k = {}",
            2 * k
        );
        PluralityGap {
            model,
            n,
            max_events: lv_engine::default_majority_budget(n),
        }
    }

    /// Replaces the per-trial event budget.
    ///
    /// # Panics
    ///
    /// Panics if `max_events == 0`.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        assert!(max_events > 0, "the event budget must be positive");
        self.max_events = max_events;
        self
    }

    /// The initial counts `(r + ∆, r, …, r)` realising margin `gap`.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is off the feasible lattice.
    pub fn counts(&self, gap: u64) -> Vec<u64> {
        let k = self.model.species_count() as u64;
        assert!(
            gap % k == self.n % k,
            "margin {gap} is infeasible for n = {} over k = {k} symmetric rivals (feasible margins are ≡ n mod k)",
            self.n
        );
        assert!(
            gap >= self.min_gap() && gap <= self.max_gap(),
            "margin {gap} outside the feasible range [{}, {}] for n = {}",
            self.min_gap(),
            self.max_gap(),
            self.n
        );
        let rival = (self.n - gap) / k;
        let mut counts = vec![rival; k as usize];
        counts[0] = rival + gap;
        debug_assert_eq!(counts.iter().sum::<u64>(), self.n);
        assert_eq!(
            counts[0] - rival,
            gap,
            "configuration {counts:?} does not realise the probed margin {gap}"
        );
        counts
    }
}

impl GapScenario for PluralityGap {
    fn population(&self) -> u64 {
        self.n
    }

    fn species_count(&self) -> usize {
        self.model.species_count()
    }

    fn min_gap(&self) -> u64 {
        let k = self.model.species_count() as u64;
        let residue = self.n % k;
        if residue == 0 {
            k
        } else {
            residue
        }
    }

    fn stride(&self) -> u64 {
        self.model.species_count() as u64
    }

    fn max_gap(&self) -> u64 {
        self.n - self.model.species_count() as u64
    }

    fn scenario(&self, gap: u64) -> Scenario {
        let counts = self.counts(gap);
        Scenario::new(self.model.clone(), counts)
            .with_stop(StopCondition::consensus().with_max_events(self.max_events))
    }
}

/// One probed gap: the gap, the trials the adaptive estimator actually
/// spent on it, and the resulting decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GapProbe {
    /// The probed gap (realised exactly by the scenario's initial state).
    pub gap: u64,
    /// Trials actually spent — the decision boundary stops probes far from
    /// the threshold long before the configured budget.
    pub trials: u64,
    /// Successful trials among them.
    pub successes: u64,
    /// The point estimate `successes / trials`.
    pub estimate: f64,
    /// Whether the point estimate reached the search target.
    pub reached_target: bool,
}

/// The result of an empirical threshold search at one population size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdResult {
    /// The total initial population size `n`.
    pub n: u64,
    /// Number of species of the probed scenarios.
    pub species: usize,
    /// Canonical name of the backend every probe ran on.
    pub backend: String,
    /// The smallest tested gap `∆` whose estimated success probability
    /// reached the target.
    pub threshold: u64,
    /// The success-probability target used (the paper's `1 − 1/n`, possibly
    /// clamped).
    pub target: f64,
    /// The estimated success probability at the returned threshold.
    pub success_at_threshold: f64,
    /// Whether the search saturated at the maximum feasible gap, i.e. no
    /// gap reached the target — the "no threshold" situation of Section 8.
    pub saturated: bool,
    /// Every probed gap with the trials actually spent, in probe order.
    pub probes: Vec<GapProbe>,
}

impl ThresholdResult {
    /// Total trials spent across all probes of this search.
    pub fn trials_spent(&self) -> u64 {
        self.probes.iter().map(|p| p.trials).sum()
    }

    /// The probe record for a gap, if it was probed.
    pub fn probe_for(&self, gap: u64) -> Option<&GapProbe> {
        self.probes.iter().find(|p| p.gap == gap)
    }

    /// The threshold rendered for a report table: the gap, suffixed with
    /// `" (sat.)"` when the search saturated — the one formatting every
    /// sweep table shares.
    pub fn threshold_cell(&self) -> String {
        format!(
            "{}{}",
            self.threshold,
            if self.saturated { " (sat.)" } else { "" }
        )
    }
}

impl fmt::Display for ThresholdResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n = {:>8}: threshold ∆ = {:>7} (target {:.4}, measured {:.4}, {} probes / {} trials on {})",
            self.n,
            self.threshold_cell(),
            self.target,
            self.success_at_threshold,
            self.probes.len(),
            self.trials_spent(),
            self.backend,
        )
    }
}

/// Refuses per-probe trial budgets of 3 or fewer: the clamped target
/// `1 − 3/trials` would be vacuous (≤ 0, every gap "succeeds" and the search
/// degenerates to the smallest feasible gap).
fn check_probe_trials(trials: u64) -> Result<(), String> {
    (trials > 3).then_some(()).ok_or_else(|| {
        format!(
            "a threshold search needs more than 3 trials per probe, got {trials}: \
             the clamped target 1 - 3/trials is vacuous for trials <= 3"
        )
    })
}

/// The default success-probability target of a threshold search at
/// population `n` with at most `trials` trials per probe: the paper's
/// criterion `1 − 1/n`, clamped to the `1 − 3/trials` such a probe can
/// resolve. Refuses `trials <= 3`, for which the clamped target is vacuous.
pub fn default_target(n: u64, trials: u64) -> Result<f64, String> {
    check_probe_trials(trials)?;
    let paper = 1.0 - 1.0 / n as f64;
    let resolvable = 1.0 - 3.0 / trials as f64;
    Ok(paper.min(resolvable))
}

/// Finds the first lattice index in `0..=max_index` whose probe reaches its
/// target, assuming success is monotone in the index: probes index 0, then
/// doubles (1, 2, 4, …, capped at `max_index`) until a probe succeeds, then
/// bisects between the last failing and the first succeeding index.
///
/// Returns the index, its probe, and whether the search *saturated* (no
/// index succeeded: the index is `max_index` and its probe failed). The
/// first probe error ends the search at once.
pub fn lattice_search<E>(
    max_index: u64,
    mut probe: impl FnMut(u64) -> Result<GapProbe, E>,
) -> Result<(u64, GapProbe, bool), E> {
    // Doubling: find a succeeding upper bound.
    let (mut lower, mut upper) = (0u64, 0u64);
    let mut at_upper = probe(upper)?;
    while !at_upper.reached_target {
        if upper == max_index {
            return Ok((upper, at_upper, true));
        }
        lower = upper;
        upper = upper.saturating_mul(2).clamp(1, max_index);
        at_upper = probe(upper)?;
    }
    // Bisection between the last failing and the first succeeding index.
    while upper - lower > 1 {
        let mid = lower + (upper - lower) / 2;
        let at_mid = probe(mid)?;
        if at_mid.reached_target {
            upper = mid;
            at_upper = at_mid;
        } else {
            lower = mid;
        }
    }
    Ok((upper, at_upper, false))
}

/// Empirical threshold search by doubling followed by binary search on the
/// feasible-gap lattice (using the monotonicity of the success probability
/// `ρ(∆)` in `∆`, which holds for all the paper's models).
///
/// The paper's criterion is `target(n) = 1 − 1/n`; resolving that exactly
/// needs `ω(n)` trials per gap, so the search uses the configured trial
/// budget and the clamped [`default_target`] `min(1 − 1/n, 1 − 3/trials)` — enough to
/// expose the asymptotic *shape* (polylog vs. polynomial) that Table 1 is
/// about, which is how the `experiments` binary reports it (README,
/// *Reproducing the paper*).
///
/// Each probe is adaptive: it streams trials through the early-stopped
/// success estimator with a decision boundary at the target, so it ends as
/// soon as the Wilson interval stops straddling the target (or the trial
/// budget runs out, in which case the point estimate decides, matching the
/// old fixed-budget behaviour at the cap).
// No `Deserialize`: `backend` is a `&'static str` registry key, which real
// serde cannot deserialize into (the compat shims must stay swappable for
// the real crates without code changes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ThresholdSearch {
    trials: u64,
    seed: Seed,
    threads: Option<usize>,
    backend: &'static str,
}

impl ThresholdSearch {
    /// Creates a search spending at most `trials` trials per probed gap, on
    /// the default `"jump-chain"` backend.
    ///
    /// # Panics
    ///
    /// Panics if `trials <= 3`: the clamped target `1 − 3/trials` would be
    /// vacuous (≤ 0, every gap "succeeds" and the search degenerates to the
    /// smallest feasible gap).
    pub fn new(trials: u64, seed: Seed) -> Self {
        check_probe_trials(trials).unwrap_or_else(|reason| panic!("{reason}"));
        ThresholdSearch {
            trials,
            seed,
            threads: None,
            backend: "jump-chain",
        }
    }

    /// Restricts the underlying Monte-Carlo runs to a number of threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Selects the engine backend (by registry name or alias) every probe
    /// runs on.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the
    /// [`BackendRegistry`](lv_engine::BackendRegistry).
    pub fn with_backend(mut self, name: &str) -> Self {
        let backend = lv_engine::backend(name)
            .unwrap_or_else(|| panic!("unknown backend {name:?}; see BackendRegistry::names()"));
        self.backend = backend.name();
        self
    }

    /// The canonical name of the backend probes run on.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The per-probe trial budget.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The success-probability target for population size `n`: the
    /// [`default_target`] at the configured trial budget.
    pub fn target(&self, n: u64) -> f64 {
        default_target(n, self.trials).expect("the constructor checked the trial budget")
    }

    /// Runs one adaptive probe of the factory at `gap` against `target`.
    fn probe<G: GapScenario>(&self, factory: &G, gap: u64, target: f64) -> GapProbe {
        let n = factory.population();
        let seed = self
            .seed
            .derive("threshold")
            .derive(&format!("n={n}"))
            .derive(&format!("gap={gap}"));
        let mut mc = MonteCarlo::new(self.trials, seed).with_backend(self.backend);
        if let Some(threads) = self.threads {
            mc = mc.with_threads(threads);
        }
        // Stop as soon as the interval clears the target; the half-width
        // floor 1/trials is unreachable before the trial cap (the Wilson
        // half-width of an all-success sample is ≈ z²/trials), so the cap —
        // where the point estimate decides — binds for genuinely
        // near-threshold probes, exactly like the old fixed-budget search.
        let rule = EarlyStop::at_half_width((1.0 / self.trials as f64).min(0.25))
            .with_boundary(target)
            .with_min_trials(8.min(self.trials));
        let scenario = factory.scenario(gap);
        let estimate = mc.scenario_success_probability_until(&scenario, rule);
        GapProbe {
            gap,
            trials: estimate.trials(),
            successes: estimate.successes(),
            estimate: estimate.point(),
            reached_target: estimate.point() >= target,
        }
    }

    /// Finds the empirical threshold of any gap family on the configured
    /// backend: the [`lattice_search`] over the feasible-gap lattice.
    ///
    /// # Panics
    ///
    /// Panics if the configured backend does not support the factory's
    /// species count.
    pub fn find_gap<G: GapScenario>(&self, factory: &G) -> ThresholdResult {
        let backend = lv_engine::backend(self.backend).expect("constructor validated the name");
        assert!(
            backend.supports_species(factory.species_count()),
            "backend {:?} does not support {}-species threshold sweeps",
            self.backend,
            factory.species_count()
        );
        let n = factory.population();
        let target = self.target(n);
        let (min_gap, stride, max_gap) = (factory.min_gap(), factory.stride(), factory.max_gap());
        assert!(min_gap >= 1 && stride >= 1 && max_gap >= min_gap);
        debug_assert_eq!((max_gap - min_gap) % stride, 0, "max_gap off the lattice");
        let gap_at = |index: u64| min_gap + index * stride;
        let mut probes = Vec::new();
        let Ok((index, at_threshold, saturated)) =
            lattice_search((max_gap - min_gap) / stride, |index| {
                let probe = self.probe(factory, gap_at(index), target);
                probes.push(probe);
                Ok::<_, Infallible>(probe)
            });
        ThresholdResult {
            n,
            species: factory.species_count(),
            backend: self.backend.to_string(),
            threshold: gap_at(index),
            target,
            success_at_threshold: at_threshold.estimate,
            saturated,
            probes,
        }
    }

    /// Finds the two-species threshold for the model at population size `n`
    /// (a [`TwoSpeciesGap`] family with the default event budget).
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`.
    pub fn find(&self, model: &LvModel, n: u64) -> ThresholdResult {
        self.find_gap(&TwoSpeciesGap::new(*model, n))
    }

    /// Finds the `k`-species plurality-margin threshold for the model at
    /// population size `n` (a [`PluralityGap`] family with the default
    /// event budget).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2k`.
    pub fn find_plurality(&self, model: &MultiLvModel, n: u64) -> ThresholdResult {
        self.find_gap(&PluralityGap::new(model.clone(), n))
    }

    /// Finds two-species thresholds for a whole sweep of population sizes.
    pub fn sweep(&self, model: &LvModel, sizes: &[u64]) -> Vec<ThresholdResult> {
        sizes.iter().map(|&n| self.find(model, n)).collect()
    }

    /// Finds plurality-margin thresholds for a whole sweep of population
    /// sizes.
    pub fn sweep_plurality(&self, model: &MultiLvModel, sizes: &[u64]) -> Vec<ThresholdResult> {
        sizes
            .iter()
            .map(|&n| self.find_plurality(model, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_lotka::CompetitionKind;

    fn sd_model() -> LvModel {
        LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0)
    }

    #[test]
    fn target_is_clamped_by_trial_count() {
        let search = ThresholdSearch::new(100, Seed::from(1));
        assert!(search.target(1_000_000) <= 1.0 - 3.0 / 100.0 + 1e-12);
        assert!((search.target(10) - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "more than 3 trials")]
    fn degenerate_trial_budgets_are_rejected() {
        // 1 - 3/trials <= 0 for trials <= 3: every gap would "succeed" and
        // the search would return the smallest feasible gap vacuously.
        let _ = ThresholdSearch::new(3, Seed::from(2));
    }

    #[test]
    fn even_populations_probe_only_parity_feasible_gaps() {
        // Regression test for the gap-parity bug: the old search probed
        // ∆ = 1 first, which `a = (n + 1)/2, b = n − a` silently collapsed
        // to ∆ = 0 on even n — `find(model, 1000)` started by measuring a
        // dead tie. Every probed gap must now be even and realised exactly.
        let search = ThresholdSearch::new(40, Seed::from(9));
        let result = search.find(&sd_model(), 1_000);
        assert!(!result.probes.is_empty());
        let factory = TwoSpeciesGap::new(sd_model(), 1_000);
        for probe in &result.probes {
            assert_eq!(
                probe.gap % 2,
                0,
                "probed ∆ = {} is infeasible on n = 1000",
                probe.gap
            );
            assert!(
                probe.gap >= 2,
                "probed the old degenerate ∆ = {}",
                probe.gap
            );
            let initial = factory.scenario(probe.gap).initial().clone();
            assert_eq!(
                initial.count(0) - initial.count(1),
                probe.gap,
                "probe did not realise its gap"
            );
            assert_eq!(initial.total(), 1_000);
        }
    }

    #[test]
    fn odd_populations_probe_odd_gaps() {
        let search = ThresholdSearch::new(40, Seed::from(14));
        let result = search.find(&sd_model(), 601);
        for probe in &result.probes {
            assert_eq!(probe.gap % 2, 1, "probed ∆ = {} on n = 601", probe.gap);
        }
        assert_eq!(result.threshold % 2, 1);
    }

    #[test]
    #[should_panic(expected = "wrong parity")]
    fn infeasible_gaps_are_rejected_by_the_factory() {
        let _ = TwoSpeciesGap::new(LvModel::default(), 1_000).scenario(3);
    }

    #[test]
    fn far_from_threshold_probes_stop_early() {
        let search = ThresholdSearch::new(400, Seed::from(10));
        let result = search.find(&sd_model(), 1_024);
        assert!(!result.saturated);
        // Doubling probes far below the threshold (ρ ≈ 1/2 « target) decide
        // after a handful of trials instead of the 400-trial budget.
        let far_below: Vec<_> = result
            .probes
            .iter()
            .filter(|p| (p.gap as f64) <= result.threshold as f64 / 4.0)
            .collect();
        assert!(
            !far_below.is_empty(),
            "no far-from-threshold probe recorded"
        );
        for probe in &far_below {
            assert!(
                probe.trials <= 40,
                "far probe at ∆ = {} burned {} of 400 trials",
                probe.gap,
                probe.trials
            );
        }
        // And the search as a whole spends well under the fixed-budget cost.
        assert!(result.trials_spent() < result.probes.len() as u64 * 400);
        // The probe at the returned threshold is the one that needed the
        // most evidence (it straddles the target): it spent more than the
        // cheap far-away probes.
        let at_threshold = result.probe_for(result.threshold).unwrap();
        assert!(at_threshold.trials > far_below.iter().map(|p| p.trials).min().unwrap());
    }

    #[test]
    fn self_destructive_threshold_is_small_at_moderate_n() {
        let search = ThresholdSearch::new(150, Seed::from(2));
        let result = search.find(&sd_model(), 1_000);
        assert!(!result.saturated);
        assert!(
            result.threshold <= 120,
            "self-destructive threshold {} unexpectedly large",
            result.threshold
        );
        assert!(result.success_at_threshold >= search.target(1_000));
        assert_eq!(result.backend, "jump-chain");
        assert_eq!(result.species, 2);
    }

    #[test]
    fn non_self_destructive_threshold_is_much_larger() {
        let sd = sd_model();
        let nsd = LvModel::neutral(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0);
        let search = ThresholdSearch::new(120, Seed::from(3));
        let n = 2_000;
        let t_sd = search.find(&sd, n).threshold;
        let t_nsd = search.find(&nsd, n).threshold;
        assert!(
            t_nsd >= 2 * t_sd,
            "expected a clear separation, got SD {t_sd} vs NSD {t_nsd}"
        );
    }

    #[test]
    fn intraspecific_only_saturates() {
        let model = LvModel::intraspecific_only(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        let search = ThresholdSearch::new(80, Seed::from(4));
        let result = search.find(&model, 60);
        assert!(result.saturated, "expected saturation, got {result}");
        assert_eq!(result.threshold, 58);
    }

    #[test]
    fn sweep_returns_one_result_per_size() {
        let search = ThresholdSearch::new(60, Seed::from(5));
        let results = search.sweep(&sd_model(), &[128, 256]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].n, 128);
        assert_eq!(results[1].n, 256);
        let text = results[0].to_string();
        assert!(text.contains("threshold"));
        assert!(text.contains("jump-chain"));
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_populations_are_rejected() {
        let model = LvModel::default();
        let _ = ThresholdSearch::new(10, Seed::from(6)).find(&model, 2);
    }

    #[test]
    fn czyzowicz_backend_needs_a_linear_scale_gap() {
        // The proportional law ρ(∆) = 1/2 + ∆/2n: reaching the clamped
        // target 1 − 3/40 = 0.925 needs ∆ ≈ 0.85·n.
        let search = ThresholdSearch::new(40, Seed::from(12)).with_backend("czyzowicz-lv");
        let factory = TwoSpeciesGap::new(LvModel::default(), 100).with_max_events(100 * 100 * 100);
        let result = search.find_gap(&factory);
        assert_eq!(result.backend, "czyzowicz-lv");
        assert!(!result.saturated);
        assert!(
            result.threshold >= 50,
            "czyzowicz-lv threshold ∆ = {} is not linear-scale on n = 100",
            result.threshold
        );
    }

    #[test]
    fn exact_majority_backend_succeeds_at_the_smallest_feasible_gap() {
        let search = ThresholdSearch::new(20, Seed::from(15)).with_backend("exact-majority");
        let factory = TwoSpeciesGap::new(LvModel::default(), 64).with_max_events(100 * 64 * 64);
        let result = search.find_gap(&factory);
        assert!(!result.saturated);
        assert_eq!(result.threshold, 2, "exact majority is always correct");
        assert_eq!(result.probes.len(), 1, "the first probe already succeeds");
    }

    #[test]
    fn annihilation_backend_succeeds_at_the_smallest_feasible_gap() {
        // The self-destructive annihilation dynamics preserve the gap, so
        // like exact majority they have no threshold: the first probe (the
        // smallest feasible gap) already reaches the target.
        let search = ThresholdSearch::new(20, Seed::from(16)).with_backend("annihilation-lv");
        let factory = TwoSpeciesGap::new(LvModel::default(), 64).with_max_events(100 * 64 * 64);
        let result = search.find_gap(&factory);
        assert!(!result.saturated);
        assert_eq!(result.threshold, 2, "gap invariance makes any gap decide");
        assert_eq!(result.probes.len(), 1, "the first probe already succeeds");
    }

    #[test]
    fn batched_backends_sweep_larger_populations_than_the_agent_list_could() {
        // A smoke of the new scale on the search itself: a full adaptive
        // search at n = 20 000 on the batched approximate-majority backend
        // stays cheap (the per-trial cost is ~√n-batched), and every probe
        // realises its gap exactly on the parity lattice.
        let search = ThresholdSearch::new(24, Seed::from(17)).with_backend("approx-majority");
        let n = 8_000;
        let budget = (40.0 * n as f64 * (n as f64).ln()).ceil() as u64;
        let factory = TwoSpeciesGap::new(LvModel::default(), n).with_max_events(budget);
        let result = search.find_gap(&factory);
        assert!(!result.saturated);
        assert!(result.threshold >= 2);
        // Far below the linear regime: the batched backend measures a
        // sub-linear threshold even at 20k agents.
        assert!(
            result.threshold < n / 10,
            "threshold ∆ = {} is not sub-linear at n = {n}",
            result.threshold
        );
        for probe in &result.probes {
            assert_eq!(probe.gap % 2, 0, "n is even: feasible gaps are even");
        }
    }

    #[test]
    fn plurality_search_covers_k_species() {
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let search = ThresholdSearch::new(40, Seed::from(13));
        let result = search.find_plurality(&model, 150);
        assert_eq!(result.species, 3);
        assert!(!result.saturated);
        for probe in &result.probes {
            assert_eq!(probe.gap % 3, 0, "margins live on the k-lattice");
        }
        // The threshold scenario realises the margin exactly over symmetric
        // rivals.
        let factory = PluralityGap::new(model, 150);
        let initial = factory.scenario(result.threshold).initial().clone();
        assert_eq!(initial.margin(), result.threshold as i64);
        assert_eq!(initial.count(1), initial.count(2), "rivals are symmetric");
        assert_eq!(initial.total(), 150);
    }

    #[test]
    fn two_species_plurality_matches_the_two_species_lattice() {
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 2, 1.0, 1.0, 1.0);
        let plurality = PluralityGap::new(model, 1_000);
        let two = TwoSpeciesGap::new(sd_model(), 1_000);
        assert_eq!(plurality.min_gap(), two.min_gap());
        assert_eq!(plurality.stride(), two.stride());
        assert_eq!(plurality.max_gap(), two.max_gap());
        assert_eq!(plurality.counts(10), vec![505, 495]);
        assert_eq!(two.counts(10), (505, 495));
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn protocol_backends_reject_k_species_sweeps() {
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let search = ThresholdSearch::new(10, Seed::from(7)).with_backend("approx-majority");
        let _ = search.find_plurality(&model, 60);
    }

    #[test]
    #[should_panic(expected = "unknown backend")]
    fn unknown_backends_are_rejected() {
        let _ = ThresholdSearch::new(10, Seed::from(8)).with_backend("quantum");
    }
}
