//! The built-in backends: one exact specialised jump chain, three generic
//! CRN simulators, and the deterministic ODE — all defined over `k`-species
//! scenarios.

use crate::backend::{drive, stop_reason, Backend, Step, Stepper};
use crate::observer::{EventCounts, NoiseObservation, Observation, ObserverSpec};
use crate::report::RunReport;
use crate::scenario::{Scenario, ScenarioModel};
use lv_crn::simulators::{
    GillespieDirect, JumpChain, NextReaction, StochasticSimulator, TauLeaping,
};
use lv_crn::{State, StopReason};
use lv_lotka::{run_jump_chain, CompetitionKind, MultiLvModel, Population, PopulationEvent};
use lv_ode::{CompetitiveLv, CompetitiveLvK, DynRk4, OdeSystem, Rk4};
use rand::rngs::StdRng;

/// The exact discrete-time jump chain (the paper's chain `S = (S_t)`).
///
/// Two-species scenarios run on [`run_jump_chain`], the fused
/// [`LvJumpChain`](lv_lotka::LvJumpChain) kernel `lv_lotka::run_majority`
/// also runs on: one loop steps the chain, evaluates the stop condition on
/// the counts and tallies every built-in observation, so on the same RNG
/// stream its reports reproduce `run_majority` bit for bit. `k`-species
/// scenarios run the same embedded jump chain through the generic CRN
/// simulator ([`lv_crn::simulators::JumpChain`]) on the model's reaction
/// network.
#[derive(Debug, Clone, Copy, Default)]
pub struct JumpChainBackend;

impl Backend for JumpChainBackend {
    fn name(&self) -> &'static str {
        "jump-chain"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["jump", "exact"]
    }

    fn description(&self) -> &'static str {
        "exact embedded jump chain (specialised two-species fast path; CRN chain for k > 2)"
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        let model = match scenario.model() {
            ScenarioModel::TwoSpecies(model) => model,
            ScenarioModel::MultiSpecies(_) => {
                // The generic CRN jump chain simulates the identical embedded
                // chain; only the two-species case has a faster specialised
                // stepper.
                let crn = scenario.crn_form();
                return drive(self.name(), scenario, || Crn {
                    sim: JumpChain::new(&crn.network, initial_state(scenario), rng),
                    events: &crn.events,
                });
            }
        };
        let initial = scenario
            .initial()
            .as_lv_configuration()
            .expect("two-species model has a two-species initial population");
        let stop = scenario.stop();
        let wants_trajectory = scenario.observers().contains(&ObserverSpec::GapTrajectory);
        let mut trajectory = Vec::new();
        // The jump chain's clock is its event count.
        let (outcome, verdict) = run_jump_chain(
            model,
            initial,
            rng,
            wants_trajectory.then_some(&mut trajectory),
            |counts, events| stop_reason(stop, counts, events, events as f64),
        );
        let observations = scenario
            .observers()
            .iter()
            .map(|&spec| {
                let observation = match spec {
                    ObserverSpec::GapTrajectory => {
                        Observation::GapTrajectory(std::mem::take(&mut trajectory))
                    }
                    ObserverSpec::NoiseDecomposition => Observation::Noise(NoiseObservation {
                        classified: outcome.noise,
                        unclassified: 0,
                    }),
                    ObserverSpec::EventCounts => Observation::Events(EventCounts {
                        individual: outcome.individual_events,
                        competitive: outcome.competitive_events,
                        bad_noncompetitive: outcome.bad_noncompetitive_events,
                        unclassified: 0,
                    }),
                    ObserverSpec::MaxPopulation => {
                        Observation::MaxPopulation(outcome.max_population)
                    }
                };
                (spec, observation)
            })
            .collect();
        let (x0, x1) = outcome.final_state.counts();
        RunReport::new(
            self.name(),
            scenario.initial().clone(),
            Population::new(vec![x0, x1]),
            verdict.unwrap_or(StopReason::Absorbed),
            outcome.events,
            outcome.events,
            outcome.events as f64,
            observations,
        )
    }
}

/// Any generic CRN simulator as a [`Stepper`], its reactions mapped onto
/// LV events.
struct Crn<'a, S> {
    sim: S,
    events: &'a [PopulationEvent],
}

impl<S: StochasticSimulator> Stepper for Crn<'_, S> {
    fn advance(&mut self, _budget: u64) -> Result<Step<'_>, StopReason> {
        let events_before = self.sim.events();
        let event = self.sim.step().ok_or(StopReason::Absorbed)?;
        let fired = self.sim.events() - events_before;
        // A step representing exactly one firing is a resolved event;
        // multi-firing leaps (and empty leaps, which report no reaction at
        // all) stay unclassified.
        let event = match event.reaction {
            Some(reaction) if fired == 1 => Some(self.events[reaction.index()]),
            _ => None,
        };
        Ok(Step {
            event,
            counts: self.sim.state().counts(),
            time: self.sim.time(),
            fired,
        })
    }
}

fn initial_state(scenario: &Scenario) -> State {
    State::from(scenario.initial().counts())
}

/// The Gillespie direct method on the model's reaction network: exact
/// continuous-time stochastic simulation with reaction-local propensity
/// updates.
#[derive(Debug, Clone, Copy, Default)]
pub struct GillespieDirectBackend;

impl Backend for GillespieDirectBackend {
    fn name(&self) -> &'static str {
        "gillespie-direct"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["direct", "gillespie", "ssa"]
    }

    fn description(&self) -> &'static str {
        "exact continuous-time Gillespie direct method on the generic CRN"
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        let crn = scenario.crn_form();
        drive(self.name(), scenario, || Crn {
            sim: GillespieDirect::new(&crn.network, initial_state(scenario), rng),
            events: &crn.events,
        })
    }
}

/// The next-reaction method: exact continuous-time simulation keeping one
/// exponential clock per reaction.
#[derive(Debug, Clone, Copy, Default)]
pub struct NextReactionBackend;

impl Backend for NextReactionBackend {
    fn name(&self) -> &'static str {
        "next-reaction"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["nrm"]
    }

    fn description(&self) -> &'static str {
        "exact continuous-time next-reaction method (independent exponential clocks)"
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        let crn = scenario.crn_form();
        drive(self.name(), scenario, || Crn {
            sim: NextReaction::new(&crn.network, initial_state(scenario), rng),
            events: &crn.events,
        })
    }
}

/// Approximate accelerated simulation via explicit tau-leaping; the leap
/// length comes from [`Scenario::tau`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TauLeapingBackend;

impl Backend for TauLeapingBackend {
    fn name(&self) -> &'static str {
        "tau-leaping"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["tau"]
    }

    fn description(&self) -> &'static str {
        "approximate tau-leaping (Poisson leaps, rejection near boundaries)"
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        let crn = scenario.crn_form();
        drive(self.name(), scenario, || Crn {
            sim: TauLeaping::new(&crn.network, initial_state(scenario), scenario.tau(), rng),
            events: &crn.events,
        })
    }
}

/// The deterministic mean-field backend: integrates the competitive
/// Lotka–Volterra ODE (Eq. 4, generalised to `k` species) with fixed-step
/// RK4 and reports the rounded trajectory through the same scenario
/// interface.
///
/// For two-species models, densities map to the symmetric ODE coefficients
/// as follows (neutral-rate interpretation; per-event population loss
/// divided by the event rate):
///
/// | competition | `α′` | `γ′` |
/// |---|---|---|
/// | self-destructive | `α_0 + α_1` | `(γ_0 + γ_1)/2` |
/// | non-self-destructive | `(α_0 + α_1)/2` | `(γ_0 + γ_1)/4` |
///
/// `k`-species models use the per-entry generalisation of the same mapping
/// ([`MultiLvModel::mean_field_matrix`]) on the
/// [`CompetitiveLvK`] system.
///
/// The backend is deterministic: the RNG argument is ignored, `events` stays
/// zero and `steps` counts integration steps. Because no reactions fire, a
/// scenario's `max_events` budget is applied to integration *steps* instead,
/// so every budgeted scenario still terminates (and truncates) on this
/// backend like on the stochastic ones. Step sizes adapt to the local
/// dynamics (at most ~5% relative change per species per step, capped at
/// [`Scenario::ode_step`]), which keeps the integration stable for the large
/// mass-action propensities of big populations. A species is considered
/// extinct when its density drops below one half (the rounded count hits
/// zero). When the stop condition has no `max_time`, integration stops at
/// [`Scenario::ode_horizon`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OdeBackend;

impl OdeBackend {
    /// The symmetric two-species mean-field ODE for a scenario's model.
    pub fn system_for(model: &lv_lotka::LvModel) -> CompetitiveLv {
        let rates = model.rates();
        let (alpha_factor, gamma_factor) = match model.kind() {
            CompetitionKind::SelfDestructive => (1.0, 0.5),
            CompetitionKind::NonSelfDestructive => (0.5, 0.25),
        };
        CompetitiveLv::new(
            rates.beta - rates.delta,
            alpha_factor * rates.alpha_total(),
            gamma_factor * rates.gamma_total(),
        )
    }

    /// The `k`-species mean-field ODE for a multi-species model:
    /// `dx_i/dt = x_i (r_i − Σ_j a_ij x_j)` with `r` the per-species growth
    /// rates and `a` the [`MultiLvModel::mean_field_matrix`].
    pub fn system_for_multi(model: &MultiLvModel) -> CompetitiveLvK {
        CompetitiveLvK::new(model.growth_rates(), model.mean_field_matrix())
    }
}

fn rounded_count(v: f64) -> u64 {
    if v <= 0.0 {
        0
    } else {
        v.round() as u64
    }
}

/// The shared adaptive-step control: bound the per-step *relative* change of
/// every species to ~5% (mass-action propensities scale with population
/// products, so a fixed step would be unstable for large populations).
fn adaptive_step(y: &[f64], dy: &[f64], step_cap: f64, remaining: f64) -> f64 {
    let mut rate = 0.0f64;
    for (value, slope) in y.iter().zip(dy) {
        rate = rate.max(slope.abs() / value.max(1.0));
    }
    let h = if rate > 0.0 {
        (0.05 / rate).min(step_cap)
    } else {
        step_cap
    };
    h.min(remaining)
}

impl Backend for OdeBackend {
    fn name(&self) -> &'static str {
        "ode"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["deterministic", "mean-field"]
    }

    fn description(&self) -> &'static str {
        "deterministic mean-field ODE (Eq. 4, k-species) via fixed-step RK4; ignores the RNG"
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn run(&self, scenario: &Scenario, _rng: &mut StdRng) -> RunReport {
        match scenario.model() {
            ScenarioModel::TwoSpecies(model) => {
                let system = OdeBackend::system_for(model);
                let sys = &system;
                run_ode(
                    self.name(),
                    scenario,
                    |y, dy| {
                        let d = sys.derivative(&[y[0], y[1]]);
                        dy.copy_from_slice(&d);
                    },
                    |y, h| {
                        let next = Rk4::single_step(sys, [y[0], y[1]], h);
                        y.copy_from_slice(&next);
                    },
                )
            }
            ScenarioModel::MultiSpecies(model) => {
                let system = OdeBackend::system_for_multi(model);
                let mut stepper = DynRk4::new(model.species_count());
                let sys = &system;
                run_ode(
                    self.name(),
                    scenario,
                    |y, dy| sys.derivative_into(y, dy),
                    |y, h| stepper.step(sys, y, h),
                )
            }
        }
    }
}

/// The shared ODE run, parameterised over the derivative and the RK4 step
/// (two-species const-generic path vs `k`-species dynamic path — identical
/// control flow, so both truncate, adapt and round the same way).
fn run_ode(
    name: &'static str,
    scenario: &Scenario,
    derivative: impl FnMut(&[f64], &mut [f64]),
    rk4_step: impl FnMut(&mut [f64], f64),
) -> RunReport {
    drive(name, scenario, || {
        let counts = scenario.initial().counts().to_vec();
        Ode {
            scenario,
            derivative,
            rk4_step,
            y: counts.iter().map(|&c| c as f64).collect(),
            dy: vec![0.0; counts.len()],
            counts,
            t: 0.0,
            steps: 0,
        }
    })
}

/// The ODE integration as a [`Stepper`]: one adaptive RK4 step per step.
struct Ode<'a, D, R> {
    scenario: &'a Scenario,
    derivative: D,
    rk4_step: R,
    y: Vec<f64>,
    dy: Vec<f64>,
    counts: Vec<u64>,
    t: f64,
    steps: u64,
}

impl<D: FnMut(&[f64], &mut [f64]), R: FnMut(&mut [f64], f64)> Stepper for Ode<'_, D, R> {
    fn advance(&mut self, _budget: u64) -> Result<Step<'_>, StopReason> {
        let stop = self.scenario.stop();
        // No reactions fire here, so the event budget (always vacuous on
        // the run's event count) bounds integration steps instead — without
        // this a scenario budgeted only by `max_events` would silently run
        // to the horizon.
        if stop.max_events().is_some_and(|max| self.steps >= max) {
            return Err(StopReason::MaxEventsReached);
        }
        let horizon = stop
            .max_time()
            .unwrap_or_else(|| self.scenario.ode_horizon());
        if self.t >= horizon {
            return Err(StopReason::MaxTimeReached);
        }
        (self.derivative)(&self.y, &mut self.dy);
        let h = adaptive_step(
            &self.y,
            &self.dy,
            self.scenario.ode_step(),
            horizon - self.t,
        );
        (self.rk4_step)(&mut self.y, h);
        for value in self.y.iter_mut() {
            *value = value.max(0.0);
        }
        self.t += h;
        for (count, &value) in self.counts.iter_mut().zip(&self.y) {
            *count = rounded_count(value);
        }
        self.steps += 1;
        Ok(Step {
            event: None,
            counts: &self.counts,
            time: self.t,
            fired: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_lotka::LvModel;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn jump_chain_backend_reaches_consensus() {
        let scenario = Scenario::majority(LvModel::default(), 60, 40);
        let report = JumpChainBackend.run(&scenario, &mut rng(1));
        assert!(report.consensus_reached());
        assert!(!report.truncated());
        assert_eq!(report.events, report.steps);
        assert_eq!(report.time, report.events as f64);
        let counts = report.event_counts().unwrap();
        assert_eq!(counts.individual + counts.competitive, report.events);
        assert_eq!(counts.unclassified, 0);
    }

    #[test]
    fn jump_chain_backend_runs_three_species_scenarios() {
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![60, 25, 15]);
        let report = JumpChainBackend.run(&scenario, &mut rng(5));
        assert_eq!(report.species_count(), 3);
        assert!(report.consensus_reached());
        assert_eq!(report.events, report.steps);
        // Jump-chain clock: time is the event count.
        assert_eq!(report.time, report.events as f64);
        let outcome = report.to_plurality_outcome();
        assert_eq!(outcome.initial_leader, Some(0));
        assert!(outcome.winner.is_some() || outcome.final_state.total() == 0);
    }

    #[test]
    fn continuous_backends_report_physical_time() {
        let scenario = Scenario::majority(LvModel::default(), 30, 20);
        for backend in [
            &GillespieDirectBackend as &dyn Backend,
            &NextReactionBackend,
        ] {
            let report = backend.run(&scenario, &mut rng(2));
            assert!(report.consensus_reached(), "{}", backend.name());
            assert!(report.time > 0.0);
            assert_eq!(report.events, report.steps);
        }
    }

    #[test]
    fn tau_leaping_counts_firings_not_leaps() {
        let scenario = Scenario::majority(LvModel::default(), 400, 300).with_tau(0.05);
        let report = TauLeapingBackend.run(&scenario, &mut rng(3));
        assert!(report.consensus_reached());
        assert!(
            report.steps < report.events,
            "leaps {} should aggregate firings {}",
            report.steps,
            report.events
        );
    }

    #[test]
    fn ode_backend_is_deterministic_and_picks_the_majority() {
        let scenario =
            Scenario::majority(LvModel::default(), 600, 400).observe(ObserverSpec::GapTrajectory);
        let a = OdeBackend.run(&scenario, &mut rng(4));
        let b = OdeBackend.run(&scenario, &mut rng(999));
        assert_eq!(a, b, "ODE backend must ignore the RNG");
        assert!(a.consensus_reached());
        assert_eq!(a.final_state.winner(), a.initial.leader());
        assert_eq!(a.events, 0);
        assert!(a.steps > 0);
        // The recorded trajectory starts at the initial gap.
        assert_eq!(a.gap_trajectory().unwrap()[0], 200);
    }

    #[test]
    fn ode_backend_integrates_k_species_mean_field() {
        // Symmetric competitive exclusion: the planted 3-species majority
        // deterministically wins under the mean field.
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![500, 300, 200]);
        let a = OdeBackend.run(&scenario, &mut rng(6));
        let b = OdeBackend.run(&scenario, &mut rng(77));
        assert_eq!(a, b, "ODE backend must ignore the RNG");
        assert!(a.consensus_reached());
        assert_eq!(a.final_state.winner(), Some(0));
        assert_eq!(a.events, 0);
        assert!(a.steps > 0);
    }

    #[test]
    fn ode_backend_mean_field_mapping_matches_kind() {
        let sd = OdeBackend::system_for(&LvModel::neutral(
            CompetitionKind::SelfDestructive,
            1.0,
            0.25,
            2.0,
        ));
        assert_eq!(sd.growth_rate(), 0.75);
        assert_eq!(sd.interspecific(), 2.0);
        let nsd = OdeBackend::system_for(&LvModel::neutral(
            CompetitionKind::NonSelfDestructive,
            1.0,
            0.25,
            2.0,
        ));
        assert_eq!(nsd.interspecific(), 1.0);
    }

    #[test]
    fn two_species_mean_field_agrees_with_the_multi_mapping() {
        // For a neutral model the symmetric two-species system and the k = 2
        // multi mapping must be the same ODE.
        for kind in [
            CompetitionKind::SelfDestructive,
            CompetitionKind::NonSelfDestructive,
        ] {
            let model = LvModel::with_intraspecific(kind, 1.0, 0.5, 2.0, 1.0);
            let symmetric = OdeBackend::system_for(&model);
            let multi = OdeBackend::system_for_multi(&MultiLvModel::from(model));
            let y = [7.0, 3.0];
            let reference = symmetric.derivative(&y);
            let mut out = [0.0; 2];
            multi.derivative_into(&y, &mut out);
            assert!(
                (out[0] - reference[0]).abs() < 1e-12 && (out[1] - reference[1]).abs() < 1e-12,
                "{kind:?}: {out:?} vs {reference:?}"
            );
        }
    }
}
