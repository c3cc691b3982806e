//! The [`Backend`] trait, and [`drive`], the one run loop the backends'
//! [`Stepper`]s share.

use crate::observer::{Observer, ObserverSpec, StepRecord};
use crate::report::RunReport;
use crate::scenario::Scenario;
use lv_crn::{StopCondition, StopReason};
use lv_lotka::{Population, PopulationEvent};
use rand::rngs::StdRng;

/// A pluggable execution engine for [`Scenario`]s.
///
/// The trait is object-safe so backends can live behind the string-keyed
/// [`registry`](crate::BackendRegistry) and be selected at runtime (CLI
/// flags, bench parameters, config files). All stochastic backends draw
/// every random decision from the `rng` argument, so a fixed seed fully
/// determines a run.
pub trait Backend: Send + Sync {
    /// The canonical registry name (kebab-case, e.g. `"jump-chain"`).
    fn name(&self) -> &'static str;

    /// Alternative registry names accepted by lookup.
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line human description shown by CLI listings.
    fn description(&self) -> &'static str;

    /// Whether this backend ignores the RNG (same scenario, same report,
    /// every run). Batch runners use this to execute deterministic backends
    /// once instead of once per trial.
    fn deterministic(&self) -> bool {
        false
    }

    /// Whether this backend can run scenarios over `species` species. The
    /// five Lotka–Volterra backends support any `k ≥ 2`; protocol baselines
    /// like `"approx-majority"` are two-opinion only.
    fn supports_species(&self, species: usize) -> bool {
        species >= 2
    }

    /// Whether this backend simulates the scenario's kinetic *model*.
    /// Protocol-baseline backends use only the initial configuration and
    /// the stop budgets; model-sensitive comparisons should skip them.
    fn models_kinetics(&self) -> bool {
        true
    }

    /// Whether this backend executes in count-based *batches* (epochs of
    /// `Θ(√n)` collision-free interactions applied as count deltas) rather
    /// than resolving every event individually. Batched backends agree with
    /// their per-event counterparts *statistically* — equal outcome
    /// distributions — but not bit-for-bit: the RNG stream differs, steps
    /// aggregate many firings (`StepRecord::firings > 1`, `event = None`),
    /// and absorption is detected at epoch granularity. Registries report
    /// this flag so callers can pick bit-exact legacy execution (e.g.
    /// `"approx-majority-agents"`) when they need it.
    fn batched(&self) -> bool {
        false
    }

    /// Executes the scenario to completion.
    ///
    /// The deterministic ODE backend accepts the RNG for interface uniformity
    /// and ignores it.
    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport;
}

/// Why a run in state `counts`, after `events` firings at time `time`,
/// stops — checked in the same order as
/// `StochasticSimulator::run_with_observer`: state condition first, then the
/// event budget, then the time budget. `None` while the run goes on.
pub(crate) fn stop_reason(
    stop: &StopCondition,
    counts: &[u64],
    events: u64,
    time: f64,
) -> Option<StopReason> {
    if stop.is_met_counts(counts) {
        Some(StopReason::ConditionMet)
    } else if stop.max_events().is_some_and(|max| events >= max) {
        Some(StopReason::MaxEventsReached)
    } else if stop.max_time().is_some_and(|max| time >= max) {
        Some(StopReason::MaxTimeReached)
    } else {
        None
    }
}

/// The most interactions the next step may take: what the event budget has
/// left, and the fewest that reach the time budget (the protocol clock
/// counts interactions). At least one once the stop check has passed.
fn interaction_budget(stop: &StopCondition, events: u64, time: f64) -> u64 {
    let by_events = stop.max_events().map_or(u64::MAX, |max| max - events);
    // The cast saturates: a time budget beyond `u64::MAX` interactions
    // bounds nothing.
    let by_time = stop
        .max_time()
        .map_or(u64::MAX, |max| (max - time).ceil().max(1.0) as u64);
    by_events.min(by_time)
}

/// One step taken by a [`Stepper`].
pub(crate) struct Step<'a> {
    /// The reaction that fired, when the step resolved a single event.
    pub(crate) event: Option<PopulationEvent>,
    /// Species counts after the step.
    pub(crate) counts: &'a [u64],
    /// The backend clock after the step.
    pub(crate) time: f64,
    /// Reaction firings (protocol interactions) the step represents.
    pub(crate) fired: u64,
}

/// A backend's state machine, advanced one step at a time by [`drive`].
pub(crate) trait Stepper {
    /// Whether steps schedule pairs of agents. Fewer than two agents then
    /// admit no step at all, so [`drive`] ends such runs as absorbed without
    /// building the stepper.
    const PAIRWISE: bool = false;

    /// Takes one step, or says why no step can follow —
    /// [`StopReason::Absorbed`] when no step can change the state. Steppers
    /// that batch interactions keep a step within `budget` of them.
    fn advance(&mut self, budget: u64) -> Result<Step<'_>, StopReason>;
}

/// The run loop of every backend but the two-species jump chain (which runs
/// [`stop_reason`] inside the fused `lv_lotka::run_jump_chain` kernel):
/// check the stop condition and budgets, advance the stepper under the
/// [`interaction_budget`], feed the step to the scenario's observers, and
/// repeat until the stop condition holds or the stepper ends the run.
/// `build` runs only for runs that pass the start checks.
pub(crate) fn drive<S: Stepper>(
    name: &'static str,
    scenario: &Scenario,
    build: impl FnOnce() -> S,
) -> RunReport {
    let initial = scenario.initial();
    let stop = scenario.stop();
    let mut observers: Vec<(ObserverSpec, Box<dyn Observer>)> = scenario
        .observers()
        .iter()
        .map(|spec| (*spec, spec.build()))
        .collect();
    for (_, observer) in &mut observers {
        observer.on_start(initial);
    }
    let mut state = initial.counts().to_vec();
    let (mut events, mut steps, mut time) = (0u64, 0u64, 0.0f64);
    let reason = match stop_reason(stop, &state, events, time) {
        Some(reason) => reason,
        // No pair can ever be scheduled: an absorbed state in every
        // backend's vocabulary.
        None if S::PAIRWISE && initial.total() < 2 => StopReason::Absorbed,
        None => {
            let mut stepper = build();
            loop {
                let step = match stepper.advance(interaction_budget(stop, events, time)) {
                    Ok(step) => step,
                    Err(reason) => break reason,
                };
                let record = StepRecord {
                    event: step.event,
                    before: &state,
                    after: step.counts,
                    time: step.time,
                    firings: step.fired,
                };
                for (_, observer) in &mut observers {
                    observer.on_step(&record);
                }
                state.copy_from_slice(step.counts);
                events += step.fired;
                steps += 1;
                time = step.time;
                if let Some(reason) = stop_reason(stop, &state, events, time) {
                    break reason;
                }
            }
        }
    };
    let observations = observers
        .iter_mut()
        .map(|(spec, observer)| (*spec, observer.finish()))
        .collect();
    RunReport::new(
        name,
        initial.clone(),
        Population::new(state),
        reason,
        events,
        steps,
        time,
        observations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_lotka::{CompetitionKind, LvModel, MultiLvModel};

    #[test]
    fn scenario_crn_form_event_map_matches_network_reaction_order() {
        let model =
            LvModel::with_intraspecific(CompetitionKind::SelfDestructive, 1.0, 0.5, 2.0, 1.0);
        let scenario = Scenario::new(model, (5, 5));
        let crn = scenario.crn_form();
        assert_eq!(crn.events.len(), crn.network.reaction_count());
        // Spot-check against the names lv-lotka assigns.
        for (event, reaction) in crn.events.iter().zip(crn.network.reactions()) {
            let name = reaction.name().expect("lv-lotka names every reaction");
            let expected = match event {
                PopulationEvent::Birth(_) => "birth",
                PopulationEvent::Death(_) => "death",
                PopulationEvent::Interspecific { .. } => "interspecific",
                PopulationEvent::Intraspecific(_) => "intraspecific",
            };
            assert!(
                name.starts_with(expected),
                "event {event:?} mapped to reaction {name}"
            );
        }
    }

    /// Replays scripted `(counts, time)` steps, then reports absorption.
    struct Scripted {
        script: std::vec::IntoIter<(Vec<u64>, f64)>,
        counts: Vec<u64>,
    }

    impl Stepper for Scripted {
        fn advance(&mut self, _budget: u64) -> Result<Step<'_>, StopReason> {
            let (counts, time) = self.script.next().ok_or(StopReason::Absorbed)?;
            self.counts = counts;
            Ok(Step {
                event: Some(PopulationEvent::Interspecific {
                    attacker: 0,
                    victim: 1,
                }),
                counts: &self.counts,
                time,
                fired: 1,
            })
        }
    }

    #[test]
    fn driver_tracks_multi_species_state_and_stops_at_consensus() {
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![4, 2, 0]);
        // Consensus after the second step: the third is never taken.
        let script = vec![
            (vec![3, 1, 0], 1.0),
            (vec![2, 0, 0], 2.0),
            (vec![9, 9, 9], 3.0),
        ];
        let report = drive("test", &scenario, || Scripted {
            script: script.into_iter(),
            counts: Vec::new(),
        });
        assert_eq!(report.reason, StopReason::ConditionMet);
        assert_eq!(report.events, 2);
        assert_eq!(report.steps, 2);
        assert_eq!(report.time, 2.0);
        assert_eq!(report.final_state.counts(), &[2, 0, 0]);
        assert_eq!(report.final_state.winner(), Some(0));
    }
}
