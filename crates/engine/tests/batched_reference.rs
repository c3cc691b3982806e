//! The batched protocol backends vs hand-driven reference loops: the
//! count-based backends must be thin drivers around `CountedSimulation`
//! (epochs at 64 agents or more, single steps below that and wherever an
//! epoch would overrun the budget), and the bridged ones thin drivers around
//! `BridgedConversionWalk::advance`. On the same RNG stream a backend and its
//! reference loop must end bit for bit alike: final counts, interactions,
//! steps, clock, stop reason and event classes.

use lv_crn::{StopCondition, StopReason};
use lv_engine::{backend, EventCounts, ObserverSpec, Scenario};
use lv_lotka::{margin_of, CompetitionKind, EventKind, LvModel, MultiLvModel, PopulationEvent};
use lv_protocols::{
    ApproximateMajority, BridgeStep, BridgedConversionWalk, CountedDynamics, CountedSimulation,
    CzyzowiczLvProtocol, ExactMajority4State, SelfDestructiveLvProtocol,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The population from which the counted backends run birthday-bound
/// epochs instead of single interactions.
const EPOCH_MIN_POPULATION: u64 = 64;

/// How a run ended, in the terms a [`lv_engine::RunReport`] states it.
#[derive(Debug, Clone, PartialEq)]
struct End {
    counts: Vec<u64>,
    events: u64,
    steps: u64,
    time: f64,
    reason: StopReason,
    classes: EventCounts,
}

/// The reference bookkeeping: the scenario's stop rule checked before every
/// step (state condition, then the event budget, then the time budget), the
/// interaction budget handed to each step, and the event-class tally.
struct Reference<'a> {
    stop: &'a StopCondition,
    leader: usize,
    end: End,
}

impl<'a> Reference<'a> {
    fn new(scenario: &'a Scenario) -> Self {
        let initial = scenario.initial();
        Reference {
            stop: scenario.stop(),
            leader: initial.leader().unwrap_or(0),
            end: End {
                counts: initial.counts().to_vec(),
                events: 0,
                steps: 0,
                time: 0.0,
                reason: StopReason::Absorbed,
                classes: EventCounts::default(),
            },
        }
    }

    fn stop_reason(&self) -> Option<StopReason> {
        let end = &self.end;
        if self.stop.is_met_counts(&end.counts) {
            Some(StopReason::ConditionMet)
        } else if self.stop.max_events().is_some_and(|max| end.events >= max) {
            Some(StopReason::MaxEventsReached)
        } else if self.stop.max_time().is_some_and(|max| end.time >= max) {
            Some(StopReason::MaxTimeReached)
        } else {
            None
        }
    }

    /// The most interactions the next step may take: what is left of the
    /// event budget, and the fewest interactions that reach the time budget
    /// (the protocol clock counts interactions).
    fn budget(&self) -> u64 {
        let by_events = self
            .stop
            .max_events()
            .map_or(u64::MAX, |max| max - self.end.events);
        let by_time = self.stop.max_time().map_or(u64::MAX, |max| {
            let more = (max - self.end.time).ceil().max(1.0);
            if more < u64::MAX as f64 {
                more as u64
            } else {
                u64::MAX
            }
        });
        by_events.min(by_time)
    }

    fn record(&mut self, event: Option<PopulationEvent>, after: &[u64], fired: u64) {
        let classes = &mut self.end.classes;
        match event.map(|e| e.kind()) {
            Some(EventKind::Individual) => {
                classes.individual += 1;
                if margin_of(after, self.leader).abs()
                    < margin_of(&self.end.counts, self.leader).abs()
                {
                    classes.bad_noncompetitive += 1;
                }
            }
            Some(EventKind::Competitive) => classes.competitive += 1,
            None => classes.unclassified += fired,
        }
        self.end.counts.copy_from_slice(after);
        self.end.events += fired;
        self.end.steps += 1;
        self.end.time = self.end.events as f64;
    }

    fn finish(mut self, reason: StopReason) -> End {
        self.end.reason = reason;
        self.end
    }
}

/// The LV event one interaction stands for, read from the output change of
/// whichever agent changed (the other agent is the actor): a rival's
/// opinion lost or overwritten is a competitive attack, a blank adopting
/// the actor's opinion is a birth.
fn classify(
    initiator: (Option<usize>, Option<usize>),
    responder: (Option<usize>, Option<usize>),
) -> Option<PopulationEvent> {
    let (actor, (before, after)) = if responder.0 != responder.1 {
        (initiator.0, responder)
    } else if initiator.0 != initiator.1 {
        (responder.0, initiator)
    } else {
        return None;
    };
    match (actor?, before, after) {
        (attacker, Some(victim), None) if attacker != victim => {
            Some(PopulationEvent::Interspecific { attacker, victim })
        }
        (opinion, None, Some(recruited)) if opinion == recruited => {
            Some(PopulationEvent::Birth(opinion))
        }
        (attacker, Some(victim), Some(converted))
            if attacker != victim && converted == attacker =>
        {
            Some(PopulationEvent::Interspecific { attacker, victim })
        }
        _ => None,
    }
}

fn counted_reference(dynamics: &CountedDynamics, scenario: &Scenario, seed: u64) -> End {
    let mut reference = Reference::new(scenario);
    if let Some(reason) = reference.stop_reason() {
        return reference.finish(reason);
    }
    let initial = scenario.initial().counts();
    if initial.iter().sum::<u64>() < 2 {
        return reference.finish(StopReason::Absorbed);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = CountedSimulation::new(dynamics, initial);
    let mut opinions = vec![0u64; dynamics.species_count()];
    loop {
        if let Some(reason) = reference.stop_reason() {
            return reference.finish(reason);
        }
        if sim.is_absorbed() {
            return reference.finish(StopReason::Absorbed);
        }
        let budget = reference.budget();
        if sim.total() >= EPOCH_MIN_POPULATION {
            if let Some(fired) = sim.step_epoch(&mut rng, budget) {
                sim.opinion_counts_into(&mut opinions);
                reference.record(None, &opinions, fired);
                continue;
            }
        }
        let interaction = sim.step(&mut rng);
        sim.opinion_counts_into(&mut opinions);
        let event = classify(
            (
                dynamics.output(interaction.initiator_before),
                dynamics.output(interaction.initiator_after),
            ),
            (
                dynamics.output(interaction.responder_before),
                dynamics.output(interaction.responder_after),
            ),
        );
        reference.record(event, &opinions, 1);
    }
}

fn bridged_reference(scenario: &Scenario, seed: u64) -> End {
    let mut reference = Reference::new(scenario);
    if let Some(reason) = reference.stop_reason() {
        return reference.finish(reason);
    }
    let initial = scenario.initial().counts();
    if initial.iter().sum::<u64>() < 2 {
        return reference.finish(StopReason::Absorbed);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut walk = BridgedConversionWalk::new(initial);
    loop {
        if let Some(reason) = reference.stop_reason() {
            return reference.finish(reason);
        }
        if walk.is_absorbed() {
            return reference.finish(StopReason::Absorbed);
        }
        let step = walk.advance(&mut rng, reference.budget());
        let event = match step {
            BridgeStep::Exact {
                fired: 1,
                attacker,
                victim,
            } => Some(PopulationEvent::Interspecific { attacker, victim }),
            _ => None,
        };
        reference.record(event, walk.counts(), step.fired());
    }
}

fn backend_end(name: &str, scenario: &Scenario, seed: u64) -> End {
    let report = backend(name)
        .unwrap()
        .run(scenario, &mut StdRng::seed_from_u64(seed));
    End {
        counts: report.final_state.counts().to_vec(),
        events: report.events,
        steps: report.steps,
        time: report.time,
        reason: report.reason,
        classes: report.event_counts().expect("the scenario observes events"),
    }
}

/// The stop rules every start runs under: the backends' usual "a species
/// died out" rule under an event budget, an integral and a half-integral
/// time budget, and no state rule at all (so tiny and inert starts reach
/// the absorption exits).
fn stops(species: usize) -> Vec<StopCondition> {
    let until = if species == 2 {
        StopCondition::any_species_extinct()
    } else {
        StopCondition::consensus()
    };
    vec![
        until.clone().with_max_events(2_500),
        until.clone().with_max_time(1_800.0),
        until.clone().with_max_time(1_200.5),
        until.with_max_events(20_000_000),
        StopCondition::never().with_max_events(200_000),
    ]
}

fn scenarios(species: usize, starts: &[Vec<u64>]) -> Vec<Scenario> {
    let mut out = Vec::new();
    for start in starts {
        for stop in stops(species) {
            let scenario = if species == 2 {
                Scenario::new(LvModel::default(), (start[0], start[1]))
            } else {
                let model = MultiLvModel::symmetric(
                    CompetitionKind::SelfDestructive,
                    species,
                    1.0,
                    1.0,
                    1.0,
                );
                Scenario::new(model, start.clone())
            };
            out.push(scenario.with_stop(stop).observe(ObserverSpec::EventCounts));
        }
    }
    out
}

/// Two-species starts below two agents, below and above the epoch
/// threshold, tied and untied.
fn two_species_starts() -> Vec<Vec<u64>> {
    vec![
        vec![1, 0],
        vec![0, 1],
        vec![30, 20],
        vec![25, 25],
        vec![180, 120],
        vec![160, 160],
        vec![700, 500],
    ]
}

fn three_species_starts() -> Vec<Vec<u64>> {
    vec![vec![1, 0, 0], vec![20, 15, 10], vec![150, 100, 90]]
}

/// Runs every scenario on a few seeds through the backend and its
/// reference loop, and checks the runs between them end for every reason a
/// run can end for.
fn assert_matches(name: &str, scenarios: &[Scenario], reference: impl Fn(&Scenario, u64) -> End) {
    let mut reasons = Vec::new();
    for scenario in scenarios {
        for seed in 0..4u64 {
            let end = reference(scenario, seed);
            assert_eq!(
                backend_end(name, scenario, seed),
                end,
                "{name} diverged from its reference loop at seed {seed}, start {:?}, stop {:?}",
                scenario.initial().counts(),
                scenario.stop()
            );
            reasons.push(end.reason);
        }
    }
    for reason in [
        StopReason::ConditionMet,
        StopReason::MaxEventsReached,
        StopReason::MaxTimeReached,
        StopReason::Absorbed,
    ] {
        assert!(reasons.contains(&reason), "{name}: no run ended {reason:?}");
    }
}

#[test]
fn counted_backends_match_a_direct_counted_simulation_loop_bit_for_bit() {
    let two = scenarios(2, &two_species_starts());
    for (name, dynamics) in [
        (
            "approx-majority",
            CountedDynamics::from_protocol(&ApproximateMajority::new()),
        ),
        (
            "exact-majority",
            CountedDynamics::from_protocol(&ExactMajority4State::new()),
        ),
        (
            "czyzowicz-lv",
            CountedDynamics::from_protocol(&CzyzowiczLvProtocol::new()),
        ),
        (
            "annihilation-lv",
            CountedDynamics::from_protocol(&SelfDestructiveLvProtocol::new()),
        ),
    ] {
        assert_matches(name, &two, |scenario, seed| {
            counted_reference(&dynamics, scenario, seed)
        });
    }
    let three = scenarios(3, &three_species_starts());
    let dynamics = CountedDynamics::k_opinion_czyzowicz(3);
    assert_matches("czyzowicz-lv-k", &three, |scenario, seed| {
        counted_reference(&dynamics, scenario, seed)
    });
}

#[test]
fn bridged_backends_match_a_direct_bridged_walk_loop_bit_for_bit() {
    let mut two_starts = two_species_starts();
    two_starts.push(vec![6_000, 4_000]);
    assert_matches(
        "czyzowicz-lv-bridged",
        &scenarios(2, &two_starts),
        bridged_reference,
    );
    let mut three_starts = three_species_starts();
    three_starts.push(vec![4_000, 3_500, 2_500]);
    assert_matches(
        "czyzowicz-lv-k-bridged",
        &scenarios(3, &three_starts),
        bridged_reference,
    );
}
