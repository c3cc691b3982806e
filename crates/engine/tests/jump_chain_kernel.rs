//! The `jump-chain` backend's two-species path runs the fused
//! `lv_lotka::run_jump_chain` kernel, which evaluates the stop condition and
//! tallies every observation inside its own loop. This property test holds
//! it to a plain reference: a loop over `LvJumpChain::step` that checks the
//! stop condition (written out from its definition), the event budget and
//! the time budget in the engine's usual order and computes each
//! observation from its definition.

use lv_crn::{SpeciesId, State, StopCondition, StopReason};
use lv_engine::{
    backend, EventCounts, NoiseObservation, Observation, ObserverSpec, RunReport, Scenario,
};
use lv_lotka::{
    CompetitionKind, LvConfiguration, LvJumpChain, LvModel, NoiseDecomposition, Population,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SPECS: [ObserverSpec; 4] = [
    ObserverSpec::GapTrajectory,
    ObserverSpec::NoiseDecomposition,
    ObserverSpec::EventCounts,
    ObserverSpec::MaxPopulation,
];

fn model(index: u64, beta: f64, delta: f64, alpha: f64) -> LvModel {
    let kind = if index.is_multiple_of(2) {
        CompetitionKind::SelfDestructive
    } else {
        CompetitionKind::NonSelfDestructive
    };
    match index / 2 {
        0 => LvModel::neutral(kind, beta, delta, alpha),
        1 => LvModel::with_intraspecific(kind, beta, delta, alpha, alpha / 2.0),
        _ => LvModel::balanced_intra_inter(kind, beta, delta, alpha),
    }
}

fn stop(index: u64, knob: u64) -> StopCondition {
    match index {
        0 => StopCondition::consensus().with_max_events(knob * 40),
        1 => StopCondition::any_species_extinct().with_max_events(100_000),
        2 => StopCondition::total_at_least(knob).or(StopCondition::consensus()),
        3 => StopCondition::predicate(move |s: &State| s.count(SpeciesId::new(1)) >= knob)
            .or(StopCondition::any_species_extinct()),
        4 => StopCondition::never().with_max_events(knob),
        _ => StopCondition::never()
            .with_max_time(knob as f64 / 2.0)
            .or(StopCondition::total_extinction()),
    }
}

/// The state part of `stop(index, knob)`, written out from its
/// definition.
fn met(index: u64, knob: u64, x0: u64, x1: u64) -> bool {
    let extinct = x0 == 0 || x1 == 0;
    match index {
        0 | 1 => extinct,
        2 => x0 + x1 >= knob || extinct,
        3 => x1 >= knob || extinct,
        4 => false,
        _ => x0 + x1 == 0,
    }
}

/// Observer specs picked by the bits of `mask`, in an order rotated by
/// `rotation`.
fn observers(mask: u64, rotation: usize) -> Vec<ObserverSpec> {
    (0..SPECS.len())
        .map(|i| (i + rotation) % SPECS.len())
        .filter(|&i| mask & (1 << i) != 0)
        .map(|i| SPECS[i])
        .collect()
}

/// The reference: one `LvJumpChain::step` per event, everything else
/// recomputed from the definitions.
fn reference(
    scenario: &Scenario,
    model: LvModel,
    initial: LvConfiguration,
    (stop_index, knob): (u64, u64),
    seed: u64,
) -> RunReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let stop = scenario.stop();
    let margin = |c: LvConfiguration| {
        let (x0, x1) = c.counts();
        // Relative to the initial majority, species 0 on a tie.
        if initial.counts().1 > initial.counts().0 {
            x1 as i64 - x0 as i64
        } else {
            x0 as i64 - x1 as i64
        }
    };
    let mut chain = LvJumpChain::new(model, initial);
    let mut trajectory = vec![margin(initial)];
    let mut noise = NoiseDecomposition::default();
    let mut counts = EventCounts::default();
    let mut max_population = initial.total();
    let mut events = 0u64;
    let reason = loop {
        let before = chain.state();
        let (x0, x1) = before.counts();
        if met(stop_index, knob, x0, x1) {
            break StopReason::ConditionMet;
        }
        if stop.max_events().is_some_and(|max| events >= max) {
            break StopReason::MaxEventsReached;
        }
        if stop.max_time().is_some_and(|max| events as f64 >= max) {
            break StopReason::MaxTimeReached;
        }
        let Some(event) = chain.step(&mut rng) else {
            break StopReason::Absorbed;
        };
        events += 1;
        let after = chain.state();
        let f_t = margin(before) - margin(after);
        if event.is_individual() {
            counts.individual += 1;
            noise.individual += f_t;
            if margin(after).abs() < margin(before).abs() {
                counts.bad_noncompetitive += 1;
            }
        } else {
            counts.competitive += 1;
            noise.competitive += f_t;
        }
        max_population = max_population.max(after.total());
        trajectory.push(margin(after));
    };
    let observations = scenario
        .observers()
        .iter()
        .map(|&spec| {
            let observation = match spec {
                ObserverSpec::GapTrajectory => Observation::GapTrajectory(trajectory.clone()),
                ObserverSpec::NoiseDecomposition => Observation::Noise(NoiseObservation {
                    classified: noise,
                    unclassified: 0,
                }),
                ObserverSpec::EventCounts => Observation::Events(counts),
                ObserverSpec::MaxPopulation => Observation::MaxPopulation(max_population),
            };
            (spec, observation)
        })
        .collect();
    let (x0, x1) = chain.state().counts();
    RunReport::new(
        "jump-chain",
        scenario.initial().clone(),
        Population::new(vec![x0, x1]),
        reason,
        events,
        events,
        events as f64,
        observations,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn backend_reports_equal_the_reference_loop(
        (a, b) in (0u64..60, 0u64..60),
        seed in 0u64..1_000_000,
        (model_index, beta, delta, alpha) in (0u64..6, 0.0f64..2.0, 0.0f64..2.0, 0.0f64..3.0),
        (stop_index, knob) in (0u64..6, 1u64..120),
        (mask, rotation) in (0u64..16, 0usize..4),
    ) {
        let model = model(model_index, beta, delta, alpha);
        let mut scenario = Scenario::new(model, (a, b)).with_stop(stop(stop_index, knob));
        for spec in observers(mask, rotation) {
            scenario = scenario.observe(spec);
        }
        let report = backend("jump-chain").unwrap().run(&scenario, &mut StdRng::seed_from_u64(seed));
        let initial = LvConfiguration::new(a, b);
        let expected = reference(&scenario, model, initial, (stop_index, knob), seed);
        prop_assert_eq!(report, expected, "model {} stop {} knob {}", model_index, stop_index, knob);
    }
}
