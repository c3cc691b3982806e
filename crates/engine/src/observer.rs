//! The composable observer API.
//!
//! A [`Scenario`](crate::Scenario) carries a set of [`ObserverSpec`]s; every
//! backend builds one [`Observer`] per spec per run, feeds it a
//! [`StepRecord`] after every simulated step, and collects one
//! [`Observation`] from each observer when the run stops. What used to be the
//! hard-coded field collection of `lv_lotka::run_majority` is now the four
//! built-in observers — gap trajectory, noise decomposition, event counts and
//! max population — and `MajorityOutcome`/`PluralityOutcome` are *derived
//! views* assembled from their observations (see
//! [`RunReport::to_majority_outcome`] and [`RunReport::to_plurality_outcome`]).
//!
//! All observers are defined over `k`-species populations: the paper's
//! signed gap `∆_t` generalises to the *plurality margin* of the initial
//! leader (its count minus the best other count, see
//! [`lv_lotka::margin_of`]), which coincides with `∆_t` for `k = 2`.
//!
//! [`RunReport::to_majority_outcome`]: crate::RunReport::to_majority_outcome
//! [`RunReport::to_plurality_outcome`]: crate::RunReport::to_plurality_outcome

use lv_lotka::{margin_of, EventKind, NoiseDecomposition, Population, PopulationEvent};
use serde::{Deserialize, Serialize};

/// One simulated step as seen by observers.
///
/// Exact per-event backends produce one record per reaction with
/// `event = Some(..)` and `firings = 1`. Aggregating backends (tau-leaping
/// leaps, ODE integration steps) produce one record per *step* with
/// `event = None` and `firings` equal to the number of reaction firings the
/// step represents (0 for the ODE). The count slices are borrowed from the
/// run's and the backend's buffers, so recording a step never allocates
/// regardless of `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord<'a> {
    /// The reaction that fired, when the backend resolves individual events.
    pub event: Option<PopulationEvent>,
    /// Species counts before the step.
    pub before: &'a [u64],
    /// Species counts after the step.
    pub after: &'a [u64],
    /// The backend clock after the step (continuous time for Gillespie-style
    /// backends and the ODE, the event count for the jump chain).
    pub time: f64,
    /// Number of reaction firings this record represents.
    pub firings: u64,
}

/// A streaming statistic computed along a run.
///
/// Observers are built per run from an [`ObserverSpec`], receive every
/// [`StepRecord`], and emit their [`Observation`] when the run stops.
pub trait Observer {
    /// Called once with the initial population before any step.
    fn on_start(&mut self, initial: &Population);

    /// Called after every simulated step.
    fn on_step(&mut self, step: &StepRecord<'_>);

    /// Consumes the accumulated state into the final observation.
    fn finish(&mut self) -> Observation;
}

/// The declarative description of an observer inside a scenario.
///
/// Specs are plain data so a [`Scenario`](crate::Scenario) stays cloneable
/// and shareable across threads; each backend run instantiates fresh observer
/// state from the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObserverSpec {
    /// Record the signed plurality margin `∆_t` of the *initial* leader
    /// after every step, plus the initial margin. For `k = 2` this is the
    /// paper's signed gap (majority minus minority, relative to the initial
    /// majority).
    GapTrajectory,
    /// Accumulate the demographic-noise decomposition `F = F_ind + F_comp`
    /// of Eq. (3)/(7), over the margin of the initial leader.
    NoiseDecomposition,
    /// Count individual, competitive and *bad non-competitive* events (the
    /// paper's `I(S)`, `K(S)`, `J(S)`).
    EventCounts,
    /// Track the largest total population seen during the run.
    MaxPopulation,
}

impl ObserverSpec {
    /// Instantiates the observer for one run.
    pub fn build(&self) -> Box<dyn Observer> {
        match self {
            ObserverSpec::GapTrajectory => Box::new(GapTrajectoryObserver::default()),
            ObserverSpec::NoiseDecomposition => Box::new(NoiseObserver::default()),
            ObserverSpec::EventCounts => Box::new(EventCountObserver::default()),
            ObserverSpec::MaxPopulation => Box::new(MaxPopulationObserver::default()),
        }
    }
}

/// The value an [`Observer`] produced for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Observation {
    /// Signed margin after every step (first entry: the initial margin).
    GapTrajectory(Vec<i64>),
    /// The demographic-noise decomposition.
    Noise(NoiseObservation),
    /// Event-class counters.
    Events(EventCounts),
    /// Largest total population observed.
    MaxPopulation(u64),
}

/// Demographic noise collected by [`ObserverSpec::NoiseDecomposition`].
///
/// Per-event backends classify every contribution into
/// [`NoiseObservation::classified`] (the paper's `F = F_ind + F_comp`).
/// Aggregating backends (tau-leaping leaps with several firings) cannot
/// attribute a step's margin change to an event class; that noise is reported
/// separately in [`NoiseObservation::unclassified`] rather than silently
/// folded into either component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoiseObservation {
    /// Noise from steps with a resolved event, split by event kind.
    pub classified: NoiseDecomposition,
    /// Noise from unresolved (multi-firing) steps.
    pub unclassified: i64,
}

impl NoiseObservation {
    /// The total noise `F` including unclassified contributions; by the
    /// telescoping identity this always equals `∆_0 − ∆_T`.
    pub fn total(&self) -> i64 {
        self.classified.total() + self.unclassified
    }
}

/// Event-class counters collected by [`ObserverSpec::EventCounts`].
///
/// For aggregating backends the per-class split is unavailable; firings of
/// unresolved steps are counted in [`EventCounts::unclassified`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// Individual (birth/death) reactions, the paper's `I(S)`.
    pub individual: u64,
    /// Competitive reactions, the paper's `K(S)`.
    pub competitive: u64,
    /// Individual reactions that decreased the absolute margin, the paper's
    /// `J(S)`.
    pub bad_noncompetitive: u64,
    /// Firings inside steps whose events the backend did not resolve
    /// (tau-leaping leaps with more than one firing).
    pub unclassified: u64,
}

impl EventCounts {
    /// Total number of classified firings.
    pub fn classified(&self) -> u64 {
        self.individual + self.competitive
    }
}

/// The reference species the paper's `∆` is measured against: the initial
/// plurality leader (species 0 on a tie, matching the paper's convention
/// that the first species is the majority).
fn reference_species(initial: &Population) -> usize {
    initial.leader().unwrap_or(0)
}

#[derive(Debug, Default)]
struct GapTrajectoryObserver {
    reference: usize,
    trajectory: Vec<i64>,
}

impl Observer for GapTrajectoryObserver {
    fn on_start(&mut self, initial: &Population) {
        self.reference = reference_species(initial);
        self.trajectory
            .push(initial.margin_relative_to(self.reference));
    }

    fn on_step(&mut self, step: &StepRecord<'_>) {
        self.trajectory.push(margin_of(step.after, self.reference));
    }

    fn finish(&mut self) -> Observation {
        Observation::GapTrajectory(std::mem::take(&mut self.trajectory))
    }
}

#[derive(Debug, Default)]
struct NoiseObserver {
    reference: usize,
    noise: NoiseObservation,
}

impl Observer for NoiseObserver {
    fn on_start(&mut self, initial: &Population) {
        self.reference = reference_species(initial);
    }

    fn on_step(&mut self, step: &StepRecord<'_>) {
        let f_t = margin_of(step.before, self.reference) - margin_of(step.after, self.reference);
        match step.event.map(|e| e.kind()) {
            Some(EventKind::Competitive) => self.noise.classified.competitive += f_t,
            Some(EventKind::Individual) => self.noise.classified.individual += f_t,
            // An unresolved leap mixes event classes; attributing its noise
            // to either component would corrupt the `F_ind`/`F_comp` split
            // (e.g. fabricate `F_comp = 0` for non-self-destructive models),
            // so it is tracked separately.
            None => self.noise.unclassified += f_t,
        }
    }

    fn finish(&mut self) -> Observation {
        Observation::Noise(self.noise)
    }
}

#[derive(Debug, Default)]
struct EventCountObserver {
    reference: usize,
    counts: EventCounts,
}

impl Observer for EventCountObserver {
    fn on_start(&mut self, initial: &Population) {
        self.reference = reference_species(initial);
    }

    fn on_step(&mut self, step: &StepRecord<'_>) {
        match step.event.map(|e| e.kind()) {
            Some(EventKind::Individual) => {
                self.counts.individual += 1;
                if margin_of(step.after, self.reference).abs()
                    < margin_of(step.before, self.reference).abs()
                {
                    self.counts.bad_noncompetitive += 1;
                }
            }
            Some(EventKind::Competitive) => self.counts.competitive += 1,
            None => self.counts.unclassified += step.firings,
        }
    }

    fn finish(&mut self) -> Observation {
        Observation::Events(self.counts)
    }
}

#[derive(Debug, Default)]
struct MaxPopulationObserver {
    max: u64,
}

impl Observer for MaxPopulationObserver {
    fn on_start(&mut self, initial: &Population) {
        self.max = initial.total();
    }

    fn on_step(&mut self, step: &StepRecord<'_>) {
        self.max = self.max.max(step.after.iter().sum());
    }

    fn finish(&mut self) -> Observation {
        Observation::MaxPopulation(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_lotka::{LvEvent, SpeciesIndex};

    fn record<'a>(
        event: Option<PopulationEvent>,
        before: &'a [u64],
        after: &'a [u64],
        firings: u64,
    ) -> StepRecord<'a> {
        StepRecord {
            event,
            before,
            after,
            time: 0.0,
            firings,
        }
    }

    fn pop(counts: &[u64]) -> Population {
        Population::from(counts)
    }

    #[test]
    fn gap_trajectory_is_relative_to_initial_majority() {
        // Species 1 is the initial majority, so ∆ = x1 − x0.
        let mut obs = ObserverSpec::GapTrajectory.build();
        obs.on_start(&pop(&[3, 5]));
        obs.on_step(&record(
            Some(PopulationEvent::Birth(0)),
            &[3, 5],
            &[4, 5],
            1,
        ));
        assert_eq!(obs.finish(), Observation::GapTrajectory(vec![2, 1]));
    }

    #[test]
    fn gap_trajectory_tracks_the_initial_leader_for_three_species() {
        // Species 2 leads initially; ∆ = x2 − max(x0, x1).
        let mut obs = ObserverSpec::GapTrajectory.build();
        obs.on_start(&pop(&[3, 1, 5]));
        obs.on_step(&record(
            Some(PopulationEvent::Birth(0)),
            &[3, 1, 5],
            &[4, 1, 5],
            1,
        ));
        obs.on_step(&record(
            Some(PopulationEvent::Interspecific {
                attacker: 0,
                victim: 2,
            }),
            &[4, 1, 5],
            &[3, 1, 4],
            1,
        ));
        assert_eq!(obs.finish(), Observation::GapTrajectory(vec![2, 1, 1]));
    }

    #[test]
    fn noise_splits_by_event_kind() {
        let mut obs = ObserverSpec::NoiseDecomposition.build();
        obs.on_start(&pop(&[6, 4]));
        // Individual death of the majority: ∆ 2 → 1, F_ind += 1.
        obs.on_step(&record(
            Some(LvEvent::Death(SpeciesIndex::Zero).into()),
            &[6, 4],
            &[5, 4],
            1,
        ));
        // Intraspecific competition in species 0 (self-destructive): ∆ 1 → −1.
        obs.on_step(&record(
            Some(LvEvent::Intraspecific(SpeciesIndex::Zero).into()),
            &[5, 4],
            &[3, 4],
            1,
        ));
        match obs.finish() {
            Observation::Noise(noise) => {
                assert_eq!(noise.classified.individual, 1);
                assert_eq!(noise.classified.competitive, 2);
                assert_eq!(noise.total(), 3);
            }
            other => panic!("unexpected observation {other:?}"),
        }
    }

    #[test]
    fn unresolved_leap_noise_is_tracked_separately() {
        let mut obs = ObserverSpec::NoiseDecomposition.build();
        obs.on_start(&pop(&[6, 4]));
        // An unresolved multi-firing leap that moves the gap 2 → 1.
        obs.on_step(&record(None, &[6, 4], &[5, 4], 3));
        match obs.finish() {
            Observation::Noise(noise) => {
                assert_eq!(noise.classified, NoiseDecomposition::default());
                assert_eq!(noise.unclassified, 1);
                assert_eq!(noise.total(), 1);
            }
            other => panic!("unexpected observation {other:?}"),
        }
    }

    #[test]
    fn event_counts_classify_bad_events_and_leaps() {
        let mut obs = ObserverSpec::EventCounts.build();
        obs.on_start(&pop(&[5, 4]));
        // A bad individual event: |∆| decreases.
        obs.on_step(&record(
            Some(PopulationEvent::Death(0)),
            &[5, 4],
            &[4, 4],
            1,
        ));
        // A competitive event.
        obs.on_step(&record(
            Some(PopulationEvent::Interspecific {
                attacker: 0,
                victim: 1,
            }),
            &[4, 4],
            &[3, 3],
            1,
        ));
        // An unresolved leap worth five firings.
        obs.on_step(&record(None, &[3, 3], &[2, 1], 5));
        match obs.finish() {
            Observation::Events(counts) => {
                assert_eq!(counts.individual, 1);
                assert_eq!(counts.bad_noncompetitive, 1);
                assert_eq!(counts.competitive, 1);
                assert_eq!(counts.unclassified, 5);
                assert_eq!(counts.classified(), 2);
            }
            other => panic!("unexpected observation {other:?}"),
        }
    }

    #[test]
    fn max_population_tracks_the_peak() {
        let mut obs = ObserverSpec::MaxPopulation.build();
        obs.on_start(&pop(&[5, 5]));
        obs.on_step(&record(None, &[5, 5], &[9, 9], 8));
        obs.on_step(&record(None, &[9, 9], &[2, 2], 14));
        assert_eq!(obs.finish(), Observation::MaxPopulation(18));
    }
}
