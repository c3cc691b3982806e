use crate::config::LvConfiguration;
use crate::jump_chain::LvJumpChain;
use crate::model::LvModel;
use crate::rates::SpeciesIndex;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The decomposition of the paper's demographic-noise variable
/// `F = Σ_{t=1}^{T(S)} F_t` with `F_t = ∆_{t−1} − ∆_t` (Eq. 3), split into the
/// contribution of individual reactions (`F_ind`) and competition reactions
/// (`F_comp`) as in Section 1.5.
///
/// `∆_t` is the count of the *initial majority* species minus the count of
/// the *initial minority* species, so positive `F` means the noise moved the
/// system towards the initial minority. The chain reaches majority consensus
/// iff `F < ∆_0` (given that consensus is reached at all).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoiseDecomposition {
    /// Noise from individual (birth/death) reactions, the paper's `F_ind`.
    pub individual: i64,
    /// Noise from competitive reactions, the paper's `F_comp`. Always zero
    /// under self-destructive competition without intraspecific competition.
    pub competitive: i64,
}

impl NoiseDecomposition {
    /// The total noise `F = F_ind + F_comp`.
    pub fn total(&self) -> i64 {
        self.individual + self.competitive
    }
}

/// All observables of one majority-consensus run of the jump chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MajorityOutcome {
    /// The initial configuration `(a, b)`.
    pub initial: LvConfiguration,
    /// The final configuration when the run stopped.
    pub final_state: LvConfiguration,
    /// The initial majority species (`None` if the run started from a tie).
    pub initial_majority: Option<SpeciesIndex>,
    /// The winning species, if consensus was reached with a positive count.
    pub winner: Option<SpeciesIndex>,
    /// Whether consensus (some species extinct) was reached within the budget.
    pub consensus_reached: bool,
    /// Whether the run exhausted its event budget before consensus.
    pub truncated: bool,
    /// The consensus time `T(S)`: number of reactions until consensus (equal
    /// to the event budget if truncated).
    pub events: u64,
    /// Number of individual (birth/death) reactions, the paper's `I(S)`.
    pub individual_events: u64,
    /// Number of competitive reactions, the paper's `K(S)`.
    pub competitive_events: u64,
    /// Number of *bad non-competitive* reactions — individual reactions that
    /// decreased the absolute gap between the current majority and minority —
    /// the paper's `J(S)`.
    pub bad_noncompetitive_events: u64,
    /// The demographic-noise decomposition `F = F_ind + F_comp`.
    pub noise: NoiseDecomposition,
    /// The largest total population observed during the run.
    pub max_population: u64,
}

impl MajorityOutcome {
    /// Whether the run reached *majority consensus*: consensus was reached and
    /// the initial majority species is the winner.
    pub fn majority_won(&self) -> bool {
        self.consensus_reached
            && self.initial_majority.is_some()
            && self.winner == self.initial_majority
    }
}

/// Runs the jump chain of `model` from the configuration `(a, b)` until
/// consensus, collecting every observable the paper analyses.
///
/// By the paper's convention the first species is the initial majority, i.e.
/// callers normally pass `a ≥ b`; the function works for any `a, b` and
/// records the actual initial majority in the outcome.
///
/// `max_events` bounds the run; by Theorem 13 consensus takes `O(n)` events
/// with high probability for models with interspecific competition, so a
/// budget of a small multiple of `a + b` is usually ample. If the budget is
/// exhausted the outcome has `truncated = true` and `consensus_reached =
/// false`.
pub fn run_majority<R: Rng + ?Sized>(
    model: &LvModel,
    a: u64,
    b: u64,
    rng: &mut R,
    max_events: u64,
) -> MajorityOutcome {
    run_to_consensus(model, a, b, rng, max_events, None)
}

/// Like [`run_majority`], but additionally records the gap trajectory
/// `∆_0, ∆_1, …` (one entry per event, relative to the initial majority
/// species), returned alongside the outcome.
pub fn run_majority_with_trajectory<R: Rng + ?Sized>(
    model: &LvModel,
    a: u64,
    b: u64,
    rng: &mut R,
    max_events: u64,
) -> (MajorityOutcome, Vec<i64>) {
    let mut trajectory = Vec::new();
    let outcome = run_to_consensus(model, a, b, rng, max_events, Some(&mut trajectory));
    (outcome, trajectory)
}

fn run_to_consensus<R: Rng + ?Sized>(
    model: &LvModel,
    a: u64,
    b: u64,
    rng: &mut R,
    max_events: u64,
    trajectory: Option<&mut Vec<i64>>,
) -> MajorityOutcome {
    let initial = LvConfiguration::new(a, b);
    let (mut outcome, truncated) =
        run_jump_chain(model, initial, rng, trajectory, |counts, events| {
            if counts.contains(&0) {
                Some(false)
            } else {
                (events >= max_events).then_some(true)
            }
        });
    outcome.truncated = truncated.unwrap_or(false);
    outcome
}

/// The fused two-species jump-chain kernel behind [`run_majority`] and the
/// engine's `jump-chain` backend: steps an [`LvJumpChain`] from `initial`
/// and tallies every majority observable in the same loop — the event
/// counts `I`/`K`/`J`, the noise split `F_ind`/`F_comp`, the largest
/// population and, when `trajectory` is given, the gap `∆_t` after every
/// event (preceded by `∆_0`), all relative to the initial majority (species
/// 0 on a tie).
///
/// Before every step — the first included — `check` sees the counts and the
/// number of events so far; the run stops on its first verdict. The kernel
/// returns the outcome together with that verdict, or `None` when the chain
/// was absorbed first. The outcome's `consensus_reached` and `winner` are
/// read off the final state; `truncated` is left `false` for the caller to
/// set from the verdict.
pub fn run_jump_chain<R, V>(
    model: &LvModel,
    initial: LvConfiguration,
    rng: &mut R,
    mut trajectory: Option<&mut Vec<i64>>,
    mut check: impl FnMut(&[u64; 2], u64) -> Option<V>,
) -> (MajorityOutcome, Option<V>)
where
    R: Rng + ?Sized,
{
    let initial_majority = initial.majority();
    // Sign with which the raw gap x0 − x1 is converted to the paper's ∆
    // (count of initial majority minus count of initial minority). For a tie
    // we use species 0 as the reference, matching the paper's convention that
    // the first species is the majority.
    let sign: i64 = match initial_majority {
        Some(SpeciesIndex::One) => -1,
        _ => 1,
    };
    let mut outcome = MajorityOutcome {
        initial,
        final_state: initial,
        initial_majority,
        winner: None,
        consensus_reached: false,
        truncated: false,
        events: 0,
        individual_events: 0,
        competitive_events: 0,
        bad_noncompetitive_events: 0,
        noise: NoiseDecomposition::default(),
        max_population: initial.total(),
    };
    let mut delta_prev = sign * initial.gap();
    if let Some(t) = trajectory.as_deref_mut() {
        t.push(delta_prev);
    }
    let mut chain = LvJumpChain::new(*model, initial);
    let verdict = loop {
        let before = chain.state();
        let (x0, x1) = before.counts();
        if let Some(verdict) = check(&[x0, x1], outcome.events) {
            break Some(verdict);
        }
        let Some(event) = chain.step(rng) else {
            break None;
        };
        outcome.events += 1;
        let state = chain.state();
        outcome.max_population = outcome.max_population.max(state.total());

        let delta_now = sign * state.gap();
        let f_t = delta_prev - delta_now;
        delta_prev = delta_now;
        if event.is_individual() {
            outcome.individual_events += 1;
            outcome.noise.individual += f_t;
            if state.gap().abs() < before.gap().abs() {
                outcome.bad_noncompetitive_events += 1;
            }
        } else {
            outcome.competitive_events += 1;
            outcome.noise.competitive += f_t;
        }
        if let Some(t) = trajectory.as_deref_mut() {
            t.push(delta_now);
        }
    };

    let last = chain.state();
    outcome.final_state = last;
    outcome.consensus_reached = last.is_consensus();
    outcome.winner = last.winner();
    (outcome, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::CompetitionKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn consensus_is_reached_and_winner_reported() {
        let model = LvModel::default();
        let outcome = run_majority(&model, 200, 100, &mut rng(1), 10_000_000);
        assert!(outcome.consensus_reached);
        assert!(!outcome.truncated);
        assert!(outcome.winner.is_some());
        assert_eq!(outcome.initial_majority, Some(SpeciesIndex::Zero));
        assert_eq!(
            outcome.events,
            outcome.individual_events + outcome.competitive_events
        );
        assert!(outcome.final_state.is_consensus());
    }

    #[test]
    fn starting_at_consensus_returns_immediately() {
        let model = LvModel::default();
        let outcome = run_majority(&model, 10, 0, &mut rng(2), 100);
        assert!(outcome.consensus_reached);
        assert_eq!(outcome.events, 0);
        assert_eq!(outcome.winner, Some(SpeciesIndex::Zero));
        assert!(outcome.majority_won());
    }

    #[test]
    fn truncated_run_is_flagged() {
        let model = LvModel::default();
        let outcome = run_majority(&model, 5_000, 4_990, &mut rng(3), 10);
        assert!(outcome.truncated);
        assert!(!outcome.consensus_reached);
        assert_eq!(outcome.events, 10);
        assert!(!outcome.majority_won());
    }

    #[test]
    fn noise_equals_initial_gap_minus_final_gap() {
        // Telescoping: F = ∆_0 − ∆_T, so when the majority (species 0) wins,
        // F = ∆_0 − x_final and when the minority wins F = ∆_0 + y_final.
        let model = LvModel::default();
        for seed in 0..20 {
            let outcome = run_majority(&model, 60, 40, &mut rng(100 + seed), 10_000_000);
            assert!(outcome.consensus_reached);
            let delta0 = 20i64;
            let (x, y) = outcome.final_state.counts();
            let delta_final = x as i64 - y as i64;
            assert_eq!(outcome.noise.total(), delta0 - delta_final);
        }
    }

    #[test]
    fn self_destructive_competition_has_zero_competitive_noise() {
        // Section 6: under self-destructive competition (γ = 0) competition
        // events never change the gap, so F_comp = 0.
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        for seed in 0..10 {
            let outcome = run_majority(&model, 150, 120, &mut rng(seed), 10_000_000);
            assert!(outcome.consensus_reached);
            assert_eq!(outcome.noise.competitive, 0);
        }
    }

    #[test]
    fn non_self_destructive_competition_has_competitive_noise() {
        let model = LvModel::neutral(CompetitionKind::NonSelfDestructive, 1.0, 1.0, 1.0);
        let mut any_nonzero = false;
        for seed in 0..10 {
            let outcome = run_majority(&model, 150, 120, &mut rng(seed), 10_000_000);
            assert!(outcome.consensus_reached);
            if outcome.noise.competitive != 0 {
                any_nonzero = true;
            }
        }
        assert!(any_nonzero, "competitive noise never appeared over 10 runs");
    }

    #[test]
    fn trajectory_starts_at_gap_and_ends_at_final_gap() {
        let model = LvModel::default();
        let (outcome, trajectory) =
            run_majority_with_trajectory(&model, 50, 30, &mut rng(7), 10_000_000);
        assert_eq!(trajectory.first(), Some(&20));
        assert_eq!(trajectory.len() as u64, outcome.events + 1);
        let (x, y) = outcome.final_state.counts();
        assert_eq!(*trajectory.last().unwrap(), x as i64 - y as i64);
    }

    #[test]
    fn minority_start_is_handled_symmetrically() {
        // Passing b > a makes species 1 the initial majority; ∆ is measured
        // relative to it.
        let model = LvModel::default();
        let outcome = run_majority(&model, 40, 400, &mut rng(8), 10_000_000);
        assert_eq!(outcome.initial_majority, Some(SpeciesIndex::One));
        assert!(outcome.consensus_reached);
        // With a factor-10 gap the initial majority almost surely wins.
        assert!(outcome.majority_won());
    }

    #[test]
    fn bad_events_never_exceed_individual_events() {
        let model = LvModel::default();
        for seed in 0..10 {
            let outcome = run_majority(&model, 80, 60, &mut rng(200 + seed), 10_000_000);
            assert!(outcome.bad_noncompetitive_events <= outcome.individual_events);
        }
    }

    #[test]
    fn tie_start_records_no_initial_majority() {
        let model = LvModel::default();
        let outcome = run_majority(&model, 25, 25, &mut rng(9), 10_000_000);
        assert_eq!(outcome.initial_majority, None);
        assert!(!outcome.majority_won());
    }
}
