//! # lv-lotka — two-species competitive Lotka–Volterra models and majority consensus
//!
//! This crate is the core of the reproduction of *“Majority consensus
//! thresholds in competitive Lotka–Volterra populations”* (Függer, Nowak,
//! Rybicki; PODC 2024). It implements the two stochastic models of
//! Section 1.3 and every majority-consensus observable the paper analyses.
//!
//! ## The models
//!
//! Both models have two species `X_0`, `X_1` with per-capita birth rate `β`,
//! per-capita death rate `δ`, interspecific interference competition rates
//! `α_0, α_1` and intraspecific competition rates `γ_0, γ_1`:
//!
//! * **Self-destructive competition** (Eq. 1): a competitive encounter kills
//!   *both* participants — `X_i + X_{1−i} → ∅`, `X_i + X_i → ∅`.
//! * **Non-self-destructive competition** (Eq. 2): only the victim dies —
//!   `X_i + X_{1−i} → X_i`, `X_i + X_i → X_i`.
//!
//! [`LvModel`] describes a model (competition kind + [`LvRates`]) and provides
//! named constructors for every regime in Table 1 of the paper, a conversion
//! to a general chemical reaction network ([`LvModel::to_reaction_network`])
//! and the dominating birth–death chain of Section 5.2
//! ([`LvModel::dominating_chain`]).
//!
//! ## The observables
//!
//! [`run_majority`] simulates the embedded jump chain of a model from an
//! initial configuration `(a, b)` until consensus (one species extinct) and
//! reports a [`MajorityOutcome`]: the winner, the consensus time `T(S)`, the
//! number of individual events `I(S)`, competition events `K(S)`, bad
//! non-competitive events `J(S)`, and the demographic-noise decomposition
//! `F = F_ind + F_comp` of Eq. (3)/(7). It is one instance of
//! [`run_jump_chain`], the single fused loop that steps the chain, tallies
//! all of these observables and stops on a caller-supplied check — the
//! engine's `jump-chain` backend runs the same loop with a scenario's stop
//! condition.
//!
//! [`LvJumpChain`] is the fast, specialised jump-chain simulator the runs are
//! built on; it is statistically identical to simulating the
//! [`lv_crn`](lv_crn) network for the same model (cross-checked in the
//! integration tests) but avoids the generic CRN machinery in the inner
//! Monte-Carlo loop.
//!
//! For small populations, [`exact::absorption_probability`] computes the
//! majority-consensus probability ρ exactly by solving the first-step
//! recurrence (Eq. 8), which the tests use to verify the `a/(a+b)` laws of
//! Theorems 20 and 23.
//!
//! # Example
//!
//! ```
//! use lv_lotka::{CompetitionKind, LvModel, run_majority};
//! use rand::SeedableRng;
//!
//! let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let outcome = run_majority(&model, 600, 400, &mut rng, 10_000_000);
//! assert!(outcome.consensus_reached);
//! // With a 20% relative gap the initial majority almost always wins.
//! assert_eq!(outcome.winner, Some(lv_lotka::SpeciesIndex::Zero));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod coupling_impl;
mod events;
pub mod exact;
mod jump_chain;
mod model;
mod multi;
mod population;
mod rates;
mod run;

pub use config::LvConfiguration;
pub use events::{EventKind, LvEvent, PopulationEvent};
pub use jump_chain::LvJumpChain;
pub use model::LvModel;
pub use multi::MultiLvModel;
pub use population::{margin_of, plurality_leader, Population};
pub use rates::{CompetitionKind, LvRates, SpeciesIndex};
pub use run::{
    run_jump_chain, run_majority, run_majority_with_trajectory, MajorityOutcome, NoiseDecomposition,
};
