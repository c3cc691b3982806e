//! # lv-sim — Monte-Carlo engine and the experiment suite
//!
//! This crate turns the models of [`lv_lotka`], the chains of [`lv_chains`]
//! and the baselines of [`lv_protocols`] into the quantitative experiments the
//! paper reports:
//!
//! * [`MonteCarlo`] — a seeded, optionally multi-threaded trial runner with
//!   [`SuccessEstimate`] results (Wilson confidence intervals). Batches run
//!   on the engine's streaming executor (work-stealing shards, reports
//!   folded into [`OnlineAccumulator`]s in trial order as trials finish —
//!   nothing materialised, bit-identical at every thread count), and the
//!   `_until` estimator variants stop early once an [`EarlyStop`]
//!   confidence-width target is met;
//! * [`ThresholdSearch`] — empirical consensus thresholds: the smallest
//!   initial gap `∆` (two species) or plurality margin (`k` species, via
//!   the [`GapScenario`] factories) for which the estimated success
//!   probability reaches the paper's `1 − 1/n` criterion, on any registered
//!   backend, with adaptive early-stopped probes that report the trials
//!   actually spent;
//! * [`ScalingLaw`] / [`ScalingFit`] — least-squares fits of measured
//!   thresholds or times against the candidate asymptotic laws
//!   (`log² n`, `√(n log n)`, `√n`, `n`, …);
//! * [`experiments`] — one module per experiment of its index (E1–E16), each
//!   producing a printable report; together they regenerate every row of
//!   Table 1 plus the supporting scaling results, the k-species plurality
//!   suite and the backend-generic threshold-scaling comparison;
//! * [`report`] — minimal ASCII table rendering used by the reports and the
//!   `experiments` binary in the benchmark crate.
//!
//! # Example
//!
//! ```
//! use lv_lotka::{CompetitionKind, LvModel};
//! use lv_sim::{MonteCarlo, Seed};
//!
//! let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
//! let mc = MonteCarlo::new(200, Seed::from(7));
//! let estimate = mc.success_probability(&model, 550, 450);
//! assert!(estimate.point() > 0.5);
//! let (low, high) = estimate.wilson_interval(1.96);
//! assert!(low <= estimate.point() && estimate.point() <= high);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod estimate;
pub mod experiments;
mod montecarlo;
pub mod report;
mod scaling;
mod seed;
pub mod stats;
mod threshold;

pub use estimate::SuccessEstimate;
pub use montecarlo::{
    ConsensusAccumulator, ConsensusStats, MonteCarlo, PluralityAccumulator, PluralityStats,
};
pub use scaling::{ScalingFit, ScalingLaw};
pub use seed::Seed;
pub use threshold::{
    default_target, lattice_search, GapProbe, GapScenario, PluralityGap, ThresholdResult,
    ThresholdSearch, TwoSpeciesGap,
};
// The streaming vocabulary used by `MonteCarlo`'s batch API, re-exported so
// estimator callers need not depend on `lv_engine` directly.
pub use lv_engine::stream::{
    EarlyStop, OnlineAccumulator, Progress, ReportStream, RunMoments, StreamConfig, SuccessTally,
    Welford,
};
