//! Shared helpers for the benchmark harness.
//!
//! The Criterion benches in `benches/` measure the performance of the kernel
//! behind each experiment of the `lv_sim::experiments` index at a deliberately
//! small scale (so a full `cargo bench` stays in the minutes range); the
//! `experiments` binary in `src/bin/experiments.rs` is the harness that
//! regenerates the actual tables and series (README, *Reproducing the
//! paper*).

#![forbid(unsafe_code)]

use lv_sim::experiments::ExperimentConfig;
use lv_sim::Seed;

/// The population size used by the quick benchmark kernels.
pub const BENCH_N: u64 = 512;

/// The trial count used by the quick benchmark kernels.
pub const BENCH_TRIALS: u64 = 30;

/// The seed used by every benchmark, so runs are comparable.
pub fn bench_seed() -> Seed {
    Seed::from(0xBEEF)
}

/// The quick experiment configuration used when a bench wraps an entire
/// experiment rather than a kernel.
pub fn bench_experiment_config() -> ExperimentConfig {
    ExperimentConfig::quick(0xBEEF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn bench_constants_are_sane() {
        assert!(BENCH_N >= 128);
        assert!(BENCH_TRIALS >= 10);
        assert_eq!(bench_seed(), Seed::from(0xBEEF));
        assert_eq!(bench_experiment_config().seed, Seed::from(0xBEEF));
    }
}
