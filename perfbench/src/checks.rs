//! The exact-oracle check of the conversion dynamics.
//!
//! In the Czyzowicz et al. conversion dynamics the majority count performs
//! a fair random walk over conversions, so from `a` of `n` agents opinion A
//! wins with probability exactly `a/n`. The bridged probes' trials are
//! pooled by cell `(n, gap)` over every search of a run — every trial of a
//! cell is an independent draw of the same coin, since each probe runs on
//! its own seed — and each cell's successes are tested against the law
//! with a two-sided exact binomial test.
//!
//! Probes stop early, so a cell's number of trials is itself random. Laid
//! end to end, a cell's trials are one sequence of independent draws that
//! stops at a time no later than `probes · cap`; the test is valid at any
//! such stopping time by a union bound over every trial count up to that
//! limit. The family-wise false-alarm rate [`FAMILY_ALPHA`] is split
//! evenly over the run's cells and those counts. The rate is fixed; it
//! depends on no seed.

use lv_protocols::sampling::ln_factorial;

/// Family-wise false-alarm rate of the a/n checks of one run.
pub const FAMILY_ALPHA: f64 = 1e-3;

fn ln_pmf(trials: u64, k: u64, p: f64) -> f64 {
    ln_factorial(trials) - ln_factorial(k) - ln_factorial(trials - k)
        + k as f64 * p.ln()
        + (trials - k) as f64 * (1.0 - p).ln()
}

/// `P(X ≤ s)` and `P(X ≥ s)` for `X ~ Binomial(trials, p)`, `0 < p < 1`.
fn tails(trials: u64, successes: u64, p: f64) -> (f64, f64) {
    let pmf = |k| ln_pmf(trials, k, p).exp();
    let lower = (0..=successes).map(pmf).sum::<f64>().min(1.0);
    let upper = (successes..=trials).map(pmf).sum::<f64>().min(1.0);
    (lower, upper)
}

/// Whether a cell's pooled `successes` of `trials` agree with win
/// probability `p`, for one of `cells` cells whose trial count could have
/// reached at most `max_trials`.
pub fn agrees_with_law(trials: u64, successes: u64, p: f64, cells: u64, max_trials: u64) -> bool {
    if p >= 1.0 {
        return successes == trials;
    }
    let per_side = FAMILY_ALPHA / (2.0 * cells.max(1) as f64 * max_trials.max(1) as f64);
    let (lower, upper) = tails(trials, successes, p);
    lower >= per_side && upper >= per_side
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_outcomes_pass_and_wrong_laws_fail() {
        assert!(agrees_with_law(20, 17, 0.85, 40, 20));
        assert!(agrees_with_law(20, 20, 0.99, 40, 20));
        // Twenty straight losses cannot come from a 0.85 law.
        assert!(!agrees_with_law(20, 0, 0.85, 40, 20));
        assert!(!agrees_with_law(20, 20, 0.3, 40, 20));
    }

    #[test]
    fn pooled_near_even_cell_rejects_a_shifted_law() {
        // A near-even cell pooled from 500 probes of up to 20 trials, one
        // of 60 cells. A coin of 0.55 against the law's 0.5 fails; the same
        // count of fair draws, 2.5 standard deviations high, passes.
        assert!(!agrees_with_law(4_000, 2_200, 0.5, 60, 10_000));
        assert!(agrees_with_law(4_000, 2_080, 0.5, 60, 10_000));
        // A single probe's eight near-even draws can never fail.
        assert!(agrees_with_law(8, 8, 0.5, 60, 20));
    }
}
