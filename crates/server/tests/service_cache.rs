//! The cache contract of the threshold-surface service:
//!
//! * a repeated identical `Estimate` is a pure cache hit (zero fresh
//!   trials, identical posterior);
//! * a tighter re-query *extends* the cell's RNG stream — fresh trials are
//!   exactly the trial-count difference, and the refined posterior is
//!   bit-identical to one uninterrupted run of the same length;
//! * concurrent identical requests coalesce: N threads spend the fresh
//!   trials of exactly one;
//! * the served half-width never widens across requests, whatever budgets
//!   the requests impose (the property test);
//! * a snapshot warm-starts a new service into pure hits;
//! * off-lattice queries interpolate honestly or refuse.

use lv_lotka::{CompetitionKind, LvModel};
use lv_server::{
    EstimateRequest, InProcessExecutor, ScenarioSpec, ServiceConfig, SurfaceSnapshot, SweepRequest,
    ThresholdRequest, ThresholdService, TrialExecutor,
};
use lv_server::{Request, Response};
use lv_sim::Seed;
use proptest::prelude::*;
use std::sync::Arc;

fn spec() -> ScenarioSpec {
    ScenarioSpec::two_species(
        LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
        "jump-chain",
    )
}

fn service() -> ThresholdService {
    ThresholdService::new(
        Box::new(InProcessExecutor::new(2)),
        ServiceConfig::default(),
    )
}

fn estimate(n: u64, gap: u64, target_ci: f64, max_trials: u64) -> EstimateRequest {
    EstimateRequest {
        spec: spec(),
        n,
        gap,
        target_ci,
        max_trials,
    }
}

#[test]
fn repeated_estimates_are_pure_cache_hits() {
    let service = service();
    let first = service.estimate(&estimate(128, 8, 0.08, 0)).unwrap();
    assert!(!first.cache_hit);
    assert!(first.fresh_trials > 0);
    assert!(first.half_width <= 0.08);
    assert_eq!(
        first.trials, first.fresh_trials,
        "cold cell: all trials fresh"
    );

    let second = service.estimate(&estimate(128, 8, 0.08, 0)).unwrap();
    assert!(second.cache_hit, "identical re-query must hit the cache");
    assert_eq!(
        second.fresh_trials, 0,
        "a cache hit spends zero fresh trials"
    );
    assert_eq!(second.successes, first.successes);
    assert_eq!(second.trials, first.trials);
    assert_eq!(second.point, first.point);
    assert_eq!(second.half_width, first.half_width);

    let stats = service.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.cells, 1);
}

#[test]
fn tighter_requeries_spend_only_incremental_trials() {
    // Gap 2 at n = 128 sits near ρ ≈ ½, where tightening the interval
    // genuinely requires more trials (an extreme-ρ cell can overshoot a
    // tighter target in the first planned batch).
    let service = service();
    let loose = service.estimate(&estimate(128, 2, 0.10, 0)).unwrap();
    let tight = service.estimate(&estimate(128, 2, 0.04, 0)).unwrap();
    assert!(!tight.cache_hit);
    assert!(tight.trials > loose.trials);
    assert_eq!(
        tight.fresh_trials,
        tight.trials - loose.trials,
        "refinement must spend exactly the trial-count difference"
    );
    assert!(tight.half_width <= 0.04);

    // The extended posterior is bit-identical to one uninterrupted run of
    // the same length over the cell's RNG stream: the cache resumed the
    // stream, it did not restart it.
    let canonical = spec().validated().unwrap();
    let seed = Seed::new(canonical.fingerprint())
        .derive("surface")
        .derive("n=128")
        .derive("gap=2");
    let bits = InProcessExecutor::new(1)
        .run_range(&canonical, 128, 2, seed, 0, tight.trials)
        .unwrap();
    let successes = bits.iter().filter(|&&b| b).count() as u64;
    assert_eq!(
        tight.successes, successes,
        "refined cell must equal an uninterrupted run of equal length"
    );
}

#[test]
fn concurrent_identical_estimates_spend_the_trials_of_one() {
    let shared = Arc::new(service());
    let request = estimate(100, 6, 0.06, 0);
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let request = request.clone();
                scope.spawn(move || shared.estimate(&request).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Control: the same request against a fresh service.
    let control = service().estimate(&request).unwrap();
    let total_fresh: u64 = responses.iter().map(|r| r.fresh_trials).sum();
    assert_eq!(
        total_fresh, control.fresh_trials,
        "8 concurrent identical requests must spend the trials of exactly one"
    );
    assert_eq!(
        responses.iter().filter(|r| r.fresh_trials > 0).count(),
        1,
        "exactly one request does the work"
    );
    for response in &responses {
        assert_eq!(response.successes, control.successes);
        assert_eq!(response.trials, control.trials);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cache monotonicity: across any sequence of requests with arbitrary
    /// targets and (possibly starving) budgets, the served half-width
    /// never widens.
    #[test]
    fn served_half_width_never_widens(
        targets in proptest::collection::vec((1u32..30, 1u64..400), 2..6),
    ) {
        let service = service();
        let mut last_hw = f64::INFINITY;
        for (milli, max_trials) in targets {
            let target_ci = milli as f64 / 100.0;
            let response = service
                .estimate(&estimate(64, 4, target_ci, max_trials))
                .unwrap();
            prop_assert!(
                response.half_width <= last_hw + 1e-12,
                "half-width widened: {} after {}",
                response.half_width,
                last_hw
            );
            last_hw = response.half_width;
        }
    }
}

#[test]
fn snapshots_warm_start_into_pure_hits() {
    let cold = service();
    let first = cold.estimate(&estimate(96, 4, 0.07, 0)).unwrap();
    assert!(first.fresh_trials > 0);

    // Round-trip the snapshot through its JSON form, as `--cache-snapshot`
    // does across server restarts.
    let text = serde::json::to_string(&cold.snapshot());
    let snapshot: SurfaceSnapshot = serde::json::from_str(&text).unwrap();
    let warm = service().with_snapshot(&snapshot);
    let replay = warm.estimate(&estimate(96, 4, 0.07, 0)).unwrap();
    assert!(replay.cache_hit, "warm-started cache must serve directly");
    assert_eq!(replay.fresh_trials, 0);
    assert_eq!(replay.successes, first.successes);
    assert_eq!(replay.trials, first.trials);

    // And a tighter query against the warm service still only spends the
    // increment: the stream resumes across the snapshot boundary.
    let tighter = warm.estimate(&estimate(96, 4, 0.035, 0)).unwrap();
    assert_eq!(tighter.fresh_trials, tighter.trials - first.trials);
}

#[test]
fn off_lattice_queries_interpolate_honestly_or_refuse() {
    let service = service();
    // Populate the four corners around the query (even n: even gaps).
    let mut widest_corner: f64 = 0.0;
    for n in [100u64, 200] {
        for gap in [4u64, 8] {
            let corner = service.estimate(&estimate(n, gap, 0.08, 0)).unwrap();
            widest_corner = widest_corner.max(corner.half_width);
        }
    }
    // Gap 5 is parity-infeasible at n = 150; the corners bracket it.
    let mid = service.estimate(&estimate(150, 5, 0.08, 0)).unwrap();
    assert!(mid.interpolated);
    assert!(mid.cache_hit);
    assert_eq!(mid.fresh_trials, 0, "interpolation must not run trials");
    assert!(
        mid.half_width >= widest_corner,
        "interpolated interval ({}) must be at least as wide as the widest corner ({})",
        mid.half_width,
        widest_corner
    );
    assert!(mid.point > 0.0 && mid.point < 1.0);
    assert!(mid.ci_low >= 0.0 && mid.ci_high <= 1.0);

    // Outside the probed hull the service refuses instead of extrapolating.
    let err = service.estimate(&estimate(400, 5, 0.08, 0)).unwrap_err();
    assert_eq!(err.code(), "off-lattice");
}

#[test]
fn threshold_searches_are_memoized_cell_by_cell() {
    let service = service();
    let request = ThresholdRequest {
        spec: spec(),
        n: 128,
        target: 0.0,
        trials: 48,
    };
    let first = service.threshold(&request).unwrap();
    assert!(first.fresh_trials > 0);
    assert!(!first.result.probes.is_empty());
    assert!(first.result.threshold >= 2);
    assert_eq!(first.result.backend, "jump-chain");

    let second = service.threshold(&request).unwrap();
    assert_eq!(
        second.fresh_trials, 0,
        "a repeated search must re-read every probe from cache"
    );
    assert_eq!(second.result, first.result);
}

/// A model without interspecific competition never reaches the target:
/// the served search saturates at the largest feasible gap, as
/// `ThresholdSearch` does, and the repeat is still a pure cache hit.
#[test]
fn saturated_threshold_searches_end_at_the_largest_feasible_gap() {
    let service = service();
    let request = ThresholdRequest {
        spec: ScenarioSpec::two_species(
            LvModel::intraspecific_only(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0),
            "jump-chain",
        ),
        n: 60,
        target: 0.0,
        trials: 80,
    };
    let first = service.threshold(&request).unwrap();
    let result = &first.result;
    assert!(result.saturated, "expected saturation, got {result}");
    assert_eq!(result.threshold, 58, "n - 2 is the largest feasible gap");
    let last = result.probes.last().unwrap();
    assert_eq!(last.gap, 58);
    assert!(!last.reached_target);
    assert!(result.probes.iter().all(|probe| !probe.reached_target));
    assert_eq!(result.success_at_threshold, last.estimate);

    let second = service.threshold(&request).unwrap();
    assert_eq!(second.fresh_trials, 0);
    assert_eq!(second.result, first.result);
}

/// Three or fewer trials per probe make the default target vacuous: the
/// request is refused as a typed bad request, not a panic.
#[test]
fn vacuous_probe_budgets_are_bad_requests() {
    let service = service();
    for trials in 1..=3 {
        let err = service
            .threshold(&ThresholdRequest {
                spec: spec(),
                n: 128,
                target: 0.0,
                trials,
            })
            .unwrap_err();
        assert_eq!(err.code(), "bad-request");
    }
}

#[test]
fn sweeps_snap_dedupe_and_memoize() {
    let service = service();
    let request = SweepRequest {
        spec: spec(),
        n_lattice: vec![64, 128],
        gap_lattice: vec![2, 5, 6],
        target_ci: 0.15,
    };
    let first = service.sweep(&request).unwrap();
    // Gap 5 snaps up to 6 on the even lattice, deduplicating with the
    // explicit 6: two distinct cells per n.
    assert_eq!(first.cells.len(), 4, "snapped duplicates must merge");
    assert!(first.fresh_trials > 0);
    for cell in &first.cells {
        assert_eq!(cell.gap % 2, 0, "even n: probed gaps must be even");
        assert!(cell.half_width <= 0.15);
    }
    let second = service.sweep(&request).unwrap();
    assert_eq!(second.fresh_trials, 0);
    assert_eq!(second.cells, first.cells);
}

#[test]
fn invalid_requests_fail_with_typed_codes_and_the_service_survives() {
    let service = service();
    let err = service.estimate(&estimate(128, 8, 0.0, 0)).unwrap_err();
    assert_eq!(err.code(), "bad-request");
    let err = service.estimate(&estimate(3, 1, 0.1, 0)).unwrap_err();
    assert_eq!(err.code(), "bad-request");
    let mut bad = estimate(128, 8, 0.1, 0);
    bad.spec.backend = "no-such-backend".to_string();
    let err = service.estimate(&bad).unwrap_err();
    assert_eq!(err.code(), "unknown-backend");
    let err = service
        .threshold(&ThresholdRequest {
            spec: spec(),
            n: 128,
            target: 1.5,
            trials: 48,
        })
        .unwrap_err();
    assert_eq!(err.code(), "bad-request");

    // `handle` wraps every failure as an error response and keeps serving.
    let response = service.handle(&Request::Estimate(estimate(128, 8, -1.0, 0)));
    assert!(matches!(response, Response::Error(_)));
    let response = service.handle(&Request::Estimate(estimate(128, 8, 0.2, 0)));
    assert!(matches!(response, Response::Estimate(_)));
}
