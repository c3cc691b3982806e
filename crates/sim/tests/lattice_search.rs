//! `lattice_search` on monotone step predicates: index `i` succeeds exactly
//! when `i ≥ threshold`, with `threshold = max_index + 1` for "no index
//! succeeds". The search must return the first succeeding index, saturate
//! exactly when no index succeeds, probe in the doubling-then-bisection
//! order, and stop at the first probe error.

use lv_sim::{lattice_search, GapProbe};
use proptest::prelude::*;
use std::convert::Infallible;

fn probe_at(index: u64, threshold: u64) -> GapProbe {
    let reached_target = index >= threshold;
    GapProbe {
        gap: index,
        trials: 1,
        successes: u64::from(reached_target),
        estimate: if reached_target { 1.0 } else { 0.0 },
        reached_target,
    }
}

/// The search's result on the step at `threshold`, and the indices it
/// probed, in order.
fn search(max_index: u64, threshold: u64) -> ((u64, GapProbe, bool), Vec<u64>) {
    let mut probed = Vec::new();
    let Ok(result) = lattice_search(max_index, |index| {
        assert!(index <= max_index, "probed {index} beyond {max_index}");
        probed.push(index);
        Ok::<_, Infallible>(probe_at(index, threshold))
    });
    (result, probed)
}

/// The probe order the search must follow: index 0, then 1, 2, 4, …
/// (capped at `max_index`) up to the first success, then bisection between
/// the last failing and the first succeeding index.
fn expected_probes(max_index: u64, threshold: u64) -> Vec<u64> {
    let mut probes = vec![0u64];
    let mut power = 1u64;
    while probes[probes.len() - 1] < threshold.min(max_index) {
        probes.push(power.min(max_index));
        power = power.saturating_mul(2);
    }
    let last = probes[probes.len() - 1];
    if last < threshold || probes.len() == 1 {
        return probes;
    }
    let (mut failing, mut succeeding) = (probes[probes.len() - 2], last);
    while succeeding - failing > 1 {
        let mid = failing + (succeeding - failing) / 2;
        probes.push(mid);
        if mid >= threshold {
            succeeding = mid;
        } else {
            failing = mid;
        }
    }
    probes
}

fn check(max_index: u64, threshold: u64) {
    let ((index, probe, saturated), probed) = search(max_index, threshold);
    if threshold <= max_index {
        assert_eq!(index, threshold, "not the first succeeding index");
        assert!(!saturated && probe.reached_target);
    } else {
        assert_eq!(index, max_index, "saturated searches end at max_index");
        assert!(saturated && !probe.reached_target);
    }
    assert_eq!(probe, probe_at(index, threshold), "returned a stale probe");
    assert_eq!(
        probed,
        expected_probes(max_index, threshold),
        "probe order on max_index {max_index}, threshold {threshold}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn finds_the_first_succeeding_index_in_doubling_then_bisection_order(
        (max_index, threshold) in (0u64..300, 0u64..302),
    ) {
        check(max_index, threshold.min(max_index + 1));
    }

    #[test]
    fn stays_correct_on_wide_lattices(
        (max_index, fraction) in (0u64..1 << 50, 0.0f64..1.05),
    ) {
        let threshold = ((max_index as f64 + 1.0) * fraction) as u64;
        check(max_index, threshold.min(max_index + 1));
    }

    #[test]
    fn a_probe_error_ends_the_search_at_once(
        (max_index, threshold, fail_at) in (0u64..300, 0u64..302, 0usize..20),
    ) {
        let threshold = threshold.min(max_index + 1);
        let probes = expected_probes(max_index, threshold);
        prop_assume!(fail_at < probes.len());
        let mut probed = Vec::new();
        let result = lattice_search(max_index, |index| {
            probed.push(index);
            if probed.len() > fail_at {
                Err(index)
            } else {
                Ok(probe_at(index, threshold))
            }
        });
        prop_assert_eq!(result, Err(probes[fail_at]));
        prop_assert_eq!(probed, probes[..=fail_at].to_vec());
    }
}

#[test]
fn a_single_index_lattice_probes_once() {
    assert_eq!(search(0, 0).0, (0, probe_at(0, 0), false));
    assert_eq!(search(0, 1).0, (0, probe_at(0, 1), true));
    assert_eq!(search(0, 0).1, vec![0]);
    assert_eq!(search(0, 1).1, vec![0]);
}

#[test]
fn the_probe_order_is_pinned_on_a_small_lattice() {
    // Doubling 0, 1, 2, 4, 8 finds the bound; bisection closes (4, 8).
    assert_eq!(search(20, 6).1, vec![0, 1, 2, 4, 8, 6, 5]);
    // Doubling caps at max_index and saturates there.
    assert_eq!(search(5, 6).1, vec![0, 1, 2, 4, 5]);
}
