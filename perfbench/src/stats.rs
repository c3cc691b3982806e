//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between order
/// statistics; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Contiguous slices a run's samples are split into by the robust
/// summaries below. The benchmark shares its machine; a burst of outside
/// load that covers fewer than half the slices does not move their median,
/// while a change to the program moves every slice.
const SLICES: usize = 6;
/// Samples a slice's quantile needs on each side of it.
const MIN_BEYOND: f64 = 10.0;

/// The `q`-quantile of samples in time order: the median over [`SLICES`]
/// contiguous slices of each slice's quantile, or the quantile of all
/// samples when a slice would hold fewer than [`MIN_BEYOND`] samples beyond
/// its quantile.
pub fn sliced_quantile(samples: &[f64], q: f64) -> f64 {
    let per_slice = samples.len() / SLICES;
    if (per_slice as f64) * q.min(1.0 - q) < MIN_BEYOND {
        return quantile(samples, q);
    }
    let per_slice: Vec<f64> = samples
        .chunks(samples.len().div_ceil(SLICES))
        .map(|slice| quantile(slice, q))
        .collect();
    median(&per_slice)
}

/// Events per second over a phase of `phase_s` seconds, from each event's
/// completion time (seconds into the phase): the median over [`SLICES`]
/// equal time slices of the rate in each.
pub fn sliced_rate(done_at: &[f64], phase_s: f64) -> f64 {
    let width = phase_s / SLICES as f64;
    let mut counts = [0u64; SLICES];
    for &t in done_at {
        counts[((t / width) as usize).min(SLICES - 1)] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

/// Reports a latency sample set, in time order, as `<name>_p50_<unit>` (a
/// [`sliced_quantile`]), scaling seconds by `scale`, and states the sample
/// count and the p90 on standard error (see `END_TO_END` for why the p90
/// is not a metric).
pub fn report_tail(
    outcome: &mut crate::Outcome,
    name: &str,
    seconds: &[f64],
    scale: f64,
    unit: &'static str,
) {
    let scaled: Vec<f64> = seconds.iter().map(|s| s * scale).collect();
    eprintln!(
        "{name}: {} samples, p90 {:.1} {unit}",
        scaled.len(),
        sliced_quantile(&scaled, 0.9)
    );
    outcome.metric(
        &format!("{name}_p50_{unit}"),
        sliced_quantile(&scaled, 0.5),
        unit,
    );
}
