//! Layer instrumentation for the in-process workloads, all from outside
//! the program: a gap family that spans a real search's probes, a timing
//! [`Backend`] wrapper, step-by-step drivers of the protocol engines, and
//! kernel timings of the sampling layer.

use crate::trace::{Span, Tracer};
use lv_crn::{State, StopReason};
use lv_engine::stream::{EarlyStop, ReportStream, StreamConfig, SuccessTally};
use lv_engine::{Backend, RunReport, Scenario};
use lv_protocols::sampling::{
    sample_hypergeometric, BatchLengthSampler, BinomialSampler, HypergeometricSampler,
};
use lv_protocols::{
    ApproximateMajority, BridgeStep, BridgedConversionWalk, CountedDynamics, CountedSimulation,
};
use lv_sim::{GapProbe, GapScenario, Seed, ThresholdSearch};
use rand::rngs::StdRng;
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// The trial whose RNG this thread handed out last: the stream's
    /// workers fetch a trial's RNG immediately before running it.
    static CURRENT_TRIAL: Cell<u64> = const { Cell::new(0) };
}

/// A [`Backend`] that records one `engine.backend` span per run, parented
/// on the stream span currently being driven.
pub struct TimingBackend {
    inner: &'static dyn Backend,
    tracer: Arc<Tracer>,
    pub stream_span: AtomicU64,
    pub events: AtomicU64,
}

impl TimingBackend {
    /// A leaked wrapper: [`ReportStream::new`] takes `&'static dyn Backend`.
    pub fn leak(inner: &'static dyn Backend, tracer: Arc<Tracer>) -> &'static TimingBackend {
        Box::leak(Box::new(TimingBackend {
            inner,
            tracer,
            stream_span: AtomicU64::new(0),
            events: AtomicU64::new(0),
        }))
    }
}

impl Backend for TimingBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn aliases(&self) -> &'static [&'static str] {
        self.inner.aliases()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }

    fn supports_species(&self, species: usize) -> bool {
        self.inner.supports_species(species)
    }

    fn models_kinetics(&self) -> bool {
        self.inner.models_kinetics()
    }

    fn batched(&self) -> bool {
        self.inner.batched()
    }

    fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
        let start_ns = self.tracer.now_ns();
        let report = self.inner.run(scenario, rng);
        self.tracer.record(Span {
            name: "engine.backend",
            id: self.tracer.next_id(),
            parent: self.stream_span.load(Ordering::Relaxed),
            key: CURRENT_TRIAL.with(Cell::get),
            start_ns,
            end_ns: self.tracer.now_ns(),
        });
        self.events.fetch_add(report.events, Ordering::Relaxed);
        report
    }
}

/// A gap family that records, inside a real [`ThresholdSearch::find_gap`],
/// one `engine.stream` span per probe: the search asks the family for a
/// probe's scenario immediately before running the probe's Monte-Carlo
/// stream, so each span runs from one `scenario` call to the next (or to
/// [`Probed::finish`]).
pub struct Probed<'a, G> {
    inner: &'a G,
    tracer: &'a Tracer,
    search_span: u64,
    /// Start and gap of the probe running now.
    open: Cell<Option<(u64, u64)>>,
}

impl<'a, G: GapScenario> Probed<'a, G> {
    pub fn new(inner: &'a G, tracer: &'a Tracer, search_span: u64) -> Self {
        Probed {
            inner,
            tracer,
            search_span,
            open: Cell::new(None),
        }
    }

    /// Closes the span of the probe running now, if any.
    pub fn finish(&self) {
        if let Some((start_ns, gap)) = self.open.take() {
            self.tracer.record(Span {
                name: "engine.stream",
                id: self.tracer.next_id(),
                parent: self.search_span,
                key: gap,
                start_ns,
                end_ns: self.tracer.now_ns(),
            });
        }
    }
}

impl<G: GapScenario> GapScenario for Probed<'_, G> {
    fn population(&self) -> u64 {
        self.inner.population()
    }

    fn species_count(&self) -> usize {
        self.inner.species_count()
    }

    fn min_gap(&self) -> u64 {
        self.inner.min_gap()
    }

    fn stride(&self) -> u64 {
        self.inner.stride()
    }

    fn max_gap(&self) -> u64 {
        self.inner.max_gap()
    }

    fn scenario(&self, gap: u64) -> Scenario {
        self.finish();
        let scenario = self.inner.scenario(gap);
        self.open.set(Some((self.tracer.now_ns(), gap)));
        scenario
    }
}

/// The seed [`ThresholdSearch`] gives the probe at `gap` of a search rooted
/// at `search_seed` over population `n`.
pub fn probe_seed(search_seed: Seed, n: u64, gap: u64) -> Seed {
    search_seed
        .derive("threshold")
        .derive(&format!("n={n}"))
        .derive(&format!("gap={gap}"))
}

/// The early-stopping rule of a [`ThresholdSearch`] probe.
pub fn probe_rule(search: &ThresholdSearch, n: u64) -> EarlyStop {
    let trials = search.trials();
    EarlyStop::at_half_width((1.0 / trials as f64).min(0.25))
        .with_boundary(search.target(n))
        .with_min_trials(8.min(trials))
}

/// Re-runs one recorded probe through a [`ReportStream`] over the timing
/// backend inside an `engine.stream.replay` span, returning whether it
/// reproduced the probe's trials and successes.
#[allow(clippy::too_many_arguments)]
pub fn redrive_probe<G: GapScenario>(
    tracer: &Tracer,
    backend: &'static TimingBackend,
    search: &ThresholdSearch,
    search_seed: Seed,
    factory: &G,
    probe: &GapProbe,
    threads: usize,
    parent: u64,
) -> bool {
    let n = factory.population();
    let seed = probe_seed(search_seed, n, probe.gap);
    let scenario = factory.scenario(probe.gap);
    let rule = probe_rule(search, n);
    let tally = tracer.span("engine.stream.replay", parent, probe.gap, |id| {
        backend.stream_span.store(id, Ordering::Relaxed);
        ReportStream::new(
            &scenario,
            backend,
            StreamConfig::new(search.trials()).with_threads(threads),
            Arc::new(move |trial| {
                CURRENT_TRIAL.with(|t| t.set(trial));
                seed.rng_for_trial(trial)
            }),
        )
        .fold_with(SuccessTally::new(), Some(rule), |_| {})
    });
    tally.trials() == probe.trials && tally.successes() == probe.successes
}

/// Every this many calls of a step-by-step drive is timed: two clock reads
/// per call would add ~30 % to a bridged block.
const TIMING_STRIDE: u64 = 16;

/// Summed duration and count of the timed calls of one kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timed {
    pub ns: u64,
    pub calls: u64,
}

impl Timed {
    fn add(&mut self, start: Option<Instant>) {
        if let Some(start) = start {
            self.ns += start.elapsed().as_nanos() as u64;
            self.calls += 1;
        }
    }

    /// Mean nanoseconds per timed call.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Counters of the step-by-step protocol drivers.
#[derive(Debug, Default)]
pub struct ProtocolCounters {
    /// Calls so far; every [`TIMING_STRIDE`]-th one is timed.
    calls: u64,
    pub epochs: u64,
    pub epoch_time: Timed,
    pub epoch_interactions: u64,
    pub single_steps: u64,
    pub step_time: Timed,
    pub blocks: u64,
    pub block_time: Timed,
    pub block_interactions: u64,
    /// Conversions of timed blocks, from the band bound at their start.
    pub block_conversions: Vec<u64>,
    pub exact_steps: u64,
    pub exact_time: Timed,
    /// Total wall time of the step-by-step drives.
    pub drive_ns: u64,
    /// Wall time of the backend runs the drives reproduced.
    pub backend_ns: u64,
}

impl ProtocolCounters {
    /// Counts a call; whether it is one of the timed ones.
    fn tick(&mut self) -> bool {
        self.calls += 1;
        self.calls.is_multiple_of(TIMING_STRIDE)
    }
}

/// Population below which the counted engine single-steps (the engine's
/// batching threshold).
const BATCH_MIN_POPULATION: u64 = 64;

/// What a run ended with: per-species counts, events and the stop reason.
type RunEnd = (Vec<u64>, u64, StopReason);

/// The engine driver's stop test, over a reused scratch state.
struct StopCheck<'a> {
    scenario: &'a Scenario,
    state: State,
}

impl<'a> StopCheck<'a> {
    fn new(scenario: &'a Scenario) -> Self {
        StopCheck {
            scenario,
            state: State::from(scenario.initial().counts()),
        }
    }

    fn reason(&mut self, counts: &[u64], events: u64) -> Option<StopReason> {
        for (i, &count) in counts.iter().enumerate() {
            self.state.set_count(lv_crn::SpeciesId::new(i), count);
        }
        let stop = self.scenario.stop();
        if stop.is_met(&self.state) {
            Some(StopReason::ConditionMet)
        } else if stop.max_events().is_some_and(|max| events >= max) {
            Some(StopReason::MaxEventsReached)
        } else {
            None
        }
    }
}

/// Drives [`CountedSimulation`] one epoch/step at a time, as the batched
/// approximate-majority backend does, timing every call.
fn drive_counted(
    dynamics: &CountedDynamics,
    scenario: &Scenario,
    rng: &mut StdRng,
    c: &mut ProtocolCounters,
) -> RunEnd {
    let initial = scenario.initial().counts().to_vec();
    let mut stop = StopCheck::new(scenario);
    if let Some(reason) = stop.reason(&initial, 0) {
        return (initial, 0, reason);
    }
    let mut sim = CountedSimulation::new(dynamics, &initial);
    let mut opinions = initial;
    let mut events = 0u64;
    let max_events = scenario.stop().max_events().unwrap_or(u64::MAX);
    loop {
        if let Some(reason) = stop.reason(&opinions, events) {
            return (opinions, events, reason);
        }
        if sim.is_absorbed() {
            return (opinions, events, StopReason::Absorbed);
        }
        let remaining = max_events - events;
        if sim.total() >= BATCH_MIN_POPULATION {
            let start = c.tick().then(Instant::now);
            let fired = sim.step_epoch(rng, remaining);
            if let Some(fired) = fired {
                c.epoch_time.add(start);
                c.epochs += 1;
                c.epoch_interactions += fired;
                events += fired;
                sim.opinion_counts_into(&mut opinions);
                continue;
            }
        }
        let start = c.tick().then(Instant::now);
        sim.step(rng);
        c.step_time.add(start);
        c.single_steps += 1;
        events += 1;
        sim.opinion_counts_into(&mut opinions);
    }
}

/// Conversions the band allows in a block from `counts` (the bridge's
/// block-length rule without the budget cap, which these runs never hit).
fn band_block_len(counts: &[u64]) -> u64 {
    let n: u64 = counts.iter().sum();
    let cross = (n as u128) * (n as u128)
        - counts
            .iter()
            .map(|&c| (c as u128) * (c as u128))
            .sum::<u128>();
    let band = lv_protocols::bridge::BAND as u128;
    counts
        .iter()
        .filter(|&&c| c > 0 && c < n)
        .map(|&c| (c as u128) * cross / (2 * band * band * (n - c) as u128))
        .min()
        .unwrap_or(0)
        .min(u64::MAX as u128) as u64
}

/// Drives [`BridgedConversionWalk::advance`] one call at a time, as the
/// bridged Czyzowicz backend does, timing every call.
fn drive_bridged(scenario: &Scenario, rng: &mut StdRng, c: &mut ProtocolCounters) -> RunEnd {
    let initial = scenario.initial().counts().to_vec();
    let mut stop = StopCheck::new(scenario);
    if let Some(reason) = stop.reason(&initial, 0) {
        return (initial, 0, reason);
    }
    let mut walk = BridgedConversionWalk::new(&initial);
    let mut events = 0u64;
    let max_events = scenario.stop().max_events().unwrap_or(u64::MAX);
    loop {
        if let Some(reason) = stop.reason(walk.counts(), events) {
            return (walk.counts().to_vec(), events, reason);
        }
        if walk.is_absorbed() {
            return (walk.counts().to_vec(), events, StopReason::Absorbed);
        }
        // Only for timed calls: the band rule costs a fair share of a block,
        // and the kernel timing needs only a typical length.
        let len = c.tick().then(|| band_block_len(walk.counts()));
        let start = len.map(|_| Instant::now());
        let step = walk.advance(rng, max_events - events);
        match step {
            BridgeStep::Block { fired } => {
                c.block_time.add(start);
                c.blocks += 1;
                c.block_interactions += fired;
                c.block_conversions.extend(len);
            }
            BridgeStep::Exact { .. } | BridgeStep::Truncated { .. } => {
                c.exact_time.add(start);
                c.exact_steps += 1;
            }
        }
        events += step.fired();
    }
}

/// Re-drives trial `trial` of a probe step by step and checks it against
/// the backend's own [`RunReport`] on the same RNG stream.
pub fn redrive_protocol_trial(
    backend: &'static dyn Backend,
    scenario: &Scenario,
    seed: Seed,
    trial: u64,
    c: &mut ProtocolCounters,
) -> bool {
    let start = Instant::now();
    let report = backend.run(scenario, &mut seed.rng_for_trial(trial));
    c.backend_ns += start.elapsed().as_nanos() as u64;
    let mut rng = seed.rng_for_trial(trial);
    let start = Instant::now();
    let end = match backend.name() {
        "approx-majority" => drive_counted(
            &CountedDynamics::from_protocol(&ApproximateMajority::new()),
            scenario,
            &mut rng,
            c,
        ),
        "czyzowicz-lv-bridged" => drive_bridged(scenario, &mut rng, c),
        other => panic!("no step-by-step driver for backend {other:?}"),
    };
    c.drive_ns += start.elapsed().as_nanos() as u64;
    end == (
        report.final_state.counts().to_vec(),
        report.events,
        report.reason,
    )
}

/// Mean nanoseconds per call of `f` over `reps` calls.
fn ns_per_call(reps: u64, mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut sink = 0u64;
    for _ in 0..reps {
        sink = sink.wrapping_add(f());
    }
    black_box(sink);
    start.elapsed().as_nanos() as f64 / reps as f64
}

/// Kernel timings of the sampling layer, untraced, at the urn shapes of
/// the large-n workload: the first population split of an approximate-
/// majority epoch at `epoch_n` (one-shot and prepared hypergeometric) and
/// the fair-coin bridge `Binomial(block_len, ½)`.
pub fn sampling_kernels(epoch_n: u64, block_len: u64, seed: Seed) -> (f64, f64, f64) {
    let mut rng = seed.derive("sampling-kernels").rng_for_trial(0);
    let lengths = BatchLengthSampler::new(epoch_n);
    let mut draws: Vec<u64> = (0..101).map(|_| 2 * lengths.sample(&mut rng)).collect();
    draws.sort_unstable();
    let draws = draws[50];
    let (successes, failures) = (epoch_n / 2, epoch_n - epoch_n / 2);
    const REPS: u64 = 200_000;
    let hyper = ns_per_call(REPS, || {
        sample_hypergeometric(&mut rng, black_box(successes), failures, draws)
    });
    let prepared = HypergeometricSampler::new(successes, failures, draws);
    let hyper_prepared = ns_per_call(REPS, || prepared.sample(&mut rng));
    let binomial = BinomialSampler::new(block_len.max(1), 0.5);
    let binomial_ns = ns_per_call(REPS, || binomial.sample(&mut rng));
    (hyper, hyper_prepared, binomial_ns)
}
