//! Streaming parallel batch execution: run a [`Scenario`] many times and
//! consume the [`RunReport`]s *as trials finish*, without ever materialising
//! a batch.
//!
//! The pieces compose bottom-up:
//!
//! * [`ShardQueue`] — a lock-free dispenser of trial indices: idle workers
//!   claim the next trial (one per claim by default) instead of being
//!   pinned to a static range, so stragglers (trials that run long) never
//!   leave cores idle;
//! * [`ReportStream`] — an iterator over `(trial, RunReport)` pairs in
//!   strict trial order. Workers run trials out of order and send
//!   `(trial, report)` pairs over a crossbeam channel, flushing a chunk at
//!   [`FLUSH_TRIALS`] reports or once its reports sum to [`FLUSH_EVENTS`]
//!   events, whichever comes first — cheap trials still travel in batches
//!   while an expensive trial reaches the consumer as soon as it finishes.
//!   A small reorder buffer on the consuming side restores trial order,
//!   which is what makes every downstream fold bit-identical at every
//!   thread count (trial `i` always uses the RNG the factory returns for
//!   `i`, and results are always folded `0, 1, 2, …`);
//! * [`OnlineAccumulator`] — a statistic folded one report at a time:
//!   [`SuccessTally`] (win counts), [`RunMoments`] (Welford mean/variance
//!   of consensus event counts and extinction times), [`PluralityTally`]
//!   (per-species win counts for `k`-species scenarios);
//! * [`EarlyStop`] — a sequential stopping rule: end the stream as soon as
//!   the Wilson confidence half-width of the success probability drops to a
//!   target, so batches near the critical margin spend trials only until
//!   the estimate is tight enough; an optional decision
//!   [`boundary`](EarlyStop::with_boundary) instead stops as soon as the
//!   interval clears a success-probability boundary (how threshold probes
//!   avoid spending the full budget far from the threshold). Per-trial
//!   claims and work-based flushing keep the trials run past the stopping
//!   point to about one per worker;
//! * [`ReportStream::fold_with`] — the driver tying them together, with a
//!   [`Progress`] callback per folded trial.
//!
//! ```
//! use lv_engine::stream::{ReportStream, StreamConfig, SuccessTally};
//! use lv_engine::{backend, Scenario};
//! use lv_lotka::{CompetitionKind, LvModel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
//! let scenario = Scenario::majority(model, 80, 40);
//! let stream = ReportStream::new(
//!     &scenario,
//!     backend("jump-chain").unwrap(),
//!     StreamConfig::new(64).with_threads(4),
//!     Arc::new(|trial| StdRng::seed_from_u64(0xC0FFEE ^ trial)),
//! );
//! let tally = stream.fold(SuccessTally::new());
//! assert_eq!(tally.trials(), 64);
//! assert!(tally.successes() > 32, "a 2:1 majority mostly wins");
//! ```

use crate::backend::Backend;
use crate::report::RunReport;
use crate::scenario::Scenario;
use crossbeam::channel::{bounded, Receiver, Sender};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Derives the per-trial random number generator. Trial `i` must always
/// receive the same stream regardless of scheduling — this is the whole
/// reproducibility contract of the streaming executor (the Monte-Carlo layer
/// passes `Seed::rng_for_trial`).
pub type TrialRngFactory = Arc<dyn Fn(u64) -> StdRng + Send + Sync>;

/// How a [`ReportStream`] schedules its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    trials: u64,
    threads: usize,
    shard_size: Option<u64>,
}

impl StreamConfig {
    /// A configuration running `trials` trials on all available cores,
    /// claiming one trial at a time.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn new(trials: u64) -> Self {
        assert!(trials > 0, "at least one trial is required");
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        StreamConfig {
            trials,
            threads,
            shard_size: None,
        }
    }

    /// Restricts execution to a fixed number of worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one thread is required");
        self.threads = threads;
        self
    }

    /// Fixes the shard size (trials claimed per queue access). By default
    /// workers claim one trial at a time, which keeps speculation — trials
    /// run past an early stop — to about one trial per worker; a larger
    /// shard trades that for fewer queue accesses.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size == 0`.
    pub fn with_shard_size(mut self, shard_size: u64) -> Self {
        assert!(shard_size > 0, "shards must hold at least one trial");
        self.shard_size = Some(shard_size);
        self
    }

    /// The number of trials to run.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// The configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The effective shard size: the configured one, or one trial per
    /// claim. Per-trial claims cost one atomic increment each, far below a
    /// trial; delivery is batched separately (see [`FLUSH_TRIALS`] and
    /// [`FLUSH_EVENTS`]), so small claims do not mean small messages.
    pub fn effective_shard_size(&self) -> u64 {
        self.shard_size.unwrap_or(1)
    }

    /// The number of worker threads actually spawned for `scheduled` trials:
    /// the configured count, clamped so no worker exists without enough work
    /// to amortise its channel traffic.
    ///
    /// Two clamps beyond the obvious `min(scheduled)`:
    ///
    /// * **Physical cores** — threads beyond the machine's available
    ///   parallelism time-slice the same cores; they add channel and queue
    ///   traffic without adding throughput, so on a single-core host a batch
    ///   run at 4 threads is *slower* than at 1.
    /// * **Flush chunks** — cheap trials are delivered in chunks of
    ///   [`FLUSH_TRIALS`], so a batch of `scheduled` trials holds at most
    ///   `⌈scheduled / FLUSH_TRIALS⌉` chunks of per-worker work worth
    ///   parallelising; more workers than chunks would split a batch of
    ///   cheap trials into sub-chunk messages (and spend a thread start on
    ///   each). Expensive trials flush one by one ([`FLUSH_EVENTS`]), but
    ///   that is only known once they have run, so the clamp counts chunks
    ///   of cheap trials.
    ///
    /// When the clamp leaves a single worker the stream runs sequentially on
    /// the consuming thread, with no queue or channel at all.
    pub fn effective_workers(&self, scheduled: u64) -> usize {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let chunks = scheduled.div_ceil(FLUSH_TRIALS).max(1);
        self.threads
            .min(cores)
            .min(chunks.min(usize::MAX as u64) as usize)
            .min(scheduled.min(usize::MAX as u64) as usize)
            .max(1)
    }
}

/// How many completed trials a parallel worker accumulates before flushing
/// them to the consumer in a single channel message.
///
/// This decouples *delivery* granularity from *load-balancing* granularity
/// (the claim size): per-trial sends cost more than a cheap trial itself,
/// so cheap trials travel in chunks.
pub const FLUSH_TRIALS: u64 = 16;

/// The summed [`RunReport::events`] at which a parallel worker flushes its
/// chunk early, before it holds [`FLUSH_TRIALS`] reports.
///
/// A few hundred microseconds of jump-chain work: a channel message costs a
/// few microseconds, so a chunk this large amortises it, while an expensive
/// trial — one that alone passes the mark — reaches the consumer as soon as
/// it finishes. That is what lets an early-stopping consumer halt the
/// workers after the deciding trial instead of after a chunk per worker.
/// The batched protocol backends count interactions, far more than the work
/// they do, so their trials flush one by one; each such trial still costs
/// well over a message.
pub const FLUSH_EVENTS: u64 = 1 << 13;

/// A lock-free dispenser of dynamic trial shards.
///
/// Workers repeatedly [`claim`](ShardQueue::claim) the next contiguous chunk
/// of trial indices until the queue is exhausted or
/// [`halt`](ShardQueue::halt)ed. This replaces static per-worker ranges:
/// a worker that finishes early simply claims more work.
#[derive(Debug)]
pub struct ShardQueue {
    next: AtomicU64,
    trials: u64,
    shard: u64,
    halted: AtomicBool,
}

impl ShardQueue {
    /// A queue over trials `0..trials` handed out in chunks of `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard == 0`.
    pub fn new(trials: u64, shard: u64) -> Self {
        assert!(shard > 0, "shards must hold at least one trial");
        ShardQueue {
            next: AtomicU64::new(0),
            trials,
            shard,
            halted: AtomicBool::new(false),
        }
    }

    /// Claims the next shard of trial indices, or `None` when the queue is
    /// exhausted or halted.
    pub fn claim(&self) -> Option<Range<u64>> {
        if self.is_halted() {
            return None;
        }
        let start = self.next.fetch_add(self.shard, Ordering::AcqRel);
        if start >= self.trials {
            return None;
        }
        Some(start..(start + self.shard).min(self.trials))
    }

    /// Stops the queue: every subsequent [`claim`](ShardQueue::claim)
    /// returns `None`. Used by early stopping.
    pub fn halt(&self) {
        self.halted.store(true, Ordering::Release);
    }

    /// Whether the queue has been halted.
    pub fn is_halted(&self) -> bool {
        self.halted.load(Ordering::Acquire)
    }
}

/// A statistic over a stream of [`RunReport`]s, folded one trial at a time —
/// the streaming replacement for materialising a `Vec` of outcomes and
/// aggregating it afterwards.
///
/// Implementations must be insensitive to *when* trials arrive but may (and
/// the built-in ones do) depend on their *order*; [`ReportStream`] always
/// delivers trials in index order, so any accumulator folded over it is
/// bit-identical at every thread count.
pub trait OnlineAccumulator {
    /// The finished statistic.
    type Output;

    /// Folds one trial's report into the statistic.
    fn record(&mut self, trial: u64, report: &RunReport);

    /// Number of trials folded so far.
    fn trials(&self) -> u64;

    /// The running success count, when this statistic tracks one — this is
    /// what [`EarlyStop`] watches. The default (`None`) disables early
    /// stopping for the accumulator.
    fn successes(&self) -> Option<u64> {
        None
    }

    /// Finalises the statistic.
    fn finish(self) -> Self::Output;
}

/// Success tallies: how many trials reached consensus with the initial
/// leader winning ([`RunReport::plurality_won`]) — the streaming core of
/// `success_probability`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuccessTally {
    trials: u64,
    successes: u64,
}

impl SuccessTally {
    /// An empty tally.
    pub fn new() -> Self {
        SuccessTally::default()
    }

    /// Number of successful trials so far.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Number of trials folded so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }
}

impl OnlineAccumulator for SuccessTally {
    type Output = SuccessTally;

    fn record(&mut self, _trial: u64, report: &RunReport) {
        self.trials += 1;
        self.successes += u64::from(report.plurality_won());
    }

    fn trials(&self) -> u64 {
        self.trials
    }

    fn successes(&self) -> Option<u64> {
        Some(self.successes)
    }

    fn finish(self) -> SuccessTally {
        self
    }
}

/// Welford's online mean and variance: numerically stable single-pass
/// moments, the building block of the streaming accumulators.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty aggregate.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Folds one observation in.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean (`0.0` over the empty sample, matching the
    /// workspace's batch statistics convention).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The population variance (`0.0` for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// The sample (Bessel-corrected) variance.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// The population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Welford moments of the consensus observables over a streamed batch:
/// event counts (the paper's consensus time `T(S)`) and extinction times
/// (the backend clock at the stop), over completed trials.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunMoments {
    trials: u64,
    completed: u64,
    truncated: u64,
    events: Welford,
    time: Welford,
}

impl RunMoments {
    /// An empty aggregate.
    pub fn new() -> Self {
        RunMoments::default()
    }

    /// Number of trials folded so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of completed (consensus-reaching) trials.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of truncated trials.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Moments of the consensus event count over completed trials.
    pub fn events(&self) -> &Welford {
        &self.events
    }

    /// Moments of the stop-time (extinction time for consensus runs) over
    /// completed trials.
    pub fn time(&self) -> &Welford {
        &self.time
    }
}

impl OnlineAccumulator for RunMoments {
    type Output = RunMoments;

    fn record(&mut self, _trial: u64, report: &RunReport) {
        self.trials += 1;
        if report.truncated() {
            self.truncated += 1;
        }
        if report.consensus_reached() {
            self.completed += 1;
            self.events.push(report.events as f64);
            self.time.push(report.time);
        }
    }

    fn trials(&self) -> u64 {
        self.trials
    }

    fn finish(self) -> RunMoments {
        self
    }
}

/// Per-species plurality tallies over a streamed `k`-species batch: who won
/// each completed trial, how often the initial leader prevailed, how often
/// nobody survived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PluralityTally {
    species: usize,
    trials: u64,
    completed: u64,
    truncated: u64,
    wins: Vec<u64>,
    no_survivor: u64,
    leader_wins: u64,
}

impl PluralityTally {
    /// An empty tally over `species` species.
    pub fn new(species: usize) -> Self {
        PluralityTally {
            species,
            wins: vec![0; species],
            ..PluralityTally::default()
        }
    }

    /// Number of species.
    pub fn species(&self) -> usize {
        self.species
    }

    /// Number of trials folded so far.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Number of completed (consensus-reaching) trials.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of truncated trials.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Completed trials won by each species, indexed by species.
    pub fn wins(&self) -> &[u64] {
        &self.wins
    }

    /// Completed trials in which every species went extinct.
    pub fn no_survivor(&self) -> u64 {
        self.no_survivor
    }

    /// Completed trials won by the initial plurality leader.
    pub fn leader_wins(&self) -> u64 {
        self.leader_wins
    }
}

impl OnlineAccumulator for PluralityTally {
    type Output = PluralityTally;

    fn record(&mut self, _trial: u64, report: &RunReport) {
        debug_assert_eq!(report.species_count(), self.species);
        self.trials += 1;
        if report.truncated() {
            self.truncated += 1;
        }
        if report.consensus_reached() {
            self.completed += 1;
            match report.final_state.winner() {
                Some(winner) => self.wins[winner] += 1,
                None => self.no_survivor += 1,
            }
            if report.plurality_won() {
                self.leader_wins += 1;
            }
        }
    }

    fn trials(&self) -> u64 {
        self.trials
    }

    fn successes(&self) -> Option<u64> {
        Some(self.leader_wins)
    }

    fn finish(self) -> PluralityTally {
        self
    }
}

/// A sequential early-stopping rule: end the stream once the Wilson score
/// confidence interval of the success probability is narrower than a target
/// half-width, or — when a decision [`boundary`](EarlyStop::with_boundary)
/// is set — once the interval clears that boundary entirely.
///
/// The rule is evaluated after every folded trial, in trial order, so the
/// stopping point — and therefore the reported estimate — is identical at
/// every thread count. Because the Wilson half-width at the moment the rule
/// fires is at most the target, an early-stopped estimate never reports a
/// wider interval than requested.
///
/// The boundary mode is what adaptive threshold probes use: a probe far
/// from the threshold has a success probability far from the target, so the
/// interval stops straddling the boundary after a handful of trials, while
/// a probe near the threshold keeps sampling until the width target or the
/// trial budget binds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    target_half_width: f64,
    z: f64,
    min_trials: u64,
    boundary: Option<f64>,
}

impl EarlyStop {
    /// Stop once the Wilson half-width at `z = 1.96` (95%) is at most
    /// `target_half_width`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_half_width < 1`.
    pub fn at_half_width(target_half_width: f64) -> Self {
        assert!(
            target_half_width > 0.0 && target_half_width < 1.0,
            "the target half-width must be in (0, 1)"
        );
        EarlyStop {
            target_half_width,
            z: 1.96,
            min_trials: 1,
            boundary: None,
        }
    }

    /// Additionally stop as soon as the Wilson interval lies entirely above
    /// or entirely below `boundary` — i.e. as soon as the sample *decides*
    /// whether the success probability clears the boundary, regardless of
    /// how wide the interval still is.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < boundary < 1`.
    pub fn with_boundary(mut self, boundary: f64) -> Self {
        assert!(
            boundary > 0.0 && boundary < 1.0,
            "the decision boundary must be in (0, 1)"
        );
        self.boundary = Some(boundary);
        self
    }

    /// Replaces the z-value (1.96 for 95%, 2.576 for 99%).
    ///
    /// # Panics
    ///
    /// Panics if `z` is not a positive finite number.
    pub fn with_z(mut self, z: f64) -> Self {
        assert!(z.is_finite() && z > 0.0, "z must be a positive number");
        self.z = z;
        self
    }

    /// Requires at least `min_trials` trials before the rule may fire.
    pub fn with_min_trials(mut self, min_trials: u64) -> Self {
        self.min_trials = min_trials.max(1);
        self
    }

    /// The target half-width.
    pub fn target_half_width(&self) -> f64 {
        self.target_half_width
    }

    /// The decision boundary, when one is set.
    pub fn boundary(&self) -> Option<f64> {
        self.boundary
    }

    /// The Wilson score half-width of `successes / trials` at this rule's
    /// z-value (the same interval `lv_sim::SuccessEstimate` reports).
    pub fn half_width(&self, successes: u64, trials: u64) -> f64 {
        crate::wilson::half_width(successes, trials, self.z)
    }

    /// The Wilson score interval of `successes / trials` at this rule's
    /// z-value, clamped to `[0, 1]` (`(0, 1)` over the empty sample).
    pub fn interval(&self, successes: u64, trials: u64) -> (f64, f64) {
        crate::wilson::interval(successes, trials, self.z)
    }

    /// Whether the rule fires for the given running tally: the half-width
    /// target is met, or (in boundary mode) the interval no longer
    /// straddles the decision boundary.
    pub fn satisfied(&self, successes: u64, trials: u64) -> bool {
        if trials < self.min_trials {
            return false;
        }
        if self.half_width(successes, trials) <= self.target_half_width {
            return true;
        }
        match self.boundary {
            Some(boundary) => {
                let (low, high) = self.interval(successes, trials);
                low > boundary || high < boundary
            }
            None => false,
        }
    }
}

/// A progress snapshot handed to the callback of
/// [`ReportStream::fold_with`] after every folded trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Trials folded so far.
    pub trials: u64,
    /// Trials originally scheduled (early stopping may end the stream
    /// before reaching this).
    pub scheduled: u64,
    /// The running success count, when the accumulator tracks one.
    pub successes: Option<u64>,
}

enum StreamInner {
    /// Single-threaded: trials run lazily, one per `next()` call.
    Sequential {
        scenario: Arc<Scenario>,
        backend: &'static dyn Backend,
        rng_for_trial: TrialRngFactory,
    },
    /// A deterministic backend yields the same report every trial: run it
    /// once, replicate the report (matching the batch runner's behaviour of
    /// executing deterministic backends a single time).
    Deterministic { report: RunReport },
    /// Multi-threaded execution feeding a reorder buffer. Each channel
    /// message is one flushed chunk of a worker: up to [`FLUSH_TRIALS`]
    /// `(trial, report)` pairs, in the order the worker ran them.
    Parallel {
        receiver: Receiver<Vec<(u64, RunReport)>>,
        pending: BTreeMap<u64, RunReport>,
        queue: Arc<ShardQueue>,
        workers: Vec<JoinHandle<()>>,
        /// The first worker panic, caught on the worker so the queue halts
        /// *immediately* (instead of the surviving workers burning through
        /// every remaining trial) and re-raised on the consuming thread.
        panic: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>>,
    },
}

/// An iterator over `(trial, RunReport)` pairs of a streamed batch, in
/// strict trial order.
///
/// Trials execute on worker threads claiming them one at a time from a
/// [`ShardQueue`] and may *finish* in any order; a reorder buffer on the
/// consuming side restores index order before yielding. Combined with the
/// per-trial RNG contract of [`TrialRngFactory`], every fold over the stream
/// is bit-identical regardless of thread count or scheduling. No batch is
/// ever materialised, no matter how slow the consumer: reports travel as
/// `(trial, report)` chunks through a *bounded* channel, so workers block on
/// a full channel instead of racing ahead, and the reorder buffer only ever
/// holds the few chunks in flight. A chunk is flushed at [`FLUSH_TRIALS`]
/// reports or [`FLUSH_EVENTS`] summed events, whichever comes first: a send
/// per cheap trial costs more than the trial itself, while an expensive
/// trial held back for a full chunk would delay an early stop by a chunk
/// per worker.
///
/// Dropping the stream halts the queue and joins the workers. A panic on a
/// worker thread halts the queue; every worker still delivers the trials it
/// completed, and the panic is re-raised on the consuming thread once the
/// stream reaches the first trial left unrun — the panicked one, or an
/// earlier trial the halt kept a worker from starting.
pub struct ReportStream {
    inner: StreamInner,
    /// Next trial index to yield.
    next: u64,
    /// Total trials scheduled.
    scheduled: u64,
    /// Set once the stream has been halted (early stop).
    halted: bool,
}

impl std::fmt::Debug for ReportStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReportStream")
            .field("next", &self.next)
            .field("scheduled", &self.scheduled)
            .field("halted", &self.halted)
            .finish()
    }
}

impl ReportStream {
    /// Starts streaming `config.trials()` runs of the scenario on the given
    /// backend. Trial `i` draws its randomness from `rng_for_trial(i)`.
    ///
    /// Deterministic backends (the ODE) execute once — on
    /// `rng_for_trial(0)`, which they ignore — and the single report is
    /// yielded for every trial slot. Single-threaded configurations run
    /// trials lazily on the consuming thread, one per `next()` call.
    pub fn new(
        scenario: &Scenario,
        backend: &'static dyn Backend,
        config: StreamConfig,
        rng_for_trial: TrialRngFactory,
    ) -> Self {
        let scheduled = config.trials();
        if backend.deterministic() {
            let mut rng = rng_for_trial(0);
            let report = backend.run(scenario, &mut rng);
            return ReportStream {
                inner: StreamInner::Deterministic { report },
                next: 0,
                scheduled,
                halted: false,
            };
        }
        let threads = config.effective_workers(scheduled);
        if threads == 1 {
            return ReportStream {
                inner: StreamInner::Sequential {
                    scenario: Arc::new(scenario.clone()),
                    backend,
                    rng_for_trial,
                },
                next: 0,
                scheduled,
                halted: false,
            };
        }
        let shard = config.effective_shard_size();
        let queue = Arc::new(ShardQueue::new(scheduled, shard));
        // Bounded channel = backpressure: a consumer slower than the worker
        // pool makes the workers block on `send` instead of racing ahead and
        // buffering the whole batch. Messages are chunks of up to
        // FLUSH_TRIALS reports, so two slots per worker cap in-flight
        // reports at a few chunks per worker.
        let (sender, receiver) = bounded(threads * 2);
        // Build the scenario's CRN form once, before the workers clone the
        // Arc, so the reaction network is shared instead of rebuilt per
        // thread (protocol backends have no CRN form; skip for them).
        let scenario = Arc::new(scenario.clone());
        if backend.models_kinetics() {
            let _ = scenario.crn_form();
        }
        let panic: Arc<Mutex<Option<Box<dyn std::any::Any + Send>>>> = Arc::new(Mutex::new(None));
        let workers = (0..threads)
            .map(|_| {
                let scenario = Arc::clone(&scenario);
                let queue = Arc::clone(&queue);
                let rng_for_trial = Arc::clone(&rng_for_trial);
                let sender: Sender<Vec<(u64, RunReport)>> = sender.clone();
                let panic = Arc::clone(&panic);
                std::thread::spawn(move || {
                    let mut chunk = Vec::with_capacity(FLUSH_TRIALS as usize);
                    let mut chunk_events = 0u64;
                    'claims: while let Some(shard) = queue.claim() {
                        for trial in shard {
                            if queue.is_halted() {
                                // Halted mid-shard: leave through the final
                                // flush below, so a panic elsewhere still
                                // finds this worker's completed trials
                                // delivered (after an early stop or a drop
                                // the consumer just discards them).
                                break 'claims;
                            }
                            // Catch backend panics here rather than letting
                            // the thread die: the queue halts at once (so the
                            // surviving workers stop claiming trials instead
                            // of running — and buffering — the whole rest of
                            // the batch) and the payload is re-raised on the
                            // consuming thread.
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    let mut rng = rng_for_trial(trial);
                                    backend.run(&scenario, &mut rng)
                                }));
                            match result {
                                Ok(report) => {
                                    chunk_events = chunk_events.saturating_add(report.events);
                                    chunk.push((trial, report));
                                }
                                Err(payload) => {
                                    queue.halt();
                                    // Deliver the completed trials — the
                                    // consumer folds them in order up to the
                                    // first trial left unrun before
                                    // re-raising.
                                    if !chunk.is_empty() {
                                        let _ = sender.send(chunk);
                                    }
                                    let mut slot =
                                        panic.lock().unwrap_or_else(|poison| poison.into_inner());
                                    slot.get_or_insert(payload);
                                    return;
                                }
                            }
                            // Flush on whichever comes first: FLUSH_TRIALS
                            // reports (per-trial sends cost more than a cheap
                            // trial — the 512-trial batch-streaming bench
                            // regressed 4-thread vs 1-thread on them) or
                            // FLUSH_EVENTS of work (an expensive trial must
                            // reach an early-stopping consumer at once).
                            if chunk.len() as u64 == FLUSH_TRIALS || chunk_events >= FLUSH_EVENTS {
                                let full = std::mem::replace(
                                    &mut chunk,
                                    Vec::with_capacity(FLUSH_TRIALS as usize),
                                );
                                if sender.send(full).is_err() {
                                    // Receiver gone: the stream was dropped.
                                    return;
                                }
                                chunk_events = 0;
                            }
                        }
                    }
                    if !chunk.is_empty() {
                        let _ = sender.send(chunk);
                    }
                })
            })
            .collect();
        ReportStream {
            inner: StreamInner::Parallel {
                receiver,
                pending: BTreeMap::new(),
                queue,
                workers,
                panic,
            },
            next: 0,
            scheduled,
            halted: false,
        }
    }

    /// Trials originally scheduled.
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Trials yielded so far.
    pub fn yielded(&self) -> u64 {
        self.next
    }

    /// Stops the stream: in-flight and unclaimed trials are discarded and
    /// the iterator ends. Used by early stopping; idempotent.
    pub fn halt(&mut self) {
        self.halted = true;
        if let StreamInner::Parallel { queue, .. } = &self.inner {
            queue.halt();
        }
    }

    /// Joins the parallel workers, re-raising the first worker panic
    /// (whether caught into the panic slot or propagated through a handle).
    fn join_workers(&mut self) {
        if let StreamInner::Parallel { workers, panic, .. } = &mut self.inner {
            let mut first = None;
            for worker in workers.drain(..) {
                if let Err(payload) = worker.join() {
                    first.get_or_insert(payload);
                }
            }
            let caught = panic
                .lock()
                .unwrap_or_else(|poison| poison.into_inner())
                .take();
            if let Some(payload) = caught.or(first) {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Folds the whole stream into the accumulator.
    pub fn fold<A: OnlineAccumulator>(self, accumulator: A) -> A {
        self.fold_with(accumulator, None, |_| {})
    }

    /// Folds the stream into the accumulator with an optional early-stopping
    /// rule and a per-trial progress callback.
    ///
    /// The rule is checked after every folded trial against the
    /// accumulator's [`successes`](OnlineAccumulator::successes) tally (it
    /// never fires for accumulators that report `None`); when it fires the
    /// stream is halted and the accumulator — whose
    /// [`trials`](OnlineAccumulator::trials) then reports the *actual* trial
    /// count — is returned.
    pub fn fold_with<A, P>(
        mut self,
        mut accumulator: A,
        early: Option<EarlyStop>,
        mut progress: P,
    ) -> A
    where
        A: OnlineAccumulator,
        P: FnMut(Progress),
    {
        let scheduled = self.scheduled;
        while let Some((trial, report)) = self.next() {
            accumulator.record(trial, &report);
            progress(Progress {
                trials: accumulator.trials(),
                scheduled,
                successes: accumulator.successes(),
            });
            if let (Some(rule), Some(successes)) = (&early, accumulator.successes()) {
                if rule.satisfied(successes, accumulator.trials()) {
                    self.halt();
                    break;
                }
            }
        }
        accumulator
    }
}

impl Iterator for ReportStream {
    type Item = (u64, RunReport);

    fn next(&mut self) -> Option<(u64, RunReport)> {
        if self.halted || self.next >= self.scheduled {
            return None;
        }
        let trial = self.next;
        // A panic caught on the sequential path, re-raised below once the
        // borrow of `inner` ends and the stream is marked halted (so a
        // caller that catches the panic sees an ended stream, exactly like
        // the parallel path).
        let mut sequential_panic: Option<Box<dyn std::any::Any + Send>> = None;
        let report = match &mut self.inner {
            StreamInner::Sequential {
                scenario,
                backend,
                rng_for_trial,
            } => {
                let mut rng = rng_for_trial(trial);
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    backend.run(scenario, &mut rng)
                })) {
                    Ok(report) => Some(report),
                    Err(payload) => {
                        sequential_panic = Some(payload);
                        None
                    }
                }
            }
            StreamInner::Deterministic { report } => Some(report.clone()),
            StreamInner::Parallel {
                receiver, pending, ..
            } => loop {
                if let Some(report) = pending.remove(&trial) {
                    break Some(report);
                }
                match receiver.recv() {
                    Ok(chunk) => {
                        for (done, report) in chunk {
                            debug_assert!(done >= trial, "trial {done} delivered twice");
                            pending.insert(done, report);
                        }
                    }
                    // Every sender hung up with trials still owed: a worker
                    // must have panicked — re-raise it below, outside this
                    // borrow of `inner`.
                    Err(_) => break None,
                }
            },
        };
        if let Some(payload) = sequential_panic {
            self.halted = true;
            std::panic::resume_unwind(payload);
        }
        let Some(report) = report else {
            // Every sender hung up with trials still owed: a worker panicked
            // and halted the queue. `join_workers` re-raises the payload; if
            // it was already consumed by an earlier call, the stream is
            // simply over.
            self.join_workers();
            self.halted = true;
            return None;
        };
        self.next += 1;
        Some((trial, report))
    }
}

impl Drop for ReportStream {
    fn drop(&mut self) {
        self.halt();
        if let StreamInner::Parallel {
            receiver, workers, ..
        } = &mut self.inner
        {
            // Drain the channel first: a worker blocked on a full bounded
            // channel must be released before it can observe the halt and
            // exit (each worker sends at most one more chunk after the
            // halt, then drops its sender, ending this loop).
            while receiver.recv().is_ok() {}
            // Reap the workers, swallowing panics (they were either already
            // re-raised by `next`, or the stream was deliberately
            // abandoned).
            for worker in workers.drain(..) {
                let _ = worker.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::backend;
    use lv_lotka::{CompetitionKind, LvModel};
    use rand::SeedableRng;

    fn factory(root: u64) -> TrialRngFactory {
        Arc::new(move |trial| StdRng::seed_from_u64(root ^ (trial.wrapping_mul(0x9E37_79B9))))
    }

    fn scenario() -> Scenario {
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        Scenario::majority(model, 60, 40)
    }

    #[test]
    fn shard_queue_hands_out_every_trial_exactly_once() {
        let queue = ShardQueue::new(103, 10);
        let mut seen = [false; 103];
        while let Some(range) = queue.claim() {
            for trial in range {
                assert!(!seen[trial as usize], "trial {trial} claimed twice");
                seen[trial as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some trial was never claimed");
    }

    #[test]
    fn halted_queue_stops_claiming() {
        let queue = ShardQueue::new(100, 7);
        assert!(queue.claim().is_some());
        queue.halt();
        assert!(queue.is_halted());
        assert!(queue.claim().is_none());
    }

    #[test]
    fn stream_yields_trials_in_order_at_every_thread_count() {
        let scenario = scenario();
        let backend = backend("jump-chain").unwrap();
        let sequential: Vec<(u64, RunReport)> = ReportStream::new(
            &scenario,
            backend,
            StreamConfig::new(24).with_threads(1),
            factory(1),
        )
        .collect();
        assert_eq!(sequential.len(), 24);
        for threads in [2, 4, 8] {
            let parallel: Vec<(u64, RunReport)> = ReportStream::new(
                &scenario,
                backend,
                StreamConfig::new(24)
                    .with_threads(threads)
                    .with_shard_size(3),
                factory(1),
            )
            .collect();
            assert_eq!(parallel, sequential, "{threads} threads diverged");
        }
        for (index, (trial, _)) in sequential.iter().enumerate() {
            assert_eq!(*trial, index as u64);
        }
    }

    #[test]
    fn deterministic_backends_run_once_and_replicate() {
        let stream = ReportStream::new(
            &scenario(),
            backend("ode").unwrap(),
            StreamConfig::new(50).with_threads(8),
            factory(2),
        );
        let reports: Vec<(u64, RunReport)> = stream.collect();
        assert_eq!(reports.len(), 50);
        assert!(reports.windows(2).all(|w| w[0].1 == w[1].1));
    }

    #[test]
    fn welford_matches_two_pass_reference() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut welford = Welford::new();
        for v in values {
            welford.push(v);
        }
        assert!((welford.mean() - 5.0).abs() < 1e-12);
        assert!((welford.variance() - 4.0).abs() < 1e-12);
        assert!((welford.std_dev() - 2.0).abs() < 1e-12);
        assert!((welford.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(Welford::new().mean(), 0.0);
        assert_eq!(Welford::new().variance(), 0.0);
    }

    #[test]
    fn run_moments_track_completed_trials() {
        let stream = ReportStream::new(
            &scenario(),
            backend("jump-chain").unwrap(),
            StreamConfig::new(32).with_threads(4),
            factory(3),
        );
        let moments = stream.fold(RunMoments::new());
        assert_eq!(moments.trials(), 32);
        assert_eq!(moments.completed(), 32);
        assert_eq!(moments.truncated(), 0);
        assert!(moments.events().mean() > 0.0);
        assert!(moments.events().variance() > 0.0);
        assert_eq!(moments.events().count(), 32);
    }

    #[test]
    fn early_stop_halts_the_stream_and_meets_its_target() {
        // A 4:1 majority wins essentially always: the half-width shrinks
        // fast, so a loose target stops long before 100 000 trials.
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        let scenario = Scenario::majority(model, 80, 20);
        let rule = EarlyStop::at_half_width(0.08).with_min_trials(8);
        let stream = ReportStream::new(
            &scenario,
            backend("jump-chain").unwrap(),
            StreamConfig::new(100_000).with_threads(4),
            factory(4),
        );
        let tally = stream.fold_with(SuccessTally::new(), Some(rule), |_| {});
        assert!(tally.trials() >= 8);
        assert!(
            tally.trials() < 1_000,
            "early stopping never fired ({} trials)",
            tally.trials()
        );
        assert!(rule.half_width(tally.successes(), tally.trials()) <= 0.08);
    }

    #[test]
    fn early_stopped_trial_count_is_thread_invariant() {
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        let scenario = Scenario::majority(model, 60, 50);
        let rule = EarlyStop::at_half_width(0.15).with_min_trials(4);
        let run = |threads| {
            ReportStream::new(
                &scenario,
                backend("jump-chain").unwrap(),
                StreamConfig::new(50_000).with_threads(threads),
                factory(5),
            )
            .fold_with(SuccessTally::new(), Some(rule), |_| {})
        };
        let single = run(1);
        assert_eq!(single, run(2));
        assert_eq!(single, run(8));
        assert!(single.trials() < 50_000, "rule never fired");
    }

    #[test]
    fn progress_callback_sees_every_folded_trial() {
        let stream = ReportStream::new(
            &scenario(),
            backend("jump-chain").unwrap(),
            StreamConfig::new(16).with_threads(2),
            factory(6),
        );
        let mut seen = Vec::new();
        let _ = stream.fold_with(SuccessTally::new(), None, |p| seen.push(p));
        assert_eq!(seen.len(), 16);
        assert_eq!(seen.last().unwrap().trials, 16);
        assert!(seen.iter().all(|p| p.scheduled == 16));
        assert!(seen.windows(2).all(|w| w[1].trials == w[0].trials + 1));
    }

    #[test]
    fn plurality_tally_counts_wins_per_species() {
        use lv_lotka::MultiLvModel;
        let model = MultiLvModel::symmetric(CompetitionKind::SelfDestructive, 3, 1.0, 1.0, 1.0);
        let scenario = Scenario::plurality(model, vec![60, 20, 20]);
        let stream = ReportStream::new(
            &scenario,
            backend("jump-chain").unwrap(),
            StreamConfig::new(40).with_threads(4),
            factory(7),
        );
        let tally = stream.fold(PluralityTally::new(3));
        assert_eq!(tally.trials(), 40);
        assert_eq!(tally.species(), 3);
        assert_eq!(
            tally.wins().iter().sum::<u64>() + tally.no_survivor(),
            tally.completed()
        );
        assert!(tally.leader_wins() > tally.completed() / 2);
    }

    #[test]
    fn halt_mid_iteration_discards_the_tail() {
        let mut stream = ReportStream::new(
            &scenario(),
            backend("jump-chain").unwrap(),
            StreamConfig::new(1_000).with_threads(4),
            factory(8),
        );
        for _ in 0..5 {
            assert!(stream.next().is_some());
        }
        stream.halt();
        assert_eq!(stream.next(), None);
        assert_eq!(stream.yielded(), 5);
        assert_eq!(stream.scheduled(), 1_000);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = StreamConfig::new(0);
    }

    #[test]
    fn worker_panics_halt_the_queue_and_reach_the_consumer() {
        struct Exploding;
        impl Backend for Exploding {
            fn name(&self) -> &'static str {
                "exploding-test"
            }
            fn description(&self) -> &'static str {
                "panics on every run"
            }
            fn run(&self, _scenario: &Scenario, _rng: &mut StdRng) -> RunReport {
                panic!("backend exploded")
            }
        }
        let backend: &'static dyn Backend = Box::leak(Box::new(Exploding));
        let mut stream = ReportStream::new(
            &scenario(),
            backend,
            StreamConfig::new(10_000).with_threads(4),
            factory(9),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stream.next()));
        let payload = result.expect_err("the worker panic must reach the consumer");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"backend exploded"),
            "unexpected panic payload"
        );
        // The queue was halted by the panicking worker, so the surviving
        // workers did not burn through (and buffer) the remaining trials.
        assert!(stream.next().is_none());
    }

    #[test]
    fn a_worker_panic_still_delivers_the_trials_completed_before_it() {
        use std::cell::Cell;
        use std::time::{Duration, Instant};

        thread_local! {
            /// The trial whose RNG this thread was handed last.
            static TRIAL: Cell<u64> = const { Cell::new(0) };
        }

        const SHARD: u64 = 4;

        /// Trial 0 waits until trial `SHARD` — the first of the second
        /// shard — has started, so the two shards run on different workers.
        /// Trial `SHARD` panics once every earlier trial has finished, and
        /// trial `2 × SHARD` waits for that panic: the worker that ran the
        /// first shard sees the halt in the middle of its next shard while
        /// still holding the first shard's reports.
        struct PanicsAfterTheFirstShard {
            second_started: AtomicBool,
            finished: AtomicU64,
            panicked: AtomicBool,
        }
        impl Backend for PanicsAfterTheFirstShard {
            fn name(&self) -> &'static str {
                "panics-after-the-first-shard-test"
            }
            fn description(&self) -> &'static str {
                "jump-chain runs, then a panic at the second shard"
            }
            fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
                let trial = TRIAL.with(Cell::get);
                // The deadline turns a broken interleaving into a failed
                // assertion instead of a hang.
                let deadline = Instant::now() + Duration::from_secs(2);
                let wait_for = |done: &dyn Fn() -> bool| {
                    while !done() && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                };
                if trial == 0 {
                    wait_for(&|| self.second_started.load(Ordering::SeqCst));
                }
                if trial == SHARD {
                    self.second_started.store(true, Ordering::SeqCst);
                    wait_for(&|| self.finished.load(Ordering::SeqCst) >= SHARD);
                    self.panicked.store(true, Ordering::SeqCst);
                    panic!("backend exploded");
                }
                if trial == 2 * SHARD {
                    wait_for(&|| self.panicked.load(Ordering::SeqCst));
                    // Let the panicking worker's halt land.
                    std::thread::sleep(Duration::from_millis(50));
                }
                let report = backend("jump-chain").unwrap().run(scenario, rng);
                if trial < SHARD {
                    self.finished.fetch_add(1, Ordering::SeqCst);
                }
                report
            }
        }

        let backend: &'static dyn Backend = Box::leak(Box::new(PanicsAfterTheFirstShard {
            second_started: AtomicBool::new(false),
            finished: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
        }));
        let rngs: TrialRngFactory = Arc::new(|trial| {
            TRIAL.with(|t| t.set(trial));
            StdRng::seed_from_u64(trial)
        });
        let mut stream = ReportStream::new(
            &scenario(),
            backend,
            StreamConfig::new(64).with_threads(2).with_shard_size(SHARD),
            rngs,
        );
        let mut folded = Vec::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for (trial, _) in stream.by_ref() {
                folded.push(trial);
            }
        }));
        assert!(result.is_err(), "the worker panic must reach the consumer");
        assert_eq!(
            folded,
            (0..SHARD).collect::<Vec<_>>(),
            "the trials completed before the panicked one must all be folded"
        );
    }

    #[test]
    fn speculation_past_an_early_stop_stays_bounded() {
        use lv_crn::StopReason;
        use rand::Rng;
        use std::cell::Cell;
        use std::sync::Condvar;
        use std::time::Duration;

        thread_local! {
            /// The trial whose RNG this thread was handed last: the stream
            /// asks for a trial's RNG on the thread that then runs it.
            static TRIAL: Cell<u64> = const { Cell::new(0) };
        }

        /// How many trials past the consumer's fold a run may finish.
        const AHEAD: u64 = 2;

        /// Every run reports more than `FLUSH_EVENTS` events and a win of
        /// the initial leader, and is counted. Trial `t` finishes only once
        /// the consumer has folded `t − AHEAD` trials: the gate pins the
        /// interleaving, so the trials run past the stop depend on the
        /// stream's claiming and flushing alone, not on thread scheduling.
        struct Gated {
            runs: AtomicU64,
            folded: Mutex<u64>,
            moved: Condvar,
        }
        impl Gated {
            fn fold(&self, folded: u64) {
                *self.folded.lock().expect("gate lock") = folded;
                self.moved.notify_all();
            }
        }
        impl Backend for Gated {
            fn name(&self) -> &'static str {
                "gated-test"
            }
            fn description(&self) -> &'static str {
                "expensive, always-won trials gated on the consumer's progress"
            }
            fn run(&self, scenario: &Scenario, rng: &mut StdRng) -> RunReport {
                self.runs.fetch_add(1, Ordering::Relaxed);
                let trial = TRIAL.with(Cell::get);
                // The timeout turns a stream that withholds finished trials
                // into a failed bound instead of a hang.
                let gate = self.folded.lock().expect("gate lock");
                let _gate = self
                    .moved
                    .wait_timeout_while(gate, Duration::from_secs(2), |folded| {
                        trial.saturating_sub(AHEAD) > *folded
                    })
                    .expect("gate lock");
                let events = FLUSH_EVENTS + rng.gen_range(0..1_000u64);
                let mut survivor = vec![0; scenario.species_count()];
                survivor[scenario.initial().leader().expect("a leader")] = 1;
                RunReport::new(
                    self.name(),
                    scenario.initial().clone(),
                    lv_lotka::Population::new(survivor),
                    StopReason::ConditionMet,
                    events,
                    events,
                    events as f64,
                    Vec::new(),
                )
            }
        }

        // Every trial succeeds, so the rule fires exactly at trial `k`.
        let k = 20;
        let rule = EarlyStop::at_half_width(0.5).with_min_trials(k);
        let run = |threads: usize, shard: Option<u64>| {
            let backend: &'static Gated = Box::leak(Box::new(Gated {
                runs: AtomicU64::new(0),
                folded: Mutex::new(0),
                moved: Condvar::new(),
            }));
            let mut config = StreamConfig::new(10_000).with_threads(threads);
            if let Some(shard) = shard {
                config = config.with_shard_size(shard);
            }
            let rngs: TrialRngFactory = Arc::new(|trial| {
                TRIAL.with(|t| t.set(trial));
                StdRng::seed_from_u64(trial)
            });
            let mut stream = ReportStream::new(&scenario(), backend, config, rngs);
            let mut folded = Vec::new();
            let mut successes = 0;
            for (trial, report) in stream.by_ref() {
                successes += u64::from(report.plurality_won());
                folded.push((trial, report));
                backend.fold(folded.len() as u64);
                if rule.satisfied(successes, folded.len() as u64) {
                    break;
                }
            }
            // The halt `fold_with` makes when its rule fires, before the
            // gate opens: released workers then see it and stop.
            stream.halt();
            backend.fold(u64::MAX);
            drop(stream);
            let workers = config.effective_workers(10_000) as u64;
            (folded, backend.runs.load(Ordering::Relaxed), workers)
        };
        let (sequential, runs, _) = run(1, None);
        assert_eq!(sequential.len() as u64, k);
        assert_eq!(runs, k, "the sequential stream runs no trial past the stop");
        for threads in [2, 4] {
            // Finished trials end at index k + AHEAD, and each worker holds
            // at most one more.
            let (folded, runs, workers) = run(threads, None);
            assert_eq!(folded, sequential, "{threads} threads diverged");
            let bound = k + AHEAD + 1 + workers;
            assert!(
                runs <= bound,
                "{threads} threads ran {runs} trials for an early stop at {k} (bound {bound})"
            );
            for shard in [3, 64] {
                let (folded, _, _) = run(threads, Some(shard));
                assert_eq!(
                    folded, sequential,
                    "{threads} threads, shard {shard} diverged"
                );
            }
        }
    }

    #[test]
    fn boundary_rule_fires_once_the_interval_clears_the_boundary() {
        let rule = EarlyStop::at_half_width(0.001)
            .with_boundary(0.9)
            .with_min_trials(4);
        // 2/10: the interval is far below 0.9 — decided, even though the
        // half-width target is nowhere near met.
        assert!(rule.satisfied(2, 10));
        // 9/10: the interval straddles 0.9 — undecided.
        assert!(!rule.satisfied(9, 10));
        // 100/100: entirely above 0.9 — decided.
        assert!(rule.satisfied(100, 100));
        // Below min_trials the rule never fires.
        assert!(!rule.satisfied(0, 3));
        // The interval accessor brackets the boundary exactly when the rule
        // holds off.
        let (low, high) = rule.interval(9, 10);
        assert!(low < 0.9 && high > 0.9);
        assert_eq!(rule.boundary(), Some(0.9));
        assert_eq!(EarlyStop::at_half_width(0.1).boundary(), None);
    }

    #[test]
    fn boundary_probe_spends_few_trials_far_from_the_threshold() {
        // A 4:1 majority wins nearly always, so an interval that only needs
        // to clear a 0.6 boundary decides within a couple dozen trials.
        let model = LvModel::neutral(CompetitionKind::SelfDestructive, 1.0, 1.0, 1.0);
        let scenario = Scenario::majority(model, 80, 20);
        let rule = EarlyStop::at_half_width(0.001)
            .with_boundary(0.6)
            .with_min_trials(8);
        let stream = ReportStream::new(
            &scenario,
            backend("jump-chain").unwrap(),
            StreamConfig::new(100_000).with_threads(4),
            factory(11),
        );
        let tally = stream.fold_with(SuccessTally::new(), Some(rule), |_| {});
        assert!(tally.trials() >= 8);
        assert!(
            tally.trials() <= 64,
            "decision probe burned {} trials",
            tally.trials()
        );
    }

    #[test]
    #[should_panic(expected = "decision boundary")]
    fn out_of_range_boundaries_are_rejected() {
        let _ = EarlyStop::at_half_width(0.1).with_boundary(1.0);
    }

    #[test]
    fn early_stop_half_width_matches_wilson_formula() {
        let rule = EarlyStop::at_half_width(0.05);
        // 75/100 at z = 1.96: compare against the direct formula.
        let (s, n) = (75u64, 100u64);
        let z = 1.96f64;
        let p = s as f64 / n as f64;
        let denom = 1.0 + z * z / n as f64;
        let expected =
            (z / denom) * (p * (1.0 - p) / n as f64 + z * z / (4.0 * n as f64 * n as f64)).sqrt();
        assert!((rule.half_width(s, n) - expected).abs() < 1e-15);
        assert_eq!(rule.half_width(0, 0), f64::INFINITY);
        assert!(!rule.satisfied(0, 0));
    }
}
