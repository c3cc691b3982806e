//! The in-process search workloads.
//!
//! * `paper-search` — the paper's own experiment (Table 1 row 1): jump-chain
//!   threshold searches on the neutral self-destructive and
//!   non-self-destructive models (β = δ = α = 1) at n ∈ {10³, 10⁴, 10⁵}.
//!   Its time goes to `engine.backend` and `engine.stream`; sampling,
//!   epoch, bridge and server are never touched.
//! * `large-n-protocols` — E16-style searches: batched approximate majority
//!   at n = 10⁵ and the diffusion-bridged Czyzowicz dynamics at
//!   n ∈ {10⁵, 10⁶, 10⁷}. Its time goes to `protocols.epoch`,
//!   `protocols.bridge` and `protocols.sampling`; the jump-chain kernel and
//!   the server are bypassed.
//!
//! A run alternates two phases until `--seconds` have elapsed:
//!
//! * a *pass* runs every search of the workload from scratch (`search_s`,
//!   `trials_per_s`);
//! * *queries*, given [`QUERY_SHARE`] of the time, are small seeded
//!   searches, each asked twice (cold, then warm — an in-process repeat
//!   recomputes, since `ThresholdSearch` keeps no cache), its deciding
//!   probes re-estimated, and a worker pool started [`POOL_STARTS`] times:
//!   the in-process counterparts of the `serve` workload's request kinds.

use crate::layers::{self, Probed, ProtocolCounters, TimingBackend};
use crate::trace::{Breakdown, Tracer};
use crate::{checks, nproc, stats, Args, Outcome, OUT_DIR};
use lv_crn::StopCondition;
use lv_engine::Scenario;
use lv_lotka::{CompetitionKind, LvModel};
use lv_sim::{GapScenario, MonteCarlo, Seed, ThresholdResult, ThresholdSearch, TwoSpeciesGap};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Worker-pool start-ups timed per query.
const POOL_STARTS: usize = 32;

/// Fresh processes the set-up time is the median over.
pub const SETUP_REPEATS: usize = 25;

/// Share of an untraced run's time given to queries.
const QUERY_SHARE: f64 = 0.25;

/// One threshold search.
#[derive(Clone)]
pub struct Job {
    label: String,
    backend: &'static str,
    factory: TwoSpeciesGap,
    trials: u64,
    threads: usize,
}

/// Threads of a query's searches and estimates. On a shared 2-vCPU host
/// the two-thread small searches' latencies swung by up to 2× between
/// runs, their short probes waiting on whichever vCPU the host slowed; on
/// one thread their spread across runs was about half as wide.
const QUERY_THREADS: usize = 1;

pub struct Workload {
    name: String,
    seed: Seed,
    jobs: Vec<Job>,
}

/// The model of the `index`-th small jump-chain search (a query here, a
/// call sequence on `serve`): SD twice, then NSD. An NSD search costs about
/// three times an SD one at the same n, so with equal shares the latency
/// median would fall in the gap between the two clusters and swing from
/// run to run; at 2:1 the p50 lies inside the SD cluster and the p90
/// inside the NSD one.
pub fn query_model(index: u64) -> CompetitionKind {
    if index % 3 == 2 {
        CompetitionKind::NonSelfDestructive
    } else {
        CompetitionKind::SelfDestructive
    }
}

/// `40·n·ln n`, E16's budget for the `O(n log n)`-interaction protocols.
fn nlogn_budget(n: u64) -> u64 {
    ((40.0 * n as f64 * (n as f64).ln()).ceil() as u64).max(100_000)
}

/// `4n²`, E16's budget for the conversion dynamics.
fn conversion_budget(n: u64) -> u64 {
    (4 * n * n).max(100_000)
}

impl Workload {
    pub fn named(name: &str, seed: u64) -> Workload {
        let mut jobs = Vec::new();
        if name == "paper-search" {
            for (kind, tag) in [
                (CompetitionKind::SelfDestructive, "sd"),
                (CompetitionKind::NonSelfDestructive, "nsd"),
            ] {
                let model = LvModel::neutral(kind, 1.0, 1.0, 1.0);
                for n in [1_000u64, 10_000, 100_000] {
                    jobs.push(Job {
                        label: format!("{tag}-n{n}"),
                        backend: "jump-chain",
                        factory: TwoSpeciesGap::new(model, n),
                        trials: 100,
                        threads: nproc(),
                    });
                }
            }
        } else {
            let model = LvModel::default();
            jobs.push(Job {
                label: "approx-majority-n100000".into(),
                backend: "approx-majority",
                factory: TwoSpeciesGap::new(model, 100_000).with_max_events(nlogn_budget(100_000)),
                // At 16 trials/probe a lucky first probe can end the search
                // at ∆ = 2; 32 makes the search path, and so its cost,
                // steady across seeds at about the same cost.
                trials: 32,
                threads: nproc(),
            });
            for n in [100_000u64, 1_000_000, 10_000_000] {
                jobs.push(Job {
                    label: format!("czyzowicz-lv-bridged-n{n}"),
                    backend: "czyzowicz-lv-bridged",
                    factory: TwoSpeciesGap::new(model, n).with_max_events(conversion_budget(n)),
                    trials: 20,
                    threads: nproc(),
                });
            }
        }
        Workload {
            name: name.to_string(),
            seed: Seed::new(seed).derive(name),
            jobs,
        }
    }

    /// The `index`-th query: `paper-search` asks jump-chain searches on the
    /// SD and NSD models ([`query_model`]) at n ∈ [300, 2000] (the `serve`
    /// workload's cold requests); `large-n-protocols` asks bridged searches at
    /// n ∈ {200, 300, 400}, so that their probes pool into few cells for
    /// the a/n law check.
    fn query(&self, index: u64) -> (Job, Seed) {
        let seed = self.seed.derive(&format!("query={index}"));
        let mut rng = seed.rng_for_trial(0);
        let job = if self.name == "paper-search" {
            let kind = query_model(index);
            let n = rng.gen_range(300u64..=2_000);
            Job {
                label: format!("query-{index}-n{n}"),
                backend: "jump-chain",
                factory: TwoSpeciesGap::new(LvModel::neutral(kind, 1.0, 1.0, 1.0), n),
                trials: 100,
                threads: QUERY_THREADS,
            }
        } else {
            let n = 100 * rng.gen_range(2u64..=4);
            Job {
                label: format!("query-{index}-n{n}"),
                backend: "czyzowicz-lv-bridged",
                factory: TwoSpeciesGap::new(LvModel::default(), n)
                    .with_max_events(conversion_budget(n)),
                trials: 20,
                threads: QUERY_THREADS,
            }
        };
        (job, seed)
    }

    fn search(&self, job: &Job, seed: Seed) -> ThresholdSearch {
        ThresholdSearch::new(job.trials, seed)
            .with_threads(job.threads)
            .with_backend(job.backend)
    }
}

/// The process set-up the workload needs before its first search: the
/// backend registry, the process-wide `ln n!` table and, for the batched
/// protocol engines, the `BatchLengthSampler` tables of each population.
pub fn setup(workload: &Workload) {
    std::hint::black_box(lv_protocols::sampling::ln_factorial(2));
    for job in &workload.jobs {
        let backend = lv_engine::backend(job.backend).expect("registered backend");
        if backend.batched() {
            let _ = lv_protocols::sampling::BatchLengthSampler::shared(job.factory.population());
        }
    }
}

/// One trial per search, untimed, after set-up: faults in each kernel's
/// code and data before the first timed search.
fn warm_up(workload: &Workload) {
    let mut rng = workload.seed.derive("warm-up").rng_for_trial(0);
    for job in &workload.jobs {
        let backend = lv_engine::backend(job.backend).expect("registered backend");
        let n = job.factory.population();
        let gap = job.factory.min_gap() + (n / 4 / 2) * job.factory.stride();
        std::hint::black_box(backend.run(&job.factory.scenario(gap), &mut rng));
    }
}

/// Median set-up time over fresh processes: the wall time from spawning
/// this binary in its `--setup-probe` mode, which runs [`setup`] and
/// exits, to its exit.
fn setup_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let status = std::process::Command::new(&exe)
            .args(["--setup-probe", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .status()
            .map_err(|e| format!("setup probe: {e}"))?;
        samples.push(start.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("setup probe exited with {status}"));
        }
    }
    Ok(stats::median(&samples))
}

/// Latency samples of one run, in seconds.
#[derive(Default)]
struct Samples {
    cold: Vec<f64>,
    warm: Vec<f64>,
    estimate: Vec<f64>,
    connect: Vec<f64>,
    /// Wall time and trials of each pass.
    passes: Vec<(f64, u64)>,
    /// Warm requests per second of each query.
    warm_rates: Vec<f64>,
}

/// One recorded cold search.
struct Done {
    job: Job,
    seed: Seed,
    result: ThresholdResult,
    wall_s: f64,
}

/// Searches `job` untraced on its seed for `pass`, timing it.
fn cold_search(workload: &Workload, pass: u64, job: &Job) -> Done {
    let seed = job_seed(workload, pass, job);
    let t = Instant::now();
    let result = workload.search(job, seed).find_gap(&job.factory);
    let wall_s = t.elapsed().as_secs_f64();
    eprintln!(
        "pass {pass} {}: {wall_s:.3} s, threshold {}, {} probes, {} trials",
        job.label,
        result.threshold,
        result.probes.len(),
        result.trials_spent()
    );
    Done {
        job: job.clone(),
        seed,
        result,
        wall_s,
    }
}

fn job_seed(workload: &Workload, pass: u64, job: &Job) -> Seed {
    workload
        .seed
        .derive(&format!("pass={pass}"))
        .derive(&job.label)
}

fn cold_phase(workload: &Workload, pass: u64) -> Vec<Done> {
    workload
        .jobs
        .iter()
        .map(|job| cold_search(workload, pass, job))
        .collect()
}

/// Asks query `index` cold and warm, re-estimates its deciding probes and
/// times worker-pool start-ups; the repeats must reproduce the cold answer.
/// Returns the query's cold answer for the law check.
fn query(workload: &Workload, index: u64, s: &mut Samples, outcome: &mut Outcome) -> Done {
    let (job, seed) = workload.query(index);
    let search = workload.search(&job, seed);
    let t = Instant::now();
    let cold = search.find_gap(&job.factory);
    s.cold.push(t.elapsed().as_secs_f64());
    let warm_start = Instant::now();
    let warm = search.find_gap(&job.factory);
    s.warm.push(warm_start.elapsed().as_secs_f64());
    outcome.check(warm == cold, || {
        format!("{}: repeated search differs", job.label)
    });

    let n = job.factory.population();
    // Re-estimate the probes that spent the whole budget (the ones that
    // decided the threshold), and the threshold's own probe.
    let rule = layers::probe_rule(&search, n);
    let mut estimates = 0;
    for probe in cold
        .probes
        .iter()
        .filter(|p| p.trials == job.trials || p.gap == cold.threshold)
    {
        let scenario = job.factory.scenario(probe.gap);
        let mc = MonteCarlo::new(job.trials, layers::probe_seed(seed, n, probe.gap))
            .with_threads(job.threads)
            .with_backend(job.backend);
        let t = Instant::now();
        let estimate = mc.scenario_success_probability_until(&scenario, rule);
        s.estimate.push(t.elapsed().as_secs_f64());
        estimates += 1;
        outcome.check(
            estimate.trials() == probe.trials && estimate.successes() == probe.successes,
            || format!("{}: probe at gap {} not reproduced", job.label, probe.gap),
        );
    }

    // Start-ups of an `nproc`-thread pool on a batch of already-decided
    // trials (one species extinct from the start), so only the stream's
    // fixed cost is timed.
    let decided =
        Scenario::new(LvModel::default(), (n, 0)).with_stop(StopCondition::any_species_extinct());
    let pool = MonteCarlo::new(job.trials, seed)
        .with_threads(nproc())
        .with_backend(job.backend);
    for _ in 0..POOL_STARTS {
        let t = Instant::now();
        std::hint::black_box(pool.stream(&decided).count());
        s.connect.push(t.elapsed().as_secs_f64());
    }
    let requests = 1 + estimates + POOL_STARTS;
    s.warm_rates
        .push(requests as f64 / warm_start.elapsed().as_secs_f64());
    Done {
        job,
        seed,
        result: cold,
        wall_s: 0.0,
    }
}

/// The exact a/n law on the run's bridged trials, pooled by cell
/// `(n, gap)` over every search (see [`checks`]).
fn check_law(all: &[Done], outcome: &mut Outcome) {
    // (n, gap) → (a, trials, successes, largest possible trial count).
    let mut cells: BTreeMap<(u64, u64), (u64, u64, u64, u64)> = BTreeMap::new();
    for d in all
        .iter()
        .filter(|d| d.job.backend == "czyzowicz-lv-bridged")
    {
        let n = d.job.factory.population();
        for p in &d.result.probes {
            let (a, _) = d.job.factory.counts(p.gap);
            let cell = cells.entry((n, p.gap)).or_insert((a, 0, 0, 0));
            cell.1 += p.trials;
            cell.2 += p.successes;
            cell.3 += d.job.trials;
        }
    }
    let count = cells.len() as u64;
    for (&(n, gap), &(a, trials, successes, max_trials)) in &cells {
        let law = a as f64 / n as f64;
        outcome.check(
            checks::agrees_with_law(trials, successes, law, count, max_trials),
            || format!("n={n} gap={gap} won {successes}/{trials} against the exact law {law:.4}"),
        );
    }
    if let Some(((n, gap), c)) = cells.iter().max_by_key(|(_, c)| c.1) {
        eprintln!(
            "a/n law: {count} cells; largest n={n} gap={gap}: {}/{} at law {:.4}",
            c.2,
            c.1,
            c.0 as f64 / *n as f64
        );
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let workload = Workload::named(&args.workload, args.seed);
    let mut outcome = Outcome::default();
    if args.trace {
        setup(&workload);
        warm_up(&workload);
        traced(args, &workload, &mut outcome)?;
        return Ok(outcome);
    }
    let setup_s = setup_s(args)?;
    setup(&workload);
    warm_up(&workload);
    let mut s = Samples::default();
    let start = Instant::now();
    let mut all = Vec::new();
    let (mut pass, mut queries) = (0, 0);
    let (mut pass_s, mut query_s) = (0.0, 0.0);
    while pass == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let done = cold_phase(&workload, pass);
        let wall = t.elapsed().as_secs_f64();
        s.passes
            .push((wall, done.iter().map(|d| d.result.trials_spent()).sum()));
        all.extend(done);
        pass_s += wall;
        pass += 1;
        while queries == 0 || query_s < pass_s * QUERY_SHARE / (1.0 - QUERY_SHARE) {
            let t = Instant::now();
            all.push(query(&workload, queries, &mut s, &mut outcome));
            query_s += t.elapsed().as_secs_f64();
            queries += 1;
        }
    }
    let rss = crate::peak_rss_mb("self")?;
    check_law(&all, &mut outcome);
    eprintln!("{}: {pass} passes, {queries} queries", workload.name);

    outcome.metric("setup_s", setup_s, "s");
    // Medians over passes: robust to bursts of outside load (see stats).
    let pass_walls: Vec<f64> = s.passes.iter().map(|p| p.0).collect();
    let pass_rates: Vec<f64> = s.passes.iter().map(|p| p.1 as f64 / p.0).collect();
    outcome.metric("search_s", stats::median(&pass_walls), "s");
    outcome.metric("trials_per_s", stats::median(&pass_rates), "1/s");
    stats::report_tail(&mut outcome, "threshold_cold", &s.cold, 1e3, "ms");
    stats::report_tail(&mut outcome, "threshold_warm", &s.warm, 1e6, "us");
    stats::report_tail(&mut outcome, "estimate_hit", &s.estimate, 1e6, "us");
    stats::report_tail(&mut outcome, "connect", &s.connect, 1e6, "us");
    outcome.metric("requests_per_s", stats::median(&s.warm_rates), "1/s");
    outcome.metric("peak_rss_mb", rss, "MB");
    Ok(outcome)
}

/// Tolerance of the layer-sum check: the traced layers' self times must sum
/// to the untraced whole within this share of it.
const LAYER_SUM_TOLERANCE: f64 = 0.2;

/// Step-by-step re-drives per probe in the traced run.
const REDRIVEN_TRIALS: u64 = 4;

/// The traced run, per search of each pass:
///
/// * the search untraced (the whole the layers must sum to);
/// * the same search again, inside a `sim.search` span, with an
///   `engine.stream` span around each probe's Monte-Carlo stream
///   ([`Probed`]);
/// * its probes replayed through [`lv_engine::stream::ReportStream`] over a
///   timing backend (`engine.stream.replay` spans with `engine.backend`
///   children), since the search's own backend cannot be reached from
///   outside;
/// * for the protocol backends, trials re-driven step by step.
fn traced(args: &Args, workload: &Workload, outcome: &mut Outcome) -> Result<(), String> {
    let tracer = Arc::new(Tracer::new());
    let threads = nproc();
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut probes = 0u64;
    let mut trials = 0u64;
    let mut counters = ProtocolCounters::default();
    let mut backends: Vec<&'static TimingBackend> = Vec::new();
    let mut all = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    // Pairs of passes, the untraced search first in one and second in the
    // other, so that neither always runs first. A new pair starts only if
    // it fits in `--seconds` at the passes' mean duration.
    loop {
        for job in &workload.jobs {
            let traced_search = || {
                let search = workload.search(job, job_seed(workload, pass, job));
                let t = Instant::now();
                let result = tracer.span("sim.search", 0, pass, |id| {
                    let probed = Probed::new(&job.factory, &tracer, id);
                    let result = search.find_gap(&probed);
                    probed.finish();
                    result
                });
                (result, t.elapsed().as_secs_f64())
            };
            let (d, (result, wall_s)) = if pass % 2 == 0 {
                let d = cold_search(workload, pass, job);
                (d, traced_search())
            } else {
                let traced = traced_search();
                (cold_search(workload, pass, job), traced)
            };
            untraced_s += d.wall_s;
            traced_s += wall_s;
            outcome.check(result == d.result, || {
                format!("{}: traced search differs", d.job.label)
            });
            let search = workload.search(&d.job, d.seed);

            let inner = lv_engine::backend(d.job.backend).expect("registered backend");
            let backend = TimingBackend::leak(inner, Arc::clone(&tracer));
            backends.push(backend);
            let differ = d
                .result
                .probes
                .iter()
                .filter(|p| {
                    !layers::redrive_probe(
                        &tracer,
                        backend,
                        &search,
                        d.seed,
                        &d.job.factory,
                        p,
                        threads,
                        0,
                    )
                })
                .count();
            outcome.check(differ == 0, || {
                format!("{}: {differ} replayed probes differ", d.job.label)
            });
            probes += d.result.probes.len() as u64;
            trials += d.result.trials_spent();
            if inner.batched() {
                let n = d.job.factory.population();
                for p in &d.result.probes {
                    let scenario = d.job.factory.scenario(p.gap);
                    let seed = layers::probe_seed(d.seed, n, p.gap);
                    for trial in 0..p.trials.min(REDRIVEN_TRIALS) {
                        let ok = layers::redrive_protocol_trial(
                            inner,
                            &scenario,
                            seed,
                            trial,
                            &mut counters,
                        );
                        outcome.check(ok, || {
                            format!(
                                "{}: gap {} trial {trial} not reproduced",
                                d.job.label, p.gap
                            )
                        });
                    }
                }
            }
            all.push(d);
        }
        pass += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if pass % 2 == 0 && elapsed * (1.0 + 2.0 / pass as f64) > args.seconds {
            break;
        }
    }
    check_law(&all, outcome);
    tracer
        .write_jsonl(&format!(
            "{OUT_DIR}/trace-{}-{}.jsonl",
            workload.name, args.seed
        ))
        .map_err(|e| format!("writing the trace: {e}"))?;

    let b = Breakdown::new(tracer.spans());
    let busy = b.busy_ns("engine.backend") as f64 * 1e-9;
    let runs = b.count("engine.backend");
    let events: u64 = backends
        .iter()
        .map(|t| t.events.load(std::sync::atomic::Ordering::Relaxed))
        .sum();
    // The search's own probe streams, and its self time around them.
    let stream_wall = b.busy_ns("engine.stream") as f64 * 1e-9;
    let search_self = b.self_ns("sim.search", "engine.stream") as f64 * 1e-9;
    // The replayed streams, and the backend time inside them.
    let replay_wall = b.busy_ns("engine.stream.replay") as f64 * 1e-9;
    let backend_covered = b.covered_ns("engine.backend") as f64 * 1e-9;
    let stream_self = replay_wall - backend_covered;
    // Three parts from two runs against the untraced whole: the sum holds
    // only if the replays cost what the search's own probes cost.
    let layer_sum = search_self + stream_self + backend_covered;
    let layer_sum_err = (layer_sum - untraced_s).abs() / untraced_s;
    outcome.check(layer_sum_err <= LAYER_SUM_TOLERANCE, || {
        format!("layer self times sum to {layer_sum:.3} s against {untraced_s:.3} s untraced")
    });
    let drive_err = if counters.backend_ns > 0 {
        (counters.drive_ns as f64 - counters.backend_ns as f64).abs() / counters.backend_ns as f64
    } else {
        0.0
    };
    outcome.check(drive_err <= LAYER_SUM_TOLERANCE, || {
        format!("step-by-step drives took {drive_err:.2} more than the backend runs")
    });
    eprintln!(
        "{}: untraced {untraced_s:.3} s, traced {traced_s:.3} s (probe streams {stream_wall:.3} s), \
         replayed streams {replay_wall:.3} s, layers sum {layer_sum:.3} s",
        workload.name
    );

    let per = |total: u64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    };
    let m = outcome;
    m.metric("engine.backend.runs", runs as f64, "count");
    m.metric("engine.backend.busy_s", busy, "s");
    m.metric("engine.backend.events", events as f64, "count");
    m.metric(
        "engine.backend.ns_per_event",
        busy * 1e9 / events.max(1) as f64,
        "ns",
    );
    m.metric(
        "engine.backend.completed_frac",
        trials as f64 / runs.max(1) as f64,
        "frac",
    );
    m.metric(
        "engine.stream.calls",
        b.count("engine.stream") as f64,
        "count",
    );
    m.metric("engine.stream.wall_s", stream_wall, "s");
    m.metric("engine.stream.self_s", stream_self, "s");
    m.metric(
        "engine.stream.parallel_eff",
        busy / (threads as f64 * replay_wall),
        "frac",
    );
    m.metric("sim.search.probes", probes as f64, "count");
    m.metric("sim.search.trials", trials as f64, "count");
    m.metric("sim.search.self_s", search_self, "s");
    let c = &counters;
    m.metric("protocols.epoch.epochs", c.epochs as f64, "count");
    m.metric(
        "protocols.epoch.single_steps",
        c.single_steps as f64,
        "count",
    );
    m.metric("protocols.epoch.ns_per_epoch", c.epoch_time.mean_ns(), "ns");
    m.metric("protocols.epoch.ns_per_step", c.step_time.mean_ns(), "ns");
    m.metric(
        "protocols.epoch.interactions_per_epoch",
        per(c.epoch_interactions, c.epochs),
        "count",
    );
    m.metric("protocols.bridge.blocks", c.blocks as f64, "count");
    m.metric(
        "protocols.bridge.exact_steps",
        c.exact_steps as f64,
        "count",
    );
    m.metric(
        "protocols.bridge.ns_per_block",
        c.block_time.mean_ns(),
        "ns",
    );
    m.metric(
        "protocols.bridge.ns_per_exact_step",
        c.exact_time.mean_ns(),
        "ns",
    );
    m.metric(
        "protocols.bridge.interactions_per_block",
        per(c.block_interactions, c.blocks),
        "count",
    );
    let (hyper, prepared, binomial) = if c.epochs > 0 || c.blocks > 0 {
        let epoch_n = workload
            .jobs
            .iter()
            .find(|j| j.backend == "approx-majority")
            .map_or(100_000, |j| j.factory.population());
        let mut lens = c.block_conversions.clone();
        lens.sort_unstable();
        let block_len = lens.get(lens.len() / 2).copied().unwrap_or(1);
        layers::sampling_kernels(epoch_n, block_len, workload.seed)
    } else {
        (0.0, 0.0, 0.0)
    };
    m.metric("protocols.sampling.hyper_ns", hyper, "ns");
    m.metric("protocols.sampling.hyper_prepared_ns", prepared, "ns");
    m.metric("protocols.sampling.binomial_ns", binomial, "ns");
    m.metric("trace.overhead_s", traced_s - untraced_s, "s");
    m.metric("trace.layer_sum_err", layer_sum_err.max(drive_err), "frac");
    Ok(())
}
