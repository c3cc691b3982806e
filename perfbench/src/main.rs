//! `lv-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! lv-perfbench --workload <paper-search|large-n-protocols|serve> --seed N
//!              --seconds S --trace <0|1> [--lv-serve PATH]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics instead. Either way the
//! last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Every workload checks
//! its own outputs; each failed check counts in `failed`.
//!
//! `--setup-probe` is the internal mode the set-up measurement runs in a
//! fresh process: it performs one workload's process set-up and exits.

mod checks;
mod layers;
mod search;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Directory, relative to the checkout root, for traces and sockets.
pub const OUT_DIR: &str = ".perfbench_out";

/// The end-to-end metrics every untraced run prints, with their units. The
/// p90s varied too much between runs on a shared host to bound, so only
/// the p50s are here; the p90s go to standard error.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("search_s", "s"),
    ("trials_per_s", "1/s"),
    ("threshold_cold_p50_ms", "ms"),
    ("threshold_warm_p50_us", "us"),
    ("estimate_hit_p50_us", "us"),
    ("connect_p50_us", "us"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints. A layer the workload
/// does not touch reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.backend.runs", "count"),
    ("engine.backend.busy_s", "s"),
    ("engine.backend.events", "count"),
    ("engine.backend.ns_per_event", "ns"),
    ("engine.backend.completed_frac", "frac"),
    ("engine.stream.calls", "count"),
    ("engine.stream.wall_s", "s"),
    ("engine.stream.self_s", "s"),
    ("engine.stream.parallel_eff", "frac"),
    ("sim.search.probes", "count"),
    ("sim.search.trials", "count"),
    ("sim.search.self_s", "s"),
    ("protocols.epoch.epochs", "count"),
    ("protocols.epoch.single_steps", "count"),
    ("protocols.epoch.ns_per_epoch", "ns"),
    ("protocols.epoch.ns_per_step", "ns"),
    ("protocols.epoch.interactions_per_epoch", "count"),
    ("protocols.bridge.blocks", "count"),
    ("protocols.bridge.exact_steps", "count"),
    ("protocols.bridge.ns_per_block", "ns"),
    ("protocols.bridge.ns_per_exact_step", "ns"),
    ("protocols.bridge.interactions_per_block", "count"),
    ("protocols.sampling.hyper_ns", "ns"),
    ("protocols.sampling.hyper_prepared_ns", "ns"),
    ("protocols.sampling.binomial_ns", "ns"),
    ("server.spec.validate_fingerprint_us", "us"),
    ("server.codec.encode_us.estimate", "us"),
    ("server.codec.encode_us.threshold", "us"),
    ("server.codec.decode_us.estimate", "us"),
    ("server.codec.decode_us.threshold", "us"),
    ("server.codec.request_bytes.estimate", "bytes"),
    ("server.codec.request_bytes.threshold", "bytes"),
    ("server.codec.response_bytes.estimate", "bytes"),
    ("server.codec.response_bytes.threshold", "bytes"),
    ("server.socket.rtt_overhead_us", "us"),
    ("server.socket.connect_us", "us"),
    ("server.service.handle_us.estimate", "us"),
    ("server.service.handle_us.threshold_warm", "us"),
    ("server.service.self_ms.threshold_cold", "ms"),
    ("server.exec.ranges", "count"),
    ("server.exec.trials", "count"),
    ("server.exec.busy_s", "s"),
    ("server.exec.trials_per_range", "count"),
    ("server.cache.hit_frac", "frac"),
    ("server.cache.cells", "count"),
    ("trace.overhead_s", "s"),
    ("trace.layer_sum_err", "frac"),
    ("failed_frac", "frac"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub lv_serve: PathBuf,
    pub setup_probe: bool,
}

/// One run's result: the metrics in output order plus the check tally.
#[derive(Default)]
pub struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records one check; a failing one is reported on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Completes the run's metric set: in a traced run, `failed_frac` and a
    /// 0 for each layer the workload does not touch. Panics on a metric
    /// missing from or unknown to the run's table, or a wrong unit.
    fn finish(&mut self, trace: bool) {
        let table = if trace {
            self.metric(
                "failed_frac",
                self.failed as f64 / self.attempted.max(1) as f64,
                "frac",
            );
            for &(name, unit) in PER_LAYER {
                if !self.metrics.iter().any(|(n, _, _)| n == name) {
                    self.metric(name, 0.0, unit);
                }
            }
            PER_LAYER
        } else {
            END_TO_END
        };
        for (name, _, unit) in &self.metrics {
            assert!(
                table.contains(&(name.as_str(), *unit)),
                "metric {name} ({unit}) is not in the table"
            );
        }
        assert_eq!(self.metrics.len(), table.len(), "metric set incomplete");
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lv-perfbench --workload <paper-search|large-n-protocols|serve> --seed N \
         --seconds S --trace <0|1> [--lv-serve PATH]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        lv_serve: PathBuf::from(".bench_build/release/lv-serve"),
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--setup-probe" => args.setup_probe = true,
            "--workload" => args.workload = it.next()?,
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => args.seconds = it.next()?.parse().ok()?,
            "--trace" => args.trace = it.next()?.parse::<u8>().ok()? == 1,
            "--lv-serve" => args.lv_serve = PathBuf::from(it.next()?),
            _ => return None,
        }
    }
    (args.seconds > 0.0).then_some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "paper-search" | "large-n-protocols" if args.setup_probe => {
            search::setup(&search::Workload::named(&args.workload, args.seed));
            return ExitCode::SUCCESS;
        }
        "paper-search" | "large-n-protocols" => search::run(&args),
        "serve" => serve::run(&args),
        _ => return usage(),
    };
    match outcome {
        Ok(mut outcome) => {
            outcome.finish(args.trace);
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kb / 1024.0)
}

/// Worker threads/connections the load may use: the machine's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
