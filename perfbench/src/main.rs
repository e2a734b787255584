//! `perfbench`: end-to-end and per-layer benchmark of LFI campaigns.
//!
//! ```text
//! perfbench --workload hunt|sweep|hunt_supervised|all --seed N --seconds S --trace 0|1
//! ```
//!
//! A run interleaves cold set-ups (each in a fresh process) with
//! whole rounds of its workload until `--seconds` have passed, checks
//! every round's output, and prints one `#metric` line per metric followed
//! by a JSON object with `correct`, `attempted`, `failed` and `metrics` as
//! the last line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates untraced and traced rounds and reports the per-layer metrics
//! of the traced ones, plus the tracing overhead. The exit code is 0 only
//! when every check passed and no unit failed. See `README.md`.

mod checks;
mod layers;
mod measure;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use lfi_supervisor::{run_worker, SpaceSpec, WorkerConfig};

use layers::PER_LAYER;
use measure::{host_loop_ms, mean, median, StealMeter};
use workloads::{Context, Round, Sample, SetupProbe, Workload};

/// Cold set-ups per run; `setup_s` is their median. They are spread
/// evenly over the run's length (a few before each round) rather than run
/// in one burst, so no single phase of the host's load sets them all.
const SETUP_PROBES: usize = 24;

const USAGE: &str = "usage: perfbench --workload hunt|sweep|hunt_supervised|all \
                     --seed N --seconds S --trace 0|1";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?;
                workloads = Some(vec![workload]);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Options {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run prints: the check verdict, unit counts and named metrics.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("#metric {name} {value} {unit}");
        }
        println!(
            "#result {} {} {}",
            self.correct, self.attempted, self.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }

    fn exit_code(&self) -> ExitCode {
        if self.correct && self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Run one round in a fresh process of this benchmark and read its result.
fn spawn_round(workload: Workload, seed: u64, index: usize, traced: bool) -> Round {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let output = Command::new(exe)
        .args([
            "--round",
            workload.name(),
            &seed.to_string(),
            &index.to_string(),
        ])
        .arg(if traced { "1" } else { "0" })
        .output()
        .expect("spawn a round process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut round =
        Round::from_lines(&stdout).unwrap_or_else(|| panic!("malformed round output: {stdout:?}"));
    if !output.status.success() {
        round
            .problems
            .push(format!("round process exited with {}", output.status));
    }
    round
}

/// Run one round in this process (the `--round` mode) and print it.
fn round_main(args: &[String]) -> ExitCode {
    let parsed = match args {
        [workload, seed, index, traced] => Workload::parse(workload)
            .zip(seed.parse::<u64>().ok())
            .zip(index.parse::<usize>().ok())
            .map(|((w, s), i)| (w, s, i, traced == "1")),
        _ => None,
    };
    let Some((workload, seed, index, traced)) = parsed else {
        eprintln!("perfbench: --round needs WORKLOAD SEED INDEX TRACED");
        return ExitCode::from(2);
    };
    let work = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    std::fs::create_dir_all(&work).expect("create the round's scratch directory");
    let round = Context::new(workload, seed, &work).round(index, traced);
    std::fs::remove_dir_all(&work).expect("remove the round's scratch directory");
    // Another round's process may still be using the parent directory.
    let _ = std::fs::remove_dir(".perfbench_work");
    for line in round.to_lines() {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

/// Run one workload for `seconds` and aggregate its rounds.
fn run_workload(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let host_start_ms = host_loop_ms();
    let host_steal = StealMeter::start();
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    let mut probes = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    // Whole rounds until the time is up; a traced run alternates
    // untraced and traced rounds and needs one of each.
    while rounds.is_empty() || Instant::now() < deadline || (trace && rounds.len() < 2) {
        let share = started.elapsed().as_secs_f64() / seconds as f64;
        let due = (1 + (share * SETUP_PROBES as f64) as usize).min(SETUP_PROBES);
        probes.extend(SetupProbe::in_fresh_processes(
            workload,
            due.saturating_sub(probes.len()),
        ));
        let traced = trace && rounds.len() % 2 == 1;
        rounds.push(spawn_round(workload, seed, rounds.len(), traced));
    }
    probes.extend(SetupProbe::in_fresh_processes(
        workload,
        SETUP_PROBES - probes.len(),
    ));
    let host_end_ms = host_loop_ms();

    let problems: Vec<&String> = rounds.iter().flat_map(|r| &r.problems).collect();
    for problem in &problems {
        eprintln!("perfbench: {}: check failed: {problem}", workload.name());
    }
    let untraced: Vec<Sample> = rounds
        .iter()
        .filter(|r| !r.traced)
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    // Co-tenant load on the host stalls campaigns in bursts. A 0.3 s
    // `sweep` pass is shorter than a burst, so the best of a run's many
    // passes is one that no burst touched. A 4-9 s `hunt` or
    // `hunt_supervised` campaign always absorbs some load; over the
    // handful of a run, the mean is steadier than the median or the
    // minimum.
    let aggregate = |traced: bool, field: fn(&Sample) -> f64| -> f64 {
        let values: Vec<f64> = rounds
            .iter()
            .filter(|r| r.traced == traced)
            .flat_map(|r| r.samples.iter().map(field))
            .collect();
        if values.is_empty() {
            0.0
        } else if workload == Workload::Sweep {
            values.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            mean(&values)
        }
    };
    println!(
        "# {} seed {seed}: {} rounds in {:.1} s; host loop {host_start_ms:.2} ms at start, \
         {host_end_ms:.2} ms at end; host steal {:.1}%",
        workload.name(),
        rounds.len(),
        started.elapsed().as_secs_f64(),
        host_steal.share() * 100.0,
    );
    for sample in &untraced {
        println!(
            "# sample campaign_s {} bugs_s {} cpu_s {}",
            sample.campaign_s, sample.bugs_s, sample.cpu_s
        );
    }

    let mut metrics = Vec::new();
    if trace {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let probe_median =
            |field: fn(&SetupProbe) -> f64| median(&probes.iter().map(field).collect::<Vec<_>>());
        let overhead = aggregate(true, |s| s.campaign_s) / aggregate(false, |s| s.campaign_s);
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "cc.compile_s" => probe_median(|p| p.compile_s),
                "profiler.profile_s" => probe_median(|p| p.profile_s),
                "analyzer.space_s" => probe_median(|p| p.space_s),
                "analyzer.points" => probes[0].points as f64,
                "analyzer.pruned" => probes[0].pruned as f64,
                "core.reachability_s" => probe_median(|p| p.reachability_s),
                "trace.overhead_pct" if overhead.is_finite() => (overhead - 1.0) * 100.0,
                "trace.overhead_pct" => 0.0,
                _ => mean(
                    &traced
                        .iter()
                        .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            metrics.push((name.to_string(), value, unit));
        }
    } else {
        let rss: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
        metrics.push((
            "setup_s".to_string(),
            median(&probes.iter().map(SetupProbe::total_s).collect::<Vec<_>>()),
            "s",
        ));
        metrics.push((
            "campaign_s".to_string(),
            aggregate(false, |s| s.campaign_s),
            "s",
        ));
        metrics.push(("bugs_s".to_string(), aggregate(false, |s| s.bugs_s), "s"));
        metrics.push(("cpu_s".to_string(), aggregate(false, |s| s.cpu_s), "s"));
        metrics.push(("peak_rss_mb".to_string(), median(&rss), "MiB"));
    }
    Outcome {
        correct: problems.is_empty(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics,
    }
}

/// `--workload all`: each workload in a fresh process of its own (so peak
/// memory and caches do not leak between them), combined into one result
/// whose metric names carry a `<workload>/` prefix.
fn run_all(options: &Options) -> Outcome {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut combined = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .output()
            .expect("spawn a workload run");
        let stdout = String::from_utf8_lossy(&output.stdout);
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        combined.correct &= output.status.success();
        for line in stdout.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields[..] {
                ["#metric", name, value, unit] => {
                    let unit = PER_LAYER
                        .iter()
                        .map(|&(_, u)| u)
                        .chain(["s", "MiB"])
                        .find(|u| *u == unit)
                        .expect("a known unit");
                    let value = value.parse().expect("a metric value");
                    combined
                        .metrics
                        .push((format!("{}/{name}", workload.name()), value, unit));
                }
                ["#result", correct, attempted, failed] => {
                    combined.correct &= correct == "true";
                    combined.attempted += attempted.parse::<u64>().expect("attempted count");
                    combined.failed += failed.parse::<u64>().expect("failed count");
                }
                _ if line.starts_with("# ") => println!("{line}"),
                _ => {}
            }
        }
    }
    combined
}

/// Worker mode: `run_supervised` spawns this executable as its
/// `campaign_worker`, passing the fault-space spec flags first.
fn worker_main(args: &[String]) -> ExitCode {
    let parse = || -> Result<WorkerConfig, String> {
        let mut spec = SpaceSpec::new();
        let mut config = WorkerConfig::new(SpaceSpec::new(), PathBuf::new());
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} needs a whole number"))
            };
            match flag.as_str() {
                "--target" => spec.targets.push(value.clone()),
                "--retain" => spec.retain.push(SpaceSpec::parse_retain(value)?),
                "--baseline-seed" => spec.baseline_seed = number()?,
                "--strategy" => config.strategy = value.clone(),
                "--jobs" => config.jobs = number()? as usize,
                "--seed" => config.seed = number()?,
                "--backend" => config.backend = value.parse().map_err(|e| format!("{e}"))?,
                "--snapshot-budget" => config.snapshot_budget = number()?,
                "--state-dir" => config.state_dir = PathBuf::from(value),
                other => return Err(format!("unknown worker flag `{other}`")),
            }
        }
        config.spec = spec;
        Ok(config)
    };
    match parse().and_then(|config| run_worker(&config)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench worker: {err}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--target") => return worker_main(&args),
        Some("--round") => return round_main(&args[1..]),
        Some("--setup-probe") => {
            let Some(workload) = args.get(1).and_then(|name| Workload::parse(name)) else {
                eprintln!("perfbench: --setup-probe needs a workload");
                return ExitCode::from(2);
            };
            println!("{}", SetupProbe::run(&workload.spec()).to_line());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match options.workloads[..] {
        [workload] => run_workload(workload, options.seed, options.seconds, options.trace),
        _ => run_all(&options),
    };
    outcome.print();
    outcome.exit_code()
}
