//! The three workloads, each a closed batch at fixed parallelism (two
//! worker threads or two worker processes), and the cold set-up probe.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use lfi_campaign::{
    Campaign, CampaignEvent, CampaignState, CoverageAdaptive, EventSink, ExecBackend, Executor,
    Exhaustive, FaultSpace, JsonlSink, LeaseOutcome, StandardExecutor, Strategy, WorkUnit,
};
use lfi_supervisor::{run_supervised, SpaceSpec, SupervisorOptions};
use lfi_targets::{standard_controller, KnownBug};
use lfi_telemetry::JsonlTail;

use crate::checks::{
    bugs_found, coverage_failures, expected_bugs, replay_disagreements, replay_picks, BugClock,
};
use crate::layers::{
    fill_from_report, LayerValues, Layers, TracedExecutor, TracedSink, TracedStrategy, UnitCosts,
    PER_LAYER,
};
use crate::measure::{children_peak_rss_mb, cpu_s, mix, self_peak_rss_mb};

/// Worker threads per campaign, and worker processes (one job each) of a
/// supervised campaign: the host has two cores.
const PARALLELISM: usize = 2;

/// The single-process targets `sweep` covers.
const SWEEP_TARGETS: [&str; 4] = ["bind-lite", "git-lite", "db-lite", "httpd-lite"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The adaptive Table 1 hunt, snapshot backend, checkpointed and
    /// streaming JSONL events, as an operator runs it.
    Hunt,
    /// Every fault point of the four single-process targets, exhaustive,
    /// snapshot backend, repeated in passes.
    Sweep,
    /// The exhaustive Table 1 space through the lease supervisor and two
    /// worker processes.
    HuntSupervised,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Hunt, Workload::Sweep, Workload::HuntSupervised];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hunt => "hunt",
            Workload::Sweep => "sweep",
            Workload::HuntSupervised => "hunt_supervised",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fault space the workload explores.
    pub fn spec(self) -> SpaceSpec {
        match self {
            Workload::Hunt | Workload::HuntSupervised => SpaceSpec::table1(),
            Workload::Sweep => SpaceSpec {
                targets: SWEEP_TARGETS.iter().map(|t| t.to_string()).collect(),
                ..SpaceSpec::new()
            },
        }
    }
}

/// One cold set-up, timed layer by layer in a fresh process.
#[derive(Debug, Clone, Copy)]
pub struct SetupProbe {
    pub compile_s: f64,
    pub profile_s: f64,
    pub space_s: f64,
    pub reachability_s: f64,
    pub points: usize,
    pub pruned: usize,
}

impl SetupProbe {
    pub fn total_s(&self) -> f64 {
        self.compile_s + self.profile_s + self.space_s + self.reachability_s
    }

    /// The set-up `SpaceSpec::build` performs, step by step: compile libc
    /// and the targets, profile the libraries, enumerate and analyze the
    /// fault space, and run the baseline reachability pass. Only cold in a
    /// process that has compiled nothing yet.
    pub fn run(spec: &SpaceSpec) -> SetupProbe {
        let names = spec.target_names();
        let started = Instant::now();
        lfi_libc::build();
        lfi_targets::libxml_lite();
        let executor = StandardExecutor::new(&names);
        let compile_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let profile = standard_controller().profile_libraries();
        let profile_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let mut space = executor.fault_space(&names, &profile);
        for (target, functions) in &spec.retain {
            space.retain(|p| p.target != *target || functions.contains(&p.function));
        }
        let space_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        executor.annotate_baseline_reachability(&mut space, spec.baseline_seed);
        let reachability_s = started.elapsed().as_secs_f64();

        SetupProbe {
            compile_s,
            profile_s,
            space_s,
            reachability_s,
            points: space.len(),
            pruned: space.points.iter().filter(|p| p.demoted).count(),
        }
    }

    /// The probe as the one line a probe process prints.
    pub fn to_line(self) -> String {
        format!(
            "{} {} {} {} {} {}",
            self.compile_s,
            self.profile_s,
            self.space_s,
            self.reachability_s,
            self.points,
            self.pruned
        )
    }

    fn from_line(line: &str) -> Option<SetupProbe> {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [compile, profile, space, reach, points, pruned] = fields[..] else {
            return None;
        };
        Some(SetupProbe {
            compile_s: compile.parse().ok()?,
            profile_s: profile.parse().ok()?,
            space_s: space.parse().ok()?,
            reachability_s: reach.parse().ok()?,
            points: points.parse().ok()?,
            pruned: pruned.parse().ok()?,
        })
    }

    /// Run the probe `count` times, each in a fresh process of this
    /// benchmark, so every sample pays the whole cold set-up.
    pub fn in_fresh_processes(workload: Workload, count: usize) -> Vec<SetupProbe> {
        let exe = std::env::current_exe().expect("locate the benchmark executable");
        (0..count)
            .map(|_| {
                let output = Command::new(&exe)
                    .args(["--setup-probe", workload.name()])
                    .output()
                    .expect("spawn a set-up probe");
                assert!(
                    output.status.success(),
                    "set-up probe failed: {}",
                    output.status
                );
                let stdout = String::from_utf8_lossy(&output.stdout);
                stdout
                    .lines()
                    .last()
                    .and_then(SetupProbe::from_line)
                    .unwrap_or_else(|| panic!("malformed set-up probe output: {stdout:?}"))
            })
            .collect()
    }
}

/// The timings of one campaign (one pass on `sweep`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub campaign_s: f64,
    pub bugs_s: f64,
    pub cpu_s: f64,
}

/// What one round measured and found. A round runs in a process of its
/// own: one campaign, or [`SWEEP_PASSES`] passes on `sweep`.
#[derive(Debug, Default)]
pub struct Round {
    pub traced: bool,
    pub samples: Vec<Sample>,
    /// Units the round was to cover.
    pub attempted: u64,
    /// Units missing, duplicated, or disagreeing with their replay.
    pub failed: u64,
    /// Failed checks that are not about a single unit.
    pub problems: Vec<String>,
    /// Per-layer values per campaign (traced rounds only).
    pub layers: LayerValues,
    /// Peak resident memory of the round's process, plus its largest
    /// worker process on `hunt_supervised`.
    pub peak_rss_mb: f64,
}

impl Round {
    /// The round as the lines its process prints.
    pub fn to_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!("traced {}", self.traced),
            format!("units {} {}", self.attempted, self.failed),
            format!("rss {}", self.peak_rss_mb),
        ];
        for s in &self.samples {
            lines.push(format!("sample {} {} {}", s.campaign_s, s.bugs_s, s.cpu_s));
        }
        for (name, value) in &self.layers {
            lines.push(format!("layer {name} {value}"));
        }
        for problem in &self.problems {
            lines.push(format!("problem {problem}"));
        }
        lines
    }

    /// Parse what [`Round::to_lines`] printed; layer names resolve
    /// against [`PER_LAYER`].
    pub fn from_lines(text: &str) -> Option<Round> {
        let mut round = Round::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ')?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            match (key, &fields[..]) {
                ("traced", [traced]) => round.traced = traced.parse().ok()?,
                ("units", [attempted, failed]) => {
                    round.attempted = attempted.parse().ok()?;
                    round.failed = failed.parse().ok()?;
                }
                ("rss", [mb]) => round.peak_rss_mb = mb.parse().ok()?,
                ("sample", [campaign, bugs, cpu]) => round.samples.push(Sample {
                    campaign_s: campaign.parse().ok()?,
                    bugs_s: bugs.parse().ok()?,
                    cpu_s: cpu.parse().ok()?,
                }),
                ("layer", [name, value]) => {
                    let &(name, _) = PER_LAYER.iter().find(|(n, _)| n == name)?;
                    round.layers.insert(name, value.parse().ok()?);
                }
                ("problem", _) => round.problems.push(rest.to_string()),
                _ => return None,
            }
        }
        Some(round)
    }

    /// Fold one campaign's result into the round.
    fn absorb(&mut self, campaign: Round, layer_sums: &mut LayerValues) {
        self.samples.extend(campaign.samples);
        self.attempted += campaign.attempted;
        self.failed += campaign.failed;
        self.problems.extend(campaign.problems);
        for (name, value) in campaign.layers {
            *layer_sums.entry(name).or_insert(0.0) += value;
        }
    }
}

/// Passes per `sweep` round (one pass is about a quarter of a second).
const SWEEP_PASSES: usize = 4;

/// The state one round process sets up before its campaigns.
pub struct Context {
    workload: Workload,
    seed: u64,
    spec: SpaceSpec,
    expected: Vec<&'static KnownBug>,
    /// The fault space `sweep` passes explore a clone of, and the one the
    /// supervised campaign's units are planned from.
    space: FaultSpace,
    /// Fresh-VM replays run here, apart from the campaign's executor. It
    /// prepares no sessions: `Executor::execute` needs none.
    replayer: StandardExecutor,
    /// Where checkpoints and event streams go.
    work: PathBuf,
}

impl Context {
    pub fn new(workload: Workload, seed: u64, work: &Path) -> Context {
        let spec = workload.spec();
        // Built on an executor of its own, dropped here with the session
        // roots the reachability pass prepared on it.
        let space = spec.build(&StandardExecutor::new(&spec.target_names()));
        let replayer = StandardExecutor::new(&spec.target_names());
        Context {
            workload,
            seed,
            expected: expected_bugs(&spec.targets),
            spec,
            space,
            replayer,
            work: work.to_path_buf(),
        }
    }

    /// Run round `index`: its campaigns get seeds derived from the run's
    /// seed and their position.
    pub fn round(&self, index: usize, traced: bool) -> Round {
        let campaigns = if self.workload == Workload::Sweep {
            SWEEP_PASSES
        } else {
            1
        };
        let mut round = Round {
            traced,
            ..Round::default()
        };
        let mut layer_sums = LayerValues::new();
        for campaign in 0..campaigns {
            let seed = mix(self.seed, (index * campaigns + campaign) as u64);
            let result = match self.workload {
                Workload::Hunt => self.hunt(seed, traced),
                Workload::Sweep => self.sweep(seed, traced),
                Workload::HuntSupervised => self.supervised(seed, traced),
            };
            round.absorb(result, &mut layer_sums);
        }
        round.layers = layer_sums
            .into_iter()
            .map(|(name, sum)| (name, sum / campaigns as f64))
            .collect();
        round.peak_rss_mb = self_peak_rss_mb();
        if self.workload == Workload::HuntSupervised {
            round.peak_rss_mb += children_peak_rss_mb();
        }
        round
    }

    /// Compare the round's records with the known bugs and with fresh-VM
    /// replays of every single-process crash and a seeded sample.
    fn check_records(
        &self,
        round: &mut Round,
        records: &[lfi_campaign::RunRecord],
        units: &[WorkUnit],
        seed: u64,
    ) {
        let found = bugs_found(records, &self.expected);
        if found != self.expected.len() {
            round
                .problems
                .push(format!("{found}/{} known bugs found", self.expected.len()));
        }
        let picks = replay_picks(records, seed);
        let disagreeing = replay_disagreements(&self.replayer, units, &picks);
        if !disagreeing.is_empty() {
            round.problems.push(format!(
                "units {disagreeing:?} disagree with their fresh-VM replay"
            ));
        }
        round.failed += disagreeing.len() as u64;
    }

    fn hunt_strategy() -> Box<dyn Strategy> {
        // The hunt's configuration: adaptive batches with saturation
        // pruning, 240 units for 11/11 known bugs.
        Box::new(CoverageAdaptive {
            prune_saturated: true,
            ..CoverageAdaptive::default()
        })
    }

    fn hunt(&self, seed: u64, traced: bool) -> Round {
        // As an operator runs it: the space is built on the executor that
        // then runs the campaign, so the campaign reuses the session roots
        // the set-up prepared. The build is outside the timed region.
        let executor = StandardExecutor::new(&self.spec.target_names());
        let space = self.spec.build(&executor);
        let state = self.work.join("hunt-state.json");
        let events = self.work.join("hunt-events.jsonl");
        let _ = fs::remove_file(&state);
        let jsonl = JsonlSink::create(&events).expect("create the hunt's event stream");
        let layers = Layers::default();
        let traced_executor = TracedExecutor {
            inner: &executor,
            layers: &layers,
        };
        let clock = BugClock::new(self.expected.clone(), Some(&jsonl));
        let traced_sink = TracedSink {
            inner: &clock,
            layers: &layers,
        };
        let (exec, sink, strategy): (&dyn Executor, &dyn EventSink, Box<dyn Strategy>) = if traced {
            let strategy = TracedStrategy {
                inner: Self::hunt_strategy(),
                layers: &layers,
            };
            (&traced_executor, &traced_sink, Box::new(strategy))
        } else {
            (&executor, &clock, Self::hunt_strategy())
        };
        let campaign = Campaign::builder(space.clone(), exec)
            .boxed_strategy(strategy)
            .jobs(PARALLELISM)
            .seed(seed)
            .backend(ExecBackend::Snapshot)
            .checkpoint(&state)
            .events(sink)
            .build();
        let units = campaign.campaign().units();

        let cpu_before = cpu_s();
        clock.restart();
        let started = Instant::now();
        let outcome = campaign.run_to_completion();
        let campaign_s = started.elapsed().as_secs_f64();
        let cpu = cpu_s() - cpu_before;
        // Free the campaign's snapshot trees before the checks run.
        drop(campaign);
        drop(executor);

        let report = &outcome.report;
        let mut round = Round {
            attempted: report.units_total as u64,
            ..Round::default()
        };
        if traced {
            round.layers = layers.values(campaign_s, report);
        }
        if let Some(err) = jsonl.take_error() {
            round.problems.push(format!("event stream: {err}"));
        }
        let distinct: BTreeSet<usize> = report.records.iter().map(|r| r.unit).collect();
        round.failed += (report.records.len() - distinct.len()) as u64;
        round.failed += report.units_total.saturating_sub(distinct.len()) as u64;
        match clock.seconds() {
            Some(bugs_s) => round.samples.push(Sample {
                campaign_s,
                bugs_s,
                cpu_s: cpu,
            }),
            None => round
                .problems
                .push("the event stream never showed every known bug".into()),
        }
        self.check_records(&mut round, &report.records, &units, seed);

        // The final checkpoint must reload as complete: a fresh campaign on
        // it re-executes nothing and reports the same records.
        let resumed = Campaign::builder(space, &self.replayer)
            .boxed_strategy(Self::hunt_strategy())
            .jobs(PARALLELISM)
            .seed(seed)
            .backend(ExecBackend::Snapshot)
            .checkpoint(&state)
            .build()
            .run_to_completion();
        if resumed.report.executed_now != 0 || resumed.report.records != report.records {
            round.problems.push(format!(
                "resume from the final checkpoint re-executed {} units",
                resumed.report.executed_now
            ));
        }
        round
    }

    fn sweep(&self, seed: u64, traced: bool) -> Round {
        let executor = StandardExecutor::new(&self.spec.target_names());
        let layers = Layers::default();
        let traced_executor = TracedExecutor {
            inner: &executor,
            layers: &layers,
        };
        let clock = BugClock::new(self.expected.clone(), None);
        let traced_sink = TracedSink {
            inner: &clock,
            layers: &layers,
        };
        let (exec, sink, strategy): (&dyn Executor, &dyn EventSink, Box<dyn Strategy>) = if traced {
            let strategy = TracedStrategy {
                inner: Box::new(Exhaustive),
                layers: &layers,
            };
            (&traced_executor, &traced_sink, Box::new(strategy))
        } else {
            (&executor, &clock, Box::new(Exhaustive))
        };
        let campaign = Campaign::builder(self.space.clone(), exec)
            .boxed_strategy(strategy)
            .jobs(PARALLELISM)
            .seed(seed)
            .backend(ExecBackend::Snapshot)
            .events(sink)
            .build();
        let units = campaign.campaign().units();

        let cpu_before = cpu_s();
        clock.restart();
        let started = Instant::now();
        let outcome = campaign.run_to_completion();
        let campaign_s = started.elapsed().as_secs_f64();
        let cpu = cpu_s() - cpu_before;
        drop(campaign);
        drop(executor);

        let report = &outcome.report;
        let all: BTreeSet<usize> = (0..units.len()).collect();
        let mut round = Round {
            attempted: units.len() as u64,
            failed: coverage_failures(&report.records, &all) as u64,
            ..Round::default()
        };
        if traced {
            round.layers = layers.values(campaign_s, report);
        }
        match clock.seconds() {
            Some(bugs_s) => round.samples.push(Sample {
                campaign_s,
                bugs_s,
                cpu_s: cpu,
            }),
            None => round
                .problems
                .push("the event stream never showed every known bug".into()),
        }
        self.check_records(&mut round, &report.records, &units, seed);
        round
    }

    fn supervised(&self, seed: u64, traced: bool) -> Round {
        let state_dir = self.work.join("supervised-state");
        let events = self.work.join("supervised-events.jsonl");
        let _ = fs::remove_dir_all(&state_dir);
        let _ = fs::remove_file(&events);
        let mut options = SupervisorOptions::new(self.spec.clone(), &state_dir);
        options.strategy = "exhaustive".to_string();
        options.workers = PARALLELISM;
        options.jobs = 1;
        options.seed = seed;
        options.backend = ExecBackend::Snapshot;
        // `lease_points` stays at the supervisor's stock plan, so a change
        // to how leases are carved shows in this workload.
        options.worker_bin = std::env::current_exe().expect("locate the benchmark executable");
        options.events_jsonl = Some(events.clone());

        // The canonical units of this seed, for the replays.
        let units = Campaign::builder(self.space.clone(), &self.replayer)
            .seed(seed)
            .build()
            .campaign()
            .units();

        // The supervisor streams the merged events to a file; a tail of it
        // drives the bug clock and tallies the per-unit costs.
        let clock = BugClock::new(self.expected.clone(), None);
        let done = AtomicBool::new(false);
        let cpu_before = cpu_s();
        let (outcome, campaign_s, tally) = std::thread::scope(|scope| {
            let tail = scope.spawn(|| {
                let mut tally = StreamTally {
                    unit_micros: vec![0; units.len()],
                    ..StreamTally::default()
                };
                let mut stream = JsonlTail::new(&events);
                loop {
                    let last = done.load(Ordering::SeqCst);
                    let poll = stream.poll().expect("tail the supervisor's event stream");
                    for line in poll.lines {
                        tally.observe(&line, &clock);
                    }
                    if last {
                        return tally;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
            clock.restart();
            let started = Instant::now();
            let outcome = run_supervised(&options);
            let campaign_s = started.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            let tally = tail.join().expect("event tail thread panicked");
            (outcome, campaign_s, tally)
        });
        let cpu = cpu_s() - cpu_before;

        let mut round = Round {
            attempted: units.len() as u64,
            ..Round::default()
        };
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(err) => {
                round.problems.push(format!("supervised run failed: {err}"));
                round.failed = round.attempted;
                return round;
            }
        };
        let all: BTreeSet<usize> = (0..units.len()).collect();
        round.failed += coverage_failures(&outcome.report.records, &all) as u64;
        if outcome.total_units != units.len() {
            round.problems.push(format!(
                "the supervisor planned {} units, the space has {}",
                outcome.total_units,
                units.len()
            ));
        }
        if outcome.worker_restarts != 0 || outcome.re_executed_units != 0 {
            round.problems.push(format!(
                "{} worker restarts and {} re-executed units in a run without kills",
                outcome.worker_restarts, outcome.re_executed_units
            ));
        }
        match clock.seconds() {
            Some(bugs_s) => round.samples.push(Sample {
                campaign_s,
                bugs_s,
                cpu_s: cpu,
            }),
            None => round
                .problems
                .push("the event stream never showed every known bug".into()),
        }
        self.check_records(&mut round, &outcome.report.records, &units, seed);
        if traced {
            let mut values = LayerValues::new();
            fill_from_report(&mut values, &outcome.report);
            tally.units.fill(&mut values);
            let max_lease_micros = match lease_micros(&state_dir, &tally.unit_micros) {
                Ok(leases) => leases.into_iter().max().unwrap_or(0),
                Err(err) => {
                    round.problems.push(err);
                    0
                }
            };
            let idle_s = PARALLELISM as f64 * campaign_s - tally.units.unit_s();
            values.insert("campaign.events", tally.events as f64);
            values.insert("campaign.events.bytes", tally.bytes as f64);
            values.insert("campaign.checkpoint_writes", tally.checkpoint_writes as f64);
            values.insert("supervisor.leases_issued", outcome.leases_issued as f64);
            values.insert("supervisor.leases_stolen", outcome.leases_stolen as f64);
            values.insert("supervisor.max_lease_s", max_lease_micros as f64 / 1e6);
            values.insert("supervisor.idle_s", idle_s.max(0.0));
            round.layers = values;
        }
        round
    }
}

/// What the tail of a supervised run's merged event stream saw.
#[derive(Default)]
struct StreamTally {
    events: u64,
    bytes: u64,
    checkpoint_writes: u64,
    /// Unit time by canonical unit id, in microseconds as the workers
    /// measured it.
    unit_micros: Vec<u64>,
    units: UnitCosts,
}

impl StreamTally {
    fn observe(&mut self, line: &str, clock: &BugClock) {
        self.events += 1;
        self.bytes += line.len() as u64 + 1;
        match CampaignEvent::from_json_line(line) {
            Ok(CampaignEvent::UnitFinished {
                record,
                duration_micros,
            }) => {
                clock.observe(&record);
                self.units.record_finished(&record, duration_micros);
                if let Some(micros) = self.unit_micros.get_mut(record.unit) {
                    *micros += duration_micros;
                }
            }
            Ok(CampaignEvent::CheckpointWritten { .. }) => self.checkpoint_writes += 1,
            _ => {}
        }
    }
}

/// Summed unit time of every lease the supervisor ran, read from the
/// per-lease checkpoints the workers left in `state_dir`: each holds the
/// records of exactly the units its lease ran, whatever the lease plan.
fn lease_micros(state_dir: &Path, unit_micros: &[u64]) -> Result<Vec<u64>, String> {
    let entries =
        fs::read_dir(state_dir).map_err(|err| format!("read {}: {err}", state_dir.display()))?;
    let mut leases = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|err| format!("list lease checkpoints: {err}"))?
            .path();
        if path.extension().is_none_or(|ext| ext != "json") {
            continue;
        }
        let read = |path: &Path| -> Result<LeaseOutcome, String> {
            let text = fs::read_to_string(path).map_err(|err| err.to_string())?;
            let state = CampaignState::from_json(&text).map_err(|err| err.to_string())?;
            LeaseOutcome::from_state(&state).map_err(|err| err.to_string())
        };
        let lease =
            read(&path).map_err(|err| format!("lease checkpoint {}: {err}", path.display()))?;
        leases.push(
            lease
                .report
                .records
                .iter()
                .map(|r| unit_micros.get(r.unit).copied().unwrap_or(0))
                .sum(),
        );
    }
    if leases.is_empty() {
        return Err(format!("no lease checkpoints in {}", state_dir.display()));
    }
    Ok(leases)
}
