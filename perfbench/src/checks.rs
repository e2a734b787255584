//! Correctness checks made apart from the program's own accounting: the
//! paper's known bugs matched against `lfi_targets::KNOWN_BUGS`, fresh-VM
//! replays of recorded units, and exactly-once unit coverage.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lfi_campaign::{CampaignEvent, CrashInfo, EventSink, Execution, Executor, RunRecord, WorkUnit};
use lfi_targets::{KnownBug, KNOWN_BUGS};

use crate::measure::mix;

/// Records sampled for replay per campaign, beyond every single-process
/// crash record (which is always replayed).
const REPLAY_SAMPLE: usize = 8;

/// The Table 1 system a stock target stands in for.
fn system_of(target: &str) -> Option<&'static str> {
    match target {
        "bind-lite" => Some("BIND"),
        "db-lite" => Some("MySQL"),
        "git-lite" => Some("Git"),
        "bft-lite" => Some("PBFT"),
        _ => None,
    }
}

/// The known bugs that live in the given targets.
pub fn expected_bugs<S: AsRef<str>>(targets: &[S]) -> Vec<&'static KnownBug> {
    let systems: BTreeSet<&str> = targets
        .iter()
        .filter_map(|t| system_of(t.as_ref()))
        .collect();
    KNOWN_BUGS
        .iter()
        .filter(|bug| systems.contains(bug.system))
        .collect()
}

/// The Git data-loss bug shows as a passing `commit` run that absorbed a
/// `setenv` injection (the commit lands without its author).
fn is_data_loss(record: &RunRecord) -> bool {
    record.target == "git-lite"
        && record.function == "setenv"
        && record.args.first().map(String::as_str) == Some("commit")
        && record.injections > 0
        && record.outcome == lfi_campaign::OutcomeKind::Passed
}

/// Whether a record can count towards any known bug.
fn is_evidence(record: &RunRecord) -> bool {
    record.outcome.is_crash() || !record.crashes.is_empty() || is_data_loss(record)
}

/// How many of `expected` the records exhibit. A crash is attributed to
/// `(injected function, caller)`: the call sites' callers for
/// single-process targets, every frame on the failure path for the
/// cluster target. Bugs that share a key each need a distinct call-site
/// offset.
pub fn bugs_found<'r>(
    records: impl IntoIterator<Item = &'r RunRecord>,
    expected: &[&'static KnownBug],
) -> usize {
    let mut sites: BTreeMap<(&str, &str), BTreeSet<u64>> = BTreeMap::new();
    let mut data_loss = false;
    for record in records {
        if record.target == "bft-lite" {
            for crash in &record.crashes {
                for frame in crash.backtrace.iter().chain(&crash.in_function) {
                    sites
                        .entry((&record.function, frame))
                        .or_default()
                        .insert(record.offset);
                }
            }
        } else if record.outcome.is_crash() {
            let fallback = record.crashes.first().and_then(|c| c.backtrace.first());
            for site in &record.injected_sites {
                if let Some(caller) = site.caller.as_ref().or(fallback) {
                    sites
                        .entry((&record.function, caller))
                        .or_default()
                        .insert(site.offset);
                }
            }
        } else {
            data_loss |= is_data_loss(record);
        }
    }
    let mut claimed: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    expected
        .iter()
        .filter(|bug| {
            if !bug.crashes {
                return data_loss;
            }
            let key = (bug.injected_function, bug.manifests_in);
            let available = sites.get(&key).map_or(0, BTreeSet::len);
            let used = claimed.entry(key).or_insert(0);
            *used += 1;
            *used <= available
        })
        .count()
}

/// An event sink that stamps the moment the records seen so far first
/// exhibit every expected known bug, then forwards the event.
pub struct BugClock<'a> {
    expected: Vec<&'static KnownBug>,
    evidence: Mutex<Evidence>,
    next: Option<&'a dyn EventSink>,
}

struct Evidence {
    start: Instant,
    records: Vec<RunRecord>,
    found_at: Option<Duration>,
}

impl<'a> BugClock<'a> {
    /// A clock started now.
    pub fn new(expected: Vec<&'static KnownBug>, next: Option<&'a dyn EventSink>) -> Self {
        BugClock {
            expected,
            evidence: Mutex::new(Evidence {
                start: Instant::now(),
                records: Vec::new(),
                found_at: None,
            }),
            next,
        }
    }

    /// Restart the clock: call right before the campaign starts.
    pub fn restart(&self) {
        self.evidence.lock().expect("bug clock lock poisoned").start = Instant::now();
    }

    /// Feed one finished record.
    pub fn observe(&self, record: &RunRecord) {
        if !is_evidence(record) {
            return;
        }
        let mut evidence = self.evidence.lock().expect("bug clock lock poisoned");
        evidence.records.push(record.clone());
        if evidence.found_at.is_none()
            && bugs_found(&evidence.records, &self.expected) == self.expected.len()
        {
            evidence.found_at = Some(evidence.start.elapsed());
        }
    }

    /// Seconds from the start until every expected bug was exhibited.
    pub fn seconds(&self) -> Option<f64> {
        let evidence = self.evidence.lock().expect("bug clock lock poisoned");
        evidence.found_at.map(|found_at| found_at.as_secs_f64())
    }
}

impl EventSink for BugClock<'_> {
    fn event(&self, event: &CampaignEvent) {
        if let Some(next) = self.next {
            next.event(event);
        }
        if let CampaignEvent::UnitFinished { record, .. } = event {
            self.observe(record);
        }
    }
}

/// Distinct crash signatures as triage forms them: faulting module and
/// offset, plus the innermost frame.
fn signatures(crashes: &[CrashInfo]) -> BTreeSet<(&str, u64, Option<&str>)> {
    crashes
        .iter()
        .map(|crash| {
            let frame = crash.in_function.as_ref().or(crash.backtrace.first());
            (
                crash.module.as_str(),
                crash.offset,
                frame.map(String::as_str),
            )
        })
        .collect()
}

fn agrees(record: &RunRecord, replay: &Execution) -> bool {
    record.outcome == replay.outcome && signatures(&record.crashes) == signatures(&replay.crashes)
}

/// Every crash record of a single-process target plus a `seed`-chosen
/// sample of the other records.
pub fn replay_picks(records: &[RunRecord], seed: u64) -> Vec<&RunRecord> {
    let (mut picks, mut rest): (Vec<&RunRecord>, Vec<&RunRecord>) = records
        .iter()
        .partition(|r| r.target != "bft-lite" && r.outcome.is_crash());
    for i in 0..REPLAY_SAMPLE.min(rest.len()) {
        let j = i + (mix(seed, i as u64) % (rest.len() - i) as u64) as usize;
        rest.swap(i, j);
        picks.push(rest[i]);
    }
    picks
}

/// Replay each picked record's unit on a fresh VM through
/// [`Executor::execute`]; the unit ids whose outcome or crash signatures
/// disagree with the record.
pub fn replay_disagreements(
    executor: &dyn Executor,
    units: &[WorkUnit],
    picks: &[&RunRecord],
) -> Vec<usize> {
    picks
        .iter()
        .filter(|record| {
            let unit = &units[record.unit];
            assert_eq!(unit.id, record.unit, "canonical unit ids are positions");
            !agrees(record, &executor.execute(unit))
        })
        .map(|record| record.unit)
        .collect()
}

/// Units of `expected` that are missing from `records`, plus records that
/// repeat a unit id or name one outside `expected`.
pub fn coverage_failures(records: &[RunRecord], expected: &BTreeSet<usize>) -> usize {
    let mut seen = BTreeSet::new();
    let extra = records
        .iter()
        .filter(|r| !expected.contains(&r.unit) || !seen.insert(r.unit))
        .count();
    extra + expected.difference(&seen).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_map_to_the_papers_bug_counts() {
        assert_eq!(
            expected_bugs(&["bind-lite", "git-lite", "db-lite", "bft-lite"]).len(),
            11
        );
        assert_eq!(
            expected_bugs(&["bind-lite", "git-lite", "db-lite", "httpd-lite"]).len(),
            9
        );
    }

    #[test]
    fn coverage_counts_missing_duplicated_and_foreign_units() {
        let record = |unit| RunRecord {
            unit,
            target: "git-lite".into(),
            function: "open".into(),
            offset: 0,
            args: vec![],
            outcome: lfi_campaign::OutcomeKind::Passed,
            injections: 0,
            injected_sites: vec![],
            crashes: vec![],
            virtual_time: 1,
        };
        let expected: BTreeSet<usize> = (0..4).collect();
        assert_eq!(
            coverage_failures(&[record(0), record(1), record(2), record(3)], &expected),
            0
        );
        assert_eq!(
            coverage_failures(&[record(0), record(0), record(2), record(9)], &expected),
            4
        );
    }
}
