#!/usr/bin/env python3
"""Steadiness self-check for the campaign benchmark.

Runs the benchmark command from BENCHMARK.json over ten seeds for every
workload, in two sets taken one after the other (so at different times),
and prints for each end-to-end metric of each workload:

  * each set's median and its quartile spread (Q3 - Q1) as a share of the
    median, next to the metric's bound;
  * the second set's median against the first's, as a share of the first,
    next to the bound: a positive share means the second set read worse.

Run it from the root of the repository:

    python3 perfbench/steady.py

Exit status is 1 when any spread (setup_s excepted) or any median drift
exceeds its bound, or a run fails; 0 otherwise.
"""

import json
import statistics
import subprocess
import sys
import time

SETS = 2
RUNS = 10  # seeds per workload per set; set 1 takes seeds 1-10, set 2 11-20


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    host = next((line for line in lines if line.startswith("# ")), "")
    for line in lines:
        if line.startswith("# sample"):
            print(f"  {workload} seed {seed} {line[2:]}", file=sys.stderr)
    return result, wall, host


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def better_sign(metric):
    return 1.0 if metric["better"] == "lower" else -1.0


def main():
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets = []
    ok = True
    for set_index in range(SETS):
        values = {w: {m["name"]: [] for m in metrics} for w in workloads}
        shares = {w: set() for w in workloads}
        for workload in workloads:
            for run in range(RUNS):
                seed = 1 + set_index * RUNS + run
                result, wall, host = run_once(bench["command"], workload, seed,
                                              bench["run_seconds"])
                ok &= result["correct"]
                shares[workload].add((result["failed"], result["attempted"]))
                for metric in metrics:
                    values[workload][metric["name"]].append(
                        result["metrics"][metric["name"]]["value"])
                summary = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                   for m in metrics)
                print(f"set {set_index + 1} {workload} seed {seed}: {summary} "
                      f"[{wall:.0f} s] {host.split(';', 1)[-1].strip()}", flush=True)
        sets.append((values, shares))

    print()
    print(f"{'workload':<16} {'metric':<12} {'bound':>6} "
          + " ".join(f"{'median' + str(i + 1):>10} {'spread' + str(i + 1):>8}"
                     for i in range(SETS))
          + "   drift")
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            row = f"{workload:<16} {name:<12} {bound:>6.2f} "
            medians = []
            for values, _ in sets:
                series = values[workload][name]
                medians.append(statistics.median(series))
                s = spread(series)
                flag = "!" if name != "setup_s" and s > bound else " "
                ok &= flag == " "
                row += f"{medians[-1]:>10.4g} {s:>7.3f}{flag}"
            drift = better_sign(metric) * (medians[1] - medians[0]) / medians[0]
            flag = "!" if drift > bound else " "
            ok &= flag == " "
            row += f" {drift:>+7.3f}{flag}"
            print(row)
    for workload in workloads:
        fractions = {f / a for values, shares in sets for f, a in shares[workload]}
        if len(fractions) > 1:
            print(f"{workload}: failed share differs between runs: {sorted(fractions)}")
            ok = False
    print("steady" if ok else "NOT steady (a '!' marks a spread or drift beyond its bound)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
