#!/usr/bin/env python3
"""Benchmark runner for the IDN reexamination pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The runner builds `perfbench/` (a Cargo
package of its own that links the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), computes the workload's
oracle reference once, then starts one fresh `perfbench run` process per
timed run until `--seconds` have passed. Every report is checked against
the reference. With `--trace 0` it prints the end-to-end metrics, with
`--trace 1` the per-layer metrics of traced runs interleaved with
untraced ones. A table for people comes first; the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Outputs land in `perfbench/out/`: the reference and last report, and in
traced mode the Chrome trace and the ledger of the last traced run.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("census-stream", "census-batch-mined", "zone-diff", "faulted-crawl")
DEFAULT_SEED = 0x1DAE2018  # EcosystemConfig::default().seed
SCALE = 10
# One invocation must end within 180 s; the first one may build for longer.
RUN_BUDGET_S = 165.0
BUILD_TIMEOUT_S = 850.0
MIN_RUNS = 3

# Declared in BENCHMARK.json. The table also prints `records_per_s`
# (records / run_s) and `failed_share` (1 - ok_share), which are not declared:
# the first repeats run_s, the second reads 0 on three workloads.
END_TO_END = [
    # name, unit, better
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("update_p50_s", "s", "lower"),
    ("update_tail_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ok_share", "ratio", "higher"),
]

PER_LAYER = [
    ("datagen.build_s", "s", "lower"),
    ("datagen.registrations_s", "s", "lower"),
    ("datagen.artifacts_s", "s", "lower"),
    ("datagen.peak_resident_records", "count", "lower"),
    ("arena.columns_s", "s", "lower"),
    ("analyze.scan_s", "s", "lower"),
    ("analyze.scan_ns_per_record", "ns/record", "lower"),
    ("analyze.pass.homograph_s", "s", "lower"),
    ("analyze.pass.semantic1_s", "s", "lower"),
    ("analyze.pass.semantic2_s", "s", "lower"),
    ("analyze.pass.activity_s", "s", "lower"),
    ("analyze.pdns_hit_ratio", "ratio", "higher"),
    ("analyze.homograph_finding_ratio", "ratio", "higher"),
    ("epoch.apply_s", "s", "lower"),
    ("epoch.grow_s", "s", "lower"),
    ("epoch.fold_s", "s", "lower"),
    ("epoch.refold_ratio", "ratio", "lower"),
    ("epoch.partials_resident", "count", "lower"),
    ("crawler.survey_s", "s", "lower"),
    ("crawler.work_s", "s", "lower"),
    ("crawler.overhead_s", "s", "lower"),
    ("crawler.resolved_ratio", "ratio", "higher"),
    ("whois.survey_s", "s", "lower"),
    ("whois.coverage_ratio", "ratio", "higher"),
    ("fault.zone_ingest_s", "s", "lower"),
    ("sched.survey_s", "s", "lower"),
    ("sched.attempts_per_arrival", "ratio", "lower"),
    ("sched.shed_ratio", "ratio", "lower"),
    ("sched.breaker_opened", "count", "lower"),
    ("mine.bucket_index_s", "s", "lower"),
    ("mine.pair_mine_s", "s", "lower"),
    ("mine.pair_mine_max_chunk_s", "s", "lower"),
    ("mine.verified_ratio", "ratio", "higher"),
    ("reports.full_s", "s", "lower"),
    ("reports.ext_multichar_s", "s", "lower"),
    ("reports.fig7_s", "s", "lower"),
    ("reports.table3_s", "s", "lower"),
    ("reports.table4_s", "s", "lower"),
    ("run.unattributed_s", "s", "lower"),
    ("run.trace_overhead", "ratio", "lower"),
    ("run.failed_share", "ratio", "lower"),
]

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class BenchError(Exception):
    """A failure that must end the invocation without a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "bench", "Cargo.toml")):
        raise BenchError(
            f"repository sources not found under {ROOT}: run from the root of a full checkout"
        )
    env = dict(os.environ)
    target = os.path.abspath(os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build")))
    env["CARGO_TARGET_DIR"] = target
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
                              stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


class Invocation:
    """One invocation: the binary, the workload scale and the time budget."""

    def __init__(self, binary, scale=SCALE, budget_s=RUN_BUDGET_S):
        self.binary = binary
        self.scale = scale
        self.deadline = time.monotonic() + budget_s

    def call(self, *args):
        """Runs the binary to completion and returns its last stdout line as JSON."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        command = [self.binary, *args, "--scale", str(self.scale)]
        try:
            done = subprocess.run(command, cwd=ROOT, timeout=remaining,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(args[:3])} exceeded the time budget")
        if done.returncode != 0:
            raise BenchError(f"{' '.join(command)} exited {done.returncode}: {done.stderr.strip()}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{' '.join(command)} printed nothing")
        return json.loads(lines[-1])

    def remaining(self):
        return self.deadline - time.monotonic()


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def oracle_ok(workload, reference, report, health):
    """Whether one run's report passes its workload's oracle."""
    if workload == "census-batch-mined":
        # The mined report is a strict byte-extension of the unmined one.
        return len(report) > len(reference) and report.startswith(reference)
    if workload == "faulted-crawl":
        return report == reference and health is not None and health["status"] != "budget-exceeded"
    return report == reference


def refused_share(health):
    """(errors + shed) / (ok + errors + shed) of a faulted run; 0 otherwise."""
    if health is None:
        return 0.0
    total = health["ok"] + health["errors"] + health["shed"]
    return (health["errors"] + health["shed"]) / total if total else 0.0


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (label, value); the maximum when there are fewer than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 11:
        k = n - 10
        return f"p{100 * k // n}", ordered[k - 1]
    return "max", ordered[-1]


def measure(workload, seed, seconds, trace, invocation, tamper=None):
    """Runs one workload for `seconds` and returns its result dict.

    `tamper`, when given, rewrites each report's bytes before the oracle
    sees them (the self-check uses it to prove corruption is counted).
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-{seed}")
    reference_path = f"{stem}-reference.md"
    report_path = f"{stem}-report.md"
    trace_path = f"{stem}.trace.json"
    common = ["--workload", workload, "--seed", str(seed)]

    ref = invocation.call("reference", *common, "--report", reference_path)
    reference = read_bytes(reference_path)

    plain, traced = [], []
    started = time.monotonic()
    longest = 0.0
    while True:
        runs_done = len(plain) + len(traced)
        use_trace = trace and runs_done % 2 == 1
        run_started = time.monotonic()
        args = ["run", *common, "--report", report_path]
        if use_trace:
            args += ["--trace", trace_path]
        result = invocation.call(*args)
        longest = max(longest, time.monotonic() - run_started)
        report = read_bytes(report_path)
        if tamper is not None:
            report = tamper(report)
        result["oracle_ok"] = oracle_ok(workload, reference, report, result["health"])
        (traced if use_trace else plain).append(result)

        enough = len(plain) >= (1 if trace else MIN_RUNS) and (not trace or traced)
        if enough and time.monotonic() - started >= seconds:
            break
        if enough and invocation.remaining() < 1.5 * longest + 5:
            log("stopping early: the invocation budget leaves no room for another run")
            break

    runs = plain + traced
    failed_runs = sum(1 for r in runs if not r["oracle_ok"])
    # A run whose report fails its oracle counts as wholly failed; a
    # faulted run that passes still counts the work it refused.
    failed_share = statistics.fmean(
        refused_share(r["health"]) if r["oracle_ok"] else 1.0 for r in runs
    )
    run_s = [r["run_s"] for r in plain]
    setup_s = [r["setup_s"] for r in plain]
    updates = [u for r in plain for u in r["updates_s"]]
    records = plain[0]["records"]
    tail_label, tail_value = tail(updates)
    end_to_end = {
        "run_s": statistics.median(run_s),
        "records_per_s": records / statistics.median(run_s),
        "setup_s": statistics.median(setup_s),
        "update_p50_s": statistics.median(updates),
        "update_tail_s": tail_value,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        "ok_share": 1.0 - failed_share,
    }
    result = {
        "workload": workload,
        "seed": seed,
        "records": records,
        "reference_s": ref["reference_s"],
        "runs": len(runs),
        "failed_runs": failed_runs,
        "failed_share": failed_share,
        "refused_share": statistics.fmean(refused_share(r["health"]) for r in runs),
        "run_samples": run_s,
        "setup_samples": setup_s,
        "update_samples": updates,
        "update_tail": tail_label,
        "end_to_end": end_to_end,
    }
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name, _, _ in PER_LAYER if name in traced[0]["layers"]}
        traced_wall = statistics.median(r["run_s"] for r in traced)
        layers["run.trace_overhead"] = traced_wall / statistics.median(run_s)
        layers["run.failed_share"] = failed_share
        ledger = [
            {"layer": layer, "self_s": statistics.median(r["ledger"][layer] for r in traced)}
            for layer in traced[0]["ledger"]
        ]
        ledger.append({"layer": "run.unattributed", "self_s": layers["run.unattributed_s"]})
        for row in ledger:
            row["share"] = row["self_s"] / traced_wall
        result.update(layers=layers, ledger=ledger, traced_wall_s=traced_wall,
                      trace_file=os.path.relpath(trace_path, ROOT))
        with open(f"{stem}.ledger.json", "w") as f:
            json.dump({"workload": workload, "seed": seed, "traced_wall_s": traced_wall,
                       "trace_overhead": layers["run.trace_overhead"], "ledger": ledger,
                       "layers": layers}, f, indent=1)
    return result


def human_table(result, trace):
    """The table printed before the JSON line."""
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  scale 1:{SCALE}  threads 2  "
        f"records {result['records']:,}  runs {result['runs']}  "
        f"reference {result['reference_s']:.2f} s",
    ]
    samples = {
        "run_s": result["run_samples"],
        "setup_s": result["setup_samples"],
        "update_p50_s": result["update_samples"],
    }
    rows = END_TO_END[:1] + [("records_per_s", "records/s", "higher")] + END_TO_END[1:]
    for name, unit, _ in rows:
        value = result["end_to_end"][name]
        detail = ""
        if name in samples:
            label, tail_value = tail(samples[name])
            detail = f"median of {len(samples[name])}; {label} {tail_value:.4f}"
        elif name == "update_tail_s":
            detail = f"{result['update_tail']} of {len(result['update_samples'])} updates"
        lines.append(f"  {name:<16} {value:>14.4f} {unit:<10} {detail}")
    lines.append(f"  {'failed_share':<16} {result['failed_share']:>14.4f} {'ratio':<10} "
                 f"{result['failed_runs']} oracle failures, refused share "
                 f"{result['refused_share']:.4f}")
    if trace:
        lines.append(f"  ledger over the traced wall {result['traced_wall_s']:.3f} s "
                     f"(trace: {result['trace_file']})")
        for row in result["ledger"]:
            lines.append(f"    {row['layer']:<18} {row['self_s']:>9.4f} s {100 * row['share']:>6.1f}%")
        for name, unit, _ in PER_LAYER:
            lines.append(f"  {name:<32} {result['layers'][name]:>14.6f} {unit}")
    return "\n".join(lines)


def metrics_of(result, trace):
    table = PER_LAYER if trace else END_TO_END
    source = result["layers"] if trace else result["end_to_end"]
    return {name: {"value": source[name], "unit": unit} for name, unit, _ in table}


def verdict(result):
    return result["failed_runs"] == 0


def self_check(binary):
    """Checks the runner itself at a small scale; returns a list of problems."""
    problems = []
    declared = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        want = [(m["name"], m["unit"], m["better"]) for m in declared[section]]
        if want != table:
            problems.append(f"BENCHMARK.json {section} differs from the runner's table")
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the runner's")
    for name in [m[0] for m in END_TO_END + PER_LAYER] + list(WORKLOADS):
        if not NAME_RE.fullmatch(name):
            problems.append(f"bad metric or workload name {name!r}")

    small = 200
    seeds = (DEFAULT_SEED, 7)
    invocation = Invocation(binary, scale=small, budget_s=600)
    fingerprints = [invocation.call("inputs", "--seed", str(s))["inputs"] for s in seeds]
    if fingerprints[0] == fingerprints[1]:
        problems.append("a different seed did not change the generated inputs")
    for workload in WORKLOADS:
        for seed, trace in ((seeds[0], False), (seeds[1], True)):
            result = measure(workload, seed, 0, trace, invocation)
            printed = set(metrics_of(result, trace))
            expected = {m[0] for m in (PER_LAYER if trace else END_TO_END)}
            if printed != expected:
                problems.append(f"{workload}: printed names differ from declared")
            if not verdict(result):
                problems.append(f"{workload} seed {seed}: oracle failed on an honest run")
            if abs(result["failed_share"] - result["refused_share"]) > 1e-12:
                problems.append(f"{workload}: failed_share is not the refused share")

        def flip(report):
            middle = len(report) // 2
            return report[:middle] + bytes([report[middle] ^ 0x01]) + report[middle + 1:]

        corrupted = measure(workload, seeds[0], 0, False, invocation, tamper=flip)
        if corrupted["failed_runs"] != corrupted["runs"] or corrupted["failed_share"] != 1.0:
            problems.append(f"{workload}: a corrupted report byte was not counted as failed")
        log(f"self-check: {workload} ok" if not problems else f"self-check: {workload}: {problems}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check the runner itself at a small scale")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
        if args.self_check:
            problems = self_check(binary)
            for problem in problems:
                log(f"FAIL {problem}")
            print("self-check " + ("failed" if problems else "passed"))
            return 1 if problems else 0

        trace = bool(args.trace)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for workload in workloads:
            budget = RUN_BUDGET_S if len(workloads) == 1 else 10 * RUN_BUDGET_S
            result = measure(workload, args.seed, args.seconds, trace, Invocation(binary, budget_s=budget))
            print(human_table(result, trace), flush=True)
            results.append(result)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1

    correct = all(verdict(r) for r in results)
    if len(results) == 1:
        metrics = metrics_of(results[0], trace)
    else:
        metrics = {r["workload"]: metrics_of(r, trace) for r in results}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["runs"] for r in results),
        "failed": sum(r["failed_runs"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
