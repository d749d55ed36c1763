#!/usr/bin/env python3
"""Steadiness check: repeat the benchmark and record each metric's spread.

    python3 perfbench/steadiness.py --workload NAME --seeds 1,2,3,4,5
    python3 perfbench/steadiness.py --workload NAME --seeds 7 --repeat 5

Each repetition is one full `run.py` invocation, made the way BENCHMARK.json
declares it (`command --workload W --seed N --seconds run_seconds --trace
0`). For every end-to-end metric it reports the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median next
to a third of the metric's bound. Results are appended as one JSON line per
call to the file named by `--record` (default `perfbench/out/steadiness.jsonl`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def one_run(declared, workload, seed):
    command = declared["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(declared["run_seconds"]), "--trace", "0",
    ]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"unexpected result keys {sorted(result)}")
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: oracle failure {result}")
    names = [m["name"] for m in declared["end_to_end"]]
    if list(result["metrics"]) != names:
        sys.exit(f"printed metrics {list(result['metrics'])} differ from declared {names}")
    return result, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--repeat", type=int, default=1, help="invocations per seed")
    parser.add_argument("--record", default=os.path.join(BENCH_DIR, "out", "steadiness.jsonl"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")]
    values = {m["name"]: [] for m in declared["end_to_end"]}
    wall = []
    for seed in seeds:
        for _ in range(args.repeat):
            result, elapsed = one_run(declared, args.workload, seed)
            wall.append(elapsed)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"seed {seed}: {elapsed:.1f} s  " + "  ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)

    summary = {}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    print(f"{args.workload}: {len(wall)} invocations, {statistics.fmean(wall):.1f} s each on average")
    for name, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        median = statistics.median(vs)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds[name], "values": vs}
        flag = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"  {name:<14} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f}  bound/3 {bounds[name] / 3:.4f}  {flag}")
    os.makedirs(os.path.dirname(args.record), exist_ok=True)
    with open(args.record, "a") as f:
        f.write(json.dumps({"workload": args.workload, "seeds": seeds, "repeat": args.repeat,
                            "invocation_s": wall, "metrics": summary}) + "\n")


if __name__ == "__main__":
    main()
