"""Steadiness report for the benchmark.

Runs ``run.py`` repeatedly on each workload, each run on another seed, and
prints per workload and end-to-end metric the median, the quartiles, the
sample count and the spread (q3 - q1) / median against the metric's bound in
``BENCHMARK.json``. With ``--sets 2`` it makes a second set of runs on fresh
seeds and checks that its median is not worse than the first set's by more
than the bound. Exits 1 when a run fails or a check does not hold.

    python3 bench/report.py --runs 10 --sets 2
    python3 bench/report.py --workload finite --runs 5 --sets 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, smoke: bool) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names, help="repeatable; default every workload")
    p.add_argument("--runs", type=int, default=10, help="runs per workload and set (default 10)")
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--smoke", action="store_true", help="tiny ladders, for the benchmark's own tests")
    args = p.parse_args(argv)
    workloads = args.workload or names
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in workloads:
                results[w][s].append(run_once(w, seed, args.seconds, args.smoke))
                print(f"set {s + 1} run {i + 1}/{args.runs} {w} seed {seed} done", file=sys.stderr, flush=True)

    ok = True
    header = f"{'workload':<11} {'metric':<12} {'unit':<5} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3} {'spread':>7} {'bound':>6}"
    if args.sets == 2:
        header += f" {'median2':>10} {'worse':>7}"
    print(header)
    for w in workloads:
        runs = [r for s in results[w] for r in s]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok &= failed == 0 and all(r["correct"] for r in runs)
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = [r["metrics"][name]["value"] for r in results[w][0]]
            median, q1, q3, share = spread(first)
            held = share <= bound
            line = (f"{w:<11} {name:<12} {metric['unit']:<5} {median:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                    f"{len(first):>3} {share:>7.3f} {bound:>6.2f}")
            if args.sets == 2:
                median2 = statistics.median(r["metrics"][name]["value"] for r in results[w][1])
                worse = (median2 - median) / median if metric["better"] == "lower" else (median - median2) / median
                held &= worse <= bound
                line += f" {median2:>10.4f} {worse:>7.3f}"
            ok &= held
            print(line + ("" if held else "  FAIL"))
        print(f"{w:<11} error_rate   ratio {failed / attempted:>10.4f}   ({failed} of {attempted} ops failed)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
