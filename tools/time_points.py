"""Time the benchmark's pool points and cli sweeps in-process, for one or
two source trees.

    python3 tools/time_points.py SRC_A [SRC_B] [--rounds N] [--limit N]

Each SRC is a directory holding the ``latgreen`` package (a checkout's
``src``).  Every round runs each tree once in a fresh interpreter, the two
trees alternating which goes first.  An interpreter makes every call
once to fill the caches: each ``points`` and ``large-d`` point of
``perfbench/pool.json`` as one ``green_local`` call, and the ``cli``
workload's two sweeps (``cli/sweep_d3``, 401 points, and
``cli/sweep_d20``, 41) as one ``green_sweep`` call each, on the grid
``latgreen sweep`` builds from their ends.  Then it times each call over
5 passes and keeps its best time; across rounds each call keeps its best
again.  Then it runs one more pass under cProfile, which counts the
function calls per call, and reads the integrand evaluations of each
call's results: counts that do not depend on the machine or its load.

The report gives, per workload and per (set, d): the number of calls,
the p50, p90 and mean of the calls' best times, the function calls and
the integrand evaluations per call (a point, or a whole sweep), and, with
two trees, B's mean over A's.  ``--limit N`` takes only the first N calls
of each workload.

These are best-of-passes times of single calls in a quiet process, which
is where a change's cost shows first; a cli sweep's time leaves out the
process start-up that ``tools/time_cli.py`` includes.  They are not the
benchmark: ``perfbench/run.py`` times whole runs under its own rules, and
its verdict is the one that counts.
"""
from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL = os.path.join(ROOT, "perfbench", "pool.json")

# the pool's sets of each point workload, by name prefix
WORKLOADS = {"points": "points/", "large-d": "large/"}
# the cli workload's sweeps, in its order (perfbench/workloads.py)
SWEEPS = ("cli/sweep_d3", "cli/sweep_d20")
PASSES = 5


def pool_calls(limit: int | None) -> list[tuple[str, str, int, float | np.ndarray]]:
    """(workload, set, d, omega) of every call, in pool order: a point's
    omega is its frequency, a sweep's the grid ``latgreen sweep`` builds
    from its set's ends (``cli.cmd_sweep``)."""
    with open(POOL, encoding="utf-8") as fh:
        sets = json.load(fh)["sets"]
    points = []
    for workload, prefix in WORKLOADS.items():
        mine = [(workload, name[len(prefix):], d, w)
                for name in sorted(sets) if name.startswith(prefix) for d, w in sets[name]]
        points += mine[:limit]
    sweeps = [("cli", name[len("cli/"):], sets[name][0][0],
               np.linspace(sets[name][0][1], sets[name][-1][1], len(sets[name])))
              for name in SWEEPS]
    return points + sweeps[:limit]


def worker(limit: int | None) -> dict:
    """In this interpreter: each call's best time, function calls and
    evaluations."""
    from latgreen import green_local, green_sweep

    def evaluator(w):
        # a sweep's grid is an array, a point's frequency a float
        return green_sweep if isinstance(w, np.ndarray) else green_local

    calls = pool_calls(limit)
    for _, _, d, w in calls:  # fill the caches
        evaluator(w)(d, w)
    best = [float("inf")] * len(calls)
    clock = time.perf_counter
    for _ in range(PASSES):
        for i, (_, _, d, w) in enumerate(calls):
            f = evaluator(w)
            t0 = clock()
            f(d, w)
            best[i] = min(best[i], clock() - t0)
    counts, evals = [], []
    for _, _, d, w in calls:
        f = evaluator(w)
        prof = cProfile.Profile()
        prof.enable()
        res = f(d, w)
        prof.disable()
        # less the one call of prof.disable itself
        counts.append(pstats.Stats(prof).total_calls - 1)
        evals.append(sum(r.evaluations for r in (res if isinstance(res, list) else [res])))
    return {"best": best, "calls": counts, "evals": evals}


def run_tree(src: str, limit: int | None) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--worker"]
    if limit is not None:
        argv += ["--limit", str(limit)]
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, as ``perfbench/run.py`` takes it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def report(calls, results: list[dict]) -> list[str]:
    """The table: one row per workload, then per (set, d)."""
    groups: dict[tuple[str, str], list[int]] = {}
    for i, (workload, name, d, _) in enumerate(calls):
        groups.setdefault((workload, "all"), []).append(i)
        groups.setdefault((workload, f"{name} d={d}"), []).append(i)
    head = f"{'workload':<8} {'group':<22} {'n':>4}"
    for tag in "AB"[:len(results)]:
        head += f" | {tag} p50 ms  p90 ms mean ms calls/pt evals/pt"
    if len(results) == 2:
        head += " | B/A mean"
    lines = [head]
    for (workload, group), idx in groups.items():
        line = f"{workload:<8} {group:<22} {len(idx):>4}"
        means = []
        for res in results:
            t = [1e3 * res["best"][i] for i in idx]
            means.append(statistics.fmean(t))
            line += (f" | {statistics.median(t):8.3f} {percentile(t, 90):7.3f}"
                     f" {means[-1]:7.3f} {statistics.fmean(res['calls'][i] for i in idx):8.1f}"
                     f" {statistics.fmean(res['evals'][i] for i in idx):8.1f}")
        if len(results) == 2:
            line += f" | {means[1] / means[0]:8.3f}"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="*", help="one or two source trees, A then B")
    parser.add_argument("--rounds", type=int, default=3,
                        help="fresh interpreters per tree (default 3)")
    parser.add_argument("--limit", type=int, default=None,
                        help="time only the first N calls of each workload")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.stdout.write(json.dumps(worker(args.limit)) + "\n")
        return 0
    if not 1 <= len(args.src) <= 2:
        parser.error("give one or two source trees")
    if args.rounds < 1 or (args.limit is not None and args.limit < 1):
        parser.error("--rounds and --limit must be at least 1")
    best: list[dict | None] = [None] * len(args.src)
    for r in range(args.rounds):
        order = range(len(args.src)) if r % 2 == 0 else reversed(range(len(args.src)))
        for t in order:
            res = run_tree(args.src[t], args.limit)
            if best[t] is None:
                best[t] = res
            else:
                best[t]["best"] = list(map(min, best[t]["best"], res["best"]))
    print(f"{args.rounds} round(s), best of {PASSES} passes per call per round; "
          + "; ".join(f"{tag} = {os.path.abspath(src)}" for tag, src in zip("AB", args.src)))
    print("\n".join(report(pool_calls(args.limit), best)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
