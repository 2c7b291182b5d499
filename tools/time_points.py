"""Time the benchmark's pool points in-process, for one or two source trees.

    python3 tools/time_points.py SRC_A [SRC_B] [--rounds N] [--limit N]

Each SRC is a directory holding the ``latgreen`` package (a checkout's
``src``).  Every round runs each tree once in a fresh interpreter, the two
trees alternating which goes first.  An interpreter evaluates every
``points`` and ``large-d`` point of ``perfbench/pool.json`` once to fill
the caches, then times each point's ``green_local`` call over 5 passes and
keeps its best time; across rounds each point keeps its best again.  Then
it runs one more pass under cProfile, which counts the function calls per
point, and calls each point once more with ``green.eval_terms`` wrapped,
and on the t0 contour ``green.eval_rays`` and ``green.eval_segment``
(where a tree has them), which counts the nodes (rows x nodes) handed to
them: counts that do not depend on the machine or its load.  The
evaluations per point count every node of each level the point ran; the
nodes per point count those it formed terms on, so their gap is what the
cut at the reach skipped.

The report gives, per workload and per (set, d): the number of points,
the p50, p90 and mean of the points' best times, the function calls, the
integrand evaluations and the nodes formed per point, and, with two
trees, B's mean over A's.  ``--limit N`` takes only the first N points of
each workload.

These are best-of-passes times of single calls in a quiet process, which
is where a change's cost shows first.  They are not the benchmark:
``perfbench/run.py`` times whole runs under its own rules, and its verdict
is the one that counts.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL = os.path.join(ROOT, "perfbench", "pool.json")

# the pool's sets of each point workload, by name prefix
WORKLOADS = {"points": "points/", "large-d": "large/"}
PASSES = 5


def pool_points(limit: int | None) -> list[tuple[str, str, int, float]]:
    """(workload, set, d, omega) of every point, in pool order."""
    with open(POOL, encoding="utf-8") as fh:
        sets = json.load(fh)["sets"]
    points = []
    for workload, prefix in WORKLOADS.items():
        mine = [(workload, name[len(prefix):], d, w)
                for name in sorted(sets) if name.startswith(prefix) for d, w in sets[name]]
        points += mine[:limit]
    return points


def worker(limit: int | None) -> dict:
    """In this interpreter: each point's best time, function calls,
    evaluations and nodes formed."""
    from latgreen import green, green_local

    points = pool_points(limit)
    for _, _, d, w in points:  # fill the caches
        green_local(d, w)
    best = [float("inf")] * len(points)
    clock = time.perf_counter
    for _ in range(PASSES):
        for i, (_, _, d, w) in enumerate(points):
            t0 = clock()
            green_local(d, w)
            best[i] = min(best[i], clock() - t0)
    calls, evals, nodes = [], [], []
    formed = []

    def counted(fn, nodes_of):
        def wrapper(d, rows, *args):
            formed.append(len(rows) * nodes_of(*args))
            return fn(d, rows, *args)
        return wrapper

    # each evaluator's rows, and the size of its node table
    sizes = {"eval_terms": lambda table, weights: table.tau.size,
             "eval_rays": lambda js, table: table.iz.size,
             "eval_segment": lambda table: table.t.size}
    plain = {name: getattr(green, name) for name in sizes if hasattr(green, name)}
    for _, _, d, w in points:
        prof = cProfile.Profile()
        prof.enable()
        res = green_local(d, w)
        prof.disable()
        # less the one call of prof.disable itself
        calls.append(pstats.Stats(prof).total_calls - 1)
        evals.append(res.evaluations)
        # outside the profile, so the wrapper adds no calls to its count
        formed.clear()
        for name, fn in plain.items():
            setattr(green, name, counted(fn, sizes[name]))
        try:
            green_local(d, w)
        finally:
            for name, fn in plain.items():
                setattr(green, name, fn)
        nodes.append(sum(formed))
    return {"best": best, "calls": calls, "evals": evals, "nodes": nodes}


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


def report(points, results: list[dict]) -> list[str]:
    """The table: one row per workload, then per (set, d)."""
    groups: dict[tuple[str, str], list[int]] = {}
    for i, (workload, name, d, _) in enumerate(points):
        groups.setdefault((workload, "all"), []).append(i)
        groups.setdefault((workload, f"{name} d={d}"), []).append(i)
    head = f"{'workload':<8} {'group':<22} {'n':>4}"
    for tag in "AB"[:len(results)]:
        head += f" | {tag} p50 ms  p90 ms mean ms calls/pt evals/pt nodes/pt"
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
                     f" {statistics.fmean(res['evals'][i] for i in idx):8.1f}"
                     f" {statistics.fmean(res['nodes'][i] for i in idx):8.1f}")
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
                        help="time only the first N points of each workload")
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
    print(f"{args.rounds} round(s), best of {PASSES} passes per point per round; "
          + "; ".join(f"{tag} = {os.path.abspath(src)}" for tag, src in zip("AB", args.src)))
    print("\n".join(report(pool_points(args.limit), best)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
