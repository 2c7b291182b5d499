"""Time the benchmark's cli workload, one fresh process per call, for one or
two source trees.

    python3 tools/time_cli.py SRC_A [SRC_B] [--rounds N] [--seed N]

Each SRC is a directory holding the ``latgreen`` package (a checkout's
``src``).  The calls are the seven of the cli workload for ``--seed``
(default 1), drawn as ``perfbench/run.py`` draws them: by
``perfbench/workloads.make_calls`` from ``perfbench/pool.json``, which is
read only.  Every round runs each call once per tree as its own
``python -m latgreen.cli`` process, timed from spawn to exit, the trees
alternating which goes first from one call to the next.  Each call keeps
its best time over the rounds.

The report gives, per call, its command line and each tree's best time
and exit code; then each tree's p50, p90 (as ``perfbench/run.py`` takes
them) and sum, and with two trees B's over A's.  A process is the whole
cost a ``latgreen`` user pays: interpreter start, imports, the work and
the exit.

These are best-of-rounds times in a quiet machine.  They are not the
benchmark: ``perfbench/run.py --workload cli`` times whole runs under its
own rules, and its verdict is the one that counts.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from check import load_pool  # noqa: E402
from run import POOL, percentile  # noqa: E402
from workloads import make_calls  # noqa: E402


def time_call(src: str, argv: list[str]) -> tuple[float, int]:
    """(wall s, exit code) of one ``latgreen`` process on the tree ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "latgreen.cli", *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0, proc.returncode


def report(calls: list[dict], best: list[list[float]], codes: list[list[int]]) -> list[str]:
    tags = "AB"[:len(best)]
    lines = [" | ".join([f"{'call':<10}", *(f"{t + ' ms':>8} {'rc':>5}" for t in tags)])]
    for i, call in enumerate(calls):
        cells = [f"{1e3 * best[t][i]:8.1f} {codes[t][i]:>5}" for t in range(len(best))]
        # a sweep's last two arguments are its --out file
        args = call["argv"][1:-2] if call["cmd"] == "sweep" else call["argv"][1:]
        lines.append(" | ".join([f"{call['cmd']:<10}", *cells]) + "   " + " ".join(args))
    for name, stat in (("p50", statistics.median), ("p90", lambda v: percentile(v, 90)),
                       ("sum", sum)):
        values = [1e3 * stat(b) for b in best]
        line = " | ".join([f"{name:<10}", *(f"{v:8.1f} {'':>5}" for v in values)])
        if len(values) == 2:
            line += f"   B/A {values[1] / values[0]:.3f}"
        lines.append(line.rstrip())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+", help="one or two source trees, A then B")
    parser.add_argument("--rounds", type=int, default=5,
                        help="processes per call and tree (default 5)")
    parser.add_argument("--seed", type=int, default=1,
                        help="the cli workload's seed, as perfbench/run.py takes it")
    args = parser.parse_args(argv)
    if len(args.src) > 2:
        parser.error("give one or two source trees")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sets, _ = load_pool(POOL)
    n = len(args.src)
    with tempfile.TemporaryDirectory() as out_dir:  # the sweeps' --out files
        calls = make_calls("cli", args.seed, sets, out_dir)
        best = [[float("inf")] * len(calls) for _ in range(n)]
        codes = [[0] * len(calls) for _ in range(n)]
        turn = 0
        for _ in range(args.rounds):
            for i, call in enumerate(calls):
                for t in (range(n) if turn % 2 == 0 else reversed(range(n))):
                    wall, codes[t][i] = time_call(args.src[t], call["argv"])
                    best[t][i] = min(best[t][i], wall)
                turn += 1
    print(f"{args.rounds} round(s), best process time per call, seed {args.seed}; "
          + "; ".join(f"{tag} = {os.path.abspath(src)}" for tag, src in zip("AB", args.src)))
    print("\n".join(report(calls, best, codes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
