"""Seeded inputs of the three workloads, drawn from the reference pool.

All workloads are closed loops: one caller, one thread of work, the next
call issued when the previous one returns.  A pass is the list of calls
below; a run repeats whole passes until its time is up.

* ``points``: independent ``green_local`` calls, d = 1..7, mixing the band
  interior, offsets of 1e-9..1e-3 from a van Hove point, the exact van Hove
  points (with the d = 1, 2 divergences) and the outside of the band.  No
  grid is shared, so batching has nothing to act on.
* ``large-d``: ``green_local`` at d = 8..120 at the band centre, in the
  interior, near the band edge and outside it: O(d) terms per node, the
  log-space branch and big integer coefficients.
* ``cli``: one ``latgreen`` process at a time: ``sweep`` to a file over
  401 points at d = 3 (where per-point overhead is amortised and work on
  shared quadrature nodes could be batched) and over 41 points at d = 20,
  ``eval`` at pool points, ``selftest --level quick``.  Every call pays
  interpreter start, imports and cold caches.
"""
from __future__ import annotations

import random

WORKLOADS = ("points", "large-d", "cli")

# Point workloads take every pool point of their sets, in a seeded order:
# which points fail and which are slow is decided by (d, region), so
# sampling them would only add seed-to-seed noise to the metrics.
_POINT_SETS = {
    "points": ("points/interior", "points/van_hove_offset", "points/van_hove_exact",
               "points/outside"),
    "large-d": ("large/centre", "large/interior", "large/edge", "large/twice_edge",
                "large/outside"),
}


def make_calls(workload: str, seed: int, sets, out_dir: str) -> list[dict]:
    """One pass of the workload for this seed; same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in _POINT_SETS:
        calls = [{"kind": "point", "d": d, "omega": w}
                 for name in _POINT_SETS[workload] for d, w in sets[name]]
        rng.shuffle(calls)
        return calls
    if workload == "cli":
        def sweep(d, grid):
            return {"kind": "cli", "cmd": "sweep", "argv": [
                "sweep", "--d", str(d), f"--omega-min={grid[0]!r}",
                f"--omega-max={grid[-1]!r}", "--steps", str(len(grid)),
                "--out", f"{out_dir}/cli-sweep-d{d}.csv"]}

        calls = [
            sweep(3, [w for _, w in sets["cli/sweep_d3"]]),
            sweep(20, [w for _, w in sets["cli/sweep_d20"]]),
            {"kind": "cli", "cmd": "selftest", "argv": ["selftest", "--level", "quick"]},
        ]
        for name in _POINT_SETS["points"]:  # one ``eval`` from each
            d, w = rng.choice(sets[name])
            calls.append({"kind": "cli", "cmd": "eval",
                          "argv": ["eval", "--d", str(d), f"--omega={w!r}"]})
        rng.shuffle(calls)
        return calls
    raise ValueError(f"unknown workload {workload!r}")
