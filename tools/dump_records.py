"""Write one ``repr(GreenResult)`` per line for a fixed set of inputs.

    PYTHONPATH=src python3 tools/dump_records.py OUT [--limit N]

The records are those of the checkout whose ``src`` is on PYTHONPATH, so
two dumps, one per checkout, show by ``diff OUT_A OUT_B`` whether a change
keeps every record (value, abs_error, flags, piece_j, evaluations) bit for
bit.  The inputs, in this order:

* every ``points`` and ``large-d`` point of ``perfbench/pool.json`` (read
  only), one ``green_local`` call each, as the benchmark makes them;
* the two sweeps of the benchmark's cli workload (401 points at d = 3, 41
  at d = 20), on the grid ``latgreen sweep`` builds from their ends;
* the sweeps of acceptance criterion 11: 401 points over [-d-1, d+1] at
  d = 1..7 with rel_tol 1e-10;
* 61-point sweeps over [-d-2, d+2] at d = 4, 7, 20, 30, 40, 58, 80 and 120.

``--limit N`` stops after the first N records.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

POOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "perfbench", "pool.json")

_POINT_SETS = ("points/", "large/")
_CLI_SWEEPS = ("cli/sweep_d3", "cli/sweep_d20")
_SWEEP_DIMS = (4, 7, 20, 30, 40, 58, 80, 120)


def inputs():
    """The inputs as (d, frequencies, config) sweeps, in dump order; a pool
    point is a sweep of length one."""
    from latgreen import QuadratureConfig

    with open(POOL, encoding="utf-8") as fh:
        sets = json.load(fh)["sets"]
    tight = QuadratureConfig()
    for name in sorted(sets):
        if name.startswith(_POINT_SETS):
            for d, w in sets[name]:
                yield d, [w], tight
    for name in _CLI_SWEEPS:
        (d, first), (_, last) = sets[name][0], sets[name][-1]
        yield d, np.linspace(first, last, len(sets[name])).tolist(), tight
    for d in range(1, 8):
        yield d, np.linspace(-d - 1.0, d + 1.0, 401).tolist(), QuadratureConfig(rel_tol=1e-10)
    for d in _SWEEP_DIMS:
        yield d, np.linspace(-d - 2.0, d + 2.0, 61).tolist(), tight


def records():
    """``repr`` of every result, in input order."""
    from latgreen import green_local, green_sweep

    for d, omegas, cfg in inputs():
        if len(omegas) == 1:
            yield repr(green_local(d, omegas[0], cfg))
        else:
            yield from map(repr, green_sweep(d, omegas, cfg))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="file to write, one record per line")
    parser.add_argument("--limit", type=int, default=None,
                        help="stop after the first N records")
    args = parser.parse_args(argv)
    lines = list(itertools.islice(records(), args.limit))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    print(f"{len(lines)} records written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
