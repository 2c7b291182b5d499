"""Write one ``repr(GreenResult)`` per line for a fixed set of inputs.

    PYTHONPATH=src python3 tools/dump_records.py OUT [--limit N]
    python3 tools/dump_records.py --compare OLD NEW

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
* 61-point sweeps over [-d-2, d+2] at d = 4, 7, 20, 30, 40, 58, 80, 110
  and 120; at d = 110 the weighted terms of the band overflow at the
  smallest nodes while kbar^d alone does not yet (it does from
  d ~ 117), so the dump also sees the arithmetic of d = 106..117;
* one sweep per d = 1..4 of the van Hove frequencies, then of each moved
  by 1, 10 and 10^4 ulps and by 1e-13, up, then down: the neighbourhoods
  where the value follows the local law of its van Hove point;
* one sweep per d = 1, 3, 7, 40, 120, 300, 652 and 1,023 far outside the
  band, at omega = d(1 + 1e-9), d + 1e-3, 2d, 10d, 1e10, 1e100, 1e300 and
  1.7e308, then at each negated: there the reach of the one term, past
  which exp(q tau) is exactly 0, cuts from a few to every node of a level.

4,455 records in all.

``--limit N`` stops after the first N records.

``--compare OLD NEW`` reads two dumps of the same inputs and prints, for
each d and then for all, how many records differ, which fields differ,
and, among the records converged in both, the largest relative value
change and the largest value change in units of the old record's own
``abs_error``: below 1, every moved value stays inside its estimate.  It
exits 1 if any flag (``converged``, ``divergent``, ``van_hove_adjacent``)
or ``piece_j`` differs, and 2 if the dumps are not of the same inputs.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys
from collections import Counter

import numpy as np

POOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "perfbench", "pool.json")

_POINT_SETS = ("points/", "large/")
_CLI_SWEEPS = ("cli/sweep_d3", "cli/sweep_d20")
_SWEEP_DIMS = (4, 7, 20, 30, 40, 58, 80, 110, 120)
_ULPS = (1, 10, 10**4)
_FAR_DIMS = (1, 3, 7, 40, 120, 300, 652, 1023)

# name=value, where a value is a parenthesised complex or runs to the next
# comma or closing parenthesis
_FIELD = re.compile(r"(\w+)=(\([^)]*\)|[^,)]*)")
_FLAGS = ("piece_j", "converged", "divergent", "van_hove_adjacent")


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
    for d in range(1, 5):
        yield d, _van_hove_neighbourhood(d), tight
    for d in _FAR_DIMS:
        far = [d * (1 + 1e-9), d + 1e-3, 2.0 * d, 10.0 * d, 1e10, 1e100, 1e300, 1.7e308]
        yield d, far + [-w for w in far], tight


def _van_hove_neighbourhood(d: int) -> list[float]:
    """The van Hove frequencies of d, then each moved by ``_ULPS`` ulps and
    by 1e-13, up, then down."""
    van_hove = np.arange(-d, d + 1, 2.0)
    grid = [van_hove]
    for toward in (math.inf, -math.inf):
        x = van_hove
        for k in range(1, _ULPS[-1] + 1):
            x = np.nextafter(x, toward)
            if k in _ULPS:
                grid.append(x)
        grid.append(van_hove + math.copysign(1e-13, toward))
    return np.concatenate(grid).tolist()


def records():
    """``repr`` of every result, in input order."""
    from latgreen import green_local, green_sweep

    for d, omegas, cfg in inputs():
        if len(omegas) == 1:
            yield repr(green_local(d, omegas[0], cfg))
        else:
            yield from map(repr, green_sweep(d, omegas, cfg))


def parse_record(line: str) -> dict:
    """The fields of one ``repr(GreenResult)`` line, by name, as Python
    values (the line is parsed, not evaluated)."""
    fields = {}
    for name, text in _FIELD.findall(line):
        if text in ("True", "False"):
            fields[name] = text == "True"
        elif name in ("d", "piece_j", "evaluations"):
            fields[name] = int(text)
        elif name == "value":
            fields[name] = complex(text)
        else:
            fields[name] = float(text)
    return fields


def _scaled_change(old: complex, new: complex, scale: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / scale if scale != 0 else math.inf


def compare(old_path: str, new_path: str) -> int:
    """Print the differences between two dumps by d; see the module doc."""
    with open(old_path, encoding="utf-8") as fh:
        old = [parse_record(line) for line in fh]
    with open(new_path, encoding="utf-8") as fh:
        new = [parse_record(line) for line in fh]
    if len(old) != len(new) or any((a["d"], a["omega"]) != (b["d"], b["omega"])
                                   for a, b in zip(old, new)):
        print("error: the dumps are not of the same inputs", file=sys.stderr)
        return 2
    by_d = {}
    for a, b in zip(old, new):
        by_d.setdefault(a["d"], []).append((a, b))
    flags_differ = False
    for d, pairs in [*sorted(by_d.items()), ("all", list(zip(old, new)))]:
        fields, differ, worst, in_error = Counter(), 0, 0.0, 0.0
        for a, b in pairs:
            # repr equality: a NaN field that stays NaN is no difference
            changed = [name for name in a if repr(a[name]) != repr(b[name])]
            differ += bool(changed)
            fields.update(changed)
            if a["converged"] and b["converged"]:
                worst = max(worst, _scaled_change(a["value"], b["value"], abs(a["value"])))
                in_error = max(in_error, _scaled_change(a["value"], b["value"], a["abs_error"]))
        flags_differ |= any(name in fields for name in _FLAGS)
        listed = ", ".join(f"{name} {fields[name]}" for name in pairs[0][0] if name in fields)
        print(f"d={d}: {differ} of {len(pairs)} records differ"
              + (f" ({listed})" if listed else "")
              + f"; converged in both: largest relative value change {worst:.3g},"
              + f" largest change / old abs_error {in_error:.3g}")
    return 1 if flags_differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="file to write, one record per line")
    parser.add_argument("--limit", type=int, default=None,
                        help="stop after the first N records")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two dumps instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("give OUT or --compare OLD NEW")
    lines = list(itertools.islice(records(), args.limit))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    print(f"{len(lines)} records written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
