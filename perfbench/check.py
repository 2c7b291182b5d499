"""Reference pool and the verdict on every value the program returns.

A value fails if its call raised, it is flagged ``nonconverged`` (or
``divergent`` where the reference is finite), or it is off its reference by
more than max(its ``abs_error``, the tolerance) plus the reference's own
error bound.  A true divergence passes only when flagged ``divergent`` and
carrying the documented signed infinities.  A value is *silently wrong* when
it fails and carries no flag at all; NaN counts.  A CLI process whose exit
code contradicts its records' flags fails every value it printed.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

# The tolerance every workload runs at: latgreen's default QuadratureConfig.
RTOL = 1e-13
ATOL = 1e-15
_EPS = 2.220446049250313e-16

# The dimensions that latgreen's own acceptance suite verifies (full-band
# tables for d = 1..7).  Outside them the library is known to be broken, so
# failures there are counted in the metrics but do not make a run incorrect.
VERIFIED_MAX_D = 7

FLAGS = ("van_hove_adjacent", "divergent", "nonconverged")


@dataclass(frozen=True)
class Ref:
    value: complex
    err: float
    source: str

    @property
    def divergent(self) -> bool:
        return self.source == "divergent"


def key(d: int, omega: float) -> str:
    return f"{d}:{float(omega)!r}"


def load_pool(path: str):
    """(sets, refs): named lists of (d, omega) inputs, and key -> Ref."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    refs = {
        k: Ref(complex(float(re), float(im)), float(err), src)
        for k, (re, im, err, src) in raw["refs"].items()
    }
    sets = {name: [(int(d), float(w)) for d, w in pts] for name, pts in raw["sets"].items()}
    return sets, refs


def value_ok(ref: Ref, value: complex, abs_error: float, flags: frozenset) -> bool:
    if ref.divergent:
        return ("divergent" in flags and value.real == ref.value.real
                and value.imag == ref.value.imag)
    if "nonconverged" in flags or "divergent" in flags:
        return False
    mag = abs(ref.value)
    allowed = max(ATOL, RTOL * mag)
    if not math.isnan(abs_error):
        allowed = max(allowed, abs_error)
    return abs(value - ref.value) <= allowed + ref.err + 4 * _EPS * mag


@dataclass
class Tally:
    """Verdicts over one run."""

    values: int = 0
    failed: int = 0
    silent_wrong: int = 0
    silent_verified: int = 0     # silently wrong at d <= VERIFIED_MAX_D
    nan: int = 0
    ops: int = 0
    op_errors: int = 0
    exit_mismatch: int = 0
    exit_mismatch_verified: int = 0
    nonconverged: int = 0
    divergent: int = 0
    van_hove_adjacent: int = 0

    def add_value(self, refs, d, omega, value, abs_error, flags, forced_fail=False):
        ref = refs.get(key(d, omega))  # None: a value for an input never asked for
        right = ref is not None and value_ok(ref, value, abs_error, flags)
        self.values += 1
        self.nan += math.isnan(value.real) or math.isnan(value.imag)
        for name in FLAGS:
            setattr(self, name, getattr(self, name) + (name in flags))
        if not right and not flags:
            self.silent_wrong += 1
            self.silent_verified += d <= VERIFIED_MAX_D
        if right and not forced_fail:
            return True
        self.failed += 1
        return False

    def add_error(self, n_values: int = 1) -> None:
        """A call that raised or a process that crashed: its values fail."""
        self.op_errors += 1
        self.values += n_values
        self.failed += n_values

    @property
    def correct(self) -> bool:
        return (self.op_errors == 0 and self.silent_verified == 0
                and self.exit_mismatch_verified == 0)


# ------------------------------------------------------------ CLI output

def parse_records(text: str) -> list[tuple]:
    """CSV records of ``latgreen eval``/``sweep`` as
    (d, omega, value, abs_error, flags)."""
    out = []
    for row in csv.DictReader(io.StringIO(text)):
        flags = frozenset(f for f in row["flags"].split(";") if f)
        out.append((int(row["d"]), float(row["omega"]),
                    complex(float(row["re"]), float(row["im"])),
                    float(row["abs_error"]), flags))
    return out


def parse_selftest(text: str) -> tuple[int, int]:
    """(checks run, checks failed) from ``latgreen selftest`` output."""
    lines = [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL"))]
    return len(lines), sum(ln.startswith("FAIL") for ln in lines)


def tally_cli(tally: Tally, refs, kind: str, rc: int, text: str) -> int:
    """Check one CLI call; returns the Green-function values it printed."""
    tally.ops += 1
    if kind == "selftest":
        if rc not in (0, 3):
            tally.add_error()
            return 0
        runs, bad = parse_selftest(text)
        mismatch = rc != (3 if bad else 0) or runs == 0
        tally.exit_mismatch += mismatch
        tally.exit_mismatch_verified += mismatch
        tally.values += 1
        tally.failed += bool(bad) or mismatch
        return 0
    if rc not in (0, 2):
        tally.add_error()
        return 0
    try:
        records = parse_records(text)
    except (KeyError, ValueError):
        tally.add_error()
        return 0
    if not records:
        tally.add_error()
        return 0
    flagged = any("nonconverged" in f or "divergent" in f for *_, f in records)
    mismatch = rc != (2 if flagged else 0)
    tally.exit_mismatch += mismatch
    tally.exit_mismatch_verified += mismatch and all(r[0] <= VERIFIED_MAX_D for r in records)
    for d, omega, value, abs_error, flags in records:
        tally.add_value(refs, d, omega, value, abs_error, flags, forced_fail=mismatch)
    return len(records)
