"""Command-line interface: point evaluation, sweeps, DOS tables, exact
moments, and a self-test battery.

Records are emitted as CSV (default) or JSON with 17 significant digits so
doubles survive a round trip; JSON writes a non-finite float as the string
CSV prints (``inf``, ``-inf``, ``nan``), and both write a moment beyond the
double range as the string of its 17 significant digits.  Exit codes: 0
success, 1 malformed flags, input outside the domain or I/O error (one
``error:`` line on stderr, no traceback), 2 divergent/non-converged
evaluation, 3 failed self-test.
"""
from __future__ import annotations

import argparse
import csv
import gc
import io
import math
import sys

import numpy as np

from .errors import check_integer, check_real
from .green import GreenResult, dos, dos_from_result, green_local, green_sweep
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

__all__ = ["main", "entry"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _flags(res: GreenResult) -> list[str]:
    out = []
    if res.van_hove_adjacent:
        out.append("van_hove_adjacent")
    if res.divergent:
        out.append("divergent")
    if not res.converged:
        out.append("nonconverged")
    return out


def _record(res: GreenResult) -> dict:
    return {
        "d": res.d,
        "omega": res.omega,
        "re": res.value.real,
        "im": res.value.imag,
        "abs_error": res.abs_error,
        "piece_j": res.piece_j,
        "flags": _flags(res),
    }


def _dos_record(res: GreenResult) -> dict:
    return {
        "d": res.d,
        "omega": res.omega,
        "dos": dos_from_result(res),
        "abs_error": res.abs_error / math.pi,
        "piece_j": res.piece_j,
        "flags": _flags(res),
    }


def _exit_code(results: list[GreenResult]) -> int:
    # a divergent result is never converged
    return 0 if all(r.converged for r in results) else 2


def _cell(val) -> str:
    if isinstance(val, float):
        return _fmt(val)
    if isinstance(val, list):
        return ";".join(val)
    return str(val)


def _emit(records: list[dict], fmt: str, out_path: str | None = None) -> None:
    """Write records as CSV, whose header is the keys of the first record,
    or as JSON, to ``out_path`` or stdout."""
    if fmt == "json":
        import json  # loaded on first use, not with the CLI

        # JSON has no inf or nan: such a float becomes the string CSV prints
        records = [{key: _fmt(val) if isinstance(val, float) and not math.isfinite(val) else val
                    for key, val in rec.items()} for rec in records]
        text = json.dumps(records, indent=2, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(records[0].keys())
        writer.writerows([_cell(val) for val in rec.values()] for rec in records)
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cfg(args) -> QuadratureConfig:
    return QuadratureConfig(rel_tol=args.rel_tol)


def cmd_point(args) -> int:
    """``eval`` and ``dos``: one frequency, one record from ``args.record``."""
    res = green_local(args.d, args.omega, _cfg(args))
    _emit([args.record(res)], args.format)
    return _exit_code([res])


def cmd_sweep(args) -> int:
    steps = check_integer("--steps", args.steps, 2)
    lo, hi = check_real("omega", args.omega_min), check_real("omega", args.omega_max)
    # np.linspace warns and fills nan where hi - lo overflows
    check_real("omega span (omega-max - omega-min)", hi - lo)
    grid = np.linspace(lo, hi, steps)
    results = green_sweep(args.d, grid, _cfg(args))
    _emit([_record(r) for r in results], args.format, args.out)
    return _exit_code(results)


def _moment_decimal(m):
    # a moment beyond the double range is written as a string of its 17
    # significant digits, rounded from the exact fraction, never as inf
    try:
        return float(m)
    except OverflowError:
        import decimal  # loaded on first use, not with the CLI

        return _fmt(decimal.Context(prec=17).divide(m.numerator, m.denominator))


def cmd_moments(args) -> int:
    from . import oracles  # loaded on first use, not with the CLI

    table = oracles.moments(args.d, args.kmax)
    records = [
        {
            "d": args.d,
            "k": 2 * k,
            "numerator": m.numerator,
            "denominator": m.denominator,
            "decimal": _moment_decimal(m),
        }
        for k, m in enumerate(table.moments)
    ]
    # the exact integers are written in full, past Python's limit on the
    # digits of an int written as a string (none before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", None)
    old = limit() if limit else None
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _emit(records, args.format)
    finally:
        if limit:
            sys.set_int_max_str_digits(old)
    return 0


def _selftest_checks(level: str):
    # loaded on first use; called through the module, so that a wrapper
    # installed there (perfbench's tracer) sees the calls
    from . import oracles

    tight = DEFAULT_CONFIG
    fast = QuadratureConfig.fast()

    def golden():
        r = green_local(3, 0.0, tight)
        return max(abs(r.value.imag + 0.8964407887768), abs(r.value.real)), 5e-13

    def chain_closed_form():
        grid = [float(w) for w in np.linspace(-3.0, 3.0, 25) if abs(abs(w) - 1.0) >= 1e-9]
        worst = max(abs(r.value - oracles.g1_closed_form(r.omega))
                    for r in green_sweep(1, grid, tight))
        return worst, 1e-12

    def symmetry():
        grid = [float(w) for w in np.linspace(0.1, 4.7, 12)]
        res = green_sweep(4, grid + [-w for w in grid], tight)
        worst = max(abs(b.value + a.value.conjugate())
                    for a, b in zip(res[:len(grid)], res[len(grid):]))
        return worst, 1e-12

    def laurent_triangle():
        worst = 0.0
        for d in range(1, 5):
            w = float(2 * d)
            g = green_local(d, w, tight).value
            worst = max(worst, abs(g - oracles.laurent_green(d, w, 60)))
        return worst, 1e-10

    checks = [
        ("golden_g3_zero", golden),
        ("chain_closed_form", chain_closed_form),
        ("symmetry_d4", symmetry),
        ("laurent_triangle", laurent_triangle),
    ]
    if level == "full":

        def normalization():
            worst = 0.0
            for d in range(1, 8):
                tol_d = 1e-6 if d <= 2 else 1e-8
                err = abs(oracles.dos_normalization(d, fast) - 1.0)
                worst = max(worst, err / tol_d)
            return worst, 1.0  # worst error relative to its own tolerance

        def convolution():
            cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-12, max_levels=11)
            worst = 0.0
            for w in (0.0, 1.5):
                worst = max(
                    worst,
                    abs(oracles.dos_convolution(1, 2, w, cfg) - dos(3, w, tight)),
                )
            return worst, 1e-8

        def fourier():
            v = oracles.bessel_j_fourier(3, 0.0, 1.2e6, 10_000_000)
            return abs(v - complex(0.0, -0.8964407887768)), 1e-3

        checks += [
            ("dos_normalization", normalization),
            ("dos_convolution", convolution),
            ("bessel_j_fourier", fourier),
        ]
    return checks


def cmd_selftest(args) -> int:
    failed = 0
    for name, check in _selftest_checks(args.level):
        err, tol = check()
        ok = err <= tol
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<22s} "
              f"discrepancy={err:.3e}  tolerance={tol:.1e}")
    print(f"selftest: {'all checks passed' if not failed else f'{failed} check(s) FAILED'}")
    return 3 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latgreen",
        description="Hypercubic lattice Green functions G_d(omega) and DOS.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--d", type=int, required=True, help="lattice dimension")
        p.add_argument("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    for name, record, text in (
        ("eval", _record, "evaluate G_d at one frequency"),
        ("dos", _dos_record, "evaluate the density of states at one frequency"),
    ):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.add_argument("--omega", type=float, required=True)
        p.set_defaults(func=cmd_point, record=record)

    p = sub.add_parser("sweep", help="evaluate G_d on a uniform frequency grid")
    add_common(p)
    p.add_argument("--omega-min", type=float, required=True)
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("moments", help="exact spectral moments as fractions")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("selftest", help="run the oracle cross-check battery")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    # ValueError (DomainError included): d < 1, non-finite omega, bad
    # tolerance or --steps; OSError: an --out file that cannot be written;
    # MemoryError: a --steps grid too large to allocate
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The ``latgreen`` command: ``main`` on the process's arguments, then
    exit with its code.  The objects alive at the exit are frozen out of
    the collector first, so that interpreter shutdown does not walk every
    one of them (numpy's included) in its final cyclic passes.  Unlike
    ``os._exit``, ``sys.exit`` still flushes the streams and runs atexit
    handlers.  ``main`` itself leaves the collector alone, since tests and
    benchmark workers call it in-process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
