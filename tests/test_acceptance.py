"""Acceptance gate: eleven numbered criteria, each printing one pass/fail
line (collected into the terminal summary by conftest.py)."""
import cmath
import math
import os
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from latgreen.cli import main as cli_main
from latgreen.green import dos, dos_from_result, green_local
from latgreen.oracles import (
    bessel_j_fourier,
    dos_convolution,
    dos_moment,
    dos_normalization,
    g1_closed_form,
    laurent_green,
    laurent_truncation_bound,
    moments,
)
from latgreen.integrand import build_integrand, eval_integrand
from latgreen.quadrature import QuadratureConfig

from reference_values import G3_ZERO_IMAG

ROOT = os.path.dirname(os.path.dirname(__file__))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import check  # noqa: E402

REPORT_LINES = []

TIGHT = QuadratureConfig()
FAST = QuadratureConfig.fast()


def _report(num, name, ok, detail):
    REPORT_LINES.append(
        f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    )
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_golden_value():
    green_local(3, 0.0, TIGHT)  # warm caches before timing
    t0 = time.perf_counter()
    res = green_local(3, 0.0, TIGHT)
    elapsed = time.perf_counter() - t0
    im_err = abs(res.value.imag - G3_ZERO_IMAG)
    ok = im_err <= 5e-13 and abs(res.value.real) <= 1e-12 and elapsed <= 0.1
    _report(1, "golden-value", ok,
            f"Im err {im_err:.2e} <= 5e-13, |Re| {abs(res.value.real):.2e} "
            f"<= 1e-12, {elapsed*1e3:.1f} ms <= 100 ms")


def test_criterion_02_chain_closed_form():
    worst = 0.0
    for w in np.linspace(-3.0, 3.0, 101):
        w = float(w)
        if abs(abs(w) - 1.0) < 1e-9:
            continue
        got = green_local(1, w, TIGHT).value
        ref = g1_closed_form(w)
        worst = max(worst, abs(got.real - ref.real), abs(got.imag - ref.imag))
    _report(2, "chain-closed-form", worst <= 1e-12,
            f"max componentwise err {worst:.2e} <= 1e-12")


def test_criterion_03_laurent_triangle():
    worst = 0.0
    bound_ok = True
    for d in range(1, 8):
        for w in (float(d + 1), float(2 * d)):
            kmax = 20
            while laurent_truncation_bound(d, w, kmax) > 1e-11 and kmax < 200:
                kmax += 20
            bound = laurent_truncation_bound(d, w, kmax)
            bound_ok &= bound <= 1e-11
            err = abs(green_local(d, w, TIGHT).value - laurent_green(d, w, kmax))
            worst = max(worst, err)
    ok = worst <= 1e-10 and bound_ok
    _report(3, "laurent-triangle", ok,
            f"max |green - laurent| {worst:.2e} <= 1e-10, truncation bounds held")


def _cubic_piece(omega, tau):
    # the five-piece integral formula for d = 3 written out verbatim
    K = 2.0 / math.pi * float(mp.besselk(0, tau))
    I = 2.0 * float(mp.besseli(0, tau))
    w = omega
    if w <= -3.0:
        val = -(I**3) * math.exp(w * tau)
    elif w <= -1.0:
        val = -3 * I * K**2 * math.exp(w * tau) + 1j * K * (
            2 * K**2 * math.cosh(w * tau) - 3 * I**2 * math.exp(w * tau)
        )
    elif w <= 1.0:
        val = 6 * I * K**2 * math.sinh(w * tau) - 4j * K**3 * math.cosh(w * tau)
    elif w <= 3.0:
        val = 3 * I * K**2 * math.exp(-w * tau) + 1j * K * (
            2 * K**2 * math.cosh(w * tau) - 3 * I**2 * math.exp(-w * tau)
        )
    else:
        val = I**3 * math.exp(-w * tau)
    return val / 8.0


def test_criterion_04_cubic_piecewise_equivalence():
    worst = 0.0
    for w in (-4.0, -2.0, 0.0, 2.0, 4.0):
        spec = build_integrand(3, w)
        for tau in np.linspace(0.05, 6.0, 20):
            tau = float(tau)
            direct = _cubic_piece(w, tau)
            got = eval_integrand(spec, tau)
            rel = abs(got - direct) / max(abs(got), abs(direct))
            worst = max(worst, rel)
    _report(4, "cubic-piecewise-equivalence", worst <= 1e-13,
            f"max relative err {worst:.2e} <= 1e-13 over 5 pieces x 20 samples")


def test_criterion_05_reflection_symmetry():
    worst_ratio = 0.0
    for d, top in ((2, 1.9), (4, 4.9), (7, 7.9)):
        for w in np.linspace(0.05, top, 41):
            a = green_local(d, float(w), TIGHT)
            b = green_local(d, -float(w), TIGHT)
            mismatch = abs(b.value + a.value.conjugate())
            budget = 2.0 * (a.abs_error + b.abs_error)
            worst_ratio = max(worst_ratio, mismatch / max(budget, 1e-300))
    _report(5, "reflection-symmetry", worst_ratio <= 1.0,
            f"max mismatch / (2x summed error) = {worst_ratio:.2f} <= 1")


def test_criterion_06_dos_normalization():
    details = []
    ok = True
    for d in range(1, 8):
        tol = 1e-6 if d <= 2 else 1e-8
        err = abs(dos_normalization(d, FAST) - 1.0)
        ok &= err <= tol
        details.append(f"d={d}:{err:.1e}")
    _report(6, "dos-normalization", ok,
            "errors " + " ".join(details) + " within 1e-6 (d<=2) / 1e-8")


def test_criterion_07_dos_moments():
    exact = moments(3, 2).moments
    assert exact[1] == pytest.approx(1.5) and float(exact[2]) == 45.0 / 8.0
    e2 = abs(dos_moment(3, 1, FAST) - float(exact[1]))
    e4 = abs(dos_moment(3, 2, FAST) - float(exact[2]))
    _report(7, "dos-moments", max(e2, e4) <= 1e-6,
            f"m2 err {e2:.1e}, m4 err {e4:.1e} <= 1e-6")


def test_criterion_08_convolution():
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-12, max_levels=11)
    worst = 0.0
    for w in (0.0, 0.5, 1.5, 2.9):
        err = abs(dos_convolution(1, 2, w, cfg) - dos(3, w, TIGHT))
        worst = max(worst, err)
    _report(8, "dos-convolution", worst <= 1e-8,
            f"max |conv - direct| {worst:.2e} <= 1e-8 at 4 frequencies")


def test_criterion_09_fourier_oracle():
    val = bessel_j_fourier(3, 0.0, 1.2e6, 2_000_000)
    err = abs(val - complex(0.0, G3_ZERO_IMAG))
    _report(9, "fourier-oracle", err <= 1e-3,
            f"|fourier - golden| {err:.2e} <= 1e-3")


def test_criterion_10_linear_scaling():
    # d = 10 and d = 40 are timed in alternation, round by round, and each
    # point keeps its best time over the rounds, so that a burst of load
    # hits both sides of the ratio
    grids = {d: np.linspace(-d - 1.0, d + 1.0, 21).tolist() for d in (10, 40)}
    best = {d: np.full(21, np.inf) for d in grids}
    t_start = time.perf_counter()
    for d, grid in grids.items():  # warm-up round
        for w in grid:
            green_local(d, w, TIGHT)
    for _ in range(5):
        for d, grid in grids.items():
            for i, w in enumerate(grid):
                t0 = time.perf_counter()
                green_local(d, w, TIGHT)
                best[d][i] = min(best[d][i], time.perf_counter() - t0)
    total = time.perf_counter() - t_start
    m10, m40 = (float(np.median(best[d])) for d in grids)
    ratio = m40 / m10
    ok = ratio <= 5.0 and total <= 60.0
    _report(10, "linear-scaling", ok,
            f"median {m10*1e3:.2f} ms (d=10) vs {m40*1e3:.2f} ms (d=40), "
            f"ratio {ratio:.2f} <= 5, benchmark {total:.1f} s <= 60 s")


def test_criterion_11_sweep_tables_and_gaussian_limit(tmp_path):
    import csv

    allowed_divergences = {1: {-1.0, 1.0}, 2: {0.0}}
    bad = []
    for d in range(1, 8):
        path = tmp_path / f"sweep_d{d}.csv"
        code = cli_main([
            "sweep", "--d", str(d),
            "--omega-min", str(-d - 1.0), "--omega-max", str(d + 1.0),
            "--steps", "401", "--rel-tol", "1e-10", "--out", str(path),
        ])
        # exit 2 exactly when the table holds a (flagged) divergence
        assert code == (2 if d in allowed_divergences else 0)
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 401
        for row in rows:
            flags = set(row["flags"].split(";")) - {""}
            w = float(row["omega"])
            if "divergent" in flags:
                if w not in allowed_divergences.get(d, set()):
                    bad.append((d, w, "unexpected divergence"))
            elif "nonconverged" in flags:
                bad.append((d, w, "nonconverged"))

    # the Gaussian limit, graded on a converged value, on the t0 contour,
    # whose actual error against the pool's reference is within its own
    # estimate
    res = green_local(20, 0.0, FAST)
    flags = [name for name, on in (("van_hove_adjacent", res.van_hove_adjacent),
                                   ("divergent", res.divergent),
                                   ("nonconverged", not res.converged)) if on]
    _, refs = check.load_pool(os.path.join(ROOT, "perfbench", "pool.json"))
    actual = abs(res.value - refs[check.key(20, 0.0)].value)
    gauss = math.sqrt(10.0) * dos_from_result(res)
    target = 1.0 / math.sqrt(2.0 * math.pi)
    gauss_err = abs(gauss / target - 1.0)
    ok = not bad and gauss_err <= 0.02 and res.converged and actual <= res.abs_error
    _report(11, "sweep-tables-gaussian-limit", ok,
            f"7 sweeps x 401 points clean ({len(bad)} bad records), "
            f"sqrt(d/2) A_20(0) off by {gauss_err*100:.2f}% <= 2%, "
            f"flags [{','.join(flags)}], {res.evaluations} evaluations, "
            f"error {actual:.1e} <= estimate {res.abs_error:.1e}")
