"""Generate the frozen reference pool ``perfbench/pool.json``.

    python3 perfbench/make_pool.py            # about three minutes, needs mpmath

Every reference is computed in mpmath, independently of latgreen's
floating-point code path, and records its own absolute error bound:

* ``closed_form``: the d=1 chain, 1/sqrt(omega^2-1) outside the band and
  -i/sqrt(1-omega^2) inside.
* ``laurent``: sum_k m_2k omega^(-2k-1) with the exact walk-count moments,
  for |omega| >= LAURENT_MIN * d; the bound is the geometric tail bound.
* ``fourier``: G_d(omega) = -i int_0^inf e^{i omega t} J0(t)^d dt.  The head
  [0, T] is a composite Gauss-Legendre sum on panels short enough for the
  highest frequency present; the error bound there is the difference of two
  rules.  For d <= FOURIER_TAIL_MAX_D the tail [T, inf) is integrated term by
  term from the Hankel expansion of J0, each term exactly through a
  generalized exponential integral; for larger d the tail is dropped and its
  bound |J0(t)| <= sqrt(2/(pi t)) enters the error.
* ``divergent``: the documented signed infinities at the d=1 band edges and
  the d=2 centre and edges.
* Reflection G(-omega) = -conj(G(omega)) maps every negative frequency onto
  its positive mirror, so each |omega| is computed once.

Before writing, the oracles are cross-checked against each other and against
the golden value G_3(0) and Watson's closed form G_3(3) (a failed check
aborts): Fourier against Laurent outside the band, Fourier against the d=1
closed form, and Fourier against the d=2 elliptic closed form.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time

import mpmath as mp
import numpy as np

from check import key

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "pool.json")

mp.mp.dps = 40
POOL_SEED = 20121025

POINT_DIMS = tuple(range(1, 8))
LARGE_DIMS = (8, 12, 20, 40, 80, 120)
# (d, omega_min, omega_max, steps) of the ``latgreen sweep`` grids
CLI_SWEEPS = ((3, -3.75, 3.75, 401), (20, -25.0, 25.0, 41))

LAURENT_MIN = 1.4
LAURENT_KMAX = 160
FOURIER_T = 100
FOURIER_TAIL_MAX_D = 30
HEAD_RULES = (20, 28)
TAIL_TERMS = 30


def cli_grid(lo: float, hi: float, steps: int) -> list[float]:
    """The grid ``latgreen sweep`` evaluates, as its CSV prints it."""
    return [float(w) for w in np.linspace(lo, hi, steps)]


# ---------------------------------------------------------------- Laurent

_walks: dict[int, list[int]] = {}


def walk_counts(d: int) -> list[int]:
    """W_d(2k), k = 0..LAURENT_KMAX: closed 2k-step walks, exact integers."""
    if d in _walks:
        return _walks[d]
    k_max = LAURENT_KMAX
    w1 = [math.comb(2 * k, k) for k in range(k_max + 1)]
    if d == 1:
        _walks[1] = w1
        return w1
    prev = walk_counts(d - 1)
    out = [
        sum(math.comb(2 * k, 2 * j) * w1[j] * prev[k - j] for j in range(k + 1))
        for k in range(k_max + 1)
    ]
    _walks[d] = out
    return out


def laurent(d: int, omega: float):
    w = mp.mpf(omega)
    moments = [mp.mpf(c) / mp.mpf(4) ** k for k, c in enumerate(walk_counts(d))]
    winv2 = 1 / (w * w)
    acc, p = mp.mpf(0), 1 / w
    for m in moments:
        acc += m * p
        p *= winv2
    ratio = (mp.mpf(d) / w) ** 2
    bound = moments[-1] * abs(w) ** (-2 * LAURENT_KMAX - 1) * ratio / (1 - ratio)
    return mp.mpc(acc, 0), bound


# ---------------------------------------------------------------- Fourier

def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1], Newton-refined at working precision."""
    x0, _ = np.polynomial.legendre.leggauss(n)
    nodes, weights = [], []
    for x in x0:
        x = mp.mpf(x)
        for _ in range(100):
            p, q = mp.legendre(n, x), mp.legendre(n - 1, x)
            dp = n * (x * p - q) / (x * x - 1)
            dx = p / dp
            x -= dx
            if abs(dx) < mp.mpf(10) ** (-mp.mp.dps + 2):
                break
        p, q = mp.legendre(n, x), mp.legendre(n - 1, x)
        dp = n * (x * p - q) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def _series_mul(a, b, n):
    return [mp.fsum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _expint_ladder(s0, count: int, z):
    """[E_{s0+n}(z) for n < count], by the recurrence run in its stable
    direction away from one directly computed value."""
    if z == 0:
        return [1 / (s0 + n - 1) for n in range(count)]
    ez = mp.exp(-z)
    start = min(count - 1, max(0, int(mp.ceil(abs(z) - s0))))
    out = [None] * count
    out[start] = mp.expint(s0 + start, z)
    for n in range(start, count - 1):   # upward: |z| <= s, damped
        s = s0 + n
        out[n + 1] = (ez - z * out[n]) / s
    for n in range(start - 1, -1, -1):  # downward: s < |z|, damped
        s = s0 + n
        out[n] = (ez - s * out[n + 1]) / z
    return out


class FourierOracle:
    """G_d at any real omega with |omega| + d <= nu_max."""

    def __init__(self, d: int, nu_max: float):
        self.d = d
        if d <= FOURIER_TAIL_MAX_D:
            t_end, self.head_cut_bound = mp.mpf(FOURIER_T), mp.mpf(0)
        else:
            t_end = mp.mpf(1)
            while self._dropped_tail(t_end) > mp.mpf("1e-36"):
                t_end *= mp.mpf("1.1")
            self.head_cut_bound = self._dropped_tail(t_end)
        panels = int(mp.ceil(t_end * max(nu_max, 1) / 8))
        length = t_end / panels
        self.rules = []
        for n in HEAD_RULES:
            xs, ws = gauss_legendre(n)
            ts, wj = [], []
            for p in range(panels):
                a = p * length
                for x, w in zip(xs, ws):
                    t = a + (x + 1) * length / 2
                    ts.append(t)
                    wj.append(w * length / 2 * mp.besselj(0, t) ** d)
            self.rules.append((ts, wj))
        self.t_end = t_end
        if d <= FOURIER_TAIL_MAX_D:
            self._prepare_tail()

    def _dropped_tail(self, t):
        d = self.d
        return (2 / mp.pi) ** (mp.mpf(d) / 2) * t ** (1 - mp.mpf(d) / 2) / (mp.mpf(d) / 2 - 1)

    def _prepare_tail(self):
        # J0(t) = sqrt(2/(pi t)) (e^{i chi} S + e^{-i chi} conj S) / 2 with
        # chi = t - pi/4 and S = sum_k i^k a_k t^-k the Hankel series.
        n = TAIL_TERMS
        a = [mp.mpf(1)]
        for k in range(1, n):
            a.append(a[-1] * (-(2 * k - 1) ** 2) / (8 * k))
        s = [mp.mpc(0, 1) ** k * a[k] for k in range(n)]
        sc = [mp.conj(c) for c in s]
        one = [mp.mpc(1)] + [mp.mpc(0)] * (n - 1)
        pow_s, pow_sc = [one], [one]
        for _ in range(self.d):
            pow_s.append(_series_mul(pow_s[-1], s, n))
            pow_sc.append(_series_mul(pow_sc[-1], sc, n))
        self.tail_coeffs = [
            _series_mul(pow_s[m], pow_sc[self.d - m], n) for m in range(self.d + 1)
        ]

    def value(self, omega: float):
        d, w = self.d, mp.mpf(omega)
        heads = [mp.fsum(c * mp.expj(w * t) for t, c in zip(ts, wj)) for ts, wj in self.rules]
        total = heads[-1]
        err = abs(heads[-1] - heads[0]) + self.head_cut_bound
        if d <= FOURIER_TAIL_MAX_D:
            t_end, s0 = self.t_end, mp.mpf(d) / 2
            pref = (2 / mp.pi) ** s0 / mp.mpf(2) ** d
            tail, last = mp.mpc(0), mp.mpf(0)
            for m in range(d + 1):
                nu = w + 2 * m - d
                ladder = _expint_ladder(s0, TAIL_TERMS, mp.mpc(0, -nu * t_end))
                phase = mp.binomial(d, m) * mp.expj(-(2 * m - d) * mp.pi / 4)
                terms = [
                    c * t_end ** (1 - s0 - k) * e
                    for k, (c, e) in enumerate(zip(self.tail_coeffs[m], ladder))
                ]
                tail += phase * mp.fsum(terms)
                last += abs(phase * terms[-1])
            total += pref * tail
            err += 10 * pref * last
        return mp.mpc(0, -1) * total, err


# ------------------------------------------------------- closed forms

def chain(omega: float):
    w = mp.mpf(omega)
    if abs(w) > 1:
        return mp.mpc(mp.sign(w) / mp.sqrt(w * w - 1), 0)
    return mp.mpc(0, -1 / mp.sqrt(1 - w * w))


def square_outside(omega: float):
    # G_2(omega) = 2/(pi omega) K(m = 4/omega^2) for |omega| > 2
    w = mp.mpf(omega)
    return mp.mpc(2 / (mp.pi * w) * mp.ellipk(4 / (w * w)), 0)


# Watson's simple-cubic integral (1/pi^3) int dk / (1 - sum cos k / 3); with
# band [-3, 3] it is 3 G_3(3).
WATSON_SC = (mp.sqrt(6) / (32 * mp.pi ** 3)
             * mp.gamma(mp.mpf(1) / 24) * mp.gamma(mp.mpf(5) / 24)
             * mp.gamma(mp.mpf(7) / 24) * mp.gamma(mp.mpf(11) / 24))
G3_ZERO_IMAG_13 = mp.mpf("-0.8964407887768")


def divergent_value(d: int, omega: float):
    if d == 1:
        return (math.copysign(math.inf, omega), -math.inf)
    if omega == 0.0:
        return (0.0, -math.inf)
    return (math.copysign(math.inf, omega), 0.0)


# ---------------------------------------------------------------- points

def van_hove(d: int) -> list[float]:
    return [float(-d + 2 * n) for n in range(d + 1)]


def draw_points(rng) -> dict[str, list[tuple[int, float]]]:
    """Strata of (d, omega) inputs for the ``points`` and ``large-d``
    workloads; each workload seed later samples from these."""
    sets: dict[str, list[tuple[int, float]]] = {}

    def add(name, d, w):
        sets.setdefault(name, []).append((d, float(w)))

    for d in POINT_DIMS:
        vh = np.array(van_hove(d))
        n = 0
        while n < 12:
            w = rng.uniform(-d, d)
            if np.min(np.abs(vh - w)) > 1e-3:
                add("points/interior", d, w)
                n += 1
        for _ in range(12):
            v = vh[rng.integers(0, d + 1)]
            off = 10.0 ** rng.uniform(-9, -3) * rng.choice([-1.0, 1.0])
            add("points/van_hove_offset", d, v + off)
        for v in vh:
            add("points/van_hove_exact", d, v)
        for lo, hi in ((1.0, LAURENT_MIN), (LAURENT_MIN, 3.0)):
            for _ in range(4):
                add("points/outside", d, rng.choice([-1.0, 1.0]) * d * rng.uniform(lo, hi))
    for d in LARGE_DIMS:
        # the band centre and omega = 2d are in every seed's draw: the
        # known large-d failures (A_40(0) ~ 3e22, NaN at d >= 118) show there
        add("large/centre", d, 0.0)
        for _ in range(7):
            add("large/interior", d, rng.choice([-1.0, 1.0]) * d * rng.uniform(0.0, 0.6))
        for _ in range(8):
            add("large/edge", d, rng.choice([-1.0, 1.0]) * d * rng.uniform(0.9, 1.1))
        add("large/twice_edge", d, 2.0 * d)
        for _ in range(7):
            add("large/outside", d, rng.choice([-1.0, 1.0]) * d * rng.uniform(LAURENT_MIN, 2.5))
    return sets


# ------------------------------------------------------------ generation

def fmt(x) -> str:
    return mp.nstr(x, 25, min_fixed=1, max_fixed=0)


def main() -> int:
    t_start = time.time()
    rng = np.random.default_rng(POOL_SEED)
    sets = draw_points(rng)
    for d, lo, hi, steps in CLI_SWEEPS:
        sets[f"cli/sweep_d{d}"] = [(d, w) for w in cli_grid(lo, hi, steps)]

    # each distinct (d, |omega|) is computed once
    wanted: dict[int, set[float]] = {}
    for pts in sets.values():
        for d, w in pts:
            wanted.setdefault(d, set()).add(abs(w))

    refs: dict[str, list] = {}

    def store(d, w, val, err, source):
        for sign in (1.0, -1.0):
            om = sign * w
            v = val if sign > 0 else -mp.conj(val)
            refs[key(d, om)] = [fmt(v.real), fmt(v.imag), float(mp.mpf(err)), source]

    for d in sorted(wanted):
        ws = sorted(wanted[d])
        fourier_ws = []
        for w in ws:
            if d in (1, 2) and w in van_hove(d):
                for sign in (1.0, -1.0):
                    dv = divergent_value(d, sign * w)
                    refs[key(d, sign * w)] = [repr(dv[0]), repr(dv[1]), 0.0, "divergent"]
            elif d == 1:
                store(d, w, chain(w), mp.mpf(10) ** -30 * (1 + abs(chain(w))), "closed_form")
            elif w >= LAURENT_MIN * d:
                val, bound = laurent(d, w)
                store(d, w, val, bound + mp.mpf(10) ** -30, "laurent")
            else:
                fourier_ws.append(w)
        if fourier_ws:
            t0 = time.time()
            oracle = FourierOracle(d, max(fourier_ws) + d)
            for w in fourier_ws:
                val, err = oracle.value(w)
                store(d, w, val, err, "fourier")
            print(f"d={d}: {len(fourier_ws)} Fourier points in {time.time() - t0:.1f} s",
                  file=sys.stderr)

    cross_check()
    pool = {
        "about": "Frozen references for perfbench; regenerate with "
                 "python3 perfbench/make_pool.py. Values are 25-digit strings; "
                 "err is an absolute error bound.",
        "generator_seed": POOL_SEED,
        "mpmath": mp.__version__,
        "sets": {name: [[d, w] for d, w in pts] for name, pts in sorted(sets.items())},
        "refs": dict(sorted(refs.items())),
    }
    with open(POOL_PATH, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=0, sort_keys=False)
        fh.write("\n")
    print(f"wrote {len(refs)} references in {time.time() - t_start:.0f} s", file=sys.stderr)
    return 0


def cross_check() -> None:
    """Agreement of independent oracles; raises on any mismatch."""
    checks = []
    o3 = FourierOracle(3, 8.0)
    g, e = o3.value(0.0)
    checks.append(("fourier G3(0) vs golden", abs(g.imag - G3_ZERO_IMAG_13) + abs(g.real), 1e-13 + e))
    g, e = o3.value(3.0)
    checks.append(("fourier G3(3) vs Watson", abs(g - WATSON_SC / 3), 1e-25 + e))
    g, e = o3.value(5.0)
    lv, lb = laurent(3, 5.0)
    checks.append(("fourier vs laurent d=3", abs(g - lv), 1e-25 + e + lb))
    for d, w in ((8, 13.0), (20, 30.0), (40, 70.0)):
        o = FourierOracle(d, w + d)
        g, e = o.value(w)
        lv, lb = laurent(d, w)
        checks.append((f"fourier vs laurent d={d}", abs(g - lv), 1e-25 + e + lb))
    o1 = FourierOracle(1, 3.0)
    for w in (0.3, 1.7):
        g, e = o1.value(w)
        checks.append((f"fourier vs chain w={w}", abs(g - chain(w)), 1e-20 + e))
    o2 = FourierOracle(2, 6.0)
    for w in (2.5, 3.9):
        g, e = o2.value(w)
        checks.append((f"fourier vs elliptic d=2 w={w}", abs(g - square_outside(w)), 1e-25 + e))
    bad = 0
    for name, diff, tol in checks:
        ok = diff <= tol
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: diff={mp.nstr(diff, 3)} tol={mp.nstr(tol, 3)}",
              file=sys.stderr)
    if bad:
        raise SystemExit(f"{bad} oracle cross-check(s) failed")


if __name__ == "__main__":
    sys.exit(main())
