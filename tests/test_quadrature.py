"""Known-integral and configuration tests for the double-exponential rules."""
import cmath
import dataclasses
import functools
import math

import numpy as np
import pytest

from latgreen.bessel import k0e
from latgreen.errors import DomainError
from latgreen.contour import ray_table, segment_table
from latgreen.integrand import admit, bessel_table, term_weights, van_hove_distance
from latgreen import green, quadrature
from latgreen.green import green_sweep
from latgreen.oracles import dos_normalization
from latgreen.quadrature import (
    QuadratureConfig,
    QuadratureResult,
    integrate_finite,
    integrate_semiinfinite,
)

from reference_values import EULER_GAMMA

def _k0_vec(tau):
    return k0e(tau) * np.exp(-tau)


def test_exponential_unit_integral():
    # integral of r e^{-rt} is 1 for slow and fast decay alike
    for rate in (1.0, 1e-3, 50.0):
        res = integrate_semiinfinite(lambda t: rate * np.exp(-rate * t))
        assert res.converged
        assert res.value.real == pytest.approx(1.0, abs=1e-14)
        assert abs(res.value.imag) < 1e-15


def test_k0_total_mass():
    # integral of (2/pi) K0(t) e^{-rt} over (0, inf) is
    # (2/pi) arccos(r) / sqrt(1 - r^2), exactly 1 at r = 0
    for rate in (0.0, 0.5):
        exact = (2.0 / math.pi) * math.acos(rate) / math.sqrt(1.0 - rate**2)
        res = integrate_semiinfinite(
            lambda t: (2.0 / math.pi) * _k0_vec(t) * np.exp(-rate * t)
        )
        assert res.converged
        assert res.value.real == pytest.approx(exact, abs=5e-14)


def test_log_weighted_exponential():
    # integral of -ln(t) e^{-t} equals the Euler-Mascheroni constant
    res = integrate_semiinfinite(lambda t: -np.log(t) * np.exp(-t))
    assert res.converged
    assert res.value.real == pytest.approx(EULER_GAMMA, abs=1e-13)


def test_power_law_tail():
    res = integrate_semiinfinite(lambda t: (1.0 + t) ** -2.5)
    assert res.converged
    assert res.value.real == pytest.approx(2.0 / 3.0, abs=1e-13)


def test_finite_log_singularity():
    res = integrate_finite(lambda x: -np.log(x), 0.0, 1.0)
    assert res.converged
    assert res.value.real == pytest.approx(1.0, abs=1e-14)


def test_finite_inverse_sqrt_lower_end():
    res = integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert res.converged
    assert res.value.real == pytest.approx(2.0, rel=1e-13)


def test_finite_plain_polynomial():
    res = integrate_finite(lambda x: 3.0 * x**2, -1.0, 2.0)
    assert res.value.real == pytest.approx(9.0, rel=1e-13)


def test_error_estimate_is_honest():
    for f, exact in (
        (lambda t: np.exp(-t), 1.0),
        (lambda t: -np.log(t) * np.exp(-t), EULER_GAMMA),
    ):
        res = integrate_semiinfinite(f)
        assert abs(res.value.real - exact) <= 10.0 * max(res.abs_error_estimate, 1e-15)


def test_more_levels_do_not_change_converged_result():
    a = integrate_semiinfinite(
        lambda t: np.exp(-t), QuadratureConfig(max_levels=8)
    )
    b = integrate_semiinfinite(
        lambda t: np.exp(-t), QuadratureConfig(max_levels=16)
    )
    assert abs(a.value - b.value) < 1e-14


def test_nonconverged_flag():
    # an interior kink defeats tanh-sinh at a crippled level budget
    cfg = QuadratureConfig(max_levels=3)
    res = integrate_finite(lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0, cfg)
    assert isinstance(res, QuadratureResult)
    if not res.converged:
        assert res.abs_error_estimate > cfg.abs_tol
    else:  # generous budget must agree; the flag may not trip on easy kinks
        ref = integrate_finite(lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0)
        assert abs(res.value - ref.value) <= 10 * res.abs_error_estimate


def test_non_finite_integrand_is_flagged():
    # exp overflows and inf - inf is NaN: the sum must come back flagged
    res = integrate_finite(lambda x: np.exp(800.0 * x) - np.exp(800.0 * x), 0.0, 1.0)
    assert not res.converged
    assert res.abs_error_estimate == math.inf


def test_evaluation_counts_reported():
    res = integrate_semiinfinite(lambda t: np.exp(-t))
    assert res.evaluations > 50


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_levels=2)
    fast = QuadratureConfig.fast()
    assert fast.rel_tol > QuadratureConfig().rel_tol


_BAD_CONFIGS = [
    {"rel_tol": math.inf}, {"abs_tol": math.inf}, {"rel_tol": math.nan},
    {"max_levels": 5.0}, {"max_levels": True}, {"rel_tol": True}, {"abs_tol": "1e-15"},
    {"max_levels": np.int64(17)},
]


@pytest.mark.parametrize("kwargs", _BAD_CONFIGS)
def test_config_rejects_at_construction(kwargs):
    # a non-finite tolerance would accept any error, and True would be a
    # tolerance of 1.0; a float level count would fail later inside the
    # level loop
    with pytest.raises(ValueError):
        QuadratureConfig(**kwargs)


@pytest.mark.parametrize("kwargs", _BAD_CONFIGS + [
    {"rel_tol": 0.0}, {"abs_tol": -1.0}, {"max_levels": 2}, {"max_levels": 17},
])
def test_bad_config_raises_domain_error(kwargs):
    # the package's one input rule, so a caller catching DomainError (or
    # ValueError, its base) sees every bad configuration
    with pytest.raises(DomainError):
        QuadratureConfig(**kwargs)


@pytest.mark.parametrize("levels", [3, 10])
def test_config_takes_a_numpy_level_count(levels):
    # a numpy integer is a level count, as a numpy float is a tolerance; at
    # 3 levels every column of the grid stops at the limit
    grid = np.linspace(-4.0, 4.0, 33)
    cfg = QuadratureConfig(max_levels=np.int64(levels))
    assert cfg == QuadratureConfig(max_levels=levels)
    assert ([repr(r) for r in green_sweep(3, grid, cfg)]
            == [repr(r) for r in green_sweep(3, grid, QuadratureConfig(max_levels=levels))])


def test_finite_bad_interval():
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 1.0, 1.0)


@pytest.mark.parametrize("a,b", [
    (True, 2.0), ("0", 1.0), (0.0, math.inf), (0.0, math.nan), (1.0, 1.0), (2.0, 1.0),
    (-1e308, 1e308),
])
def test_finite_ends_follow_the_input_rule(a, b):
    # each end is a finite real, not a bool, and b > a by a finite length
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, a, b)


def test_complex_integrand():
    res = integrate_semiinfinite(lambda t: (1.0 + 2.0j) * np.exp(-t))
    assert res.value == pytest.approx(1.0 + 2.0j, abs=1e-13)


@pytest.mark.parametrize("max_levels", [17, 30])
def test_config_rejects_a_level_budget_too_large_to_build(max_levels):
    # the nodes new at a level number about 6.1 * 2^level, so the budget is
    # refused before any node set is built
    before = quadrature._ts_nodes.cache_info()
    with pytest.raises(ValueError):
        QuadratureConfig(max_levels=max_levels)
    assert quadrature._ts_nodes.cache_info() == before


@functools.lru_cache(maxsize=None)
def _per_level_nodes(level):
    nodes = quadrature._level_nodes(level)
    for arr in nodes:
        arr.flags.writeable = False
    return nodes


def test_every_level_node_lies_inside_with_positive_weight():
    # _TS_UMAX keeps e^{-2v} normal, so no node of any level the config
    # accepts reaches an end of (0, 1) or carries a zero weight: the premise
    # on which _level_nodes keeps every node it forms
    for level in range(quadrature._MAX_LEVELS + 1):
        alpha, alphac, w = quadrature._level_nodes(level)
        assert (alpha > 0).all() and (alphac > 0).all() and (w > 0).all()


def test_first_step_is_the_per_level_nodes_in_ascending_order():
    # the first step evaluates level 2's whole grid, ascending in tau; its
    # parts are the nodes new at levels 0, 1 and 2, bit for bit and in
    # their order, which keeps every sub-level sum's bits
    *first, parts = quadrature._ts_nodes(0)
    assert first[0].size == 49 and (np.diff(first[0] / first[1]) > 0).all()
    assert sorted(i for part in parts for i in np.arange(49)[part].tolist()) == list(range(49))
    for level, part in enumerate(parts):
        for got, ref in zip(first, quadrature._level_nodes(level)):
            assert got[part].tobytes() == ref.tobytes()


def test_half_line_weight_rows_are_finite_and_keep_a_cut_row_zero(monkeypatch):
    # each evaluating level's cached row carries the Jacobian, bitwise the
    # division the integrand once made; _TS_UMAX keeps it finite, so an
    # integrand row that is +0 past its reach stays +0 (finite * 0, never
    # inf * 0 = NaN).  Outside the band at d = 3, omega = 10, the reach is
    # 746/7 and cuts every level; the Bessel tables are built uncached.
    monkeypatch.setattr(green, "_bessel_nodes",
                        lambda level: bessel_table(quadrature.half_line_nodes(level)))
    d, _, js, exponents = admit(3, [10.0, -10.0])
    reach = green._EXP_ZERO / van_hove_distance(exponents)
    terms = np.array([term_weights(d, j) for j in js.tolist()])
    largest = 0.0
    for level in (0, *range(quadrature._FIRST_LEVELS, quadrature._MAX_LEVELS + 1)):
        _, alphac, w, row, _ = quadrature._ts_nodes(level)
        assert row is quadrature._ts_nodes(level)[3] and not row.flags.writeable
        assert row.tobytes() == ((w / alphac) / alphac).tobytes()
        assert np.isfinite(row).all() and (row > 0).all()
        largest = max(largest, row.max())
        vals = green._eval_level(d, level, exponents, terms, reach)
        cut = quadrature.half_line_nodes(level) > reach.max()
        assert cut.any() and not vals[:, cut].any()
        weighted = row * vals
        assert np.isfinite(weighted).all() and not weighted[:, cut].any()
        assert not np.signbit(weighted[:, cut].real).any()
        assert not np.signbit(weighted[:, cut].imag).any()
    assert 9e300 < largest < 1e301


def _tanh_sinh_reference(f, weights, n, cfg, roundoff=2.0):
    """The level loop with one ``f`` call per level, levels 0, 1 and 2
    included: the loop that the first step replaced, kept as the bitwise
    reference for it.  It multiplies by the same weight rows, those of the
    first step sliced into its three levels."""
    _EPS, _BASE_H, _cabs = quadrature._EPS, quadrature._BASE_H, quadrature._cabs
    value, err, floor = np.empty(n, dtype=complex), np.empty(n), np.empty(n)
    evals, finite = np.empty(n, dtype=int), np.empty(n, dtype=bool)
    cols = np.arange(n)
    total, l1 = np.zeros(n, dtype=complex), np.zeros(n)
    e = np.full(n, math.inf)
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(cfg.max_levels + 1):
            alpha, alphac, _ = _per_level_nodes(level)
            w = (weights(level) if level >= quadrature._FIRST_LEVELS
                 else weights(0)[quadrature._FIRST_PARTS[level]])
            step = max(1, quadrature._BLOCK_ELEMENTS // alpha.size)
            for i in range(0, cols.size, step):
                block = slice(i, i + step)
                vals = w * np.atleast_2d(f(level, alpha, alphac, cols[block]))
                total[block] += vals.sum(axis=1)
                l1[block] += np.abs(vals).sum(axis=1)
            count += alpha.size
            h = _BASE_H / 2**level
            v = h * total
            ok = np.isfinite(total) & np.isfinite(l1)
            stop = ~ok
            if level >= 1:
                e = _cabs(v - prev)
            if level >= 2:
                fl = 2.0 * _EPS * h * l1
                tol = np.maximum(cfg.abs_tol, cfg.rel_tol * _cabs(v))
                stop |= e <= np.maximum(tol, 4.0 * fl)
                stop |= (fl > tol) & (e <= 100.0 * fl)
            if level == cfg.max_levels:
                stop[:] = True
            if stop.any():
                done = cols[stop]
                value[done], err[done], finite[done] = v[stop], e[stop], ok[stop]
                floor[done] = roundoff * _EPS * h * l1[stop]
                evals[done] = count
                keep = ~stop
                cols, total, l1, v, e = cols[keep], total[keep], l1[keep], v[keep], e[keep]
                if cols.size == 0:
                    break
            prev = v
        est = np.maximum(np.maximum(np.where(np.isfinite(err), err, 0.0), floor),
                         _EPS * _cabs(value))
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * _cabs(value))
        est[~finite] = math.inf
        converged = finite & (est <= tol)
    return [QuadratureResult(value=complex(value[i]), abs_error_estimate=float(est[i]),
                             evaluations=int(evals[i]), converged=bool(converged[i]))
            for i in range(n)]


def _run_reference(monkeypatch, fn):
    # fn() run by the per-level loop, with the Bessel tables of sweeps, and
    # the ray and segment tables of the t0 contour, on the nodes of single
    # levels
    @functools.lru_cache(maxsize=None)
    def bessel_nodes(level):
        alpha, alphac, _ = _per_level_nodes(level)
        return bessel_table(alpha / alphac)

    @functools.lru_cache(maxsize=None)
    def ray_nodes(level, t0):
        alpha, alphac, _ = _per_level_nodes(level)
        return ray_table(alpha / alphac, t0)

    @functools.lru_cache(maxsize=None)
    def segment_nodes(level, t0):
        return segment_table(t0 * _per_level_nodes(level)[0])

    with monkeypatch.context() as m:
        m.setattr(quadrature, "_tanh_sinh", _tanh_sinh_reference)
        m.setattr(green, "_bessel_nodes", bessel_nodes)
        m.setattr(green, "_ray_nodes", ray_nodes)
        m.setattr(green, "_segment_nodes", segment_nodes)
        return fn()


@pytest.mark.parametrize("d", [*range(1, 8), 8, 20, 40, 120])
def test_first_step_is_bitwise_the_per_level_loop_for_sweeps(monkeypatch, d):
    # the band interior, van Hove points (each one up to d = 7, the d = 1, 2
    # divergences among them; from d = 8 on the band edges, their
    # neighbours and the centre) and offsets from them on both sides, and
    # outside the band
    van_hove = np.arange(-d, d + 1, 2.0)
    if d > 7:
        van_hove = van_hove[[0, 1, d // 2, -2, -1]]
    offsets = np.array([0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 0.3])
    grid = np.concatenate([np.linspace(-d - 1.5, d + 1.5, 37),
                           (van_hove[:, None] + offsets).ravel()])
    got = green_sweep(d, grid)
    ref = _run_reference(monkeypatch, lambda: green_sweep(d, grid))
    # no value is NaN, the band of d >= 8 on the t0 contour included
    assert not any(cmath.isnan(r.value) for r in got)
    assert [repr(r) for r in got] == [repr(r) for r in ref]
    # the d <= 2 divergences are flagged, and every other value converges
    assert any(not r.converged for r in got) == (d <= 2)


@pytest.mark.parametrize("f, a, b, cfg", [
    (lambda x: -np.log(x), 0.0, 1.0, QuadratureConfig()),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, QuadratureConfig()),
    (lambda x: 3.0 * x**2, -1.0, 2.0, QuadratureConfig()),
    (lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0, QuadratureConfig(max_levels=3)),
    (lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0, QuadratureConfig()),
    (lambda x: np.exp(7j * x) / (1.0 + x * x), -2.0, 3.0, QuadratureConfig.fast()),
])
def test_first_step_is_bitwise_the_per_level_loop_for_finite_integrals(monkeypatch, f, a, b, cfg):
    got = integrate_finite(f, a, b, cfg)
    ref = _run_reference(monkeypatch, lambda: integrate_finite(f, a, b, cfg))
    assert repr(got) == repr(ref)


def test_oracle_is_bitwise_the_per_level_loop(monkeypatch):
    # an outer integral over frequencies whose integrand is itself a sweep
    got = dos_normalization(3)
    assert got == _run_reference(monkeypatch, lambda: dos_normalization(3))


def test_non_finite_first_level_reports_the_first_step(monkeypatch):
    # the sums are NaN at level 0, yet levels 1 and 2 were evaluated with it
    res = integrate_semiinfinite(lambda t: np.full(t.shape, math.nan))
    assert not res.converged and res.abs_error_estimate == math.inf
    assert res.evaluations == 49
    # the evaluation count is all that differs from the per-level loop,
    # which stopped after the 13 nodes of level 0
    f = lambda x: np.exp(800.0 * x) - np.exp(800.0 * x)  # noqa: E731
    res = integrate_finite(f, 0.0, 1.0)
    ref = _run_reference(monkeypatch, lambda: integrate_finite(f, 0.0, 1.0))
    assert not res.converged and res.abs_error_estimate == math.inf
    assert (res.evaluations, ref.evaluations) == (49, 13)
    assert repr(res) == repr(dataclasses.replace(ref, evaluations=49))


def test_stop_tests_start_at_level_2():
    # levels 0 and 1 only add: an integrand that is 0 on their nodes gives
    # them equal sums, which a stop test at level 1 would accept, while
    # level 2's nodes show that the column has far to go
    def f(level, ints):
        row = (1.0 + quadrature.half_line_nodes(level)) ** -2.0
        if level == 0:
            row[quadrature._FIRST_PARTS[0]] = row[quadrature._FIRST_PARTS[1]] = 0.0
        return row[None]

    res = quadrature.integrate_half_line(f, 1, QuadratureConfig())[0]
    assert res.evaluations > 49


def test_roundoff_raises_the_estimate_and_moves_no_stop():
    # the reported floor is roundoff * eps * h * sum|f|, while the stop
    # tests keep 2 eps: value and evaluations keep their bits
    def f(level, ints):
        return np.exp(-quadrature.half_line_nodes(level))[None]  # one row

    cfg = QuadratureConfig()
    base, raised = (quadrature.integrate_half_line(f, 1, cfg, roundoff)[0]
                    for roundoff in (2.0, 200.0))
    assert base.converged and raised.converged
    assert (raised.value, raised.evaluations) == (base.value, base.evaluations)
    # h * sum|f| is the integral of e^{-tau}, 1
    assert raised.abs_error_estimate >= 199.0 * quadrature._EPS > base.abs_error_estimate
