"""End-to-end tests for green_local, green_sweep, and the density of states."""
import cmath
import math
import os
import sys

import mpmath as mp
import numpy as np
import pytest

from latgreen import contour, green, integrand, quadrature
from latgreen.errors import DomainError
from latgreen.green import (
    VAN_HOVE_ADJACENT_TOL,
    GreenResult,
    dos,
    green_local,
    green_sweep,
)
from latgreen.integrand import TailKind, bessel_table, build_integrand, tail_class
from latgreen.oracles import laurent_green, laurent_truncation_bound
from latgreen.quadrature import QuadratureConfig, half_line_nodes

from gaussian_series import green_gaussian
from reference_values import G3_ZERO_IMAG

ROOT = os.path.dirname(os.path.dirname(__file__))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import check  # noqa: E402


def test_cubic_band_centre_value():
    res = green_local(3, 0.0)
    assert res.converged and not res.divergent
    assert abs(res.value.imag - G3_ZERO_IMAG) <= 5e-13
    assert abs(res.value.real) <= 1e-12
    assert res.piece_j == 1


def test_result_metadata():
    res = green_local(4, 1.25)
    assert isinstance(res, GreenResult)
    assert res.d == 4 and res.omega == 1.25
    assert res.piece_j == 2
    assert res.evaluations > 100
    assert res.abs_error < 1e-12


def test_imaginary_part_sign_inside_band():
    for d in (1, 2, 3, 5):
        for w in np.linspace(-d + 0.05, d - 0.05, 17):
            res = green_local(d, float(w), QuadratureConfig.fast())
            assert res.value.imag < 0.0


def test_real_outside_band():
    for d in (1, 3, 4):
        for w in (d + 0.5, -d - 0.5, 2.0 * d):
            res = green_local(d, float(w))
            assert abs(res.value.imag) < 1e-13
            assert math.copysign(1.0, res.value.real) == math.copysign(1.0, w)


def test_reflection_antisymmetry():
    for d in (2, 3, 6):
        for w in (0.3, 1.1, d - 0.2, d + 0.7):
            a = green_local(d, float(w))
            b = green_local(d, -float(w))
            assert abs(b.value + a.value.conjugate()) <= 2.0 * (
                a.abs_error + b.abs_error
            ) + 1e-15


def test_decay_at_large_frequency():
    # G ~ 1/omega far outside the band
    for d in (2, 5):
        res = green_local(d, 50.0)
        assert res.value.real == pytest.approx(1.0 / 50.0, rel=1e-2)


def test_chain_edge_divergence():
    for w, re_sign in ((1.0, 1.0), (-1.0, -1.0)):
        res = green_local(1, w)
        assert res.divergent and not res.converged
        assert res.value.imag == -math.inf
        assert res.value.real == re_sign * math.inf
        assert res.van_hove_adjacent


def test_square_divergences():
    # a divergent result is never converged: the CLI's exit code reads
    # ``converged`` alone
    centre = green_local(2, 0.0)
    assert centre.divergent and not centre.converged
    assert centre.value.real == 0.0 and centre.value.imag == -math.inf
    for w in (2.0, -2.0):
        edge = green_local(2, w)
        assert edge.divergent and not edge.converged
        assert edge.value.imag == 0.0
        assert edge.value.real == math.copysign(math.inf, w)


def test_van_hove_points_converge_for_higher_d():
    for d, w in ((3, 1.0), (3, 3.0), (4, 0.0), (5, 3.0), (7, 7.0)):
        res = green_local(d, w)
        assert res.converged and not res.divergent
        assert res.van_hove_adjacent


def test_van_hove_adjacency_flag():
    assert green_local(3, 1.0 + 1e-8).van_hove_adjacent
    assert not green_local(3, 1.5).van_hove_adjacent
    assert VAN_HOVE_ADJACENT_TOL == 1e-6


def _ulp_neighbours(points, toward):
    """The frequencies ``points`` moved by 1, 10 and 10^4 ulps toward +-inf,
    then by 1e-13, as rows of a (4 x points) array."""
    x, rows = np.asarray(points, dtype=float), []
    for k in range(1, 10**4 + 1):
        x = np.nextafter(x, toward)
        if k in (1, 10, 10**4):
            rows.append(x)
    rows.append(points + math.copysign(1e-13, toward))
    return np.array(rows)


def _closed_form(d, w):
    """G_1 or G_2 at w + i0 in 50-digit mpmath; G_2(z) = 2/(pi z) K(m = 4/z^2),
    the limit taken at a relative distance 1e-30 above the axis."""
    with mp.workdps(50):
        w = mp.mpf(w)
        if d == 1:
            if abs(w) > 1:
                return complex(mp.sign(w) / mp.sqrt(w * w - 1))
            return complex(mp.mpc(0, -1 / mp.sqrt(1 - w * w)))
        z = mp.mpc(w, abs(w) * mp.mpf(10) ** -30)
        return complex(2 / (mp.pi * z) * mp.ellipk(4 / (z * z)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_van_hove_ulp_neighbourhoods_are_right_or_flagged(d):
    # a frequency a few ulps from a van Hove point is evaluated at itself:
    # right against the d = 1 and 2 closed forms, on the sqrt(delta) law of
    # d = 3, within a delta log delta continuity bound of the point at d = 4,
    # or flagged
    van_hove = np.arange(-d, d + 1, 2.0)
    on = green_sweep(d, van_hove)
    assert all(r.divergent for r in on) == (d <= 2)
    for toward in (math.inf, -math.inf):
        grid = _ulp_neighbours(van_hove, toward)
        if d == 3:  # the sqrt(delta) coefficient of each point on this side
            far = green_sweep(d, van_hove + math.copysign(1e-9, toward))
            coeff = [abs(f.value - v.value) / math.sqrt(1e-9) for f, v in zip(far, on)]
        for w, r in zip(grid.ravel(), green_sweep(d, grid.ravel())):
            i = int(np.abs(van_hove - w).argmin())
            delta = abs(w - van_hove[i])  # exact: w is within a factor 2 of it
            if not r.converged:
                assert d == 2 and not r.divergent  # flagged, never a divergence
                continue
            if d <= 2:
                ref = _closed_form(d, w)
                assert abs(r.value - ref) <= 1e-13 * abs(ref)
            elif d == 3:
                law = coeff[i] * math.sqrt(delta)
                assert abs(abs(r.value - on[i].value) - law) <= 1e-4 * law
            else:
                bound = delta * (1.0 - math.log(delta)) + r.abs_error + on[i].abs_error
                assert abs(r.value - on[i].value) <= bound


def test_cubic_band_edges_follow_the_square_root_law():
    # the band is 3 - |k|^2/2 near k = 0, so the DOS gives
    # Im G_3(+-(3 - delta)) = -sqrt(2 delta)/(2 pi) (1 + O(delta)): -1.2e-7 at
    # delta = 2.9e-13, where Im G_3(3) itself is 0
    edges = np.array([3.0, -3.0])
    for w in np.concatenate([np.nextafter(edges, 0.0), edges * (1.0 - 2.9e-13 / 3.0)]).tolist():
        res = green_local(3, w)
        assert res.converged
        law = -math.sqrt(2.0 * (3.0 - abs(w))) / (2.0 * math.pi)
        assert abs(res.value.imag - law) <= res.abs_error


def test_sweep_preserves_order_and_handles_divergences():
    grid = [-1.5, -1.0, 0.0, 1.0, 1.5]
    results = green_sweep(1, grid)
    assert [r.omega for r in results] == grid
    assert [r.divergent for r in results] == [False, True, False, True, False]


def test_sweep_empty():
    assert green_sweep(3, []) == []


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 20, 40, 80, 120])
def test_sweep_is_bitwise_pointwise(d):
    # more frequencies than one block holds from level 5 on, across every
    # piece j = -1..d, with every van Hove point (the d = 1, 2 divergences
    # among them) and its two neighbouring doubles; from d = 8 on the band
    # rows are on the t0 contour, next to the outside-band rows of the
    # imaginary-axis formula
    van_hove = np.arange(-d, d + 1, 2.0)
    grid = np.concatenate([np.linspace(-d - 1.0, d + 1.0, 97), van_hove,
                           np.nextafter(van_hove, math.inf), np.nextafter(van_hove, -math.inf)])
    swept = green_sweep(d, grid)
    assert {r.piece_j for r in swept} == set(range(-1, d + 1))
    assert [repr(r) for r in swept] == [repr(green_local(d, float(w))) for w in grid]


@pytest.mark.parametrize("omega", [240.0, -240.0])
def test_outside_band_at_d120_matches_laurent(omega):
    # outside the band the integrand is the single m = d term, which stays
    # finite where the zero-weighted terms of the other m would overflow
    res = green_local(120, omega)
    ref = laurent_green(120, omega, 60)
    assert res.converged and res.piece_j in (-1, 120)
    assert abs(res.value - ref) <= res.abs_error + laurent_truncation_bound(120, omega, 60)
    # batched with the other side of the band only: no row inside it
    assert repr(green_sweep(120, [omega, -omega])[0]) == repr(res)


@pytest.mark.parametrize("d, omega", [
    (120, 122.0), (120, -122.0), (300, 480.0), (300, -480.0), (652, 1043.2), (1023, 2046.0),
])
def test_outside_band_matches_laplace_integral(d, omega):
    # for |omega| > d, G_d(omega) = sign(omega) int_0^inf e^{-|omega| tau}
    # I0(tau)^d dtau, here at 30 digits; the estimate must cover the
    # integrand's d-fold rounding, which grows with d
    with mp.workdps(30):
        integral = mp.quad(lambda t: mp.exp(d * mp.log(mp.besseli(0, t)) - abs(omega) * t),
                           [0, 0.01, 0.05, 0.3, 1, 5, mp.inf])
    res = green_local(d, omega)
    assert res.converged
    assert abs(res.value - math.copysign(float(integral), omega)) <= res.abs_error


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sweep_divergence_follows_tail_class(d):
    # on a van Hove point, and 5e-14 to 1e-9 from it
    offsets = np.array([0.0, 5e-14, -5e-14, 3e-13, -3e-13, 1e-9])
    grid = (np.arange(-d, d + 1, 2.0)[:, None] + offsets).ravel()
    expected = [tail_class(build_integrand(d, w)).kind is TailKind.DIVERGENT for w in grid]
    assert [r.divergent for r in green_sweep(d, grid)] == expected
    assert any(expected) == (d <= 2)


@pytest.mark.parametrize("d, omega, calls", [
    (3, 0.5, 4), (1, 0.9999999984289644, 7), (40, 45.0, 4), (120, 0.0, 1),
])
def test_one_integrand_call_per_level(monkeypatch, d, omega, calls):
    # each level evaluates the frequencies that still refine in one call
    # on (0, inf), on the level's cached table or views of its first k
    # nodes, those below the rows' reach: (3, 0.5) stops at level 5 (389
    # evaluations), so levels 0, 3, 4 and 5 make one call each; (120, 0)
    # is on the t0 contour, whose rays, about 1e-43, stop after the first
    # step
    tables = []

    def eval_terms(d, exponents, table, weights):
        tables.append(table)
        return integrand.eval_terms(d, exponents, table, weights)

    def eval_rays(d, omegas, js, table):
        tables.append(table)
        return contour.eval_rays(d, omegas, js, table)

    monkeypatch.setattr(green, "eval_terms", eval_terms)
    monkeypatch.setattr(green, "eval_rays", eval_rays)
    green_local(d, omega)
    assert len(tables) == calls
    for table in tables:
        assert any(_is_head_of(table, level) for level in (0, *range(3, 13)))


def _is_head_of(table, level):
    # the level's cached table itself, or views of the first k entries of
    # each of its arrays
    if isinstance(table, contour.RayTable):
        return table is green._ray_nodes(level, green.T0)
    cached = green._bessel_nodes(level)
    if table is cached:
        return True
    return all(
        part.base is whole and part.ctypes.data == whole.ctypes.data
        and part.size < whole.size
        for part, whole in zip(vars(table).values(), vars(cached).values()))


def test_a_levels_bessel_table_is_the_pair_on_its_nodes():
    # one cached table per level, with the bits of the pair built on the
    # level's nodes, read-only since every caller shares it
    for level in (0, 4):
        table, ref = green._bessel_nodes(level), bessel_table(half_line_nodes(level))
        for name, arr in vars(table).items():
            assert not arr.flags.writeable
            assert arr.tobytes() == getattr(ref, name).tobytes()
    # every evaluating level's table ascends strictly in tau, the first
    # step's 49 nodes included, so the nodes below a reach are its first k
    for level in (0, *range(3, QuadratureConfig().max_levels + 1)):
        assert (np.diff(green._bessel_nodes(level).tau) > 0).all()
    for level in range(QuadratureConfig().max_levels + 1, quadrature._MAX_LEVELS + 1):
        alpha, alphac, _ = quadrature._level_nodes(level)  # uncached
        assert (np.diff(alpha / alphac) > 0).all()


def test_piece_beyond_the_double_range_raises_domain_error():
    # piece 209 is the first of d = 653 whose weights cannot be formed, so
    # its imaginary-axis integrand raises where the weights live; the
    # evaluator takes every band piece of d >= 8 on the t0 contour, which
    # needs no such weight, and the outside of d = 690 has one term
    with pytest.raises(DomainError, match="d <= 652"):
        integrand.term_weights(653, 209)
    with pytest.raises(DomainError, match="d <= 652"):
        build_integrand(653, -234.0)
    assert green_local(653, -234.0).converged and green_local(653, 0.0).converged
    assert green_local(690, 1380.0).converged


def test_every_dimension_returns_a_flagged_value_or_raises_domain_error():
    # at the band centre, mid-band and outside it, a call either returns a
    # result, whose value is finite or flagged, or raises DomainError,
    # across the limit d <= 652 of the imaginary-axis weights and the limit
    # d <= 1,023 of 2^d; only d = 1,024 raises, and every d up to that
    # limit converges, in the band on the t0 contour from d = 8 on
    raised = set()
    for d in (1, 7, 8, 120, 652, 653, 1000, 1023, 1024):
        for omega in (0.0, d / 2 + 0.3, d + 1.5):
            try:
                res = green_local(d, omega)
            except DomainError:
                raised.add((d, omega))
                continue
            assert isinstance(res, GreenResult) and (res.d, res.omega) == (d, omega)
            assert res.converged and math.isfinite(abs(res.value))
    assert raised == {(1024, 0.0), (1024, 512.3), (1024, 1025.5)}


@pytest.mark.parametrize("d", [0, -3, 2.0, True])
def test_sweep_validates_dimension_on_empty_grid(d):
    with pytest.raises(DomainError):
        green_sweep(d, [])


@pytest.mark.parametrize("d", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integer_dimension_is_an_int(d):
    # a numpy integer d is the Python int it equals, from the first step on
    res = green_local(d, 0.5)
    assert type(res.d) is int and type(build_integrand(d, 0.5).d) is int
    assert repr(res) == repr(green_local(3, 0.5))
    assert [repr(r) for r in green_sweep(d, [0.5, 4.0])] == [
        repr(r) for r in green_sweep(3, [0.5, 4.0])]
    assert dos(d, 0.5) == dos(3, 0.5)


def test_sweep_validates_every_frequency():
    with pytest.raises(DomainError):
        green_sweep(3, [0.0, math.nan])


def test_sweep_takes_any_iterable():
    grid = [-4.5, 0.25, 1.0, 3.5]
    assert green_sweep(3, (w for w in grid)) == green_sweep(3, grid)


def test_result_fields_are_python_floats():
    (res,) = green_sweep(3, np.array([0.5]))
    assert type(res.omega) is float and type(res.abs_error) is float
    assert type(res.value) is complex and type(res.evaluations) is int


def test_non_finite_sum_is_flagged():
    # the imaginary-axis integrand of the d = 120 band centre, which the
    # evaluator no longer uses there: its alternating terms overflow at the
    # smallest nodes and their sum is NaN, which the quadrature flags
    spec = build_integrand(120, 0.0)
    res = quadrature.integrate_semiinfinite(lambda tau: integrand.eval_integrand(spec, tau))
    assert not res.converged and cmath.isnan(res.value)
    assert res.abs_error_estimate == math.inf


def test_cancellation_floor_stops_early():
    # the roundoff floor of the d = 40 imaginary-axis integrand lies far
    # above the tolerance in the band interior (the evaluator takes that
    # point on the t0 contour); refining past it only spends evaluations
    # on noise
    spec = build_integrand(40, -36.9)
    res = quadrature.integrate_semiinfinite(lambda tau: integrand.eval_integrand(spec, tau))
    assert not res.converged
    assert res.evaluations <= 1000


def test_dos_basic_values():
    assert dos(1, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-13)
    assert dos(3, 0.0) == pytest.approx(-G3_ZERO_IMAG / math.pi, rel=1e-12)
    assert dos(3, 4.0) == pytest.approx(0.0, abs=1e-13)


def test_dos_divergence_conventions():
    assert dos(1, 1.0) == math.inf
    assert dos(2, 0.0) == math.inf
    assert math.isnan(dos(2, 2.0))


def test_custom_config_respected():
    loose = green_local(3, 0.4, QuadratureConfig.fast())
    tight = green_local(3, 0.4)
    assert abs(loose.value - tight.value) < 1e-8
    assert loose.evaluations < tight.evaluations


def test_large_dimension_band_centre():
    # sqrt(d/2) A_d(0) approaches the Gaussian value 1/sqrt(2 pi)
    val = math.sqrt(10.0) * dos(20, 0.0, QuadratureConfig.fast())
    assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=0.02)


def test_in_band_large_d_against_the_gaussian_series():
    # the in-band pool points of d >= 40, where the Gaussian series is an
    # independent oracle: it agrees with each pool reference relative to
    # |G|, and each value, on the t0 contour, is converged and within its
    # own error estimate of it
    sets, refs = check.load_pool(os.path.join(ROOT, "perfbench", "pool.json"))
    points = [(d, omega) for name in ("large/centre", "large/interior", "large/edge")
              for d, omega in sets[name] if d >= 40 and abs(omega) < d]
    assert len(points) == 35
    for d, omega in points:
        series = green_gaussian(d, omega)
        ref = refs[check.key(d, omega)].value
        assert abs(series - ref) <= 1e-14 * abs(ref)
        r = green_local(d, omega)
        assert r.converged and not r.divergent
        assert abs(r.value - series) <= r.abs_error


@pytest.mark.parametrize("d", [8, 12, 20, 40, 80, 120])
def test_contour_value_does_not_depend_on_t0(monkeypatch, d):
    # G may not depend on where the segment ends and the rays start: a
    # dense in-band grid, with every van Hove frequency of the band and
    # its neighbours 1e-9 away, at t0 = 3 and at t0 = 2.5, past the first
    # zero of J0 (2.405) either way
    van_hove = np.arange(-d, d, 2.0)
    grid = np.concatenate([np.linspace(-d, d, 83)[1:-1], van_hove,
                           van_hove[1:] - 1e-9, van_hove + 1e-9])
    at_3 = green_sweep(d, grid)
    monkeypatch.setattr(green, "T0", 2.5)
    at_2_5 = green_sweep(d, grid)
    assert {r.piece_j for r in at_3} == set(range(d))
    for a, b in zip(at_3, at_2_5):
        assert a.converged and b.converged
        assert abs(a.value - b.value) <= a.abs_error + b.abs_error


@pytest.mark.parametrize("d, omega", [(1000, 0.0), (653, -234.0)])
def test_wide_d_band_against_the_gaussian_series(d, omega):
    # the band pieces of d = 653..1,023 were refused by the imaginary-axis
    # weights; on the t0 contour they converge to within their own error
    # estimate of the Gaussian series, which J0^d = exp(d log|J0|) from a
    # library J0 would miss at d = 1,000 (8.5e-14 relative)
    res = green_local(d, omega)
    assert res.converged and 0 <= res.piece_j < d
    assert abs(res.value - green_gaussian(d, omega)) <= res.abs_error


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_contour_agrees_with_the_imaginary_axis_below_d_8(monkeypatch, d):
    # two independent formulas for the same band: the imaginary-axis one,
    # which serves d <= 7, and the t0 contour, routed here from d = 4 on;
    # on the van Hove frequencies, 1e-9 beside them and a dense grid, both
    # converge and agree within the sum of their estimates
    van_hove = np.arange(-d, d, 2.0)
    grid = np.concatenate([np.linspace(-d, d, 61)[1:-1], van_hove,
                           van_hove[1:] - 1e-9, van_hove + 1e-9])
    axis = green_sweep(d, grid)
    monkeypatch.setattr(green, "CONTOUR_MIN_D", 4)
    contour = green_sweep(d, grid)
    assert [r.value for r in contour] != [r.value for r in axis]  # another formula
    for a, b in zip(axis, contour):
        assert a.converged and b.converged
        assert abs(a.value - b.value) <= a.abs_error + b.abs_error
