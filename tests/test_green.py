"""End-to-end tests for green_local, green_sweep, and the density of states."""
import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from latgreen import quadrature
from latgreen.errors import DomainError
from latgreen.green import (
    VAN_HOVE_ADJACENT_TOL,
    GreenResult,
    dos,
    green_local,
    green_sweep,
)
from latgreen.integrand import TailKind, build_integrand, tail_class
from latgreen.oracles import laurent_green, laurent_truncation_bound
from latgreen.quadrature import QuadratureConfig

from reference_values import G3_ZERO_IMAG


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


def test_snapped_input_evaluates_on_the_point():
    exact = green_local(3, 1.0)
    snapped = green_local(3, 1.0 + 1e-14)
    assert abs(snapped.value - exact.value) < 1e-12


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
    # among them); d = 40 and 80 form powers up to kbar^80 as plain
    # products, and at d = 120 the in-band rows are NaN next to the finite
    # outside-band ones
    grid = np.concatenate([np.linspace(-d - 1.0, d + 1.0, 97), np.arange(-d, d + 1, 2.0)])
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


@pytest.mark.parametrize("omega", [122.0, -122.0])
def test_outside_band_at_d120_matches_laplace_integral(omega):
    # for |omega| > d, G_d(omega) = sign(omega) int_0^inf e^{-|omega| tau}
    # I0(tau)^d dtau, here at 30 digits
    with mp.workdps(30):
        integral = mp.quad(lambda t: mp.exp(-abs(omega) * t) * mp.besseli(0, t) ** 120,
                           [0, 1, 10, mp.inf])
    res = green_local(120, omega)
    assert res.converged
    assert abs(res.value - math.copysign(float(integral), omega)) <= res.abs_error


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sweep_divergence_follows_tail_class(d):
    # within the snap tolerance of a van Hove point, and just outside it
    offsets = np.array([0.0, 5e-14, -5e-14, 3e-13, -3e-13, 1e-9])
    grid = (np.arange(-d, d + 1, 2.0)[:, None] + offsets).ravel()
    expected = [tail_class(build_integrand(d, w)).kind is TailKind.DIVERGENT for w in grid]
    assert [r.divergent for r in green_sweep(d, grid)] == expected
    assert any(expected) == (d <= 2)


@pytest.mark.parametrize("d, omega, head, tail", [
    (3, 0.5, 195, 389), (1, 0.9999999984289644, 195, 3113), (40, 45.0, 389, 49),
])
def test_head_and_tail_keep_their_own_stops(monkeypatch, d, omega, head, tail):
    # head and tail share one level loop but stop at their own levels, so
    # the evaluation counts are those of two separate loops
    parts = []
    combine = quadrature._combine
    monkeypatch.setattr(quadrature, "_combine", lambda *p: parts.append(p) or combine(*p))
    res = green_local(d, omega)
    assert res.converged
    assert [p.evaluations for p in parts[0]] == [head, tail]
    assert res.evaluations == head + tail


def test_piece_beyond_the_double_range_raises_domain_error():
    # piece 209 is the first of d = 653 whose weights cannot be formed;
    # the band centre of d = 653 and the outside of d = 690 can
    with pytest.raises(DomainError, match="d <= 652"):
        green_local(653, -234.0)
    res = green_local(653, 0.0)
    assert not res.converged
    assert green_local(690, 1380.0).converged


def test_every_dimension_returns_a_flagged_value_or_raises_domain_error():
    # at the band centre, mid-band and outside it, a call either returns a
    # result, whose value is finite or flagged, or raises DomainError,
    # across the limit d <= 652 of the weights; outside the band every d
    # converges
    raised = set()
    for d in (1, 7, 8, 120, 652, 653, 1000):
        for omega in (0.0, d / 2 + 0.3, d + 1.5):
            try:
                res = green_local(d, omega)
            except DomainError:
                raised.add((d, omega))
                continue
            assert isinstance(res, GreenResult) and (res.d, res.omega) == (d, omega)
            assert math.isfinite(abs(res.value)) or not res.converged
            assert res.converged or omega < d
    assert raised == {(1000, 0.0), (1000, 500.3)}


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
    # the alternating terms overflow at d = 120 and their sum is NaN, which
    # must come back flagged
    res = green_local(120, 0.0)
    assert not res.converged
    if not cmath.isfinite(res.value):
        assert res.abs_error == math.inf


def test_cancellation_floor_stops_early():
    # the roundoff floor lies far above the tolerance in the d = 40 band
    # interior; refining past it only spends evaluations on noise
    res = green_local(40, -36.9)
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


def test_a_non_finite_head_stops_the_tail_at_d120():
    # in the band at d = 120 the head's sums overflow at level 0; the tail
    # used to refine on to level 3 (146 evaluations) for a NaN result
    res = green_local(120, 0.0)
    assert not res.converged and res.abs_error == math.inf
    assert res.evaluations == 98
