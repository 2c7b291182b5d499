"""Tests for the verification engines: independent oracles and identity checks."""
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from latgreen import oracles
from latgreen.errors import DomainError, TruncationTooCoarseError
from latgreen.green import dos, green_local
from latgreen.oracles import (
    bessel_j_fourier,
    bz_bruteforce,
    dos_convolution,
    dos_moment,
    dos_normalization,
    g1_closed_form,
    laurent_green,
    laurent_truncation_bound,
    lorentz_broadened,
    moments,
)
from latgreen.quadrature import QuadratureConfig

from reference_values import G3_ZERO_IMAG

FAST = QuadratureConfig.fast()


def _walks_direct(d: int, k: int) -> int:
    # closed 2k-step walks as a sum over per-axis step splittings:
    # (2k)! / prod_i (k_i!)^2 over k_1 + ... + k_d = k
    total = 0
    for split in itertools.product(range(k + 1), repeat=d):
        if sum(split) != k:
            continue
        term = math.factorial(2 * k)
        for ki in split:
            term //= math.factorial(ki) ** 2
        total += term
    return total


def _walks_convolution(d: int, kmax: int) -> list[int]:
    # the exact reference for the recurrence: W_d(2k) by convolution over
    # dimensions, W_d(2k) = sum_j C(2k, 2j) W_1(2j) W_{d-1}(2k-2j), with
    # W_1(2j) = C(2j, j)
    w = [math.comb(2 * k, k) for k in range(kmax + 1)]
    for _ in range(d - 1):
        w = [sum(math.comb(2 * k, 2 * j) * math.comb(2 * j, j) * w[k - j]
                 for j in range(k + 1)) for k in range(kmax + 1)]
    return w


def test_moment_examples():
    assert moments(1, 3).moments == (
        Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(5, 16)
    )
    m3 = moments(3, 2).moments
    assert m3 == (Fraction(1), Fraction(3, 2), Fraction(45, 8))
    assert moments(2, 2).moments[2] == Fraction(9, 4)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_walk_counts_against_direct_enumeration(d, k):
    table = moments(d, k)
    assert table.moments[k] * 4**k == _walks_direct(d, k)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 12, 20, 40, 120])
@pytest.mark.parametrize("kmax", [0, 1, 5, 60])
def test_moments_match_the_convolution_over_dimensions(d, kmax):
    assert moments(d, kmax).moments == tuple(
        Fraction(w, 4**k) for k, w in enumerate(_walks_convolution(d, kmax)))


def test_moments_at_a_million_dimensions():
    # closed forms of m_2 and m_4, and the band bound on every ratio
    d = 10**6
    ms = moments(d, 200).moments
    assert ms[1] == Fraction(d, 2)
    assert ms[2] == Fraction(12 * d * d - 6 * d, 16)
    for a, b in zip(ms, ms[1:]):
        assert b <= d * d * a


def test_moments_grow_within_band_bound():
    # m_{2k+2} <= d^2 m_{2k} for a spectral measure on [-d, d]
    for d in (2, 5):
        ms = moments(d, 12).moments
        for a, b in zip(ms, ms[1:]):
            assert b <= d * d * a


def test_laurent_matches_chain_closed_form():
    for w in (1.5, 2.0, 4.0, -3.0):
        assert laurent_green(1, w, 80) == pytest.approx(
            g1_closed_form(w), rel=1e-13
        )


def test_laurent_truncation_bound_is_honest():
    for d, w in ((2, 5.0), (3, 7.0)):
        exact = green_local(d, w).value.real
        for kmax in (10, 20, 40):
            err = abs(laurent_green(d, w, kmax).real - exact)
            assert err <= laurent_truncation_bound(d, w, kmax) + 1e-15
    assert laurent_truncation_bound(3, 7.0, 40) < laurent_truncation_bound(
        3, 7.0, 10
    )
    # factors beyond the double range: 50^-201 underflows, and 50^-401
    # overflows as a reciprocal.  The bound stays at least the first
    # omitted term, which is at least m_{2kmax} m_2 / 50^(2kmax+3) since
    # the moment ratios grow (m_{2k}^2 <= m_{2k-2} m_{2k+2}) from m_2 = d/2
    exact = green_local(20, 50.0).value.real
    for kmax in (100, 200):
        bound = laurent_truncation_bound(20, 50.0, kmax)
        first_omitted = moments(20, kmax).moments[-1] * 10 / Fraction(50) ** (2 * kmax + 3)
        assert bound >= first_omitted > 0
        assert abs(laurent_green(20, 50.0, kmax).real - exact) <= bound + 1e-15


def test_laurent_inside_band_raises():
    with pytest.raises(DomainError):
        laurent_green(3, 2.0, 30)
    with pytest.raises(DomainError):
        laurent_green(3, 3.0, 30)


def test_chain_closed_forms_keep_their_digits_near_the_band_edges():
    # 1 - w^2 formed as (1 - w)(1 + w) cancels nothing; 1 - w * w rounds
    # w * w first, which made a relative error of 2.5e-9 at w = 1 + 1e-8
    edges = [s * (1.0 + t * 10.0**k) for s in (1, -1) for t in (1, -1) for k in range(-15, 0)]
    grid = np.concatenate([edges, np.random.default_rng(7).uniform(-3.0, 3.0, 2000)])
    with mp.workdps(50):
        for w in grid.tolist():
            gap = mp.mpf(w) ** 2 - 1
            ref = mp.sign(w) / mp.sqrt(gap) if gap > 0 else mp.mpc(0, -1 / mp.sqrt(-gap))
            assert abs(g1_closed_form(w) - complex(ref)) <= 1e-15 * abs(ref)
            if gap < 0:
                a1 = oracles._a1(np.array([w]))[0]
                assert abs(a1 - 1 / (mp.pi * mp.sqrt(-gap))) <= 1e-15 * a1


def test_g1_closed_form_values():
    assert g1_closed_form(0.0) == -1j
    assert g1_closed_form(0.6) == pytest.approx(-1.25j)
    assert g1_closed_form(2.0) == pytest.approx(1.0 / math.sqrt(3.0))
    assert g1_closed_form(-2.0) == pytest.approx(-1.0 / math.sqrt(3.0))
    with pytest.raises(DomainError):
        g1_closed_form(1.0)


def test_dos_normalization_all_dimensions():
    for d in (1, 2):
        assert abs(dos_normalization(d, FAST) - 1.0) < 1e-6
    for d in (3, 4, 7):
        assert abs(dos_normalization(d, FAST) - 1.0) < 1e-8


def test_dos_moments_match_exact():
    assert dos_moment(3, 1, FAST) == pytest.approx(1.5, abs=1e-6)
    assert dos_moment(2, 1, FAST) == pytest.approx(1.0, abs=1e-6)
    assert dos_moment(1, 1, FAST) == pytest.approx(0.5, abs=1e-6)


def test_convolution_of_two_chains():
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-12, max_levels=11)
    for w in (0.5, 1.3):
        assert dos_convolution(1, 1, w, cfg) == pytest.approx(
            dos(2, w), abs=1e-7
        )


def test_convolution_chain_plus_square():
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-12, max_levels=11)
    assert dos_convolution(1, 2, 0.5, cfg) == pytest.approx(
        dos(3, 0.5), abs=1e-8
    )


def test_convolution_outside_band_is_zero():
    assert dos_convolution(1, 2, 4.5) == 0.0


def test_convolution_argument_order():
    cfg = QuadratureConfig(rel_tol=1e-10, abs_tol=1e-12, max_levels=11)
    a = dos_convolution(1, 2, 0.5, cfg)
    b = dos_convolution(2, 1, 0.5, cfg)
    assert a == pytest.approx(b, abs=1e-9)


def test_bz_bruteforce_chain():
    val = bz_bruteforce(1, 3.0, 1e-3, 4096)
    assert val.real == pytest.approx(1.0 / math.sqrt(8.0), abs=1e-3)
    assert abs(val.imag) < 1e-3


def test_bz_bruteforce_matches_broadened_spectral_form():
    got = bz_bruteforce(3, 0.0, 0.05, 128)
    ref = lorentz_broadened(3, 0.0, 0.05, FAST)
    assert abs(got - ref) < 1e-4


def test_bz_bruteforce_square():
    got = bz_bruteforce(2, 0.8, 0.05, 256)
    ref = lorentz_broadened(2, 0.8, 0.05, FAST)
    assert abs(got - ref) < 1e-3


def test_bz_domain_errors():
    with pytest.raises(DomainError):
        bz_bruteforce(4, 0.0, 0.1, 128)
    with pytest.raises(DomainError):
        bz_bruteforce(2, 0.0, 0.1, 32)
    with pytest.raises(DomainError):
        bz_bruteforce(2, 0.0, -0.1, 128)


def test_bessel_j_fourier_golden():
    val = bessel_j_fourier(3, 0.0, 1.2e6, 2_000_000)
    assert abs(val - complex(0.0, G3_ZERO_IMAG)) < 1e-3


def test_bessel_j_fourier_returns_a_python_complex():
    # as every other oracle does, not a numpy complex128
    assert type(bessel_j_fourier(3, 0.0, 1.2e4, 1000, tol=1.0)) is complex


def test_bessel_j_fourier_guards():
    with pytest.raises(TruncationTooCoarseError):
        bessel_j_fourier(2, 0.0, 1e6, 1_000_000)
    with pytest.raises(TruncationTooCoarseError):
        bessel_j_fourier(3, 0.0, 100.0, 10_000)


def test_moment_domain_errors():
    with pytest.raises(DomainError):
        moments(0, 3)
    with pytest.raises(DomainError):
        moments(3, 500)
    # d is checked by the rule of every other entry point, and kmax is a
    # non-bool integer the same way
    for d, kmax in ((2.5, 3), (3, 2.5), (True, 2), (3, True), ("3", 2), (3, None)):
        with pytest.raises(DomainError):
            moments(d, kmax)
    assert moments(np.int64(3), np.int64(2)) == moments(3, 2)


@pytest.mark.parametrize("d1, d2", [(0, 2), (1, -1), (1.0, 2), (True, 2), (1, True)])
def test_dos_convolution_checks_dimensions(d1, d2):
    with pytest.raises(DomainError):
        dos_convolution(d1, d2, 0.5)


_BAD_INPUTS = {
    "normalization-bool": (dos_normalization, (True,)),
    "normalization-zero": (dos_normalization, (0,)),
    "normalization-float": (dos_normalization, (2.0,)),
    "moment-bool": (dos_moment, (True, 1)),
    "moment-negative-k": (dos_moment, (3, -1)),
    "moment-float-k": (dos_moment, (3, 1.5)),
    "moment-bool-k": (dos_moment, (3, True)),
    "lorentz-zero": (lorentz_broadened, (0, 0.5, 0.1)),
    "lorentz-zero-eta": (lorentz_broadened, (3, 0.5, 0.0)),
    "lorentz-negative-eta": (lorentz_broadened, (3, 0.5, -0.1)),
    "lorentz-inf-eta": (lorentz_broadened, (3, 0.5, math.inf)),
    "laurent-bound-inside-band": (laurent_truncation_bound, (3, 2.0, 5)),
    "laurent-bound-band-edge": (laurent_truncation_bound, (3, -3.0, 5)),
    "bz-bool": (bz_bruteforce, (True, 3.0, 1e-3, 128)),
    "bz-float": (bz_bruteforce, (2.0, 0.3, 0.1, 128)),
    "bz-float-n": (bz_bruteforce, (2, 0.3, 0.1, 128.0)),
    "bz-bool-n": (bz_bruteforce, (2, 0.3, 0.1, True)),
    "fourier-float": (bessel_j_fourier, (3.5, 0.0, 1e4, 20000, 1.0)),
    "fourier-bool": (bessel_j_fourier, (True, 0.0, 1e4, 20000, 1.0)),
    "fourier-float-n": (bessel_j_fourier, (3, 0.0, 1.2e5, 200000.5, 1.0)),
    "fourier-bool-n": (bessel_j_fourier, (3, 0.0, 1.2e5, True, 1.0)),
    "fourier-negative-tmax": (bessel_j_fourier, (3, 0.0, -1.0, 20000, 1.0)),
    "fourier-inf-tmax": (bessel_j_fourier, (3, 0.0, math.inf, 20000, 1.0)),
    "fourier-nan-tmax": (bessel_j_fourier, (3, 0.0, math.nan, 20000, 1.0)),
    "laurent-inf-omega": (laurent_green, (3, math.inf, 10)),
    "laurent-minus-inf-omega": (laurent_green, (3, -math.inf, 10)),
    "laurent-bound-inf-omega": (laurent_truncation_bound, (3, math.inf, 10)),
    "bz-nan-omega": (bz_bruteforce, (1, math.nan, 0.1, 64)),
    "lorentz-nan-omega": (lorentz_broadened, (1, math.nan, 0.1)),
    "g1-nan-omega": (g1_closed_form, (math.nan,)),
    "fourier-nan-omega": (bessel_j_fourier, (3, math.nan, 1.2e6, 1000)),
    "fourier-nan-tol": (bessel_j_fourier, (3, 0.0, 10.0, 100, math.nan)),
    "bz-bool-eta": (bz_bruteforce, (1, 0.3, True, 64)),
    "fourier-bool-tmax": (bessel_j_fourier, (3, 0.0, True, 10, 10.0)),
    "bz-str-eta": (bz_bruteforce, (1, 0.3, "0.1", 64)),
    "lorentz-str-eta": (lorentz_broadened, (1, 0.3, "0.1")),
    "laurent-str-omega": (laurent_green, (3, "7", 10)),
    "convolution-str-omega": (dos_convolution, (1, 2, "0.5")),
    "g1-huge-omega": (g1_closed_form, (10**400,)),
    "bz-huge-omega": (bz_bruteforce, (1, 10**400, 0.1, 64)),
    "laurent-huge-omega": (laurent_green, (3, 10**400, 10)),
    "g1-unprintable-omega": (g1_closed_form, (10**5000,)),
    "bz-unprintable-d": (bz_bruteforce, (10**5000, 0.3, 0.1, 64)),
}


@pytest.mark.parametrize("oracle, args", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_every_oracle_checks_its_dimension(oracle, args):
    # one input rule, errors.check_integer and errors.check_real, for d and
    # every other argument: a DomainError out of its domain rather than a
    # TypeError or a wrong number (a NaN omega or tol, a bool eta or tmax)
    with pytest.raises(DomainError):
        oracle(*args)


def test_oracles_take_numpy_integers():
    assert dos_normalization(np.int64(3), FAST) == dos_normalization(3, FAST)
    assert bz_bruteforce(np.int64(1), 3.0, 1e-3, np.int64(128)) == bz_bruteforce(1, 3.0, 1e-3, 128)


@pytest.mark.parametrize("d1, d2, w", [
    (3, 3, 0.0), (3, 3, 1.0), (3, 3, 2.9), (4, 4, 0.0), (4, 4, 3.3), (3, 4, 0.5),
])
def test_doubling_keeps_no_margin_at_regular_frequencies(d1, d2, w):
    # for d >= 3 both factors are finite at every breakpoint, so the band
    # integral reaches the evaluator's own accuracy
    assert abs(dos_convolution(d1, d2, w) - dos(d1 + d2, w)) <= 1e-13


@pytest.mark.parametrize("d1, d2, w", [(2, 2, 3.7), (2, 3, 1.1)])
def test_doubling_keeps_margins_at_singular_frequencies(d1, d2, w):
    assert abs(dos_convolution(d1, d2, w) - dos(d1 + d2, w)) <= 1e-13


@pytest.mark.parametrize("w", [0.0, 1e-10])
def test_doubling_with_cuts_closer_than_a_margin(w):
    # at 0 the cuts of one d = 2 factor fall on the other's singular
    # frequencies; at 1e-10 they sit beside them, outside the clearances of
    # a few ulps, so the subinterval between them is integrated
    assert abs(dos_convolution(2, 2, w) - dos(4, w)) <= 1e-12


@pytest.mark.parametrize("w", [1e-13, 3e-13, 5e-13, 1e-12])
def test_doubling_with_cuts_inside_the_clearance(w):
    # each cut of one d = 2 factor lies 1e-13 to 1e-12 from a singular
    # frequency of the other, each end keeping its ulp clearance from both,
    # and no cut is hidden by merging it into the breakpoint beside it
    assert abs(dos_convolution(2, 2, w) - dos(4, w)) <= 1e-12


@pytest.mark.parametrize("d1, d2, w", [
    (2, 3, 1 + 1e-13), (2, 3, 1 - 1e-13), (3, 2, 1 + 1e-13), (2, 4, 2 + 1e-13),
])
def test_regular_cut_clears_the_singular_frequency_beside_it(d1, d2, w):
    # a cut of the d >= 3 factor needs no clearance of its own, but as an end
    # it sits 1e-13 from a singular frequency of the d = 2 factor, and must
    # keep that frequency's clearance
    assert abs(dos_convolution(d1, d2, w) - dos(d1 + d2, w)) <= 1e-13


@pytest.mark.parametrize("w", [4e-13, 1e-10, 1e-8])
def test_chain_plus_square_near_the_band_edge(w):
    # the cut at x = 1 - w is a singular frequency of the d = 2 factor; its
    # clearance is kept in x, so no node falls on the divergence
    got = dos_convolution(1, 2, 1.0 - w)
    assert math.isfinite(got)
    if w >= 1e-10:
        assert abs(got - dos(3, 1.0 - w)) <= 1e-7


def test_two_chains_at_small_frequency():
    # the two inverse-square-root cuts are 2e-6 apart; the closed form keeps
    # a clearance of a few ulps from each
    assert dos_convolution(1, 1, 1e-6) == pytest.approx(dos(2, 1e-6), rel=1e-5)


def test_square_band_integrals_reach_the_clearance():
    # the d = 2 band integral omits only an ulp clearance at each van Hove
    # frequency
    assert abs(dos_normalization(2) - 1.0) <= 1e-13
    assert abs(dos_moment(2, 1) - 1.0) <= 1e-13


@pytest.mark.parametrize("w", [0.3, 1.7, -0.9, 0.0])
def test_lorentz_broadened_square_against_converged_brute_force(w):
    # 1,000 points per axis converge the d = 2 brute force to about 2e-16
    ref = bz_bruteforce(2, w, 0.05, 1000)
    assert abs(lorentz_broadened(2, w, 0.05) - ref) <= 1e-10


@pytest.mark.parametrize("w", [0.3, 1.7, -0.9])
def test_lorentz_broadened_chain_against_converged_brute_force(w):
    # the d = 1 band integral runs in x = sin(theta), so the
    # inverse-square-root edges cost only their ulp clearance in x, which
    # omits about 2 sqrt(2 c)/pi = 2.7e-8 of weight at c = 4 eps
    ref = bz_bruteforce(1, w, 0.05, 200_000)
    assert abs(lorentz_broadened(1, w, 0.05) - ref) <= 5e-7
