"""Accuracy, seam, monotonicity, and domain tests for the K0/I0 evaluators."""
import math

import numpy as np
import pytest

from latgreen.bessel import (
    I0_OVERFLOW_TAU,
    bessel_i0,
    bessel_k0,
    bessel_scaled,
    i0e,
    k0e,
)
from latgreen.errors import BesselOverflowError, DomainError

from reference_values import BESSEL_REFERENCE, i0_series_hp, k0_series_hp

EPS = np.finfo(float).eps


def _ref_pairs():
    return [
        (float(s), float(k0_str), float(i0_str))
        for s, (k0_str, i0_str) in BESSEL_REFERENCE.items()
    ]


@pytest.mark.parametrize("tau,k0_ref,i0_ref", _ref_pairs())
def test_unscaled_against_reference(tau, k0_ref, i0_ref):
    assert abs(bessel_k0(tau) - k0_ref) <= 4 * EPS * abs(k0_ref)
    assert abs(bessel_i0(tau) - i0_ref) <= 4 * EPS * abs(i0_ref)


@pytest.mark.parametrize("tau,k0_ref,i0_ref", _ref_pairs())
def test_scaled_against_reference(tau, k0_ref, i0_ref):
    # scaled references via exp in double precision: allow a bit more slack
    k0e_ref = math.exp(tau) * k0_ref if tau < 500 else None
    if k0e_ref is not None:
        assert abs(k0e(tau) - k0e_ref) <= 8 * EPS * k0e_ref
    i0e_ref = math.exp(-tau) * i0_ref
    assert abs(i0e(tau) - i0e_ref) <= 8 * EPS * i0e_ref


def test_reference_table_self_consistent():
    # the frozen strings reproduce from the independent series oracles
    import mpmath as mp

    with mp.workdps(40):
        for s, (k0_str, i0_str) in BESSEL_REFERENCE.items():
            tau = mp.mpf(s)
            if tau <= 16:
                assert abs(i0_series_hp(tau) / mp.mpf(i0_str) - 1) < mp.mpf("1e-24")
            if tau <= 4:
                assert abs(k0_series_hp(tau) / mp.mpf(k0_str) - 1) < mp.mpf("1e-24")


def _ulp_diff(a: float, b: float) -> float:
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


def test_k0_branch_seam():
    # series and Chebyshev branches agree to 2 ulp across their crossover
    lo = np.nextafter(1.0, 0.0)
    hi = np.nextafter(1.0, 2.0)
    assert _ulp_diff(float(k0e(lo)), float(k0e(hi))) <= 2.0


def test_i0_branch_seam():
    lo = np.nextafter(7.75, 0.0)
    hi = np.nextafter(7.75, 8.0)
    assert _ulp_diff(float(i0e(lo)), float(i0e(hi))) <= 2.0


def test_scaled_asymptote_monotone():
    # kbar*sqrt(tau) rises to sqrt(2/pi) while ibar*sqrt(tau) falls to it,
    # matching the leading -/+ 1/(8 tau) asymptotic corrections
    taus = np.logspace(1, 5, 40)
    limit = math.sqrt(2.0 / math.pi)
    kv = np.array([bessel_scaled(float(t)).kbar for t in taus]) * np.sqrt(taus)
    iv = np.array([bessel_scaled(float(t)).ibar for t in taus]) * np.sqrt(taus)
    assert np.all(np.diff(kv) > 0) and np.all(kv < limit)
    assert np.all(np.diff(iv) < 0) and np.all(iv > limit)
    assert abs(kv[-1] - limit) < 1e-5 and abs(iv[-1] - limit) < 1e-5


def test_k0_i0_product_decreasing():
    taus = np.logspace(-6, 2.5, 120)
    prod = np.array([bessel_k0(float(t)) * bessel_i0(float(t)) for t in taus])
    assert np.all(np.diff(prod) < 0)


def test_scaled_unscaled_consistency():
    for tau in np.logspace(-8, math.log10(690.0), 60):
        tau = float(tau)
        assert bessel_k0(tau) == pytest.approx(
            math.exp(-tau) * float(k0e(tau)), rel=4 * EPS, abs=5e-324
        )
        if tau <= I0_OVERFLOW_TAU:
            assert bessel_i0(tau) == pytest.approx(
                math.exp(tau) * float(i0e(tau)), rel=8 * EPS
            )


def test_vectorized_matches_scalar():
    taus = np.array([1e-5, 0.3, 1.0, 2.5, 7.75, 9.0, 40.0])
    np.testing.assert_array_equal(k0e(taus), [float(k0e(t)) for t in taus])
    np.testing.assert_array_equal(i0e(taus), [float(i0e(t)) for t in taus])


def test_bessel_scaled_fields():
    pair = bessel_scaled(2.0)
    assert pair.tau == 2.0
    assert pair.kbar == pytest.approx(
        (2.0 / math.pi) * math.exp(2.0) * float(BESSEL_REFERENCE["2.0"][0]), rel=1e-14
    )
    assert pair.ibar == pytest.approx(
        2.0 * math.exp(-2.0) * float(BESSEL_REFERENCE["2.0"][1]), rel=1e-14
    )


def test_i0_at_zero():
    assert bessel_i0(0.0) == 1.0
    assert bessel_i0(0) == 1.0


def test_k0_graceful_underflow():
    assert bessel_k0(800.0) == 0.0


def test_domain_errors():
    for bad in (-1.0, math.nan, math.inf, "2.0", None):
        with pytest.raises(DomainError):
            bessel_k0(bad)
        with pytest.raises(DomainError):
            bessel_i0(bad)
        with pytest.raises(DomainError):
            bessel_scaled(bad)
    with pytest.raises(DomainError):
        bessel_k0(0.0)
    for bad in (True, False, np.float64(-1.0), np.float32(np.nan)):
        with pytest.raises(DomainError):
            bessel_k0(bad)


def test_numpy_scalars_are_real_numbers():
    # any real scalar but a bool is a tau, and evaluates as the float it equals
    for tau in (np.float32(1.0), np.float64(2.5), np.int64(1), np.int32(3)):
        assert bessel_k0(tau) == bessel_k0(float(tau))
        assert bessel_i0(tau) == bessel_i0(float(tau))
        assert bessel_scaled(tau) == bessel_scaled(float(tau))
    assert bessel_i0(np.int64(0)) == 1.0


def test_i0_overflow_raises():
    with pytest.raises(BesselOverflowError):
        bessel_i0(I0_OVERFLOW_TAU + 1.0)
    # scaled form never overflows
    assert math.isfinite(bessel_scaled(1e8).ibar)
