"""Accuracy, seam and monotonicity tests for the scaled K0/I0 pair."""
import math

import numpy as np
import pytest

from latgreen.bessel import i0e, k0e
from latgreen.integrand import bessel_table

from reference_values import BESSEL_REFERENCE, i0_series_hp, k0_series_hp

EPS = np.finfo(float).eps


def _ref_pairs():
    return [
        (float(s), float(k0_str), float(i0_str))
        for s, (k0_str, i0_str) in BESSEL_REFERENCE.items()
    ]


@pytest.mark.parametrize("tau,k0_ref,i0_ref", _ref_pairs())
def test_unscaled_against_reference(tau, k0_ref, i0_ref):
    # K0 and I0 unscaled from the pair, as the formula's products use them
    taus = np.array([tau])
    assert abs(math.exp(-tau) * k0e(taus)[0] - k0_ref) <= 4 * EPS * abs(k0_ref)
    assert abs(math.exp(tau) * i0e(taus)[0] - i0_ref) <= 4 * EPS * abs(i0_ref)


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
    pair = bessel_table(taus)
    kv, iv = pair.kbar * np.sqrt(taus), pair.ibar * np.sqrt(taus)
    assert np.all(np.diff(kv) > 0) and np.all(kv < limit)
    assert np.all(np.diff(iv) < 0) and np.all(iv > limit)
    assert abs(kv[-1] - limit) < 1e-5 and abs(iv[-1] - limit) < 1e-5


def test_k0_i0_product_decreasing():
    # K0*I0 = k0e*i0e: the exponential scalings cancel
    taus = np.logspace(-6, 2.5, 120)
    prod = k0e(taus) * i0e(taus)
    assert np.all(np.diff(prod) < 0)


def test_vectorized_matches_scalar():
    taus = np.array([1e-5, 0.3, 1.0, 2.5, 7.75, 9.0, 40.0])
    np.testing.assert_array_equal(k0e(taus), [float(k0e(t)) for t in taus])
    np.testing.assert_array_equal(i0e(taus), [float(i0e(t)) for t in taus])


def test_bessel_scaled_fields():
    pair = bessel_table(np.array([2.0]))
    assert pair.tau.tolist() == [2.0]
    assert pair.kbar[0] == pytest.approx(
        (2.0 / math.pi) * math.exp(2.0) * float(BESSEL_REFERENCE["2.0"][0]), rel=1e-14
    )
    assert pair.ibar[0] == pytest.approx(
        2.0 * math.exp(-2.0) * float(BESSEL_REFERENCE["2.0"][1]), rel=1e-14
    )


def test_i0_at_zero():
    assert i0e(np.array([0.0])).tolist() == [1.0]
    assert i0e(np.array([0])).tolist() == [1.0]


def test_scaled_pair_stays_finite():
    # K0(800) underflows and I0(1e8) overflows a double; their scaled
    # forms stay positive and finite
    pair = bessel_table(np.array([800.0, 1e8]))
    assert np.all(np.isfinite(pair.kbar)) and np.all(pair.kbar > 0.0)
    assert np.all(np.isfinite(pair.ibar)) and np.all(pair.ibar > 0.0)
