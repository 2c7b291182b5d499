"""Accuracy, seam and monotonicity tests for the scaled K0/I0 pair."""
import math

import numpy as np
import pytest

from latgreen import quadrature
from latgreen.bessel import hankel_pair, i0e, j0m1, k0e
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


def _hankel_reference(z):
    # h1e = (2/(pi i)) e^{-iz} K0(-iz) and h2e = -(2/(pi i)) e^{iz} K0(iz)
    # (DLMF 10.27.8) at 40 digits
    import mpmath as mp

    with mp.workdps(40):
        z = mp.mpc(z.real, z.imag)
        scale = 2 / (mp.pi * 1j)
        return (complex(scale * mp.exp(-1j * z) * mp.besselk(0, -1j * z)),
                complex(-scale * mp.exp(1j * z) * mp.besselk(0, 1j * z)))


@pytest.mark.parametrize("t0", [2.5, 3.0, 4.0])
def test_hankel_pair_against_mpmath(t0):
    # on the ray t0 + i tau: the trapezoid's range, both sides of its seam
    # with the asymptotic expansion at |z| = 1e4, and the largest ray node
    # of any level
    largest = max(quadrature.half_line_nodes(level)[-1]
                  for level in (0, *range(3, quadrature._MAX_LEVELS + 1)))
    tau = np.concatenate([[0.0, 1e-300, 1e-8, 0.3, 1.0, 2.9, 7.0, 34.5, 300.0],
                          np.sqrt(1e8 - t0**2) * np.array([1 - 1e-12, 1.0, 1 + 1e-12]),
                          [1.2e4, 1e8, 1e15, 1e100, largest]])
    h1e, h2e = hankel_pair(t0 + 1j * tau)
    for z, got in zip(t0 + 1j * tau, zip(h1e, h2e)):
        for g, ref in zip(got, _hankel_reference(z)):
            assert abs(g - ref) <= 4 * EPS * abs(ref)


def test_hankel_pair_conjugate_symmetry():
    # on the real axis H0^(2) = conj H0^(1), so h2e = conj h1e, bit for bit
    x = np.array([2.5, 3.0, 4.0, 17.0, 1e4, 1e300])
    h1e, h2e = hankel_pair(x)
    assert h2e.tobytes() == np.conj(h1e).tobytes()


def test_j0m1_against_mpmath():
    # J0 - 1 relative to itself on [0, 4], tiny t and the zero of J0 included
    import mpmath as mp

    t = np.concatenate([[0.0, 1e-200, 1e-8], np.linspace(0.01, 4.0, 400), [2.404825557695773]])
    got = j0m1(t)
    with mp.workdps(40):
        for x, g in zip(t, got):
            ref = mp.besselj(0, mp.mpf(x)) - 1
            assert abs(g - ref) <= 4 * EPS * abs(ref)
