"""Assembly and evaluation tests for the Bessel-product integrand."""
import math

import mpmath as mp
import numpy as np
import pytest

from latgreen.bessel import bessel_i0, bessel_k0
from latgreen.coefficients import coefficient_table
from latgreen.errors import DomainError
from latgreen.integrand import (
    LOG_SPACE_POWER,
    TailKind,
    VAN_HOVE_SNAP_TOL,
    bessel_table,
    build_integrand,
    eval_integrand,
    eval_terms,
    tail_class,
    term_exponents,
    term_table,
)
from latgreen.quadrature import half_line_nodes


def _mpmath_reference(d, omega, tau, dps=50):
    """Recompute the assembled integrand with mpmath Bessel functions and
    exact complex coefficient arithmetic; independent of the scaled-pair
    evaluation path."""
    with mp.workdps(dps):
        tau_mp = mp.mpf(tau)
        K = 2 / mp.pi * mp.besselk(0, tau_mp)
        I = 2 * mp.besseli(0, tau_mp)
        table = coefficient_table(d, build_integrand(d, omega).j)
        total = mp.mpc(0)
        for m, coeff in enumerate(table.c):
            total += (
                mp.mpc(coeff.complex_value)
                * K ** (d - m) * I**m * mp.e ** (-mp.mpf(omega) * tau_mp)
            )
        for m, coeff in enumerate(table.dcoef):
            total -= (
                mp.mpc(coeff.complex_value)
                * K ** (d - m) * I**m * mp.e ** (mp.mpf(omega) * tau_mp)
            )
        total /= mp.mpf(2) ** d
        return complex(total)


def _l1_scale(d, omega, tau):
    # magnitude scale of the individual terms, bounding achievable accuracy
    spec = build_integrand(d, omega)
    K = 2.0 / math.pi * bessel_k0(tau)
    I = 2.0 * bessel_i0(tau)
    return sum(
        abs(t.coeff.magnitude) * K ** (d - t.m) * I**t.m
        * math.exp(-t.sign * omega * tau)
        for t in spec.terms
    ) / 2.0**d


@pytest.mark.parametrize(
    "d,omega",
    [(1, 0.3), (2, -1.2), (3, 0.0), (3, 2.0), (4, 3.7), (5, -4.9), (7, 6.5)],
)
def test_against_mpmath(d, omega):
    for tau in (0.01, 0.3, 1.0, 2.5, 6.0):
        got = eval_integrand(build_integrand(d, omega), tau)
        ref = _mpmath_reference(d, omega, tau)
        scale = max(abs(ref), _l1_scale(d, omega, tau))
        assert abs(got - ref) <= 5e-14 * scale


def test_log_space_path_matches_mpmath():
    # around and above the order-30 switch to log-space accumulation
    for d in (29, 30, 31, 40):
        for tau in (0.5, 2.0, 8.0):
            got = eval_integrand(build_integrand(d, 0.25), tau)
            ref = _mpmath_reference(d, 0.25, tau, dps=80)
            assert abs(got - ref) <= 1e-12 * _l1_scale(d, 0.25, tau)


def test_cubic_band_centre_reduction():
    # at d=3, omega=0 the sum collapses to -(i/2) K(tau)^3
    for tau in (0.05, 0.4, 1.3, 5.0):
        K = 2.0 / math.pi * bessel_k0(tau)
        got = eval_integrand(build_integrand(3, 0.0), tau)
        assert got == pytest.approx(-0.5j * K**3, rel=1e-14)


def test_chain_band_centre_reduction():
    for tau in (0.1, 1.0, 3.0):
        K = 2.0 / math.pi * bessel_k0(tau)
        got = eval_integrand(build_integrand(1, 0.0), tau)
        assert got == pytest.approx(-1j * K, rel=1e-14)


def test_exponent_bookkeeping():
    spec = build_integrand(4, 1.3)
    for t in spec.terms:
        expected = 2 * t.m - 4 - 1.3 if t.sign == 1 else 2 * t.m - 4 + 1.3
        assert t.exponent == expected
        assert t.exponent < 0.0
    assert spec.j == 2
    assert len(spec.terms) == 5


def test_van_hove_snapping():
    spec = build_integrand(3, 1.0 + 5e-14)
    assert any(t.exponent == 0.0 for t in spec.terms)
    spec = build_integrand(3, 1.0 + 1e-9)
    assert all(t.exponent != 0.0 for t in spec.terms)
    assert VAN_HOVE_SNAP_TOL == 1e-13


def test_tail_classification():
    assert tail_class(build_integrand(3, 0.5)).kind is TailKind.EXPONENTIAL
    assert tail_class(build_integrand(3, 0.5)).parameter == pytest.approx(0.5)
    # omega = 0 is a van Hove frequency only for even d
    assert tail_class(build_integrand(3, 0.0)).kind is TailKind.EXPONENTIAL
    assert tail_class(build_integrand(3, 0.0)).parameter == pytest.approx(1.0)
    assert tail_class(build_integrand(3, 1.0)).kind is TailKind.POWER_LAW
    assert tail_class(build_integrand(3, 1.0)).parameter == -1.5
    assert tail_class(build_integrand(4, 0.0)).kind is TailKind.POWER_LAW
    assert tail_class(build_integrand(4, 0.0)).parameter == -2.0
    assert tail_class(build_integrand(5, 3.0)).kind is TailKind.POWER_LAW
    assert tail_class(build_integrand(5, 3.0)).parameter == -2.5
    assert tail_class(build_integrand(1, 1.0)).kind is TailKind.DIVERGENT
    assert tail_class(build_integrand(2, 0.0)).kind is TailKind.DIVERGENT
    assert tail_class(build_integrand(2, 2.0)).kind is TailKind.DIVERGENT
    # outside the band the slowest decay rate is the distance past the edge
    tc = tail_class(build_integrand(4, 10.0))
    assert tc.kind is TailKind.EXPONENTIAL
    assert tc.parameter == pytest.approx(6.0)


def test_vectorized_eval_matches_scalar():
    spec = build_integrand(4, 0.7)
    taus = np.array([0.02, 0.5, 1.5, 9.0])
    vec = eval_integrand(spec, taus)
    assert vec.shape == taus.shape
    for t, v in zip(taus, vec):
        assert eval_integrand(spec, float(t)) == v


def test_large_tau_underflow_is_clean():
    spec = build_integrand(3, 0.5)
    val = eval_integrand(spec, 5000.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_domain_errors():
    with pytest.raises(DomainError):
        build_integrand(3, math.inf)
    with pytest.raises(DomainError):
        build_integrand(3, math.nan)
    with pytest.raises(DomainError):
        build_integrand(0, 1.0)


def test_log_space_threshold_constant():
    assert LOG_SPACE_POWER == 30


def _per_piece_reference(specs, table):
    """The frequencies of one piece as a block, term by term from their
    ``TermSpec``s: the piece-at-a-time evaluator that ``eval_terms``
    replaced, kept as the bitwise reference for it."""
    spec, d, tau = specs[0], specs[0].d, table.tau
    exponents = np.array([[t.exponent for t in s.terms] for s in specs])
    re = np.zeros((len(specs), tau.size))
    im = np.zeros_like(re)
    factors = {}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        qtau = exponents.T[:, :, None] * tau
        for t, q in zip(spec.terms, qtau):
            pk, pi_ = d - t.m, t.m
            log_space = max(pk, pi_) >= LOG_SPACE_POWER
            f = factors.get(t.m)
            if f is None:
                if log_space:
                    f = pk * table.log_kbar + pi_ * table.log_ibar
                else:
                    f = table.kbar**pk * table.ibar**pi_
                factors[t.m] = f
            mag = np.exp(f + q) if log_space else f * np.exp(q)
            w = t.sign * t.coeff.magnitude
            phase = t.coeff.phase
            if phase == 0:
                re += w * mag
            elif phase == 1:
                im += w * mag
            elif phase == 2:
                re -= w * mag
            else:
                im -= w * mag
        return (re + 1j * im) * 0.5**d


@pytest.mark.parametrize("d", [4, 40])
def test_mixed_block_is_bitwise_per_piece(d):
    # one block of rows from five pieces (outside the band on both sides
    # among them), against each piece evaluated on its own; at d = 40 the
    # block mixes direct and log-space terms, and on the level-8 nodes its
    # terms run in groups
    omegas = np.sort(np.concatenate([
        [-d - 0.7, -d + 0.3, -d + 1.2, d - 0.5, d + 1.5],
        np.linspace(-d + 2.1, d - 2.1, 7),
    ]))
    specs = [build_integrand(d, w) for w in omegas]
    js = np.array([s.j for s in specs])
    assert len(set(js)) >= 5 and np.all(np.diff(js) >= 0)
    weights = np.array([term_table(d, j).weight for j in js.tolist()])
    for tau in (half_line_nodes(4, False), half_line_nodes(4, True),
                half_line_nodes(8, True)):
        table = bessel_table(tau)
        got = eval_terms(d, js, term_exponents(d, omegas), table, weights)
        for j in set(js.tolist()):
            rows = np.flatnonzero(js == j)
            ref = _per_piece_reference([specs[r] for r in rows], table)
            assert got[rows].tobytes() == ref.tobytes()


def test_term_table_matches_coefficients():
    # weight times the slot's part reproduces sign * coefficient exactly
    # (as floats), for every piece, both families and every phase, zero
    # coefficients included; the order is the spec's term order without
    # the terms whose coefficient is zero
    for d in (1, 2, 5, 40):
        for j in range(-1, d + 1):
            table = term_table(d, j)
            spec = build_integrand(d, min(max(2 * j - d + 1.0, -d - 1.0), d + 1.0))
            assert spec.j == j
            slots = [d - t.m if t.sign > 0 else d + 1 + t.m for t in spec.terms]
            assert table.order == tuple(k for t, k in zip(spec.terms, slots)
                                        if t.coeff.magnitude != 0)
            for t, k in zip(spec.terms, slots):
                m, weight, imag, log_space = table.slots[k]
                want = t.sign * t.coeff.complex_value
                assert (complex(0.0, weight) if imag else weight) == want
                assert m == t.m and log_space == (max(d - m, m) >= LOG_SPACE_POWER)
            assert all(table.weight[k] == 0.0 for k in set(range(2 * d + 2)) - set(slots))
