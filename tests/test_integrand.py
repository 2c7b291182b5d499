"""Assembly and evaluation tests for the Bessel-product integrand."""
import math

import mpmath as mp
import numpy as np
import pytest

from latgreen.bessel import bessel_i0, bessel_k0
from latgreen.coefficients import coefficient_table, staircase_js
from latgreen.errors import DomainError
from latgreen.integrand import (
    TailKind,
    VAN_HOVE_SNAP_TOL,
    bessel_table,
    build_integrand,
    eval_integrand,
    eval_terms,
    tail_class,
    term_exponents,
    term_weights,
)
from latgreen.quadrature import half_line_nodes


def _mpmath_reference_and_scale(d, omega, tau, dps=50):
    """Recompute the assembled integrand with mpmath Bessel functions and
    the exact weights of ``coefficient_table``, independent of the
    scaled-pair evaluation path, and the L1 sum of its terms (see
    ``_l1_scale``)."""
    with mp.workdps(dps):
        tau_mp = mp.mpf(tau)
        K = 2 / mp.pi * mp.besselk(0, tau_mp)
        I = 2 * mp.besseli(0, tau_mp)
        w = coefficient_table(d, build_integrand(d, omega).j)
        terms = []
        for k, (m, sign) in enumerate(_slots(d)):
            coeff = mp.mpc(0, w[k]) if (d + m) % 2 else mp.mpc(w[k])
            terms.append(coeff * K ** (d - m) * I**m * mp.e ** (-sign * mp.mpf(omega) * tau_mp))
        scale = mp.mpf(2) ** -d
        return complex(mp.fsum(terms) * scale), float(mp.fsum(map(abs, terms)) * scale)


def _slots(d):
    # (m, s) of every slot, whose term weighs e^{-s omega tau}: the C terms
    # m = 0..d (s = 1), then the D terms m = 0..d (s = -1)
    return [(m, 1) for m in range(d + 1)] + [(m, -1) for m in range(d + 1)]


def _mpmath_reference(d, omega, tau, dps=50):
    return _mpmath_reference_and_scale(d, omega, tau, dps)[0]


def _l1_scale(d, omega, tau):
    # magnitude scale of the individual terms, bounding achievable accuracy
    w = coefficient_table(d, build_integrand(d, omega).j)
    K = 2.0 / math.pi * bessel_k0(tau)
    I = 2.0 * bessel_i0(tau)
    return sum(
        abs(w[k]) * K ** (d - m) * I**m * math.exp(-sign * omega * tau)
        for k, (m, sign) in enumerate(_slots(d))
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


def test_large_d_terms_match_mpmath():
    # every term is the plain product kbar^{d-m} ibar^m e^{q tau}, at any d;
    # the L1 scale is formed in mpmath, since _l1_scale overflows at
    # d = 120, tau = 8, and an infinite scale would pass any error
    for d in (29, 30, 31, 40, 80, 120):
        for tau in (0.5, 2.0, 8.0):
            got = eval_integrand(build_integrand(d, 0.25), tau)
            ref, scale = _mpmath_reference_and_scale(d, 0.25, tau, dps=80)
            assert math.isfinite(scale)
            assert abs(got - ref) <= 1e-12 * scale


@pytest.mark.parametrize("d", [*range(1, 9), 12, 20, 40, 80, 120])
def test_every_formed_term_has_a_nonpositive_exponent(d):
    # the premise of plain products: e^{q tau} <= 1 for every term a piece
    # forms, so the exponential never brings an overflowed power back into
    # range, and no other form of the term would stay finite where it fails
    van_hove = np.arange(-d, d + 1, 2.0)
    grid = np.concatenate([
        np.linspace(-d - 3.0, d + 3.0, 8 * d + 9), [-10.0 * d, 10.0 * d],
        (van_hove[:, None] + np.array([0.0, 1e-9, -1e-9])).ravel(),
        np.nextafter(van_hove, math.inf), np.nextafter(van_hove, -math.inf),
    ])
    js = staircase_js(d, grid).tolist()
    assert set(js) == set(range(-1, d + 1))
    for q, j in zip(term_exponents(d, grid), js):
        assert q[np.flatnonzero(term_weights(d, j))].max() <= 0.0


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
    for k, (m, sign) in enumerate(_slots(4)):
        assert spec.exponents[k] == 2 * m - 4 - sign * 1.3
    assert all(spec.exponents[k] < 0.0 for k in spec.terms)
    assert spec.j == 2
    assert len(spec.terms) == 5


def test_van_hove_snapping():
    spec = build_integrand(3, 1.0 + 5e-14)
    assert any(spec.exponents[k] == 0.0 for k in spec.terms)
    spec = build_integrand(3, 1.0 + 1e-9)
    assert all(spec.exponents[k] != 0.0 for k in spec.terms)
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


def _per_piece_reference(specs, table):
    """The frequencies of one piece as a block, term by term from the exact
    weights of their piece: the piece-at-a-time evaluator that
    ``eval_terms`` replaced, kept as the bitwise reference for it.  A term
    with a zero weight adds exactly 0 and is skipped: formed, it would turn
    an overflowed power into 0 * inf = NaN (outside the band at d = 120)."""
    spec, d, tau = specs[0], specs[0].d, table.tau
    exponents = np.array([s.exponents for s in specs])
    re = np.zeros((len(specs), tau.size))
    im = np.zeros_like(re)
    factors = {}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        qtau = exponents.T[:, :, None] * tau
        for (m, _), w, q in zip(_slots(d), coefficient_table(d, spec.j), qtau):
            if w == 0:
                continue
            f = factors.get(m)
            if f is None:
                f = factors[m] = table.kbar**(d - m) * table.ibar**m
            mag = f * np.exp(q)
            if (d + m) % 2:
                im += w * mag
            else:
                re += w * mag
        return (re + 1j * im) * 0.5**d


@pytest.mark.parametrize("d", [4, 40, 120])
def test_mixed_block_is_bitwise_per_piece(d):
    # one block of rows from five pieces (outside the band on both sides
    # among them), against each piece evaluated on its own; at d = 40 the
    # powers reach kbar^40, at d = 120 they leave the double range at the
    # smallest head nodes, and the 49 nodes of the first step are those
    # every column starts with
    omegas = np.sort(np.concatenate([
        [-d - 0.7, -d + 0.3, -d + 1.2, d - 0.5, d + 1.5],
        np.linspace(-d + 2.1, d - 2.1, 7),
    ]))
    specs = [build_integrand(d, w) for w in omegas]
    js = np.array([s.j for s in specs])
    assert len(set(js)) >= 5 and np.all(np.diff(js) >= 0)
    weights = np.array([term_weights(d, j) for j in js.tolist()])
    for tau in (half_line_nodes(0, True), half_line_nodes(4, False),
                half_line_nodes(4, True), half_line_nodes(8, True)):
        table = bessel_table(tau)
        got = eval_terms(d, term_exponents(d, omegas), table, weights)
        for j in set(js.tolist()):
            rows = np.flatnonzero(js == j)
            ref = _per_piece_reference([specs[r] for r in rows], table)
            assert got[rows].tobytes() == ref.tobytes()


def _piece_spec(d, j):
    spec = build_integrand(d, min(max(2 * j - d + 1.0, -d - 1.0), d + 1.0))
    assert spec.j == j
    return spec


def test_term_weights_match_coefficients():
    # the float weight of every slot is the exact weight of coefficient_table,
    # for every piece, both families and both parts, zero weights included,
    # and a spec's terms are the slots with a nonzero weight, in slot order
    for d in (1, 2, 5, 40):
        for j in range(-1, d + 1):
            weights = term_weights(d, j)
            exact = coefficient_table(d, j)
            assert weights.shape == (2 * d + 2,)
            assert weights.tolist() == [float(w) for w in exact]
            spec = _piece_spec(d, j)
            assert spec.weights is weights
            assert spec.terms == tuple(k for k, w in enumerate(exact) if w)


def test_term_weights_are_cached_and_read_only():
    weights = term_weights(5, 2)
    assert term_weights(5, 2) is weights
    assert term_weights.cache_info().maxsize == 1024
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 1.0


def test_term_weights_cache_is_typed():
    # True and a numpy integer equal a cached int, but must still reach the
    # validation of d and j instead of returning that int's weights
    term_weights(1, 0)
    with pytest.raises(DomainError):
        term_weights(True, 0)
    term_weights(3, 1)
    with pytest.raises(DomainError):
        term_weights(3, True)
    with pytest.raises(DomainError):
        term_weights(3, np.int64(1))


def test_weights_beyond_the_double_range_raise_domain_error():
    # the largest weight of d = 652 (piece 217) fits the double range;
    # piece 209 of d = 653 is the first that does not
    assert np.isfinite(term_weights(652, 217)).all()
    assert np.isfinite(term_weights(653, 208)).all()
    with pytest.raises(DomainError, match=r"j = 209 of d = 653 .* d <= 652"):
        term_weights(653, 209)
    # the one weight outside the band is +-1 at any d
    assert term_weights(1000, 1000)[1000] == 1.0
    assert term_weights(1000, -1)[2001] == -1.0
