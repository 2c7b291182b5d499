"""Exactness and structure tests for the piecewise coefficient tables."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latgreen.integrand import admit, coefficient_table
from latgreen.errors import DomainError


def _c_direct(d: int, j: int, m: int) -> complex:
    # reference implementation with explicit complex powers of i
    return sum(
        math.comb(d, n) * math.comb(n, m) * 1j ** ((2 * n - d - m) % 4)
        for n in range(m, j + 1)
    )


def _d_direct(d: int, j: int, m: int) -> complex:
    return sum(
        math.comb(d, n) * math.comb(n, m) * 1j ** ((d + m - 2 * n) % 4)
        for n in range(m, d - j)
    )


def _piece(d: int, omega: float) -> int:
    # the piece of one frequency, as the evaluator admits it
    return int(admit(d, [omega])[2][0])


def _gaussian_direct(d: int, m: int, n_hi: int, exponent) -> tuple[int, int]:
    # exact (re, im) of sum_{n=m}^{n_hi} binom(d,n) binom(n,m) i^exponent(n)
    re = im = 0
    for n in range(m, n_hi + 1):
        term = math.comb(d, n) * math.comb(n, m)
        quarter = exponent(n) % 4
        if quarter == 0:
            re += term
        elif quarter == 1:
            im += term
        elif quarter == 2:
            re -= term
        else:
            im -= term
    return re, im


def _gaussian(d: int, m: int, w: int) -> tuple[int, int]:
    # exact (re, im) of w * i^{(d+m) mod 2}
    return (0, w) if (d + m) % 2 else (w, 0)


def _coefficients(d: int, j: int) -> tuple[list[complex], list[complex]]:
    # C_jm = w i^{(d+m) mod 2} and D_jm = -w i^{(d+m) mod 2}, m = 0..d, as
    # complex numbers (exact while the weights stay below 2^53)
    w = coefficient_table(d, j)
    part = [1j if (d + m) % 2 else 1 for m in range(d + 1)]
    return ([w[m] * p for m, p in enumerate(part)],
            [-w[d + 1 + m] * p for m, p in enumerate(part)])


def test_exact_against_direct_integer_sum():
    # exact integers up to d = 40, where magnitudes exceed 2^53 and the
    # complex-float comparison below cannot be exact; a term the piece lacks
    # is an empty sum, (0, 0)
    for d in range(1, 41):
        for j in range(-1, d + 1):
            w = coefficient_table(d, j)
            assert len(w) == 2 * d + 2
            assert [_gaussian(d, m, w[m]) for m in range(d + 1)] == [
                _gaussian_direct(d, m, j, lambda n: 2 * n - d - m)
                for m in range(d + 1)
            ]
            assert [_gaussian(d, m, -w[d + 1 + m]) for m in range(d + 1)] == [
                _gaussian_direct(d, m, d - j - 1, lambda n: d + m - 2 * n)
                for m in range(d + 1)
            ]


def test_cubic_middle_piece_values():
    assert coefficient_table(3, 1) == (-2, -3, 0, 0, -2, 3, 0, 0)
    c, dcoef = _coefficients(3, 1)
    assert c == [-2j, -3, 0, 0]
    assert dcoef == [2j, -3, 0, 0]


def test_cubic_extreme_pieces():
    c, dcoef = _coefficients(3, 3)
    assert dcoef == [0, 0, 0, 0]
    assert c[3] == 1
    c, dcoef = _coefficients(3, -1)
    assert c == [0, 0, 0, 0]
    assert dcoef[3] == 1


def test_chain_piece():
    c, dcoef = _coefficients(1, 0)
    assert c == [-1j, 0]
    assert dcoef == [1j, 0]


def test_staircase_examples():
    assert _piece(3, 0.0) == 1
    assert _piece(3, -0.5) == 1
    assert _piece(3, 1.0) == 2
    assert _piece(3, -1.0) == 1
    assert _piece(3, -3.0) == 0
    assert _piece(2, 0.0) == 1
    assert _piece(1, 0.0) == 0
    # clamping outside the band
    assert _piece(3, 100.0) == 3
    assert _piece(3, -100.0) == -1
    assert _piece(3, 3.0) == 3
    assert _piece(3, -3.5) == -1


def test_mirror_conjugation():
    # the e^{+omega tau} coefficients of piece j are the conjugates of the
    # e^{-omega tau} coefficients of the mirror piece d-j-1
    for d in range(1, 9):
        for j in range(-1, d + 1):
            dcoef = _coefficients(d, j)[1]
            mirror = _coefficients(d, d - j - 1)[0]
            assert dcoef == [b.conjugate() for b in mirror]


def test_full_piece_completeness():
    # for j = d all binomial weight sits in the C sum:
    # sum_n binom(d,n) binom(n,m) magnitudes reproduce 3^d via the
    # double-binomial identity sum_m sum_n binom(d,n) binom(n,m) = 3^d
    for d in range(1, 10):
        w = coefficient_table(d, d)
        total = sum(
            sum(
                math.comb(d, n) * math.comb(n, m)
                for n in range(m, d + 1)
            )
            for m in range(d + 1)
        )
        assert total == 3**d
        assert len(w) == 2 * d + 2 and not any(w[d + 1:])


@given(st.integers(1, 12), st.data())
def test_against_direct_complex_sum(d, data):
    j = data.draw(st.integers(-1, d))
    c, dcoef = _coefficients(d, j)
    for m in range(d + 1):
        assert c[m] == _c_direct(d, j, m)
        assert dcoef[m] == _d_direct(d, j, m)


@given(st.integers(1, 12), st.floats(-30, 30, allow_nan=False))
def test_staircase_consistent_with_sizes(d, omega):
    # piece j has the C terms m <= j and the D terms m <= d-j-1
    j = _piece(d, omega)
    w = coefficient_table(d, j)
    assert len(w) == 2 * d + 2
    assert not any(w[j + 1:d + 1])
    assert not any(w[2 * d + 1 - j:])


def test_zero_coefficients_are_the_outside_band_ones():
    # outside the band (j = -1 or d) only the m = d coefficient is nonzero,
    # inside it none of C m = 0..j, D m = 0..d-1-j is zero: eval_terms
    # forms exactly the nonzero terms.  So no two pieces have the same
    # terms, and the pieces having a term are one run of j, as eval_terms
    # assumes of a block ordered by piece.
    for d in range(1, 121):
        for j in range(-1, d + 1):
            w = coefficient_table(d, j)
            nonzero = ([("C", m) for m in range(d + 1) if w[m]]
                       + [("D", m) for m in range(d + 1) if w[d + 1 + m]])
            if j == -1:
                assert nonzero == [("D", d)]
            elif j == d:
                assert nonzero == [("C", d)]
            else:
                assert nonzero == ([("C", m) for m in range(j + 1)]
                                   + [("D", m) for m in range(d - j)])


def test_numpy_integer_piece():
    # j follows the one integer rule, as d does: a numpy integer is a piece
    assert coefficient_table(3, np.int64(1)) == coefficient_table(3, 1)


def test_domain_errors():
    with pytest.raises(DomainError):
        _piece(0, 1.0)
    with pytest.raises(DomainError):
        _piece(3, math.nan)
    with pytest.raises(DomainError):
        coefficient_table(3, 4)
    with pytest.raises(DomainError):
        coefficient_table(3, -2)
    with pytest.raises(DomainError):
        coefficient_table(-1, 0)
