"""Exactness and structure tests for the piecewise coefficient tables."""
import math

import pytest
from hypothesis import given, strategies as st

from latgreen.coefficients import (
    CoefficientTable,
    PhasedInteger,
    coefficient_table,
    staircase_j,
)
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


def _gaussian(coeff: PhasedInteger) -> tuple[int, int]:
    m = coeff.magnitude
    return ((m, 0), (0, m), (-m, 0), (0, -m))[coeff.phase]


def test_exact_against_direct_integer_sum():
    # exact integers up to d = 40, where magnitudes exceed 2^53 and the
    # complex-float comparison below cannot be exact
    for d in range(1, 41):
        for j in range(-1, d + 1):
            table = coefficient_table(d, j)
            assert [_gaussian(c) for c in table.c] == [
                _gaussian_direct(d, m, j, lambda n: 2 * n - d - m)
                for m in range(j + 1)
            ]
            assert [_gaussian(c) for c in table.dcoef] == [
                _gaussian_direct(d, m, d - j - 1, lambda n: d + m - 2 * n)
                for m in range(d - j)
            ]


def test_phased_integer_quarter_turns():
    assert PhasedInteger(5, 0).complex_value == 5
    assert PhasedInteger(5, 1).complex_value == 5j
    assert PhasedInteger(5, 2).complex_value == -5
    assert PhasedInteger(5, 3).complex_value == -5j
    assert PhasedInteger(-2, 1).complex_value == -2j
    with pytest.raises(ValueError):
        PhasedInteger(1, 4)


def test_cubic_middle_piece_values():
    table = coefficient_table(3, 1)
    assert [c.complex_value for c in table.c] == [-2j, -3]
    assert [c.complex_value for c in table.dcoef] == [2j, -3]


def test_cubic_extreme_pieces():
    top = coefficient_table(3, 3)
    assert top.dcoef == ()
    assert top.c[3].complex_value == 1
    bottom = coefficient_table(3, -1)
    assert bottom.c == ()
    assert bottom.dcoef[3].complex_value == 1


def test_chain_piece():
    table = coefficient_table(1, 0)
    assert [c.complex_value for c in table.c] == [-1j]
    assert [c.complex_value for c in table.dcoef] == [1j]


def test_staircase_examples():
    assert staircase_j(3, 0.0) == 1
    assert staircase_j(3, -0.5) == 1
    assert staircase_j(3, 1.0) == 2
    assert staircase_j(3, -1.0) == 1
    assert staircase_j(3, -3.0) == 0
    assert staircase_j(2, 0.0) == 1
    assert staircase_j(1, 0.0) == 0
    # clamping outside the band
    assert staircase_j(3, 100.0) == 3
    assert staircase_j(3, -100.0) == -1
    assert staircase_j(3, 3.0) == 3
    assert staircase_j(3, -3.5) == -1


def test_mirror_conjugation():
    # the e^{+omega tau} coefficients of piece j are the conjugates of the
    # e^{-omega tau} coefficients of the mirror piece d-j-1
    for d in range(1, 9):
        for j in range(-1, d + 1):
            table = coefficient_table(d, j)
            mirror = coefficient_table(d, d - j - 1)
            assert len(table.dcoef) == len(mirror.c)
            for a, b in zip(table.dcoef, mirror.c):
                assert a.complex_value == b.complex_value.conjugate()


def test_full_piece_completeness():
    # for j = d all binomial weight sits in the C sum:
    # sum_n binom(d,n) binom(n,m) magnitudes reproduce 3^d via the
    # double-binomial identity sum_m sum_n binom(d,n) binom(n,m) = 3^d
    for d in range(1, 10):
        table = coefficient_table(d, d)
        total = sum(
            sum(
                math.comb(d, n) * math.comb(n, m)
                for n in range(m, d + 1)
            )
            for m in range(d + 1)
        )
        assert total == 3**d
        assert len(table.c) == d + 1


@given(st.integers(1, 12), st.data())
def test_against_direct_complex_sum(d, data):
    j = data.draw(st.integers(-1, d))
    table = coefficient_table(d, j)
    for m, coeff in enumerate(table.c):
        assert coeff.complex_value == _c_direct(d, j, m)
    for m, coeff in enumerate(table.dcoef):
        assert coeff.complex_value == _d_direct(d, j, m)


@given(st.integers(1, 12), st.floats(-30, 30, allow_nan=False))
def test_staircase_consistent_with_sizes(d, omega):
    j = staircase_j(d, omega)
    table = coefficient_table(d, j)
    assert len(table.c) == j + 1
    assert len(table.dcoef) == d - j
    assert isinstance(table, CoefficientTable)


def test_zero_coefficients_are_the_outside_band_ones():
    # outside the band (j = -1 or d) only the m = d coefficient is nonzero,
    # inside it none is zero: eval_terms forms exactly the nonzero terms.
    # With C m = 0..j and D m = 0..d-1-j, no two pieces have the same
    # terms, and the pieces having a term are one run of j, as eval_terms
    # assumes of a block ordered by piece.
    # Uncached, so that the 7,500 tables do not stay in memory.
    exact = coefficient_table.__wrapped__
    for d in range(1, 121):
        for j in range(-1, d + 1):
            table = exact(d, j)
            nonzero = ([("C", m) for m, c in enumerate(table.c) if c.magnitude]
                       + [("D", m) for m, c in enumerate(table.dcoef) if c.magnitude])
            if j == -1:
                assert nonzero == [("D", d)]
            elif j == d:
                assert nonzero == [("C", d)]
            else:
                assert len(nonzero) == d + 1 == len(table.c) + len(table.dcoef)


def test_cache_returns_same_object():
    assert coefficient_table(5, 2) is coefficient_table(5, 2)
    # bounded like term_weights, its caller on the evaluation path
    assert coefficient_table.cache_info().maxsize == 1024


def test_domain_errors():
    with pytest.raises(DomainError):
        staircase_j(0, 1.0)
    with pytest.raises(DomainError):
        staircase_j(3, math.nan)
    with pytest.raises(DomainError):
        coefficient_table(3, 4)
    with pytest.raises(DomainError):
        coefficient_table(3, -2)
    with pytest.raises(DomainError):
        coefficient_table(-1, 0)
