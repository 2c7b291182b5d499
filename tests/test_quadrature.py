"""Known-integral and configuration tests for the double-exponential rules."""
import math

import numpy as np
import pytest

from latgreen.bessel import bessel_k0
from latgreen.errors import DivergentIntegralError
from latgreen.integrand import TailClass, TailKind
from latgreen.quadrature import (
    QuadratureConfig,
    QuadratureResult,
    integrate_finite,
    integrate_semiinfinite,
)

from reference_values import EULER_GAMMA

EXP_TAIL = TailClass(TailKind.EXPONENTIAL, 1.0)


def _k0_vec(tau):
    return np.asarray([bessel_k0(float(t)) for t in np.atleast_1d(tau)])


def test_exponential_unit_integral():
    # integral of r e^{-rt} is 1 for slow and fast decay alike
    for rate in (1.0, 1e-3, 50.0):
        res = integrate_semiinfinite(
            lambda t: rate * np.exp(-rate * t), TailClass(TailKind.EXPONENTIAL, rate)
        )
        assert res.converged
        assert res.value.real == pytest.approx(1.0, abs=1e-14)
        assert abs(res.value.imag) < 1e-15


def test_k0_total_mass():
    # integral of (2/pi) K0(t) e^{-rt} over (0, inf) is
    # (2/pi) arccos(r) / sqrt(1 - r^2), exactly 1 at r = 0
    for rate in (0.0, 0.5):
        exact = (2.0 / math.pi) * math.acos(rate) / math.sqrt(1.0 - rate**2)
        res = integrate_semiinfinite(
            lambda t: (2.0 / math.pi) * _k0_vec(t) * np.exp(-rate * t),
            TailClass(TailKind.EXPONENTIAL, 1.0 + rate),
        )
        assert res.converged
        assert res.value.real == pytest.approx(exact, abs=5e-14)


def test_log_weighted_exponential():
    # integral of -ln(t) e^{-t} equals the Euler-Mascheroni constant
    res = integrate_semiinfinite(lambda t: -np.log(t) * np.exp(-t), EXP_TAIL)
    assert res.converged
    assert res.value.real == pytest.approx(EULER_GAMMA, abs=1e-13)


def test_power_law_tail():
    tail = TailClass(TailKind.POWER_LAW, -2.5)
    res = integrate_semiinfinite(lambda t: (1.0 + t) ** -2.5, tail)
    assert res.converged
    assert res.value.real == pytest.approx(2.0 / 3.0, abs=1e-13)


def test_finite_log_singularity():
    res = integrate_finite(lambda x: -np.log(x), 0.0, 1.0)
    assert res.converged
    assert res.value.real == pytest.approx(1.0, abs=1e-14)


def test_finite_inverse_sqrt_lower_end():
    res = integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert res.converged
    assert res.value.real == pytest.approx(2.0, rel=1e-13)


def test_finite_plain_polynomial():
    res = integrate_finite(lambda x: 3.0 * x**2, -1.0, 2.0)
    assert res.value.real == pytest.approx(9.0, rel=1e-13)


def test_split_point_invariance():
    values = []
    for s in (0.5, 1.0, 2.0):
        cfg = QuadratureConfig(split_point=s)
        res = integrate_semiinfinite(
            lambda t: (2.0 / math.pi) * _k0_vec(t), EXP_TAIL, cfg
        )
        values.append(res.value.real)
    assert max(values) - min(values) < 2e-13


def test_error_estimate_is_honest():
    for f, exact in (
        (lambda t: np.exp(-t), 1.0),
        (lambda t: -np.log(t) * np.exp(-t), EULER_GAMMA),
    ):
        res = integrate_semiinfinite(f, EXP_TAIL)
        assert abs(res.value.real - exact) <= 10.0 * max(res.abs_error_estimate, 1e-15)


def test_more_levels_do_not_change_converged_result():
    a = integrate_semiinfinite(
        lambda t: np.exp(-t), EXP_TAIL, QuadratureConfig(max_levels=8)
    )
    b = integrate_semiinfinite(
        lambda t: np.exp(-t), EXP_TAIL, QuadratureConfig(max_levels=16)
    )
    assert abs(a.value - b.value) < 1e-14


def test_nonconverged_flag():
    # an interior kink defeats tanh-sinh at a crippled level budget
    cfg = QuadratureConfig(max_levels=3)
    res = integrate_finite(lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0, cfg)
    assert isinstance(res, QuadratureResult)
    if not res.converged:
        assert res.abs_error_estimate > cfg.abs_tol
    else:  # generous budget must agree; the flag may not trip on easy kinks
        ref = integrate_finite(lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0)
        assert abs(res.value - ref.value) <= 10 * res.abs_error_estimate


def test_divergent_tail_raises():
    with pytest.raises(DivergentIntegralError):
        integrate_semiinfinite(
            lambda t: 1.0 / (1.0 + t), TailClass(TailKind.DIVERGENT)
        )


def test_evaluation_counts_reported():
    res = integrate_semiinfinite(lambda t: np.exp(-t), EXP_TAIL)
    assert res.evaluations > 50


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_levels=2)
    with pytest.raises(ValueError):
        QuadratureConfig(split_point=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(split_point=math.inf)
    fast = QuadratureConfig.fast()
    assert fast.rel_tol > QuadratureConfig().rel_tol


def test_finite_bad_interval():
    with pytest.raises(ValueError):
        integrate_finite(lambda x: x, 1.0, 1.0)


def test_complex_integrand():
    res = integrate_semiinfinite(lambda t: (1.0 + 2.0j) * np.exp(-t), EXP_TAIL)
    assert res.value == pytest.approx(1.0 + 2.0j, abs=1e-13)
