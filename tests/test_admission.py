"""Every entry to the evaluator admits a frequency by the one input rule:
a finite non-bool real number (``errors.check_real``), and a grid is a 1-D
sequence of them (``errors.check_reals``)."""
import math
from fractions import Fraction

import numpy as np
import pytest

from latgreen import green
from latgreen.errors import DomainError
from latgreen.green import dos, green_local, green_sweep
from latgreen.integrand import admit, build_integrand

_ENTRIES = {
    "green_local": green_local,
    "green_sweep": lambda d, omega: green_sweep(d, [omega]),
    "dos": dos,
    "build_integrand": build_integrand,
    # the piece rule, which the evaluator reaches through admit
    "staircase_j": lambda d, omega: admit(d, [omega]),
}

_BAD_FREQUENCIES = {
    "str": "0.5",
    "bool": True,
    "numpy-bool": np.True_,
    "complex": 1 + 0j,
    "none": None,
    "nan": math.nan,
    "inf": math.inf,
    "beyond-double": 10**400,
    "beyond-repr": 10**5000,  # more digits than repr will print
}


@pytest.mark.parametrize("omega", _BAD_FREQUENCIES.values(), ids=_BAD_FREQUENCIES.keys())
@pytest.mark.parametrize("entry", _ENTRIES.values(), ids=_ENTRIES.keys())
def test_every_entry_refuses_a_bad_frequency(entry, omega):
    with pytest.raises(DomainError):
        entry(3, omega)


_BAD_GRIDS = {
    "two-dimensional": np.zeros((2, 2)),
    "zero-dimensional": np.array(0.5),
    "bool-array": np.array([False, True]),
    "complex-array": np.array([0.5 + 0j]),
    "str-after-good": [0.1, 0.2, "0.3"],
    "nan-in-array": np.array([0.1, 0.2, math.nan]),
    "huge-after-good": [0.1, 0.2, 10**400],
    "scalar": 0.5,
    "none": None,
}


@pytest.mark.parametrize("grid", _BAD_GRIDS.values(), ids=_BAD_GRIDS.keys())
def test_sweep_refuses_a_bad_grid_before_computing(monkeypatch, grid):
    def integrate(*args):
        raise AssertionError("a frequency was integrated")

    monkeypatch.setattr(green, "integrate_half_line", integrate)
    with pytest.raises(DomainError):
        green_sweep(3, grid)


@pytest.mark.parametrize("omega, same", [
    (np.float32(0.3), float(np.float32(0.3))),
    (np.int64(1), 1.0),
    (Fraction(1, 2), 0.5),
], ids=["float32", "int64", "fraction"])
def test_an_admitted_frequency_is_the_float_it_equals(omega, same):
    assert repr(green_local(3, omega)) == repr(green_local(3, same))
    assert repr(dos(3, omega)) == repr(dos(3, same))
    assert repr(build_integrand(3, omega)) == repr(build_integrand(3, same))
    assert repr(admit(3, [omega])) == repr(admit(3, [same]))


def test_an_admitted_grid_is_the_floats_it_equals():
    floats = [-4.5, 0.25, 1.0, 3.5]  # exact in float32
    expected = [repr(r) for r in green_sweep(3, floats)]
    for grid in (np.array(floats, dtype=np.float32), (w for w in floats)):
        assert [repr(r) for r in green_sweep(3, grid)] == expected
    assert ([repr(r) for r in green_sweep(3, np.array([-4, 0, 1, 3]))]
            == [repr(r) for r in green_sweep(3, [-4.0, 0.0, 1.0, 3.0])])
