"""Oscillator eigenfunction tables, including points where e^(-x^2/2) underflows."""

import re

import numpy as np
import pytest

from foscillator import DomainError, hermite_functions

# The reference runs the same recurrence in extended precision, whose
# exponent range holds e^(-x^2/2) out to |x| ~ 150.
needs_extended = pytest.mark.skipif(np.finfo(np.longdouble).minexp > -16000,
                                    reason="long double has no extended exponent range")


def _extended_reference(n_max, x):
    x = np.asarray(x, dtype=np.longdouble)
    two = np.longdouble(2)
    out = np.empty((n_max + 1,) + x.shape, dtype=np.longdouble)
    out[0] = np.longdouble(np.pi) ** np.longdouble(-0.25) * np.exp(-x * x / two)
    out[1] = np.sqrt(two) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = np.sqrt(two / (n + 1)) * x * out[n] - np.sqrt(np.longdouble(n) / (n + 1)) * out[n - 1]
    return out


def test_negative_order_is_refused():
    with pytest.raises(DomainError, match="n_max must be >= 0"):
        hermite_functions(-1, np.zeros(3))


@needs_extended
def test_tables_match_an_extended_precision_recurrence():
    # |x| > 38.6 starts the double recurrence at exactly 0; phi_2000 lives out
    # to its turning point sqrt(4001) = 63.3.  The bound is the rounding of
    # x^2/2 ~ 1800 in the exponent, relative to |phi| < 1.
    x = np.concatenate([np.linspace(-60.0, -36.0, 49), np.linspace(0.0, 60.0, 61)])
    table = hermite_functions(2000, x)
    assert np.max(np.abs(table - _extended_reference(2000, x))) < 2e-13
    # the far points change nothing at the near ones, nor with the shape of x
    near = np.abs(x) < 37.6
    assert np.array_equal(table[:, near], hermite_functions(2000, x[near]))
    assert np.array_equal(table[:, 3], hermite_functions(2000, x[3]))
    assert np.array_equal(table, hermite_functions(2000, x.reshape(10, 11)).reshape(2001, -1))


@pytest.mark.parametrize("n", [745, 1000, 1500, 2000])
def test_functions_stay_normalized_past_the_gaussian_underflow(n):
    # the trapezoid rule on a uniform grid is exact to rounding for these
    # band-limited, decaying integrands; [0, 80] holds phi_n^2 for n <= 2000.
    # Blocks of 1000 points keep each table near 16 MB.
    h = 0.02
    x = np.arange(4001) * h
    total = 0.0
    for lo in range(0, x.size, 1000):
        total += float(np.sum(hermite_functions(n, x[lo:lo + 1000])[n] ** 2))
    integral = h * (2.0 * total - hermite_functions(n, 0.0)[n] ** 2)
    assert abs(integral - 1.0) < 1e-12


def test_tables_are_zero_where_every_order_underflows():
    # past |x| ~ 1e154, x^2 and then the recurrence overflowed, and the tables
    # held nan; a RuntimeWarning is an error here
    x = np.array([1e150, -1e154, 1e200, -1e300, np.inf, -np.inf])
    table = hermite_functions(6, x)
    assert table.tolist() == np.zeros((7, 6)).tolist()
    # the same zeros as at the clamp, signs included, for any shape of x
    assert np.array_equal(np.signbit(table[:, 3]), np.signbit(hermite_functions(6, -1e150)))
    assert np.array_equal(table.reshape(7, 2, 3), hermite_functions(6, x.reshape(2, 3)))
    assert hermite_functions(3, 1e300).tolist() == [0.0] * 4


@pytest.mark.parametrize("x, message", [
    (np.nan, "x must not be NaN"),
    ([0.5, np.nan], "x must not be NaN"),
    (None, "x must be a number, got None"),
    ("1", "x must be a number, got '1'"),
    (True, "x must be a number, got True"),
    (object(), "x must be a number, got <object"),
], ids=["nan", "nan-entry", "none", "str", "bool", "object"])
def test_arguments_are_numbers_and_not_nan(x, message):
    # NaN and None gave NaN tables, and object() raised the builtin TypeError
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        hermite_functions(2, x)
