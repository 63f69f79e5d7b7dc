"""The one rule each for integer counts, real numbers and real arrays."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from sylvester.errors import DomainError, integer_count, real_array, real_number
from sylvester.geomc import is_inside_simplex, simplex_indicators
from sylvester.quad import CumulativeIntegral, DecayEnvelope, integrate_line
from sylvester.specfun import h_imag_cdf


def test_real_number_stores_a_float():
    value = 0.1
    assert real_number(value, "x") is value
    for given, stored in ((np.float64(0.1), 0.1), (Fraction(1, 3), 1.0 / 3.0), (np.int64(5), 5.0), (7, 7.0)):
        assert type(real_number(given, "x")) is float
        assert real_number(given, "x") == stored


def test_integer_count_stores_an_int():
    value = 10**400  # range checks stay with the caller
    assert integer_count(value, "n") is value
    assert type(integer_count(np.int64(5), "n")) is int
    assert integer_count(np.int64(5), "n") == 5


@pytest.mark.parametrize("value", [True, False, "1", None, 1j], ids=repr)
def test_non_numbers_are_refused(value):
    with pytest.raises(DomainError, match="x must be a real number"):
        real_number(value, "x")
    with pytest.raises(DomainError, match="n must be an integer"):
        integer_count(value, "n")


def test_refusals_of_each_rule_alone():
    with pytest.raises(DomainError, match="x must lie in the float range"):
        real_number(10**400, "x")
    for value in (1.0, np.float64(2.0), Fraction(1, 2)):
        with pytest.raises(DomainError, match="n must be an integer"):
            integer_count(value, "n")


# every entry point that takes an array, each with its own message
ARRAY_ENTRY_POINTS = {
    "simplex_indicators": (simplex_indicators, "rectangular array of finite numbers"),
    "integrate_line": (lambda value: integrate_line(lambda x: value, DecayEnvelope("gaussian", 1.0)),
                       "integrand returned values that are not real numbers"),
    "grid": (lambda value: CumulativeIntegral(np.cosh, value), "grid must be a 1-d array of real numbers"),
    "queries": (lambda value: CumulativeIntegral(np.cosh, [-1.0, 0.0, 1.0])(value),
                "queries must be real numbers"),
    "h_imag_cdf": (h_imag_cdf, "h_imag_cdf requires real numbers"),
}

NOT_REAL_ARRAYS = {
    "str": "a",
    "numeric-str": ["0", "0.5", "1"],
    "complex": 0.5 + 5j,
    # a cloud whose last point would be cut to (0.2, 0.2), inside the triangle
    "complex-ndarray": np.array([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.2, 0.2 + 5j)]]),
    "bool-ndarray": np.array([False, True]),
    "None": None,
    "ragged": [[0.0, 1.0], [2.0]],
    "beyond-float": 10**400,
    "bool-in-list": [True, 0.5],
    "0-d-bool-array-in-list": [[0.5, 1.0], [np.array(False), 2]],
}


@pytest.mark.parametrize("value", NOT_REAL_ARRAYS.values(), ids=NOT_REAL_ARRAYS.keys())
@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_every_array_entry_point_refuses_what_is_not_real(entry, value):
    call, message = ARRAY_ENTRY_POINTS[entry]
    # refused before any cast: no ComplexWarning, nor any other warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            call(value)


def test_real_array_keeps_the_values_of_real_input():
    array = np.linspace(0.0, 1.0, 5)
    assert real_array(array, "x") is array
    for given in ([1, 2, 3], np.arange(3), np.float32(0.1), [Fraction(1, 3), Fraction(2, 3)], 2**70):
        stored = real_array(given, "x")
        assert stored.dtype == np.float64
        assert np.array_equal(stored, np.asarray(given, dtype=float))
    # and so at the entry points: the same values as the floats they stand for
    assert h_imag_cdf(np.float32(0.5)) == h_imag_cdf(0.5)
    assert np.array_equal(h_imag_cdf([1, 2]), h_imag_cdf(np.array([1.0, 2.0])))
    evaluator = CumulativeIntegral(np.cosh, [-1, 0, 1])
    assert evaluator(Fraction(1, 2)) == CumulativeIntegral(np.cosh, [-1.0, 0.0, 1.0])(0.5)
    assert is_inside_simplex([Fraction(1, 4), 0], [[0, 0], [1, 0], [0, 1]])


def test_a_refused_element_names_its_reason():
    # the argument is real, but beyond the float range
    with pytest.raises(DomainError) as refused:
        h_imag_cdf(10**400)
    assert str(refused.value) == "h_imag_cdf requires real numbers: value must lie in the float range"
    # a bool among numbers would take their float dtype; real_number refuses it alone too
    with pytest.raises(DomainError, match="^m: value must be a real number, got True$"):
        real_array([True, 0.5], "m")
    with pytest.raises(DomainError, match=r"^m: value must be a real number, got array\(False\)$"):
        real_array([[0.5, 1.0], [np.array(False), 2]], "m")
    # a 0-d float array among numbers is a real number
    assert real_array([[0.5, 1.0], [np.array(3.0), 2]], "m").tolist() == [[0.5, 1.0], [3.0, 2.0]]
    with pytest.raises(DomainError, match="value must be a real number, got True"):
        is_inside_simplex([0.2, True], [[0, 0], [1, 0], [0, 1]])
