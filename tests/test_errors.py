"""The one rule each for integer counts and real numbers."""

from fractions import Fraction

import numpy as np
import pytest

from sylvester.errors import DomainError, integer_count, real_number


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
