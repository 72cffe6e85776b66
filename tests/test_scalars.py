import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from zonopark.scalars import EpsRational, as_eps_rational, parse_scalar
from zonopark.tilting import color_window_start, tau_for_t, tilting_weights

scalars = st.builds(
    EpsRational,
    st.fractions(max_denominator=40),
    st.integers(min_value=-5, max_value=5),
)
# the plain exact rationals a scalar compares and adds with
rationals = st.one_of(st.integers(min_value=-5, max_value=5), st.fractions(max_denominator=40))

ORDER = (operator.lt, operator.le, operator.eq, operator.ge, operator.gt)


def test_compare_examples():
    assert EpsRational(1, -1) < EpsRational(1, 0)
    assert EpsRational(1, 0) == EpsRational(1, 0)
    assert EpsRational(Fraction(5, 3), 7) < EpsRational(2, -7)


def test_floor_ceil_examples():
    assert math.ceil(EpsRational(2, -2)) == 2
    assert math.ceil(EpsRational(2, 2)) == 3
    assert math.floor(EpsRational(Fraction(11, 6), 0)) == 1


@pytest.mark.parametrize("k", range(-3, 4))
@pytest.mark.parametrize("b", [-2, -1, 1, 2])
def test_floor_ceil_at_integers(k, b):
    value = EpsRational(k, b)
    assert math.floor(value) == (k if b > 0 else k - 1)
    assert math.ceil(value) == (k + 1 if b > 0 else k)


def test_eps_never_equals_rational():
    assert EpsRational(1, 1) != Fraction(1)
    assert EpsRational(1, -3) != 1
    assert EpsRational(Fraction(7, 2), 0) == Fraction(7, 2)


def test_componentwise_arithmetic():
    a = EpsRational(Fraction(1, 2), 2)
    b = EpsRational(Fraction(1, 3), -1)
    assert a + b == EpsRational(Fraction(5, 6), 1)
    assert a - b == EpsRational(Fraction(1, 6), 3)
    assert -a == EpsRational(Fraction(-1, 2), -2)
    assert a * 3 == EpsRational(Fraction(3, 2), 6)
    assert 3 * a == a * 3
    assert a + 1 == EpsRational(Fraction(3, 2), 2)


def test_products_of_eps_values_are_forbidden():
    a = EpsRational(1, 1)
    with pytest.raises(TypeError):
        a * a
    with pytest.raises(ValueError):
        a * Fraction(1, 2)  # eps coefficient would leave the integers
    assert EpsRational(1, 2) * Fraction(1, 2) == EpsRational(Fraction(1, 2), 1)


def test_immutable_and_hashable():
    a = EpsRational(1, 1)
    with pytest.raises(AttributeError):
        a.base = Fraction(2)
    assert hash(EpsRational(Fraction(3, 2), 0)) == hash(Fraction(3, 2))
    assert len({EpsRational(1, 0), EpsRational(1, 1), EpsRational(1, -1)}) == 3


def test_text_forms():
    assert str(EpsRational(Fraction(11, 6), 0)) == "11/6"
    assert str(EpsRational(2, 0)) == "2"
    assert str(EpsRational(1, -1)) == "1-eps"
    assert str(EpsRational(Fraction(5, 3), 1)) == "5/3+eps"
    assert str(EpsRational(2, -2)) == "2-2eps"
    assert parse_scalar("1-eps") == EpsRational(1, -1)
    assert parse_scalar("-2/5+3eps") == EpsRational(Fraction(-2, 5), 3)
    assert parse_scalar("7") == EpsRational(7, 0)


@pytest.mark.parametrize("bad", ["", "eps+1", "1.5", "1 + eps", "one", "1-epss"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize("bad", ["1/0", "0/0", "1/0-eps", "-3/0+2eps"])
def test_parse_rejects_zero_denominator(bad):
    with pytest.raises(ValueError, match="cannot parse scalar"):
        parse_scalar(bad)


def test_coercion():
    assert as_eps_rational(3) == EpsRational(3, 0)
    assert as_eps_rational(Fraction(1, 2)) == EpsRational(Fraction(1, 2), 0)
    with pytest.raises(TypeError):
        as_eps_rational(0.5)


@pytest.mark.parametrize(
    "function, args",
    [
        (EpsRational, (0.1,)),
        (EpsRational, ("3/4",)),
        (tau_for_t, (2, 3, 0.1)),
        (tilting_weights, (2, 3, -0.5)),
        (color_window_start, (3, 0.1)),
    ],
    ids=[
        "EpsRational-float",
        "EpsRational-str",
        "tau_for_t",
        "tilting_weights",
        "color_window_start",
    ],
)
def test_inexact_input_is_rejected(function, args):
    # a float or a string never stands in for an exact rational tau or t
    with pytest.raises(TypeError):
        function(*args)


@given(scalars, scalars, rationals)
def test_order_is_total(a, b, r):
    assert (a < b) + (a == b) + (a > b) == 1
    assert (a <= b) == (a < b or a == b)
    # > and >= are < and <= with the operands swapped
    assert (a > b) == (b < a) and (a >= b) == (b <= a)
    # a plain rational on either side compares as the scalar it coerces to;
    # a's own base sits on a, or just beside it
    for plain in (r, a.base):
        exact = EpsRational(plain)
        for op in ORDER:
            assert op(a, plain) == op(a, exact) and op(plain, a) == op(exact, a)


@given(scalars, scalars, st.one_of(scalars, rationals))
def test_order_is_transitive_and_translation_invariant(a, b, c):
    if a < b and b < c:
        assert a < c
    if a <= b and b <= c:
        assert a <= c
    if a > b and b > c:
        assert a > c
    if a >= b and b >= c:
        assert a >= c
    assert (a < b) == (a + c < b + c) == (c + a < c + b)


@given(scalars)
def test_text_round_trip(value):
    assert parse_scalar(str(value)) == value


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=-4, max_value=4))
def test_floor_ceil_laws(k, b):
    value = EpsRational(k, b)
    if b > 0:
        assert math.floor(value) == k and math.ceil(value) == k + 1
    elif b < 0:
        assert math.floor(value) == k - 1 and math.ceil(value) == k
    else:
        assert math.floor(value) == math.ceil(value) == k
