from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flat4spec.qfield import QuadNumber, UnrepresentableRadical

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
quads = st.builds(QuadNumber, rationals, rationals, rationals, rationals)


def test_basis_constants():
    assert QuadNumber(0, 1) * QuadNumber(0, 1) == 2
    assert QuadNumber(0, 0, 1) * QuadNumber(0, 0, 1) == 3
    assert QuadNumber(0, 0, 0, 1) * QuadNumber(0, 0, 0, 1) == 6
    assert QuadNumber(0, 1) * QuadNumber(0, 0, 1) == QuadNumber(0, 0, 0, 1)


def test_sqrt_int():
    assert QuadNumber.sqrt_int(1) == 1
    assert QuadNumber.sqrt_int(4) == 2
    assert QuadNumber.sqrt_int(2) == QuadNumber(0, 1)
    assert QuadNumber.sqrt_int(8) == QuadNumber(0, 2)
    assert QuadNumber.sqrt_int(3) == QuadNumber(0, 0, 1)
    assert QuadNumber.sqrt_int(12) == QuadNumber(0, 0, 2)
    assert QuadNumber.sqrt_int(6) == QuadNumber(0, 0, 0, 1)
    assert QuadNumber.sqrt_int(24) == QuadNumber(0, 0, 0, 2)
    for n in (5, 7, 10, 15):
        with pytest.raises(UnrepresentableRadical):
            QuadNumber.sqrt_int(n)
    with pytest.raises(ValueError):
        QuadNumber.sqrt_int(0)


def sqrt_int_by_trial_division(n: int) -> QuadNumber:
    """Oracle: split n into square * squarefree by trial division."""
    square, free = 1, 1
    m, p = n, 2
    while p * p <= m:
        while m % (p * p) == 0:
            square *= p
            m //= p * p
        if m % p == 0:
            free *= p
            m //= p
        p += 1
    free *= m
    if free not in (1, 2, 3, 6):
        raise UnrepresentableRadical(f"sqrt({n}) is not in Q(sqrt2, sqrt3)")
    return QuadNumber(*[square if f == free else 0 for f in (1, 2, 3, 6)])


def test_sqrt_int_matches_trial_division():
    for n in range(1, 5001):
        try:
            want = sqrt_int_by_trial_division(n)
        except UnrepresentableRadical:
            with pytest.raises(UnrepresentableRadical):
                QuadNumber.sqrt_int(n)
        else:
            assert QuadNumber.sqrt_int(n) == want, n
            assert want * want == n, n
    for n in (0, -1, -2, -4, -6, -5000):
        with pytest.raises(ValueError, match="positive integer"):
            QuadNumber.sqrt_int(n)


@given(quads)
def test_sqrt_squares_back(q):
    sq = q * q
    # squares have nonnegative float value
    assert float(sq) >= -1e-9


@given(quads, quads)
def test_mul_commutes_and_floats_agree(a, b):
    assert a * b == b * a
    assert abs(float(a * b) - float(a) * float(b)) < 1e-6


@given(quads, st.one_of(st.integers(-50, 50), rationals, st.sampled_from((0, Fraction(0)))))
def test_rational_factor_scales_coordinates(q, r):
    assert q * r == q * QuadNumber(r)
    assert r * q == QuadNumber(r) * q
    assert isinstance(q * r, QuadNumber) and isinstance(r * q, QuadNumber)


@given(quads, quads, quads)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a


@given(quads)
def test_inverse_roundtrip(q):
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            q.inverse()
    else:
        assert q * q.inverse() == 1
        assert 1 / q == q.inverse()


def test_coercion_and_division():
    half = QuadNumber(Fraction(1, 2))
    assert half + Fraction(1, 2) == 1
    assert 3 * half == Fraction(3, 2)
    assert (QuadNumber(0, 1) / 2) * QuadNumber(0, 1) == 1
    with pytest.raises(TypeError):
        QuadNumber.coerce(1.5)


def test_str_and_repr():
    q = QuadNumber(1, Fraction(-1, 2), 0, 2)
    assert str(q) == "1 - 1/2*sqrt2 + 2*sqrt6"
    assert str(QuadNumber()) == "0"
    assert eval(repr(q)) == q


def test_immutability_and_hash():
    q = QuadNumber(1, 2)
    with pytest.raises(AttributeError):
        q.a = 5
    assert hash(QuadNumber(1, 2)) == hash(q)
    assert QuadNumber(2) == 2 and QuadNumber(2) != 3
