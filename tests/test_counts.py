import operator
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bagcq import Count, compare_counts


def test_construction_normalizes_to_prime_powers():
    assert Count(((2, 1), (6, 1))).factors == ((2, 2), (3, 1))
    assert Count.of(12) == Count(((2, 1), (6, 1)))
    assert Count.of(1).factors == ((1, 1),)
    assert Count.of(0).factors == ((0, 1),)


def test_zero_absorbs_and_one_is_neutral():
    assert (Count.of(0) * Count.of(7)).is_zero()
    assert Count.of(7) * Count.of(1) == Count.of(7)
    assert Count.of(0).pow(0) == Count.of(1)
    assert Count.of(5).pow(0) == Count.of(1)


def test_negative_inputs_are_rejected():
    with pytest.raises(ValueError):
        Count.of(-1)
    with pytest.raises(ValueError):
        Count.of(4).pow(-1)


def test_value_materializes_and_refuses_huge():
    assert Count.of(3).pow(4).value() == 81
    huge = Count.of(2).pow(10**9)
    with pytest.raises(OverflowError):
        huge.value(max_bits=256)


def test_compare_huge_same_base():
    a = Count.of(2).pow(10**18)
    b = Count.of(2).pow(10**18 + 1)
    assert compare_counts(a, b) == "less"
    assert compare_counts(b, a) == "greater"
    assert compare_counts(a, a) == "equal"


def test_compare_huge_mixed_bases():
    # 3^1000 vs 2^1585: log2(3)*1000 = 1584.96..., so the power of two wins
    a = Count.of(3).pow(1000)
    b = Count.of(2).pow(1585)
    assert compare_counts(a, b) == "less"
    assert compare_counts(a, Count.of(2).pow(1584)) == "greater"


def test_str_representation():
    assert str(Count.of(0)) == "0"
    assert str(Count.of(1)) == "1"
    assert str(Count.of(12)) == "12^1"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**40), st.integers(0, 2**40))
def test_compare_agrees_with_integers(x, y):
    want = "less" if x < y else "greater" if x > y else "equal"
    assert compare_counts(Count.of(x), Count.of(y)) == want


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(2, 50), st.integers(0, 12)), max_size=4),
    st.lists(st.tuples(st.integers(2, 50), st.integers(0, 12)), max_size=4),
)
def test_factored_compare_agrees_with_materialized(fs1, fs2):
    a, b = Count(tuple(fs1)), Count(tuple(fs2))
    x, y = a.value(max_bits=4096), b.value(max_bits=4096)
    want = "less" if x < y else "greater" if x > y else "equal"
    assert compare_counts(a, b) == want


def test_equal_values_in_different_composite_forms_still_compare():
    # p*p and p are refined over the joint basis {p}; equal exponents there
    # decide equality without materializing either side
    p = (1 << 89) - 1
    assert compare_counts(Count(((p * p, 2),)), Count(((p, 4),))) == "equal"
    big = 1 << 20
    assert compare_counts(Count(((p * p, big),)), Count(((p, 2 * big),))) == "equal"
    assert (
        compare_counts(Count(((p * p, big),)), Count(((p, 2 * big - 1),))) == "greater"
    )


# Primes just above 2**32: their products are composites near 2**64 that
# share factors with each other.
_BIG_PRIMES = (4294967311, 4294967357, 4294967371)
_bases = st.one_of(
    st.integers(0, 50),
    st.builds(pow, st.integers(2, 12), st.integers(2, 6)),
    st.builds(operator.mul, st.integers(2, 30), st.integers(2, 30)),
    st.builds(lambda k: 2**64 + k, st.integers(-50, 50)),
    st.builds(operator.mul, st.sampled_from(_BIG_PRIMES), st.sampled_from(_BIG_PRIMES)),
)
_factor_lists = st.lists(st.tuples(_bases, st.integers(0, 12)), max_size=4)


@st.composite
def _counts(draw):
    c = Count(tuple(draw(_factor_lists)))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            c = c.mul(Count(tuple(draw(_factor_lists))))
        else:
            c = c.pow(draw(st.integers(0, 3)))
    return c


@settings(max_examples=300, deadline=None)
@given(_counts(), _counts())
def test_equality_hash_and_order_agree_with_values(a, b):
    assert (a == b) == (a.compare(b) == 0)
    if a == b:
        assert hash(a) == hash(b)
    if max(a.bits_upper(), b.bits_upper()) > 4096:
        return
    x, y = a.value(max_bits=4096), b.value(max_bits=4096)
    assert a.compare(b) == (x > y) - (x < y)
    assert (a == b) == (x == y)
    assert a == Count.of(x) and hash(a) == hash(Count.of(x))
    assert a.mul(b).value(max_bits=8192) == x * y


def test_equal_values_with_huge_exponents_compare_fast():
    start = time.perf_counter()
    a = Count(((2**70, 1), (2**71, 2**25)))
    b = Count.of(2) ** (70 + 71 * 2**25)
    assert a == b and a.compare(b) == 0
    assert hash(a) == hash(b)
    assert time.perf_counter() - start < 1.0
    assert Count.of(2**70) == Count.of(2) ** 70
    assert hash(Count.of(2**70)) == hash(Count.of(2) ** 70)


def test_refining_a_high_power_against_its_root_is_one_step():
    # the shared gcd is divided out to its full power by repeated squaring,
    # not one factor per refinement step
    start = time.perf_counter()
    a = Count.of(2**40000) * Count.of(2)
    assert a == Count.of(2) ** 40001
    assert a.factors == ((2, 40001),)
    assert Count.of(6**5000) * Count.of(4) == Count.of(2) ** 5002 * Count.of(3) ** 5000
    assert time.perf_counter() - start < 0.1
