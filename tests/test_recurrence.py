import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from compseq.recurrence import (
    RecurrenceParams,
    SeedPair,
    decimal_texts,
    iter_terms,
    terms,
)
from oracles import is_strictly_growing, lemma1_residual, reference_terms

seeds = st.sampled_from([0, 1, -1]) | st.integers(-10**30, 10**30)


@given(
    st.integers(-10**12, 10**12),
    # b = +-1 half the time: iter_terms has its own step for each.
    st.sampled_from([-1, 1]) | st.integers(-9, 9).filter(bool),
    seeds,
    seeds,
    st.integers(0, 40),
)
@example(0, -1, 0, -3, 6)  # x_2 = 0*(-3) - 0, a zero Decimal signs: it must print "0"
@example(7, 0, -5, 3, 6)  # b = 0, outside the draw
def test_terms_and_decimal_texts_match_the_reference_loop(a, b, x0, x1, n):
    params, seed = RecurrenceParams(a, b), SeedPair(x0, x1)
    want = reference_terms(params, seed, n)
    assert terms(params, seed, n) == want
    assert decimal_texts(params, seed, n) == [str(x) for x in want]


def test_decimal_texts_reject_negative_n():
    with pytest.raises(ValueError):
        decimal_texts(RecurrenceParams(1, 1), SeedPair(0, 1), -1)


def test_fibonacci():
    assert terms(RecurrenceParams(1, 1), SeedPair(0, 1), 6) == [0, 1, 1, 2, 3, 5, 8]


def test_worked_example_terms():
    assert terms(RecurrenceParams(-9, -1), SeedPair(105, 134), 2) == [105, 134, -1311]


def test_period_three():
    xs = terms(RecurrenceParams(-1, -1), SeedPair(8, 27), 5)
    assert xs == [8, 27, -35, 8, 27, -35]


def test_iter_terms_matches_terms():
    params, seed = RecurrenceParams(3, -2), SeedPair(5, 7)
    assert list(itertools.islice(iter_terms(params, seed), 20)) == terms(params, seed, 19)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        terms(RecurrenceParams(1, 1), SeedPair(0, 1), -1)


def test_discriminant():
    assert RecurrenceParams(3, -1).discriminant == 5
    assert RecurrenceParams(4, -4).discriminant == 0


class TestLemma1:
    def test_fibonacci_case(self):
        assert lemma1_residual(RecurrenceParams(1, 1), SeedPair(0, 1), 3) == 0

    def test_lucas_case(self):
        assert lemma1_residual(RecurrenceParams(-9, -1), SeedPair(0, 1), 4) == 0

    def test_random_grid(self):
        rng = random.Random(0)
        for _ in range(10**4):
            a = rng.randint(-50, 50)
            b = rng.randint(-50, 50) or 1
            x0 = rng.randint(-(10**6), 10**6)
            x1 = rng.randint(-(10**6), 10**6)
            n = rng.randint(0, 60)
            assert lemma1_residual(RecurrenceParams(a, b), SeedPair(x0, x1), n) == 0

    @given(
        st.integers(-50, 50),
        st.integers(-50, 50).filter(lambda b: b != 0),
        st.integers(-(10**6), 10**6),
        st.integers(-(10**6), 10**6),
        st.integers(0, 60),
    )
    def test_identity_property(self, a, b, x0, x1, n):
        assert lemma1_residual(RecurrenceParams(a, b), SeedPair(x0, x1), n) == 0


class TestLemma2:
    def test_table_row(self):
        assert is_strictly_growing(RecurrenceParams(5, 1), SeedPair(495, 1136), 50)

    def test_decreasing_start(self):
        assert not is_strictly_growing(RecurrenceParams(1, 1), SeedPair(3, 2), 5)

    def test_periodic_cannot_grow(self):
        assert not is_strictly_growing(RecurrenceParams(-1, -1), SeedPair(8, 27), 10)

    def test_hypothesis_grid(self):
        rng = random.Random(1)
        for _ in range(500):
            b = rng.choice([x for x in range(-10, 11) if x != 0])
            a = rng.choice(
                [x for x in range(-12, 13) if abs(x) > abs(b)]
            )
            x0 = rng.choice([x for x in range(-50, 51) if x != 0])
            x1 = rng.choice([x for x in range(-60, 61) if abs(x) > abs(x0)])
            assert is_strictly_growing(
                RecurrenceParams(a, b), SeedPair(x0, x1), 40
            ), (a, b, x0, x1)


def test_backwards_reconstruction():
    rng = random.Random(2)
    for _ in range(200):
        a = rng.randint(-10, 10)
        b = rng.randint(-10, 10) or 3
        seed = SeedPair(rng.randint(-100, 100), rng.randint(-100, 100))
        xs = terms(RecurrenceParams(a, b), seed, 30)
        for n in range(1, 30):
            assert (xs[n + 1] - a * xs[n]) % b == 0
            assert (xs[n + 1] - a * xs[n]) // b == xs[n - 1]
