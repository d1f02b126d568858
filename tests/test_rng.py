"""tsvplan.rng.Pcg64 must return exactly numpy's default_rng(seed) draws,
in any interleaving of random() and integers(n)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsvplan.rng import Pcg64

SEEDS = [*range(51), 7919, 2**32 + 5, 2**64 + 1, 10**20]
BOUNDS = [1, 2, 38, 340, 1563, 2**31 + 11, 2**32 - 1, 2**32]


def assert_same_draws(seed, calls):
    """calls: None for random(), n for integers(n)."""
    oracle, ours = np.random.default_rng(seed), Pcg64(seed)
    for n in calls:
        if n is None:
            assert ours.random() == oracle.random()
        else:
            assert ours.integers(n) == int(oracle.integers(n))


@pytest.mark.parametrize("seed", SEEDS)
def test_a_seed_gives_numpys_stream(seed):
    calls = [None] * 200 + [n for n in BOUNDS for _ in range(25)] + [None] * 10
    assert_same_draws(seed, calls)


@settings(max_examples=100, deadline=None)
@given(seed=st.sampled_from(SEEDS) | st.integers(0, 2**130),
       calls=st.lists(st.none() | st.sampled_from(BOUNDS), max_size=200))
def test_any_interleaving_gives_numpys_stream(seed, calls):
    assert_same_draws(seed, calls)


def test_integers_of_one_draws_nothing():
    oracle, ours = np.random.default_rng(3), Pcg64(3)
    assert ours.integers(1) == oracle.integers(1) == 0
    assert ours.random() == oracle.random() == np.random.default_rng(3).random()
    # an odd count of 32-bit draws leaves a buffered half; integers(1) keeps it
    assert ours.integers(340) == oracle.integers(340)
    assert ours.integers(1) == 0
    assert ours.integers(340) == oracle.integers(340)


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_a_bound_outside_one_to_two_to_the_32_is_refused(n):
    with pytest.raises(ValueError):
        Pcg64(0).integers(n)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
def test_a_seed_is_a_nonnegative_integer(seed, error):
    with pytest.raises(error):
        Pcg64(seed)
