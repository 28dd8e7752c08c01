"""The seeded stream's randrange draws exactly what Random.randrange
draws from the same bits."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sigcalc.seeds import rng_for


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**20), st.integers(-(2**70), 2**70), st.integers(1, 2**70))
def test_randrange_is_the_inherited_draw(index, start, width):
    fast, inherited = rng_for(0, "range", index), rng_for(0, "range", index)
    for stop in (start + width, start + 1, start + width // 2 + 1):
        assert fast.randrange(start, stop) == random.Random.randrange(inherited, start, stop)
    # both streams stand at the same bit afterwards
    assert fast.getrandbits(64) == inherited.getrandbits(64)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**20), st.integers(-(2**70), 2**70), st.integers(-(2**70), 0))
def test_an_empty_range_raises_as_inherited(index, start, width):
    fast, inherited = rng_for(0, "range", index), rng_for(0, "range", index)
    with pytest.raises(ValueError):
        random.Random.randrange(inherited, start, start + width)
    with pytest.raises(ValueError):
        fast.randrange(start, start + width)
    assert fast.getrandbits(64) == inherited.getrandbits(64)


@pytest.mark.parametrize("args", [(10,), (2**70,), (0, 100, 7), (50, -50, -3), (True, 9),
                                  (100, 0, -1), (3, 2**65, True)])
def test_other_calls_take_the_inherited_path(args):
    fast, inherited = rng_for(1, "range"), rng_for(1, "range")
    assert [fast.randrange(*args) for _ in range(20)] == \
        [random.Random.randrange(inherited, *args) for _ in range(20)]
