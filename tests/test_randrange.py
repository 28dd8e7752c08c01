"""The seeded stream's randrange draws exactly what CPython's
Random.randrange draws from the same bits."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sigcalc.seeds import rng_for


class Reference(random.Random):
    """CPython's draws over a seeded stream's bits."""

    def __init__(self, stream):
        self.stream = stream

    def getrandbits(self, k):
        return self.stream.getrandbits(k)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**20), st.integers(-(2**70), 2**70), st.integers(1, 2**70))
def test_randrange_is_the_inherited_draw(index, start, width):
    fast, reference = rng_for(0, "range", index), Reference(rng_for(0, "range", index))
    for stop in (start + width, start + 1, start + width // 2 + 1):
        assert fast.randrange(start, stop) == reference.randrange(start, stop)
    # both streams stand at the same bit afterwards
    assert fast.getrandbits(64) == reference.getrandbits(64)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**20), st.integers(-(2**70), 2**70), st.integers(-(2**70), 0))
def test_an_empty_range_raises_as_inherited(index, start, width):
    fast, reference = rng_for(0, "range", index), Reference(rng_for(0, "range", index))
    with pytest.raises(ValueError):
        reference.randrange(start, start + width)
    with pytest.raises(ValueError):
        fast.randrange(start, start + width)
    assert fast.getrandbits(64) == reference.getrandbits(64)


def test_a_single_draw_is_the_reference_choice():
    # seq[randrange(0, len(seq))] is what Random.choice(seq) draws
    seq = list(range(100, 137))
    fast, reference = rng_for(2, "choice"), Reference(rng_for(2, "choice"))
    assert [seq[fast.randrange(0, len(seq))] for _ in range(50)] == \
        [reference.choice(seq) for _ in range(50)]


@pytest.mark.parametrize("args", [(10,), (2**70,), (0, 100, 7), (50, -50, -3), (0, 9, 1),
                                  (100, 0, -1), (3, 2**65, True)])
def test_other_call_forms_raise(args):
    rng = rng_for(1, "range")
    with pytest.raises(TypeError):
        rng.randrange(*args)
    # the refused call drew nothing
    assert rng.getrandbits(64) == rng_for(1, "range").getrandbits(64)
