import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sigcalc
from sigcalc.seeds import rng_for

SRC = Path(sigcalc.__file__).resolve().parent.parent


def test_known_answers():
    # literal values: a change to the stream changes every seeded search
    assert rng_for(0, "relation", 0).randrange(1, 10**6) == 875781
    assert rng_for(0, "relation", 0).getrandbits(64) == 11840792381148192004


def test_bits_are_the_digest_then_the_counter_blocks():
    key = hashlib.sha256(b"3/descent/17").digest()
    blocks = [key] + [hashlib.sha256(key + n.to_bytes(8, "big")).digest() for n in (1, 2)]
    stream = sum(int.from_bytes(block, "big") << (256 * i) for i, block in enumerate(blocks))
    rng = rng_for(3, "descent", 17)
    # draws take the stream's bits lowest first, across block boundaries
    assert [rng.getrandbits(k) for k in (100, 200, 300)] == \
        [stream & (2**100 - 1), (stream >> 100) & (2**200 - 1), (stream >> 300) & (2**300 - 1)]


@pytest.mark.parametrize("k", [0, 1, 63, 64, 255, 256, 257, 1000])
def test_getrandbits_has_k_bits(k):
    rng = rng_for(1, "bits", k)
    values = [rng.getrandbits(k) for _ in range(50)]
    assert all(0 <= v < 2**k for v in values)
    if k >= 63:
        assert max(values).bit_length() > k - 8  # the top bits are used too


def test_negative_bit_count_raises():
    with pytest.raises(ValueError):
        rng_for(0, "bits").getrandbits(-1)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**20), st.integers(-(2**70), 2**70), st.integers(1, 2**70))
def test_randrange_stays_in_bounds(index, start, width):
    rng = rng_for(0, "range", index)
    for _ in range(5):
        assert start <= rng.randrange(start, start + width) < start + width


def test_the_stream_has_only_its_two_draws():
    # no stdlib draw code reads the stream, so it cannot differ by Python version
    rng = rng_for(5, "draws")
    for name in ("choice", "sample", "shuffle", "random", "gauss", "seed", "getstate"):
        with pytest.raises(AttributeError):
            getattr(rng, name)
    with pytest.raises(AttributeError):
        rng.extra = 1  # slotted: no per-stream dict
    assert rng.getrandbits(64) == rng_for(5, "draws").getrandbits(64)


def test_stream_ignores_the_hash_seed():
    # any hash-seeded state leaking into the stream would differ here
    code = ("from sigcalc.seeds import rng_for\n"
            "r = rng_for(7, 'relation', 'x', 3)\n"
            "print([r.randrange(1, 10**6) for _ in range(20)], r.getrandbits(300))\n")
    outputs = set()
    for hash_seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1


def test_a_derived_stream_cannot_be_reseeded():
    rng = rng_for(0, "relation", 0)
    with pytest.raises(AttributeError):
        rng.seed(1)
    assert rng.getrandbits(64) == 11840792381148192004
