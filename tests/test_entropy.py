import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otp_remctl.entropy import (
    EntropySource,
    FileSource,
    SeededSource,
    SystemSource,
    make_source,
)
from otp_remctl.errors import KeyExhausted


def test_zero_length_fill():
    assert SeededSource(42).fill(0) == b""


def test_seeded_fills_concatenate():
    src = SeededSource(42)
    a, b = src.fill(16), src.fill(16)
    assert a != b
    assert a + b == SeededSource(42).fill(32)


def test_equal_seeds_equal_streams():
    assert SeededSource(7).fill(1024) == SeededSource(7).fill(1024)


def test_negative_fill_rejected():
    with pytest.raises(ValueError):
        SeededSource(1).fill(-1)


def test_seed_must_fit_64_bits():
    SeededSource(2**64 - 1)
    with pytest.raises(ValueError):
        SeededSource(2**64)
    with pytest.raises(ValueError):
        SeededSource(-1)


@given(st.lists(st.integers(0, 5000), max_size=8), st.integers(0, 2**64 - 1))
@settings(max_examples=40)
def test_fill_depends_only_on_total_drawn(sizes, seed):
    chunks = SeededSource(seed)
    joined = b"".join(chunks.fill(k) for k in sizes)
    assert joined == SeededSource(seed).fill(sum(sizes))


class _ReferenceStream:
    """The documented seeded stream, stdlib only: successive
    ``random.Random(seed).randbytes(4096)`` draws, handed out in order."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.held = b""

    def fill(self, n: int) -> bytes:
        chunks, have = [self.held], len(self.held)
        while have < n:
            chunks.append(self.rng.randbytes(4096))
            have += 4096
        data = b"".join(chunks)
        out, self.held = data[:n], data[n:]
        return out


_MIB = 1 << 20  # 256 chunks: one numpy call's worth of words


@pytest.mark.parametrize("sizes", [
    [1, 4094, 1, 4096, 4097, 8191, 0, 4096],
    [_MIB, _MIB + 1, _MIB - 2, 3, _MIB + 4096],
    [3 * _MIB + 5, 2 * _MIB - 5],
], ids=["chunk-edges", "batch-edges", "megabytes"])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_fill_matches_successive_randbytes(seed, sizes):
    src, ref = SeededSource(seed), _ReferenceStream(seed)
    for n in sizes + [4096]:
        assert src.fill(n) == ref.fill(n)


def test_equal_seeded_sources_drawn_interleaved_each_give_the_stream():
    # Each source owns its generator: draws from one never advance the other.
    a, b = SeededSource(11), SeededSource(11)
    ref_a, ref_b = _ReferenceStream(11), _ReferenceStream(11)
    for n_a, n_b in [(1, 4097), (5000, 3), (0, 8190), (4096, 1), (12289, 4095)]:
        assert a.fill(n_a) == ref_a.fill(n_a)
        assert b.fill(n_b) == ref_b.fill(n_b)


def test_system_source_length_only():
    src = SystemSource()
    assert len(src.fill(64)) == 64


def test_file_source_replays_in_order(tmp_path):
    p = tmp_path / "keys.bin"
    p.write_bytes(bytes(range(8)))
    src = FileSource(p)
    assert src.fill(3) == bytes([0, 1, 2])
    assert src.fill(5) == bytes([3, 4, 5, 6, 7])


def test_base_source_draws_nothing():
    with pytest.raises(NotImplementedError):
        EntropySource().fill(1)


def test_file_source_exhaustion(tmp_path):
    p = tmp_path / "8bytes.bin"
    p.write_bytes(b"\x11" * 8)
    src = FileSource(p)
    with pytest.raises(KeyExhausted, match=r"8bytes\.bin: requested 9 bytes, only 8 remain$"):
        src.fill(9)
    # a failed draw consumes nothing
    assert src.fill(8) == b"\x11" * 8


def test_make_source_grammar(tmp_path):
    assert isinstance(make_source("system"), SystemSource)
    seeded = make_source("seeded:42")
    assert isinstance(seeded, SeededSource) and seeded.seed == 42
    p = tmp_path / "k.bin"
    p.write_bytes(b"\x00" * 4)
    assert isinstance(make_source(f"file:{p}"), FileSource)


@pytest.mark.parametrize("spec", ["", "nope", "seeded", "seeded:", "seeded:abc",
                                  "seeded:-1", "file:"])
def test_make_source_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        make_source(spec)


def _ones_proportion(data: bytes) -> float:
    return float(np.unpackbits(np.frombuffer(data, np.uint8)).mean())


def test_seeded_bit_balance():
    # 8e6 bits; 0.002 is about 4 sigma
    assert abs(_ones_proportion(SeededSource(0).fill(10**6)) - 0.5) <= 0.002


def test_system_bit_balance():
    assert abs(_ones_proportion(SystemSource().fill(10**6)) - 0.5) <= 0.002
