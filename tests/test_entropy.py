import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otp_remctl.entropy import (
    FileSource,
    SeededSource,
    SystemSource,
    make_source,
)
from otp_remctl.errors import ExhaustedSource


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


def test_bits_emitted_counts_bits():
    src = SeededSource(3)
    src.fill(10)
    src.fill(5)
    assert src.bits_emitted == 120


def test_system_source_length_only():
    src = SystemSource()
    assert len(src.fill(64)) == 64
    assert src.bits_emitted == 512


def test_file_source_replays_in_order(tmp_path):
    p = tmp_path / "keys.bin"
    p.write_bytes(bytes(range(8)))
    src = FileSource(p)
    assert src.fill(3) == bytes([0, 1, 2])
    assert src.fill(5) == bytes([3, 4, 5, 6, 7])


def test_file_source_exhaustion(tmp_path):
    p = tmp_path / "8bytes.bin"
    p.write_bytes(b"\x11" * 8)
    src = FileSource(p)
    with pytest.raises(ExhaustedSource):
        src.fill(9)
    # a failed draw consumes nothing
    assert src.fill(8) == b"\x11" * 8


def test_dump_length_and_determinism(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    SeededSource(7).dump(1024, p1)
    SeededSource(7).dump(1024, p2)
    assert p1.stat().st_size == 1024
    assert p1.read_bytes() == p2.read_bytes()


def test_dump_continues_the_stream(tmp_path):
    p = tmp_path / "tail.bin"
    src = SeededSource(9)
    src.fill(100)
    src.dump(64, p)
    fresh = SeededSource(9)
    fresh.fill(100)
    assert p.read_bytes() == fresh.fill(64)


def test_dump_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        SeededSource(7).dump(16, tmp_path / "missing" / "a.bin")


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
