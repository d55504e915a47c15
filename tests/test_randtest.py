import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otp_remctl import randtest
from otp_remctl.entropy import SeededSource
from otp_remctl.errors import BadLength, OutOfRange
from otp_remctl.randtest import (
    BitSequence,
    autocorr_csv,
    autocorrelation,
    count_runs,
    golomb_balance,
    golomb_run_lengths,
    monobit_frequency,
    nist_runs,
    pass_proportion,
    report_csv,
    report_row,
    result_row,
    run_length_histogram,
    TestResult,
)

ALTERNATING = BitSequence(np.tile([0, 1], 500))


def _seeded_bits(seed: int, nbytes: int) -> BitSequence:
    return BitSequence.from_bytes(SeededSource(seed).fill(nbytes))


def test_bit_sequence_construction():
    seq = BitSequence([0, 1, 1])
    assert seq.n == 3 and seq.ones == 2 and len(seq) == 3
    with pytest.raises(ValueError):
        BitSequence([])
    with pytest.raises(ValueError):
        BitSequence([0, 2])
    with pytest.raises(ValueError):
        BitSequence([[0, 1]])


def test_from_bytes_is_msb_first():
    seq = BitSequence.from_bytes(b"\x80\x01")
    assert seq.bits.tolist() == [1, 0, 0, 0, 0, 0, 0, 0,
                                 0, 0, 0, 0, 0, 0, 0, 1]
    with pytest.raises(ValueError):
        BitSequence.from_bytes(b"")


@pytest.mark.parametrize("size", [1, 3, 8, 15, 16, 17])
def test_pieces_are_the_whole_slices_in_order(size):
    seq = BitSequence.from_bytes(b"\xa5\x0f")
    pieces = seq.pieces(size)
    assert [p.bits.tolist() for p in pieces] == [
        seq.bits[i * size:(i + 1) * size].tolist() for i in range(seq.n // size)]
    assert all(type(p) is BitSequence and p.bits.flags.c_contiguous
               and np.shares_memory(p.bits, seq.bits) for p in pieces)
    with pytest.raises(ValueError, match="piece size must be positive"):
        seq.pieces(0)


def test_monobit_alternating_passes():
    r = monobit_frequency(ALTERNATING)
    assert r.statistic == 0.0 and r.p_value == 1.0 and r.passed


def test_monobit_all_ones_fails():
    r = monobit_frequency(BitSequence(np.ones(1000, dtype=np.uint8)))
    assert r.statistic == pytest.approx(math.sqrt(1000))
    assert r.p_value < 1e-9 and not r.passed


def test_monobit_hand_oracle():
    bits = np.zeros(100, dtype=np.uint8)
    bits[:58] = 1
    r = monobit_frequency(BitSequence(bits))
    assert r.statistic == pytest.approx(1.6)
    assert r.p_value == pytest.approx(0.1096, abs=5e-5)
    assert r.passed


def test_monobit_too_short():
    with pytest.raises(BadLength, match=r"^test needs at least 100 bits, got 98$"):
        monobit_frequency(BitSequence([0, 1] * 49))


def test_count_runs():
    assert count_runs(BitSequence([1, 0, 0, 1, 1, 0, 1, 0, 1, 1])) == 7
    assert count_runs(BitSequence([0, 0, 0])) == 1
    assert count_runs(ALTERNATING) == 1000


def test_runs_alternating_fails():
    r = nist_runs(ALTERNATING)
    assert r.statistic == 1000.0
    assert r.p_value < 1e-9 and not r.passed


def test_runs_nist_example():
    # NIST SP 800-22 Rev. 1a, section 2.3.8: the first 100 bits of the
    # binary expansion of pi have 42 ones, V = 52 and P-value = 0.500798.
    seq = BitSequence([int(c) for c in
                       "11001001000011111101101010100010001000010110100011"
                       "00001000110100110001001100011001100010100010111000"])
    assert int(seq.bits.sum()) == 42
    r = nist_runs(seq)
    assert r.statistic == 52.0
    assert r.p_value == pytest.approx(0.500798, abs=5e-7)


def test_runs_not_applicable_when_biased():
    bits = np.zeros(1000, dtype=np.uint8)
    bits[:900] = 1
    r = nist_runs(BitSequence(bits))
    assert r.p_value == 0.0 and not r.passed
    assert "not applicable" in r.note


def test_runs_too_short():
    with pytest.raises(BadLength, match=r"^test needs at least 100 bits, got 20$"):
        nist_runs(BitSequence([1, 0] * 10))


def test_runs_passes_seeded_streams():
    # expected pass rate 0.99; 100 seeds, 3 sigma around the binomial mean
    passed = sum(nist_runs(_seeded_bits(seed, 125_000)).passed
                 for seed in range(100))
    assert passed >= 96


def test_balance_examples():
    assert golomb_balance(ALTERNATING).proportion == 0.5
    zeros = golomb_balance(BitSequence(np.zeros(8, dtype=np.uint8)))
    assert zeros.proportion == 0.0 and zeros.deviation == 0.5


def test_balance_complement_identity():
    # ciphering with an all-ones key complements every bit
    row = bytes([36, 77, 60, 16, 105, 221, 5, 221, 5, 219, 5, 220, 5,
                 220, 5, 220, 5, 221, 5, 0, 0, 166, 0, 0, 0, 0, 0, 0,
                 221, 255, 223, 255])
    plain = BitSequence.from_bytes(row)
    cipher = BitSequence.from_bytes(bytes(b ^ 0xFF for b in row))
    assert np.array_equal(cipher.bits, 1 - plain.bits)
    assert golomb_balance(cipher).proportion == \
        pytest.approx(1.0 - golomb_balance(plain).proportion)


def test_balance_verdict_is_four_sigma():
    # 1000 bits: limit 2/sqrt(1000) ~ 0.0632, i.e. 437..563 ones pass
    assert golomb_balance(ALTERNATING).limit == 2.0 / math.sqrt(1000)
    for ones, passed in ((500, True), (563, True), (564, False), (1000, False)):
        bits = BitSequence(np.arange(1000) < ones)
        assert golomb_balance(bits).passed is passed


def test_run_length_histogram_examples():
    assert run_length_histogram(ALTERNATING) == {1: 1000}
    r = golomb_run_lengths(ALTERNATING)
    assert not r.geometric_ok
    blocks = BitSequence(np.tile([0, 0, 1, 1], 250))
    assert run_length_histogram(blocks) == {2: 500}
    assert not golomb_run_lengths(blocks).geometric_ok


def test_run_length_too_short():
    with pytest.raises(BadLength, match=r"^test needs at least 100 bits, got 3$"):
        golomb_run_lengths(BitSequence([0, 1, 0]))


def test_run_length_fails_when_it_checks_no_length():
    # 800 zeros then 800 ones: 2 runs, fewer than the 8 that length 1 needs
    r = golomb_run_lengths(BitSequence.from_bytes(bytes(100) + b"\xff" * 100))
    assert (r.total_runs, r.max_checked, r.worst_excess) == (2, 0, 0.0)
    assert r.geometric_ok is False


def test_run_length_seeded_stream_passes():
    bits = _seeded_bits(6, 125_000)
    r = golomb_run_lengths(bits)
    assert r.geometric_ok
    assert r.max_checked == int(math.log2(r.total_runs)) - 2
    assert sum(run_length_histogram(bits).values()) == r.total_runs


# Tiny blocks put many block edges, and runs spanning several blocks, in
# a few thousand bits; the module's own block covers the common case.
_RUN_BLOCKS = [8, 64, randtest._RUN_BLOCK]


def _check_histogram_is_exact(raw, block):
    """run_length_histogram against a pure-Python groupby, key order included,
    and count_runs against the bits unlike the one before, in blocks of ``block``."""
    seq = BitSequence(raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randtest, "_RUN_BLOCK", block)
        histogram = run_length_histogram(seq)
        runs = count_runs(seq)
    reference = Counter(len(list(run)) for _, run in itertools.groupby(raw))
    assert list(histogram.items()) == sorted(reference.items())
    assert runs == sum(histogram.values())
    assert runs == np.count_nonzero(seq.bits[1:] != seq.bits[:-1]) + 1
    assert sum(length * c for length, c in histogram.items()) == seq.n


@st.composite
def _bit_lists(draw):
    """1..4000 bits: coin flips of a drawn bias, or drawn runs repeated to
    length (a repeat whose runs number odd merges its first and last run)."""
    n = draw(st.integers(1, 4000))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return (rng.random(n) < draw(st.floats(0, 1))).astype(np.uint8).tolist()
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=50))
    first = draw(st.integers(0, 1))
    period = [(first + i) % 2 for i, length in enumerate(lengths) for _ in range(length)]
    return (period * -(-n // len(period)))[:n]


@given(_bit_lists(), st.sampled_from(_RUN_BLOCKS))
@settings(max_examples=150, deadline=None)
def test_run_length_histogram_equals_groupby_on_drawn_bits(raw, block):
    _check_histogram_is_exact(raw, block)


# Blocks cover positions 1..n, so n = k*B ends a block on the last bit,
# n = k*B - 1 one short of it, and n = k*B + 1 puts the end of the last run
# alone in a block.  Runs B long sit on or one off the block edges.
_EDGE_CASES = {
    "one-0": lambda b: [0],
    "one-1": lambda b: [1],
    "all-0": lambda b: [0] * 4000,
    "all-1": lambda b: [1] * 37,
    "alternating": lambda b: [0, 1] * 2000,
    "alternating-odd": lambda b: [1, 0] * 7 + [1],
    "first-flipped": lambda b: [1] + [0] * 3999,
    "last-flipped": lambda b: [0] * 3999 + [1],
    "first-flipped-short": lambda b: [0] + [1] * 99,
    "last-flipped-short": lambda b: [1] * 99 + [0],
    "all-equal-kB-1": lambda b: [1] * (3 * b - 1),
    "all-equal-kB": lambda b: [0] * (3 * b),
    "all-equal-kB+1": lambda b: [1] * (3 * b + 1),
    "runs-of-B-kB-1": lambda b: [0] * (b - 1) + [1] * b + [0] * b,
    "runs-of-B-kB": lambda b: [0] * b + [1] * b + [0] * b,
    "runs-of-B-kB+1": lambda b: [1] * (b + 1) + [0] * b + [1] * b,
    "seeded-kB-1": lambda b: _PATTERNS["seeded"](3 * b - 1).tolist(),
    "seeded-kB": lambda b: _PATTERNS["seeded"](3 * b).tolist(),
    "seeded-kB+1": lambda b: _PATTERNS["seeded"](3 * b + 1).tolist(),
}


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_run_length_histogram_equals_groupby_on_edge_cases(case):
    for block in _RUN_BLOCKS:
        _check_histogram_is_exact(_EDGE_CASES[case](block), block)


@pytest.mark.parametrize("nbytes", [125_000, 1_000_000], ids=["1-mbit", "8-mbit"])
@pytest.mark.parametrize("check", [golomb_run_lengths, nist_runs], ids=lambda f: f.__name__)
def test_run_checks_memory_is_bounded_by_block(check, nbytes):
    seq = _seeded_bits(10, nbytes)
    tracemalloc.start()
    try:
        check(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def test_autocorrelation_normalization():
    series = autocorrelation(_seeded_bits(1, 500), 20)
    assert series.c(0) == 1.0


def test_autocorrelation_alternating():
    series = autocorrelation(ALTERNATING, 2)
    assert series.c(1) == pytest.approx(-1.0)
    assert series.c(2) == pytest.approx(1.0)


def test_autocorrelation_is_symmetric():
    series = autocorrelation(_seeded_bits(2, 200), 50)
    for tau in (1, 17, 50):
        assert series.c(-tau) == series.c(tau)
    assert series.lags.tolist() == list(range(-50, 51))


def test_autocorrelation_lag_bounds():
    seq = _seeded_bits(3, 100)
    with pytest.raises(OutOfRange, match=r"^max_lag must be in \(0, 800\), got 0$"):
        autocorrelation(seq, 0)
    with pytest.raises(OutOfRange, match=r"^max_lag must be in \(0, 800\), got 800$"):
        autocorrelation(seq, 800)
    series = autocorrelation(seq, 10)
    with pytest.raises(OutOfRange, match=r"^lag 11 outside computed range \+-10$"):
        series.c(11)


def test_autocorrelation_seeded_stream_is_delta_like():
    seq = _seeded_bits(4, 12_500)
    series = autocorrelation(seq, 100)
    assert series.fraction_within_bound() >= 0.99


def test_autocorrelation_verdict():
    assert autocorrelation(_seeded_bits(4, 12_500), 100).passed
    assert not autocorrelation(ALTERNATING, 100).passed  # C(t) = +-1


def _dot_autocorrelation(bits: np.ndarray, max_lag: int) -> np.ndarray:
    """The defining per-lag dot product; products are +-1, so it is exact."""
    n = bits.size
    x = bits.astype(np.float64) * 2.0 - 1.0
    positive = np.empty(max_lag + 1)
    positive[0] = 1.0
    for tau in range(1, max_lag + 1):
        positive[tau] = np.dot(x[:-tau], x[tau:]) / (n - tau)
    return np.concatenate((positive[:0:-1], positive))


_PATTERNS = {
    "seeded": lambda n: BitSequence.from_bytes(SeededSource(n).fill(-(-n // 8))).bits[:n],
    "ones": lambda n: np.ones(n, dtype=np.uint8),
    "alternating": lambda n: np.arange(n, dtype=np.uint8) % 2,
}


# n below 8, below 64, every n mod 8, and with max_lag = n - 1 every lag
# that is a multiple of 8 or 64 along with its neighbours on both sides.
@pytest.mark.parametrize("n", list(range(2, 18)) + [63, 64, 65, 127, 128, 129, 517, 1031])
@pytest.mark.parametrize("pattern", sorted(_PATTERNS))
def test_autocorrelation_equals_dot_product_at_every_lag(n, pattern):
    bits = _PATTERNS[pattern](n)
    series = autocorrelation(BitSequence(bits), n - 1)
    assert np.array_equal(series.values, _dot_autocorrelation(bits, n - 1))


def test_autocorrelation_equals_dot_product_on_a_long_sequence():
    bits = _seeded_bits(6, 12_501).bits[:100_003]
    series = autocorrelation(BitSequence(bits), 300)
    assert np.array_equal(series.values, _dot_autocorrelation(bits, 300))


@given(st.lists(st.integers(0, 1), min_size=2, max_size=400), st.data())
@settings(max_examples=200, deadline=None)
def test_autocorrelation_equals_dot_product_on_drawn_bits(raw, data):
    bits = np.array(raw, dtype=np.uint8)
    max_lag = data.draw(st.integers(1, bits.size - 1))
    series = autocorrelation(BitSequence(bits), max_lag)
    assert np.array_equal(series.values, _dot_autocorrelation(bits, max_lag))


_SWITCH = randtest._FFT_MIN_LAG  # lag count from which the FFT runs


def _check_autocorrelation_is_exact(bits, max_lag):
    series = autocorrelation(BitSequence(bits), max_lag)
    assert np.array_equal(series.values, _dot_autocorrelation(bits, max_lag))


# max_lag on both sides of the switch and at n - 1; n below the FFT block
# (n < 1024 at max_lag >= 513) and n not a multiple of it are both drawn.
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_autocorrelation_is_exact_across_the_method_switch(data):
    n = data.draw(st.integers(2, 5000), label="n")
    max_lag = data.draw(st.one_of(
        st.just(n - 1),
        st.integers(1, n - 1),
        st.integers(min(_SWITCH - 2, n - 1), min(_SWITCH + 1, n - 1)),
    ), label="max_lag")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    bits = (rng.random(n) < data.draw(st.floats(0, 1))).astype(np.uint8)
    _check_autocorrelation_is_exact(bits, max_lag)


# All-ones and alternating bits give |S(t)| = n - t, the largest sums.
@pytest.mark.parametrize("max_lag", [_SWITCH - 1, _SWITCH, 1000])
@pytest.mark.parametrize("pattern", sorted(_PATTERNS))
def test_autocorrelation_is_exact_on_either_side_of_the_switch(pattern, max_lag):
    _check_autocorrelation_is_exact(_PATTERNS[pattern](100_003), max_lag)


# Small batches and spans put many of each in a short sequence, one block
# per span at the largest lag.
@pytest.mark.parametrize("max_lag", [_SWITCH, 1000, 2100, 9000])
def test_fft_lag_sums_are_exact_across_batches_and_spans(monkeypatch, max_lag):
    monkeypatch.setattr(randtest, "_FFT_BATCH", 1 << 11)
    monkeypatch.setattr(randtest, "_FFT_SPAN", 1 << 13)
    _check_autocorrelation_is_exact(_PATTERNS["seeded"](20_011), max_lag)


@pytest.mark.parametrize("max_lag, limit", [(1000, 4 << 20), (20_000, 8 << 20)],
                         ids=["lags-1000", "lags-20000-under-a-float-copy"])
def test_autocorrelation_memory_is_bounded_by_batch(max_lag, limit):
    seq = _seeded_bits(9, 125_000)
    tracemalloc.start()
    try:
        autocorrelation(seq, max_lag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


def test_pass_proportion_examples():
    all_pass = [TestResult("frequency", 100, 0.0, 0.5) for _ in range(20)]
    p = pass_proportion(all_pass)
    assert p.proportion == 1.0 and p.ok
    none_pass = [TestResult("frequency", 100, 9.9, 0.0) for _ in range(20)]
    p = pass_proportion(none_pass)
    assert p.proportion == 0.0 and not p.ok


def test_pass_proportion_acceptance_bound():
    results = [TestResult("frequency", 100, 0.0, 0.5) for _ in range(100)]
    p = pass_proportion(results)
    assert p.lower == pytest.approx(0.960150, abs=1e-6)


def test_pass_proportion_guards():
    with pytest.raises(ValueError):
        pass_proportion([])


def test_erfc_contract():
    assert math.erfc(0.0) == 1.0
    grid = np.linspace(-6.0, 6.0, 121)
    for x in grid:
        assert abs(math.erfc(x) + math.erf(x) - 1.0) <= 1e-10
    values = [math.erfc(x) for x in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # Strictness only holds where 2 - erfc(x) is still resolvable in float64.
    inner = [math.erfc(x) for x in np.linspace(-5.0, 5.0, 101)]
    assert all(a > b for a, b in zip(inner, inner[1:]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_monobit_and_runs_agree_on_ones_count(seed):
    seq = _seeded_bits(seed, 200)
    r = monobit_frequency(seq)
    expected = abs(2 * seq.ones - seq.n) / math.sqrt(seq.n)
    assert r.statistic == pytest.approx(expected)
    assert 0.0 <= r.p_value <= 1.0


def test_results_csv_format():
    rows = report_csv(map(result_row, [TestResult("frequency", 100, 1.6, 0.1096)]))
    lines = rows.strip().splitlines()
    assert lines[0] == "test,n,statistic,p_value,alpha,pass"
    assert lines[1].startswith("frequency,100,1.6,0.1096,0.01,true")


def test_autocorr_csv_format():
    series = autocorrelation(BitSequence([0, 1, 0, 1, 0, 1, 0, 1]), 1)
    lines = autocorr_csv(series).strip().splitlines()
    assert lines[0] == "tau,c"
    assert lines[1] == "-1,-1"
    assert lines[2] == "0,1"
    assert lines[3] == "1,-1"


def test_report_csv_leaves_none_cells_empty():
    rows = [report_row("balance", 800, 0.25, None, None, True)]
    assert report_csv(rows).splitlines() == [
        "test,n,statistic,p_value,alpha,pass",
        "balance,800,0.25,,,true",
    ]


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.001, 0.123456, 1e-05, 0.5, 1.0])
def test_results_csv_alpha_keeps_its_six_digit_format(alpha):
    rows = [report_row("frequency", 100, 1.6, 0.1096, alpha, True),
            report_row("runs", 100, 51.0, 0.9, alpha, False)]
    # Whatever level a row records, its alpha cell reads as :g, which .10g
    # reproduces up to six significant digits.
    expected = "test,n,statistic,p_value,alpha,pass\n" + "".join(
        f"{r['test']},{r['n']},{r['statistic']:.10g},{r['p_value']:.10g},"
        f"{alpha:g},{str(r['pass']).lower()}\n" for r in rows)
    assert report_csv(rows) == expected
