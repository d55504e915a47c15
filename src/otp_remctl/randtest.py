"""Statistical randomness checks for key files and intercepted ciphertexts.

Implements the frequency (monobit) and runs tests with P-value reporting,
the three classical binary-sequence postulates (balance, geometric
run-length decay, delta-like autocorrelation), and the pass-proportion
bookkeeping used when a corpus is split into many sequences.

The runs and run-length tests walk the sequence in blocks of 2**16 bits,
so their working memory (~1 MB) does not grow with n.

Autocorrelation counts lag sums exactly: below 512 lags by XOR and popcount
of packed bits (``np.bitwise_count``, NumPy 2.0 or later), from 512 on by
one inverse FFT of summed block cross-spectra, rounded.  Either way every
C(t) is the correctly rounded quotient of the exact sum: the same floats.

Bits are always expanded from bytes MSB-first.  The complementary error
function is evaluated via ``math.erfc`` (the platform C library), which is
correctly rounded to well below the 1e-10 relative error the P-value
contract needs; its contract is pinned by tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadLength, OutOfRange

# Smallest sequence the NIST-style tests accept: SP 800-22 asks for 100
# bits, below which the normal approximations behind the P-values are poor.
MIN_TEST_BITS = 100

# The level of every P-value verdict and split pass-proportion interval, fixed
# so all report rows agree; NIST SP 800-22 Rev. 1a uses it in section 4.2.1.
ALPHA = 0.01


class BitSequence:
    """An ordered 0/1 sequence backed by a numpy uint8 array."""

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        arr = np.ascontiguousarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size < 1:
            raise ValueError("a bit sequence has at least one bit")
        if arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        self.bits = arr

    @classmethod
    def _of(cls, bits: np.ndarray) -> "BitSequence":
        """A sequence over ``bits``, a non-empty contiguous 1-D uint8 array
        already known to hold only 0 and 1, so not scanned again."""
        seq = object.__new__(cls)
        seq.bits = bits
        return seq

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitSequence":
        """Expand bytes to bits, most significant bit first."""
        if len(data) < 1:
            raise ValueError("need at least one byte")
        return cls._of(np.unpackbits(np.frombuffer(data, dtype=np.uint8)))

    def pieces(self, size: int) -> list["BitSequence"]:
        """The n // size consecutive ``size``-bit pieces, in order, as views;
        the tail shorter than ``size`` is left out."""
        if size < 1:
            raise ValueError(f"piece size must be positive, got {size}")
        return [self._of(self.bits[i:i + size]) for i in range(0, self.n - size + 1, size)]

    @property
    def n(self) -> int:
        return self.bits.size

    @property
    def ones(self) -> int:
        return int(np.count_nonzero(self.bits))

    def __len__(self) -> int:
        return self.bits.size


@dataclass(frozen=True)
class TestResult:
    """One statistical test's verdict; passes iff p_value >= ALPHA."""

    __test__ = False  # not a pytest case despite the name

    test_name: str
    n: int
    statistic: float
    p_value: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.p_value >= ALPHA


def _require_length(seq: BitSequence) -> None:
    if seq.n < MIN_TEST_BITS:
        raise BadLength(f"test needs at least {MIN_TEST_BITS} bits, got {seq.n}")


def monobit_frequency(seq: BitSequence) -> TestResult:
    """Frequency test: are ones and zeros balanced?

    statistic s = |#ones - #zeros| / sqrt(n),  P = erfc(s / sqrt(2)).
    """
    _require_length(seq)
    n = seq.n
    s = abs(2 * seq.ones - n) / math.sqrt(n)
    p = math.erfc(s / math.sqrt(2))
    return TestResult("frequency", n, s, p)


_RUN_BLOCK = 1 << 16  # positions compared at once by the run checks


def _run_bounds(bits: np.ndarray):
    """Per block of _RUN_BLOCK positions i in 1..n, its first i and the bool
    mask of the run bounds: bit i starts a run, or i = n ends the last one.
    Each run ends at exactly one bound, and no temporary outgrows a block."""
    n = bits.size
    for lo in range(1, n + 1, _RUN_BLOCK):
        end = min(lo + _RUN_BLOCK, n)
        mask = bits[lo:end] != bits[lo - 1:end - 1]
        yield lo, np.append(mask, True) if lo + _RUN_BLOCK > n else mask


def count_runs(seq: BitSequence) -> int:
    """Number of maximal same-bit blocks: the run bounds, counted a block at a time."""
    return sum(int(np.count_nonzero(mask)) for _, mask in _run_bounds(seq.bits))


def nist_runs(seq: BitSequence) -> TestResult:
    """Runs test: is the number of runs consistent with independence?

    With pi the ones-proportion and V the run count,
    P = erfc(|V - 2*n*pi*(1-pi)| / (2*sqrt(2n)*pi*(1-pi))).
    Requires |pi - 1/2| < 2/sqrt(n); otherwise the test is not applicable
    and reported as a failure with p = 0.
    """
    _require_length(seq)
    n = seq.n
    pi = seq.ones / n
    v = count_runs(seq)
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return TestResult("runs", n, float(v), 0.0,
                          note="not applicable: ones-proportion too far from 1/2")
    p = math.erfc(abs(v - 2.0 * n * pi * (1.0 - pi))
                  / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)))
    return TestResult("runs", n, float(v), p)


@dataclass(frozen=True)
class BalanceResult:
    """Ones-proportion, its absolute deviation from one half, and the verdict."""

    n: int
    ones: int
    proportion: float
    deviation: float

    @property
    def limit(self) -> float:
        """Four sigma of a fair coin's ones-proportion, sigma = 1/(2 sqrt(n))."""
        return 2.0 / math.sqrt(self.n)

    @property
    def passed(self) -> bool:
        return self.deviation <= self.limit


def golomb_balance(seq: BitSequence) -> BalanceResult:
    ones = seq.ones
    p = ones / seq.n
    return BalanceResult(seq.n, ones, p, abs(p - 0.5))


def run_length_histogram(seq: BitSequence) -> dict:
    """Histogram {run length: count} over all maximal runs, whose bounds
    count_runs counts: a block's, diffed from the bound before, add their
    bincount to one total.  np.flatnonzero is fastest over a bool mask."""
    counts, last = np.zeros(0, dtype=np.intp), 0  # last: where the open run starts
    for lo, mask in _run_bounds(seq.bits):
        bounds = np.flatnonzero(mask)  # offsets from lo
        if bounds.size:
            lengths = np.empty_like(bounds)
            lengths[0] = lo + bounds[0] - last
            np.subtract(bounds[1:], bounds[:-1], out=lengths[1:])
            total = np.bincount(lengths, minlength=counts.size)
            total[:counts.size] += counts
            counts, last = total, lo + int(bounds[-1])
    return {int(length): int(c) for length, c in enumerate(counts) if c}


@dataclass(frozen=True)
class RunLengthResult:
    """The geometric-decay verdict on a sequence's run lengths.

    For each checked length l, the fraction of runs of that length must
    lie within 2**-l +- 3*sqrt(2**-l * (1 - 2**-l) / R), R = total runs.
    Lengths 1 .. floor(log2(R)) - 2 are checked.  With fewer than 8 runs
    that range is empty (``max_checked == 0``) and the verdict is a fail:
    no length was checked.
    """

    total_runs: int
    max_checked: int
    geometric_ok: bool
    worst_excess: float  # largest |fraction - expected| / tolerance seen


def golomb_run_lengths(seq: BitSequence) -> RunLengthResult:
    _require_length(seq)
    histogram = run_length_histogram(seq)
    total = sum(histogram.values())
    max_checked = max(int(math.log2(total)) - 2, 0)
    ok = max_checked > 0
    worst = 0.0
    for length in range(1, max_checked + 1):
        expected = 2.0 ** -length
        tol = 3.0 * math.sqrt(expected * (1.0 - expected) / total)
        fraction = histogram.get(length, 0) / total
        excess = abs(fraction - expected) / tol
        worst = max(worst, excess)
        if excess > 1.0:
            ok = False
    return RunLengthResult(total, max_checked, ok, worst)


@dataclass
class AutocorrSeries:
    """Normalized autocorrelation over lags -T..T.

    C(0) is exactly 1 and C(-t) == C(t) by construction; values use the
    lag-corrected denominator n - |t|.  Passes when C(0) == 1 and at least
    99% of positive lags lie within 4 / sqrt(n - t).
    """

    n: int
    lags: np.ndarray
    values: np.ndarray

    @property
    def max_lag(self) -> int:
        return int(self.lags[-1])

    def c(self, tau: int) -> float:
        t = abs(int(tau))
        if t > self.max_lag:
            raise OutOfRange(f"lag {tau} outside computed range +-{self.max_lag}")
        return float(self.values[self.max_lag + t])

    def fraction_within_bound(self) -> float:
        """Fraction of positive lags with |C(t)| <= 4 / sqrt(n - t)."""
        taus = np.arange(1, self.max_lag + 1)
        bound = 4.0 / np.sqrt(self.n - taus)
        positive = self.values[self.max_lag + 1:]
        return float(np.count_nonzero(np.abs(positive) <= bound) / taus.size)

    @property
    def passed(self) -> bool:
        return self.c(0) == 1.0 and self.fraction_within_bound() >= 0.99


# Row k keeps the first k bits of a packed 64-bit word, in stream order.
_WORD_MASKS = np.packbits(np.tri(65, 64, -1, dtype=np.uint8), axis=1).view(np.uint64).ravel()


# From this lag count the FFT runs; at 1 Mbit its cost meets the XOR loop's.
_FFT_MIN_LAG = 512
_FFT_BATCH = 1 << 15  # samples transformed at once
_FFT_SPAN = 1 << 20  # samples summed before rounding


def _fft_lag_sums(bits: np.ndarray, max_lag: int) -> np.ndarray:
    """Exact S(t) = sum_i x_i x_{i+t}, t = 0..max_lag, x = 2b - 1, by FFT.

    With B = 2**ceil(log2(max_lag)), block a_k zero-padded to 2B has the
    spectrum A_k, the window [a_k, a_{k+1}] has A_k + (-1)**f * A_{k+1},
    and irfft(conj(A_k) times that)[t] is block k's share of S(t).  A span
    of P = max(2**20, B) samples sums P/B terms of modulus <= 2B**2 before
    rounding: float64 error ~2*P**2*2**-53, <= 2**-12 at any n if B <= 2**20.
    """
    block = 1 << (max_lag - 1).bit_length()
    step = max(1, _FFT_BATCH // block) * block  # a power of two: spans end on batch ends
    sign = np.resize([1.0, -1.0], block + 1)  # (-1)**f: a shift by B in 2B
    x = np.empty(step)
    sums = np.zeros(max_lag + 1, dtype=np.int64)
    acc, prev = np.zeros((2, block + 1), dtype=complex)  # prev: the block before
    for end in range(step, bits.size + step, step):
        chunk = bits[end - step:end]
        batch = x[:-(-chunk.size // block) * block]
        batch[chunk.size:] = 0.0
        np.multiply(chunk, 2.0, out=batch[:chunk.size])
        batch[:chunk.size] -= 1.0
        spec = np.fft.rfft(batch.reshape(-1, block), 2 * block, axis=1)
        acc += np.einsum("ij,ij->j", spec.view(float), spec.view(float)).reshape(-1, 2).sum(axis=1)
        acc += sign * ((spec[:-1].conj() * spec[1:]).sum(axis=0) + prev.conj() * spec[0])
        prev = spec[-1].copy()
        if end % _FFT_SPAN == 0 or end >= bits.size:
            sums += np.rint(np.fft.irfft(acc, 2 * block)[:max_lag + 1]).astype(np.int64)
            acc[:] = 0.0
    return sums


def autocorrelation(seq: BitSequence, max_lag: int) -> AutocorrSeries:
    """C(t) = (1/(n-|t|)) * sum_i x_i x_{i+|t|} with x = 2b - 1.

    Below _FFT_MIN_LAG lags, with D(t) the count of b_i != b_{i+t}, the sum
    is (n - t) - 2*D(t): the bits are packed once per offset r = 0..7, and
    lag t = 8q + r XORs copy 0 with copy r from byte q on and popcounts
    the 64-bit words, the last masked to the overlap.  From it on, the
    sums come from _fft_lag_sums.  Either sum is an exact integer, so each
    value is its correctly rounded quotient by n - t, the same float as a
    direct evaluation of the sum.
    """
    n = seq.n
    if not 0 < max_lag < n:
        raise OutOfRange(f"max_lag must be in (0, {n}), got {max_lag}")
    if max_lag >= _FFT_MIN_LAG:
        positive = _fft_lag_sums(seq.bits, max_lag) / np.arange(n, n - max_lag - 1, -1)
    else:
        # Padded so that every lag's word slice stays inside its copy.
        copies = np.zeros((8, 8 * (-(-n // 64)) + 8), dtype=np.uint8)
        for r in range(8):
            packed = np.packbits(seq.bits[r:])
            copies[r, :packed.size] = packed
        base = copies[0].view(np.uint64)
        positive = np.empty(max_lag + 1)
        positive[0] = 1.0
        for tau in range(1, max_lag + 1):
            q, r = divmod(tau, 8)
            overlap = n - tau
            words = -(-overlap // 64)
            diff = base[:words] ^ copies[r, q:q + 8 * words].view(np.uint64)
            diff[-1] &= _WORD_MASKS[overlap - 64 * (words - 1)]
            mismatches = int(np.bitwise_count(diff).sum())
            positive[tau] = (overlap - 2 * mismatches) / overlap
    lags = np.arange(-max_lag, max_lag + 1)
    values = np.concatenate((positive[:0:-1], positive))
    return AutocorrSeries(n, lags, values)


@dataclass(frozen=True)
class ProportionResult:
    """Pass proportion across sequences against its acceptance interval.

    The interval is (1 - ALPHA) +- 3*sqrt(ALPHA*(1 - ALPHA)/m).  Only its
    lower end is kept: a proportion above the interval is a clean sweep,
    not a failure.
    """

    m: int
    passed: int
    proportion: float
    lower: float

    @property
    def ok(self) -> bool:
        return self.proportion >= self.lower


def pass_proportion(results) -> ProportionResult:
    results = list(results)
    if not results:
        raise ValueError("need at least one result")
    m = len(results)
    passed = sum(1 for r in results if r.passed)
    lower = (1.0 - ALPHA) - 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / m)
    return ProportionResult(m, passed, passed / m, lower)


REPORT_FIELDS = ("test", "n", "statistic", "p_value", "alpha", "pass")


def report_row(test: str, n: int, statistic, p_value, alpha, passed: bool) -> dict:
    """One report row keyed by REPORT_FIELDS; None marks a value a check lacks."""
    return dict(zip(REPORT_FIELDS, (test, n, statistic, p_value, alpha, passed)))


def result_row(r: TestResult) -> dict:
    """A test result as a report row."""
    return report_row(r.test_name, r.n, r.statistic, r.p_value, ALPHA, r.passed)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def report_csv(rows) -> str:
    """CSV of report rows: None cells empty, floats .10g, booleans lowercase."""
    lines = [",".join(REPORT_FIELDS)]
    lines += [",".join(_csv_cell(row[k]) for k in REPORT_FIELDS) for row in rows]
    return "\n".join(lines) + "\n"


def autocorr_csv(series: AutocorrSeries) -> str:
    """CSV of the full symmetric series: tau, c."""
    lines = ["tau,c"]
    lines += [f"{tau},{c:.10g}" for tau, c in zip(series.lags.tolist(), series.values.tolist())]
    return "\n".join(lines) + "\n"
