"""Checks of the program's outputs, computed apart from the program.

Nothing here calls into ``otp_remctl``.  Store files are read by the SKS
layout documented in the README, seeded key material is regenerated from
the documented SeededSource stream, ciphertexts are recomputed with numpy
XOR, and the statistics are recomputed from one big Python integer per
bit string with ``int.bit_count`` and ``math.erfc``.  Every failure raises
CheckFailed with the first discrepancy found.
"""

import csv
import io
import json
import math
import random
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WIRE_LEN = 36
FRAME_LEN = 32
SELECTIVE = slice(5, 28)
OUTCOMES = ("delivered", "dropped", "tampered")

_SKS_HEADER = struct.Struct(">4sHHI")
_STREAM_CHUNK = 4096
_REL = 1e-9  # reports print 10 significant digits


class CheckFailed(AssertionError):
    """A program output disagrees with its independent recomputation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL, abs_tol=1e-12)


# --------------------------------------------------------------- key stores

def sks_size(block_size: int, block_count: int) -> int:
    """File size by the documented formula: header, bitmap, material, CRC."""
    return _SKS_HEADER.size + (block_count + 7) // 8 + block_size * block_count + 4


@dataclass
class SksImage:
    block_size: int
    block_count: int
    bitmap: bytes
    material: bytes

    def keys(self) -> np.ndarray:
        """Key material as a (block_count, block_size) uint8 array."""
        return np.frombuffer(self.material, dtype=np.uint8).reshape(
            self.block_count, self.block_size)

    def consumed(self) -> int:
        return int.from_bytes(self.bitmap, "big").bit_count()


def parse_sks(path) -> SksImage:
    """Read a store file by the documented layout, checking size and CRC-32."""
    data = Path(path).read_bytes()
    require(len(data) >= _SKS_HEADER.size + 4, f"{path}: {len(data)} bytes, too short")
    magic, version, block_size, block_count = _SKS_HEADER.unpack_from(data)
    require(magic == b"SKS1" and version == 1, f"{path}: header {magic!r} v{version}")
    require(len(data) == sks_size(block_size, block_count),
            f"{path}: {len(data)} bytes, layout needs {sks_size(block_size, block_count)}")
    require(zlib.crc32(data[:-4]) == int.from_bytes(data[-4:], "big"),
            f"{path}: CRC-32 mismatch")
    bitmap_end = _SKS_HEADER.size + (block_count + 7) // 8
    return SksImage(block_size, block_count, data[_SKS_HEADER.size:bitmap_end],
                    data[bitmap_end:-4])


def seeded_chunks(seed: int, n: int, draws: int = 1):
    """The first ``n`` bytes of the documented SeededSource stream (successive
    4096-byte MT draws), yielded ``draws`` draws at a time."""
    rng = random.Random(seed)
    while n > 0:
        chunk = b"".join(rng.randbytes(_STREAM_CHUNK) for _ in range(draws))[:n]
        n -= len(chunk)
        yield chunk


def seeded_stream(seed: int, n: int) -> bytes:
    return b"".join(seeded_chunks(seed, n))


def check_store(path, block_size: int, block_count: int, material: bytes,
                consumed_prefix: int = 0) -> SksImage:
    """A saved store holds ``material`` and exactly blocks 0..consumed_prefix-1 burned."""
    image = parse_sks(path)
    require((image.block_size, image.block_count) == (block_size, block_count),
            f"{path}: geometry {image.block_size}x{image.block_count}, "
            f"expected {block_size}x{block_count}")
    require(image.material == material, f"{path}: key material differs from the source stream")
    ledger = int.from_bytes(image.bitmap, "big")
    width = 8 * len(image.bitmap)
    expected = ((1 << consumed_prefix) - 1) << (width - consumed_prefix)
    require(ledger == expected,
            f"{path}: ledger has {image.consumed()} burned blocks, "
            f"expected exactly blocks 0..{consumed_prefix - 1}")
    return image


def check_fresh_store(path, block_size: int, block_count: int, seed: int,
                      loaded: bytes) -> None:
    """``check_store`` for a store just charged from ``SeededSource(seed)``, read in
    1 MiB pieces so that checking a large store holds little memory.  ``loaded``
    is the key material of the store loaded back from ``path``."""
    path = Path(path)
    size = sks_size(block_size, block_count)
    require(path.stat().st_size == size,
            f"{path}: {path.stat().st_size} bytes, layout needs {size}")
    loaded = memoryview(loaded)
    with path.open("rb") as f:
        head = f.read(_SKS_HEADER.size)
        require(_SKS_HEADER.unpack(head) == (b"SKS1", 1, block_size, block_count),
                f"{path}: header {_SKS_HEADER.unpack(head)}")
        bitmap = f.read((block_count + 7) // 8)
        require(not any(bitmap), f"{path}: a fresh store has burned blocks")
        crc = zlib.crc32(head + bitmap)
        offset = 0
        for chunk in seeded_chunks(seed, block_size * block_count, 256):
            got = f.read(len(chunk))
            require(got == chunk, f"{path}: key material differs from the source stream "
                    f"in bytes {offset}..{offset + len(chunk) - 1}")
            require(loaded[offset:offset + len(chunk)] == chunk,
                    f"{path}: loaded store differs from the charged one")
            crc = zlib.crc32(got, crc)
            offset += len(chunk)
        require(f.read() == crc.to_bytes(4, "big"), f"{path}: CRC-32 mismatch")


# ------------------------------------------------------------------ flights

def check_tap(frames: bytes, plaintexts: np.ndarray, keys: np.ndarray,
              selective: bool) -> None:
    """Every tapped frame is plaintext XOR key at its address; addresses count up from 0."""
    require(len(frames) % WIRE_LEN == 0, f"tap is {len(frames)} bytes, not whole frames")
    wire = np.frombuffer(frames, dtype=np.uint8).reshape(-1, WIRE_LEN)
    n = wire.shape[0]
    require(n == plaintexts.shape[0], f"tap has {n} frames, script sent {plaintexts.shape[0]}")
    addresses = wire[:, FRAME_LEN:].astype(np.int64) @ np.array([1 << 24, 1 << 16, 1 << 8, 1])
    step = np.flatnonzero(addresses != np.arange(n))
    require(step.size == 0, f"frame {step[0] if step.size else 0} carries address "
            f"{addresses[step[0]] if step.size else 0}; addresses must advance by one")
    require(n <= keys.shape[0], f"{n} frames but only {keys.shape[0]} key blocks")
    expected = plaintexts.copy()
    if selective:
        expected[:, SELECTIVE] ^= keys[:n]
    else:
        expected ^= keys[:n]
    bad = np.flatnonzero((wire[:, :FRAME_LEN] != expected).any(axis=1))
    require(bad.size == 0, f"frame {bad[0] if bad.size else 0}: payload is not "
            "plaintext XOR the key block at its address")


@dataclass
class Flight:
    """One flight as the benchmark observed it.

    ``tap`` holds (frame, outcome) per frame as the channel's tap logged it;
    ``results`` maps the seq of every frame that reached the controlee to
    ("accepted", name) or ("discarded", reason); ``substituted`` maps seq to
    the attacker's substitution ("replay", "plaintext", "forgery") and
    ``forged_to``/``addresses`` give a forgery's target name and the address
    of each substituted frame.
    """

    names: list
    tap: list
    results: dict
    controller_sent: int
    controller_consumed: int
    controlee_consumed: int
    controlee_accepted: int
    controlee_discarded: int
    substituted: dict = field(default_factory=dict)
    forged_to: dict = field(default_factory=dict)
    addresses: dict = field(default_factory=dict)


def check_flight(f: Flight) -> dict:
    """Conservation and execution checks; returns the outcome counts.

    ``counts["forged_accepted"]`` is the number of forgeries the controlee
    executed: operations that failed, not check failures.
    """
    n = len(f.names)
    require(len(f.tap) == n == f.controller_sent,
            f"tap {len(f.tap)} frames, script {n}, controller sent {f.controller_sent}")
    require(f.controller_consumed == n,
            f"controller consumed {f.controller_consumed} blocks for {n} frames")
    channel = {o: 0 for o in OUTCOMES}
    for seq, (_, outcome) in enumerate(f.tap):
        require(outcome in channel, f"frame {seq}: tap outcome {outcome!r}")
        channel[outcome] += 1
    require(sum(channel.values()) == n, "tap outcomes do not add up to frames sent")

    final = {o: 0 for o in OUTCOMES}
    final["substituted"] = 0
    reached = []
    forged_accepted = 0
    for seq in range(n):
        kind = f.substituted.get(seq) or f.tap[seq][1]
        final["substituted" if seq in f.substituted else kind] += 1
        if kind == "dropped":
            require(seq not in f.results, f"frame {seq} was dropped yet reached the controlee")
            continue
        require(seq in f.results, f"frame {seq} ({kind}) never reached the controlee")
        reached.append(f.addresses.get(seq, seq))
        verdict, detail = f.results[seq]
        if verdict == "accepted":
            if kind == "delivered":
                require(detail == f.names[seq],
                        f"frame {seq}: executed {detail!r}, script says {f.names[seq]!r}")
            elif kind == "forgery":
                require(detail == f.forged_to[seq],
                        f"frame {seq}: forgery executed as {detail!r}, "
                        f"forged to {f.forged_to[seq]!r}")
                forged_accepted += 1
            else:
                raise CheckFailed(f"frame {seq}: {kind} frame executed as {detail!r}")
        else:
            require(kind != "delivered", f"frame {seq}: intact delivery discarded ({detail})")
    require(sum(final.values()) == n,
            "sent != delivered + dropped + tampered + substituted")
    require(len(f.results) == len(reached),
            f"controlee saw {len(f.results)} frames, link passed on {len(reached)}")
    require(f.controlee_accepted + f.controlee_discarded == len(reached),
            f"controlee counted {f.controlee_accepted} accepted + "
            f"{f.controlee_discarded} discarded for {len(reached)} frames")
    expected_consumed = max(reached) + 1 if reached else 0
    require(f.controlee_consumed == expected_consumed,
            f"controlee consumed {f.controlee_consumed} blocks, highest address "
            f"received + 1 is {expected_consumed}")
    counts = dict(final)
    counts["received"] = len(reached)
    counts["accepted"] = sum(1 for v, _ in f.results.values() if v == "accepted")
    counts["validation_failed"] = sum(1 for r in f.results.values()
                                      if r == ("discarded", "validation_failed"))
    counts["forged_accepted"] = forged_accepted
    return counts


# --------------------------------------------------------------- statistics

class Bits:
    """A bit string (MSB first) held as one Python integer."""

    def __init__(self, data: bytes) -> None:
        require(len(data) > 0, "no bytes to test")
        self.n = 8 * len(data)
        self.x = int.from_bytes(data, "big")
        self.ones = self.x.bit_count()
        self._c = {}

    def _disagreements(self, lag: int) -> int:
        return ((self.x ^ (self.x >> lag)) & ((1 << (self.n - lag)) - 1)).bit_count()

    def frequency(self):
        s = abs(2 * self.ones - self.n) / math.sqrt(self.n)
        return s, math.erfc(s / math.sqrt(2))

    def runs(self):
        n = self.n
        pi = self.ones / n
        v = 1 + self._disagreements(1)
        if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
            return v, 0.0
        return v, math.erfc(abs(v - 2.0 * n * pi * (1.0 - pi))
                            / (2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)))

    def balance(self) -> float:
        return abs(self.ones / self.n - 0.5)

    def autocorr(self, lag: int) -> float:
        """C(t) = sum x_i x_{i+t} / (n - t) with x = 2b - 1: agreements minus disagreements."""
        if lag not in self._c:
            self._c[lag] = (self.n - lag - 2 * self._disagreements(lag)) / (self.n - lag)
        return self._c[lag]

    def fraction_within_bound(self, max_lag: int, k: float = 4.0) -> float:
        inside = sum(1 for t in range(1, max_lag + 1)
                     if abs(self.autocorr(t)) <= k / math.sqrt(self.n - t))
        return inside / max_lag


def check_p(p: float, what: str) -> None:
    require(0.0 <= p <= 1.0, f"{what}: p = {p} outside [0, 1]")


def check_series(lags, values, bits: Bits) -> None:
    """Autocorrelation series: c(0) = 1, symmetric, and equal to the recomputation at every lag."""
    lags = [int(t) for t in lags]
    values = [float(c) for c in values]
    max_lag = lags[-1]
    require(lags == list(range(-max_lag, max_lag + 1)), "autocorrelation lags not -T..T")
    require(values[max_lag] == 1.0, f"c(0) = {values[max_lag]}, must be 1")
    require(values == values[::-1], "autocorrelation series is not symmetric")
    for t in range(1, max_lag + 1):
        expected = bits.autocorr(t)
        require(close(values[max_lag + t], expected),
                f"c({t}) = {values[max_lag + t]!r}, recomputed {expected!r}")


def check_test_results(bits: Bits, freq, runs, balance, series) -> None:
    """Library randtest results against the recomputation."""
    s, p = bits.frequency()
    require(freq.n == bits.n and close(freq.statistic, s) and close(freq.p_value, p),
            f"frequency s={freq.statistic!r} p={freq.p_value!r}, recomputed s={s!r} p={p!r}")
    v, p = bits.runs()
    require(runs.statistic == v and close(runs.p_value, p),
            f"runs V={runs.statistic!r} p={runs.p_value!r}, recomputed V={v} p={p!r}")
    check_p(freq.p_value, "frequency")
    check_p(runs.p_value, "runs")
    require(balance.ones == bits.ones and close(balance.deviation, bits.balance()),
            f"balance ones={balance.ones}, recomputed {bits.ones}")
    check_series(series.lags, series.values, bits)


# --------------------------------------------------------------- CLI output

def report_rows(csv_text: str, json_text: str) -> list:
    """CSV and JSON reports must carry the same rows; returns them as dicts."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    doc = json.loads(json_text)
    require(len(rows) == len(doc), f"CSV has {len(rows)} rows, JSON {len(doc)}")
    for i, (row, obj) in enumerate(zip(rows, doc)):
        require(row["test"] == obj["test"] and int(row["n"]) == obj["n"]
                and row["pass"] == str(obj["pass"]).lower(), f"report row {i} differs")
        for key in ("statistic", "p_value", "alpha"):
            if obj[key] is None:
                require(row[key] == "", f"report row {i}: {key} CSV {row[key]!r}, JSON null")
            else:
                require(close(float(row[key]), obj[key]), f"report row {i}: {key} differs")
    return doc


def check_report_rows(rows: list, bits: Bits, max_lag: int, alpha: float = 0.01) -> int:
    """Whole-input rows against the recomputation; returns the failed-check count."""
    failures = 0
    for row in rows:
        name = row["test"]
        require(row["n"] == bits.n, f"{name}: n={row['n']}, input has {bits.n} bits")
        if name == "frequency":
            s, p = bits.frequency()
            require(close(row["statistic"], s) and close(row["p_value"], p),
                    f"frequency row {row}, recomputed s={s!r} p={p!r}")
        elif name == "runs":
            v, p = bits.runs()
            require(row["statistic"] == v and close(row["p_value"], p),
                    f"runs row {row}, recomputed V={v} p={p!r}")
        elif name == "balance":
            require(close(row["statistic"], bits.balance()), f"balance row {row}")
            require(row["pass"] == (bits.balance() <= 2.0 / math.sqrt(bits.n)),
                    f"balance verdict {row}")
        elif name == "run_lengths":
            require(row["statistic"] >= 0 and row["pass"] == (row["statistic"] <= 1.0),
                    f"run-length verdict {row}")
        elif name == "autocorrelation":
            fraction = bits.fraction_within_bound(max_lag)
            require(close(row["statistic"], fraction),
                    f"autocorrelation within-bound {row['statistic']!r}, recomputed {fraction!r}")
            require(row["pass"] == (fraction >= 0.99), f"autocorrelation verdict {row}")
        else:
            raise CheckFailed(f"unexpected report row {name!r}")
        if row["p_value"] is not None:
            check_p(row["p_value"], name)
            require(row["pass"] == (row["p_value"] >= alpha), f"{name}: verdict {row}")
        failures += not row["pass"]
    return failures


def check_split_rows(rows: list, data: bytes, bits_per_seq: int, alpha: float = 0.01) -> int:
    """Split-sequence rows (as ``--split-bits`` reports them): every sequence's
    frequency row, the frequency proportion row, then the same for runs."""
    step = bits_per_seq // 8
    seqs = [Bits(data[i * step:(i + 1) * step]) for i in range(8 * len(data) // bits_per_seq)]
    m = len(seqs)
    require(len(rows) == 2 * (m + 1), f"split report has {len(rows)} rows for {m} sequences")
    failures = 0
    for block, name, stat in ((rows[:m + 1], "frequency", Bits.frequency),
                              (rows[m + 1:], "runs", Bits.runs)):
        passed = 0
        for i, (row, b) in enumerate(zip(block[:m], seqs)):
            value, p = stat(b)
            require(row["test"] == name and row["n"] == bits_per_seq
                    and close(row["statistic"], value) and close(row["p_value"], p),
                    f"split {name} row {i}: {row}, recomputed {value!r} p={p!r}")
            check_p(row["p_value"], f"split {name} row {i}")
            passed += p >= alpha
        summary = block[m]
        margin = 3.0 * math.sqrt(alpha * (1.0 - alpha) / m)
        ok = passed / m >= (1.0 - alpha) - margin
        require(summary["test"] == f"{name}_proportion" and summary["n"] == m
                and close(summary["statistic"], passed / m) and summary["pass"] == ok,
                f"{name} proportion row {summary}, recomputed {passed}/{m}")
        failures += not ok
    return failures


def check_verdict_line(stdout: str, checks: int, failures: int) -> None:
    last = stdout.strip().splitlines()[-1]
    expected = (f"{failures} of {checks} checks failed" if failures
                else f"all {checks} checks passed")
    require(last == expected, f"randtest said {last!r}, recomputed {expected!r}")


def read_corpus(path, first_seq: int = 0):
    """Corpus frames and its sidecar, read by the documented formats."""
    blob = Path(path).read_bytes()
    require(len(blob) % WIRE_LEN == 0, f"{path}: {len(blob)} bytes, not whole frames")
    lines = Path(str(path) + ".idx").read_text().splitlines()
    require(len(lines) == len(blob) // WIRE_LEN,
            f"{path}: {len(lines)} sidecar lines for {len(blob) // WIRE_LEN} frames")
    outcomes = []
    for k, line in enumerate(lines):
        seq, offset, outcome = line.split(",")
        require(int(seq) == first_seq + k and int(offset) == k * WIRE_LEN and outcome in OUTCOMES,
                f"{path}.idx line {k}: {line!r}")
        outcomes.append(outcome)
    return blob, outcomes


def corpus_ciphertext(blob: bytes, selective: bool) -> bytes:
    wire = np.frombuffer(blob, dtype=np.uint8).reshape(-1, WIRE_LEN)
    return (wire[:, SELECTIVE] if selective else wire[:, :FRAME_LEN]).tobytes()


def session_summary(stdout: str) -> dict:
    """Counters from the simulate/intercept-export summary lines."""
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    consumed = fields["keys consumed"].replace(",", "").split()
    return {
        "sent": int(fields["frames sent"]),
        "dropped": int(fields["dropped"]),
        "tampered": int(fields["tampered"]),
        "accepted": int(fields["accepted"]),
        "discarded": int(fields["discarded"]),
        "controller_consumed": int(consumed[1]),
        "controlee_consumed": int(consumed[3]),
    }
