"""End-to-end acceptance checks for the whole stack.

One test per criterion; each prints a single pass/fail line (visible with
-v plus -s, or in captured output).  Workloads with stated time budgets
measure and assert them.
"""

import random
import time

import numpy as np
import pytest
import scipy.stats

from otp_remctl.channel import Channel, ChannelConfig, extract_ciphertext
from otp_remctl.entropy import SeededSource
from otp_remctl.errors import (
    BadMagic,
    ChecksumMismatch,
    KeyReused,
    OutOfRange,
    TruncatedFile,
)
from otp_remctl.frame import (
    CipherMode,
    encode_command,
    otp_decrypt,
    otp_encrypt,
    standard_registry,
    validate_frame,
)
from otp_remctl.keystore import SksStore, charge
from otp_remctl.protocol import Controlee, Controller, DiscardReason, run_session
from otp_remctl import randtest as rt

REG = standard_registry()

# The five stock command rows, byte for byte (independent transcription).
TABLE_ROWS = {
    "Connection": bytes([36, 77, 60, 16, 105, 221, 5, 221, 5, 219, 5, 220, 5,
                         220, 5, 220, 5, 221, 5, 0, 0, 166, 0, 0, 0, 0, 0, 0,
                         221, 255, 223, 255]),
    "Backward": bytes([36, 77, 60, 16, 105, 221, 5, 221, 5, 219, 5, 232, 3,
                       221, 5, 220, 5, 221, 5, 0, 0, 149, 0, 0, 0, 0, 0, 0,
                       221, 191, 215, 255]),
    "Turn Left": bytes([36, 77, 60, 16, 105, 221, 5, 220, 5, 234, 3, 219, 5,
                        220, 5, 220, 5, 221, 5, 0, 0, 168, 0, 0, 0, 0, 0, 0,
                        221, 255, 215, 255]),
    "Turn Right": bytes([36, 77, 60, 16, 105, 221, 5, 221, 5, 208, 7, 219, 5,
                         220, 5, 221, 5, 220, 5, 0, 0, 168, 0, 0, 0, 0, 0, 0,
                         221, 255, 215, 255]),
    "Forward": bytes([36, 77, 60, 16, 105, 220, 5, 220, 5, 220, 5, 208, 7,
                      220, 5, 219, 5, 221, 5, 0, 0, 168, 0, 0, 0, 0, 0, 0,
                      221, 255, 215, 255]),
}


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" {detail}" if detail else ""
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_bits():
    """Ciphered bits eavesdropped off 39063 encryptions of one command."""
    frames = 39_063  # 100 sequences of 1e5 bits need 1.25e6 ciphered bytes
    tx, _ = charge(SeededSource(13), 32, frames)
    ctrl = Controller(tx)
    tap = Channel(ChannelConfig(rng_seed=0))
    cmd = REG.lookup("Connection")
    for _ in range(frames):
        tap.transmit(ctrl.send(cmd).to_bytes())
    blob = extract_ciphertext(tap.intercepts, CipherMode.FULL)[:1_250_000]
    return rt.BitSequence.from_bytes(blob)


def test_criterion_01_otp_roundtrip_property():
    rng = random.Random(101)
    t0 = time.perf_counter()
    checked = 0
    for mode, klen in ((CipherMode.FULL, 32), (CipherMode.SELECTIVE, 23)):
        for i in range(10_000):
            frame = encode_command(
                tuple(rng.randrange(65536) for _ in range(7)),
                rng.randbytes(9), rng.randbytes(4))
            key = rng.randbytes(klen)
            wire = otp_encrypt(frame, key, i, mode)
            plain = otp_decrypt(wire, key, mode)
            assert plain == frame.data
            assert validate_frame(plain)
            checked += 1
    dt = time.perf_counter() - t0
    _verdict(1, "otp roundtrip", checked == 20_000 and dt < 5.0,
             f"({checked} pairs, {dt:.2f}s)")


def test_criterion_02_command_table_fidelity():
    encoded = b"".join(REG.lookup(name).data for name in TABLE_ROWS)
    expected = b"".join(TABLE_ROWS.values())
    mismatches = sum(a != b for a, b in zip(encoded, expected))
    _verdict(2, "command table fidelity",
             len(encoded) == len(expected) == 160 and mismatches == 0,
             f"({len(encoded)} bytes, {mismatches} mismatches)")


def test_criterion_03_synchronization_under_loss():
    n = 10_000
    tx, rx = charge(SeededSource(1), 32, n)
    ctrl, clee = Controller(tx), Controlee(rx)
    script = [REG.lookup(REG.names()[i % 5]) for i in range(n)]
    t0 = time.perf_counter()
    log = run_session(ctrl, clee, script,
                      ChannelConfig(loss_prob=0.2, rng_seed=0))
    dt = time.perf_counter() - t0
    delivered = log.events("delivered")
    accepted = {r.seq: r for r in log.events("accepted")}
    desync = 0
    for rec in delivered:
        got = accepted.get(rec.seq)
        if got is None or got.data != script[rec.seq].data:
            desync += 1
    ledgers_equal = (tx.consumed_count == rx.consumed_count == n
                     and tx.consumed_bitmap() == rx.consumed_bitmap())
    ok = (len(delivered) == len(accepted) and desync == 0
          and ledgers_equal and dt < 10.0)
    _verdict(3, "synchronization under loss", ok,
             f"({len(delivered)} delivered, {desync} desync, "
             f"ledgers_equal={ledgers_equal}, {dt:.2f}s)")


def test_criterion_04_immunity():
    n = 100_000
    t0 = time.perf_counter()
    tx, rx = charge(SeededSource(11), 32, n)
    ctrl, clee = Controller(tx), Controlee(rx)
    jam = Channel(ChannelConfig(tamper_prob=1.0, rng_seed=3))
    cmd = REG.lookup("Connection")
    tampered_accepts = 0
    for _ in range(n):
        out = clee.receive(jam.transmit(ctrl.send(cmd).to_bytes()).data)
        tampered_accepts += out.accepted
    _, rx2 = charge(SeededSource(12), 32, n)
    clee2 = Controlee(rx2)
    plain_accepts = 0
    for i in range(n):
        plain_accepts += clee2.receive(cmd.data + i.to_bytes(4, "big")).accepted
    dt = time.perf_counter() - t0
    ok = tampered_accepts == 0 and plain_accepts == 0 and dt < 30.0
    _verdict(4, "tamper and plaintext immunity", ok,
             f"({tampered_accepts} + {plain_accepts} accepts "
             f"in 2x{n} frames, {dt:.2f}s)")


def test_criterion_05_replay_defense():
    n = 1000
    tx, rx = charge(SeededSource(21), 32, n)
    ctrl, clee = Controller(tx), Controlee(rx)
    wires = []
    for i in range(n):
        wire = ctrl.send(REG.lookup(REG.names()[i % 5])).to_bytes()
        assert clee.receive(wire).accepted
        wires.append(wire)
    stale = sum(clee.receive(w).reason is DiscardReason.REPLAY_OR_STALE
                for w in wires)
    _verdict(5, "replay defense", stale == n, f"({stale}/{n} rejected as stale)")


def test_criterion_06_ciphertext_randomness_proportions(corpus_bits):
    seqs = [rt.BitSequence(corpus_bits.bits[k * 100_000:(k + 1) * 100_000])
            for k in range(100)]
    freq = rt.pass_proportion([rt.monobit_frequency(s) for s in seqs])
    runs = rt.pass_proportion([rt.nist_runs(s) for s in seqs])
    ok = freq.proportion >= 0.96 and runs.proportion >= 0.96
    _verdict(6, "ciphertext randomness proportions", ok,
             f"(freq {freq.proportion:.2f}, runs {runs.proportion:.2f}, "
             f"floor 0.96)")


def test_criterion_07_ciphertext_autocorrelation(corpus_bits):
    seq = rt.BitSequence(corpus_bits.bits[:1_000_000])
    series = rt.autocorrelation(seq, 1000)
    frac = series.fraction_within_bound(4.0)
    ok = series.c(0) == 1.0 and frac >= 0.99
    _verdict(7, "ciphertext autocorrelation", ok,
             f"(c0={series.c(0):g}, {100 * frac:.2f}% of lags in bound)")


def test_criterion_08_golomb_postulates(corpus_bits):
    seq = rt.BitSequence(corpus_bits.bits[:1_000_000])
    bal = rt.golomb_balance(seq)
    rl = rt.golomb_run_lengths(seq)
    ok = bal.deviation <= 0.002 and rl.geometric_ok
    _verdict(8, "balance and run lengths", ok,
             f"(deviation {bal.deviation:.6f}, "
             f"run lengths 1..{rl.max_checked} in bounds: {rl.geometric_ok})")


def test_criterion_09_sks_persistence(tmp_path):
    rng = random.Random(99)
    p = tmp_path / "s.sks"
    exact = 0
    trials = 1000
    for trial in range(trials):
        block_size = 32 if rng.random() < 0.5 else 23
        count = rng.randrange(1, 40)
        store, _ = charge(SeededSource(trial), block_size, count)
        for _ in range(rng.randrange(0, 8)):
            if rng.random() < 0.6:
                try:
                    store.take_block(rng.randrange(count + 2))
                except (KeyReused, OutOfRange):
                    pass
            else:
                store.discard_through(rng.randrange(count + 2))
        store.save(p)
        exact += SksStore.load(p) == store
    store, _ = charge(SeededSource(7), 32, 8)
    store.save(p)
    raw = p.read_bytes()
    caught = []
    for mutated, expected in (
            (b"XXXX" + raw[4:], BadMagic),
            (raw[:len(raw) // 2], TruncatedFile),
            (raw[:40] + bytes([raw[40] ^ 0xFF]) + raw[41:], ChecksumMismatch)):
        p.write_bytes(mutated)
        try:
            SksStore.load(p)
        except expected:
            caught.append(expected.__name__)
    ok = exact == trials and len(caught) == 3
    _verdict(9, "store persistence", ok,
             f"({exact}/{trials} roundtrips exact, errors: {', '.join(caught)})")


def test_criterion_10_p_value_calibration():
    pvals = []
    for seed in range(1000):
        bits = rt.BitSequence.from_bytes(SeededSource(seed).fill(12_500))
        pvals.append(rt.monobit_frequency(bits).p_value)
    ks = scipy.stats.kstest(pvals, "uniform")
    ok = ks.pvalue >= 0.001
    _verdict(10, "p-value calibration", ok,
             f"(KS statistic {ks.statistic:.4f}, p {ks.pvalue:.4f}, "
             f"alpha 0.001)")
