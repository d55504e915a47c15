"""The benchmark's own checks must pass on real output and fail on a planted error.

Not part of the tier-1 suite (pytest's testpaths is ``tests``).  Run from
the repository root:

    python3 -m pytest bench/test_checks.py -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import json  # noqa: E402

import pytest  # noqa: E402

import otp_remctl as otp  # noqa: E402
from bench import checks  # noqa: E402
from bench.checks import CheckFailed  # noqa: E402
from bench.mitm import ManInTheMiddle  # noqa: E402
from bench.workloads import END_TO_END, REGISTRY, log_results, plaintexts, run_cli  # noqa: E402

BLOCKS = 400


def fly(mode=otp.CipherMode.FULL, hostile=False, n=300, seed=9):
    """A small seeded flight, observed the way the workloads observe theirs."""
    tx, rx = otp.charge(otp.SeededSource(5), mode.key_length, BLOCKS)
    keys = checks.SksImage(mode.key_length, BLOCKS, b"", tx.key_material).keys()
    names = [REGISTRY.names()[i * 7 % 5] for i in range(n)]
    controller, controlee = otp.Controller(tx), otp.Controlee(rx, registry=REGISTRY)
    channel = otp.Channel(otp.ChannelConfig(loss_prob=0.2, tamper_prob=0.1, rng_seed=3))
    link = ManInTheMiddle(channel, names, REGISTRY, seed) if hostile else channel
    log = otp.run_session(controller, controlee, [REGISTRY.lookup(x) for x in names], link)
    flight = checks.Flight(
        names=names,
        tap=[(r.frame, r.outcome.value) for r in channel.intercepts.records],
        results=log_results(log),
        controller_sent=controller.frames_sent, controller_consumed=tx.consumed_count,
        controlee_consumed=rx.consumed_count, controlee_accepted=controlee.accepted,
        controlee_discarded=controlee.discarded,
        substituted=getattr(link, "substituted", {}), forged_to=getattr(link, "forged_to", {}),
        addresses=getattr(link, "addresses", {}))
    plain = plaintexts(names)
    return flight, b"".join(f for f, _ in flight.tap), plain, keys


@pytest.mark.parametrize("mode", list(otp.CipherMode))
def test_clean_flight_passes(mode):
    flight, tap, plain, keys = fly(mode)
    checks.check_tap(tap, plain, keys, mode is otp.CipherMode.SELECTIVE)
    counts = checks.check_flight(flight)
    assert counts["dropped"] > 0 and counts["tampered"] > 0 and counts["forged_accepted"] == 0


def test_flipped_ciphertext_byte_fails():
    _, tap, plain, keys = fly()
    bad = bytearray(tap)
    bad[36 * 17 + 9] ^= 0x40
    with pytest.raises(CheckFailed, match="frame 17"):
        checks.check_tap(bytes(bad), plain, keys, selective=False)


def test_skipped_address_fails():
    _, tap, plain, keys = fly()
    bad = bytearray(tap)
    bad[36 * 5 + 35] += 1
    with pytest.raises(CheckFailed, match="advance by one"):
        checks.check_tap(bytes(bad), plain, keys, selective=False)


def test_accepted_name_differing_from_script_fails():
    flight, *_ = fly()
    seq = next(s for s, r in flight.results.items() if r[0] == "accepted")
    other = next(n for n in REGISTRY.names() if n != flight.names[seq])
    flight.results[seq] = ("accepted", other)
    with pytest.raises(CheckFailed, match=f"frame {seq}: executed"):
        checks.check_flight(flight)


@pytest.mark.parametrize("was, now", [("dropped", "delivered"), ("delivered", "tampered")])
def test_miscounted_channel_outcome_fails(was, now):
    flight, *_ = fly()
    seq = next(s for s, (_, o) in enumerate(flight.tap) if o == was)
    flight.tap[seq] = (flight.tap[seq][0], now)
    with pytest.raises(CheckFailed):
        checks.check_flight(flight)


def test_controlee_counter_off_by_one_fails():
    flight, *_ = fly()
    flight.controlee_discarded += 1
    with pytest.raises(CheckFailed, match="controlee counted"):
        checks.check_flight(flight)


@pytest.mark.parametrize("seed", range(4))
def test_hostile_forgeries_are_counted_not_rejected(seed):
    flight, tap, plain, keys = fly(otp.CipherMode.SELECTIVE, hostile=True, n=400, seed=seed)
    checks.check_tap(tap, plain, keys, selective=True)
    counts = checks.check_flight(flight)
    assert counts["forged_accepted"] == 400 // 20 * 2
    assert counts["substituted"] > counts["forged_accepted"]


def test_accepted_replay_fails():
    flight, *_ = fly(hostile=True)
    seq = next(s for s, k in flight.substituted.items() if k == "replay")
    flight.results[seq] = ("accepted", flight.names[seq])
    with pytest.raises(CheckFailed, match="replay frame executed"):
        checks.check_flight(flight)


def _series(data, max_lag):
    return otp.autocorrelation(otp.BitSequence.from_bytes(data), max_lag)


def test_autocorrelation_recomputed():
    data = checks.seeded_stream(7, 4096)
    series = _series(data, 100)
    checks.check_series(series.lags, series.values, checks.Bits(data))


def test_wrong_autocorrelation_at_one_lag_fails():
    data = checks.seeded_stream(7, 4096)
    series = _series(data, 100)
    values = series.values.copy()
    values[100 + 50] *= 1 + 1e-6
    values[100 - 50] *= 1 + 1e-6  # keep the series symmetric: only the recomputation can tell
    with pytest.raises(CheckFailed, match=r"c\(50\)"):
        checks.check_series(series.lags, values, checks.Bits(data))


def test_library_statistics_recomputed_and_planted_error_fails():
    data = checks.seeded_stream(8, 8192)
    bits = otp.BitSequence.from_bytes(data)
    freq, runs = otp.monobit_frequency(bits), otp.nist_runs(bits)
    balance, series = otp.golomb_balance(bits), _series(data, 10)
    checks.check_test_results(checks.Bits(data), freq, runs, balance, series)
    wrong = otp.TestResult(runs.test_name, runs.n, runs.statistic + 1, runs.p_value)
    with pytest.raises(CheckFailed, match="runs"):
        checks.check_test_results(checks.Bits(data), freq, wrong, balance, series)


def test_cli_report_recomputed_and_planted_error_fails(tmp_path):
    data = checks.seeded_stream(9, 12500)
    (tmp_path / "k.bin").write_bytes(data)
    code, stdout = run_cli(["randtest", "--input", tmp_path / "k.bin", "--max-lag", 200,
                            "--report", tmp_path / "r.csv", "--json", tmp_path / "r.json"])
    csv_text, json_text = (tmp_path / "r.csv").read_text(), (tmp_path / "r.json").read_text()
    rows = checks.report_rows(csv_text, json_text)
    failures = checks.check_report_rows(rows, checks.Bits(data), 200)
    checks.check_verdict_line(stdout, 5, failures)
    assert code == (3 if failures else 0)
    auto = next(row for row in rows if row["test"] == "autocorrelation")
    auto["statistic"] -= 0.005  # one lag more or less within bound than recomputed
    with pytest.raises(CheckFailed, match="autocorrelation within-bound"):
        checks.check_report_rows(rows, checks.Bits(data), 200)
    with pytest.raises(CheckFailed, match="row"):
        checks.report_rows(csv_text.replace("frequency,", "runs,", 1), json_text)


def test_store_file_checks(tmp_path):
    tx, _ = otp.charge(otp.SeededSource(4), 32, 100)
    tx.take_block(0)
    tx.save(tmp_path / "s.sks")
    data = (tmp_path / "s.sks").read_bytes()
    assert len(data) == checks.sks_size(32, 100)
    checks.check_store(tmp_path / "s.sks", 32, 100, checks.seeded_stream(4, 3200), consumed_prefix=1)
    with pytest.raises(CheckFailed, match="ledger"):
        checks.check_store(tmp_path / "s.sks", 32, 100, checks.seeded_stream(4, 3200))
    flipped = bytearray(data)
    flipped[100] ^= 1
    (tmp_path / "s.sks").write_bytes(bytes(flipped))
    with pytest.raises(CheckFailed, match="CRC"):
        checks.parse_sks(tmp_path / "s.sks")


def test_fresh_store_checked_in_pieces(tmp_path):
    n = 40_000  # 1.2 MiB of key material: more than one piece
    tx, _ = otp.charge(otp.SeededSource(4), 32, n)
    path = tmp_path / "s.sks"
    tx.save(path)
    checks.check_fresh_store(path, 32, n, 4, tx.key_material)
    assert checks.seeded_stream(4, 32 * n) == tx.key_material
    with pytest.raises(CheckFailed, match="loaded store"):
        checks.check_fresh_store(path, 32, n, 4, tx.key_material[:-1] + b"\0")
    data = bytearray(path.read_bytes())
    data[-100] ^= 1
    path.write_bytes(bytes(data))
    with pytest.raises(CheckFailed, match="source stream"):
        checks.check_fresh_store(path, 32, n, 4, tx.key_material)
    data[-100] ^= 1
    data[-1] ^= 1
    path.write_bytes(bytes(data))
    with pytest.raises(CheckFailed, match="CRC"):
        checks.check_fresh_store(path, 32, n, 4, tx.key_material)


def test_benchmark_json_lists_the_end_to_end_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
