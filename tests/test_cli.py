import gc
import json

import pytest

from otp_remctl.cli import REGISTRY_ENV, demo_end_to_end, run
from otp_remctl.frame import CommandRegistry, standard_registry
from otp_remctl.keystore import SksStore


def _charge(tmp_path, blocks=64, mode="full", seed=1):
    a = tmp_path / "a.sks"
    b = tmp_path / "b.sks"
    assert run(["charge", "--source", f"seeded:{seed}",
                "--blocks", str(blocks), "--mode", mode,
                "--controller", str(a), "--controlee", str(b)]) == 0
    return a, b


def _script(tmp_path, names):
    p = tmp_path / "fly.cmds"
    p.write_text("\n".join(names) + "\n")
    return p


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert run(["teleport"]) == 1


def test_bad_flag_value_is_usage_error(capsys):
    assert run(["simulate", "--controller", "a", "--controlee", "b",
                "--script", "s", "--loss", "1.5"]) == 1
    assert run(["gen-keys", "--source", "quantum", "--bytes", "8",
                "--out", "x"]) == 1
    assert run(["randtest", "--input", "x", "--tests", "freq,sparkle"]) == 1


def test_gen_keys_writes_deterministic_file(tmp_path):
    p1, p2 = tmp_path / "k1.bin", tmp_path / "k2.bin"
    assert run(["gen-keys", "--source", "seeded:9", "--bytes", "4096",
                "--out", str(p1)]) == 0
    assert run(["gen-keys", "--source", "seeded:9", "--bytes", "4096",
                "--out", str(p2)]) == 0
    assert p1.stat().st_size == 4096
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_keys_missing_dir_is_runtime_error(tmp_path, capsys):
    code = run(["gen-keys", "--source", "seeded:9", "--bytes", "16",
                "--out", str(tmp_path / "no" / "dir" / "k.bin")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_charge_builds_matched_stores(tmp_path):
    a, b = _charge(tmp_path, blocks=100)
    sa, sb = SksStore.load(a), SksStore.load(b)
    assert sa.key_material == sb.key_material
    assert sa.block_count == 100 and sa.block_size == 32
    assert sa.consumed_count == sb.consumed_count == 0


def test_file_source_commands_leave_no_open_file(tmp_path):
    # Under the suite's error::ResourceWarning filter, a file handle left
    # open by either command fails this test when it is collected.
    keys = tmp_path / "keys.bin"
    keys.write_bytes(bytes(range(256)) * 16)
    copy = tmp_path / "copy.bin"
    assert run(["gen-keys", "--source", f"file:{keys}", "--bytes", "1024",
                "--out", str(copy)]) == 0
    assert copy.read_bytes() == keys.read_bytes()[:1024]
    a, b = tmp_path / "a.sks", tmp_path / "b.sks"
    assert run(["charge", "--source", f"file:{keys}", "--blocks", "64",
                "--controller", str(a), "--controlee", str(b)]) == 0
    assert SksStore.load(b).key_material == keys.read_bytes()[:2048]
    gc.collect()


def test_charge_selective_mode(tmp_path):
    a, _ = _charge(tmp_path, mode="selective")
    assert SksStore.load(a).block_size == 23


def test_simulate_is_deterministic(tmp_path):
    a, b = _charge(tmp_path)
    script = _script(tmp_path, ["Connection", "Forward", "Backward"] * 10)
    logs = []
    for name in ("s1.log", "s2.log"):
        a2, b2 = _charge(tmp_path)  # fresh stores each run
        p = tmp_path / name
        assert run(["simulate", "--controller", str(a2), "--controlee", str(b2),
                    "--script", str(script), "--loss", "0.2", "--seed", "9",
                    "--log", str(p)]) == 0
        logs.append(p.read_bytes())
    assert logs[0] == logs[1]


def test_simulate_unknown_command_is_runtime_error(tmp_path, capsys):
    a, b = _charge(tmp_path)
    script = _script(tmp_path, ["Hover"])
    assert run(["simulate", "--controller", str(a), "--controlee", str(b),
                "--script", str(script)]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_simulate_missing_store_is_runtime_error(tmp_path):
    script = _script(tmp_path, ["Connection"])
    assert run(["simulate", "--controller", str(tmp_path / "nope.sks"),
                "--controlee", str(tmp_path / "nope2.sks"),
                "--script", str(script)]) == 2


def test_registry_env_var_is_used(tmp_path, monkeypatch, capsys):
    reg = CommandRegistry()
    reg.add("Linkup", standard_registry().lookup("Connection"))
    regfile = tmp_path / "own.reg"
    reg.save(regfile)
    monkeypatch.setenv(REGISTRY_ENV, str(regfile))
    a, b = _charge(tmp_path)
    script = _script(tmp_path, ["Linkup"])
    assert run(["simulate", "--controller", str(a), "--controlee", str(b),
                "--script", str(script)]) == 0
    out = capsys.readouterr().out
    assert "accepted         : 1" in out


def test_registry_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv(REGISTRY_ENV, str(tmp_path / "does-not-exist.reg"))
    reg = CommandRegistry()
    reg.add("Linkup", standard_registry().lookup("Connection"))
    regfile = tmp_path / "own.reg"
    reg.save(regfile)
    a, b = _charge(tmp_path)
    script = _script(tmp_path, ["Linkup"])
    assert run(["simulate", "--controller", str(a), "--controlee", str(b),
                "--script", str(script), "--registry", str(regfile)]) == 0


def test_randtest_all_zeros_fails_with_exit_3(tmp_path, capsys):
    p = tmp_path / "zeros.bin"
    p.write_bytes(bytes(2048))
    code = run(["randtest", "--input", str(p), "--tests", "freq,runs,autocorr",
                "--alpha", "0.01", "--report", str(tmp_path / "out.csv")])
    assert code == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    report = (tmp_path / "out.csv").read_text().splitlines()
    assert report[0] == "test,n,statistic,p_value,alpha,pass"
    assert any(line.startswith("frequency,16384,128,") for line in report)


def test_randtest_seeded_keys_pass(tmp_path):
    keys = tmp_path / "keys.bin"
    assert run(["gen-keys", "--source", "seeded:42", "--bytes", "125000",
                "--out", str(keys)]) == 0
    assert run(["randtest", "--input", str(keys),
                "--tests", "freq,runs,balance,runlen,autocorr"]) == 0


def test_randtest_split_mode(tmp_path, capsys):
    keys = tmp_path / "keys.bin"
    assert run(["gen-keys", "--source", "seeded:42", "--bytes", "125000",
                "--out", str(keys)]) == 0
    assert run(["randtest", "--input", str(keys), "--tests", "freq,runs",
                "--split-bits", "100000"]) == 0
    out = capsys.readouterr().out
    assert "sequences passed" in out


def test_randtest_split_rows_are_pinned(tmp_path, capsys):
    keys = tmp_path / "keys.bin"
    assert run(["gen-keys", "--source", "seeded:42", "--bytes", "125000",
                "--out", str(keys)]) == 0
    csv, js = tmp_path / "r.csv", tmp_path / "r.json"
    assert run(["randtest", "--input", str(keys), "--tests", "freq,runs",
                "--split-bits", "250000", "--report", str(csv),
                "--json", str(js)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "frequency : 4/4 sequences passed (proportion 1.0000, acceptance >= 0.8408) pass",
        "runs      : 4/4 sequences passed (proportion 1.0000, acceptance >= 0.8408) pass",
        "all 2 checks passed",
    ]
    assert csv.read_text().splitlines() == [
        "test,n,statistic,p_value,alpha,pass",
        "frequency,250000,0.936,0.3492731877,0.01,true",
        "frequency,250000,0.02,0.9840433726,0.01,true",
        "frequency,250000,0.412,0.6803394232,0.01,true",
        "frequency,250000,0.008,0.9936169916,0.01,true",
        "frequency_proportion,4,1,,0.01,true",
        "runs,250000,125438,0.07947192464,0.01,true",
        "runs,250000,125123,0.6227187774,0.01,true",
        "runs,250000,125152,0.5429620623,0.01,true",
        "runs,250000,124687,0.2105699105,0.01,true",
        "runs_proportion,4,1,,0.01,true",
    ]
    rows = json.loads(js.read_text())
    assert [(r["test"], r["n"], r["pass"]) for r in rows] == (
        [("frequency", 250000, True)] * 4 + [("frequency_proportion", 4, True)]
        + [("runs", 250000, True)] * 4 + [("runs_proportion", 4, True)])
    assert rows[4] == {"test": "frequency_proportion", "n": 4, "statistic": 1.0,
                       "p_value": None, "alpha": 0.01, "pass": True}


def test_randtest_split_larger_than_input_is_runtime_error(tmp_path):
    p = tmp_path / "small.bin"
    p.write_bytes(bytes(64))
    assert run(["randtest", "--input", str(p), "--tests", "freq",
                "--split-bits", "100000"]) == 2


def test_randtest_json_and_autocorr_outputs(tmp_path):
    keys = tmp_path / "keys.bin"
    run(["gen-keys", "--source", "seeded:3", "--bytes", "50000",
         "--out", str(keys)])
    jout = tmp_path / "r.json"
    aout = tmp_path / "ac.csv"
    assert run(["randtest", "--input", str(keys), "--tests", "freq,autocorr",
                "--max-lag", "200", "--json", str(jout),
                "--autocorr-out", str(aout)]) == 0
    assert jout.read_text().startswith("[")
    assert aout.read_text().splitlines()[0] == "tau,c"
    assert len(aout.read_text().splitlines()) == 402  # header + lags -200..200


def test_intercept_export_and_corpus_randtest(tmp_path):
    a, b = _charge(tmp_path, blocks=4000, seed=13)
    script = _script(tmp_path, ["Forward"] * 3907)
    corpus = tmp_path / "corpus.bin"
    assert run(["intercept-export", "--controller", str(a),
                "--controlee", str(b), "--script", str(script),
                "--seed", "4", "--out", str(corpus)]) == 0
    assert corpus.stat().st_size == 3907 * 36
    idx = (tmp_path / "corpus.bin.idx").read_text().splitlines()
    assert len(idx) == 3907
    assert run(["randtest", "--input", str(corpus), "--format", "corpus-full",
                "--tests", "freq,balance,autocorr"]) == 0


def test_demo_output(tmp_path, capsys):
    csv = tmp_path / "demo.csv"
    assert run(["demo", "--seed", "7", "--out", str(csv)]) == 0
    out = capsys.readouterr().out
    # five commands, one plain row each, five cipher rows each
    assert out.count("plain      :") == 5
    assert out.count("cipher[") == 25
    assert "addresses consumed in order: 0..24" in out
    lines = csv.read_text().splitlines()
    assert len(lines) == 51  # header + 25 plain + 25 cipher
    plain_rows = {line.split(",", 4)[4] for line in lines[1:]
                  if line.split(",")[3] == "plain"
                  and line.split(",")[0] == "Connection"}
    assert len(plain_rows) == 1  # identical across repetitions


def test_demo_function_is_reusable(tmp_path):
    assert demo_end_to_end(seed=7, out=tmp_path / "d.csv") == 0
