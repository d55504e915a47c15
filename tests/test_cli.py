import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import otp_remctl
from otp_remctl import cli, randtest as rt
from otp_remctl.channel import Channel, ChannelConfig, TamperModel
from otp_remctl.cli import demo_end_to_end, main, run
from otp_remctl.entropy import SeededSource
from otp_remctl.frame import CommandRegistry, standard_registry
from otp_remctl.keystore import SksStore
from otp_remctl.protocol import Controlee, Controller, SessionLog, run_session


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


@pytest.mark.parametrize("argv, code", [
    (["gen-keys", "--source", "seeded:1", "--bytes", "8"], 0),
    (["gen-keys", "--bytes", "eight"], 1),
], ids=["gen-keys", "usage-error"])
def test_main_exits_with_the_status_run_returns(tmp_path, monkeypatch, argv, code):
    # main() is the installed console script: it reads sys.argv itself.
    monkeypatch.setattr(sys, "argv", ["otp-remctl", *argv, "--out", str(tmp_path / "k.bin")])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == code


def test_unknown_subcommand_is_usage_error():
    assert run(["teleport"]) == 1


def test_bad_flag_value_is_usage_error(capsys):
    assert run(["simulate", "--controller", "a", "--controlee", "b",
                "--script", "s", "--loss", "1.5"]) == 1
    assert run(["gen-keys", "--source", "quantum", "--bytes", "8",
                "--out", "x"]) == 1
    assert run(["randtest", "--input", "x", "--tests", "freq,sparkle"]) == 1


_SESSION = ["simulate", "--controller", "a", "--controlee", "b", "--script", "s"]


@pytest.mark.parametrize("argv, message", [
    ([*_SESSION, "--seed", "1.5"], "argument --seed: expected an integer, got '1.5'"),
    (["charge", "--source", "seeded:1", "--blocks", "x", "--controller", "a",
      "--controlee", "b"], "argument --blocks: expected an integer, got 'x'"),
    (["gen-keys", "--source", "seeded:1", "--bytes", "1e3", "--out", "k"],
     "argument --bytes: expected an integer, got '1e3'"),
    ([*_SESSION, "--loss", "lots"], "argument --loss: expected a number, got 'lots'"),
    (["randtest", "--input", "x", "--max-lag", "ten"],
     "argument --max-lag: expected an integer, got 'ten'"),
    (["randtest", "--input", "x", "--split-bits", "0x10"],
     "argument --split-bits: expected an integer, got '0x10'"),
], ids=["seed", "blocks", "bytes", "loss", "max-lag", "split-bits"])
def test_non_numeric_flag_names_the_expected_form(capsys, argv, message):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"otp-remctl {argv[0]}: error: {message}"
    assert not re.search(r"(?<!\w)_\w", err), err  # no private helper's name


@pytest.mark.parametrize("argv, message", [
    (["randtest", "--input", "x", "--tests", ","], "argument --tests: no tests named"),
    (["gen-keys", "--source", "foo:bar", "--bytes", "8", "--out", "k"],
     "argument --source: unknown source kind 'foo'"),
    (["randtest", "--input", "x", "--split-bits", "50"],
     "argument --split-bits: must be at least 100, got 50"),
], ids=["tests-none", "source-kind", "split-bits-short"])
def test_bad_flag_names_the_fault(capsys, argv, message):
    assert run(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"otp-remctl {argv[0]}: error: {message}")


def test_randtest_significance_level_is_not_a_flag(capsys):
    # every verdict uses rt.ALPHA; a report row's alpha cell always says 0.01
    assert run(["randtest", "--input", "x", "--alpha", "0.05"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "otp-remctl: error: unrecognized arguments: --alpha 0.05")


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


def test_gen_keys_beyond_the_address_space_is_runtime_error(tmp_path, capsys):
    # os.urandom cannot take a count past ssize_t, so nothing is drawn.
    out = tmp_path / "k.bin"
    assert run(["gen-keys", "--source", "system", "--bytes", str(10 ** 20),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_gen_keys_out_of_memory_is_runtime_error(tmp_path, capsys, monkeypatch):
    def no_memory(self, n):
        raise MemoryError

    monkeypatch.setattr(SeededSource, "_draw", no_memory)
    out = tmp_path / "k.bin"
    assert run(["gen-keys", "--source", "seeded:9", "--bytes", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    assert not out.exists()


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


@pytest.mark.parametrize("command, out", [("simulate", []),
                                          ("intercept-export", ["--out", "c.bin"])])
def test_negative_channel_seed_is_usage_error(tmp_path, capsys, command, out):
    # random.Random seeds with abs(): --seed -1 would fly --seed 1's schedule
    a, b = _charge(tmp_path)
    script = _script(tmp_path, ["Connection"])
    assert run([command, "--controller", str(a), "--controlee", str(b),
                "--script", str(script), "--seed", "-1", *out]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"otp-remctl {command}: error: argument --seed: must be non-negative, got -1")


def test_script_skips_comments_and_blank_lines(tmp_path):
    a, b = _charge(tmp_path)
    script = tmp_path / "commented.cmds"
    script.write_text("# preflight\n\nConnection\n  # turn next\n\nForward\n")
    argv = ["simulate", "--controller", str(a), "--controlee", str(b)]
    assert run([*argv, "--script", str(script), "--log", str(tmp_path / "c.log")]) == 0
    plain = _script(tmp_path, ["Connection", "Forward"])
    assert run([*argv, "--script", str(plain), "--log", str(tmp_path / "p.log")]) == 0
    assert (tmp_path / "c.log").read_bytes() == (tmp_path / "p.log").read_bytes()


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


def test_registry_comes_from_the_flag_alone(tmp_path, monkeypatch, capsys):
    # A registry variable in the caller's environment must change nothing.
    monkeypatch.setenv("OTP_REMCTL_REGISTRY", str(tmp_path / "does-not-exist.reg"))
    a, b = _charge(tmp_path)
    fly = ["simulate", "--controller", str(a), "--controlee", str(b), "--script"]
    assert run([*fly, str(_script(tmp_path, ["Connection"]))]) == 0
    assert "accepted         : 1" in capsys.readouterr().out
    script = _script(tmp_path, ["Linkup"])
    assert run([*fly, str(script)]) == 2
    assert "unknown command 'Linkup'" in capsys.readouterr().err
    assert run([*fly, str(script), "--registry", ""]) == 2


def test_registry_flag_beats_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OTP_REMCTL_REGISTRY", str(tmp_path / "does-not-exist.reg"))
    reg = CommandRegistry()
    reg.add("Linkup", standard_registry().lookup("Connection"))
    regfile = tmp_path / "own.reg"
    reg.save(regfile)
    a, b = _charge(tmp_path)
    script = _script(tmp_path, ["Linkup"])
    assert run(["simulate", "--controller", str(a), "--controlee", str(b),
                "--script", str(script), "--registry", str(regfile)]) == 0
    assert "accepted         : 1" in capsys.readouterr().out


@pytest.mark.parametrize("model", list(TamperModel))
def test_tamper_model_flag_flies_its_member(tmp_path, model):
    a, b = _charge(tmp_path)
    names = ["Connection", "Forward", "Turn Left", "Backward"] * 10
    log = tmp_path / "cli.log"
    assert run(["simulate", "--controller", str(a), "--controlee", str(b),
                "--script", str(_script(tmp_path, names)), "--tamper", "0.5",
                "--tamper-model", model.value, "--seed", "3", "--log", str(log)]) == 0
    registry = standard_registry()
    expected = tmp_path / "lib.log"
    run_session(Controller(SksStore.load(a)),
                Controlee(SksStore.load(b), registry=registry),
                [registry.lookup(n) for n in names],
                Channel(ChannelConfig(tamper_prob=0.5, tamper_model=model, rng_seed=3))
                ).save(expected)
    assert log.read_bytes() == expected.read_bytes()


# Saves, reloads and flies a registry whose one name is not ASCII, written
# as an escape because the child decodes its -c argument in its locale.
_UTF8_FLIGHT = """
import locale, sys
from otp_remctl.cli import run
from otp_remctl.frame import CommandRegistry, standard_registry
print(locale.getpreferredencoding(False))
reg = CommandRegistry()
reg.add("Vorw\\u00e4rts", standard_registry().lookup("Forward"))
reg.save("own.reg")
assert CommandRegistry.load("own.reg").names() == reg.names()
sys.exit(run(["simulate", "--controller", "a.sks", "--controlee", "b.sks",
              "--script", "fly.cmds", "--registry", "own.reg"]))
"""


def test_text_files_are_utf8_under_an_ascii_locale(tmp_path):
    _charge(tmp_path)
    (tmp_path / "fly.cmds").write_text("Vorwärts\n", encoding="utf-8")
    src = str(Path(otp_remctl.__file__).parents[1])
    env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _UTF8_FLIGHT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    encoding = done.stdout.partition("\n")[0]
    if encoding.lower().replace("-", "") == "utf8":
        pytest.skip("this platform's C locale is UTF-8")
    assert done.returncode == 0, done.stderr
    assert "accepted         : 1" in done.stdout
    assert (tmp_path / "own.reg").read_bytes().startswith("Vorwärts: ".encode())


def test_randtest_all_zeros_fails_with_exit_3(tmp_path, capsys):
    p = tmp_path / "zeros.bin"
    p.write_bytes(bytes(2048))
    code = run(["randtest", "--input", str(p), "--tests", "freq,runs,autocorr",
                "--report", str(tmp_path / "out.csv")])
    assert code == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    report = (tmp_path / "out.csv").read_text().splitlines()
    assert report[0] == "test,n,statistic,p_value,alpha,pass"
    assert any(line.startswith("frequency,16384,128,") for line in report)


def test_randtest_run_length_of_two_runs_fails_with_exit_3(tmp_path, capsys):
    p = tmp_path / "two-runs.bin"
    p.write_bytes(bytes(100) + b"\xff" * 100)
    assert run(["randtest", "--input", str(p), "--tests", "runlen"]) == 3
    assert capsys.readouterr().out.startswith(
        "run-length: runs=2 checked 1..0 worst-excess=0.000 FAIL\n")


def test_randtest_seeded_keys_pass(tmp_path):
    keys = tmp_path / "keys.bin"
    assert run(["gen-keys", "--source", "seeded:42", "--bytes", "125000",
                "--out", str(keys)]) == 0
    assert run(["randtest", "--input", str(keys),
                "--tests", "freq,runs,balance,runlen,autocorr"]) == 0


@pytest.mark.parametrize("data", [SeededSource(42).fill(12_500), bytes(12_500)],
                         ids=["seeded", "zeros"])
def test_randtest_verdicts_are_the_results_own(tmp_path, data):
    p, report = tmp_path / "in.bin", tmp_path / "r.csv"
    p.write_bytes(data)
    code = run(["randtest", "--input", str(p), "--tests", "balance,autocorr",
                "--max-lag", "200", "--report", str(report)])
    bits = rt.BitSequence.from_bytes(data)
    verdicts = {"balance": rt.golomb_balance(bits).passed,
                "autocorrelation": rt.autocorrelation(bits, 200).passed}
    assert {row.split(",")[0]: row.split(",")[-1]
            for row in report.read_text().splitlines()[1:]} == {
        test: str(passed).lower() for test, passed in verdicts.items()}
    assert code == (0 if all(verdicts.values()) else 3)


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


_AUDIT_DIGESTS = {
    "all": {
        "csv": "22c49e33678909930cad637c73416ac2f3211425d50d9f018113b7b309f36099",
        "json": "e7120d7ab934c076b690ba85bf010789632f935851ae4d486c93365f0098a36d",
        "stdout": "7ee99837ebd26bc19bb7d0deda01001601f43c97c8b4820edad2616905c729dc",
    },
    "split": {
        "csv": "6908b2fb563d29a3434d6e4bafeb65a857891fc61f6f287936415a69a44e9652",
        "json": "70f9d643ce62df50bce64f4065830f7e6edf7ade22104b976779f06272c24654",
        "stdout": "c466a384cadfc82e6d6ba80e33aceea6f22902b22ee2c4c6c4bfd602dc36f73f",
    },
}


@pytest.mark.parametrize("run_name, argv", [
    ("all", ["--max-lag", "100"]),
    ("split", ["--tests", "freq,runs", "--split-bits", "8192"]),
])
def test_randtest_output_bytes_are_pinned(run_name, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["gen-keys", "--source", "seeded:42", "--bytes", "125000",
                "--out", "keys.bin"]) == 0
    capsys.readouterr()
    assert run(["randtest", "--input", "keys.bin", *argv,
                "--report", "r.csv", "--json", "r.json"]) == 0
    outputs = {"csv": Path("r.csv").read_bytes(), "json": Path("r.json").read_bytes(),
               "stdout": capsys.readouterr().out.encode()}
    assert {k: hashlib.sha256(v).hexdigest()
            for k, v in outputs.items()} == _AUDIT_DIGESTS[run_name]


@pytest.fixture(scope="module")
def audit_corpus(tmp_path_factory):
    """A fixed 4000-command intercept-export corpus (+ .idx), flown as the
    bench's audit workload flies its own: 20% loss, 5% tamper."""
    d = tmp_path_factory.mktemp("audit")
    a, b = _charge(d, blocks=4000, seed=13)
    script = _script(d, ["Connection", "Forward", "Turn Left", "Backward",
                         "Turn Right"] * 800)
    assert run(["intercept-export", "--controller", str(a), "--controlee", str(b),
                "--script", str(script), "--loss", "0.2", "--tamper", "0.05",
                "--seed", "4", "--out", str(d / "corpus.bin")]) == 0
    return d / "corpus.bin"


# The audit workload's own randtest runs on that corpus: the whole corpus
# through the FFT lag path (--max-lag 1000) with its tau,c series, and the
# corpus split into 8192-bit sequences.
_CORPUS_DIGESTS = {
    "whole": {
        "csv": "45f34f1d345531fe69629a5e342a19c2011fe9dfe68ee951cc27723518b3dbab",
        "json": "3d4ab225cc562867d51d2f61bf77dffaec6c54095f5e2756dc6cec4eeecc011d",
        "stdout": "b7bea1838f88da0057342c2ba53c69becc6cabc9bf4183987451fac2ebbbdcd8",
        "autocorr": "1f1b505a341cbcb108c02db70e2b1a8c3464c4085bbb99f3bf3e5b868d7134bc",
    },
    "split": {
        "csv": "8b7351c0bdc0e2c1636f8399dbfe0ddecb4c0a75919d96784a3f3649fff5ebca",
        "json": "9f833f39a1123008c8e67fb7db6eda8512956727d6b7a47fa68546819e70c1ea",
        "stdout": "fdfc4b30cf513072702eed78e6809ee647d6213db208e4317c2949028fcc0fc1",
    },
}


@pytest.mark.parametrize("run_name, argv", [
    ("whole", ["--max-lag", "1000", "--autocorr-out", "ac.csv"]),
    ("split", ["--split-bits", "8192"]),
])
def test_corpus_randtest_output_bytes_are_pinned(run_name, argv, audit_corpus, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run(["randtest", "--input", str(audit_corpus), "--format", "corpus-full",
                *argv, "--report", "r.csv", "--json", "r.json"]) == 0
    outputs = {"csv": Path("r.csv").read_bytes(), "json": Path("r.json").read_bytes(),
               "stdout": capsys.readouterr().out.encode()}
    if "--autocorr-out" in argv:
        outputs["autocorr"] = Path("ac.csv").read_bytes()
    assert {k: hashlib.sha256(v).hexdigest()
            for k, v in outputs.items()} == _CORPUS_DIGESTS[run_name]


@pytest.mark.parametrize("rows", [
    [cli._report_row("frequency", 8192, 0.044194173824159216, 0.9647496261326772,
                     rt.ALPHA, True)],
    [cli._report_row("a\u00e9\"\\\n", 2 ** 70, float("nan"), float("inf"), -0.0, False),
     cli._report_row("b", -1, -float("inf"), None, None, True)],
], ids=["one-row", "edge-values"])
def test_report_json_is_json_dumps_at_indent_2(rows):
    assert cli._report_json(rows) == json.dumps(rows, indent=2)


def test_results_csv_format():
    result = rt.TestResult("frequency", 100, 1.6, 0.1096)
    lines = list(cli._report_csv(map(cli._result_row, [result])))
    assert lines[0] == "test,n,statistic,p_value,alpha,pass"
    assert lines[1].startswith("frequency,100,1.6,0.1096,0.01,true")


def test_autocorr_csv_format():
    series = rt.autocorrelation(rt.BitSequence([0, 1, 0, 1, 0, 1, 0, 1]), 1)
    lines = list(cli._autocorr_csv(series))
    assert lines[0] == "tau,c"
    assert lines[1] == "-1,-1"
    assert lines[2] == "0,1"
    assert lines[3] == "1,-1"


def test_report_csv_leaves_none_cells_empty():
    rows = [cli._report_row("balance", 800, 0.25, None, None, True)]
    assert list(cli._report_csv(rows)) == [
        "test,n,statistic,p_value,alpha,pass",
        "balance,800,0.25,,,true",
    ]


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.001, 0.123456, 1e-05, 0.5, 1.0])
def test_results_csv_alpha_keeps_its_six_digit_format(alpha):
    rows = [cli._report_row("frequency", 100, 1.6, 0.1096, alpha, True),
            cli._report_row("runs", 100, 51.0, 0.9, alpha, False)]
    # Whatever level a row records, its alpha cell reads as :g, which .10g
    # reproduces up to six significant digits.
    expected = "test,n,statistic,p_value,alpha,pass\n" + "".join(
        f"{r['test']},{r['n']},{r['statistic']:.10g},{r['p_value']:.10g},"
        f"{alpha:g},{str(r['pass']).lower()}\n" for r in rows)
    assert "".join(f"{line}\n" for line in cli._report_csv(rows)) == expected


def test_randtest_split_larger_than_input_is_runtime_error(tmp_path):
    p = tmp_path / "small.bin"
    p.write_bytes(bytes(64))
    assert run(["randtest", "--input", str(p), "--tests", "freq",
                "--split-bits", "100000"]) == 2


def test_randtest_split_longer_than_input_is_ignored_without_split_tests(tmp_path, capsys):
    p = tmp_path / "small.bin"
    p.write_bytes(b"\x55" * 200)
    assert run(["randtest", "--input", str(p), "--tests", "balance",
                "--split-bits", "100000"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "balance   : n=1600 deviation=0.000000 (limit 0.050000) pass",
        "all 1 checks passed",
    ]


def test_randtest_split_bits_least_is_the_shortest_testable_sequence(tmp_path, capsys):
    keys = tmp_path / "keys.bin"
    assert run(["gen-keys", "--source", "seeded:42", "--bytes", "125",
                "--out", str(keys)]) == 0
    argv = ["randtest", "--input", str(keys), "--tests", "freq,runs", "--split-bits"]
    assert run([*argv, str(rt.MIN_TEST_BITS - 1)]) == 1
    capsys.readouterr()
    assert run([*argv, str(rt.MIN_TEST_BITS)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "frequency : 10/10 sequences passed (proportion 1.0000, acceptance >= 0.8956) pass",
        "runs      : 10/10 sequences passed (proportion 1.0000, acceptance >= 0.8956) pass",
        "all 2 checks passed",
    ]


def test_randtest_empty_input_is_runtime_error(tmp_path, capsys):
    p = tmp_path / "empty.bin"
    p.write_bytes(b"")
    assert run(["randtest", "--input", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {p}: no bytes to test\n"


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


def test_intercept_export_and_corpus_randtest(tmp_path, monkeypatch):
    a, b = _charge(tmp_path, blocks=4000, seed=13)
    script = _script(tmp_path, ["Forward"] * 3907)
    corpus = tmp_path / "corpus.bin"
    assert run(["intercept-export", "--controller", str(a),
                "--controlee", str(b), "--script", str(script),
                "--seed", "4", "--out", str(corpus)]) == 0
    assert corpus.stat().st_size == 3907 * 36
    idx = (tmp_path / "corpus.bin.idx").read_text().splitlines()
    assert len(idx) == 3907
    reads, read_bytes = Counter(), Path.read_bytes

    def counted(path):
        reads[path.name] += 1
        return read_bytes(path)
    monkeypatch.setattr(Path, "read_bytes", counted)
    assert run(["randtest", "--input", str(corpus), "--format", "corpus-full",
                "--tests", "freq,balance,autocorr"]) == 0
    assert reads == {"corpus.bin": 1, "corpus.bin.idx": 1}


_FLIGHT = ["--controller", "a.sks", "--controlee", "b.sks", "--script", "fly.cmds",
           "--loss", "0.2", "--tamper", "0.1", "--seed", "3"]
_SUMMARY = ("frames sent      : 200\n"
            "dropped          : 34\n"
            "tampered         : 13\n"
            "accepted         : 153\n"
            "discarded        : 13\n"
            "keys consumed    : controller 200, controlee 200\n")


@pytest.fixture
def flight(tmp_path, monkeypatch, capsys):
    """The seeded 200-command flight that tests/test_golden.py pins."""
    monkeypatch.chdir(tmp_path)
    _charge(Path("."), blocks=256, seed=5)
    _script(Path("."), ["Connection", "Forward", "Turn Left", "Backward",
                        "Turn Right"] * 40)
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["simulate", *_FLIGHT, "--log", "a.sks"],
     "--log and --controller name the same file a.sks"),
    (["intercept-export", *_FLIGHT, "--out", "c.bin", "--log", "c.bin"],
     "--log and --out name the same file c.bin"),
    (["intercept-export", *_FLIGHT, "--out", "c.bin", "--log", "c.bin.idx"],
     "--log and the --out sidecar name the same file c.bin.idx"),
    (["randtest", "--input", "c.bin", "--report", "./c.bin"],
     "--report and --input name the same file ./c.bin"),
    (["randtest", "--input", "c.bin", "--format", "corpus-full", "--json", "c.bin.idx"],
     "--json and the --input sidecar name the same file c.bin.idx"),
    (["simulate", "--controller", "a.sks", "--controlee", "./a.sks", "--script", "fly.cmds"],
     "--controlee and --controller name the same file ./a.sks"),
    (["intercept-export", "--controller", "a.sks", "--controlee", "./a.sks",
      "--script", "fly.cmds", "--out", "d.bin"],
     "--controlee and --controller name the same file ./a.sks"),
    (["simulate", *_FLIGHT, "--registry", "fly.cmds"],
     "--registry and --script name the same file fly.cmds"),
], ids=["log-over-store", "log-over-corpus", "log-over-sidecar", "report-over-input",
        "json-over-sidecar", "one-store-file-simulate", "one-store-file-export",
        "registry-is-script"])
def test_an_output_never_overwrites_an_input_or_output(flight, capsys, argv, message):
    assert run(["intercept-export", *_FLIGHT, "--out", "c.bin"]) == 0
    files = {p.name: p.read_bytes() for p in Path(".").iterdir()}
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"otp-remctl {argv[0]}: error: {message}\n")
    assert {p.name: p.read_bytes() for p in Path(".").iterdir()} == files


@pytest.mark.parametrize("argv, message", [
    (["charge", "--blocks", "8", "--source", "file:k.bin", "--controller", "k.bin",
      "--controlee", "b.sks"],
     "--controller and --source name the same file k.bin"),
    (["charge", "--blocks", "8", "--source", "file:k.bin", "--controller", "a.sks",
      "--controlee", "./k.bin"],
     "--controlee and --source name the same file ./k.bin"),
    (["charge", "--blocks", "8", "--source", "seeded:1", "--controller", "s.sks",
      "--controlee", "s.sks"],
     "--controlee and --controller name the same file s.sks"),
    (["gen-keys", "--source", "file:k.bin", "--bytes", "100", "--out", "k.bin"],
     "--out and --source name the same file k.bin"),
], ids=["controller-over-source", "controlee-over-source", "one-store-file",
        "gen-keys-over-source"])
def test_key_commands_never_overwrite_their_source_or_another_output(
        tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("k.bin").write_bytes(SeededSource(3).fill(4096))
    files = {p.name: p.read_bytes() for p in Path(".").iterdir()}
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"otp-remctl {argv[0]}: error: {message}\n")
    assert {p.name: p.read_bytes() for p in Path(".").iterdir()} == files


# A usage error, then each subcommand kind whose flags carry defaults.
_REUSE_ARGV = [
    ["randtest", "--input", "keys.bin", "--tests", "freq,bogus"],
    ["randtest", "--input", "keys.bin", "--tests", "freq", "--report", "f.csv"],
    ["randtest", "--input", "keys.bin", "--max-lag", "600", "--report", "r.csv",
     "--json", "r.json", "--autocorr-out", "ac.csv"],
    ["charge", "--source", "seeded:5", "--blocks", "256", "--controller", "a.sks",
     "--controlee", "b.sks"],
    ["intercept-export", *_FLIGHT, "--out", "c.bin", "--log", "s.log"],
]


def test_a_reused_parser_leaks_nothing_between_runs(tmp_path, monkeypatch, capsys):
    """Two passes over _REUSE_ARGV on the cached parser, then one with a fresh
    parser per run, each in its own directory: every run's exit code, stdout,
    stderr and files match the same run's in the other passes."""
    keys = SeededSource(42).fill(12_500)
    passes = []
    for fresh in (False, False, True):
        work = tmp_path / str(len(passes))
        work.mkdir()
        monkeypatch.chdir(work)
        Path("keys.bin").write_bytes(keys)
        _script(Path("."), ["Connection", "Forward", "Turn Left", "Backward",
                            "Turn Right"] * 40)
        runs = []
        for argv in _REUSE_ARGV:
            if fresh:
                cli.build_parser.cache_clear()
            code = run(argv)
            runs.append((code, *capsys.readouterr(),
                         {p.name: p.read_bytes() for p in sorted(Path(".").iterdir())}))
        passes.append(runs)
    assert [r[0] for r in passes[0]] == [1, 0, 0, 0, 0]
    assert passes[0] == passes[1] == passes[2]


@pytest.mark.parametrize("argv, tail", [
    (["simulate"], ""),
    (["simulate", "--log", "s.log"], "session log      : s.log\n"),
    (["intercept-export", "--out", "corpus.bin"],
     "intercepts       : 200 frames to corpus.bin (+ .idx)\n"),
])
def test_flight_stdout_is_pinned(flight, capsys, argv, tail):
    assert run([argv[0], *_FLIGHT, *argv[1:]]) == 0
    assert capsys.readouterr().out == _SUMMARY + tail


def test_flight_summary_counts_match_log_and_sidecar(flight, capsys):
    assert run(["intercept-export", *_FLIGHT, "--out", "corpus.bin",
                "--log", "s.log"]) == 0
    summary = {key.strip(): value for key, value in
               (line.split(":", 1) for line in capsys.readouterr().out.splitlines())}
    sent, dropped, tampered = (int(summary[k]) for k in ("frames sent", "dropped", "tampered"))
    channel = Counter(r.event for r in SessionLog.load("s.log") if r.direction == "ch")
    sidecar = Counter(line.rsplit(",", 1)[1]
                      for line in Path("corpus.bin.idx").read_text().splitlines())
    assert channel == sidecar
    assert (dropped, tampered) == (channel["dropped"], channel["tampered"])
    assert sent == channel["delivered"] + dropped + tampered


# The session log, corpus and sidecar of tests/test_golden.py's flight flown
# with --tamper-model randomize, which that file does not pin.
_RANDOMIZED = {
    "full": {
        "session.log": "72624f249c807d7da5d8f38ed85f42d7b2f48d28abf2620a8291dc2ada235c86",
        "corpus.bin": "72654a268f4a5d993314b337b6444fa70ae8572b8057017e59a4a5c676ab76c9",
        "corpus.bin.idx": "c5a4fb32b827a4dbade2cc4f0294c35f546ef29c5a8e73ac5457904678b796de",
    },
    "selective": {
        "session.log": "7cc9f50a13b8069225cd26d519ecd0df7512d4aba82e79e3c697d31136732565",
        "corpus.bin": "696e489cbc999a592adf2340623b7e142f858b9eb200ceb143812768b2e61e39",
        "corpus.bin.idx": "c5a4fb32b827a4dbade2cc4f0294c35f546ef29c5a8e73ac5457904678b796de",
    },
}


@pytest.mark.parametrize("mode", sorted(_RANDOMIZED))
def test_randomize_flight_outputs_are_byte_exact(mode, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _charge(Path("."), blocks=256, mode=mode, seed=5)
    _script(Path("."), ["Connection", "Forward", "Turn Left", "Backward", "Turn Right"] * 40)
    assert run(["intercept-export", *_FLIGHT, "--tamper-model", "randomize",
                "--out", "corpus.bin", "--log", "session.log"]) == 0
    assert {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
            for name in _RANDOMIZED[mode]} == _RANDOMIZED[mode]


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


@pytest.mark.parametrize("seed", [str(2**64), "-1", "seven"])
def test_demo_seed_follows_the_seeded_source_rule(seed, capsys):
    # the same seed is a usage error for gen-keys --source seeded:<seed>
    assert run(["gen-keys", "--source", f"seeded:{seed}", "--bytes", "1",
                "--out", "unused.bin"]) == 1
    source_err = capsys.readouterr().err.splitlines()[-1]
    assert run(["demo", "--seed", seed]) == 1
    demo_err = capsys.readouterr().err.splitlines()[-1]
    assert demo_err.replace("demo: error: argument --seed:",
                            "gen-keys: error: argument --source:") == source_err


def test_demo_function_is_reusable(tmp_path):
    assert demo_end_to_end(seed=7, out=tmp_path / "d.csv") == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_demo_agreement_rate_matches_pairwise_loop(tmp_path, seed, capsys):
    assert demo_end_to_end(seed=seed, out=tmp_path / "d.csv") == 0
    ciphers = [bytes(map(int, line.split(",")[4:]))
               for line in (tmp_path / "d.csv").read_text().splitlines()[1:]
               if line.split(",")[3] == "cipher"]
    matches = total = 0
    for i, a in enumerate(ciphers):
        for b in ciphers[i + 1:]:
            matches += sum(x == y for x, y in zip(a, b))
            total += len(a)
    assert f"byte-agreement rate: {matches / total:.4f} " in capsys.readouterr().out


def test_demo_stdout_and_csv_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["demo", "--seed", "7", "--out", "demo.csv"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("addresses consumed in order: 0..24\n"
                        "pairwise ciphertext byte-agreement rate: 0.0037 "
                        "(uniform expectation 0.0039)\n"
                        "csv: demo.csv\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8bc464592db475b2604055f26eeb4fa3689b38f13031c1eab8258453c2d4d861")
    assert hashlib.sha256(Path("demo.csv").read_bytes()).hexdigest() == (
        "fd4c77519dd0b670f71d062097f842c34eaebc7047ad0cbbda8f9ce380255238")


# Exact --help text of the top-level parser ("") and every subcommand at
# 80 columns.
_HELP = {
    "": (
        "usage: otp-remctl [-h]\n"
        "                  {gen-keys,charge,simulate,intercept-export,randtest,demo}\n"
        "                  ...\n"
        "\n"
        "Precharged one-time-pad remote-control toolkit.\n"
        "\n"
        "positional arguments:\n"
        "  {gen-keys,charge,simulate,intercept-export,randtest,demo}\n"
        "    gen-keys            dump raw key bytes from an entropy source\n"
        "    charge              precharge a matched pair of key stores\n"
        "    simulate            run a scripted session over a lossy channel\n"
        "    intercept-export    run a session and export the eavesdropped corpus\n"
        "    randtest            statistical randomness checks on a byte file\n"
        "    demo                five commands, five encryptions each\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ),
    "gen-keys": (
        "usage: otp-remctl gen-keys [-h] --source SOURCE --bytes BYTES --out OUT\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --source SOURCE  system | seeded:<u64> | file:<path>\n"
        "  --bytes BYTES    number of bytes to write\n"
        "  --out OUT        output file\n"
    ),
    "charge": (
        "usage: otp-remctl charge [-h] --source SOURCE --blocks BLOCKS\n"
        "                         [--mode {full,selective}] --controller CONTROLLER\n"
        "                         --controlee CONTROLEE\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --source SOURCE       system | seeded:<u64> | file:<path>\n"
        "  --blocks BLOCKS       number of key blocks\n"
        "  --mode {full,selective}\n"
        "                        full: 32-byte blocks; selective: 23-byte blocks\n"
        "  --controller CONTROLLER\n"
        "                        controller store file\n"
        "  --controlee CONTROLEE\n"
        "                        controlee store file\n"
    ),
    "simulate": (
        "usage: otp-remctl simulate [-h] --controller CONTROLLER --controlee CONTROLEE\n"
        "                           --script SCRIPT [--loss LOSS] [--tamper TAMPER]\n"
        "                           [--tamper-model {flip,randomize}] [--seed SEED]\n"
        "                           [--registry REGISTRY] [--log LOG]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --controller CONTROLLER\n"
        "                        controller store file\n"
        "  --controlee CONTROLEE\n"
        "                        controlee store file\n"
        "  --script SCRIPT       command script, one name per line\n"
        "  --loss LOSS           frame loss probability\n"
        "  --tamper TAMPER       in-flight corruption probability\n"
        "  --tamper-model {flip,randomize}\n"
        "                        corruption model\n"
        "  --seed SEED           channel seed\n"
        "  --registry REGISTRY   command registry file (default: the built-in five\n"
        "                        commands)\n"
        "  --log LOG             write the session log here\n"
    ),
    "intercept-export": (
        "usage: otp-remctl intercept-export [-h] --controller CONTROLLER --controlee\n"
        "                                   CONTROLEE --script SCRIPT [--loss LOSS]\n"
        "                                   [--tamper TAMPER]\n"
        "                                   [--tamper-model {flip,randomize}]\n"
        "                                   [--seed SEED] [--registry REGISTRY] --out\n"
        "                                   OUT [--log LOG]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --controller CONTROLLER\n"
        "                        controller store file\n"
        "  --controlee CONTROLEE\n"
        "                        controlee store file\n"
        "  --script SCRIPT       command script, one name per line\n"
        "  --loss LOSS           frame loss probability\n"
        "  --tamper TAMPER       in-flight corruption probability\n"
        "  --tamper-model {flip,randomize}\n"
        "                        corruption model\n"
        "  --seed SEED           channel seed\n"
        "  --registry REGISTRY   command registry file (default: the built-in five\n"
        "                        commands)\n"
        "  --out OUT             corpus file (sidecar: <out>.idx)\n"
        "  --log LOG             write the session log here\n"
    ),
    "randtest": (
        "usage: otp-remctl randtest [-h] --input INPUT\n"
        "                           [--format {raw,corpus-full,corpus-selective}]\n"
        "                           [--tests TESTS] [--split-bits SPLIT_BITS]\n"
        "                           [--max-lag MAX_LAG] [--report REPORT] [--json JSON]\n"
        "                           [--autocorr-out AUTOCORR_OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --input INPUT         input file\n"
        "  --format {raw,corpus-full,corpus-selective}\n"
        "                        raw bytes, or an intercept corpus stripped to its\n"
        "                        ciphered bytes\n"
        "  --tests TESTS         comma-separated subset of\n"
        "                        freq,runs,balance,runlen,autocorr\n"
        "  --split-bits SPLIT_BITS\n"
        "                        split the input into sequences of this many bits and\n"
        "                        report the pass proportion for freq/runs\n"
        "  --max-lag MAX_LAG     largest autocorrelation lag\n"
        "  --report REPORT       write a CSV report here\n"
        "  --json JSON           write a JSON report here\n"
        "  --autocorr-out AUTOCORR_OUT\n"
        "                        write the tau,c series here\n"
    ),
    "demo": (
        "usage: otp-remctl demo [-h] [--seed SEED] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --seed SEED  key-material seed\n"
        "  --out OUT    write plot-ready CSV here\n"
    ),
}


@pytest.mark.parametrize("command", _HELP)
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        run([command, "--help"] if command else ["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == _HELP[command]
