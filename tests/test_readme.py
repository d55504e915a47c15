"""The README's ``python`` examples run against the current API, and its
randtest example prints what the README shows."""

import re
import shlex
from pathlib import Path

from otp_remctl.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_audit_example_prints_its_block(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("### Audit randomness\n", 1)[1]
    commands, printed = re.findall(r"^```(?:sh)?\n(.*?)^```", section, re.M | re.S)[:2]
    gen_keys, randtest = (shlex.split(line) for line in
                          commands.replace("\\\n", " ").splitlines())
    assert gen_keys[:2] == ["otp-remctl", "gen-keys"]
    assert randtest[:2] == ["otp-remctl", "randtest"]
    monkeypatch.chdir(tmp_path)
    assert run(gen_keys[1:]) == 0
    capsys.readouterr()
    assert run(randtest[1:]) == 0
    assert capsys.readouterr().out.splitlines() == printed.splitlines()
