"""The README's ``python`` examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
