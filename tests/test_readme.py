"""The README's ``python`` examples run against the current API, its
command-line examples exit 0, its randtest example prints what the README
shows, and its "Library use"
section names every name the package root exports; no module of the
package imports a name that is private to another, and the per-frame code
reads no attribute through a builtin type or an Enum class."""

import ast
import builtins
import enum
import importlib
import re
import shlex
from pathlib import Path

from otp_remctl.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    """Every command of the "Command line" shell blocks, in order, in one
    directory: each exits 0, and the printf line's file is written as printf would."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```sh\n(.*?)^```", section, re.M | re.S)
    lines = [shlex.split(line) for block in blocks
             for line in block.replace("\\\n", " ").splitlines()]
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in lines:
        if argv[0] == "printf":
            text, redirect, path = argv[1:]
            assert redirect == ">"
            Path(path).write_text(text.replace("\\n", "\n"), encoding="utf-8")
            continue
        assert argv[0] == "otp-remctl", argv
        assert run(argv[1:]) == 0, (argv, capsys.readouterr())
        ran.append(argv[1])
    assert ran == ["charge", "simulate", "intercept-export", "gen-keys", "randtest",
                   "randtest", "demo"]


def _root_exports() -> list[str]:
    tree = ast.parse((ROOT / "src" / "otp_remctl" / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _word(name: str) -> re.Pattern:
    return re.compile(rf"\b{re.escape(name)}\b")


def _uses(name: str, paths) -> int:
    return sum(len(_word(name).findall(p.read_text(encoding="utf-8"))) for p in paths)


def test_readme_library_use_names_every_root_export():
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    exports = _root_exports()
    assert exports
    missing = [name for name in exports if not _word(name).search(section)]
    places = {
        "src": [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"],
        "bench": sorted((ROOT / "bench").glob("*.py")),
        "README": [README],
        "tests": sorted((ROOT / "tests").glob("*.py")),
    }
    report = "\n".join(
        f"  {name}: " + ", ".join(f"{where} {_uses(name, paths)}"
                                  for where, paths in places.items())
        for name in missing)
    assert not missing, (f"{len(missing)} root exports missing from the README's "
                         f"'Library use' (uses outside __init__.py):\n{report}")


def test_no_module_imports_a_private_name_of_a_sibling():
    """A name that starts with "_" is its own module's; a sibling that needs
    it imports it under a public name, as from ``_textfile``."""
    modules = sorted((ROOT / "src" / "otp_remctl").glob("*.py"))
    assert len(modules) >= 9
    imports = [f"{path.name}: from .{node.module} import {alias.name}"
               for path in modules
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
               for alias in node.names if alias.name.startswith("_")]
    assert imports == []


# The functions that run once a frame or once a log record, by module.
_PER_FRAME = {
    "frame": ("parse_wire", "otp_encrypt", "otp_decrypt", "WireFrame.to_bytes",
              "CommandRegistry.match"),
    "protocol": ("Controller.send", "Controlee.receive", "Controlee._discard",
                 "RxOutcome.accept", "run_session",
                 "SessionLog._command", "SessionLog._walk", "SessionLog._save_lines",
                 "SessionLog.load"),
    "channel": ("Channel.transmit", "Channel._tamper"),
    "keystore": ("SksStore.take_block", "SksStore.discard_through"),
}


def _definitions(tree):
    """(qualified name, def) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _class_lookups(module, fn) -> list[str]:
    """Each ``Owner.attr`` in ``fn`` whose Owner, a name not bound in ``fn``,
    is a builtin type or an Enum subclass in ``module``."""
    local = {node.arg for node in ast.walk(fn.args) if isinstance(node, ast.arg)}
    local |= {node.id for node in ast.walk(fn)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    found = []
    for node in ast.walk(fn):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id not in local):
            owner = vars(module).get(node.value.id, vars(builtins).get(node.value.id))
            if isinstance(owner, type) and (owner.__module__ == "builtins"
                                            or issubclass(owner, enum.Enum)):
                found.append(f"{node.value.id}.{node.attr}")
    return found


def test_per_frame_code_reads_no_attribute_of_a_builtin_type_or_enum_class():
    """``int.from_bytes`` builds a new bound method on each lookup, and a
    member read through its Enum class is a metaclass attribute lookup; the
    per-frame code reads module-level names bound once instead."""
    missing, offences = [], []
    for name, qualnames in _PER_FRAME.items():
        module = importlib.import_module(f"otp_remctl.{name}")
        path = ROOT / "src" / "otp_remctl" / f"{name}.py"
        defs = dict(_definitions(ast.parse(path.read_text())))
        for qualname in qualnames:
            if qualname not in defs:
                missing.append(f"{name}.py {qualname}")
            elif lookups := _class_lookups(module, defs[qualname]):
                offences.append(f"{name}.py {qualname}: {', '.join(lookups)}")
    assert missing == []
    assert offences == [], "per-frame lookups through a builtin type or an Enum class:\n  " + \
        "\n  ".join(offences)
