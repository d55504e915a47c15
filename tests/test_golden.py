"""Byte-exact outputs of a seeded charge -> intercept-export -> randtest run.

The digests pin the SKS store, the session log, the eavesdropped corpus and
its sidecar, both randtest reports and everything printed, in both cipher
modes.  A refactor that changes any byte of them fails here.
"""

import hashlib
from pathlib import Path

import pytest

from otp_remctl.cli import run

SCRIPT = ["Connection", "Forward", "Turn Left", "Backward", "Turn Right"] * 40

OUTPUTS = ("a.sks", "session.log", "corpus.bin", "corpus.bin.idx",
           "report.csv", "report.json")

GOLDEN = {
    "full": {
        "a.sks": "1630eb9b2a1cc67e613816ce22e19319adfc200d555927b73932ccee5ae32c6a",
        "session.log": "2f940005051527ef8880c28487254fb339ba6a610854d814b629b4a29fb493de",
        "corpus.bin": "72654a268f4a5d993314b337b6444fa70ae8572b8057017e59a4a5c676ab76c9",
        "corpus.bin.idx": "dc83b1f80aec0fd204a8ed7883fa322e0fe5e9400409a1997365807054a28148",
        "report.csv": "bb9ffe5e053dc9812211eae4f4769b01128d14a919f1ae449d602c6ca29ccc4f",
        "report.json": "a07ab4193ec97d1cee6cc6c6c86ac5cecf0438cf7e9ca1377558f9d9d2907d18",
        "stdout": "c6b97002b8711d61e678c36600fef97abe0621632a9f7f8eda02c3fd52e91999",
    },
    "selective": {
        "a.sks": "fe2865f0d48fccef1fab9dbd6a6f4e46ee3e99cbce44b907df093807995e6999",
        "session.log": "14527eafa89f3e336fde7651d9bbcabeb53609ca90efd0deedf920cb1d32ca6c",
        "corpus.bin": "696e489cbc999a592adf2340623b7e142f858b9eb200ceb143812768b2e61e39",
        "corpus.bin.idx": "dc83b1f80aec0fd204a8ed7883fa322e0fe5e9400409a1997365807054a28148",
        "report.csv": "4da878b8f8defe6fdd5f67fed80882773328fd21a981a5611d918575e45ca8ce",
        "report.json": "e7dea76e3b971fa9b81c0f276a4f045820e98d22e9cda7dd72550016e871662a",
        "stdout": "d819e83502de4e9cf14f8cda4bd6843a8e5dae8169c4593f20a7063595adc2e6",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_cli_outputs_are_byte_exact(mode, tmp_path, monkeypatch, capsys):
    # Relative paths, so that stdout does not depend on the temporary directory.
    monkeypatch.chdir(tmp_path)
    Path("fly.cmds").write_text("\n".join(SCRIPT) + "\n")
    codes = [
        run(["charge", "--source", "seeded:5", "--blocks", "256", "--mode", mode,
             "--controller", "a.sks", "--controlee", "b.sks"]),
        run(["intercept-export", "--controller", "a.sks", "--controlee", "b.sks",
             "--script", "fly.cmds", "--loss", "0.2", "--tamper", "0.1",
             "--seed", "3", "--out", "corpus.bin", "--log", "session.log"]),
        run(["randtest", "--input", "corpus.bin", "--format", f"corpus-{mode}",
             "--max-lag", "100", "--report", "report.csv", "--json", "report.json"]),
    ]
    digests = {name: _sha256(Path(name).read_bytes()) for name in OUTPUTS}
    digests["stdout"] = _sha256(capsys.readouterr().out.encode())
    assert codes == [0, 0, 0]
    assert digests == GOLDEN[mode]
