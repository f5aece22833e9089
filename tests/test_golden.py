"""Golden stdout digests: each argv list in golden_digests.json maps to the
sha256 of the CLI's stdout and its exit code.

The file covers every subcommand but quad (its floats come from libm's cos
and sin), every --format, every --method and the usage paths. It needs only
the standard library, so it also runs as a script:

    python tests/test_golden.py           # exit 1 and name each argv that differs
    python tests/test_golden.py --write   # record the current output after an intended change
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_digests.json")
SRC = Path(__file__).resolve().parents[1] / "src"


def _digest(argv: list[str]) -> dict:
    child = subprocess.run(
        [sys.executable, "-m", "hankel_catalan.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )
    return {"argv": argv, "exit": child.returncode, "sha256": hashlib.sha256(child.stdout).hexdigest()}


def _differing() -> list[list[str]]:
    return [entry["argv"] for entry in json.loads(GOLDEN.read_text()) if _digest(entry["argv"]) != entry]


def test_golden_stdout_digests():
    assert _differing() == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        entries = [_digest(entry["argv"]) for entry in json.loads(GOLDEN.read_text())]
        GOLDEN.write_text("[\n" + ",\n".join(f"  {json.dumps(e)}" for e in entries) + "\n]\n")
        sys.exit(0)
    differing = _differing()
    for argv in differing:
        print("stdout or exit code differs:", " ".join(argv))
    sys.exit(bool(differing))
