"""The package surface: pgee runs on numpy alone, and exports only
names that are documented or used.

The scipy check runs in a fresh interpreter, because this test process
has scipy loaded already (``oracle.py`` and the accuracy tests import it).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pgee

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SCRIPT = """
import contextlib, io, sys
import pgee
from pgee.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code in (0, 2), (argv, code)

run("generate", "--N", "10", "--seed", "3", "--out", "data.csv")
run("fit", "data.csv", "--json")
run("diagnose", "data.csv")
with open("grid.cfg", "w") as fh:
    fh.write("[cell]\\nN = 10\\nn = 4\\nevent_rate = 0.3\\nrho = 0.2\\ntrue = exchangeable\\n")
run("simulate", "--config", "grid.cfg", "--reps", "5", "--min-converged", "1",
    "--out-dir", "out")
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_commands_import_no_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "results.csv").is_file()
    assert proc.stdout.strip() == "[]", proc.stdout


def test_public_names_are_documented_or_used():
    """Each name in ``pgee.__all__`` appears in the README or is used by the
    cli or the harness; a re-export (a ``noqa: F401`` line) is not a use."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = "\n".join(
        line
        for module in ("cli.py", "harness.py")
        for line in (SRC / "pgee" / module).read_text(encoding="utf-8").splitlines()
        if "noqa: F401" not in line
    )
    unused = [name for name in pgee.__all__ if not re.search(rf"\b{name}\b", readme + code)]
    assert unused == []
