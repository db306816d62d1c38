"""Byte-identical CLI reports on a recorded corpus.

tests/golden/cases.json maps each case name to its gq3 argv (paths
relative to tests/golden) and exit code; <name>.out and <name>.err hold
the recorded stdout and stderr.  A usage error, ``--help`` or
``--version`` leaves ``main`` as a ``SystemExit``, whose code is the exit
code; argparse wraps usage and help to the terminal width, so every case
runs at ``COLUMNS=80``.  Re-record after an intended report change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from gq3.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
COLUMNS = "80"


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    code = _exit_code(CASES[name]["argv"])
    out, err = capsys.readouterr()
    assert code == CASES[name]["exit"]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{name}.err").read_text(encoding="utf-8")


def _record():
    import contextlib
    import io

    os.chdir(GOLDEN)
    os.environ["COLUMNS"] = COLUMNS
    # cohomology reports are inputs of the --cd-json cases, so record them first
    for name in sorted(CASES, key=lambda n: not n.startswith("cohomology")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            CASES[name]["exit"] = _exit_code(CASES[name]["argv"])
        Path(f"{name}.out").write_text(out.getvalue(), encoding="utf-8")
        Path(f"{name}.err").write_text(err.getvalue(), encoding="utf-8")
    Path("cases.json").write_text(json.dumps(CASES, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(_record())
