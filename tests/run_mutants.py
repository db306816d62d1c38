"""Run the mutant ledger, tests/mutants.json.

Each entry names a file of src/ or tests/, an exact text that occurs once
in it, the text that replaces it, and the tests that fail under the
replacement:

    python tests/run_mutants.py

runs every entry.  The named tests first run on an unmutated copy of
src/ and tests/, where they must pass.  Then each entry is applied
alone, in a fresh copy in a temporary directory, and its tests run with
pytest -x --hypothesis-seed=0 under a timeout, one entry after another.
The script prints each entry's outcome (killed, survived or timed out)
and time, then the totals and the wall time, and exits 0 only if every
entry is killed.  The copy holds no bench/, so a named test must not
read it.  pytest does not collect this script: its name does not start
with test_.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "mutants.json"
TIMEOUT = 300  # seconds per pytest run


def copy_tree(tmp: Path) -> Path:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache"))
    return tmp


def run_tests(tree: Path, tests) -> int | None:
    """pytest's exit code on tests in tree, or None past TIMEOUT."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def run_entry(entry) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        tree = copy_tree(Path(tmp))
        path = tree / entry["file"]
        text = path.read_text(encoding="utf-8")
        if text.count(entry["old"]) != 1:
            raise SystemExit(f"{entry['id']}: its old text does not occur exactly once in {entry['file']}")
        path.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")
        code = run_tests(tree, entry["tests"])
    return "timed out" if code is None else "survived" if code == 0 else "killed"


def main() -> int:
    start = time.perf_counter()
    entries = json.loads(LEDGER.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        if run_tests(copy_tree(Path(tmp)), sorted({t for e in entries for t in e["tests"]})) != 0:
            print("the named tests do not all pass on the unmutated tree")
            return 2
    counts = Counter()
    for entry in entries:
        t0 = time.perf_counter()
        outcome = run_entry(entry)
        counts[outcome] += 1
        print(f"{outcome:<9} {time.perf_counter() - t0:6.1f} s  {entry['id']}", flush=True)
    print(f"{counts['killed']} killed, {counts['survived']} survived, {counts['timed out']} timed out "
          f"of {len(entries)}; wall time {time.perf_counter() - start:.1f} s")
    return 0 if counts["killed"] == len(entries) else 1


if __name__ == "__main__":
    sys.exit(main())
