"""Run the mutant ledger, tests/mutants.json.

Each entry names a file of src/ or tests/, an exact text that occurs once
in it, the text that replaces it, and the tests that fail under the
replacement:

    python tests/run_mutants.py

runs every entry.  The named tests first run on an unmutated copy of
src/, tests/ and bench/, where they must pass.  Then each entry is
applied alone, in a fresh copy in a temporary directory, and all its
tests run with pytest -rfE --hypothesis-seed=0 under a timeout, one
entry after another.  The script prints each entry's outcome (killed,
survived or timed out) and time, under it the tests that failed, and
marks each named test that passed under the mutant "not a killer";
then it prints the totals and the wall time, and exits 0 only if every
entry is killed.  bench/ is copied because some tests read
its corpora; no entry edits it.  pytest does not collect this script:
its name does not start with test_.
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
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, tmp / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache"))
    return tmp


def run_tests(tree: Path, tests) -> tuple[int | None, list[str]]:
    """pytest's exit code on tests in tree, or None past TIMEOUT, and the
    ids of the tests that failed or raised."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, []
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode, failed


def kills(name: str, failed: list[str]) -> bool:
    """Whether the named test, a test id or a test whose ids carry
    parameters, is among the failed ids."""
    return any(f == name or f.startswith((name + "[", name + "::")) for f in failed)


def run_entry(entry) -> tuple[str, list[str]]:
    with tempfile.TemporaryDirectory() as tmp:
        tree = copy_tree(Path(tmp))
        if entry["file"].split("/")[0] not in ("src", "tests"):
            raise SystemExit(f"{entry['id']}: {entry['file']} is not under src/ or tests/")
        path = tree / entry["file"]
        text = path.read_text(encoding="utf-8")
        if text.count(entry["old"]) != 1:
            raise SystemExit(f"{entry['id']}: its old text does not occur exactly once in {entry['file']}")
        path.write_text(text.replace(entry["old"], entry["new"]), encoding="utf-8")
        code, failed = run_tests(tree, entry["tests"])
    return ("timed out" if code is None else "survived" if code == 0 else "killed"), failed


def main() -> int:
    start = time.perf_counter()
    entries = json.loads(LEDGER.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        if run_tests(copy_tree(Path(tmp)), sorted({t for e in entries for t in e["tests"]}))[0] != 0:
            print("the named tests do not all pass on the unmutated tree")
            return 2
    counts = Counter()
    for entry in entries:
        t0 = time.perf_counter()
        outcome, failed = run_entry(entry)
        counts[outcome] += 1
        print(f"{outcome:<9} {time.perf_counter() - t0:6.1f} s  {entry['id']}")
        for name in failed:
            print(f"    failed: {name}")
        if outcome != "timed out":
            for name in entry["tests"]:
                if not kills(name, failed):
                    print(f"    not a killer: {name}")
        sys.stdout.flush()
    print(f"{counts['killed']} killed, {counts['survived']} survived, {counts['timed out']} timed out "
          f"of {len(entries)}; wall time {time.perf_counter() - start:.1f} s")
    return 0 if counts["killed"] == len(entries) else 1


if __name__ == "__main__":
    sys.exit(main())
