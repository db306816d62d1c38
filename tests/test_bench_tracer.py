"""The benchmark's tracer still fits the library.

bench/tracer.py wraps the functions that its WRAPPED table names and
reads some of their arguments and results in hooks.  A library change
that deletes a listed name, or calls a hooked function in a form its
hook cannot read, breaks the traced benchmark; this test runs one query
of every subcommand but selftest under the tracer and without it, and
asks for the same exit code and output bytes.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from gq3 import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

QUERIES = [
    ["truncate", "inputs/nonmin4_q4.pres"],
    ["cohomology", "inputs/tame3.pres"],
    ["reconstruct", "inputs/tame3_q2.pres"],
    ["equiv", "inputs/deep_q2.pres", "--class-bound", "3"],
    # its relators' leads cancel, so their series are expanded, syllables and all
    ["equiv", "inputs/trivial_rel_q3.pres"],
    ["morphism", "inputs/tame9.pres", "inputs/tame9_renamed.pres",
     "--map", "x1 = y1 [y1,y2]; x2 = y2"],
    ["screen", "inputs/dep_q3.pres", "--cd", "2"],
    ["kmilnor", "--field", "tame_local:5", "--q", "4"],
    ["galois-check", "--field", "two_adic", "--q", "2"],
]


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))  # looked up per call, as the bench does
    return code, out.getvalue(), err.getvalue()


def test_every_subcommand_runs_unchanged_under_the_bench_tracer(monkeypatch):
    monkeypatch.chdir(GOLDEN)
    tracer_module = _load_tracer_module()
    tracer = tracer_module.Tracer()
    for i, argv in enumerate(QUERIES):
        plain = _run(argv)
        assert plain[0] in (0, 1), (argv, plain)
        tracer.query = i
        tracer.install()
        try:
            traced = _run(argv)
        finally:
            tracer.uninstall()
        assert traced == plain, argv
    # the entry point and every hooked function ran under the tracer
    assert not [name for name in ["cli.main", *tracer_module._HOOKS] if name not in tracer.calls]
