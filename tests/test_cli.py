import json
import os
import subprocess
import sys
import time
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gq3
from gq3 import acceptance
from gq3.cli import COMMANDS, _write, main, parse_args
from gq3.presentations import Commutator, Generator, Power, Product, parse_presentation
from oracles import eager_relator_independence
from test_bench_reports import _load_workloads_module
from test_golden import CASES, GOLDEN

TAME = 'q = 3;\ngens = [x1, x2];\nrels = ["x1^3 [x1,x2]"];\n'
FREE = "q = 2;\ngens = [x1, x2];\nrels = [];\n"
DEEP = 'q = 2;\ngens = [x1, x2];\nrels = ["[x1,[x1,x2]]"];\n'
BAD = "q = 2 gens = [x1];\n"
NONPRIME = 'q = 6;\ngens = [x1];\nrels = [];\n'


@pytest.fixture
def tame_file(tmp_path):
    path = tmp_path / "tame.pres"
    path.write_text(TAME)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_truncate_tame(tame_file, capsys):
    code, out, err = run_cli(capsys, "truncate", tame_file)
    assert code == 0
    data = json.loads(out)
    assert data["group"]["order"] == 3**4
    assert data["minimality"]["minimal"] is True
    assert "order 81" in err


def test_truncate_free(tmp_path, capsys):
    path = tmp_path / "free.pres"
    path.write_text(FREE)
    code, out, _ = run_cli(capsys, "truncate", str(path))
    assert code == 0
    assert json.loads(out)["group"]["order"] == 32


def test_truncate_malformed_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.pres"
    path.write_text(BAD)
    code, _, err = run_cli(capsys, "truncate", str(path))
    assert code == 2
    assert "parse error" in err


def test_truncate_trivial_group_has_exponent_1(tmp_path, capsys):
    path = tmp_path / "trivial.pres"
    path.write_text('q = 3;\ngens = [x1, x2];\nrels = ["x1", "x2"];\n')
    code, out, _ = run_cli(capsys, "truncate", str(path))
    assert code == 0
    group = json.loads(out)["group"]
    assert (group["n"], group["order"], group["exponent"]) == (0, 1, 1)


def test_truncate_nonprimepower_exits_3(tmp_path, capsys):
    path = tmp_path / "np.pres"
    path.write_text(NONPRIME)
    code, _, err = run_cli(capsys, "truncate", str(path))
    assert code == 3
    assert "prime power" in err


def test_modulus_above_cap_exits_3_before_factoring(tmp_path, capsys):
    path = tmp_path / "big.pres"
    path.write_text('q = 1000000007;\ngens = [x1];\nrels = [];\n')
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "truncate", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "modulus 1000000007 exceeds cap 32" in err


def test_closed_stdout_keeps_the_verdict(tame_file):
    """A reader that went away is not an unreadable input file."""
    env = {**os.environ, "PYTHONPATH": str(Path(gq3.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "gq3.cli", "truncate", tame_file],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the interpreter has started, let alone written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert "order 81" in err
    assert "Traceback" not in err and "cannot open file" not in err


def test_cli_import_leaves_numpy_unloaded():
    """Every one-shot gq3 run pays for importing gq3.cli.  No gq3 module,
    selftest's included, needs numpy, which costs more than a query's whole
    setup; gq3's records are named tuples, so no module needs dataclasses
    (which loads inspect, ast and dis) or typing.  Importing gq3.cli and
    gq3.acceptance may load none of them that the bare interpreter had not
    already loaded (site may load typing, through a .pth file)."""
    env = {**os.environ, "PYTHONPATH": str(Path(gq3.__file__).parents[1])}
    code = ("import sys; bare = set(sys.modules); import gq3.cli, gq3.acceptance; "
            "heavy = ('numpy', 'dataclasses', 'inspect', 'typing'); "
            "print(sorted(m for m in set(sys.modules) - bare if m.split('.')[0] in heavy))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_leaves_the_selftest_corpus_unloaded():
    """Only selftest loads gq3.acceptance, and random with it.  The
    interpreter runs without site, whose .pth files may import random."""
    env = {**os.environ, "PYTHONPATH": str(Path(gq3.__file__).parents[1])}
    code = "import sys, gq3.cli; print(sorted({'gq3.acceptance', 'random'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _raises(seed):
    raise RuntimeError(f"stub at seed {seed}")


def test_selftest_reports_each_criterion(monkeypatch, capsys):
    """A failed or raising criterion fails the run, and each has its line."""
    stubs = (("passes", lambda seed: (True, f"seed {seed}")),
             ("fails", lambda seed: (False, "wrong")),
             ("raises", _raises))
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    code, out, err = run_cli(capsys, "selftest", "--seed", "7")
    assert code == 1
    report = json.loads(out)
    assert (report["command"], report["seed"], report["all_passed"]) == ("selftest", 7, False)
    assert [(r["name"], r["passed"], r["detail"]) for r in report["results"]] == [
        ("passes", True, "seed 7"),
        ("fails", False, "wrong"),
        ("raises", False, "exception: RuntimeError('stub at seed 7')"),
    ]
    lines = err.splitlines()
    assert [line.rsplit(" (", 1)[0] for line in lines[:3]] == [
        "[PASS] passes: seed 7",
        "[FAIL] fails: wrong",
        "[FAIL] raises: exception: RuntimeError('stub at seed 7')",
    ]
    assert lines[3:] == ["1/3 checks passed"]


def test_selftest_runs_every_criterion(capsys):
    code, out, err = run_cli(capsys, "selftest", "--seed", "0")
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True
    assert [r["name"] for r in report["results"]] == [name for name, _ in acceptance.CRITERIA]
    assert err.endswith(f"{len(acceptance.CRITERIA)}/{len(acceptance.CRITERIA)} checks passed\n")


# one golden case per subcommand, negative verdicts included; selftest runs a stub
HANDLER_CASES = {
    "truncate": "truncate_tame3",
    "cohomology": "cohomology_tame3",
    "reconstruct": "reconstruct_cd_tame3",
    "equiv": "equiv_dep_q3",
    "morphism": "morphism_tame9_renamed",
    "screen": "screen_deep_q2",
    "kmilnor": "kmilnor_finite7_q3",
    "galois-check": "galois_tame3_q2_swapped",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_handlers_return_their_report(name, monkeypatch, capsys):
    """A handler returns (payload, summary, positive) and prints nothing;
    main prints the report and exits 0 exactly when positive is true."""
    monkeypatch.chdir(GOLDEN)
    stub = [acceptance.CheckResult("stub", False, "stubbed", 0.0)]
    monkeypatch.setattr(acceptance, "run_all", lambda seed: stub)
    argv = CASES[HANDLER_CASES[name]]["argv"] if name in HANDLER_CASES else [name]
    result = COMMANDS[name][0](parse_args(argv))
    assert capsys.readouterr() == ("", "")
    assert type(result) is tuple and [type(x) for x in result] == [dict, str, bool]
    _, summary, positive = result
    code, out, err = run_cli(capsys, *argv)
    assert code == (0 if positive else 1)
    assert json.loads(out)["command"] == name
    assert err.endswith(summary + "\n")


def test_missing_file_exits_2(capsys):
    code, _, _ = run_cli(capsys, "truncate", "/nonexistent/x.pres")
    assert code == 2


def test_directory_as_input_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "truncate", str(tmp_path))
    assert code == 2
    assert "Traceback" not in err


def test_budget_variable_is_ignored(tame_file, monkeypatch, capsys):
    _, plain, _ = run_cli(capsys, "truncate", tame_file)
    monkeypatch.setenv("GQ3_BUDGET", "abc")
    code, out, _ = run_cli(capsys, "truncate", tame_file)
    assert code == 0
    assert out == plain


def test_cohomology_report(tame_file, capsys):
    code, out, _ = run_cli(capsys, "cohomology", tame_file)
    assert code == 0
    data = json.loads(out)["cohomology"]
    assert data["n"] == 2
    assert data["h2_rank"] == 1
    assert data["bockstein"]["1"] == [1]
    assert data["cup"]["1,2"] == [1]


def test_reconstruct_round_trip(tame_file, capsys):
    code, out, err = run_cli(capsys, "reconstruct", tame_file)
    assert code == 0
    assert json.loads(out)["round_trip_equal"] is True
    assert "equal" in err


def test_reconstruct_from_cd_json(tmp_path, tame_file, capsys):
    code, out, _ = run_cli(capsys, "cohomology", tame_file)
    cd_path = tmp_path / "cd.json"
    cd_path.write_text(out)
    code, out2, _ = run_cli(capsys, "reconstruct", "--cd-json", str(cd_path))
    assert code == 0
    data = json.loads(out2)
    assert data["group"]["order"] == 81


def test_h2_rank_counts_rows_that_span_w(tmp_path, capsys):
    """h2_rank counts the tables' rows, which span W and may be dependent:
    gq3 prints x1^8 [x1,x2] at q = 4 with the rows (2,0,1) and
    (0,0,2) = 2 (2,0,1), and h2_divisors [4] pins W, so a reader that
    rejected dependent rows would reject gq3's own tables."""
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps({"q": 3, "n": 2, "h2_rank": 2,
                                 "bockstein": {"1": [1, 2]}, "cup": {"1,2": [1, 2]}}))
    code, out, _ = run_cli(capsys, "reconstruct", "--cd-json", str(probe))
    assert code == 0
    assert json.loads(out)["group"]["relator_subspace"]["basis"] == [[1, 0, 1]]
    path = tmp_path / "q4.pres"
    path.write_text('q = 4;\ngens = [x1, x2];\nrels = ["x1^8 [x1,x2]"];\n')
    code, out, _ = run_cli(capsys, "cohomology", str(path))
    tables = json.loads(out)["cohomology"]
    assert (tables["h2_rank"], tables["h2_divisors"]) == (2, [4])
    assert (tables["bockstein"], tables["cup"]) == ({"1": [2, 0], "2": [0, 0]}, {"1,2": [1, 2]})
    rebuilt, truncated = _rebuilt_and_truncated(capsys, tmp_path, str(path))
    assert rebuilt == truncated


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _rebuilt_and_truncated(capsys, tmp_path, path):
    """The group blocks that reconstruct --cd-json prints from path's
    cohomology report and that truncate prints for path; None where
    cohomology rejects path.  reconstruct path must find the round trip
    equal."""
    code, tables, _ = run_cli(capsys, "cohomology", path)
    if code != 0:
        return None
    cd_path = tmp_path / "cd.json"
    cd_path.write_text(tables, encoding="utf-8")
    code, rebuilt, _ = run_cli(capsys, "reconstruct", "--cd-json", str(cd_path))
    assert code == 0, path
    code, truncated, _ = run_cli(capsys, "truncate", path)
    assert code == 0, path
    code, round_trip, _ = run_cli(capsys, "reconstruct", path)
    assert code == 0, path
    assert json.loads(round_trip)["round_trip_equal"] is True, path
    return json.loads(rebuilt)["group"], json.loads(truncated)["group"]


@pytest.mark.parametrize("corpus, accepted", [("golden", 28), ("groups-seed-1", 96)])
def test_cohomology_tables_rebuild_the_truncated_group(corpus, accepted, tmp_path, capsys):
    """The tables a user passes from cohomology to reconstruct --cd-json
    rebuild the group that truncate prints, and reconstruct FILE finds its
    round trip equal, on every golden input and every file of the seed-1
    groups bench corpus that cohomology accepts."""
    if corpus == "golden":
        paths = sorted(map(str, GOLDEN_INPUTS.glob("*.pres")))
    else:
        files = _load_workloads_module().build("groups", 1, str(tmp_path)).files
        for path, text in files.items():
            Path(path).write_text(text, encoding="utf-8")
        paths = sorted(files)
    blocks = {path: _rebuilt_and_truncated(capsys, tmp_path, path) for path in paths}
    accepted_blocks = {path: pair for path, pair in blocks.items() if pair}
    assert len(accepted_blocks) == accepted
    for path, (rebuilt, truncated) in accepted_blocks.items():
        assert rebuilt == truncated, path


def test_reconstruct_file_checks_the_printed_tables(capsys, monkeypatch):
    """reconstruct FILE and selftest criterion 3 rebuild W from the tables
    as printed.  With the Bockstein table left out of them, tame3_q2's
    tables rebuild another W (exit 1), and nonmin4_q4's printed divisors
    no longer match its tables, which the reader rejects: gq3 rejecting
    its own tables is a bug (exit 4)."""
    from gq3 import cohom

    printed = cohom.tables_json
    monkeypatch.setattr(cohom, "tables_json",
                        lambda g: {k: v for k, v in printed(g).items() if k != "bockstein"})
    code, out, err = run_cli(capsys, "reconstruct", str(GOLDEN_INPUTS / "tame3_q2.pres"))
    assert code == 1
    assert json.loads(out)["round_trip_equal"] is False
    assert err == "round-trip: MISMATCH\n"
    code, out, err = run_cli(capsys, "reconstruct", str(GOLDEN_INPUTS / "nonmin4_q4.pres"))
    assert (code, out) == (4, "")
    assert err.startswith("internal error: RuntimeError(")
    assert "gq3 rejects its own cohomology tables: h2_divisors must be" in err
    check = acceptance.check_reconstruction_round_trip
    assert not acceptance.run_criterion("3", check, 0).passed


TABLES = {"q": 3, "n": 2, "h2_rank": 1, "cup": {"1,2": [1]}, "bockstein": {"1": [1]}}


@pytest.mark.parametrize("change", [
    {"cup": {"2,1": [1]}},
    {"bockstein": {"1": [1], "7": [1]}},
    {"cup": {"1,2": [1.5]}},
    {"cup": {"1,2": [1, 0]}},
    {"q": None},
    {"n": None},
    {"h2_rank": None},
    {"h2_divisors": [99999999999999999999999999999999]},
    {"q": 4, "kappa": 5},
    {"q": 12, "bockstein": {"1": [9]}},
    {"cup": None, "bockstein": None, "cupp": {"1,2": [1]}, "bockstien": {"1": [1]}},
], ids=["cup-reversed-key", "bockstein-key-range", "non-integer", "vector-length",
        "missing-q", "missing-n", "missing-h2_rank", "h2_divisors-contradicted",
        "kappa-contradicted", "q-not-a-prime-power", "unknown-keys"])
def test_reconstruct_cd_json_malformed_exit_3(change, tmp_path, capsys):
    tables = {k: v for k, v in {**TABLES, **change}.items() if v is not None}
    cd_path = tmp_path / "cd.json"
    cd_path.write_text(json.dumps(tables))
    code, out, err = run_cli(capsys, "reconstruct", "--cd-json", str(cd_path))
    assert code == 3
    assert out == ""
    assert "validation error" in err


@pytest.mark.parametrize("text, err", [
    ('{"q": 3, "n": 2, "h2_rank": 1, "cupp": {"1,2": [1]}, "bockstien": {"1": [1]}}',
     "cohomology tables have unknown key 'cupp'"),
    ('{"q": 3, "q": 2, "n": 2, "h2_rank": 1, "cup": {"1,2": [1]}}', "JSON object repeats key 'q'"),
    ('{"q": 3, "n": 2, "h2_rank": 1, "cup": {"1,2": [1], "1,2": [0]}}',
     "JSON object repeats key '1,2'"),
    ('{"cohomology": {"q": 3, "n": 1, "h2_rank": 0}, "minimality": {"a": 1, "a": 2}}',
     "JSON object repeats key 'a'"),
    ('{"q": 3, "n": 2, "h2_rank": 3, "cup": {"1,2": [1, 0, true]}}',
     "cup['1,2'] entry must be an integer, got True"),
    ('{"q": 3, "n": 2, "h2_rank": 3, "bockstein": {"1": [0, 0, 1], "2": [1, 1.5, null]}}',
     "bockstein['2'] entry must be an integer, got 1.5"),
    ('{"q": 3, "n": 2, "h2_rank": 3, "cup": {"1,2": [1, 2, 3]}, "bockstein": {"1": ["1", 0, 0]}}',
     "bockstein['1'] entry must be an integer, got '1'"),
], ids=["unknown-keys", "repeated-q", "repeated-cup-key", "repeated-key-around-the-tables",
        "bool-entry", "float-entry-before-null", "string-entry"])
def test_reconstruct_cd_json_names_an_unknown_or_repeated_key(text, err, tmp_path, capsys):
    """The reader takes no key tables_json does not print, and no key twice
    in any object; without the checks, the first and third texts rebuild
    groups of order 243 and 32, and the second reads q = 2.  A cup or
    Bockstein column is checked whole, and its first entry that is not a
    JSON integer is named."""
    cd_path = tmp_path / "cd.json"
    cd_path.write_text(text)
    assert run_cli(capsys, "reconstruct", "--cd-json", str(cd_path)) == (
        3, "", f"validation error: {err}\n")


NOT_BOTH = "validation error: reconstruct takes a presentation file or --cd-json, not both"


@pytest.mark.parametrize("argv, code, err", [
    (["reconstruct", "FILE", "--cd-json", ""], 3, NOT_BOTH),
    (["reconstruct", "", "--cd-json", "FILE"], 3, NOT_BOTH),
    (["reconstruct", ""], 2, "cannot open file: "),
    (["reconstruct", "--cd-json", ""], 2, "cannot open file: "),
    (["galois-check", "--field", "two_adic", "--q", "2", ""], 2, "cannot open file: "),
    (["truncate", "FILE", "--output", ""], 2, "cannot open file: "),
], ids=["reconstruct-empty-cd-json", "reconstruct-empty-file", "reconstruct-file",
        "reconstruct-cd-json", "galois-check-file", "truncate-output"])
def test_an_empty_path_is_given(tame_file, capsys, argv, code, err):
    """An empty path is a path that cannot be opened, not an absent one."""
    got, out, got_err = run_cli(capsys, *[tame_file if a == "FILE" else a for a in argv])
    assert (got, out) == (code, "")
    assert got_err.startswith(err)


def test_utf16_presentation_exits_2(tmp_path, capsys):
    path = tmp_path / "tame16.pres"
    path.write_bytes(TAME.encode("utf-16"))  # starts with a byte-order mark
    code, out, err = run_cli(capsys, "truncate", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: not UTF-8")


def test_utf16_cd_json_exits_2(tmp_path, capsys):
    cd_path = tmp_path / "cd16.json"
    cd_path.write_bytes('{"q": 3, "n": 1, "h2_rank": 0}'.encode("utf-16"))
    code, out, err = run_cli(capsys, "reconstruct", "--cd-json", str(cd_path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: not UTF-8")


def test_deeply_nested_cd_json_exits_2(tmp_path, capsys):
    cd_path = tmp_path / "deep.json"
    cd_path.write_text("[" * 100000)
    code, _, err = run_cli(capsys, "reconstruct", "--cd-json", str(cd_path))
    assert code == 2
    assert err.startswith("parse error: not JSON: nested too deep")


@pytest.mark.parametrize("word", ["(" * 1000 + "x1" + ")" * 1000,
                                  "[" * 1000 + "x1" + ", x2]" * 1000],
                         ids=["parentheses", "brackets"])
@pytest.mark.parametrize("command", ["truncate", "screen"])
def test_deep_nesting_exits_2(tmp_path, capsys, word, command):
    path = tmp_path / "deep.pres"
    path.write_text(f'q = 3;\ngens = [x1, x2];\nrels = ["{word}"];\n')
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert "nesting deeper than 100 (line 1, column 101)" in err
    assert "Traceback" not in err


def test_parse_error_quotes_a_short_prefix_of_the_relator(tmp_path, capsys):
    path = tmp_path / "deep.pres"
    path.write_text(f'q = 3;\ngens = [x1, x2];\nrels = ["{"[" * 1000}"];\n')
    code, _, err = run_cli(capsys, "truncate", str(path))
    assert code == 2
    assert len(err.encode()) < 300
    assert f"in relator 1 ({'[' * 40!r}...): nesting deeper than 100" in err


def test_map_parse_error_names_the_assignment(tame_file, capsys):
    code, out, err = run_cli(capsys, "morphism", tame_file, tame_file,
                             "--map", "x1 = x1; x2 = x2 [x1,")
    assert code == 2
    assert out == ""
    assert err == ("parse error: in --map image of 'x2' ('x2 [x1,'): "
                   "expected a word atom, found 'EOF' (line 1, column 8)\n")


@pytest.mark.parametrize("command", ["truncate", "reconstruct"])
def test_internal_error_exits_4(tame_file, capsys, monkeypatch, command):
    def broken(*args, **kwargs):
        raise AssertionError("inconsistent\norders")

    monkeypatch.setattr("gq3.cli.truncated_quotient", broken)
    monkeypatch.setattr("gq3.trunc.relator_subspace", broken)
    code, out, err = run_cli(capsys, command, tame_file)
    assert code == 4
    assert out == ""
    assert err == "internal error: AssertionError('inconsistent\\norders')\n"


@pytest.mark.parametrize("command", ["truncate", "cohomology", "reconstruct"])
def test_shape_mismatch_inside_zqlin_is_an_internal_error(tame_file, capsys, monkeypatch, command):
    """DimensionMismatch is a ValueError, but no input reaches it: the
    widths of every table are checked before any elimination runs."""
    import gq3.zqlin

    def broken(*args, **kwargs):
        raise gq3.zqlin.DimensionMismatch("row length mismatch")

    monkeypatch.setattr(gq3.zqlin, "_howell", broken)
    code, out, err = run_cli(capsys, command, tame_file)
    assert code == 4
    assert out == ""
    assert err == "internal error: DimensionMismatch('row length mismatch')\n"


@pytest.mark.parametrize("module,name,fake,rels,message", [
    # every gcd(q, x) 1: the Howell pivot 2 mod 4 is taken for a unit
    ("gq3.zqlin", "gcd", lambda *args: 1, '"x1^8"', "2 is not a unit mod 4"),
    # the elimination's p-divisibility test done at the wrong prime
    ("gq3.trunc", "prime_power", lambda q: (3, 2), '"x1^2"', "2 is not a unit mod 4"),
], ids=["howell", "elimination"])
def test_non_unit_pivot_is_an_internal_error(tmp_path, capsys, monkeypatch, module, name, fake,
                                             rels, message):
    """Only units are inverted, by construction: a non-unit pivot is a bug
    and exits 4, not 3, though pow raises ValueError on it."""
    path = tmp_path / "q4.pres"
    path.write_text(f"q = 4;\ngens = [x1, x2];\nrels = [{rels}];\n")
    monkeypatch.setattr(f"{module}.{name}", fake)
    code, out, err = run_cli(capsys, "truncate", str(path))
    assert (code, out) == (4, "")
    assert err == f"internal error: AssertionError('{message}')\n"


def count_calls(monkeypatch, calls, module, name):
    """Record in calls the positional arguments of every call to module.name."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_reconstruct_runs_relator_elimination_once(tame_file, capsys, monkeypatch):
    """One relator elimination, and the tables' rows eliminated only where
    they enter: `reconstruct` runs the Howell forms of relator_subspace, of
    the reader's canonicalize and of the printed abelianization, at every
    q (the invariant factors take none); `cohomology` runs
    relator_subspace's, and `kmilnor` those of its Steinberg relations and
    of its quadratic hull."""
    import gq3.cohom
    import gq3.trunc
    import gq3.zqlin

    calls, factors, howell = [], [], []
    count_calls(monkeypatch, calls, gq3.trunc, "relator_subspace")
    count_calls(monkeypatch, factors, gq3.cohom, "invariant_factors")
    code, out, _ = run_cli(capsys, "reconstruct", tame_file)
    assert code == 0
    assert json.loads(out)["round_trip_equal"] is True
    assert len(calls) == 1
    assert len(factors) == 2  # H^2's divisors printed into the tables, then checked on reading
    count_calls(monkeypatch, howell, gq3.zqlin, "_howell")
    for argv, count in [(["reconstruct", "tame3_q2.pres"], 3), (["reconstruct", "nonmin4_q4.pres"], 3),
                        (["reconstruct", "n8_q32.pres"], 3), (["cohomology", "tame3.pres"], 1),
                        (["cohomology", "n8_q32.pres"], 1),
                        (["kmilnor", "--field", "tame_local:97", "--q", "32"], 2)]:
        howell.clear()
        code, _, err = run_cli(capsys, *[str(GOLDEN_INPUTS / a) if a.endswith(".pres") else a
                                         for a in argv])
        assert (code, len(howell)) == (0, count), (argv, err)


# every relator differs from the others and from their subwords, so the
# evaluations of one relator can be counted by comparing words
SOURCE3 = 'q = 3;\ngens = [x1, x2, x3];\nrels = ["x1^3 [x1,x2]", "[x2,x3] x3^3"];\n'
TARGET3 = 'q = 3;\ngens = [y1, y2, y3];\nrels = ["y2^3 [y2,y1]", "[y1,y3] y3^3"];\n'
NONMIN3 = 'q = 3;\ngens = [x1, x2, x3];\nrels = ["x1 [x2,x3]", "x2^3", "x3 x3^-1"];\n'


@pytest.mark.parametrize("command, texts, extra", [
    ("truncate", [SOURCE3], []),
    ("truncate", [NONMIN3], []),
    ("morphism", [SOURCE3, TARGET3], ["--map", "x1 = y2; x2 = y1; x3 = y3"]),
    ("screen", [SOURCE3], ["--cd", "3"]),
    ("equiv", [SOURCE3], []),
    ("screen", [SOURCE3], []),
], ids=["truncate", "truncate-nonminimal", "morphism", "screen-cd", "equiv", "screen"])
def test_each_relator_is_evaluated_once(tmp_path, capsys, monkeypatch, command, texts, extra):
    """Every evaluation of a word in S^[3] walks its tree through
    trunc._evaluate, whether from TruncGroup.evaluate_word or from relator
    elimination, so each relator is seen there exactly once."""
    import gq3.trunc
    from gq3.presentations import parse_presentation

    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"p{i}.pres")
        paths[-1].write_text(text)
    calls = []
    count_calls(monkeypatch, calls, gq3.trunc, "_evaluate")
    code, _, err = run_cli(capsys, command, *map(str, paths), *extra)
    assert code == 0, err
    relators = [word for text in texts for word in parse_presentation(text).relators]
    assert [sum(args[2] == word for args in calls) for word in relators] == [1] * len(relators)


@pytest.mark.parametrize("command", ["truncate", "equiv", "screen"])
@pytest.mark.parametrize("rels, identity_images", [
    (["x1^3 [x1,x2]", "[x2,x3] x3^3"], 0),
    (["x1^3", "x1^3 [x1,x2] [x2,x1]"], 0),
    (["[x1,[x1,x2]]", "x1 x1^-1", "[x1,x2]^3", "[x1,x1]", "x2^3"], 4),
    (["[[x1,x2],x3]", "[x1,x2]", "[x1,x2]^2"], 1),
], ids=["all-nonzero", "dependent", "mixed", "zero-and-dependent"])
def test_certificates_only_for_identity_images(tmp_path, capsys, monkeypatch, command, rels,
                                               identity_images):
    """One certificate per relator whose free image is the identity, and
    one more for the dependent relator a screen names as its witness."""
    import gq3.cohom
    import gq3.trunc

    path = tmp_path / "p.pres"
    path.write_text(f"q = 3;\ngens = [x1, x2, x3];\nrels = {json.dumps(rels)};\n")
    calls = []
    count_calls(monkeypatch, calls, gq3.trunc, "word_nontriviality_certificate")
    count_calls(monkeypatch, calls, gq3.cohom, "word_nontriviality_certificate")
    code, out, err = run_cli(capsys, command, str(path))
    assert code in (0, 1), err
    named_dependent = (command == "screen"
                       and "has image dependent" in json.loads(out)["tests"][-1]["witness"])
    assert len(calls) == identity_images + named_dependent


@pytest.mark.parametrize("command", ["equiv", "screen"])
def test_certificates_make_no_hall_solve(tmp_path, capsys, monkeypatch, command):
    """A certificate is the lowest nonzero Magnus component of its relator:
    no CLI path writes it on the Hall basis."""
    import gq3.freelie
    import gq3.trunc

    rels = ["[x1,[x1,x2]]", "[x1,x2]^3", "[[x1,x2],x3]", "x2^3"]
    path = tmp_path / "p.pres"
    path.write_text(f"q = 3;\ngens = [x1, x2, x3];\nrels = {json.dumps(rels)};\n")
    certificates, solves = [], []
    count_calls(monkeypatch, certificates, gq3.trunc, "word_nontriviality_certificate")
    count_calls(monkeypatch, solves, gq3.freelie, "tensor_to_hall")
    code, _, err = run_cli(capsys, command, str(path))
    assert code in (0, 1), err
    assert len(certificates) == 3
    assert solves == []


def test_screen_cd_does_not_run_relator_elimination(tame_file, capsys, monkeypatch):
    import gq3.trunc

    calls = []
    count_calls(monkeypatch, calls, gq3.trunc, "relator_subspace")
    code, out, _ = run_cli(capsys, "screen", tame_file, "--cd", "3")
    assert code == 1
    assert "dim H^1 = 2 < cd(G) = 3" in out
    assert calls == []


@pytest.mark.parametrize("with_map", [False, True])
def test_galois_check_builds_the_matched_presentation_once(capsys, monkeypatch, with_map):
    import gq3.cli

    calls = []
    count_calls(monkeypatch, calls, gq3.cli, "preset_presentation")
    argv = ["galois-check", "--field", "tame_local:7", "--q", "3"]
    code, out, _ = run_cli(capsys, *argv, *(["--map", "u:x1, t:x2"] if with_map else []))
    assert code == 0
    assert json.loads(out)["verdict"] == "isomorphic"
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["kmilnor", "galois-check"])
@pytest.mark.parametrize("field", ["tame_local:13", "finite:13"])
def test_field_preset_builds_the_valuation_map_once(capsys, monkeypatch, command, field):
    """One query builds one valuation map, which reads v_p(class(c)) off
    the q-th root of unity c^((ell-1)/q)."""
    import gq3.milnor

    calls = []
    count_calls(monkeypatch, calls, gq3.milnor, "_unit_valuations")
    code, _, err = run_cli(capsys, command, "--field", field, "--q", "4")
    assert code == 0, err
    assert len(calls) == 1


def test_tame_pair_only_in_the_doubled_window_is_an_internal_error(capsys, monkeypatch):
    import gq3.milnor

    original = gq3.milnor._valuation_rows

    def with_extra_row(q, v, unit_span, s):
        rows = original(q, v, unit_span, s)
        # u (x) t has a nontrivial tame symbol, so its row is outside the span
        return rows + [(0, 1, 0, 0)] if abs(v) in (3, 4) else rows

    monkeypatch.setattr(gq3.milnor, "_valuation_rows", with_extra_row)
    code, out, err = run_cli(capsys, "kmilnor", "--field", "tame_local:9973", "--q", "2")
    assert code == 4
    assert out == ""
    assert err == ("internal error: OracleInstability('tame Steinberg span changed "
                   "when the valuation window doubled')\n")


def test_dyadic_symbol_moving_with_precision_is_an_internal_error(capsys, monkeypatch):
    import gq3.milnor

    original = gq3.milnor._symbol_table

    def flipped_at_ten_bits(left, right, precision_bits):
        table = original(left, right, precision_bits)
        if precision_bits == 10:
            i, j = left.index(-1), right.index(-1)
            table[i][j] = -table[i][j]
        return table

    monkeypatch.setattr(gq3.milnor, "_symbol_table", flipped_at_ten_bits)
    code, out, err = run_cli(capsys, "kmilnor", "--field", "two_adic", "--q", "2")
    assert code == 4
    assert out == ""
    assert err == ("internal error: OracleInstability('dyadic relation span changed "
                   "under precision increase')\n")


@pytest.mark.parametrize("mapping, message", [
    ("u:x1, t:x2, t:x2", "--map assigns basis element 't' twice"),
    ("", "correspondence keys [''] do not match the K-ring basis ('u', 't')"),
])
def test_galois_check_map_rejects_repeated_and_empty_maps(capsys, mapping, message):
    code, out, err = run_cli(capsys, "galois-check", "--field", "tame_local:7", "--q", "3",
                             "--map", mapping)
    assert code == 3
    assert out == ""
    assert err == f"validation error: {message}\n"


# Arabic-Indic digits are decimal to str.isdecimal, but the preset syntax,
# like a presentation file, takes ASCII digits only.
@pytest.mark.parametrize("field", ["tame_local:", "finite:abc", "two_adic:5",
                                   "finite:\u0667", "tame_local:\u0661\u0663"])
def test_malformed_presets_name_the_expected_forms(capsys, field):
    code, out, err = run_cli(capsys, "kmilnor", "--field", field, "--q", "2")
    assert code == 3
    assert out == ""
    assert err == (f"validation error: preset {field!r} is not finite:ell, "
                   "tame_local:ell or two_adic\n")


def test_overlong_ell_is_rejected_before_int(capsys):
    ell = "9" * 5000  # past int()'s 4300-digit limit on string conversion
    code, out, err = run_cli(capsys, "kmilnor", "--field", f"finite:{ell}", "--q", "2")
    assert code == 3
    assert out == ""
    assert err == f"validation error: residue characteristic {ell} must be a prime <= 10000\n"


def test_galois_check_reports_a_bad_file_before_a_bad_preset(tmp_path, capsys):
    path = tmp_path / "bad.pres"
    path.write_text(BAD)
    # q = 5 does not divide 7 - 1: the preset is bad too
    code, _, err = run_cli(capsys, "galois-check", "--field", "tame_local:7", "--q", "5",
                             str(path))
    assert code == 2
    assert err.startswith("parse error:")


def test_galois_check_rejects_a_q_other_than_the_files(capsys):
    """The comparison runs at the file's modulus, so a different --q is a
    validation error that names both moduli, not a report headed by it."""
    code, out, err = run_cli(capsys, "galois-check", "--field", "tame_local:19", "--q", "3",
                             str(Path(__file__).parent / "golden" / "inputs" / "tame9.pres"),
                             "--map", "u:x1,t:x2")
    assert code == 3
    assert out == ""
    assert err == "validation error: --q 3 does not match the presentation's modulus q = 9\n"


def test_reconstruct_cd_json_not_json_exit_2(tmp_path, capsys):
    cd_path = tmp_path / "cd.json"
    cd_path.write_text('{"q": 3, ')
    code, out, err = run_cli(capsys, "reconstruct", "--cd-json", str(cd_path))
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: not JSON")


def test_reconstruct_mixed_exponent_warns(tmp_path, capsys):
    path = tmp_path / "mixed.pres"
    path.write_text('q = 4;\ngens = [x1, x2];\nrels = ["x1^2"];\n')
    code, _, err = run_cli(capsys, "reconstruct", str(path))
    assert code == 3
    assert "elementary" in err


def test_equiv_consistent(tame_file, capsys):
    code, out, _ = run_cli(capsys, "equiv", tame_file)
    assert code == 0
    assert json.loads(out)["verdict"] == "consistent"


def test_equiv_flags_dependency(tmp_path, capsys):
    path = tmp_path / "dep.pres"
    path.write_text('q = 3;\ngens = [x1, x2];\nrels = ["x1^3", "x1^3 [x1,x2] [x2,x1]"];\n')
    code, out, _ = run_cli(capsys, "equiv", str(path))
    assert code == 1
    assert json.loads(out)["verdict"] == "condition-failed"


@pytest.mark.parametrize("relator, test, witness", [
    ("a^2", "non-central", "'a^2' has p-divisible nonzero degree-1 image: not central in S^[3]"),
    ("a^6 b^4", "non-central",
     "'a^6 b^4' has p-divisible nonzero degree-1 image: not central in S^[3]"),
    ("a^2 b", "frattini", "'a^2 b' has nonzero degree-1 image: presentation not minimal"),
], ids=["p-divisible", "p-divisible-two-letters", "unit"])
def test_equiv_names_a_p_divisible_image_non_central(relator, test, witness, tmp_path, capsys):
    """A p-divisible degree-1 image lies in the Frattini subgroup, so it does
    not make the presentation non-minimal; only a unit coefficient does."""
    path = tmp_path / "rel.pres"
    path.write_text(f'q = 4;\ngens = [a, b];\nrels = ["{relator}"];\n')
    code, out, _ = run_cli(capsys, "equiv", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["tests"] == [{"name": f"relator[0] {test}", "status": "triggered",
                              "witness": witness}]
    assert data["tests"] == eager_relator_independence(
        parse_presentation(path.read_text())).to_json_dict()["tests"]


def test_morphism_identity(tame_file, capsys):
    code, out, _ = run_cli(
        capsys, "morphism", tame_file, tame_file, "--map", "x1 = x1; x2 = x2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["condition_b"] and data["condition_d"] and data["agreement"]


@pytest.mark.parametrize("mapping, message", [
    ("x1=x1; x2=x2; zz=x1", "--map assigns an image to 'zz', not a source generator"),
    ("x1=x2; x2=x2; x1=x1", "--map assigns generator 'x1' twice"),
])
def test_morphism_map_rejects_unknown_and_repeated_names(tame_file, capsys, mapping, message):
    code, out, err = run_cli(capsys, "morphism", tame_file, tame_file, "--map", mapping)
    assert code == 3
    assert out == ""
    assert err == f"validation error: {message}\n"


def test_morphism_map_allows_empty_parts(tame_file, capsys):
    code, _, _ = run_cli(capsys, "morphism", tame_file, tame_file, "--map", "; x1 = x1;; x2 = x2;")
    assert code == 0


def test_morphism_bad_images_exit_3(tame_file, tmp_path, capsys):
    free_path = tmp_path / "free3.pres"
    free_path.write_text('q = 3;\ngens = [y1, y2];\nrels = [];\n')
    code, _, err = run_cli(
        capsys, "morphism", tame_file, str(free_path), "--map", "x1 = y1; x2 = y2"
    )
    assert code == 3
    assert "respect relator" in err


def test_screen_obstructed(tmp_path, capsys):
    path = tmp_path / "deep.pres"
    path.write_text(DEEP)
    code, out, _ = run_cli(capsys, "screen", str(path))
    assert code == 1
    assert json.loads(out)["verdict"] == "obstructed"


def test_screen_clean_power(tmp_path, capsys):
    path = tmp_path / "pw.pres"
    path.write_text('q = 2;\ngens = [x1, x2];\nrels = ["x1^2"];\n')
    code, out, _ = run_cli(capsys, "screen", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "no_obstruction_found"


def test_screen_dimension(tmp_path, capsys):
    path = tmp_path / "free3.pres"
    path.write_text('q = 3;\ngens = [x1, x2];\nrels = [];\n')
    code, out, _ = run_cli(capsys, "screen", str(path), "--cd", "3")
    assert code == 1
    assert json.loads(out)["verdict"] == "obstructed"


@pytest.mark.parametrize("cd", ["0", "-5"])
def test_screen_cd_below_1_exits_3(cd, tmp_path, capsys):
    path = tmp_path / "free2.pres"
    path.write_text(FREE)
    code, out, err = run_cli(capsys, "screen", str(path), "--cd", cd)
    assert code == 3
    assert out == ""
    assert err == f"validation error: cohomological dimension must be at least 1, got {cd}\n"


def test_screen_exponent_at_the_parser_cap(tmp_path, capsys):
    """The certificate never writes the power out letter by letter."""
    path = tmp_path / "huge.pres"
    path.write_text('q = 2;\ngens = [a, b];\nrels = ["[a^4611686018427387904, b]"];\n')
    code, out, err = run_cli(capsys, "screen", str(path))
    assert code == 1
    assert json.loads(out)["verdict"] == "obstructed"
    assert "Traceback" not in err


def test_screen_nonprime_exit_3(tmp_path, capsys):
    path = tmp_path / "q4.pres"
    path.write_text('q = 4;\ngens = [x1];\nrels = [];\n')
    code, _, _ = run_cli(capsys, "screen", str(path))
    assert code == 3


def test_kmilnor_tame(capsys):
    code, out, err = run_cli(capsys, "kmilnor", "--field", "tame_local:5", "--q", "2")
    assert code == 0
    data = json.loads(out)
    ranks = [data["degrees"][str(r)]["rank"] for r in range(1, 5)]
    assert ranks == [2, 1, 0, 0]
    assert "[2, 1, 0, 0]" in err


def test_kmilnor_finite(capsys):
    code, out, _ = run_cli(capsys, "kmilnor", "--field", "finite:7", "--q", "3", "--rmax", "2")
    assert code == 0
    data = json.loads(out)
    assert [data["degrees"][str(r)]["rank"] for r in (1, 2)] == [1, 0]


def test_kmilnor_bad_preset_exit_3(capsys):
    code, _, _ = run_cli(capsys, "kmilnor", "--field", "finite:7", "--q", "5")
    assert code == 3


def test_galois_check_default_matched(capsys):
    code, out, _ = run_cli(capsys, "galois-check", "--field", "tame_local:5", "--q", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "isomorphic"


def test_galois_check_explicit_file_and_map(tmp_path, capsys):
    path = tmp_path / "dem.pres"
    path.write_text('q = 3;\ngens = [x1, x2];\nrels = ["x2^3 [x1,x2]"];\n')
    code, out, _ = run_cli(
        capsys, "galois-check", "--field", "tame_local:7", "--q", "3",
        str(path), "--map", "u:x1, t:x2",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "isomorphic"


def test_galois_check_dash_led_map_needs_an_equals_sign(capsys):
    """argparse reads a value that starts with '-' and holds no space as an
    option, so the dyadic map "-1:x1,..." is given as --map=... (README)."""
    code, out, _ = run_cli(capsys, "galois-check", "--field", "two_adic", "--q", "2",
                           "--map=-1:x1,2:x2,5:x3")
    assert code == 0
    assert json.loads(out)["verdict"] == "isomorphic"
    with pytest.raises(SystemExit) as info:
        main(["galois-check", "--field", "two_adic", "--q", "2", "--map", "-1:x1,2:x2,5:x3"])
    assert info.value.code == 2
    assert "argument --map: expected one argument" in capsys.readouterr().err


def test_reports_byte_deterministic(tame_file, capsys):
    _, out1, _ = run_cli(capsys, "truncate", tame_file, "--seed", "7")
    _, out2, _ = run_cli(capsys, "truncate", tame_file, "--seed", "7")
    assert out1 == out2
    assert json.loads(out1)["seed"] == 7


def test_output_file(tame_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "truncate", tame_file, "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["group"]["order"] == 81
    # one writer feeds both paths: the file holds the bytes stdout would
    _, plain, _ = run_cli(capsys, "truncate", tame_file)
    assert out_path.read_bytes() == plain.encode("utf-8")


_TEXT = st.text(st.sampled_from('ab"\\/\x00\x1f\n\t\x7fé€\u2028😀') | st.characters())
_SCALARS = (
    st.integers() | st.integers(min_value=-2**80, max_value=2**80) | st.booleans() | st.none()
    | st.floats(min_value=-1e6, max_value=1e6).map(lambda x: round(x, 3))
    | st.sampled_from([1e-07, 0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | _TEXT
)
_REPORTS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)
                   | st.lists(st.integers() | st.booleans(), max_size=5)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_REPORTS)
@example((5,))  # a one-int tuple's repr ends in ",)"
@example([1, True])  # bools are ints to isinstance, and json prints true
@example([True])
@example([2**64, -2**64 - 1, 2**100, -(2**100)])
# tuple and dict subclasses are written as their bases: records, nested and empty
@example({"words": [Power(Generator(1), -2), Product(()), Commutator(Generator(0), Product(()))],
          "tables": OrderedDict([("b", OrderedDict()), ("a", [])])})
@example({"4": [[int(i == j) for j in range(81)] for i in range(81)]})  # the dyadic degree-4 block
def test_report_writer_matches_json_dumps(value):
    out = []
    _write(value, out, "\n")
    assert "".join(out) == json.dumps(value, indent=2, sort_keys=True)


def test_report_writer_reproduces_every_golden_report():
    reports = 0
    for path in sorted((Path(__file__).parent / "golden").glob("*.out")):
        text = path.read_text(encoding="utf-8")
        if not text.startswith("{"):
            continue  # usage and version text, or an empty stdout
        out = []
        _write(json.loads(text), out, "\n")
        assert "".join(out) + "\n" == text, path.name
        reports += 1
    assert reports >= 50
