"""The exit-code contract under malformed input.

Presentation files are assembled from the grammar's own tokens: mostly
broken, sometimes well formed, with nesting around the parser's cap,
exponents beyond 2^63, moduli far above the cap and bytes that are not
UTF-8.  Whatever the file, ``truncate`` answers 0, 2 or 3 (2 when the
bytes are not UTF-8) and ``screen`` 0 to 3, and no exception escapes
``main``.

The other arguments of every subcommand are drawn too: ``--map`` strings
for ``morphism`` and ``galois-check``, ``--field`` strings, and ``--q``,
``--rmax``, ``--class-bound`` and ``--cd`` values that are huge, negative
or not numbers.  Each run answers 0 to 4, or is argparse's usage exit 2.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from gq3.cli import main
from gq3.presentations import MAX_NESTING

NAMES = ["x1", "x2", "x3"]
EXPONENTS = ["-1", "2", "3", "0", "-3", str(2**63 - 1), str(-(2**63 - 1)), str(2**63), str(10**40)]
MODULI = [2, 3, 4, 5, 8, 9, 27, 32]
BAD_MODULI = [0, 1, -3, 6, 33, 2**61 - 1, 10**30]
TOKENS = NAMES + EXPONENTS + ["y", "(", ")", "[", "]", ",", "^", "*", " ", "^-", "é"]

names = st.sampled_from(NAMES)
well_formed = st.recursive(
    names,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(EXPONENTS)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"[{t[0]}, {t[1]}]"),
        st.lists(inner, min_size=2, max_size=3).map(" ".join),
    ),
    max_leaves=6,
)
token_soup = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
nested = st.tuples(st.integers(MAX_NESTING - 2, 1000), st.booleans()).map(
    lambda t: "(" * t[0] + "x1" + ")" * t[0] if t[1] else "[" * t[0] + "x1" + ", x2]" * t[0])
words = st.one_of(well_formed, well_formed, well_formed, token_soup, nested)


# True about one time in eight (hypothesis favours the ends of a range)
rarely = st.sampled_from([False] * 7 + [True])
moduli, bad_moduli = st.sampled_from(MODULI), st.sampled_from(BAD_MODULI)


@st.composite
def presentation_bytes(draw):
    q = draw(bad_moduli if draw(rarely) else moduli)
    gens = draw(st.lists(names, min_size=1, max_size=3, unique=not draw(rarely)))
    rels = draw(st.lists(words, max_size=3))
    statements = [
        f"q = {q};",
        f"gens = [{', '.join(gens)}];",
        "rels = [" + ", ".join(f'"{w}"' for w in rels) + "];",
    ]
    statements = draw(st.permutations(statements))
    if draw(rarely):
        statements.insert(draw(st.integers(0, 3)), draw(token_soup))
    data = ("\n".join(statements) + "\n").encode("utf-16" if draw(rarely) else "utf-8")
    if draw(rarely):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff\xfe" + data[cut:]
    return data


def _is_utf8(data):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _run_or_usage_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, err.getvalue()
            assert "usage: gq3" in err.getvalue()
            return 2, err.getvalue()
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(presentation_bytes())
def test_truncate_and_screen_keep_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.pres")
        with open(path, "wb") as fh:
            fh.write(data)
        code, err = _run(["truncate", path])
        assert code in (0, 2, 3), err
        if not _is_utf8(data):
            assert code == 2, err
        assert "Traceback" not in err
        code, err = _run(["screen", path])
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err


INPUTS = Path(__file__).parent / "golden" / "inputs"
FILES = [str(INPUTS / name) for name in ("tame3.pres", "free2_q3.pres", "deep_q2.pres")]
INTEGERS = ["0", "1", "2", "3", "4", "5", "6", "7", "32", "-1", "-4", str(2**63), str(10**40),
            "9" * 5000, "abc", "", "1.5", "0x10", " 3", "1_0", "--"]
FIELDS = ["two_adic", "2adic", "finite:7", "finite:17", "tame_local:13", "tame:5", "finite:4",
          "finite:-7", "tame_local:", "tame_local:1e3", "finite:" + "9" * 50, "two_adic:3",
          "frob:3", "", ":"]
MORPHISM_PARTS = ["x1 = x1; x2 = x2", "x1 = x1", "x2 = x2", "x1 = x2", "x2 = x1 x2", "x1 = x1^9",
                  "zz = x1", "x1", "= x1", "", " ", "x1 = [x1,", "x1 = x1 = x2", "x2 = y1",
                  "x1 = x1^" + "9" * 30]
GALOIS_PARTS = ["u:x1", "t:x2", "u:x2", "t:x1", "u:zz", "zz:x1", "u", ":", "", "u=x1"]
# small valid values drawn more often, so that some runs get past validation
integers = st.sampled_from(["2", "3", "4"] * 4 + INTEGERS)
fields = st.sampled_from(FIELDS[:5] * 2 + FIELDS)


def _given(name, values):
    return values.map(lambda v: [name, v])


def _option(name, values):
    """[] or [name, value], as an optional argument is left out or given."""
    return st.one_of(st.just([]), _given(name, values))


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda t: [command, *(tok for part in t for tok in part)])


def _one(values):
    return values.map(lambda v: [v])


morphism_maps = st.lists(st.sampled_from(MORPHISM_PARTS), max_size=4).map("; ".join)
galois_maps = st.lists(st.sampled_from(GALOIS_PARTS), max_size=3).map(", ".join)
files = st.sampled_from(FILES)
argvs = st.one_of(
    _argv("morphism", _one(files), _one(files), _given("--map", morphism_maps)),
    _argv("galois-check", _given("--field", fields), _given("--q", integers),
          st.one_of(st.just([]), _one(files)), _option("--map", galois_maps),
          _option("--rmax", integers)),
    _argv("kmilnor", _given("--field", fields), _given("--q", integers),
          _option("--rmax", integers)),
    _argv("equiv", _one(files), _option("--class-bound", integers)),
    _argv("screen", _one(files), _option("--class-bound", integers), _option("--cd", integers)),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs)
def test_every_subcommand_keeps_the_exit_code_contract(argv):
    code, err = _run_or_usage_exit(argv)
    assert code in (0, 1, 2, 3, 4), err
    assert "Traceback" not in err
