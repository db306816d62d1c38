"""Direct subcommand dispatch agrees with the root of the argparse tree.

``cli.parse_args`` hands the arguments after a known command to that
command's subparser, and anything else to the root of the tree,
``cli._tree()[0]``.  On every argv the two give the same namespace,
``command`` included, or the same exit code, stdout and stderr.
"""

import argparse
import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gq3 import cli

README = Path(__file__).parents[1] / "README.md"
GOLDEN_ARGVS = [case["argv"] for case in json.loads(
    (Path(__file__).parent / "golden" / "cases.json").read_text(encoding="utf-8")).values()]


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(argv))
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()
    return "namespace", namespace, out.getvalue(), err.getvalue()


def _assert_agree(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    fast = _outcome(cli.parse_args, argv)
    full = _outcome(lambda a: cli._tree()[0].parse_args(a), argv)
    assert fast == full


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
def test_golden_argvs_parse_alike(argv, monkeypatch):
    _assert_agree(argv, monkeypatch)


FLAGS = sorted(
    {flag for _, _, arguments in cli.COMMANDS.values()
     for flags, _ in arguments + cli.COMMON_ARGUMENTS for flag in flags if flag.startswith("-")}
    | {"-h", "--help", "--version", "--bogus"})
VALUES = ["5", "-3", "0", "abc", "", "f.pres", "x1 = x1; x2 = x2", "u:x1, t:x2",
          "two_adic", str(10**40), "-", "--", "-x"]


def _abbreviations(flag):
    return [flag] if not flag.startswith("--") else [flag[:k] for k in range(3, len(flag) + 1)]


flag = st.sampled_from(FLAGS).flatmap(lambda f: st.sampled_from(_abbreviations(f)))
value = st.sampled_from(VALUES)
token_group = st.one_of(
    flag.map(lambda f: [f]),
    value.map(lambda v: [v]),
    st.tuples(flag, value).map(list),
    st.tuples(flag, value).map(lambda t: [f"{t[0]}={t[1]}"]),
)
command = st.sampled_from(list(cli.COMMANDS) * 4 + ["frobnicate", "trunc", "--help", "-h", "--version"])
argvs = st.tuples(command, st.lists(token_group, max_size=6)).map(
    lambda t: [t[0], *(tok for group in t[1] for tok in group)])


@settings(max_examples=400, deadline=None)
@given(argvs)
def test_drawn_argvs_parse_alike(argv):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_agree(argv, monkeypatch)


@pytest.mark.parametrize("argv", [
    ["truncate", "f.pres"],
    ["--help"],
    ["truncate"],
    ["truncate", "--help"],
    ["truncate", "f.pres", "--bogus"],
])
def test_parsers_built_per_call(argv, monkeypatch, capsys):
    """The first call builds the tree, the root and one parser per
    subcommand, whatever the argv; a second call builds none, help and
    usage errors included."""
    cli._tree.cache_clear()
    counts = {"constructed": 0, "subparsers": 0}
    init = argparse.ArgumentParser.__init__
    add_parser = argparse._SubParsersAction.add_parser

    def counting_init(self, *args, **kwargs):
        counts["constructed"] += 1
        init(self, *args, **kwargs)

    def counting_add_parser(self, *args, **kwargs):
        counts["subparsers"] += 1
        return add_parser(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    with contextlib.suppress(SystemExit):
        cli.main(argv)
    assert counts == {"constructed": 1 + len(cli.COMMANDS), "subparsers": len(cli.COMMANDS)}
    counts.update(constructed=0, subparsers=0)
    with contextlib.suppress(SystemExit):
        cli.main(argv)
    assert counts == {"constructed": 0, "subparsers": 0}


def _required_argv(arguments):
    """The least argv a subcommand accepts: a value for each required
    positional and option.  Parsing opens no file, so none need exist."""
    argv = []
    for flags, kwargs in arguments:
        if not flags[0].startswith("-") and kwargs.get("nargs") != "?":
            argv.append("f.pres")
        elif kwargs.get("required"):
            argv += [flags[0], "2"]
    return argv


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_direct_dispatch_names_the_command(name, monkeypatch):
    """The subparser alone parses a complete argv, and its namespace names
    the command by its key in COMMANDS, which the report prints."""
    def no_root(argv):
        raise AssertionError(f"the root parser parsed {argv}")

    monkeypatch.setattr(cli._tree()[0], "parse_args", no_root)
    argv = [name, *_required_argv(cli.COMMANDS[name][2])]
    assert cli.parse_args(argv).command == name


def _readme_cli_lines():
    """The gq3 lines of the sh block under README's ## CLI heading."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("gq3 ")]


def test_readme_cli_examples_parse():
    """Every documented invocation parses (its files are never opened)."""
    lines = _readme_cli_lines()
    assert len(lines) == 11
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            cli.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


OPTION_TYPES = {flags[0]: (name, kwargs["type"]) for name, (_, _, arguments) in cli.COMMANDS.items()
                for flags, kwargs in arguments + cli.COMMON_ARGUMENTS if "type" in kwargs}


def test_integer_options_share_one_type():
    assert {flag: kind for flag, (_, kind) in OPTION_TYPES.items()} == dict.fromkeys(
        ["--class-bound", "--cd", "--q", "--rmax", "--seed"], cli._int)
    texts = ("0", "-7", "007", "-0", str(10**40))
    assert [cli._int(text) for text in texts] == [0, -7, 7, 0, 10**40]


@pytest.mark.parametrize("flag", sorted(OPTION_TYPES))
@pytest.mark.parametrize("text", ["٢", "²", " 3", "3 ", "1_0", "+4", "--4", "0x10", ""])
def test_integer_options_read_the_grammar_int_only(flag, text, monkeypatch):
    """Every integer option takes -?[0-9]+, as presentation files do: other
    Unicode digits, spaces, underscores and a plus sign are usage errors."""
    monkeypatch.setenv("COLUMNS", "80")
    command = OPTION_TYPES[flag][0]
    kind, code, _, err = _outcome(cli.parse_args, [command, f"{flag}={text}"])
    assert (kind, code) == ("exit", 2)
    assert f"argument {flag}: invalid int value: {text!r}" in err
