"""Command-line front end: deterministic JSON reports on stdout, human
summaries on stderr.

Exit codes: 0 success or verified, 1 verified-negative (an obstruction
or a failed comparison is still a successful run), 2 parse error,
3 validation error, 4 internal error (a bug: no answer is given).

The argparse tree is built once per process.  ``main`` hands the
arguments after a known command to that command's subparser, which
prints its own help and usage errors; the root parser takes everything
else (no command, an unknown one, ``--version``), and parses argv again
to report arguments the subparser left over.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .cohom import (
    CohomologyData,
    check_relator_independence,
    cohomology_data_from_presentation,
    morphism_check,
    obstruction_screen,
    reconstruct_g3,
)
from .milnor import (
    PresetError,
    galois_symbol_compare,
    milnor_mod_q,
    parse_preset,
    preset_presentation,
)
from .presentations import ParseError, PresentationError, parse_labelled_word, parse_presentation
from .trunc import (
    TRIVIALITY_CLASS,
    abelianization,
    free_truncation,
    group_invariants,
    relator_subspace,
    truncated_quotient,
)
from .zqlin import DimensionMismatch

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


def _write(value, out: list[str], newline: str) -> None:
    """Append to out the text of json.dumps(value, indent=2, sort_keys=True);
    newline is a line break and the indent of value's own line.  json
    indents only in pure Python, so ints, strings and lists of ints (one
    join each) are written here, other scalars and empty containers by json."""
    inner = newline + "  "
    if type(value) is int:
        out.append(str(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict) and value:
        sep = "{"
        for key in sorted(value):
            out.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _write(value[key], out, inner)
            sep = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        if all(type(x) is int for x in value):  # not bool, which json prints as true/false
            out.append("[" + inner + ("," + inner).join(map(str, value)) + newline + "]")
        else:
            sep = "["
            for item in value:
                out.append(sep + inner)
                _write(item, out, inner)
                sep = ","
            out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def _emit(args, payload: dict, summary: str) -> None:
    """Write the report, as json.dumps(indent=2, sort_keys=True) would
    print it, to --output or stdout, and the summary to stderr."""
    payload = {"tool": "gq3", "version": __version__, "command": args.command, **payload}
    payload["seed"] = getattr(args, "seed", 0) or 0
    out: list[str] = []
    _write(payload, out, "\n")
    text = "".join(out)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader went away: the verdict still stands.  Later writes
            # and the flush at exit go to the null device, not a closed pipe.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    print(summary, file=sys.stderr)


def _load_presentation(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def _subspace_dict(w) -> dict:
    return {"ambient_dim": w.ambient_dim, "basis": [list(r) for r in w.basis]}


def _minimality_dict(report) -> dict:
    out = report._asdict()
    del out["images"]
    return out


def _group_dict(group, inv) -> dict:
    return {"n": group.n, **inv._asdict(), "relator_subspace": _subspace_dict(group.w)}


def _relator_images(p, report) -> list[dict]:
    free = free_truncation(p.n, p.q)
    out = []
    for source, y in zip(p.relator_sources, report.images):
        entry = {"relator": source, "degree1_mod_q": [e % p.q for e in y.e]}
        if free.is_central(y):
            entry["central_vector"] = list(free.central_vector(y))
        out.append(entry)
    return out


def cmd_truncate(args) -> int:
    p = _load_presentation(args.file)
    group, report = truncated_quotient(p)
    inv = group_invariants(group)
    payload = {
        "q": p.q,
        "generators": list(p.generators),
        "relator_images": _relator_images(p, report),
        "group": _group_dict(group, inv),
        "minimality": _minimality_dict(report),
    }
    _emit(args, payload, f"level-3 quotient of order {inv.order} on {group.n} generators")
    return EXIT_OK


def cmd_cohomology(args) -> int:
    p = _load_presentation(args.file)
    cd, report = cohomology_data_from_presentation(p)
    payload = {"cohomology": cd.to_json_dict(), "minimality": _minimality_dict(report)}
    _emit(args, payload, f"H^1 rank {cd.n}, H^2 model rank {cd.h2_rank}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    if not args.file and not args.cd_json:
        raise PresentationError("reconstruct needs a presentation file or --cd-json")
    if args.file and args.cd_json:
        raise PresentationError("reconstruct takes a presentation file or --cd-json, not both")
    if args.cd_json:
        with open(args.cd_json, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"not JSON: {exc.msg}", exc.lineno, exc.colno) from None
            except RecursionError:
                raise ParseError("not JSON: nested too deep", 1, 1) from None
        if isinstance(raw, dict) and "cohomology" in raw:
            raw = raw["cohomology"]
        cd = CohomologyData.from_json_dict(raw)
        group = reconstruct_g3(cd)
        inv = group_invariants(group)
        payload = {"q": cd.q, "source": "cohomology-tables", "group": _group_dict(group, inv)}
        _emit(args, payload, f"reconstructed group of order {inv.order}")
        return EXIT_OK

    p = _load_presentation(args.file)
    w, report = relator_subspace(p)
    # round_trip_equal compares W with the Howell form of its own rows: it is
    # always true, so this mode never exits 1
    group = reconstruct_g3(CohomologyData(w.q, len(report.kept_generators), w.basis))
    equal = group.w == w
    payload = {
        "q": p.q,
        "source": "presentation",
        "round_trip_equal": equal,
        # round-trip reports keep their published shape: no center or exponent
        "group": {
            "n": group.n,
            "order": group.order(),
            "abelianization": list(abelianization(group)),
            "relator_subspace": _subspace_dict(group.w),
        },
        "minimality": _minimality_dict(report),
    }
    _emit(args, payload, "round-trip: " + ("equal" if equal else "MISMATCH"))
    return EXIT_OK if equal else EXIT_NEGATIVE


def cmd_equiv(args) -> int:
    p = _load_presentation(args.file)
    report = check_relator_independence(p, certificate_class=args.class_bound)
    payload = {"q": p.q, "n": p.n, "class_bound": args.class_bound, **report.to_json_dict()}
    _emit(args, payload, f"relator independence: {report.verdict}")
    return EXIT_OK if report.verdict == "consistent" else EXIT_NEGATIVE


def cmd_morphism(args) -> int:
    p1 = _load_presentation(args.source)
    p2 = _load_presentation(args.target)
    images = []
    assignments = {}
    for part in args.map.split(";"):
        part = part.strip()
        if not part:
            continue
        name, _, text = part.partition("=")
        name = name.strip()
        if name not in p1.generators:
            raise PresentationError(f"--map assigns an image to {name!r}, not a source generator")
        if name in assignments:
            raise PresentationError(f"--map assigns generator {name!r} twice")
        assignments[name] = text.strip()
    for gen in p1.generators:
        if gen not in assignments:
            raise PresentationError(f"no image assigned to generator {gen!r}")
        images.append(parse_labelled_word(assignments[gen], p2, f"in --map image of {gen!r}"))
    report = morphism_check(p1, p2, images)
    payload = {
        "q": p1.q,
        "source_generators": list(p1.generators),
        "target_generators": list(p2.generators),
        **report._asdict(),
    }
    summary = (
        f"level-3 isomorphism: {report.pi3_isomorphism}; "
        f"cohomology conditions agree: {report.agreement}"
    )
    _emit(args, payload, summary)
    return EXIT_OK if report.agreement else EXIT_NEGATIVE


def cmd_screen(args) -> int:
    p = _load_presentation(args.file)
    report = obstruction_screen(
        p,
        cd_bound=args.cd,
        torsion_free=args.torsion_free,
        certificate_class=args.class_bound,
    )
    payload = {
        "q": p.q,
        "n": p.n,
        "class_bound": args.class_bound,
        **report.to_json_dict(),
    }
    _emit(args, payload, f"screen verdict: {report.verdict}")
    return EXIT_OK if report.verdict == "no_obstruction_found" else EXIT_NEGATIVE


def cmd_kmilnor(args) -> int:
    preset = parse_preset(args.field)
    algebra = milnor_mod_q(preset, args.q, args.rmax)
    degrees = {}
    ranks = []
    for r in range(1, args.rmax + 1):
        divisors = algebra.degree_divisors(r)
        ranks.append(divisors.count(args.q))
        degrees[str(r)] = {
            "rank": ranks[-1],
            "divisors": list(divisors),
            "relations": [] if r == 1 else [list(row) for row in algebra.components[r].basis],
        }
    payload = {
        "field": preset.describe(),
        "q": args.q,
        "rmax": args.rmax,
        "basis": list(algebra.basis_names),
        "degrees": degrees,
    }
    _emit(args, payload, f"K-ring ranks by degree: {ranks}")
    return EXIT_OK


def cmd_galois_check(args) -> int:
    preset = parse_preset(args.field)
    p = _load_presentation(args.file) if args.file else None
    if p is not None and p.q != args.q:
        raise PresentationError(f"--q {args.q} does not match the presentation's modulus q = {p.q}")
    if p is None or args.map is None:
        matched, correspondence = preset_presentation(preset, args.q)
        if p is None:
            p = matched
    if args.map is not None:
        correspondence = {}
        for part in args.map.split(","):
            name, _, target = part.strip().partition(":")
            name = name.strip()
            if name in correspondence:
                raise PresetError(f"--map assigns basis element {name!r} twice")
            correspondence[name] = target.strip()
    report = galois_symbol_compare(preset, p, correspondence, r_max=args.rmax)
    payload = {
        "field": preset.describe(),
        "q": args.q,
        "rmax": args.rmax,
        "correspondence": correspondence,
        **report.to_json_dict(),
    }
    _emit(args, payload, f"graded comparison: {report.verdict}")
    return EXIT_OK if report.verdict == "isomorphic" else EXIT_NEGATIVE


def cmd_selftest(args) -> int:
    from .acceptance import run_all  # the corpus, and random with it, only for selftest
    results = run_all(args.seed or 0)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail} ({r.seconds:.2f}s)", file=sys.stderr)
    payload = {
        "results": [{**r._asdict(), "seconds": round(r.seconds, 3)} for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(args, payload, f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_OK if payload["all_passed"] else EXIT_NEGATIVE


def _int(text: str) -> int:
    """An integer option: the presentation grammar's INT, -?[0-9]+, so no
    other Unicode digits, spaces, underscores or plus sign."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value"


def _arg(*flags, **kwargs):
    return flags, kwargs


# name -> (handler, help, arguments): the one declaration of each subcommand.
# Every subcommand also takes COMMON_ARGUMENTS, after its own.
COMMANDS = {
    "truncate": (cmd_truncate, "compute the level-3 quotient of a presentation", [
        _arg("file"),
    ]),
    "cohomology": (cmd_cohomology, "extract H^1/H^2 tables from a presentation", [
        _arg("file"),
    ]),
    "reconstruct": (cmd_reconstruct, "rebuild the quotient from cohomology tables", [
        _arg("file", nargs="?", help="presentation file (round-trip mode)"),
        _arg("--cd-json", help="JSON file of cohomology tables"),
    ]),
    "equiv": (cmd_equiv, "relator independence report", [
        _arg("file"),
        _arg("--class-bound", type=_int, default=TRIVIALITY_CLASS),
    ]),
    "morphism": (cmd_morphism, "check the isomorphism-condition equivalence", [
        _arg("source"),
        _arg("target"),
        _arg("--map", required=True, help='generator images, e.g. "x1 = y1 y2^2; x2 = y2"'),
    ]),
    "screen": (cmd_screen, "obstruction screening (prime modulus)", [
        _arg("file"),
        _arg("--cd", type=_int, default=None, help="user-supplied cohomological dimension"),
        _arg("--torsion-free", action="store_true"),
        _arg("--class-bound", type=_int, default=TRIVIALITY_CLASS),
    ]),
    "kmilnor": (cmd_kmilnor, "mod-q Milnor K-ring of a field preset", [
        _arg("--field", required=True, help="finite:ell | tame_local:ell | two_adic"),
        _arg("--q", type=_int, required=True),
        _arg("--rmax", type=_int, default=4),
    ]),
    "galois-check": (cmd_galois_check, "compare a K-ring preset with a presentation", [
        _arg("--field", required=True),
        _arg("--q", type=_int, required=True),
        _arg("file", nargs="?", help="presentation file (default: the matched one)"),
        _arg("--map", help='degree-1 correspondence, e.g. "u:x1, t:x2"'),
        _arg("--rmax", type=_int, default=4),
    ]),
    "selftest": (cmd_selftest, "run the acceptance corpus", []),
}
COMMON_ARGUMENTS = [
    _arg("--output", help="write the JSON report to this path"),
    _arg("--seed", type=_int, default=None, help="seed recorded in the report"),
]


@functools.cache
def _tree() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser and each subcommand's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="gq3",
        description="third q-central quotients, their cohomology models, "
        "and mod-q Milnor K-ring presets",
    )
    parser.add_argument("--version", action="version", version=f"gq3 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (handler, help_text, arguments) in COMMANDS.items():
        command = commands[name] = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments + COMMON_ARGUMENTS:
            command.add_argument(*flags, **kwargs)
        command.set_defaults(func=handler, command=name)
    return parser, commands


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with the named subcommand's own parser when ``argv[0]`` names
    one; the root parses anything else, and parses argv again to report
    arguments the subcommand left over.  Either way the namespace
    carries ``command``, the subcommand's name in COMMANDS."""
    root, commands = _tree()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            return args
    return root.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnicodeDecodeError as exc:
        print(f"parse error: not UTF-8: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot open file: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionMismatch as exc:  # a shape bug: every input width is checked first
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
