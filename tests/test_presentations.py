import ast
import builtins
import typing
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gq3 import presentations
from gq3.presentations import (
    Commutator,
    Generator,
    MAX_NESTING,
    ParseError,
    Power,
    PresentationError,
    Product,
    Word,
    letters,
    make_presentation,
    parse_presentation,
    parse_word,
    reduce_syllables,
)
from oracles import (
    _Token,
    flat_letters,
    pretty,
    scanned_tokens,
    token_parse_presentation,
    token_parse_word,
)
from test_cli_fuzz import nested, token_soup, well_formed

NAMES = {"x1": 0, "x2": 1, "x3": 2}


def test_parse_presentation_basic():
    pres = parse_presentation('q=2; gens=[x1,x2]; rels=["x1^2"];')
    assert pres.q == 2
    assert pres.n == 2
    assert len(pres.relators) == 1
    assert pres.relators[0] == Power(Generator(0), 2)


def test_parse_presentation_self_commutator_reduces():
    pres = parse_presentation('q=3; gens=[a]; rels=["[a,a]"];')
    assert reduce_syllables(flat_letters(pres.relators[0])) == []


def test_parse_presentation_bad_modulus():
    with pytest.raises(PresentationError, match="prime power"):
        parse_presentation('q=6; gens=[x]; rels=[];')


def test_parse_presentation_duplicate_generators():
    with pytest.raises(PresentationError, match="duplicate"):
        make_presentation(2, ["x", "x"], [])


def test_duplicate_generator_names_among_many():
    """The names are counted once: 20,000 of them take no quadratic time."""
    names = [f"g{k}" for k in range(20000)] + ["g19999", "g7"]
    with pytest.raises(PresentationError) as err:
        make_presentation(2, names, [])
    assert str(err.value) == "duplicate generator names: g19999, g7"


@pytest.mark.parametrize("text,col", [
    ('q = 3; gens = [x1 "," x2]; rels = [];', 19),
    ('q = 3; gens = [x1, x2]; rels = ["x1^3" "," "x2^3"];', 40),
])
def test_quoted_comma_is_no_separator(text, col):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.bare_message, err.value.line, err.value.col) == (
        "expected ']', found string ','", 1, col)


def test_parse_presentation_unknown_generator_positioned():
    with pytest.raises(ParseError) as err:
        parse_presentation('q=2;\ngens=[x1];\nrels=["x1 y"];')
    # position is relative to the relator string, with the relator identified
    assert "relator 1" in str(err.value)
    assert err.value.col == 4


def test_parse_presentation_comments_and_order():
    pres = parse_presentation("# header\nrels=[];\nq = 4;  # four\ngens = [a, b];\n")
    assert pres.q == 4 and pres.generators == ("a", "b")


def test_parse_word_structure():
    w = parse_word("x1^4 [x1,x2]", NAMES)
    assert w == Product((Power(Generator(0), 4), Commutator(Generator(0), Generator(1))))


def test_parse_word_nested_commutator():
    w = parse_word("[[x1,x2],x3]", NAMES)
    assert w == Commutator(Commutator(Generator(0), Generator(1)), Generator(2))


def test_parse_word_power_binds_tighter():
    w = parse_word("x1^2 x2", NAMES)
    assert w == Product((Power(Generator(0), 2), Generator(1)))
    assert parse_word("x1 * x2", NAMES) == parse_word("x1 x2", NAMES)


def test_parse_word_unknown_name():
    with pytest.raises(ParseError, match="unknown generator"):
        parse_word("x9", NAMES)


def test_parse_word_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_word("x1 ^", NAMES)
    assert (err.value.line, err.value.col) == (1, 5)


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 1000])
def test_nesting_cap(depth):
    """Words nested at the cap parse; one level more is a positioned parse error."""
    parens = "(" * depth + "x1" + ")" * depth
    brackets = "x1"
    for _ in range(depth):
        brackets = f"[{brackets}, x2]"
    if depth <= MAX_NESTING:
        assert parse_word(parens, NAMES) == Generator(0)
        word = parse_word(brackets, NAMES)
        for _ in range(depth):
            word = word.left
        assert word == Generator(0)
        return
    for text in (parens, brackets):
        with pytest.raises(ParseError, match="nesting deeper than") as err:
            parse_word(text, NAMES)
        assert (err.value.line, err.value.col) == (1, MAX_NESTING + 1)


@pytest.mark.parametrize("text,col", [
    ("x1^²", 4),  # str.isdigit admits '²', int() does not
    ("x1^٣", 4),  # int() reads Arabic-Indic digits; the grammar does not
    ("x1^" + "9" * 5000, 4),  # past int()'s 4300-digit limit on string conversion
    ("x2 x1^-" + "9" * 20, 7),
])
def test_integer_literals_are_ascii_and_bounded(text, col):
    with pytest.raises(ParseError) as err:
        parse_word(text, NAMES)
    assert (err.value.line, err.value.col) == (1, col)


def test_long_modulus_is_a_parse_error():
    with pytest.raises(ParseError, match="integer out of range") as err:
        parse_presentation("gens = [x];\nq = " + "9" * 5000 + ";\nrels = [];")
    assert (err.value.line, err.value.col) == (2, 5)


def test_literal_bound_counts_significant_digits():
    """Leading zeros do not count, and the widest value still parses."""
    assert parse_word("x1^" + "0" * 30 + "2", NAMES) == Power(Generator(0), 2)
    big = 2**63 - 1
    assert parse_word(f"x1^-{big:0>40}", NAMES) == Power(Generator(0), -big)
    assert parse_presentation("q = 0003; gens = [x]; rels = [];").q == 3
    # more leading zeros than int() converts from a string
    assert parse_presentation("q = " + "0" * 5000 + "3; gens = [x]; rels = [];").q == 3
    assert parse_word("x1^" + "0" * 5000 + "3", NAMES) == Power(Generator(0), 3)
    assert parse_word("x1^-" + "0" * 5000 + "1", NAMES) == Power(Generator(0), -1)


def _tokens_or_error(tokenize, text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as exc:
        return exc.bare_message, exc.line, exc.col


def _token_records(text):
    """The scanner's plain-string tokens as token records: kind from the
    first character, a string's text without its quotes, and positions
    and the first token error placed as the error path places them."""
    tokens = presentations._scan(text)
    for i, tok in enumerate(tokens[:-1]):
        message = presentations._token_error(tok)
        if message:
            raise ParseError(message, *presentations._position(text, i))
    records = []
    for i, tok in enumerate(tokens):
        if tok == presentations._EOF:
            kind, tok = "EOF", ""
        elif tok[0] == '"':
            kind, tok = "STRING", tok[1:-1]
        elif tok[0].isalpha():
            kind = "NAME"
        else:
            kind = "PUNCT" if len(tok) == 1 and tok in "=;,[]()^*" else "INT"
        records.append(_Token(kind, tok, *presentations._position(text, i)))
    return records


# ASCII and other scripts' letters and digits ('²' and '٣' are digits to
# str.isdigit, 'Ⅷ' is numeric but no letter), and every character the
# grammar treats specially; the runs make long and zero-padded literals.
TOKEN_TEXT = st.lists(st.one_of(
    st.sampled_from(list("ax1Z09é٣²Ⅷ_-\"#\t\r\n\x0b =;,[]()^*")),
    st.sampled_from(["9" * 19, "9" * 20, "0" * 25, "-0", "x1", "\"x1 x2\"", "# c\n"]),
), max_size=40).map("".join)


@settings(max_examples=500)
@given(TOKEN_TEXT)
@example("q = 3 # trailing")
@example('rels = ["x1\n"];')
@example("q = 3;\r\n#\n")
def test_tokenizer_matches_the_character_scanner(text):
    assert _tokens_or_error(_token_records, text) == _tokens_or_error(scanned_tokens, text)


def _outcome(parse, *args):
    """What a parse returns, or the error it raises."""
    try:
        return parse(*args)
    except ParseError as exc:
        return exc.bare_message, exc.line, exc.col
    except PresentationError as exc:
        return str(exc)


# Pieces that the exit-code fuzz does not draw: comments, CRLF line ends,
# the empty string, a lone quote and minus, digits and numerals int() or
# the grammar reads differently, a name that starts with "_", 20-digit
# and zero-padded literals, and the statement grammar's own tokens.
ODD_PIECES = ["# c\n", "#", "\r\n", '""', '"', "-", "²", "٣", "Ⅷ", "_x", "9" * 20, "1" + "0" * 19,
              "0" * 30 + "7", "-" + "0" * 25 + "1", "9" * 19, "-" + "9" * 19, " ", "\n", "x1", "^",
              "q", "gens", "rels", "=", ";", ",", "[", "]", '","', '"x1"', '"x1 x2^2"']
odd_soup = st.lists(st.sampled_from(ODD_PIECES), max_size=14).map("".join)
parser_words = st.one_of(well_formed, token_soup, nested, odd_soup,
                         st.tuples(well_formed, odd_soup, well_formed).map("".join))


moduli = st.sampled_from(["2", "3", "9", "32", "6", "-3", "0" * 25 + "3", "9" * 20])
separators = st.sampled_from([", ", ",", " , ", '","', " "])
generator_lists = st.lists(st.sampled_from(["x1", "x2", "x3"]), min_size=1, max_size=3)
line_ends = st.sampled_from(["\n", "\r\n", "  # note\n"])


@st.composite
def presentation_texts(draw):
    """Presentation files, mostly well formed: statements in any order,
    separators quoted or missing, now and then a statement left out or
    doubled, odd pieces inserted, and three kinds of line end."""
    q = draw(moduli)
    sep = draw(separators)
    gens = draw(generator_lists)
    rels = draw(st.lists(parser_words, max_size=3))
    statements = [f"q = {q};", f"gens = [{sep.join(gens)}];",
                  "rels = [" + sep.join(f'"{w}"' for w in rels) + "];"]
    statements = draw(st.permutations(statements))
    if draw(st.booleans()):
        statements.insert(draw(st.integers(0, 3)), draw(odd_soup))
    if draw(st.booleans()):
        statements[draw(st.integers(0, 2))] = draw(st.sampled_from(statements + [""]))
    return draw(line_ends).join(statements)


@settings(max_examples=400, deadline=None)
@given(parser_words)
@example("x1 ^ " + "0" * 30 + "2")
@example("[x1, x2 # comment")
@example("x1 \"\"")
def test_word_parser_matches_the_token_record_parser(text):
    assert _outcome(parse_word, text, NAMES) == _outcome(token_parse_word, text, NAMES)


@settings(max_examples=400, deadline=None)
@given(presentation_texts())
@example('q = 3; gens = [x1 "," x2]; rels = [];')
@example('q = 3; gens = [x1]; rels = [""];')
@example('q = 3; gens = [x1]; rels = ["x1", "x1^²"]; _x')
def test_presentation_parser_matches_the_token_record_parser(text):
    assert _outcome(parse_presentation, text) == _outcome(token_parse_presentation, text)


def free_reduce(text):
    return reduce_syllables(flat_letters(parse_word(text, NAMES)))


def test_free_reduce_cancellation():
    assert free_reduce("x1^-1 x1") == []
    assert free_reduce("x1 x1^-1") == []


def test_free_reduce_commutator_expansion():
    assert free_reduce("[x1,x2]") == [(0, -1), (1, -1), (0, 1), (1, 1)]


def test_free_reduce_power_of_power():
    assert free_reduce("(x1^2)^3") == [(0, 6)]


def test_letters_negative_power():
    w = parse_word("(x1 x2^3)^-1 (x1^-2)^3", NAMES)
    assert letters(w) == [(1, -3), (0, -1), (0, -6)]
    assert reduce_syllables(letters(w)) == [(1, -3), (0, -7)]


@pytest.mark.parametrize("text", ["[x1,x2]", "x1 (x1 x2)^2", "((x1 x2)^-2)^-1"])
def test_letters_rejects_words_that_are_not_flat(text):
    with pytest.raises(TypeError, match="not a flat word"):
        letters(parse_word(text, NAMES))


words = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=0, max_value=2).map(Generator),
        st.tuples(words).map(lambda t: Power(t[0], -1)),
        st.tuples(words, st.integers(min_value=-4, max_value=4).filter(lambda e: e != -1)).map(
            lambda t: Power(*t)
        ),
        st.lists(words, min_size=1, max_size=3).map(lambda fs: Product(tuple(fs))),
        st.tuples(words, words).map(lambda t: Commutator(*t)),
    )
)


@given(words)
def test_pretty_parse_round_trip(ast):
    text = pretty(ast, ["x1", "x2", "x3"])
    parsed = parse_word(text, NAMES)
    assert parse_word(pretty(parsed, ["x1", "x2", "x3"]), NAMES) == parsed


# Flat words: no commutator, and every power has a one-syllable base.
syllable_words = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=0, max_value=2).map(Generator),
        st.tuples(syllable_words).map(lambda t: Power(t[0], -1)),
        st.tuples(syllable_words, st.integers(min_value=-4, max_value=4)).map(
            lambda t: Power(*t)
        ),
    )
)
flat_words = st.deferred(
    lambda: st.one_of(
        syllable_words,
        st.tuples(flat_words).map(lambda t: Power(t[0], -1)),
        st.lists(flat_words, min_size=1, max_size=3).map(lambda fs: Product(tuple(fs))),
    )
)


@given(flat_words)
def test_free_reduce_idempotent_and_nonincreasing(ast):
    flat = letters(ast)
    reduced = reduce_syllables(flat)
    assert reduce_syllables(reduced) == reduced
    assert all(e for _, e in reduced)
    assert all(a[0] != b[0] for a, b in zip(reduced, reduced[1:]))
    assert sum(abs(e) for _, e in reduced) <= sum(abs(e) for _, e in flat)
    assert letters(Power(ast, -1)) == [(g, -e) for g, e in reversed(flat)]


# ---------------------------------------------------------------------------
# Word-node guard: a class pattern or an `is` test looks its class up only
# when its branch is reached, so a stale node name would hide until a rare
# word reached it.

WORD_NODES = ("Generator", "Power", "Product", "Commutator")


def word_node_names(source: str, home: bool = False) -> list[str]:
    """The gq3.presentations names that a module's class patterns, `is`
    tests and isinstance(word, X) calls name: attributes of that module
    under any name the source binds it to, names imported from it, and in
    presentations itself (home) its own classes.  A class pattern or an
    isinstance class that is a bare name bound nowhere in the module counts
    too: it can only be a stale node name."""
    tree = ast.parse(source)
    aliases, imported = set(), {}
    bound, classes = set(dir(builtins)), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("presentations", "gq3.presentations"):
                imported |= {a.asname or a.name: a.name for a in node.names}
            elif node.module in (None, "gq3"):
                aliases |= {a.asname or a.name for a in node.names if a.name == "presentations"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "gq3.presentations" and a.asname}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            bound.add(node.name)
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}

    def named(expr, strict):
        if isinstance(expr, ast.Attribute):
            value = expr.value
            if (isinstance(value, ast.Name) and value.id in aliases
                    or ast.unparse(value) == "gq3.presentations"):
                return [expr.attr]
        elif isinstance(expr, ast.Name):
            if expr.id in imported:
                return [imported[expr.id]]
            if home and expr.id in classes or strict and expr.id not in bound:
                return [expr.id]
        elif isinstance(expr, ast.Tuple) and strict:
            return [name for elt in expr.elts for name in named(elt, strict)]
        return []

    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.MatchClass):
            names += named(node.cls, True)
        elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            for expr in [node.left, *node.comparators]:
                names += named(expr, False)
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
              and len(node.args) == 2 and ast.unparse(node.args[0]) == "word"):
            names += named(node.args[1], True)
    return names


def test_word_walkers_name_only_word_nodes():
    assert typing.get_args(Word) == tuple(getattr(presentations, name) for name in WORD_NODES)
    paths = sorted(Path(presentations.__file__).parent.glob("*.py"))
    paths.append(Path(__file__).parent / "oracles.py")
    named = {}
    for path in paths:
        named[path.name] = word_node_names(path.read_text(encoding="utf-8"),
                                           home=path.name == "presentations.py")
        assert set(named[path.name]) <= set(WORD_NODES), path.name
    for name in ("presentations.py", "trunc.py", "freelie.py", "oracles.py"):
        assert set(named[name]) == set(WORD_NODES), name  # every walker is read


def test_stale_word_node_names_are_found():
    alias = "from . import presentations as pres\n"
    assert word_node_names(alias + "match w:\n    case pres.Stale(b): pass") == ["Stale"]
    assert word_node_names(alias + "kind is pres.Stale") == ["Stale"]
    assert word_node_names("import gq3.presentations\nt is gq3.presentations.Stale") == ["Stale"]
    assert sorted(word_node_names("from gq3.presentations import Power as P\n"
                                  "isinstance(word, (P, Stale))")) == ["Power", "Stale"]
    home = "class Power: pass\nmatch w:\n    case Stale(b): pass\n    case Power(b, -1): pass"
    assert sorted(word_node_names(home, home=True)) == ["Power", "Stale"]
    assert word_node_names("class Presentation: pass\nisinstance(ctx, Presentation)", home=True) == []
    assert word_node_names("from gq3.freelie import HallElement\n"
                           "match h:\n    case HallElement(): pass\nx is None") == []
