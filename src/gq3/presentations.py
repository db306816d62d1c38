"""Free-group words and presentation files.

The word grammar:

    word     := factor+            juxtaposition is product, "*" permitted
    factor   := atom ("^" SINT)?
    atom     := NAME | "(" word ")" | "[" word "," word "]"

``[u, v]`` denotes u^-1 v^-1 u v, and ``w^-1`` is Power(w, -1), the
inverse having no node of its own.  Exponents are signed integers of
absolute value at most MAX_EXPONENT; reduction mod the presentation
modulus happens only in the truncated-group arithmetic, never here.  At
most MAX_NESTING parentheses and brackets may be open at once.

Presentation files are UTF-8 text of ``q = INT;``, ``gens = [a, b];``
and ``rels = ["a^2", ...];`` statements, with ``#`` line comments.

Each text, the file and then each relator string, is split into tokens
by one ``findall`` call on one compiled pattern.  A token is the matched
string, and its kind is read off its first character.  A NAME starts
with a letter (``str.isalpha``) and goes on with letters, digits or
``_``; an integer is ASCII digits after an optional ``-``, at most 19
significant ones, leading zeros free; a string ends on its own line and
keeps its quotes, so a quoted ``","`` is never a separator.  Spaces,
tabs, carriage returns and newlines separate tokens; any other
character is a parse error at its line and column.

Line and column are found only when a parse error is raised, by running
the same pattern again up to the failing token.  A bad token is reported
before any grammar error, as if the whole text were checked first.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from collections.abc import Callable, Sequence

from .records import record
from .zqlin import prime_power

MAX_EXPONENT = 2**63 - 1
MAX_NESTING = 100  # parentheses and brackets open at once in one word


class ParseError(ValueError):
    """Syntax error, carrying 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.bare_message = message
        self.line = line
        self.col = col


class PresentationError(ValueError):
    """Semantically invalid presentation (bad modulus, duplicate names...)."""


# ---------------------------------------------------------------------------
# Word AST


class Generator(record("index")):
    __slots__ = ()
    index: int


class Power(record("body exponent")):
    __slots__ = ()
    body: Word
    exponent: int


class Product(record("factors")):
    __slots__ = ()
    factors: tuple[Word, ...]


class Commutator(record("left right")):
    __slots__ = ()
    left: Word
    right: Word


Word = Generator | Power | Product | Commutator


def generator_indices(word: Word) -> set[int]:
    match word:
        case Generator(k):
            return {k}
        case Power(b, _):
            return generator_indices(b)
        case Product(fs):
            out: set[int] = set()
            for f in fs:
                out |= generator_indices(f)
            return out
        case Commutator(a, b):
            return generator_indices(a) | generator_indices(b)
    raise TypeError(f"not a word node: {word!r}")


# ---------------------------------------------------------------------------
# Syllables

Syllable = tuple[int, int]  # (generator index, nonzero exponent)


def letters(word: Word, sign: int = 1) -> list[Syllable]:
    """Flatten a flat word to generator powers.

    A flat word holds no commutator, and each of its powers is a -1 power
    (its base's syllables reversed and negated) or has a base of at most
    one syllable, which stays one syllable.  Any other word raises
    TypeError and gq3.freelie expands it on its tree; as freelie tries
    letters on every subtree, the error message does not repr the word.
    """
    match word:
        case Generator(k):
            return [(k, sign)]
        case Power(b, -1):
            return letters(b, -sign)
        case Power(b, e):
            seq = letters(b, sign)
            if len(seq) > 1:
                raise TypeError("not a flat word: power of a composite base")
            return [(g, x * e) for g, x in seq if e]
        case Product(fs):
            out = []
            for f in fs if sign > 0 else reversed(fs):
                out.extend(letters(f, sign))
            return out
    raise TypeError(f"not a flat word node: {type(word).__name__}")


def reduce_syllables(seq: Sequence[Syllable]) -> list[Syllable]:
    out: list[Syllable] = []
    for g, e in seq:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((g, merged))
        else:
            out.append((g, e))
    return out


# ---------------------------------------------------------------------------
# Scanner

_MAX_DIGITS = len(str(MAX_EXPONENT))  # a longer literal exceeds every cap
_EOF = "\n"  # closes every token list; no token holds a newline
_DIGITS = "0123456789"
_PUNCT = "=;,[]()^*"
# findall returns group 1, the token, or "" for a comment.  Spaces, tabs,
# carriage returns and newlines match nothing, so findall passes over
# them.  \w is str.isalnum() or "_": a \w run that does not start with a
# letter (_x, ²) is an unexpected character.  INT, ASCII digits only, is
# tried before \w.  A string keeps its quotes, so it never equals a
# punctuation token.
_TOKEN = re.compile(r"""
    \#[^\n]*
  | ( [=;,\[\]()^*]
    | -?[0-9]+
    | \w+
    | "[^"\n]*"
    | [^ \t\r\n] )
""", re.VERBOSE)


def _scan(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    if "#" in text:
        tokens = [t for t in tokens if t]
    tokens.append(_EOF)
    return tokens


def _is_string(tok: str) -> bool:
    return tok[0] == '"' and len(tok) > 1


def _token_error(tok: str) -> str | None:
    """The message of a token that is none of the grammar's kinds."""
    ch = tok[0]
    if ch in "-0123456789" and tok[-1] in _DIGITS:
        return "integer out of range" if len(tok.lstrip("-0")) > _MAX_DIGITS else None
    if ch.isalpha() or ch in _PUNCT or _is_string(tok):
        return None
    return "unterminated string" if ch == '"' else f"unexpected character {ch!r}"


def _position(text: str, index: int) -> tuple[int, int]:
    """1-based line and column of token number index of text; the end of
    the text for the closing EOF."""
    tokens = (m for m in _TOKEN.finditer(text) if m[1])
    m = next(itertools.islice(tokens, index, None), None)
    offset = m.start() if m else len(text)
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Fail(Exception):
    """A grammar error at a token index, placed by _parse_error."""


def _parse_error(text: str, tokens: list[str], fail: _Fail) -> ParseError:
    """The error of a failed parse.  The first bad token in text order wins
    over the grammar error, as if the whole text were checked first."""
    bad = ((i, message) for i, message in enumerate(map(_token_error, tokens[:-1])) if message)
    index, message = next(bad, fail.args)
    return ParseError(message, *_position(text, index))


def _found(tok: str) -> str:
    """A token as an error names it: 'EOF', string 'text' for a string
    token, so that a quoted ',' never reads as a bare one, or the token
    quoted."""
    if tok == _EOF:
        return "'EOF'"
    return f"string {tok[1:-1]!r}" if tok[0] == '"' else repr(tok)


def _expect(tokens: list[str], i: int, punct: str) -> int:
    if tokens[i] != punct:
        raise _Fail(i, f"expected {punct!r}, found {_found(tokens[i])}")
    return i + 1


def _literal(tok: str) -> int | None:
    """The value of an INT token; None for any other token, and for a
    literal past the digit cap.  Leading zeros never reach int()."""
    if tok[0] not in "-0123456789" or tok[-1] not in _DIGITS:
        return None
    digits = tok.lstrip("-0")
    if len(digits) > _MAX_DIGITS:
        return None
    value = int(digits) if digits else 0
    return -value if tok[0] == "-" else value


# ---------------------------------------------------------------------------
# Word parser


def _parse_word_tokens(tokens: list[str], i: int, names: dict[str, int],
                       depth: int) -> tuple[Word, int]:
    """The word that starts at tokens[i], and the index after it; depth
    parentheses and brackets are open around it."""
    factors = []
    while True:
        tok = tokens[i]
        if tok[0].isalpha():
            k = names.get(tok)
            if k is None:
                raise _Fail(i, f"unknown generator {tok!r}")
            atom = Generator(k)
            i += 1
        elif tok == "(" or tok == "[":
            if depth == MAX_NESTING:
                raise _Fail(i, f"nesting deeper than {MAX_NESTING}")
            atom, i = _parse_word_tokens(tokens, i + 1, names, depth + 1)
            if tok == "[":
                right, i = _parse_word_tokens(tokens, _expect(tokens, i, ","), names, depth + 1)
                atom = Commutator(atom, right)
            i = _expect(tokens, i, ")" if tok == "(" else "]")
        else:
            raise _Fail(i, f"expected a word atom, found {_found(tok)}")
        if tokens[i] == "^":
            e = _literal(tokens[i + 1])
            if e is None:
                raise _Fail(i + 1, "expected integer exponent after '^'")
            if abs(e) > MAX_EXPONENT:
                raise _Fail(i + 1, "exponent out of range")
            atom = Power(atom, e)
            i += 2
        factors.append(atom)
        tok = tokens[i]
        if tok == "*":
            i += 1
        elif not (tok[0].isalpha() or tok == "(" or tok == "["):
            return (factors[0] if len(factors) == 1 else Product(tuple(factors))), i


# ---------------------------------------------------------------------------
# Presentations


class Presentation(record("q generators relators relator_sources")):
    """Data of 1 -> R -> S -> G -> 1: modulus, generators, relators."""

    __slots__ = ()
    q: int
    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    relator_sources: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.generators)

    def name_map(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.generators)}


def make_presentation(q: int, generators: Sequence[str], relator_texts: Sequence[str]) -> Presentation:
    try:
        prime_power(q)
    except ValueError as exc:
        raise PresentationError(str(exc)) from None
    gens = tuple(generators)
    if not gens:
        raise PresentationError("at least one generator is required")
    if len(set(gens)) != len(gens):
        dupes = sorted(g for g, count in Counter(gens).items() if count > 1)
        raise PresentationError(f"duplicate generator names: {', '.join(dupes)}")
    name_to_index = {name: k for k, name in enumerate(gens)}
    relators = tuple(parse_labelled_word(text, name_to_index, f"in relator {i + 1}")
                     for i, text in enumerate(relator_texts))
    return Presentation(q, gens, relators, tuple(relator_texts))


def parse_word(text: str, ctx: Presentation | dict[str, int]) -> Word:
    """Parse a single word; ctx supplies the generator names."""
    name_to_index = ctx.name_map() if isinstance(ctx, Presentation) else ctx
    tokens = _scan(text)
    try:
        word, i = _parse_word_tokens(tokens, 0, name_to_index, 0)
        if tokens[i] != _EOF:
            raise _Fail(i, f"trailing input {_found(tokens[i])}")
    except _Fail as fail:
        raise _parse_error(text, tokens, fail) from None
    return word


def parse_labelled_word(text: str, ctx: Presentation | dict[str, int], label: str) -> Word:
    """parse_word, with a parse error prefixed by the label and the text,
    quoted up to 40 characters; its column stays relative to the text."""
    try:
        return parse_word(text, ctx)
    except ParseError as exc:
        quoted = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
        raise ParseError(f"{label} ({quoted}): {exc.bare_message}", exc.line, exc.col) from None


def _list(tokens: list[str], i: int, is_item: Callable[[str], bool],
          kind: str) -> tuple[list[str], int]:
    """The items of "[item, ...];" from tokens[i] on, and the index after
    it; an empty list only where kind is STRING."""
    i = _expect(tokens, i, "[")
    items: list[str] = []
    while is_item(tokens[i]):
        items.append(tokens[i])
        if tokens[i + 1] != ",":
            return items, _expect(tokens, _expect(tokens, i + 1, "]"), ";")
        i += 2
    if items or kind != "STRING":
        raise _Fail(i, f"expected {kind!r}, found {_found(tokens[i])}")
    return items, _expect(tokens, _expect(tokens, i, "]"), ";")


def parse_presentation(text: str) -> Presentation:
    tokens = _scan(text)
    q: int | None = None
    gens: list[str] | None = None
    rel_texts: list[str] | None = None
    i = 0
    try:
        while tokens[i] != _EOF:
            key = tokens[i]
            if not key[0].isalpha():
                raise _Fail(i, f"expected 'NAME', found {_found(key)}")
            if key not in ("q", "gens", "rels"):
                raise _Fail(i, f"unknown statement {key!r}")
            if {"q": q, "gens": gens, "rels": rel_texts}[key] is not None:
                raise _Fail(i, f"duplicate {key!r} statement")
            i = _expect(tokens, i + 1, "=")
            if key == "q":
                q = _literal(tokens[i])
                if q is None:
                    raise _Fail(i, f"expected 'INT', found {_found(tokens[i])}")
                i = _expect(tokens, i + 1, ";")
            elif key == "gens":
                gens, i = _list(tokens, i, lambda tok: tok[0].isalpha(), "NAME")
            else:
                strings, i = _list(tokens, i, _is_string, "STRING")
                rel_texts = [tok[1:-1] for tok in strings]
    except _Fail as fail:
        raise _parse_error(text, tokens, fail) from None
    if q is None:
        raise ParseError("missing 'q' statement", 1, 1)
    if gens is None:
        raise ParseError("missing 'gens' statement", 1, 1)
    return make_presentation(q, gens, rel_texts or [])
