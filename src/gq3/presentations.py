"""Free-group words and presentation files.

The word grammar:

    word     := factor+            juxtaposition is product, "*" permitted
    factor   := atom ("^" SINT)?
    atom     := NAME | "(" word ")" | "[" word "," word "]"

``[u, v]`` denotes u^-1 v^-1 u v.  Exponents are signed integers of
absolute value at most MAX_EXPONENT; reduction mod the presentation
modulus happens only in the truncated-group arithmetic, never here.  At
most MAX_NESTING parentheses and brackets may be open at once.

Presentation files are UTF-8 text of ``q = INT;``, ``gens = [a, b];``
and ``rels = ["a^2", ...];`` statements, with ``#`` line comments.

One compiled pattern splits text into tokens.  A NAME starts with a
letter (``str.isalpha``) and goes on with letters, digits or ``_``; an
integer is ASCII digits after an optional ``-``, at most 19 significant
ones; a string ends on its own line.  Spaces, tabs, carriage returns
and newlines separate tokens; any other character is a parse error at
its line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True)
class Generator:
    index: int


@dataclass(frozen=True)
class Inverse:
    body: "Word"


@dataclass(frozen=True)
class Power:
    body: "Word"
    exponent: int


@dataclass(frozen=True)
class Product:
    factors: tuple["Word", ...]


@dataclass(frozen=True)
class Commutator:
    left: "Word"
    right: "Word"


Word = Generator | Inverse | Power | Product | Commutator


def generator_indices(word: Word) -> set[int]:
    match word:
        case Generator(k):
            return {k}
        case Inverse(b) | Power(b, _):
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

    A flat word holds no commutator, and each of its powers has a base of
    at most one syllable, which stays one syllable.  Other words are
    expanded on their tree by the certificate engine in gq3.freelie,
    never flattened.
    """
    match word:
        case Generator(k):
            return [(k, sign)]
        case Inverse(b):
            return letters(b, -sign)
        case Power(b, e):
            seq = letters(b, sign)
            if len(seq) > 1:
                raise TypeError(f"not a flat word: power of a composite base {b!r}")
            return [(g, x * e) for g, x in seq if e]
        case Product(fs):
            if sign > 0:
                out = []
                for f in fs:
                    out.extend(letters(f, 1))
                return out
            out = []
            for f in reversed(fs):
                out.extend(letters(f, -1))
            return out
    raise TypeError(f"not a flat word node: {word!r}")


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
# Tokenizer


@dataclass(slots=True)
class _Token:
    kind: str  # NAME INT PUNCT STRING EOF
    text: str
    line: int
    col: int


_MAX_DIGITS = len(str(MAX_EXPONENT))  # a longer literal exceeds every cap
# One alternative per token kind.  Spaces, tabs and carriage returns match
# none, so finditer passes over them.  \w is str.isalnum() or "_": a NAME
# match that does not start with a letter (_x, ²) is an unexpected
# character.  INT, ASCII digits only, is tried before NAME.
_TOKEN = re.compile(r"""
    (?P<PUNCT>[=;,\[\]()^*])
  | (?P<INT>-?[0-9]+)
  | (?P<NAME>\w+)
  | (?P<NEWLINE>\n)
  | (?P<COMMENT>\#[^\n]*)
  | "(?P<STRING>[^"\n]*)"
  | (?P<BAD>[^ \t\r])
""", re.VERBOSE)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        if kind == "COMMENT":
            continue
        col = m.start() - line_start + 1
        if kind == "BAD" or (kind == "NAME" and not m[0][0].isalpha()):
            ch = m[0][0]
            raise ParseError("unterminated string" if ch == '"' else f"unexpected character {ch!r}",
                             line, col)
        if kind == "INT" and len(m[0].lstrip("-0")) > _MAX_DIGITS:
            # int() of a long enough string raises its own digit-limit error
            raise ParseError("integer out of range", line, col)
        tokens.append(_Token(kind, m[kind], line, col))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses and brackets

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or tok.kind!r}", tok.line, tok.col)
        return self.next()


# ---------------------------------------------------------------------------
# Word parser


def _parse_word_tokens(ts: _TokenStream, name_to_index: dict[str, int]) -> Word:
    factors = [_parse_factor(ts, name_to_index)]
    while True:
        tok = ts.peek()
        if tok.kind == "PUNCT" and tok.text == "*":
            ts.next()
            factors.append(_parse_factor(ts, name_to_index))
        elif tok.kind == "NAME" or (tok.kind == "PUNCT" and tok.text in "(["):
            factors.append(_parse_factor(ts, name_to_index))
        else:
            break
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def _parse_factor(ts: _TokenStream, name_to_index: dict[str, int]) -> Word:
    atom = _parse_atom(ts, name_to_index)
    tok = ts.peek()
    if tok.kind == "PUNCT" and tok.text == "^":
        ts.next()
        e_tok = ts.peek()
        if e_tok.kind != "INT":
            raise ParseError("expected integer exponent after '^'", e_tok.line, e_tok.col)
        ts.next()
        e = int(e_tok.text)
        if abs(e) > MAX_EXPONENT:
            raise ParseError("exponent out of range", e_tok.line, e_tok.col)
        if e == -1:
            return Inverse(atom)
        return Power(atom, e)
    return atom


def _parse_atom(ts: _TokenStream, name_to_index: dict[str, int]) -> Word:
    tok = ts.peek()
    if tok.kind == "NAME":
        ts.next()
        if tok.text not in name_to_index:
            raise ParseError(f"unknown generator {tok.text!r}", tok.line, tok.col)
        return Generator(name_to_index[tok.text])
    if tok.kind == "PUNCT" and tok.text in "([":
        ts.next()
        ts.depth += 1
        if ts.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", tok.line, tok.col)
        if tok.text == "(":
            word = _parse_word_tokens(ts, name_to_index)
            ts.expect("PUNCT", ")")
        else:
            left = _parse_word_tokens(ts, name_to_index)
            ts.expect("PUNCT", ",")
            right = _parse_word_tokens(ts, name_to_index)
            ts.expect("PUNCT", "]")
            word = Commutator(left, right)
        ts.depth -= 1
        return word
    raise ParseError(f"expected a word atom, found {tok.text or tok.kind!r}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# Presentations


@dataclass(frozen=True)
class Presentation:
    """Data of 1 -> R -> S -> G -> 1: modulus, generators, relators."""

    q: int
    p: int
    d: int
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
        p, d = prime_power(q)
    except ValueError as exc:
        raise PresentationError(str(exc)) from None
    gens = tuple(generators)
    if not gens:
        raise PresentationError("at least one generator is required")
    if len(set(gens)) != len(gens):
        dupes = sorted({g for g in gens if list(gens).count(g) > 1})
        raise PresentationError(f"duplicate generator names: {', '.join(dupes)}")
    name_to_index = {name: k for k, name in enumerate(gens)}
    relators = tuple(parse_labelled_word(text, name_to_index, f"in relator {i + 1}")
                     for i, text in enumerate(relator_texts))
    return Presentation(q, p, d, gens, relators, tuple(relator_texts))


def parse_word(text: str, ctx: Presentation | dict[str, int]) -> Word:
    """Parse a single word; ctx supplies the generator names."""
    name_to_index = ctx.name_map() if isinstance(ctx, Presentation) else ctx
    ts = _TokenStream(_tokenize(text))
    word = _parse_word_tokens(ts, name_to_index)
    tok = ts.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return word


def parse_labelled_word(text: str, ctx: Presentation | dict[str, int], label: str) -> Word:
    """parse_word, with a parse error prefixed by the label and the text,
    quoted up to 40 characters; its column stays relative to the text."""
    try:
        return parse_word(text, ctx)
    except ParseError as exc:
        quoted = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
        raise ParseError(f"{label} ({quoted}): {exc.bare_message}", exc.line, exc.col) from None


def parse_presentation(text: str) -> Presentation:
    ts = _TokenStream(_tokenize(text))
    q: int | None = None
    gens: list[str] | None = None
    rel_texts: list[str] | None = None
    while ts.peek().kind != "EOF":
        tok = ts.expect("NAME")
        if tok.text == "q":
            if q is not None:
                raise ParseError("duplicate 'q' statement", tok.line, tok.col)
            ts.expect("PUNCT", "=")
            q_tok = ts.expect("INT")
            q = int(q_tok.text)
            ts.expect("PUNCT", ";")
        elif tok.text == "gens":
            if gens is not None:
                raise ParseError("duplicate 'gens' statement", tok.line, tok.col)
            ts.expect("PUNCT", "=")
            ts.expect("PUNCT", "[")
            gens = [ts.expect("NAME").text]
            while ts.peek().text == ",":
                ts.next()
                gens.append(ts.expect("NAME").text)
            ts.expect("PUNCT", "]")
            ts.expect("PUNCT", ";")
        elif tok.text == "rels":
            if rel_texts is not None:
                raise ParseError("duplicate 'rels' statement", tok.line, tok.col)
            ts.expect("PUNCT", "=")
            ts.expect("PUNCT", "[")
            rel_texts = []
            if ts.peek().kind == "STRING":
                rel_texts.append(ts.next().text)
                while ts.peek().text == ",":
                    ts.next()
                    rel_texts.append(ts.expect("STRING").text)
            ts.expect("PUNCT", "]")
            ts.expect("PUNCT", ";")
        else:
            raise ParseError(f"unknown statement {tok.text!r}", tok.line, tok.col)
    if q is None:
        raise ParseError("missing 'q' statement", 1, 1)
    if gens is None:
        raise ParseError("missing 'gens' statement", 1, 1)
    return make_presentation(q, gens, rel_texts or [])
