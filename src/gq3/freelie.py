"""Hall bases of free Lie rings and nontriviality certificates for words.

A word's certificate is the lowest nonzero homogeneous component of
w - 1 in its truncated Magnus expansion in Z<<x_1..x_n>>.  It is the
image of w in the graded piece gr_m of the lower central series, a Lie
element of the free Lie ring, and when nonzero at weight m it shows
that the word lies outside the (m+1)-st lower central subgroup, so in
particular is nontrivial.

The cost of a certificate depends on the shape of the word and the
caps on generators and class, never on the size of its exponents.  The
word's tree gives a lower bound v(w) for the lowest degree of w - 1: a
generator has bound 1, a commutator adds its sides' bounds and a
product takes the least of its factors'.  The series is expanded over
the generators the word uses only, truncated at m = v(w), v(w) + 1, ...
up to the first nonzero component, and is stored degree by degree, so
that a product multiplies only the degree pairs that fit the
truncation.  A commutator [a, b] with a = 1 + X, b = 1 + Y enters as
1 + a^-1 b^-1 (XY - YX): each side is expanded only as far as the
other side's bound leaves room, and a^-1 b^-1 only to the truncation
less both bounds.  A power x^e or w^e enters as the binomial series
sum_j C(e, j) X^j, never by writing its base out e times.

tensor_to_hall writes a component on the Hall basis, a Z-basis of the
Lie ring in each weight, by exact solving, one solve per letter content
of the component.  No certificate calls it; the tests use it to check
that each component is an integral Lie element.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

from . import presentations as pres
from .records import record

MAX_GENERATORS = 8
MAX_CLASS = 6


class BoundsExceeded(ValueError):
    pass


def check_generator_count(n: int) -> None:
    if not 1 <= n <= MAX_GENERATORS:
        raise BoundsExceeded(f"generator count {n} outside 1..{MAX_GENERATORS}")


def check_class_bound(c: int) -> None:
    if not 1 <= c <= MAX_CLASS:
        raise BoundsExceeded(f"class bound {c} outside 1..{MAX_CLASS}")


class HallElement(record("key weight index left right")):
    """A basic commutator: a generator index or a Hall bracket [left, right]."""

    __slots__ = ()
    # The sort key, built once from the children's keys: generating and
    # sorting a basis compares elements many times over.  It comes first
    # and determines the other fields, so tuple order is Hall order.
    key: tuple
    weight: int
    index: int | None
    left: HallElement | None
    right: HallElement | None

    __match_args__ = ("weight", "index", "left", "right")

    def __new__(cls, weight: int, index: int | None = None,
                left: HallElement | None = None, right: HallElement | None = None):
        key = ((weight, 0, index) if index is not None
               else (weight, 1, left.key, right.key))
        return super().__new__(cls, key, weight, index, left, right)

    def is_generator(self) -> bool:
        return self.index is not None

    def sort_key(self):
        return self.key

    def __getnewargs__(self):  # copy and pickle call __new__ without the key
        return self[1:]

    def __repr__(self):
        if self.is_generator():
            return f"x{self.index + 1}"
        return f"[{self.left!r},{self.right!r}]"


def generator(k: int) -> HallElement:
    return HallElement(1, index=k)


def bracket_node(u: HallElement, v: HallElement) -> HallElement:
    return HallElement(u.weight + v.weight, left=u, right=v)


def mobius(m: int) -> int:
    out = 1
    for f in range(2, m + 1):
        if m % f == 0:
            if (m // f) % f == 0:
                return 0
            out = -out
            m //= f
    return out


def witt_number(n: int, w: int) -> int:
    """Rank of the degree-w piece of the free Lie ring on n generators."""
    total = sum(mobius(e) * n ** (w // e) for e in range(1, w + 1) if w % e == 0)
    return total // w


def hall_elements(content: tuple[int, ...], memo: dict) -> list[HallElement]:
    """The Hall elements whose leaves are the generators of content, a
    sorted tuple of indices with repetition, in Hall order.

    Each bracket [u, v] splits content into the contents of u and v, so
    the elements are built over those splits from the elements of the
    smaller contents.  memo holds the lists already built, and callers
    share it across the contents of one job.
    """
    out = memo.get(content)
    if out is not None:
        return out
    if len(content) == 1:
        out = [generator(content[0])]
    else:
        letters = sorted(set(content))
        mults = [content.count(g) for g in letters]
        out = []
        for counts in itertools.product(*(range(k + 1) for k in mults)):
            # u takes at least half the letters (v < u needs weight(v) <= weight(u))
            if not len(content) <= 2 * sum(counts) < 2 * len(content):
                continue
            cu = tuple(g for g, k in zip(letters, counts) for _ in range(k))
            cv = tuple(g for g, k, m in zip(letters, counts, mults) for _ in range(m - k))
            cands = hall_elements(cv, memo)
            for u in hall_elements(cu, memo):
                out.extend(bracket_node(u, v) for v in cands
                           if v < u and (u.is_generator() or u.right <= v))
        out.sort(key=HallElement.sort_key)
    memo[content] = out
    return out


def hall_basis(n: int, c: int) -> list[HallElement]:
    """All Hall elements of weight <= c, in weight order then structural order."""
    check_generator_count(n)
    check_class_bound(c)
    memo: dict = {}
    return sorted((h for w in range(1, c + 1)
                   for content in itertools.combinations_with_replacement(range(n), w)
                   for h in hall_elements(content, memo)), key=HallElement.sort_key)


# ---------------------------------------------------------------------------
# Lie elements on the Hall basis and their tensor images

LieElement = dict[HallElement, int]
Tensor = dict[tuple[int, ...], int]


def tensor_expansion(h: HallElement) -> Tensor:
    """Image of a Hall element in the tensor algebra, [u,v] -> uv - vu."""
    if h.is_generator():
        return {(h.index,): 1}
    a = tensor_expansion(h.left)
    b = tensor_expansion(h.right)
    out: Tensor = {}
    for ma, xa in a.items():
        for mb, xb in b.items():
            for mon, sgn in ((ma + mb, 1), (mb + ma, -1)):
                y = out.get(mon, 0) + sgn * xa * xb
                if y:
                    out[mon] = y
                else:
                    out.pop(mon, None)
    return out


# ---------------------------------------------------------------------------
# Magnus expansion

# A truncated series by degree: entry d holds the monomials of length d,
# with no zero coefficients, and the list ends at the truncation degree.
Graded = list[Tensor]


def _one(cap: int) -> Graded:
    return [{(): 1}] + [{} for _ in range(cap)]


def _gbinom(e: int, j: int) -> int:
    num = 1
    for i in range(j):
        num *= e - i
    return num // math.factorial(j)


def _add(acc: dict, terms: dict, scale=1) -> None:
    """acc += scale * terms, in place, keeping acc free of zero entries."""
    for key, x in terms.items():
        y = acc.get(key, 0) + scale * x
        if y:
            acc[key] = y
        else:
            acc.pop(key, None)


def _multiply(a: Graded, b: Graded, cap: int) -> Graded:
    """Product of two series truncated at degree cap: only the degree
    pairs whose sum fits are multiplied."""
    out: Graded = [{} for _ in range(cap + 1)]
    for da, part_a in enumerate(a[:cap + 1]):
        if not part_a:
            continue
        for db in range(min(len(b) - 1, cap - da) + 1):
            acc = out[da + db]
            for mb, xb in b[db].items():
                for ma, xa in part_a.items():
                    mon = ma + mb
                    acc[mon] = acc.get(mon, 0) + xa * xb
    return [{mon: x for mon, x in part.items() if x} for part in out]


def _power(series: Graded, e: int, cap: int) -> Graded:
    """series^e truncated at cap, as the binomial series sum_j C(e, j) X^j.

    series is 1 + X with X free of constant term, as every Magnus series
    of a group element is, so X^j starts in degree j and the sum stops at
    j = cap: the cost does not depend on the size of e.
    """
    x = [{}] + series[1:cap + 1]
    out = _one(cap)
    term = x
    for j in range(1, cap + 1):
        coeff = _gbinom(e, j)
        if not coeff:  # 0 <= e < j, and so for every later j too
            break
        if j > 1:
            term = _multiply(term, x, cap)
        if not any(term):
            break
        for acc, part in zip(out, term):
            _add(acc, part, coeff)
    return out


def magnus_expansion(syllables: Sequence[tuple[int, int]], cap: int) -> Tensor:
    """Truncated expansion of a word: each generator power maps to (1+x)^e."""
    series = _one(cap)
    for g, e in syllables:
        power = [{(g,) * j: x} if (x := _gbinom(e, j)) else {} for j in range(cap + 1)]
        series = _multiply(series, power, cap)
    return {mon: x for part in series for mon, x in part.items()}


def graded_component(series: Tensor, m: int) -> Tensor:
    return {mon: x for mon, x in series.items() if len(mon) == m and x != 0}


def _expands_on_tree(word: pres.Word) -> bool:
    """Whether the word's series is built on its tree rather than from its
    syllables: it holds a commutator, or a power of a base of more than
    one syllable.  Flattening either repeats the base, so a commutator
    nested k deep would become about 4^k syllables.
    """
    match word:
        case pres.Generator():
            return False
        case pres.Inverse(b):
            return _expands_on_tree(b)
        case pres.Power(b, _):
            return _expands_on_tree(b) or len(pres.letters(b)) > 1
        case pres.Product(fs):
            return any(_expands_on_tree(f) for f in fs)
        case pres.Commutator():
            return True
    raise TypeError(f"not a word node: {word!r}")


def _bound(word: pres.Word) -> int:
    """A lower bound for the lowest degree of word - 1 in its series.

    [a, b] - 1 = a^-1 b^-1 (XY - YX) starts no lower than X and Y
    together, a product's terms no lower than its factors', and a power's
    no lower than its base's.  The empty product is 1, whose series has
    no such degree: it gets a bound above every class bound.
    """
    match word:
        case pres.Generator():
            return 1
        case pres.Inverse(b) | pres.Power(b, _):
            return _bound(b)
        case pres.Product(fs):
            return min((_bound(f) for f in fs), default=MAX_CLASS + 1)
        case pres.Commutator(a, b):
            return _bound(a) + _bound(b)
    raise TypeError(f"not a word node: {word!r}")


def _word_series(word: pres.Word, cap: int) -> Graded:
    """Magnus series of a word truncated at cap.

    A subtree without commutators and composite powers is flattened to
    syllables; a composite power is the binomial series of its base's
    series, and a commutator is 1 + a^-1 b^-1 (XY - YX), each part
    expanded only to the degree that can reach cap.
    """
    if not _expands_on_tree(word):
        syllables = pres.reduce_syllables(pres.letters(word))
        series = magnus_expansion(syllables, cap)
        return [graded_component(series, d) for d in range(cap + 1)]
    match word:
        case pres.Inverse(b):
            return _power(_word_series(b, cap), -1, cap)
        case pres.Power(b, e):
            return _power(_word_series(b, cap), e, cap)
        case pres.Product(fs):  # not empty: a factor expands on the tree
            out = _word_series(fs[0], cap)
            for f in fs[1:]:
                out = _multiply(out, _word_series(f, cap), cap)
            return out
        case pres.Commutator(a, b):
            va, vb = _bound(a), _bound(b)
            if va + vb > cap:
                return _one(cap)
            x = [{}] + _word_series(a, cap - vb)[1:]
            y = [{}] + _word_series(b, cap - va)[1:]
            out = _multiply(x, y, cap)
            for acc, part in zip(out, _multiply(y, x, cap)):
                _add(acc, part, -1)
            rest = cap - va - vb
            if rest:  # else only the constant 1 of a^-1 b^-1 reaches cap
                out = _multiply(_multiply(_power(x, -1, rest), _power(y, -1, rest), rest),
                                out, cap)
            out[0] = {(): 1}
            return out
    raise TypeError(f"not a word node: {word!r}")


def tensor_to_hall(component: Tensor, n: int, m: int) -> LieElement:
    """Express a Lie tensor of weight m on n generators on the Hall basis
    by exact solving.

    Hall elements and their expansions are homogeneous in each generator,
    so the component splits by letter content, and each part is solved
    on the Hall elements of its content alone.  Raises if the component
    is not in the integer span, which would mean the input was not the
    graded image of a group element.
    """
    check_generator_count(n)
    parts: dict[tuple[int, ...], Tensor] = {}
    for mon, x in component.items():
        parts.setdefault(tuple(sorted(mon)), {})[mon] = x
    memo: dict = {}
    out: LieElement = {}
    for content, part in parts.items():
        if len(content) != m:
            raise ArithmeticError("component outside the Lie span")
        basis = hall_elements(content, memo)
        pivots = _echelon([tensor_expansion(h) for h in basis])
        for i, x in _coordinates(pivots, part).items():
            out[basis[i]] = x
    return dict(sorted(out.items(), key=lambda item: item[0].sort_key()))


def _echelon(rows: list[Tensor]) -> dict[tuple[int, ...], tuple[Tensor, dict[int, int]]]:
    """Pivots for solving sum_i c_i rows[i] = target, by lead monomial.

    Sparse echelon elimination: each pivot row is kept scaled to lead with
    coefficient 1 at its least monomial, together with the combination of
    the input rows it equals.  Every other monomial of a pivot row is
    larger than its lead, so a vector in the span leads with some pivot.
    On the Hall expansions of one letter content every lead is +-1 (the
    tests check each content within the caps), so the elimination stays
    in the integers; a lead of another size raises.
    """
    pivots: dict[tuple[int, ...], tuple[Tensor, dict[int, int]]] = {}
    for i, row in enumerate(rows):
        vec = dict(row)
        combo = {i: 1}
        while vec:
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                sign = vec[lead]
                if sign not in (1, -1):
                    raise ArithmeticError("Hall expansions without a unit pivot")
                pivots[lead] = ({k: x * sign for k, x in vec.items()},
                                {k: x * sign for k, x in combo.items()})
                break
            f = vec[lead]
            _add(vec, piv[0], -f)
            _add(combo, piv[1], -f)
    return pivots


def _coordinates(pivots: dict, target: Tensor) -> dict[int, int]:
    """Nonzero c_i with sum_i c_i rows[i] = target for the rows that
    _echelon made pivots of; raises if there are none."""
    rest = dict(target)
    coeffs: dict[int, int] = {}
    while rest:
        lead = min(rest)
        piv = pivots.get(lead)
        if piv is None:
            raise ArithmeticError("component outside the Lie span")
        f = rest[lead]
        _add(rest, piv[0], -f)
        _add(coeffs, piv[1], f)
    return coeffs


def word_nontriviality_certificate(
    word: pres.Word, n: int, c: int
) -> tuple[int, Tensor] | None:
    """Lowest-weight nonzero graded image of a word, if visible at class <= c.

    Returns (weight, component), the degree-weight Magnus component of
    word - 1 by monomial, certifying the word is not in the (c+1)-st
    lower central subgroup of the free group, hence not trivial.  Returns
    None when the word is freely trivial or all its components up to
    weight c vanish; when the tree's lower bound on the weight exceeds c,
    nothing is expanded.
    """
    check_generator_count(n)
    check_class_bound(c)
    for k in pres.generator_indices(word):
        if k >= n:
            raise BoundsExceeded(f"word references generator {k + 1} > n = {n}")
    for m in range(_bound(word), c + 1):
        component = _word_series(word, m)[m]
        if component:
            return m, component
    return None
