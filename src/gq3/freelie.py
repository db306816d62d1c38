"""Hall bases of free Lie rings and nontriviality certificates for words.

The certificate machinery evaluates a free-group word through its
truncated Magnus expansion in Z<<x_1..x_n>>: the lowest nonzero
homogeneous component of w - 1 is the image of w in the graded piece
gr_m of the lower central series, a Lie element of the free Lie ring.
A nonzero component at weight m certifies that the word lies outside
the (m+1)-st lower central subgroup, so in particular is nontrivial.

The cost of a certificate depends on the shape of the word and the
caps on generators and class, never on the size of its exponents: the
series is expanded over the generators the word uses only, truncated at
m = 1, 2, ... up to the first nonzero component, and a power x^e or
w^e enters as the binomial series sum_j C(e, j) X^j, never by writing
its base out e times.

Everything is integral: Hall elements expand into the tensor algebra
with integer coefficients and form a Z-basis of the Lie ring in each
weight, which lets the certificate be expressed on the Hall basis by
exact linear solving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import presentations as pres

MAX_GENERATORS = 8
MAX_CLASS = 6


class BoundsExceeded(ValueError):
    pass


@dataclass(frozen=True)
class HallElement:
    """A basic commutator: a generator index or a Hall bracket [left, right]."""

    weight: int
    index: int | None = None
    left: "HallElement | None" = None
    right: "HallElement | None" = None

    def is_generator(self) -> bool:
        return self.index is not None

    def sort_key(self):
        if self.is_generator():
            return (self.weight, 0, self.index)
        return (self.weight, 1, self.left.sort_key(), self.right.sort_key())

    def __lt__(self, other: "HallElement") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "HallElement") -> bool:
        return self.sort_key() <= other.sort_key()

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


def hall_basis(n: int, c: int) -> list[HallElement]:
    """All Hall elements of weight <= c, in weight order then structural order."""
    if not (1 <= n <= MAX_GENERATORS):
        raise BoundsExceeded(f"generator count {n} outside 1..{MAX_GENERATORS}")
    if not (1 <= c <= MAX_CLASS):
        raise BoundsExceeded(f"class bound {c} outside 1..{MAX_CLASS}")
    by_weight: list[list[HallElement]] = [[]]
    by_weight.append([generator(k) for k in range(n)])
    for w in range(2, c + 1):
        layer = []
        for wu in range(1, w):
            wv = w - wu
            for u in by_weight[wu]:
                for v in by_weight[wv]:
                    if v < u and (u.is_generator() or u.right <= v):
                        layer.append(bracket_node(u, v))
        layer.sort(key=HallElement.sort_key)
        by_weight.append(layer)
    out = []
    for w in range(1, c + 1):
        out.extend(by_weight[w])
    return out


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


def _multiply(a: Tensor, b: Tensor, cap: int) -> Tensor:
    """Product of two series, dropping monomials longer than cap."""
    out: Tensor = {}
    for ma, xa in a.items():
        room = cap - len(ma)
        for mb, xb in b.items():
            if len(mb) <= room:
                mon = ma + mb
                y = out.get(mon, 0) + xa * xb
                if y:
                    out[mon] = y
                else:
                    out.pop(mon, None)
    return out


def _power(series: Tensor, e: int, cap: int) -> Tensor:
    """series^e truncated at cap, as the binomial series sum_j C(e, j) X^j.

    series is 1 + X with X free of constant term, as every Magnus series
    of a group element is, so X^j starts in degree j and the sum stops at
    j = cap: the cost does not depend on the size of e.
    """
    x = {mon: v for mon, v in series.items() if mon}
    out: Tensor = {(): 1}
    term: Tensor = {(): 1}
    for j in range(1, cap + 1):
        coeff = _gbinom(e, j)
        if not coeff:  # 0 <= e < j, and so for every later j too
            break
        term = _multiply(term, x, cap)
        if not term:
            break
        _add(out, term, coeff)
    return out


def magnus_expansion(syllables: Sequence[tuple[int, int]], cap: int) -> Tensor:
    """Truncated expansion of a word: each generator power maps to (1+x)^e."""
    series: Tensor = {(): 1}
    for g, e in syllables:
        series = _multiply(series, _power({(): 1, (g,): 1}, e, cap), cap)
    return series


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


def _word_series(word: pres.Word, cap: int, label: dict[int, int]) -> Tensor:
    """Truncated Magnus series of a word, generator g written as label[g].

    A subtree without commutators and composite powers is flattened to
    syllables; a composite power is the binomial series of its base's
    series, and a commutator is multiplied out from its sides' series.
    """
    if not _expands_on_tree(word):
        syllables = pres.reduce_syllables(pres.letters(word))
        return magnus_expansion([(label[g], e) for g, e in syllables], cap)
    match word:
        case pres.Inverse(b):
            return _power(_word_series(b, cap, label), -1, cap)
        case pres.Power(b, e):
            return _power(_word_series(b, cap, label), e, cap)
        case pres.Product(fs):
            out: Tensor = {(): 1}
            for f in fs:
                out = _multiply(out, _word_series(f, cap, label), cap)
            return out
        case pres.Commutator(a, b):
            sa, sb = _word_series(a, cap, label), _word_series(b, cap, label)
            out = _multiply(_power(sa, -1, cap), _power(sb, -1, cap), cap)
            return _multiply(_multiply(out, sa, cap), sb, cap)
    raise TypeError(f"not a word node: {word!r}")


def graded_component(series: Tensor, m: int) -> Tensor:
    return {mon: x for mon, x in series.items() if len(mon) == m and x != 0}


def tensor_to_hall(component: Tensor, n: int, m: int) -> LieElement:
    """Express a Lie tensor of weight m on the Hall basis by exact solving.

    Raises if the component is not in the integer span, which would mean
    the input was not the graded image of a group element.
    """
    # Hall elements and their expansions are homogeneous in each generator,
    # so only elements with the letter content of some monomial can occur.
    contents = {tuple(sorted(mon)) for mon in component}
    basis = [h for h in hall_basis(n, min(m, MAX_CLASS))
             if h.weight == m and _content(h) in contents]
    coeffs = _solve_exact([tensor_expansion(h) for h in basis], component)
    out: LieElement = {}
    for i, x in sorted(coeffs.items()):
        if x.denominator != 1:
            raise ArithmeticError("non-integral Hall coefficient")
        out[basis[i]] = int(x)
    return out


def _content(h: HallElement) -> tuple[int, ...]:
    """The generator indices of h's leaves, sorted, with repetition."""
    if h.is_generator():
        return (h.index,)
    return tuple(sorted(_content(h.left) + _content(h.right)))


def _solve_exact(rows: list[Tensor], target: Tensor) -> dict[int, Fraction]:
    """Nonzero c_i with sum_i c_i rows[i] = target over Q; raises if inconsistent.

    Sparse echelon elimination: each pivot row is kept scaled to lead with
    coefficient 1 at its least monomial, together with the combination of
    the input rows it equals.  Every other monomial of a pivot row is
    larger than its lead, so a vector in the span leads with some pivot.
    """
    pivots: dict[tuple[int, ...], tuple[dict, dict]] = {}
    for i, row in enumerate(rows):
        vec = {mon: Fraction(x) for mon, x in row.items()}
        combo = {i: Fraction(1)}
        while vec:
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                scale = vec[lead]
                pivots[lead] = ({k: x / scale for k, x in vec.items()},
                                {k: x / scale for k, x in combo.items()})
                break
            f = vec[lead]
            _add(vec, piv[0], -f)
            _add(combo, piv[1], -f)
    rest = {mon: Fraction(x) for mon, x in target.items()}
    coeffs: dict[int, Fraction] = {}
    while rest:
        lead = min(rest)
        piv = pivots.get(lead)
        if piv is None:
            raise ArithmeticError("component outside the Lie span")
        f = rest[lead]
        _add(rest, piv[0], -f)
        _add(coeffs, piv[1], f)
    return coeffs


def _relabel(h: HallElement, labels: Sequence[int]) -> HallElement:
    if h.is_generator():
        return generator(labels[h.index])
    return bracket_node(_relabel(h.left, labels), _relabel(h.right, labels))


def word_nontriviality_certificate(
    word: pres.Word, n: int, c: int
) -> tuple[int, LieElement] | None:
    """Lowest-weight nonzero graded image of a word, if visible at class <= c.

    Returns (weight, Hall-basis element) certifying the word is not in
    the (c+1)-st lower central subgroup of the free group, hence not
    trivial.  Returns None when the word is freely trivial or all its
    components up to weight c vanish.

    The expansion runs over the generators the word uses, relabelled in
    increasing order to 0..k-1; a monotone relabelling keeps the Hall
    order, so the Hall basis on k generators maps onto the elements of
    the basis on n generators that use only those, and the solution,
    being unique, is the same.
    """
    if not (1 <= n <= MAX_GENERATORS):
        raise BoundsExceeded(f"generator count {n} outside 1..{MAX_GENERATORS}")
    if not (1 <= c <= MAX_CLASS):
        raise BoundsExceeded(f"class bound {c} outside 1..{MAX_CLASS}")
    support = sorted(pres.generator_indices(word))
    for k in support:
        if k >= n:
            raise BoundsExceeded(f"word references generator {k + 1} > n = {n}")
    label = {g: i for i, g in enumerate(support)}
    for m in range(1, c + 1):
        component = graded_component(_word_series(word, m, label), m)
        if component:
            lie = tensor_to_hall(component, len(support), m)
            return m, {_relabel(h, support): x for h, x in lie.items()}
    return None
