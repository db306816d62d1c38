"""Hall bases of free Lie rings and nontriviality certificates for words.

The certificate machinery evaluates a free-group word through its
truncated Magnus expansion in Z<<x_1..x_n>>: the lowest nonzero
homogeneous component of w - 1 is the image of w in the graded piece
gr_m of the lower central series, a Lie element of the free Lie ring.
A nonzero component at weight m certifies that the word lies outside
the (m+1)-st lower central subgroup, so in particular is nontrivial.

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


def magnus_expansion(syllables: Sequence[tuple[int, int]], cap: int) -> Tensor:
    """Truncated expansion of a word: each generator power maps to (1+x)^e."""
    series: Tensor = {(): 1}
    for g, e in syllables:
        factor = {tuple([g] * j): _gbinom(e, j) for j in range(cap + 1)}
        new: Tensor = {}
        for ma, xa in series.items():
            if xa == 0:
                continue
            room = cap - len(ma)
            for j in range(room + 1):
                xb = factor[tuple([g] * j)]
                if xb == 0:
                    continue
                mon = ma + tuple([g] * j)
                y = new.get(mon, 0) + xa * xb
                if y:
                    new[mon] = y
                else:
                    new.pop(mon, None)
        series = new
    return series


def graded_component(series: Tensor, m: int) -> Tensor:
    return {mon: x for mon, x in series.items() if len(mon) == m and x != 0}


def tensor_to_hall(component: Tensor, n: int, m: int) -> LieElement:
    """Express a Lie tensor of weight m on the Hall basis by exact solving.

    Raises if the component is not in the integer span, which would mean
    the input was not the graded image of a group element.
    """
    basis = [h for h in hall_basis(n, min(m, MAX_CLASS)) if h.weight == m]
    expansions = [tensor_expansion(h) for h in basis]
    monomials = sorted({mon for t in expansions for mon in t} | set(component))
    mon_index = {mon: i for i, mon in enumerate(monomials)}
    rows = []
    for t in expansions:
        row = [Fraction(0)] * len(monomials)
        for mon, x in t.items():
            row[mon_index[mon]] = Fraction(x)
        rows.append(row)
    target = [Fraction(0)] * len(monomials)
    for mon, x in component.items():
        target[mon_index[mon]] = Fraction(x)
    coeffs = _solve_exact(rows, target)
    out: LieElement = {}
    for h, x in zip(basis, coeffs):
        if x != 0:
            if x.denominator != 1:
                raise ArithmeticError("non-integral Hall coefficient")
            out[h] = int(x)
    return out


def _solve_exact(rows: list[list[Fraction]], target: list[Fraction]) -> list[Fraction]:
    """Solve sum_i c_i rows[i] = target over Q; raises if inconsistent."""
    k = len(rows)
    width = len(target)
    aug = [row[:] + [Fraction(1 if i == j else 0) for j in range(k)] for i, row in enumerate(rows)]
    aug.append(target[:] + [Fraction(0)] * k)
    pivots = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, k) if aug[i][col] != 0), None)
        if piv is None:
            if aug[k][col] != 0:
                raise ArithmeticError("component outside the Lie span")
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        scale = aug[r][col]
        aug[r] = [x / scale for x in aug[r]]
        for i in range(k + 1):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    # target row now expresses -coefficients in the bookkeeping columns
    return [-aug[k][width + i] for i in range(k)]


def word_nontriviality_certificate(
    word: pres.Word, n: int, c: int
) -> tuple[int, LieElement] | None:
    """Lowest-weight nonzero graded image of a word, if visible at class <= c.

    Returns (weight, Hall-basis element) certifying the word is not in
    the (c+1)-st lower central subgroup of the free group, hence not
    trivial.  Returns None when the word is freely trivial or all its
    components up to weight c vanish.
    """
    if not (1 <= n <= MAX_GENERATORS):
        raise BoundsExceeded(f"generator count {n} outside 1..{MAX_GENERATORS}")
    if not (1 <= c <= MAX_CLASS):
        raise BoundsExceeded(f"class bound {c} outside 1..{MAX_CLASS}")
    for k in pres.generator_indices(word):
        if k >= n:
            raise BoundsExceeded(f"word references generator {k + 1} > n = {n}")
    syllables = pres.reduce_syllables(pres.letters(word))
    if not syllables:
        return None
    series = magnus_expansion(syllables, c)
    for m in range(1, c + 1):
        component = graded_component(series, m)
        if component:
            return m, tensor_to_hall(component, n, m)
    return None
