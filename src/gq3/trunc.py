"""Arithmetic in the third q-central truncation of free pro-p groups.

For S free on n generators, the quotient S^[3] by the third term of the
descending q-central series has unique normal forms

    sigma_1^{e_1} ... sigma_n^{e_n} * prod_{k<l} w_kl^{c_kl},

with e_k mod q^2, c_kl mod q and w_kl = [sigma_k, sigma_l] central.
Multiplication is collection: transposing sigma_k^a leftwards past
sigma_l^b (k < l) deposits w_kl^{-ab}, so the law is biadditive and
needs no generic rewriting.  The same rule gives powers and commutators
in closed form: x^m has exponents m e_k and m c_kl - C(m,2) e_k e_l for
every integer m, and [x, y] is the central element with commutator part
x_k y_l - x_l y_k.  _product and _power, on plain (e, c) pairs, are the
one place the law is written out; multiply, power and inverse wrap them.

Quotients G^[3] of S^[3] by a subgroup W of the central layer carry the
same normal forms with the central part reduced to a canonical coset
representative mod W.  W is central, so that representative depends only
on the coset, and evaluate_word reduces once, after a whole word.
Presentations whose relators stick out of the Frattini subgroup are
reduced to that shape by eliminating generators with unit pivots; see
relator_subspace.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence

from . import presentations as pres
from .freelie import MAX_GENERATORS, check_class_bound, word_nontriviality_certificate
from .records import record
from .zqlin import (
    ZqMatrix,
    ZqSubspace,
    annihilator,
    canonicalize,
    kernel,
    prime_power,
    smith_normal_form,
    vanishing_part,
    zero_subspace,
)

class MixedExponentError(ValueError):
    """Relator images are p-divisible but nonzero in the degree-1 layer.

    Such presentations have a maximal elementary-abelian mod-q quotient
    smaller than (Z/q)^n and fall outside the range of groups this
    engine can put back into normal form.  Only possible for q = p^d
    with d > 1.
    """


# The one default class bound of certificates: a relator trivial in S^[3] is
# kept if certified nontrivial up to it, and equiv and screen certify at it.
TRIVIALITY_CLASS = 5


@functools.cache
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((k, l) for k in range(n) for l in range(k + 1, n))


@functools.cache
def pair_columns(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pairs k < l of pair_list(n) as two columns (ks, ls)."""
    pairs = pair_list(n)
    return tuple(k for k, _ in pairs), tuple(l for _, l in pairs)


def kappa_constant(q: int) -> int:
    """kappa = C(q,2) mod q: x^q has commutator part -kappa x_k x_l, which
    makes x cup x = kappa * Bockstein(x)."""
    return math.comb(q, 2) % q


# ---------------------------------------------------------------------------
# The central layer in closed form: x^q and [x, y] depend only on the
# degree-1 exponents a, b of x, y, mod q.


def power_vector(q: int, a: Sequence[int]) -> tuple[int, ...]:
    """Central vector of x^q for x in S^[3] with degree-1 exponents a:
    (a | -kappa a_k a_l for k < l)."""
    kappa = kappa_constant(q)
    ks, ls = pair_columns(len(a))
    return tuple([x % q for x in a] + [(-kappa * a[k] * a[l]) % q for k, l in zip(ks, ls)])


def commutator_vector(q: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Central vector of [x, y] for x, y in S^[3] with degree-1 exponents
    a, b: (0 | a_k b_l - a_l b_k for k < l)."""
    ks, ls = pair_columns(len(a))
    return (0,) * len(a) + tuple([(a[k] * b[l] - a[l] * b[k]) % q for k, l in zip(ks, ls)])


def layer_map(q: int, images: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Columns of the map on central layers induced by sigma_k -> x_k, where
    x_k has degree-1 exponents images[k]: the images of u_k = sigma_k^q,
    then of w_kl = [sigma_k, sigma_l] for k < l."""
    columns = [power_vector(q, a) for a in images]
    return columns + [commutator_vector(q, images[k], images[l])
                      for k, l in pair_list(len(images))]


def _product(q: int, n: int, x, y):
    """x y on (e, c) pairs: transposing sigma_k^(y_k) leftwards past
    sigma_l^(x_l) (k < l) deposits w_kl^(-y_k x_l).  Elementwise, so the
    coordinates may be arrays."""
    (xe, xc), (ye, yc) = x, y
    ks, ls = pair_columns(n)
    qq = q * q
    return ([(a + b) % qq for a, b in zip(xe, ye)],
            [(a + b - ye[k] * xe[l]) % q for a, b, k, l in zip(xc, yc, ks, ls)])


def _power(q: int, n: int, e, c, m: int):
    """(e, c)^m for every integer m: collecting m copies deposits
    w_kl^(-C(m,2) e_k e_l), and C(m,2) = m(m-1)/2 holds for m < 0 too."""
    ks, ls = pair_columns(n)
    binom = m * (m - 1) // 2
    return ([(m * a) % (q * q) for a in e],
            [(m * b - binom * e[k] * e[l]) % q for b, k, l in zip(c, ks, ls)])


class TruncElement(record("e c")):
    """Normal form: generator exponents mod q^2, commutator exponents mod q."""

    __slots__ = ()
    e: tuple[int, ...]
    c: tuple[int, ...]


class TruncGroup(record("n q w")):
    """S^[3] (w = 0) or a central quotient G^[3] = S^[3]/w."""

    __slots__ = ()
    n: int
    q: int
    w: ZqSubspace

    def __new__(cls, n: int, q: int, w: ZqSubspace):
        self = super().__new__(cls, n, q, w)
        prime_power(q)
        # n = 0 is allowed so that fully eliminated presentations still
        # have a home (the trivial group).
        if not (0 <= n <= MAX_GENERATORS):
            raise ValueError(f"generator count {n} outside 0..{MAX_GENERATORS}")
        if w.ambient_dim != self.layer_rank or w.q != q:
            raise ValueError("central subspace has wrong ambient dimension or modulus")
        return self

    @property
    def npairs(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def layer_rank(self) -> int:
        return self.n + self.n * (self.n - 1) // 2

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return pair_list(self.n)

    def order(self) -> int:
        return self.q ** (2 * self.n + self.npairs) // self.w.cardinality()

    def identity(self) -> TruncElement:
        return TruncElement((0,) * self.n, (0,) * self.npairs)

    # -- normal forms -----------------------------------------------------

    def normalize(self, x: TruncElement) -> TruncElement:
        """Reduce the central (t|c) part of x to its canonical coset rep."""
        q = self.q
        if self.w.nrows == 0:
            return x
        vec = tuple(ek // q for ek in x.e) + x.c
        red = self.w.reduce_vector(vec)
        e = tuple((x.e[k] % q) + q * red[k] for k in range(self.n))
        return TruncElement(e, tuple(red[self.n:]))

    def _check(self, x: TruncElement):
        if len(x.e) != self.n or len(x.c) != self.npairs:
            raise ValueError("element has wrong shape for this group")

    # -- group law --------------------------------------------------------

    def multiply(self, a: TruncElement, b: TruncElement) -> TruncElement:
        self._check(a)
        self._check(b)
        e, c = _product(self.q, self.n, (a.e, a.c), (b.e, b.c))
        return self.normalize(TruncElement(tuple(e), tuple(c)))

    def power(self, a: TruncElement, m: int) -> TruncElement:
        self._check(a)
        e, c = _power(self.q, self.n, a.e, a.c, m)
        return self.normalize(TruncElement(tuple(e), tuple(c)))

    def inverse(self, a: TruncElement) -> TruncElement:
        return self.power(a, -1)

    def commutator(self, a: TruncElement, b: TruncElement) -> TruncElement:
        """[a, b] = a^-1 b^-1 a b, the central element (0 | a_k b_l - a_l b_k)."""
        self._check(a)
        self._check(b)
        vec = commutator_vector(self.q, a.e, b.e)
        return self.normalize(TruncElement(vec[:self.n], vec[self.n:]))

    def evaluate_word(self, word: pres.Word) -> TruncElement:
        """Homomorphic evaluation of a word in the generators: one pass over
        its tree on (e, c) pairs, then one reduction mod w."""
        e, c = self._evaluate(word)
        return self.normalize(TruncElement(tuple(e), tuple(c)))

    def _evaluate(self, word: pres.Word):
        q, n = self.q, self.n
        match word:
            case pres.Generator(k):
                if not 0 <= k < n:
                    raise ValueError(f"no generator {k}")
                return [0] * k + [1] + [0] * (n - 1 - k), [0] * self.npairs
            case pres.Inverse(b):
                return _power(q, n, *self._evaluate(b), -1)
            case pres.Power(b, m):
                return _power(q, n, *self._evaluate(b), m)
            case pres.Product(fs):
                out = self._evaluate(fs[0]) if fs else ([0] * n, [0] * self.npairs)
                for f in fs[1:]:
                    out = _product(q, n, out, self._evaluate(f))
                return out
            case pres.Commutator(a, b):
                vec = commutator_vector(q, self._evaluate(a)[0], self._evaluate(b)[0])
                return vec[:n], vec[n:]
        raise TypeError(f"not a word node: {word!r}")

    # -- central layer ----------------------------------------------------

    def is_central(self, x: TruncElement) -> bool:
        return all(ek % self.q == 0 for ek in x.e)

    def central_vector(self, x: TruncElement) -> tuple[int, ...]:
        """Coordinates (t | c) of a central element in the layer (Z/q)^{n + C(n,2)}."""
        if not self.is_central(x):
            raise ValueError("element is not in the central layer")
        return tuple(ek // self.q for ek in x.e) + x.c

    def elements(self):
        """Iterate all canonical normal forms (small groups only)."""
        q, qq = self.q, self.q * self.q
        seen = set()
        for e in itertools.product(range(qq), repeat=self.n):
            for c in itertools.product(range(q), repeat=self.npairs):
                x = self.normalize(TruncElement(e, c))
                if x not in seen:
                    seen.add(x)
                    yield x


def free_truncation(n: int, q: int) -> TruncGroup:
    """S^[3] for the free pro-p group on n generators."""
    npairs = n * (n - 1) // 2
    return TruncGroup(n, q, zero_subspace(q, n + npairs))


# ---------------------------------------------------------------------------
# Relator subspaces and minimization


class MinimalityReport(record("minimal eliminated kept dropped_trivial warnings images")):
    __slots__ = ()
    minimal: bool
    eliminated: tuple[tuple[str, str], ...]  # (generator name, pivot relator)
    kept: tuple[str, ...]
    dropped_trivial: tuple[str, ...]
    warnings: tuple[str, ...]
    images: tuple[TruncElement, ...]  # free S^[3] image of every relator, in order


def evaluate_relators(presentation: pres.Presentation, certificate_class: int):
    """The free S^[3] and (source, word, image, certificate) of each relator,
    in order.  Each relator is evaluated once, and only an identity image
    gets a word_nontriviality_certificate: any other image proves the
    relator nontrivial, and its certificate is None."""
    group = free_truncation(presentation.n, presentation.q)
    check_class_bound(certificate_class)
    relators = []
    for word, source in zip(presentation.relators, presentation.relator_sources):
        y = group.evaluate_word(word)
        cert = (word_nontriviality_certificate(word, presentation.n, certificate_class)
                if y == group.identity() else None)
        relators.append((source, word, y, cert))
    return group, relators


def relator_subspace(
    presentation: pres.Presentation,
) -> tuple[ZqSubspace, MinimalityReport]:
    """Span of the relator images in the central layer, after minimization.

    Relators whose image already lies in the Frattini subgroup contribute
    their (t | c) coordinates directly.  A relator with a unit degree-1
    coefficient makes the presentation non-minimal: the corresponding
    generator is eliminated by a change of relator basis, and the span is
    computed over the surviving generators.  A relator with identity image
    and no nontriviality certificate at TRIVIALITY_CLASS (evaluate_relators
    certifies only such images) is dropped with a warning.  Raises
    MixedExponentError when elimination stalls on a p-divisible nonzero
    image.  The report carries the free image of every relator, dropped
    ones included.
    """
    n, q = presentation.n, presentation.q
    p, d = prime_power(q)
    group, relators = evaluate_relators(presentation, TRIVIALITY_CLASS)
    dropped: list[str] = []
    ys: list[TruncElement] = []
    sources: list[str] = []
    for source, _, y, cert in relators:
        if y == group.identity() and cert is None:
            dropped.append(source)
        else:
            ys.append(y)
            sources.append(source)
    images = tuple(y for _, _, y, _ in relators)
    warnings = tuple(f"relator {source!r} is trivial up to class {TRIVIALITY_CLASS}; dropped"
                     for source in dropped)

    # Unit-pivot Gauss-Jordan on the degree-1 images, performed by relator
    # replacement inside S^[3] so the normal closure never changes.
    pivot_of_row: dict[int, int] = {}
    pivot_cols: set[int] = set()
    for col in range(n):
        found = None
        for i in range(len(ys)):
            if i in pivot_of_row:
                continue
            if ys[i].e[col] % p != 0:
                found = i
                break
        if found is None:
            continue
        i = found
        u = pow(ys[i].e[col] % q, -1, q)
        if u != 1:
            ys[i] = group.power(ys[i], u)
        for j in range(len(ys)):
            if j == i:
                continue
            alpha = ys[j].e[col] % q
            if alpha:
                ys[j] = group.multiply(ys[j], group.power(ys[i], -alpha))
        pivot_of_row[i] = col
        pivot_cols.add(col)

    for i, y in enumerate(ys):
        if i in pivot_of_row:
            continue
        if not group.is_central(y):
            raise MixedExponentError(
                f"relator {sources[i]!r} has p-divisible nonzero degree-1 image; "
                "the mod-q abelianization is not elementary of exponent q"
            )

    # A pivot relator y contributes the central elements y^q and
    # [y, sigma_j] of its normal closure; any other relator is central.
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    central_rows: list[tuple[int, ...]] = []
    for i, y in enumerate(ys):
        if i in pivot_of_row:
            central_rows.append(power_vector(q, y.e))
            central_rows.extend(commutator_vector(q, y.e, u) for u in units)
        else:
            central_rows.append(group.central_vector(y))

    big_span = canonicalize(q, group.layer_rank, central_rows)

    kept_indices = [k for k in range(n) if k not in pivot_cols]
    eliminated = tuple(
        (presentation.generators[col], sources[i])
        for i, col in sorted(pivot_of_row.items(), key=lambda kv: kv[1])
    )

    span = big_span
    if pivot_cols:
        # Restrict the central span to the coordinates of the kept generators:
        # the part of it that vanishes on the eliminated ones is exactly what
        # the relator subgroup meets of the smaller free truncation.
        kept_coords = kept_indices + [
            n + idx for idx, (k, l) in enumerate(group.pairs)
            if k not in pivot_cols and l not in pivot_cols
        ]
        dropped_coords = [c for c in range(group.layer_rank) if c not in kept_coords]
        columns = dropped_coords + kept_coords
        span = vanishing_part(q, group.layer_rank,
                              [[row[c] for c in columns] for row in big_span.basis],
                              len(dropped_coords))

        # The quotient order must agree whether computed upstairs or on the
        # reduced generating set; a mismatch means a bug, not bad input.
        n2 = len(kept_indices)
        closure_order = q ** len(pivot_cols) * big_span.cardinality()
        upstairs = group.order() // closure_order
        downstairs = q ** (2 * n2 + n2 * (n2 - 1) // 2) // span.cardinality()
        if upstairs != downstairs:
            raise AssertionError("generator elimination produced inconsistent orders")

    report = MinimalityReport(
        minimal=not pivot_cols,
        eliminated=eliminated,
        kept=tuple(presentation.generators[k] for k in kept_indices),
        dropped_trivial=tuple(dropped),
        warnings=warnings
        + tuple(f"eliminated generator {g!r} using relator {r!r}" for g, r in eliminated),
        images=images,
    )
    return span, report


def truncated_quotient(presentation: pres.Presentation) -> tuple[TruncGroup, MinimalityReport]:
    """G^[3] for a finitely presented pro-p group, with the minimality log."""
    w, report = relator_subspace(presentation)
    return TruncGroup(len(report.kept), presentation.q, w), report


# ---------------------------------------------------------------------------
# Invariants


class GroupInvariants(record("order abelianization center_order exponent")):
    __slots__ = ()
    order: int
    abelianization: tuple[int, ...]  # cyclic factor orders, ascending
    center_order: int
    exponent: int


def abelianization(g: TruncGroup) -> tuple[int, ...]:
    """Cyclic factor orders of G^ab, ascending: (Z/q^2)^n modulo q times
    the t-block projection of w."""
    q, n = g.q, g.n
    t_rows = [row[:n] for row in g.w.basis]
    dvals = list(smith_normal_form(ZqMatrix.from_rows(q, t_rows, n)))
    dvals += [0] * (n - len(dvals))
    return tuple(sorted(q * (x if x else q) for x in dvals))


def group_invariants(g: TruncGroup) -> GroupInvariants:
    q, n = g.q, g.n
    p, d = prime_power(q)
    if n == 0:  # every generator eliminated: the trivial group
        return GroupInvariants(1, (), 1, 1)
    ab = abelianization(g)

    # Center: degree-1 classes e with sum_k e_k [sigma_k, sigma_j] in Wc,
    # the commutator-block part of w, for every j; over Z/q that is
    # a . [sigma_e, sigma_j] = 0 for every a in ann(Wc), where
    # [sigma_k, sigma_j] = w_kj for k < j and -w_jk for k > j.
    npairs = g.npairs
    dual = annihilator(vanishing_part(q, g.layer_rank, g.w.basis, n)).basis
    index = {pair: idx for idx, pair in enumerate(g.pairs)}
    rows = []
    for j in range(n):
        for a in dual:
            rows.append([a[index[k, j]] if k < j else -a[index[j, k]] if k > j else 0
                         for k in range(n)])
    size_e = kernel(ZqMatrix.from_rows(q, rows, n)).cardinality()
    center = size_e * q ** (n + npairs) // g.w.cardinality()

    # Exponent: q * smallest p-power j with p^j u_k in w for all k and,
    # for p = 2, p^j (q/2) w_kl in w for all pairs.
    tests = []
    for k in range(n):
        vec = [0] * g.layer_rank
        vec[k] = 1
        tests.append(vec)
    if p == 2:
        for idx in range(npairs):
            vec = [0] * g.layer_rank
            vec[n + idx] = q // 2
            tests.append(vec)
    exponent = q * q
    for j in range(d + 1):
        if all(g.w.contains([(x * p**j) % q for x in vec]) for vec in tests):
            exponent = q * p**j
            break

    return GroupInvariants(g.order(), ab, center, exponent)
