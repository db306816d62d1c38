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
x_k y_l - x_l y_k, which depends only on the degree-1 exponents of x and
y.  The law is written once, on sparse maps of exponents (_product,
_power, _commutator): a word's image involves only the generators it
uses and their pairs, so evaluate_word costs O(support^2) per node, and
the sides of a commutator go through a degree-1-only pass (degree_one)
that forms no commutator part.  Reading them off _evaluate instead would
save its lines but form commutator parts only to drop them: about a
tenth more evaluation time on the benchmark corpora, and up to three
times as much at the caps.  At n = 8, q = 32 evaluate_word took 99 and
192 us in place of 41 and 68 us on the two dense words of
tests/worst_certificates.json, and 4.4 ms in place of 1.4 ms on a
30-deep commutator of 40-syllable products (timeit, min of 5; Python
3.11, 2 shared vCPUs).  multiply, power, inverse and commutator wrap the
same functions on dense normal forms.

Quotients G^[3] of S^[3] by a subgroup W of the central layer carry the
same normal forms with the central part reduced to a canonical coset
representative mod W.  W is central, so that representative depends only
on the coset, and evaluate_word reduces once, after a whole word.
Presentations whose relators stick out of the Frattini subgroup are
reduced to that shape by eliminating generators with unit pivots, and the
relator span is then cut to the kept generators by zqlin.vanishing_part;
see relator_subspace.
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
    axis,
    canonicalize,
    prime_power,
    smith_normal_form,
    unit_inverse,
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


def kappa_constant(q: int) -> int:
    """kappa = C(q,2) mod q: x^q has commutator part -kappa x_k x_l, which
    makes x cup x = kappa * Bockstein(x)."""
    return math.comb(q, 2) % q


# ---------------------------------------------------------------------------
# The law on sparse maps: e maps a generator k to its exponent mod q^2, c a
# pair (k, l), k < l, to its exponent mod q; absent keys are 0.  A word's
# image involves only the generators it uses, so these cost O(support^2).
# Values are never truth-tested, so they may be arrays.


def _add(mod: int, x, y):
    """x + y on maps mod mod, folded into x in place."""
    for k, b in y.items():
        x[k] = (x.get(k, 0) + b) % mod
    return x


def _scale(mod: int, x, m: int):
    """m x on a map, mod mod."""
    m %= mod
    return {k: (m * a) % mod for k, a in x.items()}


def _product(q: int, x, y):
    """x y, folded into x in place: transposing sigma_k^(y_k) leftwards past
    sigma_l^(x_l) (k < l) deposits w_kl^(-y_k x_l)."""
    (xe, xc), (ye, yc) = x, y
    for k, b in ye.items():
        for l, a in xe.items():
            if k < l:
                xc[k, l] = (xc.get((k, l), 0) - b * a) % q
    _add(q, xc, yc)
    _add(q * q, xe, ye)
    return x


def _power(q: int, x, m: int):
    """x^m for every integer m: collecting m copies deposits
    w_kl^(-C(m,2) e_k e_l), and C(m,2) = m(m-1)/2 holds for m < 0 too."""
    e, c = x
    binom = m * (m - 1) // 2 % q
    out = _scale(q, c, m)
    for k, a in e.items():
        for l, b in e.items():
            if k < l:
                out[k, l] = (out.get((k, l), 0) - binom * a * b) % q
    return _scale(q * q, e, m), out


def _commutator(q: int, a, b):
    """The commutator part of [x, y] from the degree-1 maps a, b of x, y:
    a_k b_l - a_l b_k at k < l.  [x, y] has no degree-1 part."""
    c = {}
    for k, x in a.items():
        for l, y in b.items():
            if k < l:
                c[k, l] = (c.get((k, l), 0) + x * y) % q
            elif l < k:
                c[l, k] = (c.get((l, k), 0) - x * y) % q
    return c


def _evaluate(q: int, n: int, word):
    """(e, c) of word in S^[3], fresh maps of the generators and pairs it
    uses; each node reduces its exponents.  Raises ValueError on a leaf out
    of range 0..n-1, wherever it sits in the tree."""
    kind = type(word)
    if kind is pres.Generator:
        return {_leaf(n, word): 1}, {}
    if kind is pres.Power:
        return _power(q, _evaluate(q, n, word[0]), word[1])
    if kind is pres.Product:
        out = None
        for f in word[0]:
            y = _evaluate(q, n, f)
            out = y if out is None else _product(q, out, y)
        return ({}, {}) if out is None else out
    if kind is pres.Commutator:
        return {}, _commutator(q, _degree_one(q, n, word[0]), _degree_one(q, n, word[1]))
    raise TypeError(f"not a word node: {word!r}")


def _degree_one(q: int, n: int, word) -> dict[int, int]:
    """The e map of _evaluate(q, n, word) alone: no commutator part is
    formed, but every leaf is still checked."""
    kind = type(word)
    if kind is pres.Generator:
        return {_leaf(n, word): 1}
    if kind is pres.Power:
        return _scale(q * q, _degree_one(q, n, word[0]), word[1])
    if kind is pres.Product:
        out = None
        for f in word[0]:
            y = _degree_one(q, n, f)
            out = y if out is None else _add(q * q, out, y)
        return {} if out is None else out
    if kind is pres.Commutator:
        _degree_one(q, n, word[0])
        _degree_one(q, n, word[1])
        return {}
    raise TypeError(f"not a word node: {word!r}")


def _leaf(n: int, word) -> int:
    k = word[0]
    if not 0 <= k < n:
        raise ValueError(f"no generator {k}")
    return k


def degree_one(q: int, n: int, word: pres.Word) -> tuple[int, ...]:
    """Degree-1 exponents mod q^2 of word's image in the free S^[3] on n
    generators, without forming its commutator part."""
    return _dense(range(n), _degree_one(q, n, word))


def _dense(keys, x) -> tuple:
    """The values of the map x at keys, 0 where x has none."""
    return tuple(map(x.get, keys, itertools.repeat(0)))


# ---------------------------------------------------------------------------
# The central layer in closed form: x^q and [x, y] depend only on the
# degree-1 exponents a, b of x, y, mod q.


def _support(a: Sequence[int]) -> dict[int, int]:
    return {k: x for k, x in enumerate(a) if x}


def power_vector(q: int, a: Sequence[int]) -> tuple[int, ...]:
    """Central vector of x^q for x in S^[3] with integer degree-1
    exponents a: (a | -kappa a_k a_l for k < l)."""
    e, c = _power(q, (_support(a), {}), q)
    return tuple([x // q for x in _dense(range(len(a)), e)]) + _dense(pair_list(len(a)), c)


def commutator_vector(q: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Central vector of [x, y] for x, y in S^[3] with integer degree-1
    exponents a, b: (0 | a_k b_l - a_l b_k for k < l)."""
    return (0,) * len(a) + _dense(pair_list(len(a)), _commutator(q, _support(a), _support(b)))


def layer_map(q: int, images: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Columns of the map on central layers induced by sigma_k -> x_k, where
    x_k has degree-1 exponents images[k]: the images of u_k = sigma_k^q,
    then of w_kl = [sigma_k, sigma_l] for k < l."""
    columns = [power_vector(q, a) for a in images]
    return columns + [commutator_vector(q, images[k], images[l])
                      for k, l in pair_list(len(images))]


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

    # -- group law --------------------------------------------------------

    def _maps(self, x: TruncElement):
        """The sparse maps (e, c) of a normal form of this group."""
        pairs = pair_list(self.n)
        if len(x.e) != self.n or len(x.c) != len(pairs):
            raise ValueError("element has wrong shape for this group")
        return dict(enumerate(x.e)), dict(zip(pairs, x.c))

    def _element(self, e, c) -> TruncElement:
        """The normal form of sparse maps (e, c), reduced mod w."""
        return self.normalize(TruncElement(_dense(range(self.n), e), _dense(pair_list(self.n), c)))

    def multiply(self, a: TruncElement, b: TruncElement) -> TruncElement:
        return self._element(*_product(self.q, self._maps(a), self._maps(b)))

    def power(self, a: TruncElement, m: int) -> TruncElement:
        return self._element(*_power(self.q, self._maps(a), m))

    def inverse(self, a: TruncElement) -> TruncElement:
        return self.power(a, -1)

    def commutator(self, a: TruncElement, b: TruncElement) -> TruncElement:
        """[a, b] = a^-1 b^-1 a b, the central element (0 | a_k b_l - a_l b_k)."""
        return self._element({}, _commutator(self.q, self._maps(a)[0], self._maps(b)[0]))

    def evaluate_word(self, word: pres.Word) -> TruncElement:
        """Homomorphic evaluation of a word in the generators: one pass over
        its tree on sparse maps, then one reduction mod w."""
        return self._element(*_evaluate(self.q, self.n, word))

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


class MinimalityReport(record("minimal eliminated kept_generators dropped_trivial_relators "
                              "warnings images")):
    __slots__ = ()
    minimal: bool
    eliminated: tuple[tuple[str, str], ...]  # (generator name, pivot relator)
    kept_generators: tuple[str, ...]
    dropped_trivial_relators: tuple[str, ...]
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
    p = prime_power(q)[0]
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
        i = next((i for i, y in enumerate(ys) if i not in pivot_of_row and y.e[col] % p), None)
        if i is None:
            continue
        u = unit_inverse(ys[i].e[col] % q, q)
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
        if i not in pivot_of_row and not group.is_central(y):
            raise MixedExponentError(
                f"relator {sources[i]!r} has p-divisible nonzero degree-1 image; "
                "the mod-q abelianization is not elementary of exponent q"
            )

    # A pivot relator y contributes the central elements y^q and
    # [y, sigma_j] of its normal closure; any other relator is central.
    central_rows: list[tuple[int, ...]] = []
    for i, y in enumerate(ys):
        if i in pivot_of_row:
            central_rows.append(power_vector(q, y.e))
            central_rows.extend(commutator_vector(q, y.e, axis(n, j)) for j in range(n))
        else:
            central_rows.append(group.central_vector(y))

    kept_indices = [k for k in range(n) if k not in pivot_cols]
    eliminated = tuple((presentation.generators[col], sources[i])
                       for i, col in sorted(pivot_of_row.items(), key=lambda kv: kv[1]))

    # Restrict the central span to the coordinates of the kept generators:
    # with the eliminated ones put first, its vanishing part is exactly what
    # the relator subgroup meets of the smaller free truncation.
    kept_coords = kept_indices + [n + idx for idx, pair in enumerate(group.pairs)
                                  if pivot_cols.isdisjoint(pair)]
    lead = group.layer_rank - len(kept_coords)
    columns = sorted(set(range(group.layer_rank)).difference(kept_coords)) + kept_coords
    big_span = canonicalize(q, group.layer_rank, [[row[c] for c in columns] for row in central_rows])
    span = vanishing_part(big_span, lead)

    # The quotient order must agree whether computed upstairs or on the
    # reduced generating set; a mismatch means a bug, not bad input.
    closure_order = q ** len(pivot_cols) * big_span.cardinality()
    if group.order() // closure_order != TruncGroup(len(kept_indices), q, span).order():
        raise AssertionError("generator elimination produced inconsistent orders")

    report = MinimalityReport(
        minimal=not pivot_cols,
        eliminated=eliminated,
        kept_generators=tuple(presentation.generators[k] for k in kept_indices),
        dropped_trivial_relators=tuple(dropped),
        warnings=warnings
        + tuple(f"eliminated generator {g!r} using relator {r!r}" for g, r in eliminated),
        images=images,
    )
    return span, report


def truncated_quotient(presentation: pres.Presentation) -> tuple[TruncGroup, MinimalityReport]:
    """G^[3] for a finitely presented pro-p group, with the minimality log."""
    w, report = relator_subspace(presentation)
    return TruncGroup(len(report.kept_generators), presentation.q, w), report


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

    # Center: its degree-1 part E holds the e with sum_k e_k [sigma_k, sigma_j]
    # in Wc, the commutator block of w, for every j ([sigma_k, sigma_j] is
    # w_kj for k < j and -w_jk for k > j).  As Wc = ann(ann(Wc)) over Z/q,
    # E is the kernel of the rows (a . [sigma_k, sigma_j])_k over j and the a
    # in ann(Wc); they are linear in a, and |E| = q^n / |their span|.  The
    # unit functional of a pair (k, l) that no row of Wc touches gives the
    # units at k and l, so the span is built on the other columns only, from
    # the Howell rows of ann(Wc) until it is full.
    wc = vanishing_part(g.w, n)
    touched = {idx for row in wc.basis for idx, x in enumerate(row) if x}
    seeded = {k for idx, pair in enumerate(g.pairs) if idx not in touched for k in pair}
    rest = [k for k in range(n) if k not in seeded]
    size_e = q ** len(rest)
    if rest:
        index = {pair: idx for idx, pair in enumerate(g.pairs)}
        span = zero_subspace(q, len(rest))
        for a in annihilator(wc).basis:
            rows = [[a[index[k, j]] if k < j else -a[index[j, k]] if k > j else 0
                     for k in rest] for j in range(n)]
            span = canonicalize(q, len(rest), [*span.basis, *rows])
            if span.cardinality() == size_e:
                break
        size_e //= span.cardinality()
    center = size_e * q ** g.layer_rank // g.w.cardinality()

    # Exponent: q * the least p^j with p^j u_k in w for every k and, for
    # p = 2, p^j (q/2) w_kl in w for every pair; p (q/2) w_kl = 0, so the
    # pair tests count only at j = 0, and at j = d every test is 0.
    rank = g.layer_rank
    j = next(j for j in range(d + 1)
             if all(g.w.contains(axis(rank, k, p**j % q)) for k in range(n))
             and (j or p != 2 or all(g.w.contains(axis(rank, k, q // 2)) for k in range(n, rank))))
    exponent = q * p**j

    return GroupInvariants(g.order(), ab, center, exponent)
