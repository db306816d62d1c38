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
3.11, 2 shared vCPUs).  _write_layer writes x^q and [x, y] into rows from
degree-1 maps, for relator elimination and layer_image (a morphism's map
on central layers).  multiply, power, inverse and commutator wrap the
law on dense normal forms for selftest criterion 2, which checks them
against a coset enumeration of S^[3]'s definition.

A quotient G^[3] of S^[3] by a subgroup W of the central layer is its W:
order and invariants are read off W, and a morphism's H^2 condition asks
W to contain layer images.  Element arithmetic (multiply, power, inverse,
commutator, evaluate_word, elements) is S^[3]'s alone: on a group with
nonzero W it raises ValueError, since no answer names a coset of W.
Presentations whose relators stick out of the Frattini subgroup are
reduced to that shape by eliminating generators with unit pivots, sought
only where some relator has a unit entry, on the sparse maps; the relator
span is then cut to the kept generators by zqlin.vanishing_part, if any
were eliminated.
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
        if type(word[0]) is pres.Generator:
            return {_leaf(n, word[0]): word[1] % (q * q)}, {}
        return _power(q, _evaluate(q, n, word[0]), word[1])
    if kind is pres.Product:
        out = None
        for f in word[0]:
            y = _evaluate(q, n, f)
            out = y if out is None else _product(q, out, y)
        return ({}, {}) if out is None else out
    if kind is pres.Commutator:
        return {}, _commutator(q, degree_one(q, n, word[0]), degree_one(q, n, word[1]))
    raise TypeError(f"not a word node: {word!r}")


def degree_one(q: int, n: int, word) -> dict[int, int]:
    """The e map of _evaluate(q, n, word) alone, exponents mod q^2 of the
    word's image in the free S^[3]: no commutator part is formed, but every
    leaf is still checked."""
    kind = type(word)
    if kind is pres.Generator:
        return {_leaf(n, word): 1}
    if kind is pres.Power:
        if type(word[0]) is pres.Generator:
            return {_leaf(n, word[0]): word[1] % (q * q)}
        return _scale(q * q, degree_one(q, n, word[0]), word[1])
    if kind is pres.Product:
        out = None
        for f in word[0]:
            y = degree_one(q, n, f)
            out = y if out is None else _add(q * q, out, y)
        return {} if out is None else out
    if kind is pres.Commutator:
        degree_one(q, n, word[0])
        degree_one(q, n, word[1])
        return {}
    raise TypeError(f"not a word node: {word!r}")


def _leaf(n: int, word) -> int:
    k = word[0]
    if not 0 <= k < n:
        raise ValueError(f"no generator {k}")
    return k


def _dense(keys, x) -> tuple:
    """The values of the map x at keys, 0 where x has none."""
    return tuple(map(x.get, keys, itertools.repeat(0)))


@functools.cache
def _layer_positions(n: int) -> dict:
    """The layer's coordinates in order, keyed by the generators each
    involves: u_k = sigma_k^q as (k,), then w_kl as (k, l).  Shared: read only."""
    return dict(zip([(k,) for k in range(n)] + list(pair_list(n)), itertools.count()))


def _write_layer(q: int, kappa: int, row: list, at: dict, m: int, a, b=None) -> None:
    """Add m times into row, mod q, the central vector of x^q,
    (a | -kappa a_k a_l), if b is None, else of [x, y], (0 | a_k b_l - a_l b_k),
    for x, y with degree-1 maps a, b (read mod q, zeros may be left out);
    the coordinate with key K (see _layer_positions) is row[at[K]]."""
    if b is None:
        for k, x in a.items():
            row[at[k,]] = (row[at[k,]] + m * x) % q
            if kappa:
                for l, y in a.items():
                    if k < l:
                        row[at[k, l]] = (row[at[k, l]] - kappa * m * x * y) % q
        return
    for k, x in a.items():
        for l, y in b.items():
            if k < l:
                row[at[k, l]] = (row[at[k, l]] + m * x * y) % q
            elif l < k:
                row[at[l, k]] = (row[at[l, k]] - m * x * y) % q


def layer_image(q: int, n: int, images: Sequence[dict], v: Sequence[int]) -> list[int]:
    """L v mod q, for the map L on central layers that sigma_k -> x_k, x_k
    with degree-1 map images[k], induces into the free S^[3] on n generators:
    only v's nonzero entries are read, each weighting x_k^q or [x_k, x_l]."""
    at, kappa = _layer_positions(n), kappa_constant(q)
    row = [0] * len(at)
    for key, x in zip(_layer_positions(len(images)), v):
        if x:
            _write_layer(q, kappa, row, at, x, *(images[k] for k in key))
    return row


class TruncElement(record("e c")):
    """Normal form: generator exponents mod q^2, commutator exponents mod q."""

    __slots__ = ()
    e: tuple[int, ...]
    c: tuple[int, ...]


# The one message of element arithmetic on a group with nonzero w.
QUOTIENT_ARITHMETIC = "element arithmetic is S^[3]'s alone; this group has nonzero w"


class TruncGroup(record("n q w")):
    """S^[3] (w = 0) or a central quotient G^[3] = S^[3]/w, held as w: its
    element arithmetic runs only at w = 0."""

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

    # -- group law --------------------------------------------------------

    def _maps(self, x: TruncElement):
        """The sparse maps (e, c) of a normal form of this group."""
        pairs = pair_list(self.n)
        if len(x.e) != self.n or len(x.c) != len(pairs):
            raise ValueError("element has wrong shape for this group")
        return dict(enumerate(x.e)), dict(zip(pairs, x.c))

    def _element(self, e, c) -> TruncElement:
        """The normal form of sparse maps (e, c); ValueError if w is nonzero."""
        if self.w.nrows:
            raise ValueError(QUOTIENT_ARITHMETIC)
        return TruncElement(_dense(range(self.n), e), _dense(pair_list(self.n), c))

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
        its tree on sparse maps, then one dense normal form."""
        return self._element(*_evaluate(self.q, self.n, word))

    # -- central layer ----------------------------------------------------

    def central_vector(self, x: TruncElement) -> tuple[int, ...] | None:
        """Coordinates (t | c) of x in the layer (Z/q)^{n + C(n,2)}, or None
        if x is not central."""
        return None if any(ek % self.q for ek in x.e) else tuple(ek // self.q for ek in x.e) + x.c

    def elements(self):
        """An iterator over the q^(2n + C(n,2)) normal forms of S^[3] (small
        groups only); ValueError at the call if w is nonzero."""
        if self.w.nrows:
            raise ValueError(QUOTIENT_ARITHMETIC)
        q = self.q
        return (TruncElement(e, c) for e in itertools.product(range(q * q), repeat=self.n)
                for c in itertools.product(range(q), repeat=self.npairs))


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
    identity = group.identity()
    relators = []
    for word, source in zip(presentation.relators, presentation.relator_sources):
        y = group.evaluate_word(word)
        cert = (word_nontriviality_certificate(word, presentation.n, certificate_class)
                if y == identity else None)
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
    computed over the surviving generators.  Pivots are sought only in the
    columns where some relator has a unit entry: replacement adds multiples
    of relators, and sums and multiples of p-divisible entries stay
    p-divisible.  Replacement runs on _evaluate's sparse maps, and rows are
    written once, in final column order.  A relator with identity image and
    no nontriviality certificate at TRIVIALITY_CLASS (only such images are
    certified) is dropped with a warning.  Raises MixedExponentError when
    elimination stalls on a p-divisible nonzero image.  The report carries
    the free image of every relator, dropped ones included.
    """
    n, q = presentation.n, presentation.q
    p = prime_power(q)[0]
    group = free_truncation(n, q)
    identity = group.identity()
    images, dropped, ys, sources = [], [], [], []
    for word, source in zip(presentation.relators, presentation.relator_sources):
        maps = _evaluate(q, n, word)
        images.append(group._element(*maps))
        if images[-1] == identity and word_nontriviality_certificate(word, n, TRIVIALITY_CLASS) is None:
            dropped.append(source)
        else:
            ys.append(maps)
            sources.append(source)

    # Unit-pivot Gauss-Jordan on the degree-1 maps, column by column, by
    # relator replacement inside S^[3] so the normal closure never changes.
    pivot_of_row: dict[int, int] = {}
    for col in sorted({k for e, _ in ys for k, x in e.items() if x % p}):
        i = next((i for i, y in enumerate(ys) if i not in pivot_of_row and y[0].get(col, 0) % p), None)
        if i is None:
            continue
        u = unit_inverse(ys[i][0][col] % q, q)
        if u != 1:
            ys[i] = _power(q, ys[i], u)
        for j, (e, _) in enumerate(ys):
            alpha = e.get(col, 0) % q
            if alpha and j != i:
                ys[j] = _product(q, ys[j], _power(q, ys[i], -alpha))
        pivot_of_row[i] = col
    pivot_cols = set(pivot_of_row.values())

    # The span is cut to the coordinates of the kept generators: with the
    # eliminated ones put first, its vanishing part is exactly what the
    # relator subgroup meets of the smaller free truncation.
    kept_indices = [k for k in range(n) if k not in pivot_cols]
    lead = group.layer_rank - len(kept_indices) - len(pair_list(len(kept_indices)))
    at = (dict(zip(sorted(_layer_positions(n), key=pivot_cols.isdisjoint), itertools.count()))
          if lead else _layer_positions(n))

    # A pivot relator y contributes the central elements y^q and
    # [y, sigma_j] of its normal closure; any other relator must be central.
    kappa, central_rows = kappa_constant(q), []
    for i, (e, c) in enumerate(ys):
        if i in pivot_of_row:
            y = {k: x for k, x in e.items() if x % q}
            rows = [[0] * group.layer_rank for _ in range(n + 1)]
            for row, sigma in zip(rows, [None, *({j: 1} for j in range(n))]):
                _write_layer(q, kappa, row, at, 1, y, sigma)
        elif any(x % q for x in e.values()):
            raise MixedExponentError(f"relator {sources[i]!r} has p-divisible nonzero degree-1 "
                                     "image; the mod-q abelianization is not elementary of exponent q")
        else:
            rows = [[0] * group.layer_rank]
            for k, x in e.items():
                rows[0][at[k,]] = x // q
            for pair, x in c.items():
                rows[0][at[pair]] = x
        central_rows += rows

    eliminated = tuple((presentation.generators[col], sources[i]) for i, col in pivot_of_row.items())
    big_span = canonicalize(q, group.layer_rank, central_rows)
    span = vanishing_part(big_span, lead) if lead else big_span

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
        warnings=tuple(f"relator {source!r} is trivial up to class {TRIVIALITY_CLASS}; dropped"
                       for source in dropped)
        + tuple(f"eliminated generator {g!r} using relator {r!r}" for g, r in eliminated),
        images=tuple(images),
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
