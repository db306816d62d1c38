"""Reference helpers that the tests check gq3 against.

None of these is on a path the gq3 CLI runs: they rebuild words from
syllables, render words in the input grammar, scan presentation text one
character at a time, parse it through a list of token records, recognise
Hall elements and build Hall bases weight by weight, build identity and
zero Z/q matrices, take Howell forms subtracting each pivot row over the
whole width, with their own valuations and pivot inverses (none of
zqlin's prime_power or unit_inverse), enumerate small submodules, take
Smith diagonals by pivot scanning, reduce normal forms mod W to their
cosets' canonical representatives (QuotientReference, the element
arithmetic of a quotient G^[3] that the enumeration oracles walk, since
gq3's is S^[3]'s alone), build central elements, raise powers and take
commutators by repeated products, build generators and evaluate words
one group operation per node or in one pass on dense exponent lists,
take relator subspaces with a pivot search over every column and a
vanishing part cut even where no generator is eliminated,
find the center of a G^[3] from one kernel of all its stacked commutator
rows, run selftest criterion 2's laws one tuple and one random triple at
a time, write the central vectors of q-th powers and commutators and
the columns of a morphism's layer map densely through the law's closed
forms and combine those columns, build the layer map through the group
law, form the lift of the decomposable part of H^2 as a direct sum and
by one Howell form over the whole layer, decide the morphism H^2
condition on the annihilators of the relator subspaces, keep the
cohomology tables as cup and Bockstein dicts and transpose them into
lambda's rows, compute the
coboundaries among the Bockstein and cup cocycles on the elements of a
finite G^[3] and the null space of printed tables by enumeration,
substitute words into words, compute word certificates the direct way,
solve the engine's certificates on the Hall basis, find a primitive
root by their own trial division, sweep the Steinberg relations of the
finite and tame presets over every unit through a full discrete-log
table, write a negative valuation's Steinberg rows for every class,
sweep the dyadic relations over the eight square-class representatives,
evaluate the 2-adic Hilbert symbol and the tame
symbol in closed form, test squares pair by pair, place hull relations
slot by slot, read the divisors of every hull degree off its invariant
factors, build the relator independence and obstruction screen reports
from relator images that are all certified up front, sort relators
into kinds with one span of the other central images per relator, and
compare a K-ring preset with a presentation degree by degree, so that
the library's answers can be verified by direct construction.
"""

import functools
import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from gq3.acceptance import _associativity, _pair_laws
from gq3.cohom import (
    MorphismError,
    MorphismReport,
    Report,
    TestOutcome,
    _require_minimal,
    cohomology_data_from_presentation,
)
from gq3.freelie import (
    HallElement,
    bracket_node,
    generator,
    tensor_expansion,
    tensor_to_hall,
    word_nontriviality_certificate,
)
from gq3.milnor import (
    OracleInstability,
    PresetError,
    _grcomm_rows,
    _outer,
    hilbert_symbol_two_adic,
    presentation_zero_pairs,
    preset_relations,
    quadratic_hull,
)
from gq3.presentations import (
    MAX_EXPONENT,
    MAX_NESTING,
    Commutator,
    Generator,
    ParseError,
    Power,
    Presentation,
    PresentationError,
    Product,
)
from gq3.trunc import (
    TRIVIALITY_CLASS,
    GroupInvariants,
    MinimalityReport,
    MixedExponentError,
    TruncElement,
    TruncGroup,
    _commutator,
    _dense,
    _power,
    abelianization,
    evaluate_relators,
    free_truncation,
    kappa_constant,
    pair_list,
    truncated_quotient,
)
from gq3.zqlin import (
    ZqMatrix,
    ZqSubspace,
    annihilator,
    axis,
    canonicalize,
    full_subspace,
    invariant_factors,
    kernel,
    prime_power,
    row_space,
    vanishing_part,
)


def syllables_to_word(seq):
    """The word g1^e1 g2^e2 ... of a syllable list [(g1, e1), ...]."""
    factors = []
    for g, e in seq:
        if e == 1:
            factors.append(Generator(g))
        elif e != 0:
            factors.append(Power(Generator(g), e))
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def is_hall(e: HallElement) -> bool:
    """The Hall conditions, checked recursively on the bracket tree."""
    if e.is_generator():
        return True
    u, v = e.left, e.right
    if not (is_hall(u) and is_hall(v) and v < u):
        return False
    if u.is_generator():
        return True
    return u.right <= v


@functools.cache
def layered_hall_basis(n: int, c: int) -> tuple[HallElement, ...]:
    """The Hall elements of weight <= c on n generators, in Hall order,
    built weight by weight from every pair of lighter elements that
    is_hall accepts, with no regard to letter content."""
    by_weight = [[], [generator(k) for k in range(n)]]
    for w in range(2, c + 1):
        layer = [bracket_node(u, v) for wu in range(1, w)
                 for u in by_weight[wu] for v in by_weight[w - wu]]
        by_weight.append(sorted((h for h in layer if is_hall(h)), key=HallElement.sort_key))
    return tuple(h for layer in by_weight for h in layer)


def identity(q: int, n: int) -> ZqMatrix:
    return ZqMatrix(q, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def zero(q: int, nrows: int, ncols: int) -> ZqMatrix:
    return ZqMatrix(q, nrows, ncols, tuple(tuple(0 for _ in range(ncols)) for _ in range(nrows)))


def dense_howell(q, ambient, rows):
    """Howell rows of the span, each pivot row subtracted from the others
    over every column from the pivot's to the last, zero or not.  It finds
    p, d, the valuations (by division) and the pivot inverses itself,
    sharing no arithmetic with zqlin._howell."""
    p = min(f for f in range(2, q + 1) if q % f == 0)
    d = next(d for d in itertools.count(1) if p**d == q)

    def valuation(x):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    work = [[x % q for x in row] for row in rows]
    r = 0
    for c in range(ambient):
        if r == len(work):
            break
        best, least = None, d
        for i in range(r, len(work)):
            if work[i][c]:
                v = valuation(work[i][c])
                if v < least:
                    best, least = i, v
                    if not v:
                        break
        if best is None:
            continue
        top = work[best]
        if top[c] != p**least:
            x = pow(top[c] // p**least, -1, q)
            top = [(x * e) % q for e in top]
        work[best], work[r] = work[r], top
        pivot = top[c]
        for i, row in enumerate(work):
            f = row[c] // pivot
            if f and i != r:
                for k in range(c, ambient):
                    row[k] = (row[k] - f * top[k]) % q
        if pivot != 1:
            extra = [(q // pivot * e) % q for e in top]
            if any(extra):
                work.append(extra)
        r += 1
    return tuple(tuple(row) for row in work[:r] if any(row))


def pivot_scan_smith_diagonal(m: ZqMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form of m, min(nrows, ncols) long, powers of p
    ascending (0 standing for p^d).  Each step takes an entry of least
    valuation over the whole matrix as pivot and clears its column in the
    remaining rows; every remaining entry stays divisible by the pivot, so
    clearing its row too would not change what is left."""
    q = m.q
    p = min(f for f in range(2, q + 1) if q % f == 0)

    def valuation(x):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    rows = [list(row) for row in m.entries if any(row)]
    diag = []
    while rows:
        v, i, j = min((valuation(x), i, j)
                      for i, row in enumerate(rows) for j, x in enumerate(row) if x)
        unit = pow(rows[i][j] // p**v, -1, q)
        top = [(unit * x) % q for x in rows.pop(i)]
        pivot = top[j]
        for row in rows:
            f = row[j] // pivot
            if f:
                for k, x in enumerate(top):
                    row[k] = (row[k] - f * x) % q
        rows = [row for row in rows if any(row)]
        diag.append(pivot)
    return tuple(diag) + (0,) * (min(m.nrows, m.ncols) - len(diag))


def multiple_count_invariant_factors(w: ZqSubspace) -> tuple[int, ...]:
    """Orders of the cyclic factors of w, descending, counted from the
    orders of its multiples: for w the sum of the Z/p^(a_i),
    log_p |p^k w| = sum_i max(a_i - k, 0), whose second difference in k
    counts the a_i equal to k.  Each |p^k w| is read off the Howell form
    of p^k times w's rows, so no step is shared with the Smith pass."""
    q = w.q
    p = min(f for f in range(2, q + 1) if q % f == 0)
    d = next(d for d in itertools.count(1) if p**d == q)

    def log_order(k):
        rows = [[p**k * x % q for x in row] for row in w.basis]
        size = canonicalize(q, w.ambient_dim, rows).cardinality()
        # |p^k w| <= q^ambient_dim; a size that is no power of p raises KeyError
        return {p**e: e for e in range(d * w.ambient_dim + 1)}[size]

    logs = [log_order(k) for k in range(d)] + [0, 0]
    return tuple(p**a for a in range(d, 0, -1) for _ in range(logs[a - 1] - 2 * logs[a] + logs[a + 1]))


def subspace_vectors(w: ZqSubspace):
    """Every element of w, as combinations of its Howell basis (small w only)."""
    orders = [w.q // next(x for x in row if x != 0) for row in w.basis]
    for coeffs in itertools.product(*(range(o) for o in orders)):
        acc = [0] * w.ambient_dim
        for c, row in zip(coeffs, w.basis):
            for k in range(w.ambient_dim):
                acc[k] = (acc[k] + c * row[k]) % w.q
        yield tuple(acc)


def normalize(g, x):
    """Reduce the central (t|c) part of x to its canonical coset rep mod g.w."""
    q = g.q
    if g.w.nrows == 0:
        return x
    vec = tuple(ek // q for ek in x.e) + x.c
    red = g.w.reduce_vector(vec)
    e = tuple((x.e[k] % q) + q * red[k] for k in range(g.n))
    return TruncElement(e, tuple(red[g.n:]))


class QuotientReference(TruncGroup):
    """G^[3] = S^[3]/w with element arithmetic, which gq3 keeps for S^[3]:
    every normal form is reduced by normalize to its coset's canonical
    representative.  W is central, so that representative depends only on
    the coset, and evaluate_word reduces once, after a whole word."""

    __slots__ = ()

    def _element(self, e, c):
        return normalize(self, TruncElement(_dense(range(self.n), e), _dense(pair_list(self.n), c)))

    def elements(self):
        """Iterate all canonical normal forms (small groups only)."""
        q, qq = self.q, self.q * self.q
        seen = set()
        for e in itertools.product(range(qq), repeat=self.n):
            for c in itertools.product(range(q), repeat=self.npairs):
                x = normalize(self, TruncElement(e, c))
                if x not in seen:
                    seen.add(x)
                    yield x


def central_element(g, vec):
    """The element of the free S^[3] g with central coordinates vec = (t | c)."""
    if len(vec) != g.layer_rank:
        raise ValueError("central vector has wrong length")
    e = tuple((g.q * t) % (g.q * g.q) for t in vec[: g.n])
    c = tuple(x % g.q for x in vec[g.n:])
    return TruncElement(e, c)


def reference_power(g, a, m):
    """a^m in g by square-and-multiply through g.multiply; a negative m
    raises g.inverse(a) to -m."""
    if m < 0:
        return reference_power(g, g.inverse(a), -m)
    out = g.identity()
    while m:
        if m & 1:
            out = g.multiply(out, a)
        a = g.multiply(a, a)
        m >>= 1
    return out


def reference_commutator(g, a, b):
    """[a, b] = a^-1 b^-1 a b in g, as three products."""
    return g.multiply(g.multiply(g.inverse(a), g.inverse(b)), g.multiply(a, b))


def per_tuple_law_counterexample(laws, arity, q):
    """The first tuple of arity elements of the free S^[3] on two generators,
    in itertools.product order over its elements, at which one of laws
    fails, or None: the laws run on one tuple at a time."""
    g = free_truncation(2, q)
    for xs in itertools.product(list(g.elements()), repeat=arity):
        if any(x != y for x, y in laws(g, *xs)):
            return xs
    return None


def per_triple_random_failure(seed):
    """(draw, g, a, b, c) for the first of selftest criterion 2's 10^4 seeded
    random triples at which associativity or the pair laws fail, or None:
    the draws are replayed one at a time, each checked as it is drawn."""
    rng = random.Random(seed or 202)
    for draw in range(10_000):
        g = free_truncation(rng.randint(1, 4), rng.choice([2, 3, 4, 5, 8, 9]))
        a, b, c = (TruncElement(tuple(rng.randrange(g.q * g.q) for _ in range(g.n)),
                                tuple(rng.randrange(g.q) for _ in range(g.npairs)))
                   for _ in range(3))
        laws = itertools.chain(_associativity(g, a, b, c), _pair_laws(g, a, b))
        if any(x != y for x, y in laws):
            return draw, g, a, b, c
    return None


def generator_element(g, k):
    """sigma_k in the truncated group g: its central part is 0, so it is
    its coset's canonical representative in every quotient."""
    if not 0 <= k < g.n:
        raise ValueError(f"no generator {k}")
    e = tuple(1 if i == k else 0 for i in range(g.n))
    return TruncElement(e, (0,) * g.npairs)


def node_by_node_evaluation(g, word):
    """word in g with one operation per node of its tree: generator_element,
    and g's multiply, power and commutator (each reducing mod w in a
    QuotientReference)."""
    match word:
        case Generator(k):
            return generator_element(g, k)
        case Power(b, m):
            return g.power(node_by_node_evaluation(g, b), m)
        case Product(fs):
            out = g.identity()
            for f in fs:
                out = g.multiply(out, node_by_node_evaluation(g, f))
            return out
        case Commutator(a, b):
            return g.commutator(node_by_node_evaluation(g, a), node_by_node_evaluation(g, b))
    raise TypeError(f"not a word node: {word!r}")


def _support(a):
    return {k: x for k, x in enumerate(a) if x}


def power_vector(q, a):
    """Central vector of x^q for x in S^[3] with integer degree-1
    exponents a: (a | -kappa a_k a_l for k < l)."""
    e, c = _power(q, (_support(a), {}), q)
    return tuple([x // q for x in _dense(range(len(a)), e)]) + _dense(pair_list(len(a)), c)


def commutator_vector(q, a, b):
    """Central vector of [x, y] for x, y in S^[3] with integer degree-1
    exponents a, b: (0 | a_k b_l - a_l b_k for k < l)."""
    return (0,) * len(a) + _dense(pair_list(len(a)), _commutator(q, _support(a), _support(b)))


def layer_map(q, images):
    """Columns of the map on central layers induced by sigma_k -> x_k, where
    x_k has degree-1 exponents images[k]: the images of u_k = sigma_k^q,
    then of w_kl = [sigma_k, sigma_l] for k < l."""
    columns = [power_vector(q, a) for a in images]
    return columns + [commutator_vector(q, images[k], images[l])
                      for k, l in pair_list(len(images))]


def _combination(coeffs, vectors, width):
    """sum_i coeffs[i] * vectors[i], unreduced; zero coefficients are skipped."""
    out = [0] * width
    for c, vec in zip(coeffs, vectors):
        if c:
            out = [x + c * y for x, y in zip(out, vec)]
    return out


def every_column_relator_subspace(presentation):
    """relator_subspace, pass by pass: the unit-pivot search visits every
    column, the non-pivot relators are tested central before any row is
    written, each row is written in the order of the layer and then
    permuted, and the span is cut by vanishing_part even when no generator
    is eliminated.  Pivots are inverted by pow, not zqlin's unit_inverse."""
    n, q = presentation.n, presentation.q
    p = prime_power(q)[0]
    group, relators = evaluate_relators(presentation, TRIVIALITY_CLASS)
    dropped, ys, sources = [], [], []
    for source, _, y, cert in relators:
        if y == group.identity() and cert is None:
            dropped.append(source)
        else:
            ys.append(y)
            sources.append(source)
    pivot_of_row = {}
    for col in range(n):
        i = next((i for i, y in enumerate(ys) if i not in pivot_of_row and y.e[col] % p), None)
        if i is None:
            continue
        u = pow(ys[i].e[col] % q, -1, q)
        if u != 1:
            ys[i] = group.power(ys[i], u)
        for j in range(len(ys)):
            alpha = ys[j].e[col] % q
            if j != i and alpha:
                ys[j] = group.multiply(ys[j], group.power(ys[i], -alpha))
        pivot_of_row[i] = col
    pivot_cols = set(pivot_of_row.values())
    for i, y in enumerate(ys):
        if i not in pivot_of_row and group.central_vector(y) is None:
            raise MixedExponentError(
                f"relator {sources[i]!r} has p-divisible nonzero degree-1 image; "
                "the mod-q abelianization is not elementary of exponent q"
            )
    central_rows = []
    for i, y in enumerate(ys):
        if i in pivot_of_row:
            central_rows.append(power_vector(q, y.e))
            central_rows.extend(commutator_vector(q, y.e, axis(n, j)) for j in range(n))
        else:
            central_rows.append(group.central_vector(y))
    kept = [k for k in range(n) if k not in pivot_cols]
    kept_coords = kept + [n + idx for idx, pair in enumerate(group.pairs)
                          if pivot_cols.isdisjoint(pair)]
    lead = group.layer_rank - len(kept_coords)
    columns = sorted(set(range(group.layer_rank)).difference(kept_coords)) + kept_coords
    big_span = canonicalize(q, group.layer_rank, [[row[c] for c in columns] for row in central_rows])
    span = vanishing_part(big_span, lead)
    closure_order = q ** len(pivot_cols) * big_span.cardinality()
    if group.order() // closure_order != TruncGroup(len(kept), q, span).order():
        raise AssertionError("generator elimination produced inconsistent orders")
    eliminated = tuple((presentation.generators[col], sources[i])
                       for i, col in sorted(pivot_of_row.items(), key=lambda kv: kv[1]))
    report = MinimalityReport(
        minimal=not pivot_cols,
        eliminated=eliminated,
        kept_generators=tuple(presentation.generators[k] for k in kept),
        dropped_trivial_relators=tuple(dropped),
        warnings=tuple(f"relator {source!r} is trivial up to class {TRIVIALITY_CLASS}; dropped"
                       for source in dropped)
        + tuple(f"eliminated generator {g!r} using relator {r!r}" for g, r in eliminated),
        images=tuple(y for _, _, y, _ in relators),
    )
    return span, report


def _pair_columns(n):
    """The pairs k < l of pair_list(n) as two columns (ks, ls)."""
    pairs = pair_list(n)
    return tuple(k for k, _ in pairs), tuple(l for _, l in pairs)


def dense_product(q, n, x, y):
    """x y on dense (e, c) lists of n and C(n, 2) exponents: transposing
    sigma_k^(y_k) leftwards past sigma_l^(x_l) (k < l) deposits
    w_kl^(-y_k x_l)."""
    (xe, xc), (ye, yc) = x, y
    ks, ls = _pair_columns(n)
    qq = q * q
    return ([(a + b) % qq for a, b in zip(xe, ye)],
            [(a + b - ye[k] * xe[l]) % q for a, b, k, l in zip(xc, yc, ks, ls)])


def dense_power(q, n, e, c, m):
    """(e, c)^m on dense lists for every integer m: collecting m copies
    deposits w_kl^(-C(m,2) e_k e_l)."""
    ks, ls = _pair_columns(n)
    binom = m * (m - 1) // 2
    return ([(m * a) % (q * q) for a in e],
            [(m * b - binom * e[k] * e[l]) % q for b, k, l in zip(c, ks, ls)])


def _dense_evaluate(g, word):
    q, n = g.q, g.n
    npairs = len(pair_list(n))
    match word:
        case Generator(k):
            if not 0 <= k < n:
                raise ValueError(f"no generator {k}")
            return [0] * k + [1] + [0] * (n - 1 - k), [0] * npairs
        case Power(b, m):
            return dense_power(q, n, *_dense_evaluate(g, b), m)
        case Product(fs):
            out = _dense_evaluate(g, fs[0]) if fs else ([0] * n, [0] * npairs)
            for f in fs[1:]:
                out = dense_product(q, n, out, _dense_evaluate(g, f))
            return out
        case Commutator(a, b):
            xa, _ = _dense_evaluate(g, a)
            xb, _ = _dense_evaluate(g, b)
            ks, ls = _pair_columns(n)
            return [0] * n, [(xa[k] * xb[l] - xa[l] * xb[k]) % q for k, l in zip(ks, ls)]
    raise TypeError(f"not a word node: {word!r}")


def dense_evaluation(g, word):
    """word in g by one pass over its tree on dense (e, c) lists, both sides
    of a commutator evaluated in full, then one reduction mod w."""
    e, c = _dense_evaluate(g, word)
    return normalize(g, TruncElement(tuple(e), tuple(c)))


def stacked_group_invariants(g):
    """group_invariants with the center's degree-1 part read off one kernel
    of all n |ann(Wc)| rows (a . [sigma_k, sigma_j])_k, stacked for every
    j and every Howell row a of ann(Wc), and the exponent's p = 2 tests of
    (q/2) w_kl made at every power of p."""
    q, n = g.q, g.n
    p, d = prime_power(q)
    if n == 0:
        return GroupInvariants(1, (), 1, 1)
    npairs = g.npairs
    wc = ZqSubspace(q, npairs, tuple(row[n:] for row in g.w.basis if not any(row[:n])))
    dual = annihilator(wc).basis
    index = {pair: idx for idx, pair in enumerate(g.pairs)}
    rows = [[a[index[k, j]] if k < j else -a[index[j, k]] if k > j else 0 for k in range(n)]
            for j in range(n) for a in dual]
    size_e = kernel(q, n, rows).cardinality()
    center = size_e * q ** (n + npairs) // g.w.cardinality()
    tests = [[int(i == k) for i in range(g.layer_rank)] for k in range(n)]
    if p == 2:
        tests += [[q // 2 * int(i == n + idx) for i in range(g.layer_rank)]
                  for idx in range(npairs)]
    exponent = q * q
    for j in range(d + 1):
        if all(g.w.contains([(x * p**j) % q for x in vec]) for vec in tests):
            exponent = q * p**j
            break
    return GroupInvariants(g.order(), abelianization(g), center, exponent)

def eliminated_decomposable_part_lift(q, n, ann):
    """The span of kappa times the Bockstein coordinates, the cup
    coordinates and ann, by one Howell form over the whole layer."""
    layer_rank = n + len(pair_list(n))
    kappa = kappa_constant(q)
    rows = [[(kappa if i < n else 1) * (i == j) for j in range(layer_rank)]
            for i in range(layer_rank)]
    return canonicalize(q, layer_rank, rows + list(ann.basis))


def _decomposable_part_lift(q: int, n: int, ann: ZqSubspace) -> ZqSubspace:
    """Preimage in the dual layer of the span of the cup classes, given
    the annihilator of the relator subspace: the cup coordinates, kappa
    times the Bockstein ones, and ann.  The span holds every cup
    coordinate, so its Howell form is a direct sum: the Howell form of
    kappa I_n and the Bockstein parts of ann's rows, padded with zeros,
    then the identity rows on the cup coordinates."""
    layer_rank = n + len(pair_list(n))
    kappa = kappa_constant(q)
    units = full_subspace(q, layer_rank).basis
    head = canonicalize(q, n, [[kappa * x for x in row[:n]] for row in units[:n]]
                        + [row[:n] for row in ann.basis])
    pad = (0,) * (layer_rank - n)
    return ZqSubspace(q, layer_rank, tuple(row + pad for row in head.basis) + units[n:])


def annihilator_morphism_check(pres1, pres2, images):
    """morphism_check with the H^2 condition decided on the annihilators:
    the pullback L^T p2 of the target's lift of the decomposable part of
    H^2, plus ann1, must fill the source's lift p1, and the two parts
    must have the same order |p| / |ann|."""
    if pres1.q != pres2.q:
        raise MorphismError("presentations have different moduli")
    q = pres1.q
    p = prime_power(q)[0]
    g1, rep1 = truncated_quotient(pres1)
    g2, rep2 = truncated_quotient(pres2)
    _require_minimal(rep1, "source")
    _require_minimal(rep2, "target")
    n1, n2 = g1.n, g2.n
    if len(images) != n1:
        raise MorphismError(f"expected {n1} generator images, got {len(images)}")

    free2 = free_truncation(n2, q)
    degree1 = [free2.evaluate_word(w).e for w in images]
    columns = layer_map(q, degree1)

    free1 = free_truncation(n1, q)
    for source, y in zip(pres1.relator_sources, rep1.images):
        v = free1.central_vector(y)
        if not g2.w.contains(_combination(v, columns, g2.layer_rank)):
            raise MorphismError(f"images do not respect relator {source!r}")

    deg1_mod_p = ZqMatrix.from_rows(p, [[x % p for x in a] for a in degree1], n2)
    surjective = row_space(deg1_mod_p).cardinality() == p**n2
    pi2_iso = n1 == n2 and surjective
    pi3_iso = surjective and g1.order() == g2.order()
    h1_iso = pi2_iso

    ann1, ann2 = annihilator(g1.w), annihilator(g2.w)
    p1 = _decomposable_part_lift(q, n1, ann1)
    p2 = _decomposable_part_lift(q, n2, ann2)
    lrows = list(zip(*columns))
    pulled = [_combination(a, lrows, g1.layer_rank) for a in p2.basis]
    image_span = canonicalize(q, g1.layer_rank, pulled + list(ann1.basis))
    d2_size_source = p1.cardinality() // ann1.cardinality()
    d2_size_target = p2.cardinality() // ann2.cardinality()
    pidec2_iso = image_span == p1 and d2_size_source == d2_size_target

    target_h2_dec = p2.cardinality() == q ** g2.layer_rank

    condition_b = pi3_iso
    condition_d = h1_iso and pidec2_iso
    return MorphismReport(
        pi2_isomorphism=pi2_iso,
        pi3_isomorphism=pi3_iso,
        h1_isomorphism=h1_iso,
        h2_decomposable_isomorphism=pidec2_iso,
        condition_b=condition_b,
        condition_d=condition_d,
        agreement=condition_b == condition_d,
        target_h2_decomposable_model=target_h2_dec,
    )


@dataclass(frozen=True)
class DictCohomologyTables:
    """The cohomology tables as two dicts: cup[(k, l)] for k < l and
    bockstein[k], each a vector in the rank-h2_rank H^2 model; the
    reference that cohom.tables_json and cohom.reconstruct_g3, which hold
    the tables as a group's W, are checked against."""

    q: int
    n: int
    h2_rank: int
    cup: dict
    bockstein: dict

    @staticmethod
    def from_json_dict(data):
        """Valid tables in the tables_json layout; absent entries are zero."""
        q, n, h2_rank = data["q"], data["n"], data["h2_rank"]

        def column(name, key):
            return tuple(x % q for x in data.get(name, {}).get(key, [0] * h2_rank))

        cup = {(k, l): column("cup", f"{k + 1},{l + 1}") for k, l in pair_list(n)}
        bockstein = {k: column("bockstein", str(k + 1)) for k in range(n)}
        return DictCohomologyTables(q, n, h2_rank, cup, bockstein)

    @property
    def kappa(self):
        return kappa_constant(self.q)

    def cup_entry(self, k, l):
        if k < l:
            return self.cup[(k, l)]
        if k > l:
            return tuple((-x) % self.q for x in self.cup[(l, k)])
        return tuple((self.kappa * x) % self.q for x in self.bockstein[k])

    def tables_json(self):
        return {
            "q": self.q,
            "n": self.n,
            "h2_rank": self.h2_rank,
            "h2_divisors": list(invariant_factors(row_space(dict_lambda_matrix(self)))),
            "cup": {f"{k + 1},{l + 1}": list(v) for (k, l), v in sorted(self.cup.items())},
            "bockstein": {str(k + 1): list(v) for k, v in sorted(self.bockstein.items())},
            "kappa": self.kappa,
        }


def dict_lambda_matrix(tables):
    """lambda's rows, by transposing the Bockstein columns, then the cup
    columns in pair order."""
    cols = [tables.bockstein[k] for k in range(tables.n)]
    cols += [tables.cup[(k, l)] for k, l in pair_list(tables.n)]
    rows = [tuple(col[i] for col in cols) for i in range(tables.h2_rank)]
    return ZqMatrix.from_rows(tables.q, rows, len(cols))


def table_null_space(tables):
    """Every (b | c) in the dual central layer that the printed tables send
    to zero: sum_k b_k bockstein[k] + sum_{k<l} c_kl cup[(k, l)] = 0."""
    q, n, h2_rank = tables["q"], tables["n"], tables["h2_rank"]
    columns = [tables["bockstein"][str(k + 1)] for k in range(n)]
    columns += [tables["cup"][f"{k + 1},{l + 1}"] for k, l in pair_list(n)]
    return {v for v in itertools.product(range(q), repeat=len(columns))
            if all(sum(x * col[i] for x, col in zip(v, columns)) % q == 0
                   for i in range(h2_rank))}


def coboundary_classes(presentation):
    """(|G|, the (b | c) for which sum_k b_k beta_k + sum_{k<l} c_kl
    chi_k cup chi_l is a coboundary on G), where G is S^[3] modulo the
    subgroup N generated by the relator images, which must be central.

    chi_k(g) is g's degree-1 exponent mod q, L_k(g) its lift to 0..q-1,
    beta_k(g, h) = (L_k(g) + L_k(h) - L_k(gh)) / q the Bockstein cocycle and
    (chi_k cup chi_l)(g, h) = chi_k(g) chi_l(h).  A normalized cocycle Z is
    the coboundary of f exactly when f(gs) = f(g) + f(s) - Z(g, s) for every
    g and every generator s, which is linear in the unknowns
    (b, c, f(s_1), ..., f(s_n)): one walk over G writes f(g) as a linear
    form in them and collects an equation per edge off the walk's tree,
    and every assignment of the unknowns is tried.  An element of S^[3] is
    x = (e mod q, 0) * u with u central, and multiplying by N moves only
    u, so G's elements are keyed by (e mod q, least vector of u's coset).
    """
    q, n = presentation.q, presentation.n
    free = free_truncation(n, q)
    layer_rank, pairs = free.layer_rank, free.pairs
    vectors = []
    for word in presentation.relators:
        vec = free.central_vector(node_by_node_evaluation(free, word))
        if vec is None:
            raise ValueError("relator image is not central")
        vectors.append(vec)
    span, frontier = {(0,) * layer_rank}, [(0,) * layer_rank]
    while frontier:
        u = frontier.pop()
        for v in vectors:
            w = tuple((a + b) % q for a, b in zip(u, v))
            if w not in span:
                span.add(w)
                frontier.append(w)
    least = {}
    for u in itertools.product(range(q), repeat=layer_rank):
        if u not in least:
            for v in span:
                least[tuple((a + b) % q for a, b in zip(u, v))] = u

    def key(x):
        return tuple(a % q for a in x.e), least[tuple(a // q for a in x.e) + x.c]

    unknowns = layer_rank + n
    gens = [generator_element(free, s) for s in range(n)]
    start = free.identity()
    forms = {key(start): (0,) * unknowns}
    queue, equations = [(start, key(start))], set()
    for g, g_key in queue:
        chi, form = g_key[0], forms[g_key]
        for s, gen in enumerate(gens):
            h = free.multiply(g, gen)
            h_key = key(h)
            chi_h = h_key[0]
            # -Z(g, s): the Bockstein carries and the cup values chi_k(g) chi_l(s)
            minus_z = [-((chi[k] + (k == s) - chi_h[k]) // q) for k in range(n)]
            minus_z += [-chi[k] * (l == s) for k, l in pairs]
            step = [a + b for a, b in zip(form, minus_z + [int(t == s) for t in range(n)])]
            step = tuple(x % q for x in step)
            if h_key not in forms:
                forms[h_key] = step
                queue.append((h, h_key))
            else:
                equations.add(tuple((a - b) % q for a, b in zip(step, forms[h_key])))
    equations.discard((0,) * unknowns)
    coboundaries = set()
    for u in itertools.product(range(q), repeat=unknowns):
        if u[:layer_rank] not in coboundaries and all(
                sum(a * x for a, x in zip(eq, u)) % q == 0 for eq in equations):
            coboundaries.add(u[:layer_rank])
    return len(forms), coboundaries


def group_law_layer_columns(images, target):
    """Columns of the map sigma_k -> images[k] on central layers, by the
    group law of target: the central vectors of images[k]^q, then of
    [images[k], images[l]] for k < l."""
    cols = [target.central_vector(reference_power(target, x, target.q)) for x in images]
    for k, l in pair_list(len(images)):
        cols.append(target.central_vector(reference_commutator(target, images[k], images[l])))
    return cols


def substitute(word, images):
    """word with every generator k replaced by the word images[k]."""
    if isinstance(word, Generator):
        return images[word.index]
    if isinstance(word, Power):
        return Power(substitute(word.body, images), word.exponent)
    if isinstance(word, Product):
        return Product(tuple(substitute(f, images) for f in word.factors))
    if isinstance(word, Commutator):
        return Commutator(substitute(word.left, images), substitute(word.right, images))
    raise TypeError(f"not a word node: {word!r}")


def pretty(word, names):
    """Render a word in the input grammar; reparsing gives an equal AST."""
    match word:
        case Generator(k):
            return names[k]
        case Power(body, e):
            return f"{_atom(body, names)}^{e}"
        case Commutator(a, b):
            return f"[{pretty(a, names)}, {pretty(b, names)}]"
        case Product(factors):
            if not factors:
                return "()"
            return " ".join(_atom(f, names) if isinstance(f, Product) else pretty(f, names)
                            for f in factors)
    raise TypeError(f"not a word node: {word!r}")


def _atom(word, names):
    if isinstance(word, (Generator, Commutator)):
        return pretty(word, names)
    return f"({pretty(word, names)})"


_SCAN_PUNCT = set("=;,[]()^*")
_SCAN_DIGITS = set("0123456789")  # str.isdigit also admits '²' and other scripts' digits
_SCAN_MAX_DIGITS = len(str(MAX_EXPONENT))


def scanned_tokens(text):
    """The presentation tokens of text, scanned one character at a time,
    each branch counting its own columns."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
                col += 1
        elif ch == '"':
            start_line, start_col = line, col
            j = text.find('"', i + 1)
            if j < 0 or "\n" in text[i + 1:j]:
                raise ParseError("unterminated string", start_line, start_col)
            tokens.append(_Token("STRING", text[i + 1:j], start_line, start_col))
            col += j - i + 1
            i = j + 1
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
        elif ch in _SCAN_DIGITS or (ch == "-" and text[i + 1:i + 2] in _SCAN_DIGITS):
            j = i + 1
            while j < len(text) and text[j] in _SCAN_DIGITS:
                j += 1
            if len(text[i:j].lstrip("-0")) > _SCAN_MAX_DIGITS:
                raise ParseError("integer out of range", line, col)
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
        elif ch in _SCAN_PUNCT:
            tokens.append(_Token("PUNCT", ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Presentation text parsed through token records: each token a record of
# kind, text, line and column, the whole text checked before any grammar
# rule, and the descent reading the records through a stream object.


@dataclass(slots=True)
class _Token:
    kind: str  # NAME INT PUNCT STRING EOF
    text: str
    line: int
    col: int


_TOKEN = re.compile(r"""
    (?P<PUNCT>[=;,\[\]()^*])
  | (?P<INT>-?[0-9]+)
  | (?P<NAME>\w+)
  | (?P<NEWLINE>\n)
  | (?P<COMMENT>\#[^\n]*)
  | "(?P<STRING>[^"\n]*)"
  | (?P<BAD>[^ \t\r])
""", re.VERBOSE)


def _tokenize(text):
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
        if kind == "INT" and len(m[0].lstrip("-0")) > _SCAN_MAX_DIGITS:
            raise ParseError("integer out of range", line, col)
        tokens.append(_Token(kind, m[kind], line, col))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


def _shown(tok):
    """A token record as an error names it: a string by kind and quoted
    text, the EOF by kind, any other token by its quoted text."""
    if tok.kind == "STRING":
        return f"string {tok.text!r}"
    return repr(tok.text or tok.kind)


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open parentheses and brackets

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {_shown(tok)}", tok.line, tok.col)
        return self.next()

    def at_comma(self):
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.text == ","


def _stream_word(ts, name_to_index):
    factors = [_stream_factor(ts, name_to_index)]
    while True:
        tok = ts.peek()
        if tok.kind == "PUNCT" and tok.text == "*":
            ts.next()
            factors.append(_stream_factor(ts, name_to_index))
        elif tok.kind == "NAME" or (tok.kind == "PUNCT" and tok.text in "(["):
            factors.append(_stream_factor(ts, name_to_index))
        else:
            break
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def _stream_factor(ts, name_to_index):
    atom = _stream_atom(ts, name_to_index)
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
        return Power(atom, e)
    return atom


def _stream_atom(ts, name_to_index):
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
            word = _stream_word(ts, name_to_index)
            ts.expect("PUNCT", ")")
        else:
            left = _stream_word(ts, name_to_index)
            ts.expect("PUNCT", ",")
            right = _stream_word(ts, name_to_index)
            ts.expect("PUNCT", "]")
            word = Commutator(left, right)
        ts.depth -= 1
        return word
    raise ParseError(f"expected a word atom, found {_shown(tok)}", tok.line, tok.col)


def token_parse_word(text, name_to_index):
    """parse_word through token records."""
    ts = _TokenStream(_tokenize(text))
    word = _stream_word(ts, name_to_index)
    tok = ts.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {_shown(tok)}", tok.line, tok.col)
    return word


def token_parse_presentation(text):
    """parse_presentation through token records, relators included."""
    ts = _TokenStream(_tokenize(text))
    q = gens = rel_texts = None
    while ts.peek().kind != "EOF":
        tok = ts.expect("NAME")
        if tok.text == "q":
            if q is not None:
                raise ParseError("duplicate 'q' statement", tok.line, tok.col)
            ts.expect("PUNCT", "=")
            q = int(ts.expect("INT").text)
            ts.expect("PUNCT", ";")
        elif tok.text == "gens":
            if gens is not None:
                raise ParseError("duplicate 'gens' statement", tok.line, tok.col)
            ts.expect("PUNCT", "=")
            ts.expect("PUNCT", "[")
            gens = [ts.expect("NAME").text]
            while ts.at_comma():
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
                while ts.at_comma():
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
    try:
        prime_power(q)
    except ValueError as exc:
        raise PresentationError(str(exc)) from None
    if len(set(gens)) != len(gens):
        dupes = sorted({g for g in gens if gens.count(g) > 1})
        raise PresentationError(f"duplicate generator names: {', '.join(dupes)}")
    name_to_index = {name: k for k, name in enumerate(gens)}
    relators = []
    for i, rel in enumerate(rel_texts or []):
        try:
            relators.append(token_parse_word(rel, name_to_index))
        except ParseError as exc:
            quoted = repr(rel) if len(rel) <= 40 else repr(rel[:40]) + "..."
            raise ParseError(f"in relator {i + 1} ({quoted}): {exc.bare_message}",
                             exc.line, exc.col) from None
    return Presentation(q, tuple(gens), tuple(relators), tuple(rel_texts or []))


# ---------------------------------------------------------------------------
# Word certificates the direct way: every power written out letter by
# letter, the Magnus series over all n generators up to class c, and a
# dense Gauss-Jordan solve over Q on the whole Hall basis of the weight.
# The cost grows with the exponents, so keep them small.


def flat_letters(word, sign=1):
    """The letters (generator, +-1) of word^sign, every power written out."""
    if isinstance(word, Generator):
        return [(word.index, sign)]
    if isinstance(word, Power):
        e = word.exponent
        return flat_letters(word.body, sign if e > 0 else -sign) * abs(e)
    if isinstance(word, Product):
        factors = word.factors if sign > 0 else word.factors[::-1]
        return [x for f in factors for x in flat_letters(f, sign)]
    if isinstance(word, Commutator):
        a, b = word.left, word.right
        return flat_letters(Product((Power(a, -1), Power(b, -1), a, b)), sign)
    raise TypeError(f"not a word node: {word!r}")


def direct_certificate(word, n, c):
    """The lowest nonzero weight of word - 1, its component of that weight
    and the component's Hall coordinates, or None."""
    series = {(): 1}
    for g, s in flat_letters(word):
        # 1 + x for the letter, 1 - x + x^2 - ... for its inverse
        factor = {(g,) * j: (-1) ** j for j in range(c + 1)} if s < 0 else {(): 1, (g,): 1}
        product = {}
        for ma, xa in series.items():
            for mb, xb in factor.items():
                if len(ma) + len(mb) <= c:
                    product[ma + mb] = product.get(ma + mb, 0) + xa * xb
        series = {mon: x for mon, x in product.items() if x}
    for m in range(1, c + 1):
        component = {mon: x for mon, x in series.items() if len(mon) == m}
        if component:
            return m, component, _dense_hall_coordinates(component, n, m)
    return None


def hall_certificate(word, n, c):
    """The engine's certificate with its component solved on the Hall
    basis by tensor_to_hall: (weight, Hall coordinates), or None."""
    cert = word_nontriviality_certificate(word, n, c)
    if cert is None:
        return None
    weight, component = cert
    return weight, tensor_to_hall(component, n, weight)


def _dense_hall_coordinates(component, n, m):
    basis = [h for h in layered_hall_basis(n, m) if h.weight == m]
    expansions = [tensor_expansion(h) for h in basis]
    monomials = sorted({mon for t in expansions for mon in t} | set(component))
    rows = [[Fraction(t.get(mon, 0)) for mon in monomials] for t in expansions]
    target = [Fraction(component.get(mon, 0)) for mon in monomials]
    # Gauss-Jordan on [rows | identity] over the target row [target | 0]:
    # the target row ends as [0 | -coefficients] when it is in the span.
    k, width = len(rows), len(monomials)
    aug = [row + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(rows)]
    aug.append(target + [Fraction(0)] * k)
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
        r += 1
    out = {}
    for h, x in zip(basis, aug[k][width:]):
        if x != 0:
            if x.denominator != 1:
                raise ArithmeticError("non-integral Hall coefficient")
            out[h] = -int(x)
    return out


# Square classes of Q_2: (-1)^s 2^t 5^f with s, t, f in {0, 1}.
SQUARE_CLASSES_Q2 = (1, -1, 2, -2, 5, -5, 10, -10)


def square_class_vector(a):
    """Coordinates of a square-class representative over the basis (-1, 2, 5)."""
    if a not in SQUARE_CLASSES_Q2:
        raise ValueError(f"{a} is not a square-class representative")
    return (1 if a < 0 else 0, 1 if a % 2 == 0 else 0, 1 if abs(a) in (5, 10) else 0)


def representative_hilbert_rows(precision_bits):
    """The rows a dyadic sweep over the eight representatives hands to
    canonicalize: graded commutativity, then a (x) b for each pair with
    trivial symbol, read off the nine basis symbols by bimultiplicativity."""
    basis = (-1, 2, 5)
    h = [hilbert_symbol_two_adic(a, b, precision_bits) == -1 for a in basis for b in basis]
    rows = _grcomm_rows(2, 3)
    for a, b in itertools.product(SQUARE_CLASSES_Q2, repeat=2):
        row = _outer(2, square_class_vector(a), square_class_vector(b))
        if any(row) and sum(t * s for t, s in zip(row, h)) % 2 == 0:
            rows.append(row)
    return rows


def _split_two(a):
    """(alpha, u) with a = 2^alpha u, u odd."""
    alpha = 0
    while a % 2 == 0:
        a //= 2
        alpha += 1
    return alpha, a


def closed_form_hilbert_two_adic(a, b):
    """(a, b)_2 = (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u)) for
    a = 2^alpha u, b = 2^beta v, with eps(u) = (u - 1)/2 and
    omega(u) = (u^2 - 1)/8 mod 2 (Serre, A Course in Arithmetic, III.1.2)."""
    alpha, u = _split_two(a)
    beta, v = _split_two(b)

    def eps(x):
        return ((x - 1) // 2) % 2

    def omega(x):
        return ((x * x - 1) // 8) % 2

    return -1 if (eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)) % 2 else 1


def pairwise_hilbert_two_adic(a, b, precision_bits):
    """(a, b)_2 as the square test at 2^precision_bits decides it, one
    pair (u, v) at a time: 1 iff u + v is a square mod 2^precision_bits
    for some u in a * (odd squares) and v in b * (squares), or u in
    a * (squares) and v in b * (odd squares)."""
    m = 1 << precision_bits
    squares = {(z * z) % m for z in range(m)}
    odd = {(z * z) % m for z in range(1, m, 2)}
    for us, vs in ((odd, squares), (squares, odd)):
        for u in {(a * s) % m for s in us}:
            for v in {(b * s) % m for s in vs}:
                if (u + v) % m in squares:
                    return 1
    return -1


def slot_hull_component(q, m, zero_pairs, r):
    """T_r of the quadratic hull of the degree-2 relations zero_pairs on m
    generators: each relation row placed in slots i < j, with basis
    vectors in the other slots, one tensor position at a time."""
    rows = set()
    for i, j in itertools.combinations(range(r), 2):
        rest = [s for s in range(r) if s not in (i, j)]
        for fill in itertools.product(range(m), repeat=r - 2):
            for zrow in zero_pairs.basis:
                out = [0] * m**r
                for a, b in itertools.product(range(m), repeat=2):
                    x = zrow[a * m + b]
                    if not x:
                        continue
                    slots = [0] * r
                    slots[i], slots[j] = a, b
                    for s, g in zip(rest, fill):
                        slots[s] = g
                    idx = 0
                    for s in slots:
                        idx = idx * m + s
                    out[idx] = (out[idx] + x) % q
                if any(out):
                    rows.add(tuple(out))
    return canonicalize(q, m**r, rows)


def invariant_factor_divisors(algebra, r):
    """Cyclic factor orders of A_r, descending, read off the invariant
    factors of T_r in every degree, full or not: a factor Z/f of T_r
    leaves Z/(q/f) in A_r, and the coordinates T_r does not reach stay
    free."""
    q, m = algebra.q, algebra.gen_count
    if r == 1:
        return (q,) * m
    inv = invariant_factors(algebra.relations(r))
    free = [q] * (m**r - len(inv))
    return tuple(sorted([q // f for f in inv if f < q] + free, reverse=True))


def _primitive_root(ell):
    """The least generator of F_ell^*: no power g^((ell-1)/f) is 1 for a
    prime f dividing ell - 1, the primes found by trial division."""
    order = m = ell - 1
    primes, f = set(), 2
    while f * f <= m:
        while m % f == 0:
            primes.add(f)
            m //= f
        f += 1
    if m > 1:
        primes.add(m)
    return next(g for g in range(1, ell) if all(pow(g, order // f, ell) != 1 for f in primes))


def _dlog_table(ell, g):
    """Discrete logarithms to base g, indexed by the element (0 unused)."""
    table = [0] * ell
    x = 1
    for e in range(ell - 1):
        table[x] = e
        x = (x * g) % ell
    return table


def _unit_classes(ell, q):
    """The class dlog(c) mod q of each unit c = 1..ell-1, at index c - 1."""
    return [e % q for e in _dlog_table(ell, _primitive_root(ell))[1:]]


def _pair_rows(q, m, pairs):
    """Graded commutativity and the distinct nonzero rows a (x) b of the
    class pairs."""
    rows = {tuple(_outer(q, a, b)) for a, b in pairs}
    return _grcomm_rows(q, m) + [row for row in rows if any(row)]


def pair_sweep_finite(ell, q):
    """Span of a (x) (1-a) over every unit a of F_ell, from the distinct
    (class of a, class of 1-a) pairs of a full dlog table."""
    units = _unit_classes(ell, q)
    # units[1:] runs over c = 2..ell-1, reversed over 1 - c in the same order
    pairs = {((a,), (b,)) for a, b in set(zip(units[1:], reversed(units[1:])))}
    return canonicalize(q, 1, _pair_rows(q, 1, pairs))


def _valuation_pairs(q, v, one_minus, minus):
    """Class pairs of a (x) (1-a) for the monomials a = c t^v, all c:
    none for v > 0, the unit-class pairs (c, 1 - c) at v = 0 and (c, -c)
    at v < 0."""
    if v > 0:
        return set()
    units = one_minus if v == 0 else minus
    return {((a, v % q), (b, v % q)) for a, b in units}


def valuation_rows_every_class(q, v, unit_span, s):
    """Nonzero rows of a (x) (1-a) for the monomials a = c t^v, one row
    per class of c: (class(c), v) (x) (class(c) + s, v) for v < 0."""
    if v > 0:
        return []
    if v == 0:
        rows = [(unit_span % q, 0, 0, 0)]
    else:
        rows = [tuple(_outer(q, (a, v), (a + s, v))) for a in range(q)]
    return [row for row in rows if any(row)]


def pair_sweep_tame(ell, q, window=2):
    """Span of a (x) (1-a) over Laurent monomials a = c t^v, |v| <= window,
    from the distinct class pairs of every unit, checked against the pairs
    |v| <= 2 * window adds."""
    units = _unit_classes(ell, q)
    one_minus = set(zip(units[1:], reversed(units[1:])))
    minus = set(zip(units, reversed(units)))
    pairs = set()
    for v in range(-window, window + 1):
        pairs |= _valuation_pairs(q, v, one_minus, minus)
    t2 = canonicalize(q, 4, _pair_rows(q, 2, pairs))
    wider = set()
    for v in itertools.chain(range(-2 * window, -window), range(window + 1, 2 * window + 1)):
        wider |= _valuation_pairs(q, v, one_minus, minus)
    if not all(t2.contains(_outer(q, a, b)) for a, b in wider - pairs):
        raise OracleInstability("tame Steinberg span changed when the valuation window doubled")
    return t2


def tame_symbol_dlog(ell, q, a, b):
    """The tame symbol of F_ell((t)) on classes a = (x, v) and b = (y, w),
    each a unit's discrete log and a valuation, as a discrete log mod q:
    (-1)^(v w) a0^w / b0^v mod t, raised to (ell - 1)/q, where a0, b0 are
    the leading units and dlog(-1) = (ell - 1)/2 (Milnor, Introduction to
    Algebraic K-Theory, section 11)."""
    (x, v), (y, w) = a, b
    return (v * w * ((ell - 1) // 2) + x * w - y * v) % q


def tame_symbol_kernel(ell, q):
    """The functional f that the tame symbol induces on the tensor
    coordinates (uu, ut, tu, tt) of the class space, which is
    (0, 1, -1, (ell - 1)/2 mod q), and three rows that generate its
    kernel: e_uu, e_ut + e_tu and e_tt - ((ell - 1)/2) e_ut."""
    basis = ((1, 0), (0, 1))
    f = [tame_symbol_dlog(ell, q, a, b) for a in basis for b in basis]
    h = (ell - 1) // 2 % q
    return f, [[1, 0, 0, 0], [0, 1, 1, 0], [0, (-h) % q, 0, 1]]


def _certified_images(group, presentation, certificate_class):
    """(source, image in the free group's S^[3], nontriviality certificate)
    for each relator, in relator order: every relator certified."""
    return [(source, group.evaluate_word(word),
             word_nontriviality_certificate(word, presentation.n, certificate_class))
            for word, source in zip(presentation.relators, presentation.relator_sources)]


def quadratic_sorted_relators(group, relators):
    """(relator, kind) as cohom._sorted_relators gives them, each nonzero
    central image tested against one Howell form of the other central
    images: r spans for r relators."""
    vectors = [group.central_vector(y) for _, _, y, _ in relators]
    kinds = []
    for i, (relator, vec) in enumerate(zip(relators, vectors)):
        if vec is None:
            kinds.append((relator, "non-central"))
        elif not any(vec):
            kinds.append((relator, "trivial" if relator[3] is None else "zero"))
        else:
            others = [v for j, v in enumerate(vectors) if j != i and v is not None]
            span = canonicalize(group.q, group.layer_rank, others)
            kinds.append((relator, "dependent" if span.contains(vec) else "independent"))
    return kinds


def eager_relator_independence(presentation, certificate_class=5):
    """The relator-independence report built from eagerly certified images,
    with its own loop over zero and dependent images."""
    n, q = presentation.n, presentation.q
    group = free_truncation(n, q)
    outcomes = []
    infos = _certified_images(group, presentation, certificate_class)
    vectors = [group.central_vector(y) for _, y, _ in infos]
    failed = False
    p = prime_power(q)[0]
    for i, (vec, (source, y, cert)) in enumerate(zip(vectors, infos)):
        if vec is None and all(x % p == 0 for x in y.e):
            outcomes.append(TestOutcome(
                f"relator[{i}] non-central", "triggered",
                f"{source!r} has p-divisible nonzero degree-1 image: not central in S^[3]"))
            failed = True
            continue
        if vec is None:
            outcomes.append(TestOutcome(
                f"relator[{i}] frattini", "triggered",
                f"{source!r} has nonzero degree-1 image: presentation not minimal"))
            failed = True
            continue
        others = [v for j, v in enumerate(vectors) if j != i and v is not None]
        span_others = canonicalize(q, group.layer_rank, others)
        if all(x == 0 for x in vec):
            if cert is not None:
                outcomes.append(TestOutcome(
                    f"relator[{i}] zero-image", "triggered",
                    f"{source!r} is nontrivial (weight {cert[0]}) but lands in the "
                    "third term of the series"))
                failed = True
            else:
                outcomes.append(TestOutcome(
                    f"relator[{i}] zero-image", "skipped",
                    f"{source!r} has zero image and no nontriviality certificate "
                    f"at class {certificate_class}"))
        elif span_others.contains(vec):
            outcomes.append(TestOutcome(
                f"relator[{i}] dependency", "triggered",
                f"{source!r} image lies in the span of the other relator images"))
            failed = True
        else:
            outcomes.append(TestOutcome(f"relator[{i}] independent", "passed"))
    assumptions = (
        "a triggered zero-image or dependency witnesses non-injectivity of the "
        "relation module into the central layer only if the relators are "
        "independent in it (user-asserted; plausible for small relator lists)",
    )
    return Report("condition-failed" if failed else "consistent", tuple(outcomes), assumptions)


def eager_obstruction_screen(presentation, cd_bound=None, torsion_free=False,
                             certificate_class=5):
    """The obstruction screen at prime q built from eagerly certified
    images, with its own loop over the live central images."""
    q, n = presentation.q, presentation.n
    group = free_truncation(n, q)
    outcomes = []
    assumptions = [f"nontriviality certificates computed at class bound {certificate_class}"]
    infos = _certified_images(group, presentation, certificate_class)
    live = [(s, y, c) for (s, y, c) in infos if c is not None or y != group.identity()]

    all_in_level3 = bool(live) and all(y == group.identity() for _, y, _ in live)
    witness_cert = next((s for s, y, c in live if y == group.identity() and c), None)
    if all_in_level3 and witness_cert is not None:
        outcomes.append(TestOutcome(
            "relation-subgroup-inside-level-3", "triggered",
            f"all relators vanish at level 3; {witness_cert!r} is certified nontrivial"))
        return Report("obstructed", tuple(outcomes), tuple(assumptions))
    outcomes.append(TestOutcome("relation-subgroup-inside-level-3", "passed"))

    central = [(s, group.central_vector(y), c) for s, y, c in live
               if group.central_vector(y) is not None]
    triggered = None
    for i, (source, vec, cert) in enumerate(central):
        named = (f"certified relator {source!r}" if cert is not None else f"relator {source!r} "
                 f"(nonzero central image, no certificate at class bound {certificate_class})")
        if all(x == 0 for x in vec):
            triggered = f"{named} has zero image in the central layer"
            break
        others = [v for j, (_, v, _) in enumerate(central) if j != i]
        if others and canonicalize(q, group.layer_rank, others).contains(vec):
            triggered = f"{named} has image dependent on the other relators"
            break
    if triggered:
        outcomes.append(TestOutcome("dependent-relator-image", "triggered", triggered))
        assumptions.append(
            "dependency witnesses failure of H^2 decomposability provided the "
            "relators are independent in the relation module (user-asserted)")
        return Report("obstructed", tuple(outcomes), tuple(assumptions))
    outcomes.append(TestOutcome("dependent-relator-image", "passed"))

    if cd_bound is not None:
        degree1 = ZqMatrix.from_rows(q, [y.e for _, y, _ in infos], n)
        dim_h1 = n - row_space(degree1).nrows
        assumptions.append(f"user-supplied cd(G) = {cd_bound}")
        if dim_h1 < cd_bound:
            if q == 2 and not torsion_free:
                outcomes.append(TestOutcome(
                    "dimension-versus-cd", "skipped",
                    f"dim H^1 = {dim_h1} < cd = {cd_bound}, but p = 2 requires the "
                    "torsion-free flag"))
            else:
                if q == 2:
                    assumptions.append("user asserts the group is torsion-free")
                outcomes.append(TestOutcome("dimension-versus-cd", "triggered",
                                            f"dim H^1 = {dim_h1} < cd(G) = {cd_bound}"))
                return Report("obstructed", tuple(outcomes), tuple(assumptions))
        else:
            outcomes.append(TestOutcome("dimension-versus-cd", "passed"))
    return Report("no_obstruction_found", tuple(outcomes), tuple(assumptions))


def degree_by_degree_symbol_compare(preset, presentation, correspondence, r_max=4):
    """The galois-check report with both hulls built in full and their
    relation subspaces compared degree by degree, up to the first that
    differs."""
    q = presentation.q
    field_t2, names = preset_relations(preset, q)
    if not 2 <= r_max <= 4:
        raise ValueError(f"degree bound {r_max} outside 2..4")
    group, report = cohomology_data_from_presentation(presentation)
    outcomes = []
    assumptions = [f"preset: {preset.describe()}", f"tested degrees: 1..{r_max}"]
    if not report.minimal:
        assumptions.append(f"presentation auto-minimized; kept generators {report.kept_generators}")
    if set(correspondence) != set(names):
        raise PresetError(f"correspondence keys {sorted(correspondence)} do not match the "
                          f"K-ring basis {names}")
    if len(set(correspondence.values())) != len(correspondence):
        raise PresetError("correspondence is not injective on generators")
    name_to_index = {name: i for i, name in enumerate(report.kept_generators)}
    for target in correspondence.values():
        if target not in name_to_index:
            raise PresetError(f"correspondence targets unknown generator {target!r}")

    m = len(names)
    if m != group.n:
        outcomes.append(TestOutcome("degree-1", "triggered", f"K_1 rank {m} != H^1 rank {group.n}"))
        return Report("not-isomorphic", tuple(outcomes), tuple(assumptions))
    outcomes.append(TestOutcome("degree-1", "passed"))

    perm = [name_to_index[correspondence[name]] for name in names]
    mapped_rows = []
    for row in field_t2.basis:
        out = [0] * (m * m)
        for a, b in itertools.product(range(m), repeat=2):
            out[perm[a] * m + perm[b]] = row[a * m + b]
        mapped_rows.append(out)
    field_hull = quadratic_hull(q, m, canonicalize(q, m * m, mapped_rows), r_max)
    pres_hull = quadratic_hull(q, m, presentation_zero_pairs(group), r_max)
    ok = True
    for r in range(2, r_max + 1):
        if field_hull.relations(r) == pres_hull.relations(r):
            outcomes.append(TestOutcome(f"degree-{r}", "passed"))
            continue
        ok = False
        outcomes.append(TestOutcome(
            f"degree-{r}", "triggered",
            f"relation subspaces differ in degree {r}: K-ring side has cardinality "
            f"{q ** m**r // field_hull.relations(r).cardinality()}, cohomology side "
            f"{q ** m**r // pres_hull.relations(r).cardinality()}"))
        break
    return Report(
        "isomorphic" if ok else "not-isomorphic",
        tuple(outcomes),
        tuple(assumptions),
        data={"degree_ranks_field": [field_hull.degree_rank(r) for r in range(1, r_max + 1)],
              "degree_ranks_presentation": [pres_hull.degree_rank(r)
                                            for r in range(1, r_max + 1)]},
    )
