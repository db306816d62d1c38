"""Self-check corpus: one table of the verification criteria.

Each criterion is a plain function of the seed returning (passed, detail).
CRITERIA names them in selftest order, run_criterion times one call (an
exception is a failure), and run_all runs the table; only the selftest
subcommand loads this module, and the test suite runs the same table.
Criterion 2 runs its laws once per sweep through TruncGroup, on elements
whose coordinates are columns over every tuple swept: numpy arrays if numpy
imports (only then, never at module load), else the stdlib _Column.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import sys
import time
from collections.abc import Callable

from . import presentations as pres
from .cohom import (
    MorphismError,
    cohomology_data_from_presentation,
    cup_rows,
    morphism_check,
    obstruction_screen,
    tables_round_trip,
)
from .freelie import hall_basis, witt_number, word_nontriviality_certificate
from .milnor import (
    FieldPreset,
    galois_symbol_compare,
    hilbert_relation_span,
    hilbert_symbol_two_adic,
    milnor_mod_q,
    preset_presentation,
)
from .records import record
from .trunc import TruncElement, free_truncation, pair_list, relator_subspace
from .zqlin import annihilator, canonicalize


class CheckResult(record("name passed detail seconds")):
    __slots__ = ()
    name: str
    passed: bool
    detail: str
    seconds: float


# ---------------------------------------------------------------------------
# Criterion 2: sweeps of the group law on column coordinates


def _power_by_products(g, a, m: int):
    """a^m for m >= 0 by square-and-multiply through g.multiply."""
    out = g.identity()
    while m:
        if m & 1:
            out = g.multiply(out, a)
        a = g.multiply(a, a)
        m >>= 1
    return out


def _unit_laws(g, a):
    """a a^-1 = 1, and the closed-form a^q is the product of q copies of a."""
    yield g.multiply(a, g.inverse(a)), g.identity()
    yield g.power(a, g.q), _power_by_products(g, a, g.q)


def _pair_laws(g, a, b):
    """(ab)^q = a^q b^q [b,a]^C(q,2), and the closed-form [a, b] is the
    product a^-1 b^-1 a b.  The identity holds for every class-2 law with a
    bilinear deposit, so only the closed-form comparisons see a wrong one."""
    q = g.q
    ab = g.multiply(a, b)
    yield g.power(ab, q), g.multiply(
        g.multiply(g.power(a, q), g.power(b, q)),
        g.power(g.commutator(b, a), math.comb(q, 2)),
    )
    yield g.commutator(a, b), g.multiply(g.multiply(g.inverse(a), g.inverse(b)), ab)


def _associativity(g, a, b, c):
    yield g.multiply(g.multiply(a, b), c), g.multiply(a, g.multiply(b, c))


def _random_laws(g, a, b, c):
    return itertools.chain(_associativity(g, a, b, c), _pair_laws(g, a, b))


# (laws, number of elements they take, moduli swept), in the order checked
COLLECTION_SWEEPS = (
    (_unit_laws, 1, (2, 3, 4)),
    (_pair_laws, 2, (2, 3, 4)),
    (_associativity, 3, (2,)),
)


def _differ(equations):
    """Where some (x, y) of equations has x != y: a bool for elements with
    integer coordinates, a bool column for elements with column coordinates."""
    bad = False
    for x, y in equations:
        for u, v in zip(x.e + x.c, y.e + y.c):
            bad = bad | (u != v)
    return bad


class _Column(list):
    """Ints with numpy's elementwise + - * % != |, unary - and take:
    criterion 2's column when numpy is missing."""

    def take(self, i):
        return _Column(map(self.__getitem__, i))

    def _apply(self, op, y):
        return _Column(map(op, self, y if type(y) is _Column else itertools.repeat(y)))

    __add__ = __radd__ = lambda x, y: x._apply(operator.add, y)
    __sub__ = lambda x, y: x._apply(operator.sub, y)
    __neg__ = lambda x: x * -1
    __rsub__ = lambda x, y: -x + y
    __mul__ = __rmul__ = lambda x, y: x._apply(operator.mul, y)
    __mod__ = lambda x, y: x._apply(operator.mod, y)
    __ne__ = lambda x, y: x._apply(operator.ne, y)
    __or__ = __ror__ = lambda x, y: x._apply(operator.or_, y)


def sweep(g, laws, elements, index):
    """The first t at which one of laws fails in g on (elements[i[t]] for i
    in index), or None, from one run of the laws through TruncGroup on
    column coordinates: numpy int32 arrays if numpy imports (inputs lie
    below q^2 and each step reduces after a product of at most three, so
    values stay below 6 * 10^4 at q <= 9), else _Column."""
    try:
        import numpy
        column = functools.partial(numpy.fromiter, dtype=numpy.int32)
    except ImportError:
        column = _Column
    table, xs = list(zip(*(x.e + x.c for x in elements))), []
    for i in map(column, index):
        coords = [column(values).take(i) for values in table]
        xs.append(TruncElement(tuple(coords[:g.n]), tuple(coords[g.n:])))
    bad = _differ(laws(g, *xs))
    if isinstance(bad, bool):  # no coordinate of either side depends on the tuple
        return 0 if bad else None
    t = bytes(bad).find(1)  # the bools as bytes 0 and 1
    return None if t < 0 else t


def law_counterexample(laws, arity: int, q: int):
    """The first tuple of arity elements of the free S^[3] on two generators,
    in itertools.product order, at which one of laws fails, or None."""
    g = free_truncation(2, q)
    elements, size = list(g.elements()), g.order()
    index = [[k for k in range(size) for _ in range(size ** (arity - 1 - p))] * size ** p
             for p in range(arity)]
    t = sweep(g, laws, elements, index)
    return None if t is None else tuple(elements[i[t]] for i in index)


# ---------------------------------------------------------------------------
# Shared random generators


def _random_element(g, rng):
    qq = g.q * g.q
    return TruncElement(tuple(rng.randrange(qq) for _ in range(g.n)),
                        tuple(rng.randrange(g.q) for _ in range(g.npairs)))


def _random_central_relator(rng, n, q, names) -> str:
    parts = []
    for k in range(n):
        t = rng.randrange(q)
        if t:
            parts.append(f"{names[k]}^{q * t}")
    for k, l in pair_list(n):
        c = rng.randrange(q)
        if c:
            parts.append(f"[{names[k]},{names[l]}]^{c}")
    return " ".join(parts)


def _random_minimal_presentation(rng, q) -> pres.Presentation:
    n = rng.randint(1, 4)
    names = [f"x{k + 1}" for k in range(n)]
    rels = []
    for _ in range(rng.randint(0, 3)):
        text = _random_central_relator(rng, n, q, names)
        if text:
            rels.append(text)
    return pres.make_presentation(q, names, rels)


# ---------------------------------------------------------------------------
# The criteria


def check_duality_perfectness(seed: int) -> tuple[bool, str]:
    """|W| * |ann W| = q^m and ann(ann W) = W, random plus exhaustive."""
    rng = random.Random(seed or 101)
    cases = 0
    for _ in range(1000):
        q = rng.choice([2, 3, 4, 5, 8, 9])
        m = rng.randint(1, 4)
        rows = [
            [rng.randrange(q) for _ in range(m)] for _ in range(rng.randint(0, 3))
        ]
        w = canonicalize(q, m, rows)
        a = annihilator(w)
        if w.cardinality() * a.cardinality() != q**m:
            return False, f"cardinality identity failed: q={q} m={m} rows={rows}"
        if annihilator(a) != w:
            return False, f"double annihilator failed: q={q} m={m} rows={rows}"
        cases += 1
    for m in (1, 2, 3):
        vectors = list(itertools.product(range(2), repeat=m))
        for rows in itertools.product(vectors, repeat=3):
            w = canonicalize(2, m, rows)
            a = annihilator(w)
            if w.cardinality() * a.cardinality() != 2**m or annihilator(a) != w:
                return False, f"exhaustive q=2 case failed: m={m} rows={rows}"
            cases += 1
    return True, f"{cases} subspaces checked (1000 random + exhaustive q=2, m <= 3)"


def check_collection_laws(seed: int) -> tuple[bool, str]:
    """Associativity and the q-th power collection identity."""
    for laws, arity, moduli in COLLECTION_SWEEPS:
        for q in moduli:
            xs = law_counterexample(laws, arity, q)
            if xs is not None:
                return False, f"{laws.__name__.strip('_')} failed at q={q} on {xs}"
    rng, free = random.Random(seed or 202), functools.cache(free_truncation)
    draws = {}  # each free S^[3] drawn -> its (draw, a, b, c), in draw order
    for draw in range(10_000):
        g = free(rng.randint(1, 4), rng.choice([2, 3, 4, 5, 8, 9]))
        draws.setdefault(g, []).append((draw, *(_random_element(g, rng) for _ in range(3))))
    failures = []
    for g, triples in draws.items():
        elements = [x for _, *xs in triples for x in xs]
        t = sweep(g, _random_laws, elements, [range(p, len(elements), 3) for p in range(3)])
        if t is not None:
            failures.append((triples[t], g))
    if failures:
        (draw, a, b, c), g = min(failures)
        return False, f"collection laws failed at draw {draw}: n={g.n} q={g.q} {a} {b} {c}"
    detail = (
        "inverse, closed-form power and commutator, and (ab)^q = a^q b^q "
        "[b,a]^C(q,2) exhaustive for n=2, q in {2,3,4}; associativity "
        "exhaustive for n=2, q=2 and on 10^4 random triples, n <= 4, q <= 9 "
        f"({'numpy' if sys.modules.get('numpy') else 'stdlib'} columns)"
    )
    return True, detail


def check_reconstruction_round_trip(seed: int) -> tuple[bool, str]:
    """Extraction, the tables' JSON round trip, then reconstruction return
    the exact relator subspace: tables_round_trip, as in `reconstruct FILE`."""
    rng = random.Random(seed or 303)
    for i in range(500):
        q = rng.choice([2, 3, 4, 5])
        p = _random_minimal_presentation(rng, q)
        _, equal, report = tables_round_trip(p)
        if not report.minimal:
            return False, f"corpus presentation {i} unexpectedly non-minimal"
        if not equal:
            return False, f"round trip failed on q={q}, rels={p.relator_sources}"
    return True, "500 random minimal presentations reconstructed exactly"


def check_deep_relator_example(seed: int) -> tuple[bool, str]:
    """x1^p and x1^p[x1,[x1,x2]] give identical quotients; the extra
    factor is certified nontrivial at class 3."""
    for p_ in (2, 3, 5):
        pr1 = pres.make_presentation(p_, ["x1", "x2"], [f"x1^{p_}"])
        pr2 = pres.make_presentation(p_, ["x1", "x2"], [f"x1^{p_} [x1,[x1,x2]]"])
        w1, _ = relator_subspace(pr1)
        w2, _ = relator_subspace(pr2)
        if w1 != w2:
            return False, f"central subspaces differ for p={p_}"
        word = pres.parse_word("[x1,[x1,x2]]", {"x1": 0, "x2": 1})
        cert = word_nontriviality_certificate(word, 2, 3)
        if cert is None or cert[0] != 3:
            return False, f"no weight-3 certificate for the commutator factor, p={p_}"
    return True, "equal subspaces and weight-3 certificates for p in {2, 3, 5}"


def check_obstruction_verdicts(seed: int) -> tuple[bool, str]:
    """Exact screening verdicts on the standard examples."""
    for p_ in (2, 3, 5):
        pr = pres.make_presentation(p_, ["x1", "x2"], ["[x1,[x1,x2]]"])
        if obstruction_screen(pr).verdict != "obstructed":
            return False, f"inner commutator not flagged at p={p_}"
        pr = pres.make_presentation(p_, ["x1", "x2", "x3"], ["[[x1,x2],x3]"])
        if obstruction_screen(pr).verdict != "obstructed":
            return False, f"iterated commutator not flagged at p={p_}"
    free_pr = pres.make_presentation(3, ["x1", "x2"], [])
    if obstruction_screen(free_pr).verdict != "no_obstruction_found":
        return False, "free presentation wrongly flagged"
    pr = pres.make_presentation(2, ["x1", "x2"], ["x1^2"])
    if obstruction_screen(pr).verdict != "no_obstruction_found":
        return False, "x1^2 at p=2 wrongly flagged"
    return True, "verdicts exact on the obstruction corpus"


def check_tame_symbol_isomorphisms(seed: int) -> tuple[bool, str]:
    """Laurent-series K-rings have ranks (2,1,0,0) and match the
    quadratic hull of the matched one-relator presentation."""
    for ell, q in ((5, 2), (13, 2), (7, 3)):
        preset = FieldPreset("tame_local", ell)
        algebra = milnor_mod_q(preset, q)
        ranks = [algebra.degree_rank(r) for r in range(1, 5)]
        if ranks != [2, 1, 0, 0]:
            return False, f"ranks {ranks} for ell={ell}, q={q}"
        p, corr = preset_presentation(preset, q)
        report = galois_symbol_compare(preset, p, corr)
        if report.verdict != "isomorphic":
            return False, f"comparison failed for ell={ell}, q={q}: {report.to_json_dict()}"
    # when q exactly divides ell - 1 the relator exponent is q itself,
    # so the literal one-relator shape must also match
    preset = FieldPreset("tame_local", 7)
    literal = pres.make_presentation(3, ["x1", "x2"], ["x1^3 [x1,x2]"])
    report = galois_symbol_compare(preset, literal, {"u": "x1", "t": "x2"})
    if report.verdict != "isomorphic":
        return False, f"literal x1^q[x1,x2] comparison failed: {report.to_json_dict()}"
    return True, (
        "ranks (2,1,0,0) and graded isomorphism for (5,2), (13,2), (7,3); "
        "relator exponent is the p-part of ell-1 (vanishing at this level "
        "for ell in {5,13}, q=2)"
    )


def check_finite_field_degeneration(seed: int) -> tuple[bool, str]:
    """K_2/q of the finite-field presets vanishes: the Steinberg
    relations T_2 fill degree 2 for four (ell, q) pairs."""
    for ell, q in ((5, 2), (7, 2), (7, 3), (13, 3)):
        algebra = milnor_mod_q(FieldPreset("finite_field", ell), q)
        if algebra.degree_cardinality(2) != 1:
            return False, f"K_2 of F_{ell} mod {q} nonzero"
    return True, "T_2 fills degree 2 for (5,2), (7,2), (7,3), (13,3)"


def check_two_adic(seed: int) -> tuple[bool, str]:
    """Dyadic Hilbert oracle: (-1,-1) nontrivial, precision-stable
    span, and the diagonal rule in the matched cohomology tables."""
    if hilbert_symbol_two_adic(-1, -1) != -1:
        return False, "(-1,-1) computed as trivial"
    if hilbert_relation_span(8) != hilbert_relation_span(10):
        return False, "relation span moved between precisions 2^8 and 2^10"
    preset = FieldPreset("two_adic")
    p, corr = preset_presentation(preset, 2)
    group, _ = cohomology_data_from_presentation(p)
    gen_of = {name: idx for idx, name in enumerate(p.generators)}
    for name, a in zip(("-1", "2", "5"), (-1, 2, 5)):
        k = gen_of[corr[name]]
        diag_nonzero = any(row[k * group.n + k] for row in cup_rows(group))
        if diag_nonzero != (hilbert_symbol_two_adic(a, a) == -1):
            return False, f"diagonal rule mismatch on class {name}"
    report = galois_symbol_compare(preset, p, corr)
    if report.verdict != "isomorphic":
        return False, f"dyadic comparison failed: {report.to_json_dict()}"
    return True, (
        "(-1,-1) nontrivial; span stable at precisions 2^8 and 2^10; "
        "diagonal rule matches the symbol table"
    )


def check_morphism_equivalence(seed: int) -> tuple[bool, str]:
    """Group-level and cohomology-level isomorphism conditions agree
    on random endomorphism instances."""
    rng = random.Random(seed or 909)
    agreed = 0
    attempts = 0
    while agreed < 200 and attempts < 5000:
        attempts += 1
        q = rng.choice([2, 3, 4, 5])
        p = _random_minimal_presentation(rng, q)
        names = p.generators
        texts = []
        for _ in range(p.n):
            parts = []
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(p.n)
                e = rng.choice([-2, -1, 1, 2, q])
                parts.append(f"{names[k]}^{e}")
            texts.append(" ".join(parts))
        imgs = [pres.parse_word(text, p) for text in texts]
        try:
            report = morphism_check(p, p, imgs)
        except MorphismError:
            continue
        if not report.agreement:
            return False, (
                f"conditions disagree on q={q}, rels={p.relator_sources}, "
                f"images={texts}"
            )
        agreed += 1
    if agreed < 200:
        return False, f"only {agreed} usable instances generated"
    return True, f"conditions agreed on {agreed} endomorphism instances"


def check_witt_counts(seed: int) -> tuple[bool, str]:
    """Hall basis sizes match the Witt numbers; the commutator block
    of the central layer has the weight-2 rank."""
    for n in range(1, 5):
        basis = hall_basis(n, 5)
        for w in range(1, 6):
            got = sum(1 for h in basis if h.weight == w)
            want = witt_number(n, w)
            if got != want:
                return False, f"weight-{w} count {got} != Witt {want} at n={n}"
        g = free_truncation(n, 2)
        if g.npairs != witt_number(n, 2):
            return False, f"commutator block rank mismatch at n={n}"
    return True, "Witt counts match for n <= 4, c <= 5, and the layer block agrees"


# (name, check) for each criterion, in the order selftest runs them
CRITERIA = (
    ("1 duality perfectness", check_duality_perfectness),
    ("2 collection laws", check_collection_laws),
    ("3 reconstruction round trip", check_reconstruction_round_trip),
    ("4 deep relator example", check_deep_relator_example),
    ("5 obstruction screening", check_obstruction_verdicts),
    ("6 tame local symbol isomorphism", check_tame_symbol_isomorphisms),
    ("7 finite field degeneration", check_finite_field_degeneration),
    ("8 dyadic field check", check_two_adic),
    ("9 morphism equivalence", check_morphism_equivalence),
    ("10 Witt counts", check_witt_counts),
)


def run_criterion(name: str, check: Callable[[int], tuple[bool, str]], seed: int) -> CheckResult:
    """One timed call of check; an exception is a failure, not an abort."""
    start = time.perf_counter()
    try:
        passed, detail = check(seed)
    except Exception as exc:
        passed, detail = False, f"exception: {exc!r}"
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [run_criterion(name, check, seed) for name, check in CRITERIA]
