"""Self-check corpus: one table of the verification criteria.

Each criterion is a plain function of the seed returning (passed, detail).
CRITERIA names them in selftest order, run_criterion times one call (an
exception is a failure), and run_all runs the table; only the selftest
subcommand loads this module, and the test suite runs the same table.
Criterion 2 checks TruncGroup's law against F/F^(3), from an HLT coset
enumeration that imports nothing from trunc or zqlin.
"""

from __future__ import annotations

import itertools
import random
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
# Criterion 2: S^[3] from its definition, by coset enumeration


def coset_table(ngens: int, relators) -> list[list[int]]:
    """The regular permutation representation of <x_1..x_ngens | relators>:
    the coset table of the trivial subgroup, by HLT coset enumeration with
    coincidences.  Letters 2k and 2k + 1 are x_(k+1) and its inverse, row c
    holds c x for each letter x, and row 0 is the identity."""
    table, parent, queue = [[None] * 2 * ngens], [0], []

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    def define(c, x):
        parent.append(len(table))
        table.append([None] * 2 * ngens)
        table[c][x], table[-1][x ^ 1] = len(table) - 1, c

    def merge(k, l):
        k, l = sorted((find(k), find(l)))
        if k != l:
            parent[l] = k
            queue.append(l)

    def coincidence(a, b):
        merge(a, b)
        for dead in queue:  # merge appends while the loop runs
            for x, d in enumerate(table[dead]):
                if d is not None:
                    table[d][x ^ 1] = None
                    m, v = find(dead), find(d)
                    if table[m][x] is not None:
                        merge(v, table[m][x])
                    elif table[v][x ^ 1] is not None:
                        merge(m, table[v][x ^ 1])
                    else:
                        table[m][x], table[v][x ^ 1] = v, m
        queue.clear()

    def scan_and_fill(c, w):
        f, b, i, j = c, c, 0, len(w) - 1
        while True:
            while i <= j and table[f][w[i]] is not None:
                f, i = table[f][w[i]], i + 1
            while j >= i and table[b][w[j] ^ 1] is not None:
                b, j = table[b][w[j] ^ 1], j - 1
            if j < i:
                return f == b or coincidence(f, b)
            if i == j:  # a deduction
                table[f][w[i]], table[b][w[i] ^ 1] = b, f
                return
            define(f, w[i])

    c = 0
    while c < len(table):
        for w in relators:
            if parent[c] == c:
                scan_and_fill(c, w)
        for x in range(2 * ngens):
            if parent[c] == c and table[c][x] is None:
                define(c, x)
        c += 1
    live = [c for c in range(len(table)) if parent[c] == c]
    index = dict(zip(live, itertools.count()))
    return [[index[find(d)] for d in table[c]] for c in live]


def _letters(k: int, m: int = 1) -> list[int]:
    return [2 * k + (m < 0)] * abs(m)


def _commutator(u: list[int], v: list[int]) -> list[int]:
    return [x ^ 1 for x in reversed(v + u)] + u + v


def definition_relators(n: int, q: int) -> list[list[int]]:
    """Letters of [[x_i, x_j], x_k], [x_i^q, x_j] (i != j), [x_i, x_j]^q and
    x_i^(q^2): each lies in F^(3), so F modulo them maps onto S^[3] = F/F^(3),
    and is S^[3] when its order is q^(2n + C(n,2))."""
    pairs = list(itertools.combinations(range(n), 2))
    return ([_commutator(_commutator(_letters(i), _letters(j)), _letters(k))
             for i, j in pairs for k in range(n)]
            + [_commutator(_letters(i, q), _letters(j)) for i, j in itertools.permutations(range(n), 2)]
            + [_commutator(_letters(i), _letters(j)) * q for i, j in pairs]
            + [_letters(i, q * q) for i in range(n)])


def normal_form_letters(a: TruncElement) -> list[int]:
    """sigma_1^e_1 ... sigma_n^e_n prod_(k<l) [sigma_k, sigma_l]^c_kl as letters."""
    pairs = itertools.combinations(range(len(a.e)), 2)
    return ([x for k, m in enumerate(a.e) for x in _letters(k, m)]
            + [x for (k, l), m in zip(pairs, a.c) for x in _commutator(_letters(k), _letters(l)) * m])


def word_letters(word: pres.Word) -> list[int]:
    """A word tree as letters, its powers written out."""
    kind = type(word)
    if kind is pres.Generator:
        return [2 * word[0]]
    if kind is pres.Product:
        return [x for f in word[0] for x in word_letters(f)]
    if kind is pres.Commutator:
        return _commutator(*map(word_letters, word))
    w = word_letters(word[0])
    return (w if word[1] > 0 else [x ^ 1 for x in reversed(w)]) * abs(word[1])


def act(table: list[list[int]], c: int, letters) -> int:
    """The coset c x_1 ... x_r of the letters x_1 ... x_r."""
    for x in letters:
        c = table[c][x]
    return c


# Criterion 2's words (with x3 at n = 3 only): commutators, nested ones, x^m with m mod q
# and mod q^2 apart, and products to m = q + 1 and q^2 - 1, with C(m, 2) != C(m + 1, 2) mod q
DEFINITION_WORDS = ("[x1,x2]", "[x2,x1]^{q1}", "[[x1,x2] x1^{q1}, x2 x1^-3]", "x1^{q1} x2^-{q1}",
                    "(x1 x2)^{q1}", "(x2^-1 x1^2)^{qq1}", "(x1 [x2,x1] x2^{q})^-{q1}",
                    "[x1 x3^2, x2 x3]", "x3^{qq1} (x3 x1^-1 x2)^{q1}")


# ---------------------------------------------------------------------------
# Shared random generators


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
    rels = [_random_central_relator(rng, n, q, names) for _ in range(rng.randint(0, 3))]
    return pres.make_presentation(q, names, list(filter(None, rels)))


# ---------------------------------------------------------------------------
# The criteria


def check_duality_perfectness(seed: int) -> tuple[bool, str]:
    """|W| * |ann W| = q^m and ann(ann W) = W, random plus exhaustive."""
    rng = random.Random(seed or 101)
    cases = 0
    for _ in range(1000):
        q = rng.choice([2, 3, 4, 5, 8, 9])
        m = rng.randint(1, 4)
        rows = [[rng.randrange(q) for _ in range(m)] for _ in range(rng.randint(0, 3))]
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
    """TruncGroup's law against the coset table of F modulo definition_relators."""
    rng = random.Random(seed or 202)
    for n, q in ((2, 2), (2, 3), (2, 4), (3, 2)):
        g, table = free_truncation(n, q), coset_table(n, definition_relators(n, q))
        words = {a: normal_form_letters(a) for a in g.elements()}
        coset = {a: act(table, 0, w) for a, w in words.items()}
        if not len(words) == len(set(coset.values())) == len(table):
            return False, (f"{len(words)} normal forms name {len(set(coset.values()))} of the "
                           f"{len(table)} cosets at n={n} q={q}")
        sigmas = [TruncElement(tuple(int(k == i) for k in range(n)), (0,) * g.npairs) for i in range(n)]
        letters = [(f"x{i + 1}", x, 2 * i) for i, x in enumerate(sigmas)]
        letters += [(f"x{i + 1}^-1", g.inverse(x), 2 * i + 1) for i, x in enumerate(sigmas)]
        sample = rng.sample(list(words), 3)
        for a, c in coset.items():
            checks = [(f"multiply(a, {name})", g.multiply(a, x), table[c][y]) for name, x, y in letters]
            checks += [(f"commutator(a, x{i + 1})", g.commutator(a, x),
                        act(table, 0, _commutator(words[a], _letters(i)))) for i, x in enumerate(sigmas)]
            checks += [("multiply(a, b)", g.multiply(a, b), act(table, c, words[b])) for b in sample]
            checks += [(f"power(a, {m})", g.power(a, m), act(table, 0, words[a] * m))
                       for m in range(q * q + 1)]
            check = next((check for check, x, y in checks if coset[x] != y), None)
            if check:
                return False, f"{check} failed at n={n} q={q} on a = {a}"
        for text in DEFINITION_WORDS:
            text = text.format(q=q, q1=q + 1, qq1=q * q - 1)
            if n > 2 or "x3" not in text:
                word = pres.parse_word(text, {f"x{k + 1}": k for k in range(n)})
                if coset[g.evaluate_word(word)] != act(table, 0, word_letters(word)):
                    return False, f"evaluate_word({text!r}) failed at n={n} q={q}"
    return True, (
        "the law is F/F^(3) at (n, q) = (2,2), (2,3), (2,4), (3,2): the orders, and at every normal "
        "form a, multiply by each letter, commutator with each generator, a^m for m <= q^2 and "
        f"3 sampled products, agree with the coset table, as do {len(DEFINITION_WORDS)} words")


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
