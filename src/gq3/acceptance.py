"""Self-check corpus: one callable per verification criterion.

Each criterion returns a CheckResult; run_all executes the corpus in
order and is what both the test suite and the selftest subcommand call.
The collection-law exhaustion over n = 2 uses a vectorized engine when
numpy is importable and falls back to a slower scalar sweep otherwise;
the batch law is always cross-validated against the scalar group
arithmetic on a random sample first.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

from . import presentations as pres
from .cohom import (
    cohomology_data_from_presentation,
    morphism_check,
    obstruction_screen,
    reconstruct_g3,
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
from .trunc import TruncElement, free_truncation, pair_list, relator_subspace
from .zqlin import annihilator, canonicalize
from .cohom import MorphismError


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(fn: Callable[[], tuple[bool, str]], name: str) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not an abort
        return CheckResult(name, False, f"exception: {exc!r}", time.perf_counter() - start)
    return CheckResult(name, passed, detail, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Batched n = 2 arithmetic (exponent pairs mod q^2, one commutator mod q)


def _np():
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def batch_binomial_failures(q: int, sample_check: int = 500) -> int:
    """Count failures of (ab)^q = a^q b^q [b,a]^C(q,2) over all pairs, n = 2.

    Uses numpy when present; the batched law is first validated against
    the scalar TruncGroup arithmetic on a random sample.
    """
    np = _np()
    if np is None:
        return _binomial_failures_scalar(q)

    qq = q * q
    g = free_truncation(2, q)
    rng = random.Random(q * 12345)

    def mul(ea, eb, ca, ec, ed, cc):
        # (ea, eb | ca) * (ec, ed | cc); the transposition deposit is -ec*eb
        return (ea + ec) % qq, (eb + ed) % qq, (ca + cc - ec * eb) % q

    def inv(ea, eb, ca):
        return (-ea) % qq, (-eb) % qq, (-ca - ea * eb) % q

    def power(ea, eb, ca, m):
        ra, rb, rc = np.zeros_like(ea), np.zeros_like(ea), np.zeros_like(ea)
        xa, xb, xc = ea, eb, ca
        while m:
            if m & 1:
                ra, rb, rc = mul(ra, rb, rc, xa, xb, xc)
            xa, xb, xc = mul(xa, xb, xc, xa, xb, xc)
            m >>= 1
        return ra, rb, rc

    order = qq * qq * q
    idx = np.arange(order, dtype=np.int64)
    e1 = idx // (qq * q)
    e2 = (idx // q) % qq
    cc = idx % q

    # sample validation of the batch law against the scalar arithmetic
    for _ in range(sample_check):
        i, j = rng.randrange(order), rng.randrange(order)
        a = TruncElement((int(e1[i]), int(e2[i])), (int(cc[i]),))
        b = TruncElement((int(e1[j]), int(e2[j])), (int(cc[j]),))
        got = mul(e1[i], e2[i], cc[i], e1[j], e2[j], cc[j])
        want = g.multiply(a, b)
        assert (int(got[0]), int(got[1])) == want.e and int(got[2]) == want.c[0]
        gi = inv(e1[i], e2[i], cc[i])
        want_inv = g.inverse(a)
        assert (int(gi[0]), int(gi[1])) == want_inv.e and int(gi[2]) == want_inv.c[0]

    # all ordered pairs
    a1 = np.repeat(e1, order)
    a2 = np.repeat(e2, order)
    ac = np.repeat(cc, order)
    b1 = np.tile(e1, order)
    b2 = np.tile(e2, order)
    bc = np.tile(cc, order)

    ab = mul(a1, a2, ac, b1, b2, bc)
    lhs = power(*ab, q)

    aq = power(a1, a2, ac, q)
    bq = power(b1, b2, bc, q)
    ia = inv(a1, a2, ac)
    ib = inv(b1, b2, bc)
    ba = mul(*mul(*ib, *ia), *mul(*(b1, b2, bc), *(a1, a2, ac)))
    comm_pow = power(*ba, math.comb(q, 2))
    rhs = mul(*mul(*aq, *bq), *comm_pow)

    mismatch = (lhs[0] != rhs[0]) | (lhs[1] != rhs[1]) | (lhs[2] != rhs[2])
    return int(mismatch.sum())


def _binomial_failures_scalar(q: int) -> int:
    g = free_truncation(2, q)
    binom = math.comb(q, 2)
    failures = 0
    elements = list(g.elements())
    for a in elements:
        for b in elements:
            lhs = g.power(g.multiply(a, b), q)
            rhs = g.multiply(
                g.multiply(g.power(a, q), g.power(b, q)),
                g.power(g.commutator(b, a), binom),
            )
            if lhs != rhs:
                failures += 1
    return failures


# ---------------------------------------------------------------------------
# Shared random generators


def _random_element(g, rng):
    qq = g.q * g.q
    return g.normalize(
        TruncElement(
            tuple(rng.randrange(qq) for _ in range(g.n)),
            tuple(rng.randrange(g.q) for _ in range(g.npairs)),
        )
    )


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


def check_duality_perfectness(seed: int = 0) -> CheckResult:
    """1. |W| * |ann W| = q^m and ann(ann W) = W, random plus exhaustive."""

    def run():
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

    return _timed(run, "1 duality perfectness")


def check_collection_laws(seed: int = 0) -> CheckResult:
    """2. Associativity and the q-th power collection identity."""

    def run():
        np_there = _np() is not None
        for q in (2, 3, 4):
            failures = batch_binomial_failures(q)
            if failures:
                return False, f"binomial identity failed {failures} times for q={q}"
        g = free_truncation(2, 2)
        elements = list(g.elements())
        for a in elements:
            for b in elements:
                ab = g.multiply(a, b)
                for c in elements:
                    if g.multiply(ab, c) != g.multiply(a, g.multiply(b, c)):
                        return False, f"associativity failed at {a}, {b}, {c}"
        rng = random.Random(seed or 202)
        for _ in range(10_000):
            n = rng.randint(1, 4)
            q = rng.choice([2, 3, 4, 5, 8, 9])
            g = free_truncation(n, q)
            a, b, c = (_random_element(g, rng) for _ in range(3))
            if g.multiply(g.multiply(a, b), c) != g.multiply(a, g.multiply(b, c)):
                return False, f"associativity failed: n={n} q={q} {a} {b} {c}"
            lhs = g.power(g.multiply(a, b), q)
            rhs = g.multiply(
                g.multiply(g.power(a, q), g.power(b, q)),
                g.power(g.commutator(b, a), math.comb(q, 2)),
            )
            if lhs != rhs:
                return False, f"binomial identity failed: n={n} q={q} {a} {b}"
        detail = (
            "binomial identity exhaustive over all pairs for n=2, q in {2,3,4} "
            f"({'vectorized' if np_there else 'scalar fallback'}); associativity "
            "exhaustive for q=2 and on 10^4 random triples, n <= 4, q <= 9"
        )
        return True, detail

    return _timed(run, "2 collection laws")


def check_reconstruction_round_trip(seed: int = 0) -> CheckResult:
    """3. Extraction then reconstruction returns the exact relator subspace."""

    def run():
        rng = random.Random(seed or 303)
        for i in range(500):
            q = rng.choice([2, 3, 4, 5])
            p = _random_minimal_presentation(rng, q)
            w, report = relator_subspace(p)
            if not report.minimal:
                return False, f"corpus presentation {i} unexpectedly non-minimal"
            cd, _ = cohomology_data_from_presentation(p)
            got = reconstruct_g3(cd).w
            if got != w:
                return False, (
                    f"round trip failed on q={q}, rels={p.relator_sources}: "
                    f"{got.basis} != {w.basis}"
                )
        return True, "500 random minimal presentations reconstructed exactly"

    return _timed(run, "3 reconstruction round trip")


def check_deep_relator_example(seed: int = 0) -> CheckResult:
    """4. x1^p and x1^p[x1,[x1,x2]] give identical quotients; the extra
    factor is certified nontrivial at class 3."""

    def run():
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

    return _timed(run, "4 deep relator example")


def check_obstruction_verdicts(seed: int = 0) -> CheckResult:
    """5. Exact screening verdicts on the standard examples."""

    def run():
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

    return _timed(run, "5 obstruction screening")


def check_tame_symbol_isomorphisms(seed: int = 0) -> CheckResult:
    """6. Laurent-series K-rings have ranks (2,1,0,0) and match the
    quadratic hull of the matched one-relator presentation."""

    def run():
        for ell, q in ((5, 2), (13, 2), (7, 3)):
            preset = FieldPreset("tame_local", ell)
            algebra = milnor_mod_q(preset, q)
            ranks = [algebra.degree_rank(r) for r in range(1, 5)]
            if ranks != [2, 1, 0, 0]:
                return False, f"ranks {ranks} for ell={ell}, q={q}"
            p, corr = preset_presentation(preset, q)
            report = galois_symbol_compare(preset, p, corr)
            if report.verdict != "isomorphic":
                return False, f"comparison failed for ell={ell}, q={q}: {report.to_json()}"
        # when q exactly divides ell - 1 the relator exponent is q itself,
        # so the literal one-relator shape must also match
        preset = FieldPreset("tame_local", 7)
        literal = pres.make_presentation(3, ["x1", "x2"], ["x1^3 [x1,x2]"])
        report = galois_symbol_compare(preset, literal, {"u": "x1", "t": "x2"})
        if report.verdict != "isomorphic":
            return False, f"literal x1^q[x1,x2] comparison failed: {report.to_json()}"
        return True, (
            "ranks (2,1,0,0) and graded isomorphism for (5,2), (13,2), (7,3); "
            "relator exponent is the p-part of ell-1 (vanishing at this level "
            "for ell in {5,13}, q=2)"
        )

    return _timed(run, "6 tame local symbol isomorphism")


def check_finite_field_degeneration(seed: int = 0) -> CheckResult:
    """7. K_2/q of the finite-field presets vanishes, stably."""

    def run():
        for ell, q in ((5, 2), (7, 2), (7, 3), (13, 3)):
            algebra = milnor_mod_q(FieldPreset("finite_field", ell), q)
            if algebra.degree_cardinality(2) != 1:
                return False, f"K_2 of F_{ell} mod {q} nonzero"
        return True, (
            "degree 2 vanishes for (5,2), (7,2), (7,3), (13,3); the sweep is "
            "exhaustive over the field so window doubling is the identity"
        )

    return _timed(run, "7 finite field degeneration")


def check_two_adic(seed: int = 0) -> CheckResult:
    """8. Dyadic Hilbert oracle: (-1,-1) nontrivial, precision-stable
    span, and the diagonal rule in the matched cohomology tables."""

    def run():
        if hilbert_symbol_two_adic(-1, -1) != -1:
            return False, "(-1,-1) computed as trivial"
        if hilbert_relation_span(8) != hilbert_relation_span(10):
            return False, "relation span moved between precisions 2^8 and 2^10"
        preset = FieldPreset("two_adic")
        p, corr = preset_presentation(preset, 2)
        cd, _ = cohomology_data_from_presentation(p)
        gen_of = {name: idx for idx, name in enumerate(p.generators)}
        for name, a in zip(("-1", "2", "5"), (-1, 2, 5)):
            k = gen_of[corr[name]]
            diag_nonzero = any(cd.cup_entry(k, k))
            if diag_nonzero != (hilbert_symbol_two_adic(a, a) == -1):
                return False, f"diagonal rule mismatch on class {name}"
        report = galois_symbol_compare(preset, p, corr)
        if report.verdict != "isomorphic":
            return False, f"dyadic comparison failed: {report.to_json()}"
        return True, (
            "(-1,-1) nontrivial; span stable at precisions 2^8 and 2^10; "
            "diagonal rule matches the symbol table"
        )

    return _timed(run, "8 dyadic field check")


def check_morphism_equivalence(seed: int = 0) -> CheckResult:
    """9. Group-level and cohomology-level isomorphism conditions agree
    on random endomorphism instances."""

    def run():
        rng = random.Random(seed or 909)
        agreed = 0
        attempts = 0
        while agreed < 200 and attempts < 5000:
            attempts += 1
            q = rng.choice([2, 3, 4, 5])
            p = _random_minimal_presentation(rng, q)
            names = p.generators
            imgs = []
            for _ in range(p.n):
                parts = []
                for _ in range(rng.randint(1, 3)):
                    k = rng.randrange(p.n)
                    e = rng.choice([-2, -1, 1, 2, q])
                    parts.append(f"{names[k]}^{e}")
                imgs.append(pres.parse_word(" ".join(parts), p))
            try:
                report = morphism_check(p, p, imgs)
            except MorphismError:
                continue
            if not report.agreement:
                return False, (
                    f"conditions disagree on q={q}, rels={p.relator_sources}, "
                    f"images={[pres.pretty(w, names) for w in imgs]}"
                )
            agreed += 1
        if agreed < 200:
            return False, f"only {agreed} usable instances generated"
        return True, f"conditions agreed on {agreed} endomorphism instances"

    return _timed(run, "9 morphism equivalence")


def check_witt_counts(seed: int = 0) -> CheckResult:
    """10. Hall basis sizes match the Witt numbers; the commutator block
    of the central layer has the weight-2 rank."""

    def run():
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

    return _timed(run, "10 Witt counts")


ALL_CHECKS = (
    check_duality_perfectness,
    check_collection_laws,
    check_reconstruction_round_trip,
    check_deep_relator_example,
    check_obstruction_verdicts,
    check_tame_symbol_isomorphisms,
    check_finite_field_degeneration,
    check_two_adic,
    check_morphism_equivalence,
    check_witt_counts,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    return [check(seed) for check in ALL_CHECKS]
