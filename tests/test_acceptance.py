"""Acceptance gate: every criterion must pass within its runtime budget.

Each test prints its pass/fail line so the suite output doubles as the
acceptance report.
"""

import operator
import sys

import pytest

from gq3.acceptance import (
    COLLECTION_SWEEPS,
    CRITERIA,
    _Column,
    check_collection_laws,
    law_counterexample,
    run_criterion,
)
from gq3 import trunc
from gq3.trunc import TruncElement, TruncGroup, free_truncation
from oracles import per_triple_random_failure, per_tuple_law_counterexample

# seconds allowed per criterion; the others have no budget
BUDGETS = {
    "1 duality perfectness": 10.0,
    "2 collection laws": 30.0,
    "3 reconstruction round trip": 60.0,
    "6 tame local symbol isomorphism": 180.0,  # < 60 s per instance, 3 instances
    "9 morphism equivalence": 60.0,
}


@pytest.mark.parametrize("name, check", CRITERIA, ids=[check.__name__ for _, check in CRITERIA])
def test_acceptance_criterion(name, check, capsys):
    result = run_criterion(name, check, 0)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {result.name}: {result.detail} ({result.seconds:.2f}s)")
    assert result.passed, f"{result.name}: {result.detail}"
    budget = BUDGETS.get(name)
    if budget is not None:
        assert result.seconds < budget, (
            f"{result.name} took {result.seconds:.2f}s, over the {budget:.0f}s budget"
        )


def test_budgets_name_criteria():
    """A budget under a name that is not a criterion's would never apply."""
    assert BUDGETS.keys() <= dict(CRITERIA).keys()


# ---------------------------------------------------------------------------
# Criterion 2 on both columns


@pytest.fixture(params=["array", "column"])
def path(request, monkeypatch):
    """The array side needs numpy; the column side hides it from the lazy
    import in gq3.acceptance, whose sweep then runs on stdlib columns."""
    if request.param == "array":
        pytest.importorskip("numpy", exc_type=ImportError)
    else:
        monkeypatch.setitem(sys.modules, "numpy", None)
    return request.param


def test_collection_laws_within_budget_without_numpy(monkeypatch, capsys):
    """Criterion 2 keeps its budget on stdlib columns too; with numpy,
    test_acceptance_criterion runs it on numpy columns."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    criterion = next(c for c in CRITERIA if c[1] is check_collection_laws)
    test_acceptance_criterion(*criterion, capsys)


def test_sides_that_ignore_the_tuple_are_swept_too(path):
    """A law whose sides depend on no element fails at the first tuple if
    they differ, and nowhere if they agree, on either column."""
    g = free_truncation(2, 2)
    first = next(g.elements())
    sigma = TruncElement((1, 0), (0,))
    assert law_counterexample(lambda g, a: [(g.identity(), sigma)], 1, 2) == (first,)
    assert law_counterexample(lambda g, a, b: [(sigma, sigma)], 2, 2) is None


def test_stdlib_column_matches_int_arithmetic():
    """Each operation of the stdlib column, with a column or an int on
    either side, is the operation on every entry."""
    xs, ys = [7, -3, 0, 12], [5, 5, -2, 0]
    x, y = _Column(xs), _Column(ys)
    ops = [operator.add, operator.sub, operator.mul, operator.ne, operator.or_]
    for op in ops:
        assert op(x, y) == [op(a, b) for a, b in zip(xs, ys)], op
        assert op(x, 4) == [op(a, 4) for a in xs], op
        assert op(4, x) == [op(4, a) for a in xs], op
    assert x % 5 == [a % 5 for a in xs]
    assert -x == [-a for a in xs]
    assert x.take(_Column([3, 0, 0])) == [12, 7, 7]
    assert all(type(z) is _Column for z in (x + y, 4 - x, -x, x % 5, x.take([1])))


# name: (deposit subtracted from c_kl in a * b, exponent modulus as a power of q)
MULTIPLY_MUTANTS = {
    "deposit_dropped": (lambda a, b, k, l: 0, 2),
    "plus_for_minus": (lambda a, b, k, l: -b.e[k] * a.e[l], 2),
    "mirrored_deposit": (lambda a, b, k, l: a.e[k] * b.e[l], 2),
    "e_mod_q": (lambda a, b, k, l: b.e[k] * a.e[l], 1),
}


def _patch_multiply(monkeypatch, mutant):
    deposit, power = MULTIPLY_MUTANTS[mutant]

    def multiply(self, a, b):
        q = self.q
        e = tuple((x + y) % q**power for x, y in zip(a.e, b.e))
        c = tuple((a.c[idx] + b.c[idx] - deposit(a, b, k, l)) % q
                  for idx, (k, l) in enumerate(self.pairs))
        return self.normalize(TruncElement(e, c))

    monkeypatch.setattr(TruncGroup, "multiply", multiply)


def _caught_at(q):
    return any(law_counterexample(laws, arity, q) is not None
               for laws, arity, moduli in COLLECTION_SWEEPS if q in moduli)


@pytest.mark.parametrize("mutant", sorted(MULTIPLY_MUTANTS))
def test_collection_laws_catch_multiply_mutants(mutant, path, monkeypatch):
    """Every class-2 law with a bilinear deposit satisfies the binomial
    identity and associativity, so these mutants are caught only by the
    closed forms compared with multiply."""
    _patch_multiply(monkeypatch, mutant)
    passed, detail = check_collection_laws(0)
    assert not passed and "failed at q=" in detail, detail
    assert _caught_at(3)
    if path == "array":  # the q = 4 pair sweep takes seconds on stdlib columns
        assert _caught_at(4)


def _flipped_product(q, x, y):
    """trunc._product with the deposit w_kl^(+y_k x_l)."""
    (xe, xc), (ye, yc) = x, y
    for k, b in ye.items():
        for l, a in xe.items():
            if k < l:
                xc[k, l] = (xc.get((k, l), 0) + b * a) % q
    trunc._add(q, xc, yc)
    trunc._add(q * q, xe, ye)
    return x


_commutator = trunc._commutator

# mutants of the sparse-map law that evaluate_word and every answer use;
# at q = 2 a sign is invisible, so both first fail at q = 3
TRUNC_MUTANTS = {
    "deposit_flipped": ("_product", _flipped_product),
    "commutator_swapped": ("_commutator", lambda q, a, b: _commutator(q, b, a)),
}


@pytest.mark.parametrize("mutant", sorted(TRUNC_MUTANTS))
def test_collection_laws_catch_trunc_mutants(mutant, path, monkeypatch):
    """Criterion 2 catches a wrong sign in the law itself on either column."""
    monkeypatch.setattr(trunc, *TRUNC_MUTANTS[mutant])
    passed, detail = check_collection_laws(0)
    assert not passed and "failed at q=3" in detail, detail
    if path == "array":  # the q = 4 pair sweep takes seconds on stdlib columns
        assert _caught_at(4)


def _first_counterexample(find, q):
    """(laws name, tuple) of the first counterexample that find names over
    criterion 2's sweeps at q, taken in their order, or None."""
    return next(((laws.__name__, xs) for laws, arity, moduli in COLLECTION_SWEEPS
                 if q in moduli and (xs := find(laws, arity, q)) is not None), None)


@pytest.mark.parametrize("mutant", sorted(MULTIPLY_MUTANTS))
def test_sweep_names_the_per_tuple_counterexample(mutant, monkeypatch):
    """On both columns, the sweeps at q = 2 and 3 name the counterexample
    that running the laws one tuple at a time finds first (a sign error is
    invisible at q = 2, so there it may be none)."""
    _patch_multiply(monkeypatch, mutant)
    for q in (2, 3):
        expected = _first_counterexample(per_tuple_law_counterexample, q)
        assert expected is not None or q == 2
        for hide in (False, True):  # numpy columns, if numpy imports, then stdlib ones
            with monkeypatch.context() as patch:
                if hide:
                    patch.setitem(sys.modules, "numpy", None)
                assert _first_counterexample(law_counterexample, q) == expected, q


def test_random_failure_is_reported_at_its_draw(monkeypatch):
    """A multiply that goes wrong only for n = 3 at q = 2 and q = 3, and
    there not on every triple, fails criterion 2 at the draw where the
    per-triple replay first fails: not the first draw of its (n, q), and
    ahead of the first failure at the other modulus."""
    multiply = TruncGroup.multiply

    def planted(self, a, b):
        x = multiply(self, a, b)
        if self.n != 3 or self.q > 3:
            return x
        return TruncElement(x.e, ((x.c[0] + a.e[0] * a.e[0] * b.e[0]) % self.q,) + x.c[1:])

    monkeypatch.setattr(TruncGroup, "multiply", planted)
    draw, g, a, b, c = per_triple_random_failure(0)
    assert (draw, g.n, g.q) == (74, 3, 2)
    passed, detail = check_collection_laws(0)
    assert not passed
    assert detail == (f"collection laws failed at draw {draw}: "
                      f"n={g.n} q={g.q} {a} {b} {c}"), detail
