"""Acceptance gate: every criterion must pass within its runtime budget.

Each test prints its pass/fail line so the suite output doubles as the
acceptance report.
"""

import sys

import pytest

from gq3.acceptance import CRITERIA, check_collection_laws, run_criterion
from gq3 import trunc
from gq3.trunc import TruncElement, TruncGroup, free_truncation

# seconds allowed per criterion; the others have no budget
BUDGETS = {
    "1 duality perfectness": 10.0,
    "2 collection laws": 5.0,
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
# Criterion 2 under wrong laws


@pytest.fixture(params=["array", "column"])
def path(request, monkeypatch):
    """The ids name the two engines criterion 2 once chose between, numpy
    arrays and stdlib columns; it is stdlib alone now.  "array" runs with
    numpy loaded, "column" with numpy hidden, so an import of numpy there
    raises, and each mutant must fail the criterion on either install."""
    if request.param == "array":
        pytest.importorskip("numpy", exc_type=ImportError)
    else:
        monkeypatch.setitem(sys.modules, "numpy", None)
    return request.param


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
        return TruncElement(e, c)

    monkeypatch.setattr(TruncGroup, "multiply", multiply)


@pytest.mark.parametrize("mutant", sorted(MULTIPLY_MUTANTS))
def test_collection_laws_catch_multiply_mutants(mutant, path, monkeypatch):
    """Every class-2 law with a bilinear deposit is a group law, so these
    mutants are consistent; the coset table of S^[3]'s definition still
    tells them apart from its law."""
    _patch_multiply(monkeypatch, mutant)
    passed, detail = check_collection_laws(0)
    assert not passed and "multiply(a, " in detail, detail


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
    """Criterion 2 catches a wrong sign in the law itself."""
    monkeypatch.setattr(trunc, *TRUNC_MUTANTS[mutant])
    passed, detail = check_collection_laws(0)
    assert not passed and "failed at n=2 q=3" in detail, detail


def test_failure_names_the_check_and_the_first_failing_normal_form(monkeypatch):
    """A power that goes wrong only at n = 3, and there only on normal
    forms with e_3 = 1, fails criterion 2 with (n, q), the check and the
    first such normal form in elements() order."""
    power = TruncGroup.power

    def planted(self, a, m):
        x = power(self, a, m)
        if self.n != 3 or m != 2 or a.e[2] != 1:
            return x
        return TruncElement(x.e, ((x.c[0] + 1) % self.q,) + x.c[1:])

    monkeypatch.setattr(TruncGroup, "power", planted)
    first = next(a for a in free_truncation(3, 2).elements() if a.e[2] == 1)
    assert first != free_truncation(3, 2).identity()
    assert check_collection_laws(0) == (False, f"power(a, 2) failed at n=3 q=2 on a = {first}")
