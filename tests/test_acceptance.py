"""Acceptance gate: every criterion must pass within its runtime budget.

Each test prints its pass/fail line so the suite output doubles as the
acceptance report.
"""

import sys

import pytest

from gq3.acceptance import (
    COLLECTION_SWEEPS,
    check_collection_laws,
    check_deep_relator_example,
    check_duality_perfectness,
    check_finite_field_degeneration,
    check_morphism_equivalence,
    check_obstruction_verdicts,
    check_reconstruction_round_trip,
    check_tame_symbol_isomorphisms,
    check_two_adic,
    check_witt_counts,
    law_counterexample,
)
from gq3.trunc import TruncElement, TruncGroup

BUDGETS = {
    "1 duality perfectness": 10.0,
    "2 collection laws": 30.0,
    "3 reconstruction round trip": 60.0,
    "4 deep relator example": None,
    "5 obstruction screening": None,
    "6 tame local symbol isomorphism": 180.0,  # < 60 s per instance, 3 instances
    "7 finite field degeneration": None,
    "8 dyadic field check": None,
    "9 morphism equivalence": 60.0,
    "10 Witt counts": None,
}

CHECKS = [
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
]


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_acceptance_criterion(check, capsys):
    result = check(0)
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {result.name}: {result.detail} ({result.seconds:.2f}s)")
    assert result.passed, f"{result.name}: {result.detail}"
    budget = BUDGETS[result.name]
    if budget is not None:
        assert result.seconds < budget, (
            f"{result.name} took {result.seconds:.2f}s, over the {budget:.0f}s budget"
        )


# ---------------------------------------------------------------------------
# Criterion 2's exhaustive sweeps on both paths


@pytest.fixture(params=["array", "scalar"])
def path(request, monkeypatch):
    """The array path needs numpy; the scalar path hides it from the lazy
    import in gq3.acceptance, which then falls back to one tuple at a time."""
    if request.param == "array":
        pytest.importorskip("numpy")
    else:
        monkeypatch.setitem(sys.modules, "numpy", None)
    return request.param


def test_collection_sweeps_find_no_counterexample(path):
    """The scalar side stops at q = 3: its q = 4 pair sweep alone takes
    most of a minute."""
    for laws, arity, moduli in COLLECTION_SWEEPS:
        for q in moduli:
            if path == "array" or q <= 3:
                assert law_counterexample(laws, arity, q) is None, (laws.__name__, q)


# name: (deposit subtracted from c_kl in a * b, exponent modulus as a power of q)
MULTIPLY_MUTANTS = {
    "deposit_dropped": (lambda a, b, k, l: 0, 2),
    "plus_for_minus": (lambda a, b, k, l: -b.e[k] * a.e[l], 2),
    "mirrored_deposit": (lambda a, b, k, l: a.e[k] * b.e[l], 2),
    "e_mod_q": (lambda a, b, k, l: b.e[k] * a.e[l], 1),
}


@pytest.mark.parametrize("mutant", sorted(MULTIPLY_MUTANTS))
def test_collection_laws_catch_multiply_mutants(mutant, path, monkeypatch):
    """Every class-2 law with a bilinear deposit satisfies the binomial
    identity and associativity, so these mutants are caught only by the
    closed forms compared with multiply."""
    deposit, power = MULTIPLY_MUTANTS[mutant]

    def multiply(self, a, b):
        q = self.q
        e = tuple((x + y) % q**power for x, y in zip(a.e, b.e))
        c = tuple((a.c[idx] + b.c[idx] - deposit(a, b, k, l)) % q
                  for idx, (k, l) in enumerate(self.pairs))
        return self.normalize(TruncElement(e, c))

    monkeypatch.setattr(TruncGroup, "multiply", multiply)
    result = check_collection_laws(0)
    assert not result.passed and "failed at q=" in result.detail, result.detail
    if path == "array":
        for q in (3, 4):
            assert any(law_counterexample(laws, arity, q) is not None
                       for laws, arity, moduli in COLLECTION_SWEEPS if q in moduli), q
