import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from gq3.presentations import (
    MAX_EXPONENT,
    Commutator,
    Generator,
    Power,
    Product,
    make_presentation,
    parse_word,
)
from gq3.trunc import (
    MixedExponentError,
    TruncElement,
    TruncGroup,
    degree_one,
    free_truncation,
    group_invariants,
    relator_subspace,
    truncated_quotient,
)
from gq3.zqlin import canonicalize, full_subspace, prime_power, zero_subspace
from oracles import (
    central_element,
    dense_evaluation,
    every_column_relator_subspace,
    generator_element,
    node_by_node_evaluation,
    reference_commutator,
    reference_power,
    stacked_group_invariants,
)
from test_cli import count_calls


def names(n):
    return {f"x{k + 1}": k for k in range(n)}


def random_element(g, rng):
    qq = g.q * g.q
    return g.normalize(
        TruncElement(
            tuple(rng.randrange(qq) for _ in range(g.n)),
            tuple(rng.randrange(g.q) for _ in range(g.npairs)),
        )
    )


# ---------------------------------------------------------------------------
# Free truncation basics


@pytest.mark.parametrize(
    "n,q,expected",
    [(2, 2, 32), (1, 3, 9), (3, 2, 512)],
)
def test_free_truncation_orders(n, q, expected):
    assert free_truncation(n, q).order() == expected


def test_free_truncation_order_by_closure_enumeration():
    # Oracle: multiply-closure of the generators must reproduce exactly
    # the claimed element count.
    for n, q in [(2, 2), (1, 3), (2, 3)]:
        g = free_truncation(n, q)
        gens = [generator_element(g, k) for k in range(n)] + [
            g.inverse(generator_element(g, k)) for k in range(n)
        ]
        seen = {g.identity()}
        frontier = [g.identity()]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = g.multiply(x, s)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert len(seen) == g.order()


def test_multiply_swap_example():
    g = free_truncation(2, 2)
    s1, s2 = generator_element(g, 0), generator_element(g, 1)
    prod = g.multiply(s2, s1)
    assert prod == TruncElement((1, 1), (1,))


def test_multiply_identity():
    g = free_truncation(3, 4)
    rng = random.Random(0)
    for _ in range(10):
        x = random_element(g, rng)
        assert g.multiply(x, g.identity()) == x
        assert g.multiply(g.identity(), x) == x
        assert g.multiply(x, g.inverse(x)) == g.identity()


def _binomial_law(g, a, b):
    q = g.q
    yield g.power(g.multiply(a, b), q), g.multiply(
        g.multiply(g.power(a, q), g.power(b, q)),
        g.power(g.commutator(b, a), math.comb(q, 2)),
    )


def test_binomial_collection_law_exhaustive_q2():
    """(ab)^q = a^q b^q [b,a]^C(q,2) over every pair, one pair at a time."""
    q = 2
    g = free_truncation(2, q)
    elements = list(g.elements())
    assert len(elements) == g.order()
    for a in elements:
        for b in elements:
            ((lhs, rhs),) = _binomial_law(g, a, b)
            assert lhs == rhs


@pytest.mark.parametrize("q", [2, 3, 4])
def test_binomial_collection_law_exhaustive_batched(q):
    """Same law over every pair for q in {2,3,4}, in one sweep on elements
    whose coordinates are columns: numpy arrays when numpy imports, stdlib
    columns otherwise."""
    from gq3.acceptance import law_counterexample

    assert law_counterexample(_binomial_law, 2, q) is None


def test_associativity_exhaustive_q2_n2():
    g = free_truncation(2, 2)
    elements = list(g.elements())
    for a in elements:
        for b in elements:
            ab = g.multiply(a, b)
            for c in elements:
                assert g.multiply(ab, c) == g.multiply(a, g.multiply(b, c))


@settings(max_examples=200, deadline=None)
@given(
    nq=st.sampled_from([(n, q) for n in (1, 2, 3, 4) for q in (2, 3, 4, 5, 8, 9)]),
    seed=st.integers(min_value=0, max_value=10**9),
)
def test_associativity_random(nq, seed):
    n, q = nq
    g = free_truncation(n, q)
    rng = random.Random(seed)
    a, b, c = (random_element(g, rng) for _ in range(3))
    assert g.multiply(g.multiply(a, b), c) == g.multiply(a, g.multiply(b, c))


@pytest.mark.parametrize("quotient", [False, True], ids=["free", "quotient"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27, 32])
def test_closed_forms_match_repeated_products(q, quotient):
    """power, inverse and commutator against the group law written out:
    inverses by a a^-1 = a^-1 a = 1, powers by square-and-multiply and
    commutators as a^-1 b^-1 a b, on n = 1..8 in S^[3] and in quotients."""
    rng = random.Random(100 * q + quotient)
    for n in range(1, 9):
        g = free_truncation(n, q)
        if quotient:
            rows = [[rng.randrange(q) for _ in range(g.layer_rank)]
                    for _ in range(rng.randint(1, 3))]
            g = TruncGroup(n, q, canonicalize(q, g.layer_rank, rows))
        for _ in range(5):
            a, b = random_element(g, rng), random_element(g, rng)
            inv = g.inverse(a)
            assert g.multiply(a, inv) == g.identity() == g.multiply(inv, a)
            assert g.commutator(a, b) == reference_commutator(g, a, b)
            big = 2**62 + rng.randrange(q * q)
            ms = [0, 1, -1, big, -big, 2**62, -2**62]
            ms += [rng.randint(-3 * q * q, 3 * q * q) for _ in range(4)]
            for m in ms:
                assert g.power(a, m) == reference_power(g, a, m), (n, m)


def test_center_is_central_layer():
    g = free_truncation(2, 3)
    layer = [central_element(g, v) for v in itertools.product(range(3), repeat=3)]
    for z in layer:
        for x in [generator_element(g, 0), generator_element(g, 1)]:
            assert g.multiply(z, x) == g.multiply(x, z)


@settings(max_examples=60, deadline=None)
@given(
    nq=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]),
    seed=st.integers(min_value=0, max_value=10**9),
)
def test_commutator_layer_matches_magnus_expansion(nq, seed):
    """Independent cross-check of the collection law: for words [u, v],
    the commutator coordinates must equal the antisymmetric degree-2
    component of the Magnus expansion, mod q."""
    from gq3.freelie import graded_component, magnus_expansion
    from gq3.presentations import Commutator, reduce_syllables
    from oracles import flat_letters, syllables_to_word

    n, q = nq
    g = free_truncation(n, q)
    rng = random.Random(seed)

    def random_word():
        return syllables_to_word(
            [(rng.randrange(n), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(1, 4))]
        )

    word = Commutator(random_word(), random_word())
    x = g.evaluate_word(word)
    assert all(e % (q * q) == 0 for e in x.e)  # zero exponent sums
    series = magnus_expansion(reduce_syllables(flat_letters(word)), 2)
    comp = graded_component(series, 2)
    for idx, (k, l) in enumerate(g.pairs):
        want = comp.get((k, l), 0) % q
        assert x.c[idx] == want
        assert (-comp.get((l, k), 0)) % q == want


def test_central_word_coordinates_match_construction():
    """Products of q-th powers and commutators land on their literal
    exponent vectors, however the factors are interleaved."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 3)
        q = rng.choice([2, 3, 4])
        g = free_truncation(n, q)
        t_expected = [0] * n
        c_expected = [0] * g.npairs
        parts = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                k = rng.randrange(n)
                a = rng.randrange(1, q)
                t_expected[k] = (t_expected[k] + a) % q
                parts.append(f"x{k + 1}^{q * a}")
            else:
                idx = rng.randrange(g.npairs)
                k, l = g.pairs[idx]
                c = rng.randrange(1, q)
                c_expected[idx] = (c_expected[idx] + c) % q
                parts.append(f"[x{k + 1},x{l + 1}]^{c}")
        word = parse_word(" ".join(parts), names(n))
        vec = g.central_vector(g.evaluate_word(word))
        assert list(vec) == t_expected + c_expected, parts


def test_central_layer_dies_in_level2_quotient():
    # images of the q-th powers and commutators vanish one level down
    for n, q in [(2, 2), (3, 3)]:
        g = free_truncation(n, q)
        for vec_idx in range(g.layer_rank):
            vec = [0] * g.layer_rank
            vec[vec_idx] = 1
            z = central_element(g, tuple(vec))
            assert all(e % q == 0 for e in z.e)


# ---------------------------------------------------------------------------
# Word evaluation


def test_evaluate_inner_commutator_dies():
    g = free_truncation(2, 3)
    w = parse_word("[x1,[x1,x2]]", names(2))
    assert g.evaluate_word(w) == g.identity()


def test_evaluate_qth_power_is_central_coordinate():
    g = free_truncation(2, 5)
    w = parse_word("x1^5", names(2))
    assert g.evaluate_word(w) == TruncElement((5, 0), (0,))


def test_evaluate_commutator_exponent_arithmetic():
    g = free_truncation(2, 3)
    w = parse_word("[x1,x2]^2 [x2,x1]", names(2))
    assert g.evaluate_word(w) == TruncElement((0, 0), (1,))


def test_evaluate_homomorphism_property():
    g = free_truncation(3, 4)
    nm = names(3)
    words = ["x1 x2^3", "[x1,x3] x2^-2", "x3^9 [x2,x1]", "(x1 x2)^-3"]
    for w1 in words:
        for w2 in words:
            a = g.evaluate_word(parse_word(w1, nm))
            b = g.evaluate_word(parse_word(w2, nm))
            ab = g.evaluate_word(parse_word(f"({w1}) ({w2})", nm))
            assert ab == g.multiply(a, b)


@functools.cache
def _words(q, n, stray):
    """Words of nested products, powers, inverses and commutators on n
    generators, with indices one step out of range when stray."""
    leaves = st.integers(-1 if stray else 0, n if stray else n - 1).map(Generator)
    exponents = st.sampled_from([0, -1, MAX_EXPONENT, -MAX_EXPONENT]) | st.integers(-2 * q * q, 2 * q * q)

    def extend(words):
        return (words.map(lambda w: Power(w, -1))
                | st.tuples(words, exponents).map(lambda t: Power(*t))
                | st.lists(words, max_size=4).map(lambda fs: Product(tuple(fs)))
                | st.tuples(words, words).map(lambda t: Commutator(*t)))

    return st.recursive(leaves | st.just(Product(())), extend, max_leaves=12)


@st.composite
def groups_and_words(draw):
    """A free S^[3] or a quotient by a random w, n <= 8, and a word of
    nested products, powers, inverses and commutators; in about half of
    the draws, generator indices may stray one step out of range."""
    q = draw(st.sampled_from([2, 3, 4, 8, 9, 27, 32]))
    n = draw(st.integers(min_value=1, max_value=8))
    g = free_truncation(n, q)
    if draw(st.booleans()):
        row = st.lists(st.integers(0, q - 1), min_size=g.layer_rank, max_size=g.layer_rank)
        g = TruncGroup(n, q, canonicalize(q, g.layer_rank, draw(st.lists(row, max_size=4))))
    return g, draw(_words(q, n, draw(st.booleans())))


def _outcome(evaluate, g, word):
    try:
        return evaluate(g, word)
    except ValueError as exc:
        return "ValueError", str(exc)


# Words on n = 1 with a stray generator 1 where an evaluator that works
# on the support of a word could skip it: under a nested commutator, under
# a zero exponent, and on a commutator side whose other factors cancel.
STRAY_WORDS = [
    Commutator(Generator(0), Commutator(Generator(1), Product(()))),
    Product((Generator(0), Power(Product((Generator(0), Generator(1))), 0))),
    Commutator(Product((Generator(0), Generator(1), Power(Generator(0), -1))), Generator(0)),
]


def with_stray_examples(test):
    for word in STRAY_WORDS:
        test = example(case=(free_truncation(1, 3), word))(test)
    return test


@settings(max_examples=400, deadline=None)
@given(case=groups_and_words())
@with_stray_examples
def test_evaluate_word_matches_node_by_node_evaluation(case):
    """The one-pass evaluation, reduced once at the end, against one
    reduced group operation per node: same element, or the same error."""
    g, word = case
    want = _outcome(node_by_node_evaluation, g, word)
    assert _outcome(TruncGroup.evaluate_word, g, word) == want


@settings(max_examples=400, deadline=None)
@given(case=groups_and_words())
@with_stray_examples
def test_evaluate_word_matches_dense_evaluation(case):
    """The law on sparse maps against the dense law it replaced, which
    shares no arithmetic with it: same element, or the same error.  The
    degree-1 pass gives the dense e of the word in the free S^[3]."""
    g, word = case
    assert _outcome(TruncGroup.evaluate_word, g, word) == _outcome(dense_evaluation, g, word)
    free = free_truncation(g.n, g.q)
    want = _outcome(lambda _, w: dense_evaluation(free, w).e, g, word)
    dense_degree_one = lambda _, w: tuple(degree_one(g.q, g.n, w).get(k, 0) for k in range(g.n))  # noqa: E731
    assert _outcome(dense_degree_one, g, word) == want


@pytest.mark.parametrize("word", STRAY_WORDS)
def test_stray_generator_is_found_wherever_it_sits(word):
    g = free_truncation(1, 3)
    for evaluate in (g.evaluate_word, lambda w: degree_one(3, 1, w)):
        with pytest.raises(ValueError, match="^no generator 1$"):
            evaluate(word)


def test_evaluate_word_empty_product_and_stray_generator():
    g = TruncGroup(2, 4, canonicalize(4, 3, [(1, 2, 3)]))
    assert g.evaluate_word(Product(())) == g.identity()
    assert g.evaluate_word(Power(Product(()), MAX_EXPONENT)) == g.identity()
    for k in (-1, 2):
        with pytest.raises(ValueError, match=f"^no generator {k}$"):
            g.evaluate_word(Commutator(Generator(0), Product((Generator(1), Generator(k)))))


# ---------------------------------------------------------------------------
# Relator subspaces


def test_relator_subspace_single_power():
    p = make_presentation(2, ["x1", "x2"], ["x1^2"])
    w, report = relator_subspace(p)
    assert report.minimal
    assert w == canonicalize(2, 3, [(1, 0, 0)])


def test_relator_subspace_demushkin():
    for q in (2, 3, 4, 5):
        p = make_presentation(q, ["x1", "x2"], [f"x1^{q} [x1,x2]"])
        w, report = relator_subspace(p)
        assert report.minimal
        assert w == canonicalize(q, 3, [(1, 0, 1)])


def test_relator_subspace_deep_relator_is_zero():
    p = make_presentation(3, ["x1", "x2", "x3"], ["[[x1,x2],x3]"])
    w, report = relator_subspace(p)
    assert w == zero_subspace(3, 6)
    assert report.minimal
    assert not report.dropped_trivial_relators


def test_relator_subspace_drops_trivial_relator():
    p = make_presentation(2, ["x1", "x2"], ["x1 x1^-1", "x1^2"])
    w, report = relator_subspace(p)
    assert report.dropped_trivial_relators == ("x1 x1^-1",)
    assert w == canonicalize(2, 3, [(1, 0, 0)])


def test_quotient_orders():
    assert TruncGroup(2, 2, zero_subspace(2, 3)).order() == 32
    assert TruncGroup(2, 2, full_subspace(2, 3)).order() == 4
    assert TruncGroup(2, 2, canonicalize(2, 3, [(1, 0, 0)])).order() == 16


def test_mixed_exponent_rejected():
    p = make_presentation(4, ["x1", "x2"], ["x1^2"])
    with pytest.raises(MixedExponentError):
        relator_subspace(p)


def test_mixed_exponent_after_partial_elimination():
    # eliminating x1 via the second relator leaves the first with a
    # p-divisible nonzero image
    p = make_presentation(4, ["x1", "x2"], ["x1^2", "x1 x2"])
    with pytest.raises(MixedExponentError):
        relator_subspace(p)


# -- elimination of non-minimal presentations ------------------------------


def normal_closure(g, presentation):
    """Oracle: the normal closure of the relator images, by enumeration in S^[3]."""
    rel_images = [g.evaluate_word(w) for w in presentation.relators]
    gens = [generator_element(g, k) for k in range(g.n)]
    closure = {g.identity()}
    frontier = list(rel_images)
    for x in frontier:
        closure.add(x)
    while frontier:
        x = frontier.pop()
        new = [g.inverse(x)]
        for s in gens:
            new.append(g.multiply(g.inverse(s), g.multiply(x, s)))
        for y in list(closure):
            new.append(g.multiply(x, y))
        for z in new:
            if z not in closure:
                closure.add(z)
                frontier.append(z)
    return closure


def brute_g3_order(presentation):
    """Oracle: |G^[3]| by normal closure enumeration inside S^[3]."""
    g = free_truncation(presentation.n, presentation.q)
    return g.order() // len(normal_closure(g, presentation))


class ClosureQuotient:
    """Oracle: S^[3] modulo the normal closure of the relators on every
    generator of the presentation, each coset named by one of its
    elements; no generator is eliminated."""

    def __init__(self, presentation):
        self.free = free_truncation(presentation.n, presentation.q)
        self.q = presentation.q
        closure = normal_closure(self.free, presentation)
        self.rep = {}
        for x in self.free.elements():
            if x not in self.rep:
                for y in closure:
                    self.rep[self.free.multiply(x, y)] = x

    def elements(self):
        return iter(set(self.rep.values()))

    def identity(self):
        return self.rep[self.free.identity()]

    def multiply(self, a, b):
        return self.rep[self.free.multiply(a, b)]

    def commutator(self, a, b):
        return self.rep[self.free.commutator(a, b)]

    def power(self, a, m):
        return self.rep[self.free.power(a, m)]


ELIMINATION_CASES = [
    (2, ["x1", "x2"], ["x1"]),
    (2, ["x1", "x2"], ["x1 x2"]),
    (3, ["x1", "x2"], ["x1 x2^3"]),
    (2, ["x1", "x2"], ["x1 [x1,x2]"]),
    (2, ["x1", "x2", "x3"], ["x1 x2", "x3^2"]),
    (3, ["x1", "x2"], ["x1^2 x2^3", "x2^9"]),
    (4, ["x1", "x2"], ["x1 x2^2"]),
    (2, ["x1", "x2"], ["x1", "x2"]),
]


@pytest.mark.parametrize("q,gens,rels", ELIMINATION_CASES)
def test_elimination_matches_normal_closure_oracle(q, gens, rels):
    p = make_presentation(q, gens, rels)
    group, report = truncated_quotient(p)
    assert not report.minimal
    assert group.order() == brute_g3_order(p)


@pytest.mark.parametrize("q,gens,rels", ELIMINATION_CASES)
def test_elimination_invariants_against_enumeration(q, gens, rels):
    """Order, abelianization, center and exponent of the group left after
    elimination, against the quotient of S^[3] on all the generators."""
    p = make_presentation(q, gens, rels)
    g, report = truncated_quotient(p)
    assert not report.minimal
    inv = group_invariants(g)
    order, divisors, center, exponent = brute_invariants(ClosureQuotient(p))
    assert inv.order == order
    assert sorted(inv.abelianization) == divisors
    assert inv.center_order == center
    assert inv.exponent == exponent


def test_elimination_reports_generators():
    p = make_presentation(2, ["a", "b"], ["a b^2"])
    _, report = relator_subspace(p)
    assert report.eliminated[0][0] == "a"
    assert report.kept_generators == ("b",)


def test_full_elimination_gives_trivial_group():
    p = make_presentation(2, ["x1"], ["x1"])
    group, _ = truncated_quotient(p)
    assert group.order() == 1 and group.n == 0


@st.composite
def relator_presentations(draw):
    """Presentations at q in {2, 3, 4, 8, 9, 32}, n <= 8, whose relators
    are drawn by kind: Frattini (q-th powers and commutators), with a unit
    exponent on one generator and any on two more, with a p-divisible
    exponent that is not a multiple of q (mixed, at q > p only), with an
    identity image (trivial or certified), or a pair x_a x_b, x_a x_b^p
    whose second member has a unit in column b only after the first
    eliminates x_a; then shuffled."""
    q = draw(st.sampled_from((2, 3, 4, 8, 9, 32)))
    p = prime_power(q)[0]
    n = draw(st.integers(1, 8))
    index = st.integers(0, n - 1)

    def commutators():
        if n == 1:
            return ""
        k, l = draw(index), draw(index)
        return f" [x{k + 1},x{l + 1}]^{draw(st.integers(-q, q))}" if k != l else ""

    rels = []
    kinds = ["frattini", "unit", "identity", "chain"] + ["mixed"] * (q > p)
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        k = draw(index)
        if kind == "frattini":
            rels.append(f"x{k + 1}^{q * draw(st.integers(-q, q))}{commutators()}")
        elif kind == "unit":
            u = draw(st.integers(1, q * q - 1).filter(lambda x: x % p))
            rels.append(f"x{k + 1}^{u} x{draw(index) + 1}^{draw(st.integers(-q, q))} "
                        f"x{draw(index) + 1}^{draw(st.integers(-q, q))}{commutators()}")
        elif kind == "mixed":
            rels.append(f"x{k + 1}^{p * draw(st.integers(1, q // p - 1))}{commutators()}")
        elif kind == "identity":
            l = draw(index)
            rels.append(draw(st.sampled_from([f"x{k + 1} x{k + 1}^-1", f"[x{k + 1},x{l + 1}]",
                                              f"[x{k + 1},[x{k + 1},x{l + 1}]]",
                                              f"[x{k + 1},x{l + 1}]^{q}"])))
        elif n > 1:
            b = draw(index.filter(lambda b: b != k))
            rels += [f"x{k + 1} x{b + 1}", f"x{k + 1} x{b + 1}^{p}"]
    return make_presentation(q, [f"x{k + 1}" for k in range(n)], draw(st.permutations(rels)))


def _subspace_outcome(presentation, eliminate):
    try:
        return eliminate(presentation)
    except MixedExponentError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(relator_presentations())
# the first relator has no unit entry; x1 x2^2 gets its pivot at x2 only
# after x1 x2 eliminates x1
@example(make_presentation(9, ["x1", "x2", "x3"], ["x3^9", "x1 x2^3", "x1 x2"]))
@example(make_presentation(4, ["x1", "x2", "x3"], ["x3^4 [x1,x2]", "x1 x2", "x1 x2^2"]))
# at n = 8 the second relator is eliminated against the first's pivot at x1
# and left central with t_1 = 1, so the pivot's y^q row, with its
# -kappa y_2 y_3 entry, reaches the span of the kept generators
@example(make_presentation(8, [f"x{k}" for k in range(1, 9)],
                           ["x1 x2 x3 [x4,x5]", "x1^9 x2 x3 [x6,x7]", "x8^8 [x1,x8] [x2,x7]^3"]))
def test_relator_subspace_matches_the_every_column_search(presentation):
    """The span and report, or the MixedExponentError and its message, of
    relator_subspace against the reference that searches every column for
    a pivot and cuts every span by vanishing_part."""
    assert (_subspace_outcome(presentation, relator_subspace)
            == _subspace_outcome(presentation, every_column_relator_subspace))


def test_minimal_presentation_runs_no_elimination(monkeypatch):
    """A minimal presentation multiplies no relators and cuts no span:
    no TruncGroup.power or multiply, and no vanishing_part."""
    import gq3.trunc

    calls = []
    count_calls(monkeypatch, calls, TruncGroup, "power")
    count_calls(monkeypatch, calls, TruncGroup, "multiply")
    count_calls(monkeypatch, calls, gq3.trunc, "vanishing_part")
    p = make_presentation(32, [f"x{k}" for k in range(1, 9)],
                          ["x1^32 [x2,x3]", "x4^64 [x5,x6]^3 [x7,x8]", "[x1,x8]^5 x2^96",
                           "[x3,x4]^16 x7^-32"])
    _, report = relator_subspace(p)
    assert report.minimal and len(report.kept_generators) == 8
    assert calls == []


def test_elimination_runs_on_maps_only(monkeypatch):
    """A non-minimal presentation is eliminated on sparse maps: no
    TruncGroup.power or multiply, and the span is cut once."""
    import gq3.trunc

    calls, cuts = [], []
    count_calls(monkeypatch, calls, TruncGroup, "power")
    count_calls(monkeypatch, calls, TruncGroup, "multiply")
    count_calls(monkeypatch, cuts, gq3.trunc, "vanishing_part")
    p = make_presentation(8, [f"x{k}" for k in range(1, 9)],
                          ["x1^3 x2 [x3,x4]", "x1 x2^6 [x5,x6]", "x3^8 x4^16 [x1,x8]", "x7^3 x8^-8"])
    _, report = relator_subspace(p)
    assert [g for g, _ in report.eliminated] == ["x1", "x2", "x7"]
    assert calls == [] and len(cuts) == 1


# ---------------------------------------------------------------------------
# Invariants


def brute_invariants(g):
    elements = list(g.elements())
    order = len(elements)
    center = sum(
        1 for z in elements if all(g.multiply(z, x) == g.multiply(x, z) for x in elements)
    )
    exponent = 1
    for x in elements:
        k = 1
        y = x
        while y != g.identity():
            y = g.multiply(y, x)
            k += 1
        exponent = exponent * k // math.gcd(exponent, k)
    # abelianization via the derived subgroup
    derived = {g.identity()}
    frontier = [g.commutator(a, b) for a in elements for b in elements]
    for x in frontier:
        derived.add(x)
    changed = True
    while changed:
        changed = False
        for a in list(derived):
            for b in list(derived):
                c = g.multiply(a, b)
                if c not in derived:
                    derived.add(c)
                    changed = True
    cosets = {}
    for x in elements:
        key = frozenset(g.multiply(x, d) for d in derived)
        cosets.setdefault(key, x)
    # cyclic structure of the abelian quotient by order counting
    ab_elements = list(cosets.values())
    p = prime_power(g.q)[0]
    counts = []
    j = 0
    while True:
        m = p**j
        cnt = sum(1 for x in ab_elements if _coset_power_trivial(g, x, m, derived))
        counts.append(cnt)
        if cnt == len(ab_elements):
            break
        j += 1
    factors = []
    for jj in range(1, len(counts)):
        # number of invariant factors of order >= p^jj
        import math as _m

        k = int(round(_m.log(counts[jj] / counts[jj - 1], p)))
        factors.append(k)
    divisors = []
    for jj, k in enumerate(factors, start=1):
        nxt = factors[jj] if jj < len(factors) else 0
        for _ in range(k - nxt):
            divisors.append(p**jj)
    return order, sorted(divisors), center, exponent


def _coset_power_trivial(g, x, m, derived):
    return g.power(x, m) in derived


@pytest.mark.parametrize(
    "n,q,rels",
    [
        (2, 2, []),
        (2, 2, ["x1^2"]),
        (2, 2, ["[x1,x2]"]),
        (1, 3, []),
        (2, 3, ["x1^3 [x1,x2]"]),
        (2, 2, ["x1^2 [x1,x2]", "x2^2"]),
        (2, 4, ["x1^4", "[x1,x2]"]),
        (2, 2, ["x1^2", "x2^2"]),
        (2, 4, ["x1^4", "x2^4"]),
    ],
)
def test_group_invariants_against_enumeration(n, q, rels):
    p = make_presentation(q, [f"x{k+1}" for k in range(n)], rels)
    g, _ = truncated_quotient(p)
    inv = group_invariants(g)
    order, divisors, center, exponent = brute_invariants(g)
    assert inv.order == order
    assert sorted(inv.abelianization) == divisors
    assert inv.center_order == center
    assert inv.exponent == exponent


def center_by_group_law(g):
    """|Z(G)|: the classes sigma^e, e mod q, that commute with every
    generator under the group law, times the central layer of G."""
    powers = [[g.power(generator_element(g, k), e) for e in range(g.q)] for k in range(g.n)]
    count = 0
    for e in itertools.product(range(g.q), repeat=g.n):
        x = g.identity()
        for k, ek in enumerate(e):
            x = g.multiply(x, powers[k][ek])
        if all(g.commutator(x, generator_element(g, j)) == g.identity() for j in range(g.n)):
            count += 1
    return count * g.q ** g.layer_rank // g.w.cardinality()


@pytest.mark.parametrize("n,q", [(3, 3), (3, 5), (4, 3), (3, 9)])
def test_center_against_group_law(n, q):
    """Random central subspaces on three or more generators, where the
    sign of [sigma_k, sigma_j] for k > j decides the center."""
    rng = random.Random(f"center:{n}:{q}")
    s = free_truncation(n, q)
    for _ in range(12):
        rows = [[rng.randrange(q) if k >= n or rng.random() < 0.3 else 0
                 for k in range(s.layer_rank)] for _ in range(rng.randint(1, 3))]
        g = TruncGroup(n, q, canonicalize(q, s.layer_rank, rows))
        assert group_invariants(g).center_order == center_by_group_law(g)


shapes = st.sampled_from(("zero", "full", "every_pair", "star", "halves", "mixed"))
subspace_moduli = st.sampled_from((2, 3, 4, 5, 8, 9, 27, 32))
halves_moduli = st.sampled_from((2, 4, 8, 32))


@st.composite
def central_subspaces(draw):
    """G^[3] = S^[3]/W for W = 0, W full, commutator rows that touch every
    pair, W_c holding a multiple of every w_kl of one generator k, the u_k with some of
    the (q/2) w_kl, or random t|c rows."""
    shape = draw(shapes)
    n = draw(st.integers(1, 8))
    q = draw(halves_moduli if shape == "halves" else subspace_moduli)
    g = free_truncation(n, q)
    pairs = g.pairs
    rank = g.layer_rank
    units = full_subspace(q, rank).basis
    coeff = st.integers(0, q - 1)
    if shape == "zero":
        rows = []
    elif shape == "full":
        rows = list(units)
    elif shape == "every_pair":
        tails = [draw(st.lists(coeff, min_size=len(pairs), max_size=len(pairs)))
                 for _ in range(draw(st.integers(1, 3)))]
        for idx in range(len(pairs)):
            tails[draw(st.integers(0, len(tails) - 1))][idx] = draw(st.integers(1, q - 1))
        rows = [[0] * n + tail for tail in tails]
    elif shape == "star":
        k = draw(st.integers(0, n - 1))
        rows = [[draw(st.integers(1, q - 1)) * x for x in units[n + idx]]
                for idx, pair in enumerate(pairs) if k in pair]
        rows += [[0] * n + draw(st.lists(coeff, min_size=len(pairs), max_size=len(pairs)))
                 for _ in range(draw(st.integers(0, 1)))]
    elif shape == "halves":
        rows = list(units[:n]) + [[q // 2 * x for x in units[n + idx]]
                                  for idx in range(len(pairs)) if draw(st.booleans())]
    else:
        rows = [draw(st.lists(coeff, min_size=rank, max_size=rank))
                for _ in range(draw(st.integers(1, 4)))]
    return TruncGroup(n, q, canonicalize(q, rank, rows))


@settings(max_examples=300, deadline=None)
@given(central_subspaces())
def test_group_invariants_match_the_stacked_kernel(g):
    """The center from the pairs W leaves free and the annihilator rows
    added until the span is full, and the exponent's (q/2) w_kl tests made
    at j = 0 only, against one kernel of every stacked row."""
    assert group_invariants(g) == stacked_group_invariants(g)


def test_center_from_untouched_pairs_needs_no_kernel(monkeypatch):
    """At n = 8 every generator lies on a pair that no commutator row of W
    touches, so the center is found with no annihilator and no kernel."""
    import gq3.trunc
    import gq3.zqlin

    rels = [f"x{k}^32 [x{k},x{k % 8 + 1}]" for k in range(1, 9)]
    rels += ["[x1,x2]", "[x3,x4]^2", "[x5,x6] [x7,x8]^3"]
    g, _ = truncated_quotient(make_presentation(32, [f"x{k}" for k in range(1, 9)], rels))
    expected = stacked_group_invariants(g)
    calls = []
    count_calls(monkeypatch, calls, gq3.trunc, "annihilator")
    count_calls(monkeypatch, calls, gq3.zqlin, "kernel")
    assert group_invariants(g) == expected
    assert calls == []


def test_invariants_spec_examples():
    g = free_truncation(2, 2)
    inv = group_invariants(g)
    assert inv.order == 32
    assert sorted(inv.abelianization) == [4, 4]
    assert inv.exponent == 4

    p = make_presentation(2, ["x1", "x2"], ["x1^2"])
    g2, _ = truncated_quotient(p)
    assert group_invariants(g2).order == 16

    g1 = free_truncation(1, 5)
    inv1 = group_invariants(g1)
    assert inv1.center_order == inv1.order


def test_order_times_subspace_is_free_order():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 3)
        q = rng.choice([2, 3, 4])
        g = free_truncation(n, q)
        rows = [
            [rng.randrange(q) for _ in range(g.layer_rank)] for _ in range(rng.randint(0, 3))
        ]
        w = canonicalize(q, g.layer_rank, rows)
        h = TruncGroup(n, q, w)
        assert h.order() * w.cardinality() == g.order()


def test_truncation_of_truncation_is_smaller_level():
    # the central layer is everything the level-2 quotient kills
    h = TruncGroup(2, 3, full_subspace(3, 3))
    assert h.order() == 9
    inv = group_invariants(h)
    assert sorted(inv.abelianization) == [3, 3]
    assert inv.exponent == 3
