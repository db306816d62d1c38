import functools
import itertools
import json
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gq3 import freelie
from gq3.freelie import (
    BoundsExceeded,
    bracket_node,
    generator,
    hall_basis,
    hall_elements,
    magnus_expansion,
    tensor_expansion,
    tensor_to_hall,
    witt_number,
    word_nontriviality_certificate,
)
from gq3.presentations import Commutator, Generator, Power, Product, letters, parse_word
from oracles import (
    direct_certificate,
    hall_certificate,
    is_hall,
    layered_hall_basis,
    syllables_to_word,
)

NAMES3 = {"x1": 0, "x2": 1, "x3": 2}


def test_hall_basis_n2_c2_matches_expected_shape():
    basis = hall_basis(2, 2)
    x1, x2 = generator(0), generator(1)
    assert basis == [x1, x2, bracket_node(x2, x1)]
    assert sum(1 for h in basis if h.weight == 2) == 1


def test_hall_basis_weight2_counts():
    # Witt: (n^2 - n)/2 pairwise commutators in weight 2
    assert sum(1 for h in hall_basis(3, 2) if h.weight == 2) == 3
    assert sum(1 for h in hall_basis(2, 3) if h.weight == 3) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [1, 2, 3, 4, 5])
def test_hall_counts_match_witt_formula(n, c):
    basis = hall_basis(n, c)
    for w in range(1, c + 1):
        assert sum(1 for h in basis if h.weight == w) == witt_number(n, w)
    assert all(is_hall(h) for h in basis)


def _content(h):
    """The generator indices of h's leaves, sorted, with repetition."""
    if h.is_generator():
        return (h.index,)
    return tuple(sorted(_content(h.left) + _content(h.right)))


@functools.cache
def _multigraded_witt(mults):
    """Rank of the free Lie ring's piece with these letter multiplicities,
    by Moebius inversion of multinomial(alpha) = sum over d | gcd(alpha)
    of (|alpha| / d) * rank(alpha / d): every word is a power of exactly
    one primitive word, and a primitive word of length l has l rotations."""
    w = sum(mults)
    words = math.factorial(w)
    for k in mults:
        words //= math.factorial(k)
    g = math.gcd(*mults)
    rest = sum(w // d * _multigraded_witt(tuple(k // d for k in mults))
               for d in range(2, g + 1) if g % d == 0)
    return (words - rest) // w


def test_hall_elements_match_the_multigraded_witt_count():
    """Every letter content up to eight generators and weight 6, the caps."""
    memo = {}
    for w in range(1, 7):
        for content in itertools.combinations_with_replacement(range(8), w):
            got = hall_elements(content, memo)
            mults = tuple(content.count(g) for g in sorted(set(content)))
            assert len(got) == _multigraded_witt(mults), content
            assert all(_content(h) == content and is_hall(h) for h in got)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hall_elements_are_the_basis_restricted_to_their_content(n):
    """In Hall order, against the basis built weight by weight from all
    pairs of lighter elements."""
    reference = layered_hall_basis(n, 5)
    assert hall_basis(n, 5) == list(reference)
    for m in range(1, 6):
        for content in itertools.combinations_with_replacement(range(n), m):
            want = [h for h in reference if _content(h) == content]
            assert hall_elements(content, {}) == want


@pytest.mark.parametrize("w", [1, 2, 3, 4, 5, 6])
def test_hall_coordinates_are_integral_for_every_content(w):
    """The Hall solve eliminates in the integers, which needs a unit lead
    at every pivot.  A monotone relabelling reduces each content within
    the caps to its multiplicities on letters 0..k-1; for each such
    content, a combination of all its Hall elements comes back exactly."""
    for cuts in itertools.product((False, True), repeat=w - 1):
        mults = [1]
        for cut in cuts:
            if cut:
                mults.append(1)
            else:
                mults[-1] += 1
        content = tuple(i for i, k in enumerate(mults) for _ in range(k))
        basis = hall_elements(content, {})
        want = {h: i + 1 for i, h in enumerate(basis)}
        assert tensor_to_hall(_tensor_of(want), len(mults), w) == want


def test_hall_basis_bounds():
    with pytest.raises(BoundsExceeded):
        hall_basis(9, 2)
    with pytest.raises(BoundsExceeded):
        hall_basis(2, 7)


def add(a, b, scale=1):
    """a + scale * b for sparse integer vectors (Lie elements or tensors)."""
    out = dict(a)
    for key, x in b.items():
        y = out.get(key, 0) + scale * x
        if y:
            out[key] = y
        else:
            out.pop(key, None)
    return out


def _tensor_bracket(a, b):
    out = {}
    for ma, xa in a.items():
        for mb, xb in b.items():
            out = add(out, {ma + mb: xa * xb})
            out = add(out, {mb + ma: xa * xb}, -1)
    return out


def _tensor_of(a):
    out = {}
    for h, x in a.items():
        out = add(out, tensor_expansion(h), x)
    return out


def bracket(a, b, n=3):
    """[a, b] of homogeneous Lie elements on the Hall basis, computed in
    the tensor algebra and solved back by tensor_to_hall."""
    comm = _tensor_bracket(_tensor_of(a), _tensor_of(b))
    if not comm:
        return {}
    return tensor_to_hall(comm, n, len(next(iter(comm))))


def test_bracket_antisymmetry_diagonal():
    x = {generator(0): 1}
    assert bracket(x, x) == {}


def test_bracket_reorders_with_sign():
    x1, x2 = generator(0), generator(1)
    assert bracket({x1: 1}, {x2: 1}) == {bracket_node(x2, x1): -1}
    assert bracket({x2: 1}, {x1: 1}) == {bracket_node(x2, x1): 1}


def test_jacobi_identity_on_generators():
    x1, x2, x3 = ({generator(k): 1} for k in range(3))
    total = add(
        add(bracket(bracket(x2, x1), x3), bracket(bracket(x1, x3), x2)),
        bracket(bracket(x3, x2), x1),
    )
    assert total == {}


elements = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=-3, max_value=3)),
    min_size=0,
    max_size=3,
).map(lambda items: {generator(k): x for k, x in items if x != 0})


@settings(max_examples=60, deadline=None)
@given(a=elements, b=elements, c=elements)
def test_bracket_bilinear_antisymmetric_jacobi(a, b, c):
    ab = bracket(a, b)
    ba = bracket(b, a)
    assert add(ab, ba) == {}
    # bilinearity in the first slot
    assert bracket(add(a, b), c) == add(bracket(a, c), bracket(b, c))
    # Jacobi
    total = add(
        add(bracket(ab, c), bracket(bracket(b, c), a)),
        bracket(bracket(c, a), b),
    )
    assert total == {}


@pytest.mark.parametrize("n,c", [(2, 4), (3, 3)])
def test_basis_bracket_agrees_with_tensor_commutator(n, c):
    """Hall coordinates of [u, v] expand back to the tensor commutator."""
    basis = hall_basis(n, c)
    for u in basis:
        for v in basis:
            if u.weight + v.weight > c:
                continue
            got = bracket({u: 1}, {v: 1}, n)
            assert _tensor_of(got) == _tensor_bracket(tensor_expansion(u), tensor_expansion(v))
            if is_hall(bracket_node(u, v)):
                assert got == {bracket_node(u, v): 1}


def test_magnus_expansion_single_generator():
    series = magnus_expansion([(0, 3)], 2)
    assert series[()] == 1
    assert series[(0,)] == 3
    assert series[(0, 0)] == 3  # C(3,2)


def test_magnus_expansion_inverse_pair():
    series = magnus_expansion([(0, 1), (0, -1)], 4)
    assert series == {(): 1}


def test_certificate_iterated_commutator_weight3():
    w = parse_word("[[x1,x2],x3]", NAMES3)
    got = word_nontriviality_certificate(w, 3, 3)
    assert got is not None
    weight, component = got
    assert weight == 3
    assert component and all(len(mon) == 3 and x for mon, x in component.items())


def test_certificate_trivial_word():
    w = parse_word("x1 x1^-1", NAMES3)
    assert word_nontriviality_certificate(w, 3, 3) is None


def test_certificate_inner_commutator_weight3():
    w = parse_word("[x1,[x1,x2]]", {"x1": 0, "x2": 1})
    got = word_nontriviality_certificate(w, 2, 3)
    assert got is not None
    assert got[0] == 3


def test_certificate_power_weight1():
    w = parse_word("x1^5", NAMES3)
    assert word_nontriviality_certificate(w, 3, 3) == (1, {(0,): 5})
    assert hall_certificate(w, 3, 3) == (1, {generator(0): 5})


def test_certificate_commutator_weight2_sign():
    w = parse_word("[x2,x1]", NAMES3)
    assert word_nontriviality_certificate(w, 3, 2) == (2, {(1, 0): 1, (0, 1): -1})
    assert hall_certificate(w, 3, 2) == (2, {bracket_node(generator(1), generator(0)): 1})
    w = parse_word("[x1,x2]", NAMES3)
    assert word_nontriviality_certificate(w, 3, 2) == (2, {(0, 1): 1, (1, 0): -1})
    assert hall_certificate(w, 3, 2) == (2, {bracket_node(generator(1), generator(0)): -1})


def test_certificate_deep_word_inconclusive():
    # weight-4 commutator is invisible at class 3
    w = parse_word("[[[x1,x2],x2],x2]", NAMES3)
    assert word_nontriviality_certificate(w, 3, 3) is None
    assert word_nontriviality_certificate(w, 3, 4) is not None


def test_certificate_bounds():
    w = parse_word("x1", NAMES3)
    with pytest.raises(BoundsExceeded):
        word_nontriviality_certificate(w, 9, 3)
    with pytest.raises(BoundsExceeded):
        word_nontriviality_certificate(w, 3, 7)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([-2, -1, 1, 2])), max_size=6))
def test_certificate_matches_brute_commutator_filtration(syllables):
    """Weight-1 component is always the exponent-sum vector."""
    word = syllables_to_word(syllables)
    sums = [0, 0, 0]
    for g, e in syllables:
        sums[g] += e
    got = word_nontriviality_certificate(word, 3, 2)
    if any(sums):
        assert got is not None and got[0] == 1
        assert got[1] == {(k,): s for k, s in enumerate(sums) if s}
    elif got is not None:
        assert got[0] >= 2


@functools.cache
def _word_trees(n):
    """Words on n generators, with powers of composite bases and negative
    exponents; most lie in the commutator subgroup, so that weights above
    1 occur."""
    exponents = st.integers(-3, 3)
    trees = st.recursive(
        st.integers(0, n - 1).map(Generator),
        lambda inner: st.one_of(
            inner.map(lambda w: Power(w, -1)),
            st.tuples(inner, exponents).map(lambda t: Power(*t)),
            st.lists(inner, min_size=2, max_size=3).map(lambda fs: Product(tuple(fs))),
            st.tuples(inner, inner).map(lambda t: Commutator(*t)),
        ),
        max_leaves=5,
    )
    commutators = st.tuples(trees, trees).map(lambda t: Commutator(*t))
    return st.one_of(
        trees,
        commutators,
        st.tuples(commutators, exponents).map(lambda t: Power(*t)),
        st.tuples(commutators, commutators).map(lambda t: Product(t)),
        _nested_commutators(trees, 4),
    )


def _nested_commutators(trees, depth):
    """Commutators nested depth deep, the deeper side left or right."""
    if depth == 1:
        return st.tuples(trees, trees).map(lambda t: Commutator(*t))
    inner = _nested_commutators(trees, depth - 1)
    return st.one_of(
        inner,
        st.one_of(st.tuples(inner, trees), st.tuples(trees, inner)).map(lambda t: Commutator(*t)),
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((4, 3, 2, 1)).flatmap(lambda n: st.tuples(st.just(n), _word_trees(n))),
       st.sampled_from((4, 3, 2, 1)))
def test_certificate_matches_direct_expansion(n_word, c):
    """Same weight and component as the letter-by-letter expansion over
    all n generators, and the component's integral Hall coordinates are
    those of a dense solve on the whole Hall basis."""
    n, word = n_word
    got = word_nontriviality_certificate(word, n, c)
    want = direct_certificate(word, n, c)
    if want is None:
        assert got is None
        return
    weight, component, coordinates = want
    assert got == (weight, component)
    assert tensor_to_hall(got[1], n, weight) == coordinates


def test_nested_commutator_expands_on_the_tree():
    """A commutator nested 16 deep flattens to about 4^16 syllables; on
    its tree it takes milliseconds.  Its weight, 17, is above the class
    bound, so there is no certificate."""
    text = "a"
    for _ in range(16):
        text = f"[{text}, b]"
    start = time.perf_counter()
    got = word_nontriviality_certificate(parse_word(text, {"a": 0, "b": 1}), 2, 5)
    assert time.perf_counter() - start < 1.0
    assert got is None


def test_inverse_of_a_flat_word_is_flat(monkeypatch):
    """x^-1 is the power Power(x, -1), and a -1 power of a flat word is
    flat, composite base or not: its syllables are the base's reversed and
    negated, and the certificate expands them without a binomial series."""
    x1, x2, x3 = map(Generator, range(3))
    assert parse_word("x1^-1", NAMES3) == Power(x1, -1)
    base = Product((x1, Power(x2, 3)))
    assert letters(Power(base, -1)) == [(1, -3), (0, -1)]
    with pytest.raises(TypeError, match="not a flat word"):
        letters(Power(base, 2))
    calls = []

    def counted(syllables, cap):
        calls.append(list(syllables))
        return magnus_expansion(syllables, cap)

    monkeypatch.setattr(freelie, "magnus_expansion", counted)
    word = Commutator(Power(Product((x1, x2)), -1), Commutator(x2, x3))
    got = word_nontriviality_certificate(word, 3, 3)
    assert got is not None and got[0] == 3
    assert calls == [[(1, -1), (0, -1)], [(1, 1)], [(2, 1)]]


NAMES8 = {f"x{k + 1}": k for k in range(8)}
E = 2**63 - 1


@pytest.mark.parametrize("text,n,want", [
    ("x1^4611686018427387904", 1, (1, {generator(0): 2**62})),
    ("[x1,x2]^4611686018427387903", 2,
     (2, {bracket_node(generator(1), generator(0)): -(2**62 - 1)})),
    (f"[[x1^-{E},x2],x3]^-{E}", 3,
     (3, {bracket_node(bracket_node(generator(1), generator(0)), generator(2)): -E * E})),
])
def test_certificate_independent_of_exponent_size(text, n, want):
    """Exponents up to the parser's cap: writing the powers out would not fit in memory."""
    assert hall_certificate(parse_word(text, NAMES8), n, 5) == want


def _hall(text):
    """A Hall element written as nested brackets of x1..x8."""
    return _hall_of(parse_word(text, NAMES8))


def _hall_of(word):
    if isinstance(word, Generator):
        return generator(word.index)
    return bracket_node(_hall_of(word.left), _hall_of(word.right))


@pytest.mark.parametrize("text,want", [
    ("[[x1,x2],x3]", (3, {_hall("[[x2,x1],x3]"): -1})),
    ("[[x4,x5],[x6,x7]]", (4, {_hall("[[x7,x6],[x5,x4]]"): -1})),
    ("[x8,[x8,[x8,x1]]]", (4, {_hall("[[[x8,x1],x8],x8]"): 1})),
])
def test_deep_relators_at_eight_generators(text, want):
    """Hall elements on all eight generators, each in well under a second:
    an expansion over every generator up to the class bound takes tens of
    seconds for these three."""
    start = time.perf_counter()
    got = hall_certificate(parse_word(text, NAMES8), 8, 5)
    assert time.perf_counter() - start < 2.0
    assert got == want


WORST = json.loads((Path(__file__).parent / "worst_certificates.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", WORST, ids=[case["word"] for case in WORST])
def test_worst_certificates_match_the_recorded_ones(case):
    """The slowest certificates known inside the caps (n = 8, c = 6).  The
    first three were recorded from an engine that expanded every degree
    from 1 and solved on the whole Hall basis, 16, 24 and 1.5 s each
    there; their Hall coordinates come in the same order.  The two dense
    words have components of about 261,000 monomials, recorded by size:
    a Hall solve of one takes 6-8 s, and the component alone under 1 s."""
    solve = "coefficients" in case
    start = time.perf_counter()
    got = (hall_certificate if solve else word_nontriviality_certificate)(
        parse_word(case["word"], NAMES8), case["n"], case["c"])
    assert time.perf_counter() - start < (2.0 if solve else 4.0)
    assert got[0] == case["weight"]
    if solve:
        assert [[repr(h), x] for h, x in got[1].items()] == case["coefficients"]
    else:
        assert len(got[1]) == case["monomials"]


@functools.cache
def _trees_with_identities(n):
    """Words on n generators whose leaves include the empty product, and
    whose exponents include 0 and multiples of q = 2, 3."""
    exponents = st.one_of(
        st.integers(-3, 3),
        st.sampled_from((2, 3)).flatmap(lambda q: st.integers(-2, 2).map(lambda k: k * q)))
    leaves = st.one_of(st.integers(0, n - 1).map(Generator), st.just(Product(())))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(lambda w: Power(w, -1)),
            st.tuples(inner, exponents).map(lambda t: Power(*t)),
            st.lists(inner, max_size=3).map(lambda fs: Product(tuple(fs))),
            st.tuples(inner, inner).map(lambda t: Commutator(*t)),
        ),
        max_leaves=6,
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((3, 2, 1)).flatmap(lambda n: st.tuples(st.just(n), _trees_with_identities(n))),
       st.sampled_from((4, 3, 2, 1)))
def test_tree_bound_never_exceeds_the_certified_weight(n_word, c):
    """The expansion starts at the bound the word's tree gives; a bound
    above the true weight would skip the certificate."""
    n, word = n_word
    want = direct_certificate(word, n, c)
    if want is not None:
        assert freelie._bound(word) <= want[0]
        want = want[0], want[2]
    assert hall_certificate(word, n, c) == want
