import ast
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from gq3 import zqlin
from gq3.freelie import mobius
from gq3.milnor import MAX_ELL, _is_prime
from gq3.zqlin import (
    ZqMatrix,
    ZqSubspace,
    annihilator,
    canonicalize,
    full_subspace,
    invariant_factors,
    kernel,
    prime_power,
    relations,
    row_space,
    smith_normal_form,
    subspace_intersect,
    subspace_sum,
    vanishing_part,
    zero_subspace,
)
from oracles import (
    dense_howell,
    identity,
    multiple_count_invariant_factors,
    pivot_scan_smith_diagonal,
    subspace_vectors,
    zero,
)

MODULI = [2, 3, 4, 5, 8, 9]
PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def brute_span(q, ambient, rows):
    """Oracle: enumerate every Z/q-combination of the rows."""
    span = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        v = [0] * ambient
        for c, row in zip(coeffs, rows):
            for k in range(ambient):
                v[k] = (v[k] + c * row[k]) % q
        span.add(tuple(v))
    return span


def brute_annihilator(q, ambient, vectors):
    """Oracle: all vectors pairing to zero against every element."""
    out = set()
    for v in itertools.product(range(q), repeat=ambient):
        if all(sum(a * b for a, b in zip(v, w)) % q == 0 for w in vectors):
            out.add(v)
    return out


def test_prime_power_validation():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    with pytest.raises(ValueError):
        prime_power(6)
    with pytest.raises(ValueError):
        prime_power(1)
    # above the cap before any factor is sought: a large prime returns at once
    for q in (33, 64, 1000000007):
        with pytest.raises(ValueError, match="exceeds cap"):
            prime_power(q)


def sieve(limit):
    """Oracle: is_prime[m] for 0 <= m <= limit, by Eratosthenes."""
    is_prime = [False, False] + [True] * (limit - 1)
    for f in range(2, math.isqrt(limit) + 1):
        if is_prime[f]:
            is_prime[f * f::f] = [False] * len(range(f * f, limit + 1, f))
    return is_prime


def test_factorize_against_a_sieve():
    """Every m up to 20,000 is the product of its factors' powers, over
    primes in ascending order; 1 is the empty product."""
    is_prime = sieve(20_000)
    assert zqlin.factorize(1) == {}
    for m in range(1, 20_001):
        factors = zqlin.factorize(m)
        assert math.prod(p**e for p, e in factors.items()) == m, m
        assert all(is_prime[p] and e >= 1 for p, e in factors.items()), m
        assert list(factors) == sorted(factors), m
    for m in (0, -1):
        with pytest.raises(ValueError):
            zqlin.factorize(m)


PRIME_POWER_TABLE = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
                     9: (3, 2), 11: (11, 1), 13: (13, 1), 16: (2, 4), 17: (17, 1),
                     19: (19, 1), 23: (23, 1), 25: (5, 2), 27: (3, 3), 29: (29, 1),
                     31: (31, 1), 32: (2, 5)}


@pytest.mark.parametrize("q", range(-1, 65))
def test_prime_power_table(q):
    if q in PRIME_POWER_TABLE:
        assert prime_power(q) == PRIME_POWER_TABLE[q]
        return
    with pytest.raises(ValueError) as err:
        prime_power(q)
    if q < 2:
        assert str(err.value) == f"modulus must be at least 2, got {q}"
    elif q > 32:
        assert str(err.value) == f"modulus {q} exceeds cap 32"
    else:
        assert str(err.value) == f"{q} is not a prime power"


def test_mobius_by_the_divisor_sum():
    """mu(1) = 1 and the sum of mu(d) over the divisors d of m > 1 is 0."""
    mu = {1: 1}
    for m in range(2, 501):
        mu[m] = -sum(mu[d] for d in range(1, m) if m % d == 0)
    assert [mobius(m) for m in range(1, 501)] == [mu[m] for m in range(1, 501)]


def test_is_prime_against_a_sieve():
    is_prime = sieve(MAX_ELL)
    assert [m for m in range(1, MAX_ELL + 1) if _is_prime(m)] == [
        m for m in range(1, MAX_ELL + 1) if is_prime[m]]


def multiple_sizes(q, span):
    """Oracle: |p^j A| for j = 0..d, enumerated from the elements of A."""
    p, d = prime_power(q)
    return [len({tuple((p**j * x) % q for x in v) for v in span}) for j in range(d + 1)]


def diagonal_sizes(q, diag):
    """|p^j A| for j = 0..d, read off a Smith diagonal of A's rows: an
    entry p^v spans a cyclic part of order p^(d-v)."""
    p, d = prime_power(q)
    sizes = []
    for j in range(d + 1):
        size = 1
        for x in diag:
            v = d if x == 0 else next(k for k in range(d) if x % p ** (k + 1))
            size *= p ** max(d - v - j, 0)
        sizes.append(size)
    return sizes


def test_snf_zero_1x1_over_4():
    assert smith_normal_form(ZqMatrix.from_rows(4, [[0]])) == (0,)


def test_snf_identity_over_9():
    assert smith_normal_form(identity(9, 2)) == (1, 1)


def test_snf_2_over_4_against_enumeration():
    rows = [[2]]
    diag = smith_normal_form(ZqMatrix.from_rows(4, rows))
    assert diag == (2,)
    assert diagonal_sizes(4, diag) == multiple_sizes(4, brute_span(4, 1, rows)) == [2, 1, 1]


@pytest.mark.parametrize("q", MODULI)
def test_snf_random_matrices(q):
    rng = random.Random(q * 101)
    p_, _ = prime_power(q)
    for _ in range(40):
        nr = rng.randint(0, 4 if q < 8 else 3)
        nc = rng.randint(1, 4)
        rows = [[rng.randrange(q) for _ in range(nc)] for _ in range(nr)]
        diag = smith_normal_form(ZqMatrix.from_rows(q, rows, nc))
        assert len(diag) == min(nr, nc)
        # Every entry a power of p (or 0) and the chain divides in order.
        for x in diag:
            if x != 0:
                while x % p_ == 0:
                    x //= p_
                assert x == 1
        for a, b in zip(diag, diag[1:]):
            aa = a if a != 0 else q
            bb = b if b != 0 else q
            assert bb % aa == 0
        assert diagonal_sizes(q, diag) == multiple_sizes(q, brute_span(q, nc, rows))


def mixed_valuation_rows(rng, q, nrows, ncols):
    """Random rows whose entries spread over every valuation 0..d."""
    p, d = prime_power(q)
    return [[p ** rng.randint(0, d) * rng.randrange(q) % q for _ in range(ncols)]
            for _ in range(nrows)]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_cyclic_factor_count_against_pivot_scan_smith(q):
    rng = random.Random(q * 31)
    for _ in range(60):
        ambient = rng.randint(1, 8)
        rows = mixed_valuation_rows(rng, q, rng.randint(0, 8), ambient)
        m = ZqMatrix.from_rows(q, rows, ambient)
        diag = pivot_scan_smith_diagonal(m)
        assert smith_normal_form(m) == diag
        assert invariant_factors(canonicalize(q, ambient, rows)) == tuple(q // x for x in diag if x)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_invariant_factors_reuse_the_howell_basis(q, monkeypatch):
    """The factors take one Smith pass over W's Howell rows and no Howell
    form: a row with a unit pivot splits off as Z/q, and the other rows
    take one elimination on an entry of least valuation."""
    w = canonicalize(q, 6, mixed_valuation_rows(random.Random(q), q, 6, 6) + [[1, 0, 0, 0, 0, 0]])
    calls = []
    howell = zqlin._howell
    monkeypatch.setattr(zqlin, "_howell", lambda *args: calls.append(args) or howell(*args))
    assert invariant_factors(w)[0] == q
    assert calls == []


def drawn_rows(shape, q, ambient, rng):
    """Rows of one shape: mixed valuations, unit pivots only (1 at each
    pivot column, 0 at the others), a multiple of p leading each row with
    entries of any valuation after it, every entry a multiple of q/p (so
    pW = 0), or none."""
    p, _ = prime_power(q)
    nrows = rng.randint(0, ambient)
    if shape == "mixed":
        return mixed_valuation_rows(rng, q, nrows, ambient)
    if shape == "unit_pivots":
        pivots = sorted(rng.sample(range(ambient), nrows))
        return [[int(k == c) if k in pivots else rng.randrange(q) * (k > c) for k in range(ambient)]
                for c in pivots]
    if shape == "non_unit_pivots":
        return [[0] * c + [p * rng.randrange(q) % q] + [rng.randrange(q) for _ in range(ambient - 1 - c)]
                for c in sorted(rng.sample(range(ambient), nrows))]
    if shape == "p_divisible":
        return [[q // p * rng.randrange(p) for _ in range(ambient)] for _ in range(nrows)]
    return []


SHAPES = ("mixed", "unit_pivots", "non_unit_pivots", "p_divisible", "zero")


@pytest.mark.parametrize("q", PRIME_POWERS)
@settings(max_examples=16, deadline=None)
@given(shape=st.sampled_from(SHAPES), ambient=st.integers(1, 36), seed=st.integers(0, 2**32))
@example(shape="unit_pivots", ambient=36, seed=0)
@example(shape="p_divisible", ambient=36, seed=0)
@example(shape="zero", ambient=1, seed=0)
def test_invariant_factors_match_the_multiple_count(q, shape, ambient, seed):
    """The Smith pass against the orders of p^k W, each read off its own
    Howell form, on drawn Howell spans of up to 36 columns."""
    w = canonicalize(q, ambient, drawn_rows(shape, q, ambient, random.Random(seed)))
    if shape == "unit_pivots":
        assert all(next(filter(None, row)) == 1 for row in w.basis)
    assert invariant_factors(w) == multiple_count_invariant_factors(w)


def test_canonicalize_examples():
    s = canonicalize(4, 2, [(2, 0), (0, 2)])
    assert s.nrows == 2
    assert s.cardinality() == 4
    assert canonicalize(4, 2, []) == zero_subspace(4, 2)
    s3 = canonicalize(3, 2, [(1, 0), (1, 0)])
    assert s3.basis == ((1, 0),)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("ambient", [1, 2, 3, 4])
def test_canonicalize_representation_independent_exhaustive(q, ambient):
    """Equal spans must give bit-identical subspaces (two-generator sets).
    The vectors are numbered once, and each pair's span is read off one
    addition table and the vectors' multiples."""
    vectors = list(itertools.product(range(q), repeat=ambient))
    number = {v: k for k, v in enumerate(vectors)}
    add = [[number[tuple((a + b) % q for a, b in zip(u, v))] for v in vectors] for u in vectors]
    multiples = [[number[tuple(c * x % q for x in v)] for c in range(q)] for v in vectors]
    by_span = {}
    for (i, u), (j, v) in itertools.product(enumerate(vectors), repeat=2):
        span = frozenset(add[a][b] for a in multiples[i] for b in multiples[j])
        sub = canonicalize(q, ambient, (u, v))
        if ambient <= 3:
            assert {number[w] for w in subspace_vectors(sub)} == span
        assert sub.cardinality() == len(span)
        if span in by_span:
            assert by_span[span] == sub
        else:
            by_span[span] = sub
            # Idempotence, once per canonical form
            assert canonicalize(q, ambient, sub.basis) == sub


@pytest.mark.parametrize("q", PRIME_POWERS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_howell_matches_the_dense_subtraction_on_dense_rows(q, data):
    ambient = data.draw(st.integers(min_value=0, max_value=8))
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=ambient,
                                       max_size=ambient), max_size=8))
    assert zqlin._howell(q, ambient, rows) == dense_howell(q, ambient, rows)


@pytest.mark.parametrize("q", PRIME_POWERS)
@settings(max_examples=3, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(width=st.integers(1, 36), count=st.integers(0, 400), seed=st.integers(0, 2**32))
def test_howell_matches_the_dense_subtraction_on_graph_rows(q, width, count, seed):
    """Graph rows (v_j | e_j) of sparse vectors, as relations builds them,
    up to 436 columns: past MAX_AMBIENT.  A failure reports the drawn
    (width, count, seed) unshrunk, since each try takes up to 0.3 s."""
    rng = random.Random(seed)
    rows = []
    for j in range(count):
        v = [0] * width
        for k in rng.sample(range(width), rng.randint(0, min(3, width))):
            v[k] = rng.randrange(q)
        rows.append(v + [0] * j + [1] + [0] * (count - 1 - j))
    assert zqlin._howell(q, width + count, rows) == dense_howell(q, width + count, rows)


@pytest.mark.parametrize("q", MODULI)
def test_canonicalize_idempotent_random(q):
    rng = random.Random(q)
    for _ in range(30):
        ambient = rng.randint(1, 5)
        rows = [[rng.randrange(q) for _ in range(ambient)] for _ in range(rng.randint(0, 4))]
        s = canonicalize(q, ambient, rows)
        assert canonicalize(q, ambient, s.basis) == s


def test_annihilator_examples():
    assert annihilator(zero_subspace(5, 3)) == full_subspace(5, 3)
    assert annihilator(full_subspace(5, 3)) == zero_subspace(5, 3)
    w = canonicalize(4, 2, [(2, 0)])
    expected = brute_annihilator(4, 2, [(2, 0)])
    got = annihilator(w)
    assert set(subspace_vectors(got)) == expected
    assert got == canonicalize(4, 2, [(2, 0), (0, 1)])


@pytest.mark.parametrize("q", MODULI)
def test_duality_perfectness_random(q):
    rng = random.Random(q * 7)
    for _ in range(50):
        m = rng.randint(1, 4)
        rows = [[rng.randrange(q) for _ in range(m)] for _ in range(rng.randint(0, 3))]
        w = canonicalize(q, m, rows)
        a = annihilator(w)
        assert w.cardinality() * a.cardinality() == q**m
        assert annihilator(a) == w


def test_kernel_and_annihilator_of_empty_input():
    assert kernel(4, 3, []) == full_subspace(4, 3)
    assert kernel(4, 0, [[], []]) == zero_subspace(4, 0)
    assert annihilator(zero_subspace(9, 2)) == full_subspace(9, 2)
    assert annihilator(zero_subspace(9, 0)) == zero_subspace(9, 0)
    assert smith_normal_form(ZqMatrix.from_rows(4, [], 3)) == ()
    assert invariant_factors(zero_subspace(4, 2)) == ()


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_vanishing_part_against_enumeration(q):
    rng = random.Random(q * 23)
    for _ in range(40):
        ambient = rng.randint(1, 4)
        lead = rng.randint(0, ambient)
        rows = [[rng.randrange(q) for _ in range(ambient)] for _ in range(rng.randint(0, 3))]
        got = vanishing_part(canonicalize(q, ambient, rows), lead)
        assert got.ambient_dim == ambient - lead
        want = {v[lead:] for v in brute_span(q, ambient, rows) if not any(v[:lead])}
        assert set(subspace_vectors(got)) == want
        assert canonicalize(q, ambient - lead, got.basis) == got


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("width", [0, 1, 2])
@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_relations_against_enumeration(q, width, count):
    """The Howell rows of the relations among every list of count vectors
    span exactly the coefficient vectors whose combination vanishes."""
    vectors = list(itertools.product(range(q), repeat=width))
    for vs in itertools.product(vectors, repeat=count):
        rows = relations(q, width, vs)
        want = {a for a in itertools.product(range(q), repeat=count)
                if all(sum(x * v[k] for x, v in zip(a, vs)) % q == 0 for k in range(width))}
        assert set(subspace_vectors(ZqSubspace(q, count, rows))) == want
        assert canonicalize(q, count, rows).basis == rows


@pytest.mark.parametrize("q", MODULI)
def test_kernel_is_the_relations_among_the_columns(q):
    rng = random.Random(q * 31)
    for nrows, ncols in [(0, 0), (0, 3), (2, 0), *((rng.randint(1, 4), rng.randint(1, 4))
                                                   for _ in range(30))]:
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        columns = [tuple(row[j] for row in rows) for j in range(ncols)]
        assert kernel(q, ncols, rows) == ZqSubspace(q, ncols, relations(q, nrows, columns))


def test_kernel_rejects_ragged_rows():
    """A row of any other length than ncols raises, as a ZqMatrix of the
    rows did: the columns are read by zip, which would drop the entries
    past the shortest row."""
    for rows in ([(1, 0), (0, 1, 0)], [(1, 0, 0), (1,)], [(), (1, 0)], [(1, 2, 3)]):
        with pytest.raises(zqlin.DimensionMismatch, match="ragged rows"):
            kernel(4, 2, rows)


def test_relations_past_max_ambient():
    """More vectors than MAX_AMBIENT: the relation rows are longer than any
    ZqSubspace, and each one is a relation."""
    rng = random.Random(300)
    vs = [[rng.randrange(4) for _ in range(3)] for _ in range(300)]
    rows = relations(4, 3, vs)
    orders = [4 // next(x for x in row if x) for row in rows]
    assert math.prod(orders) * canonicalize(4, 3, vs).cardinality() == 4**300
    for row in rows:
        assert all(sum(a * v[k] for a, v in zip(row, vs)) % 4 == 0 for k in range(3))


def test_kernel_examples():
    assert kernel(3, 3, identity(3, 3).entries) == zero_subspace(3, 3)
    m = ZqMatrix.from_rows(4, [[2, 0], [0, 0]])
    got = kernel(4, 2, m.entries)
    oracle = {v for v in itertools.product(range(4), repeat=2)
              if all(x == 0 for x in m.apply_to_vector(v))}
    assert set(subspace_vectors(got)) == oracle
    assert got == canonicalize(4, 2, [(2, 0), (0, 1)])
    assert row_space(zero(5, 2, 3).transpose()) == zero_subspace(5, 2)


@pytest.mark.parametrize("q", MODULI)
def test_kernel_image_cardinality(q):
    rng = random.Random(q * 13)
    for _ in range(30):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        m = ZqMatrix.from_rows(q, [[rng.randrange(q) for _ in range(nc)] for _ in range(nr)])
        k = kernel(q, nc, m.entries)
        im = row_space(m.transpose())
        assert k.cardinality() * im.cardinality() == q**nc
        for v in subspace_vectors(k):
            assert all(x == 0 for x in m.apply_to_vector(v))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_sum_intersect_against_enumeration(q):
    rng = random.Random(q * 17)
    for _ in range(25):
        ambient = rng.randint(1, 3)
        rows_a = [[rng.randrange(q) for _ in range(ambient)] for _ in range(rng.randint(0, 2))]
        rows_b = [[rng.randrange(q) for _ in range(ambient)] for _ in range(rng.randint(0, 2))]
        a = canonicalize(q, ambient, rows_a)
        b = canonicalize(q, ambient, rows_b)
        sa = brute_span(q, ambient, rows_a)
        sb = brute_span(q, ambient, rows_b)
        s = subspace_sum(a, b)
        sumset = {tuple((x + y) % q for x, y in zip(u, v)) for u in sa for v in sb}
        assert set(subspace_vectors(s)) == sumset
        inter = subspace_intersect(a, b)
        assert set(subspace_vectors(inter)) == (sa & sb)
        assert subspace_sum(a, a) == a


def test_coset_reduction_is_canonical():
    # Representatives must be constant on cosets: check by enumeration.
    for q, ambient, rows in [(4, 2, [(2, 1)]), (2, 3, [(1, 1, 0)]), (9, 2, [(3, 1)])]:
        w = canonicalize(q, ambient, rows)
        elements = set(subspace_vectors(w))
        for v in itertools.product(range(q), repeat=ambient):
            red = w.reduce_vector(v)
            for x in elements:
                shifted = tuple((a + b) % q for a, b in zip(v, x))
                assert w.reduce_vector(shifted) == red


def test_subspace_construction_validated():
    with pytest.raises(ValueError):
        ZqSubspace(64, 2, ())  # modulus over the cap
    with pytest.raises(ValueError):
        ZqSubspace(4, 2, ((0, 0),))  # zero basis row
    with pytest.raises(ValueError):
        ZqSubspace(4, 2, ((5, 0),))  # entry not reduced
    for bad in ((1, -1), (4, 1), (1, 0, 0, 4)):  # negative, equal to q, last entry
        with pytest.raises(ValueError):
            ZqSubspace(4, len(bad), (bad,))
        with pytest.raises(ValueError):
            ZqMatrix(4, 1, len(bad), (bad,))
    with pytest.raises(zqlin.DimensionMismatch):
        ZqSubspace(4, 2, ((1, 0), (0, 1, 0)))  # ragged
    with pytest.raises(zqlin.DimensionMismatch):
        ZqMatrix(4, 2, 2, ((1, 0), (0, 1, 0)))
    empty = ZqMatrix(4, 3, 0, ((), (), ()))  # 0 columns: rows are empty
    assert kernel(4, 0, empty.entries) == zero_subspace(4, 0)


def test_invariant_factors():
    assert invariant_factors(canonicalize(4, 2, [(2, 0), (0, 2)])) == (2, 2)
    assert invariant_factors(canonicalize(4, 2, [(1, 0)])) == (4,)
    assert invariant_factors(zero_subspace(4, 2)) == ()
    assert invariant_factors(canonicalize(4, 2, [(2, 1)])) == (4,)


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from(MODULI),
    data=st.data(),
)
def test_double_annihilator_property(q, data):
    ambient = data.draw(st.integers(min_value=1, max_value=4))
    nrows = data.draw(st.integers(min_value=0, max_value=3))
    rows = [
        [data.draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(ambient)]
        for _ in range(nrows)
    ]
    w = canonicalize(q, ambient, rows)
    assert annihilator(annihilator(w)) == w
    assert w.cardinality() * annihilator(w).cardinality() == q**ambient


def private_zqlin_uses(source: str) -> list[str]:
    """The _-prefixed zqlin names that a module's source imports or reads
    as an attribute of the zqlin module, under any name it binds it to."""
    tree = ast.parse(source)
    aliases, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("zqlin", "gq3.zqlin"):
                uses += [a.name for a in node.names if a.name.startswith("_")]
            elif node.module in (None, "gq3"):
                aliases |= {a.asname or a.name for a in node.names if a.name == "zqlin"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "gq3.zqlin" and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            value = node.value
            if (isinstance(value, ast.Name) and value.id in aliases
                    or ast.unparse(value) == "gq3.zqlin"):
                uses.append(node.attr)
    return uses


def test_private_zqlin_names_stay_in_zqlin():
    """Howell rows, graph rows and vanishing parts are read through public
    zqlin functions only."""
    sources = sorted(Path(zqlin.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        if path.name != "zqlin.py":
            assert private_zqlin_uses(path.read_text(encoding="utf-8")) == [], path.name


def test_private_zqlin_use_is_found():
    assert private_zqlin_uses("from .zqlin import _howell, canonicalize") == ["_howell"]
    assert private_zqlin_uses("from . import zqlin as z\nz._vanishing(rows, 2)") == ["_vanishing"]
    assert private_zqlin_uses("import gq3.zqlin\ngq3.zqlin._howell(2, 1, [])") == ["_howell"]
    assert private_zqlin_uses("from .zqlin import canonicalize\nx._howell") == []
