import functools
import itertools
import json
import math
import random
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gq3.milnor import (
    MAX_DEGREE,
    MAX_ELL,
    MAX_RANK,
    FieldPreset,
    GradedAlgebra,
    PresetError,
    galois_symbol_compare,
    hilbert_relation_span,
    hilbert_symbol_two_adic,
    milnor_mod_q,
    parse_preset,
    preset_presentation,
    preset_relations,
    presentation_zero_pairs,
    quadratic_hull,
    steinberg_relations_finite,
    steinberg_relations_tame,
    _is_prime,
    _unit_valuations,
    _valuation_rows,
)
from gq3.cohom import cohomology_data_from_presentation, cup_rows
from gq3.presentations import make_presentation
from gq3.trunc import TruncGroup, pair_list
from gq3.zqlin import (
    MAX_AMBIENT,
    ZqSubspace,
    canonicalize,
    full_subspace,
    kernel,
    zero_subspace,
)
from oracles import (
    SQUARE_CLASSES_Q2,
    DictCohomologyTables,
    _dlog_table,
    _primitive_root,
    closed_form_hilbert_two_adic,
    degree_by_degree_symbol_compare,
    invariant_factor_divisors,
    pair_sweep_finite,
    pair_sweep_tame,
    pairwise_hilbert_two_adic,
    representative_hilbert_rows,
    slot_hull_component,
    square_class_vector,
    tame_symbol_kernel,
    valuation_rows_every_class,
)
from test_cli import count_calls

GOLDEN = Path(__file__).parent / "golden"


def grcomm_subspace(q, m):
    rows = []
    for i in range(m):
        for j in range(i, m):
            row = [0] * (m * m)
            if i == j:
                row[i * m + i] = 2 % q
            else:
                row[i * m + j] = 1
                row[j * m + i] = 1
            rows.append(row)
    return canonicalize(q, m * m, rows)


# ---------------------------------------------------------------------------
# Hulls


def test_hull_everything_vanishes():
    zp = full_subspace(3, 4)
    hull = quadratic_hull(3, 2, zp, 4)
    for r in range(2, 5):
        assert hull.degree_cardinality(r) == 1


def test_hull_no_relations():
    zp = zero_subspace(5, 4)
    hull = quadratic_hull(5, 2, zp, 3)
    assert hull.degree_cardinality(2) == 5**4
    assert hull.degree_cardinality(3) == 5**8
    # graded commutativity does not hold
    assert not all(hull.components[2].contains(row) for row in grcomm_subspace(5, 2).basis)


def test_hull_spec_degree2_rank0():
    # rank 2 over q = 2 with all squares, the symmetric row, and one
    # off-diagonal product vanishing: degree 2 collapses entirely
    rows = [
        (1, 0, 0, 0),  # x (x) x
        (0, 0, 0, 1),  # y (x) y
        (0, 1, 1, 0),  # x (x) y + y (x) x
        (0, 1, 0, 0),  # x (x) y
    ]
    zp = canonicalize(2, 4, rows)
    hull = quadratic_hull(2, 2, zp, 3)
    assert hull.degree_rank(2) == 0
    assert hull.degree_cardinality(2) == 1


def test_hull_idempotent():
    rng = random.Random(7)
    for q in (2, 3, 4):
        for _ in range(10):
            m = rng.randint(1, 2)
            rows = [
                [rng.randrange(q) for _ in range(m * m)] for _ in range(rng.randint(0, 3))
            ]
            zp = canonicalize(q, m * m, rows)
            hull = quadratic_hull(q, m, zp, 4)
            rebuilt = quadratic_hull(q, m, hull.components[2], 4)
            assert rebuilt.components == hull.components
            for r in range(1, 5):
                assert math.prod(hull.degree_divisors(r)) == hull.degree_cardinality(r)


def test_quadraticity_detects_extra_relation():
    # only x (x) x vanishes in degree 2; y (x) y (x) y survives in the hull
    zp = canonicalize(3, 4, [(1, 0, 0, 0)])
    hull = quadratic_hull(3, 2, zp, 3)
    extra = [0] * 8
    extra[7] = 1  # an artificial degree-3 relation y(x)y(x)y
    assert not hull.components[3].contains(extra)
    comps = dict(hull.components)
    comps[3] = canonicalize(3, 8, list(comps[3].basis) + [extra])
    bigger = GradedAlgebra(3, 2, comps)
    rebuilt = quadratic_hull(3, 2, bigger.components[2], 3)
    assert rebuilt.components[2] == bigger.components[2]
    assert rebuilt.components[3] != bigger.components[3]


def test_zero_algebra_quadratic():
    comps = {2: full_subspace(2, 4), 3: full_subspace(2, 8)}
    a = GradedAlgebra(2, 2, comps)
    hull = quadratic_hull(2, 2, a.components[2], 3)
    assert [hull.relations(r) for r in (2, 3)] == [a.components[2], a.components[3]]


def test_degrees_past_the_bound_are_refused():
    """Only a full last degree answers the degrees past it: a hull with no
    full degree up to r_max has no degree r_max + 1."""
    hull = quadratic_hull(3, 2, canonicalize(3, 4, [(1, 0, 0, 0)]), 3)
    for read in (hull.relations, hull.relation_rows, hull.degree_divisors):
        with pytest.raises(KeyError):
            read(4)


@pytest.mark.parametrize("command", ["kmilnor", "galois-check"])
@pytest.mark.parametrize("field, m", [("two_adic", 3), ("tame_local:13", 2)])
def test_no_subspace_is_built_past_the_first_full_degree(capsys, monkeypatch, command, field, m):
    """K_r/2 = 0 from degree 3 on for both fields: T_3 (ambient m^3) is
    full, so degree 4 (ambient m^4, 81 and 16) is answered without a
    subspace, in the printed relations too."""
    from gq3.cli import main

    ambients = []
    original = ZqSubspace.__new__

    def recording(cls, q, ambient_dim, basis):
        ambients.append(ambient_dim)
        return original(cls, q, ambient_dim, basis)

    monkeypatch.setattr(ZqSubspace, "__new__", staticmethod(recording))
    code = main([command, "--field", field, "--q", "2"])
    assert code == 0, capsys.readouterr().err
    assert m**3 in ambients and m**4 not in ambients


def test_hull_caps_bound_the_tensor_space():
    """quadratic_hull checks only the rank and the degree bound against
    their caps: every degree's tensor space, of dimension rank^r, must stay
    within the ambient cap of ZqSubspace."""
    assert MAX_RANK**MAX_DEGREE <= MAX_AMBIENT


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 32])
def test_quadratic_hull_matches_the_slot_builder(q):
    """Every degree of the hull equals the span of the relations placed
    slot by slot, on seeded random relation subspaces of every rank
    <= 4 and degree bound with rank^r_max <= 256, and past a full degree:
    T_2 full, and the exterior relations x (x) x, x (x) y + y (x) x on two
    generators, whose T_3 is full while T_2 is not."""
    rng = random.Random(q)
    cases = []
    for m, r_max in [(1, 4), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4)]:
        for _ in range(2):
            rows = [[rng.randrange(q) if rng.random() < 0.4 else 0 for _ in range(m * m)]
                    for _ in range(rng.randint(1, 4))]
            cases.append((m, r_max, canonicalize(q, m * m, rows)))
    exterior = canonicalize(q, 4, [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 0, 1)])
    ext = quadratic_hull(q, 2, exterior, 3)
    assert (ext.degree_cardinality(2), ext.degree_cardinality(3)) == (q, 1)
    cases += [(3, 4, full_subspace(q, 9)), (2, 4, exterior)]
    for m, r_max, zp in cases:
        hull = quadratic_hull(q, m, zp, r_max)
        for r in range(3, r_max + 1):
            assert hull.relations(r) == slot_hull_component(q, m, zp, r), (m, r, zp)
            assert hull.relation_rows(r) == hull.relations(r).basis, (m, r, zp)


def tensor_shift(row, m, r, i, prepend):
    """e_i (x) row or row (x) e_i in the degree-(r+1) coordinates."""
    out = [0] * m ** (r + 1)
    for idx, x in enumerate(row):
        out[i * m**r + idx if prepend else idx * m + i] = x
    return out


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 8, 9]),
    m=st.integers(min_value=1, max_value=3),
    r_max=st.integers(min_value=3, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_hull_is_an_ideal(q, m, r_max, seed):
    """e_i (x) T_r and T_r (x) e_i lie in T_{r+1}: the hull's relations
    form a two-sided ideal, so the hull is an algebra."""
    rng = random.Random(seed)
    rows = [[rng.randrange(q) for _ in range(m * m)] for _ in range(rng.randint(0, 3))]
    hull = quadratic_hull(q, m, canonicalize(q, m * m, rows), r_max)
    for r in range(2, r_max):
        t_next = hull.relations(r + 1)
        for row in hull.relations(r).basis:
            for i in range(m):
                assert t_next.contains(tensor_shift(row, m, r, i, prepend=True))
                assert t_next.contains(tensor_shift(row, m, r, i, prepend=False))


@settings(max_examples=30, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4]),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_hull_functorial_under_degree1_maps(q, seed):
    """A degree-1 map sending relations into relations induces maps of
    every hull degree."""
    rng = random.Random(seed)
    m = 2
    rows = [[rng.randrange(q) for _ in range(4)] for _ in range(rng.randint(0, 2))]
    zp_a = canonicalize(q, 4, rows)
    phi = [[rng.randrange(q) for _ in range(m)] for _ in range(m)]

    def map_tensor(row, r):
        out = [0] * m**r
        for idx, x in enumerate(row):
            if not x:
                continue
            digits = []
            v = idx
            for _ in range(r):
                digits.append(v % m)
                v //= m
            digits.reverse()
            # expand phi(e_{d1}) (x) ... multilinearly
            for images in itertools.product(range(m), repeat=r):
                coeff = x
                for d, im in zip(digits, images):
                    coeff = (coeff * phi[d][im]) % q
                if coeff:
                    pos = 0
                    for im in images:
                        pos = pos * m + im
                    out[pos] = (out[pos] + coeff) % q
        return out

    mapped = canonicalize(q, 4, [map_tensor(r_, 2) for r_ in zp_a.basis])
    zp_b = canonicalize(q, 4, list(mapped.basis) + [[rng.randrange(q) for _ in range(4)]])
    hull_a = quadratic_hull(q, m, zp_a, 3)
    hull_b = quadratic_hull(q, m, zp_b, 3)
    # functoriality: phi^{(x)r} carries T_r(A) into T_r(B)
    for r in range(2, 4):
        for row in hull_a.relations(r).basis:
            assert hull_b.relations(r).contains(map_tensor(row, r))


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 8, 9]),
    m=st.integers(min_value=1, max_value=3),
    r_max=st.integers(min_value=2, max_value=4),
    full_degree2=st.booleans(),
    data=st.data(),
)
def test_degree_divisors_match_the_invariant_factor_oracle(q, m, r_max, full_degree2, data):
    """degree_divisors, which skips full degrees, equals the invariant
    factors of T_r read in every degree; half the draws add every unit
    vector, so that T_2 and each degree after it is full."""
    row = st.lists(st.integers(min_value=0, max_value=q - 1), min_size=m * m, max_size=m * m)
    rows = data.draw(st.lists(row, max_size=4))
    if full_degree2:
        rows += [[int(i == j) for j in range(m * m)] for i in range(m * m)]
    hull = quadratic_hull(q, m, canonicalize(q, m * m, rows), r_max)
    for r in range(1, r_max + 1):
        assert hull.degree_divisors(r) == invariant_factor_divisors(hull, r), (r, rows)


def _golden_preset_queries():
    from gq3.cli import parse_args

    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    queries = set()
    for case in cases.values():
        if case["argv"][:1] in (["kmilnor"], ["galois-check"]) and case["exit"] in (0, 1):
            args = parse_args(case["argv"])
            queries.add((args.field, args.q, args.rmax))
    return sorted(queries)


@pytest.mark.parametrize("field, q, r_max", _golden_preset_queries())
def test_golden_preset_divisors_match_the_invariant_factor_oracle(field, q, r_max):
    hull = milnor_mod_q(parse_preset(field), q, r_max)
    for r in range(1, r_max + 1):
        assert hull.degree_divisors(r) == invariant_factor_divisors(hull, r), r


def test_kmilnor_runs_no_invariant_factors_on_full_degrees(capsys, monkeypatch):
    """K_r(Q_2)/2 = 0 for r >= 3: degrees 3 and 4 are full, so only the
    degree-2 relations (9 coordinates) reach invariant_factors."""
    import gq3.milnor
    from gq3.cli import main

    calls = []
    count_calls(monkeypatch, calls, gq3.milnor, "invariant_factors")
    code = main(["kmilnor", "--field", "two_adic", "--q", "2"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert [json.loads(out)["degrees"][r]["divisors"] for r in "34"] == [[], []]
    assert [args[0].ambient_dim for args in calls] == [9]


# ---------------------------------------------------------------------------
# Finite field presets


@pytest.mark.parametrize("ell,q", [(5, 2), (7, 2), (7, 3), (13, 3), (13, 2)])
def test_finite_field_k2_vanishes(ell, q):
    a = milnor_mod_q(FieldPreset("finite_field", ell), q)
    assert a.degree_rank(1) == 1
    assert a.degree_cardinality(2) == 1
    for r in range(3, 5):
        assert a.degree_cardinality(r) == 1


@functools.cache
def _prime_dlog_table(ell):
    """The dlog table of F_ell to the oracles' _primitive_root(ell), built
    once per prime for every test that reads it: 2-byte entries, as
    ell <= MAX_ELL < 2^16, so about 11 MB for all primes inside the cap."""
    return array("H", _dlog_table(ell, _primitive_root(ell)))


def test_primitive_root_generates_every_unit():
    """The dlog table of the oracles' _primitive_root(ell) visits each unit
    of F_ell once, for every prime ell up to the cap.  Trial division
    leaves a prime factor above the square root of ell - 1 to the end, as
    in 9839 - 1 = 2 * 4919 and 9679 - 1 = 2 * 3 * 1613."""
    for ell in range(2, MAX_ELL + 1):
        if _is_prime(ell):
            assert sorted(_prime_dlog_table(ell)[1:]) == list(range(ell - 1)), ell


PRIME_POWERS = [q for q in range(2, 33) if len({f for f in range(2, q + 1)
                                                 if q % f == 0 and _is_prime(f)}) == 1]


def _preset_pairs(ell_max):
    """Every (ell, q) with ell <= ell_max prime and q <= 32 a prime power
    dividing ell - 1."""
    return [(ell, q) for ell in range(3, ell_max + 1) if _is_prime(ell)
            for q in PRIME_POWERS if (ell - 1) % q == 0]


def test_unit_valuations_read_the_dlog_table():
    """v_p(class(c)) is the valuation of dlog(c) mod q, d for class 0, for
    every unit c of every preset pair with ell <= 3000, the dlog taken to
    the oracles' primitive root."""
    for ell, pairs in itertools.groupby(_preset_pairs(3000), key=lambda pair: pair[0]):
        table = _prime_dlog_table(ell)
        for _, q in pairs:
            p = min(f for f in PRIME_POWERS if q % f == 0)
            # gcd(x, q) = p^v(x), and gcd(0, q) = q = p^d
            by_class = [round(math.log(math.gcd(x, q), p)) for x in range(q)]
            val = _unit_valuations(ell, q)
            assert [val(c) for c in range(1, ell)] == [by_class[e % q] for e in table[1:]], (ell, q)


def test_minus_one_class_is_in_closed_form(monkeypatch):
    """The tame sweep's s = class(-1) is dlog(-1) mod q, to the oracles'
    primitive root, on every preset pair inside the caps."""
    import gq3.milnor

    calls = []
    count_calls(monkeypatch, calls, gq3.milnor, "_valuation_rows")
    for ell, pairs in itertools.groupby(_preset_pairs(MAX_ELL), key=lambda pair: pair[0]):
        minus_one = _prime_dlog_table(ell)[ell - 1]
        for _, q in pairs:
            calls.clear()
            steinberg_relations_tame(ell, q)
            assert {s for *_, s in calls} == {minus_one % q}, (ell, q)


NEAR_CAP = [(9857, 32), (9973, 2), (9241, 2), (9241, 4), (9241, 8), (9601, 32)]


@pytest.mark.parametrize("q", PRIME_POWERS + ["near-cap"])
def test_steinberg_sweeps_match_the_full_pair_sweep(q):
    """The sweeps that stop at the first unit class product give the spans
    of the sweeps over every class pair of a full dlog table: for every
    prime ell <= 2000 with q | ell - 1, and near the cap, where 9241/8
    visits the most units (51)."""
    pairs = NEAR_CAP if q == "near-cap" else [(ell, q_) for ell, q_ in _preset_pairs(2000)
                                               if q_ == q]
    for ell, q_ in pairs:
        assert steinberg_relations_finite(ell, q_) == pair_sweep_finite(ell, q_), (ell, q_)
        assert steinberg_relations_tame(ell, q_) == pair_sweep_tame(ell, q_), (ell, q_)


def test_steinberg_sweep_stops_within_64_units(monkeypatch):
    """Over every preset pair inside the caps, the sweep evaluates at most
    64 values of c before a class product is a unit."""
    import gq3.milnor

    original = gq3.milnor._unit_valuations
    calls = []

    def counting_unit_valuations(ell, q):
        val = original(ell, q)
        return lambda c: calls.append(c) or val(c)

    monkeypatch.setattr(gq3.milnor, "_unit_valuations", counting_unit_valuations)
    for ell, q in _preset_pairs(MAX_ELL):
        calls.clear()
        steinberg_relations_finite(ell, q)
        assert len(calls) <= 2 * 64, (ell, q, len(calls) // 2)  # v(c) and v(1 - c)


def test_finite_field_preset_validation():
    with pytest.raises(PresetError, match="roots of unity"):
        milnor_mod_q(FieldPreset("finite_field", 7), 5)
    with pytest.raises(PresetError, match="prime"):
        FieldPreset("finite_field", 10)


# ---------------------------------------------------------------------------
# Tame local presets


@pytest.mark.parametrize("ell,q", [(5, 2), (13, 2), (7, 3), (5, 4), (31, 5), (3, 2)])
def test_tame_local_ranks(ell, q):
    a = milnor_mod_q(FieldPreset("tame_local", ell), q)
    assert a.degree_rank(1) == 2
    assert a.degree_rank(2) == 1
    assert a.degree_divisors(2) == (q,)
    assert a.degree_cardinality(3) == 1
    assert a.degree_cardinality(4) == 1
    # the unit-uniformizer symbol generates degree 2: never a relation
    assert not a.components[2].contains([0, 1, 0, 0])
    assert all(a.components[2].contains(row) for row in grcomm_subspace(q, 2).basis)


def test_tame_local_unit_uniformizer_symbol_nonzero():
    # the (u, t) tensor must stay out of the relation span: its tame
    # symbol is the nontrivial unit class
    for ell, q in [(5, 2), (7, 3), (3, 2)]:
        t2 = steinberg_relations_tame(ell, q)
        e_ut = [0, 1, 0, 0]
        assert not t2.contains(e_ut)


def test_tame_window_doubling_stable(monkeypatch):
    import gq3.milnor

    assert gq3.milnor.TAME_WINDOW == 2
    for ell, q in [(5, 2), (7, 3)]:
        t2 = steinberg_relations_tame(ell, q)
        with monkeypatch.context() as m:
            m.setattr(gq3.milnor, "TAME_WINDOW", 4)
            assert steinberg_relations_tame(ell, q) == t2


def _tame_oracle_cases():
    """(ell, q) for every prime power q <= 32 in use: the three smallest
    ell = 1 mod q and the largest below the cap, plus more ell = 1 mod 32."""
    primes = [ell for ell in range(3, 10_000) if all(ell % f for f in range(2, math.isqrt(ell) + 1))]
    cases = {(97, 32), (193, 32), (257, 32), (353, 32), (1889, 32)}
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32):
        usable = [ell for ell in primes if (ell - 1) % q == 0]
        cases |= {(ell, q) for ell in usable[:3] + usable[-1:]}
    return sorted(cases)


@pytest.mark.parametrize("ell, q", _tame_oracle_cases())
def test_tame_span_is_the_kernel_of_the_tame_symbol(ell, q):
    f, kernel_rows = tame_symbol_kernel(ell, q)
    t2 = steinberg_relations_tame(ell, q)
    assert all(sum(x * y for x, y in zip(f, row)) % q == 0 for row in t2.basis)
    assert all(t2.contains(row) for row in kernel_rows)


def test_tame_sweep_canonicalizes_one_row_per_class_pair(monkeypatch):
    import gq3.milnor

    calls = []
    count_calls(monkeypatch, calls, gq3.milnor, "canonicalize")
    ell, q = 9973, 2
    steinberg_relations_tame(ell, q)
    grcomm_rows = 3  # x(x)y + y(x)x for the pair (u, t), 2 x(x)x for u and t
    assert 0 < sum(len(rows) for *_, rows in calls) <= grcomm_rows + q**4


def test_three_rows_span_every_class_of_a_valuation():
    """For every prime power q <= 32, every s = class(-1) in Z/q and every
    v in -4..-1, the rows of the classes 0, 1 and -1 span the rows of all q
    classes."""
    for q in PRIME_POWERS:
        for s in range(q):
            for v in range(-4, 0):
                three = _valuation_rows(q, v, 1, s)
                assert len(three) <= 3
                assert canonicalize(q, 4, three) == canonicalize(
                    q, 4, valuation_rows_every_class(q, v, 1, s)), (q, s, v)


def test_tame_sweep_at_q32_handles_three_rows_per_valuation(monkeypatch):
    """At (ell, q) = (9857, 32) the sweep hands canonicalize the graded
    commutativity rows, the unit row and three rows per negative valuation,
    and tests at most three rows per valuation the wider window adds."""
    import gq3.milnor

    sizes, tested = [], []
    original_canonicalize, original_contains = gq3.milnor.canonicalize, ZqSubspace.contains

    def counting_canonicalize(q, ambient, rows):
        rows = list(rows)
        sizes.append(len(rows))
        return original_canonicalize(q, ambient, rows)

    def counting_contains(self, vec):
        tested.append(tuple(vec))
        return original_contains(self, vec)

    monkeypatch.setattr(gq3.milnor, "canonicalize", counting_canonicalize)
    monkeypatch.setattr(ZqSubspace, "contains", counting_contains)
    window = gq3.milnor.TAME_WINDOW
    steinberg_relations_tame(9857, 32)
    assert 0 < sum(sizes) <= 3 + 1 + 3 * window
    assert 0 < len(tested) <= 3 * window


# ---------------------------------------------------------------------------
# Dyadic preset


@pytest.mark.parametrize("bits", [8, 10])
def test_hilbert_oracle_matches_classical_formula(bits):
    for a, b in itertools.product(SQUARE_CLASSES_Q2, repeat=2):
        assert hilbert_symbol_two_adic(a, b, bits) == closed_form_hilbert_two_adic(a, b), (a, b)


@pytest.mark.parametrize("bits", range(3, 11))
def test_hilbert_symbol_matches_the_pairwise_square_loop(bits):
    """The bitmask test decides every class pair as the pair-by-pair
    square test does, also at precisions too low to give the symbol."""
    for a, b in itertools.product(SQUARE_CLASSES_Q2, repeat=2):
        assert hilbert_symbol_two_adic(a, b, bits) == pairwise_hilbert_two_adic(a, b, bits), (a, b)


def test_hilbert_relation_span_against_closed_form():
    """T_2 of the dyadic preset is the kernel of the symbol pairing: on the
    basis (-1, 2, 5) a tensor is a relation iff sum t_ij [(e_i, e_j)_2 = -1]
    is even."""
    basis = (-1, 2, 5)
    pairing = [1 if closed_form_hilbert_two_adic(a, b) == -1 else 0
               for a in basis for b in basis]
    span = hilbert_relation_span()
    for t in itertools.product(range(2), repeat=9):
        relation = sum(x * y for x, y in zip(t, pairing)) % 2 == 0
        assert span.contains(t) == relation, t


def test_hilbert_minus_one_minus_one_nontrivial():
    assert hilbert_symbol_two_adic(-1, -1) == -1
    span = hilbert_relation_span()
    vec = square_class_vector(-1)
    row = [0] * 9
    for i in range(3):
        for j in range(3):
            row[i * 3 + j] = vec[i] * vec[j]
    assert not span.contains(row)


def test_hilbert_precision_stability():
    assert hilbert_relation_span(8) == hilbert_relation_span(10)


@pytest.mark.parametrize("bits", [8, 10])
def test_dyadic_sweep_is_the_representative_sweep(monkeypatch, bits):
    """The eight representatives' class vectors are all of F_2^3, so the
    sweep over the vectors hands canonicalize the rows the sweep over the
    representatives does, and spans what it spans."""
    import gq3.milnor

    assert sorted(map(square_class_vector, SQUARE_CLASSES_Q2)) == sorted(
        itertools.product((0, 1), repeat=3))
    calls = []
    original = gq3.milnor.canonicalize
    count_calls(monkeypatch, calls, gq3.milnor, "canonicalize")
    span = hilbert_relation_span(bits)
    rows = representative_hilbert_rows(bits)
    assert [sorted(map(tuple, handed)) for *_, handed in calls] == [sorted(map(tuple, rows))]
    assert span == original(2, 9, rows)


def test_hilbert_symbol_is_bimultiplicative():
    """(ab, c) = (a, c)(b, c) and (c, ab) = (c, a)(c, b) over all 8^3 class
    triples at 8 bits, ab reduced to its class representative: what lets
    hilbert_relation_span read every pair off the basis pairs."""
    by_vector = {square_class_vector(a): a for a in SQUARE_CLASSES_Q2}
    symbol = {(a, b): hilbert_symbol_two_adic(a, b, 8)
              for a, b in itertools.product(SQUARE_CLASSES_Q2, repeat=2)}
    for a, b, c in itertools.product(SQUARE_CLASSES_Q2, repeat=3):
        ab = by_vector[tuple((x + y) % 2 for x, y in
                             zip(square_class_vector(a), square_class_vector(b)))]
        assert symbol[ab, c] == symbol[a, c] * symbol[b, c], (a, b, c)
        assert symbol[c, ab] == symbol[c, a] * symbol[c, b], (a, b, c)


@pytest.mark.parametrize("command", ["kmilnor", "galois-check"])
def test_dyadic_query_square_tests_the_basis_pairs_only(capsys, monkeypatch, command):
    """One square-test table at 8 bits and one at 10, each over the three
    basis classes on both sides: nine pairs per precision."""
    import gq3.milnor
    from gq3.cli import main

    calls = []
    count_calls(monkeypatch, calls, gq3.milnor, "_symbol_table")
    code = main([command, "--field", "two_adic", "--q", "2"])
    assert code == 0, capsys.readouterr().err
    basis = (-1, 2, 5)
    assert calls == [(basis, basis, 8), (basis, basis, 10)]


def test_dyadic_relations_build_one_span(monkeypatch):
    """The 2^8 and 2^10 basis-symbol tables are compared, and the relation
    span is built once, from the table they agree on."""
    import gq3.milnor

    calls = []
    count_calls(monkeypatch, calls, gq3.milnor, "canonicalize")
    t2, names = preset_relations(FieldPreset("two_adic"), 2)
    assert [call[:2] for call in calls] == [(2, 9)]
    assert t2 == hilbert_relation_span(8) and names == ("-1", "2", "5")


def test_two_adic_algebra_shape():
    a = milnor_mod_q(FieldPreset("two_adic"), 2)
    assert a.degree_rank(1) == 3
    assert a.degree_rank(2) == 1
    assert a.degree_cardinality(3) == 1


def test_two_adic_rejects_odd_q():
    with pytest.raises(PresetError):
        milnor_mod_q(FieldPreset("two_adic"), 3)


# ---------------------------------------------------------------------------
# Matched presentations and the comparison


def test_preset_presentation_exponents():
    p, corr = preset_presentation(FieldPreset("tame_local", 7), 3)
    assert p.relator_sources == ("x2^3 [x1,x2]",)
    p, corr = preset_presentation(FieldPreset("tame_local", 5), 2)
    assert p.relator_sources == ("x2^4 [x1,x2]",)
    assert corr == {"u": "x1", "t": "x2"}


def test_galois_compare_tame_examples():
    for ell, q in [(5, 2), (13, 2), (7, 3)]:
        preset = FieldPreset("tame_local", ell)
        p, corr = preset_presentation(preset, q)
        report = galois_symbol_compare(preset, p, corr)
        assert report.verdict == "isomorphic", (ell, q, report.to_json_dict())
        assert report.data["degree_ranks_field"] == [2, 1, 0, 0]


def test_galois_compare_finite_vs_free():
    preset = FieldPreset("finite_field", 7)
    p, corr = preset_presentation(preset, 3)
    report = galois_symbol_compare(preset, p, corr)
    assert report.verdict == "isomorphic"
    assert report.data["degree_ranks_field"] == [1, 0, 0, 0]


def test_galois_compare_wrong_correspondence_fails():
    # asymmetric Bockstein: q = 2 with q exactly dividing ell - 1 puts
    # the diagonal relation on the uniformizer side only; swapping the
    # correspondence must be detected at degree 2
    preset = FieldPreset("tame_local", 3)
    p, corr = preset_presentation(preset, 2)
    good = galois_symbol_compare(preset, p, corr)
    assert good.verdict == "isomorphic"
    swapped = {"u": corr["t"], "t": corr["u"]}
    bad = galois_symbol_compare(preset, p, swapped)
    assert bad.verdict == "not-isomorphic"
    assert any(t.name == "degree-2" and t.status == "triggered" for t in bad.tests)


def test_two_adic_matched_presentation_consistent():
    preset = FieldPreset("two_adic")
    p, corr = preset_presentation(preset, 2)
    report = galois_symbol_compare(preset, p, corr)
    assert report.verdict == "isomorphic", report.to_json_dict()


@pytest.mark.parametrize("argv, hulls", [
    (["galois-check", "--field", "two_adic", "--q", "2"], 1),
    (["galois-check", "--field", "tame_local:3", "--q", "2", "inputs/tame3_q2.pres",
      "--map", "u:x2, t:x1"], 2),
    (["galois-check", "--field", "two_adic", "--q", "2", "--map", "-1:x2, 2:x1, 5:x3"], 2),
])
def test_galois_check_builds_one_hull_when_the_relations_agree(capsys, monkeypatch, argv, hulls):
    """The presentation side reuses the field hull when the degree-2
    relation subspaces are equal, and builds its own when they differ."""
    import gq3.milnor
    from gq3.cli import main

    calls = []
    count_calls(monkeypatch, calls, gq3.milnor, "quadratic_hull")
    monkeypatch.chdir(GOLDEN)
    code = main(argv)
    assert code == (0 if hulls == 1 else 1), capsys.readouterr().err
    assert len(calls) == hulls


# (preset, q): finite, tame and dyadic, with q a prime or a prime power
symbol_cases = st.sampled_from([
    (FieldPreset("finite_field", 7), 3), (FieldPreset("finite_field", 13), 4),
    (FieldPreset("tame_local", 3), 2), (FieldPreset("tame_local", 13), 4),
    (FieldPreset("tame_local", 19), 9), (FieldPreset("two_adic"), 2)])


@st.composite
def symbol_comparisons(draw):
    """A preset, a presentation on its degree-1 rank (the matched one, or
    relators drawn from q-th powers, commutators and now and then a
    generator eliminated), a permuted correspondence and a degree bound."""
    preset, q = draw(symbol_cases)
    matched, corr = preset_presentation(preset, q)
    gens = list(matched.generators)
    if draw(st.booleans()):
        p = matched
    else:
        small = st.integers(min_value=0, max_value=q - 1)
        rels = []
        for _ in range(draw(st.integers(min_value=0, max_value=len(gens)))):
            terms = [f"{x}^{q * draw(small)}" for x in gens]
            terms += [f"[{x},{y}]^{draw(small)}" for x, y in itertools.combinations(gens, 2)]
            if draw(st.integers(min_value=0, max_value=4)) == 0:
                terms.append(f"{draw(st.sampled_from(gens))}^{draw(small)}")
            rels.append(" ".join(draw(st.permutations(terms))))
        p = make_presentation(q, gens, rels)
    targets = draw(st.permutations(gens))
    r_max = draw(st.integers(min_value=2, max_value=4))
    return preset, p, dict(zip(corr, targets)), r_max


def _report_or_error(compare, *args):
    try:
        return compare(*args)
    except ValueError as exc:  # PresetError and the presentation's own errors
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(symbol_comparisons())
def test_galois_compare_matches_the_degree_by_degree_loop(case):
    """Deciding in degree 2 gives the report of comparing every degree."""
    got = _report_or_error(galois_symbol_compare, *case)
    assert got == _report_or_error(degree_by_degree_symbol_compare, *case)


def test_two_adic_diagonal_rule_matches_hilbert_oracle():
    # cup(k,k) = bockstein(k) over q = 2 must mirror (a,a)_2 = (a,-1)_2
    preset = FieldPreset("two_adic")
    p, corr = preset_presentation(preset, 2)
    g, _ = cohomology_data_from_presentation(p)
    from gq3.milnor import TWO_ADIC_BASIS

    gen_of = {name: idx for idx, name in enumerate(["x1", "x2", "x3"])}
    for name, a in zip(("-1", "2", "5"), TWO_ADIC_BASIS):
        k = gen_of[corr[name]]
        diag = tuple(row[k * g.n + k] for row in cup_rows(g))
        symbol = hilbert_symbol_two_adic(a, a)
        assert (symbol == -1) == any(diag), (name, symbol, diag)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 32])
def test_zero_pairs_read_the_cup_entries(q):
    """The degree-(1,1) rows read off the Howell rows of the tables' span
    give the kernel of the matrix whose column (a, b) is cup_entry(a, b) of
    the dict tables of the raw rows, on 40 random tables with n <= 5 and up
    to 4 rows."""
    rng = random.Random(q)
    for _ in range(40):
        n, h2_rank = rng.randint(0, 5), rng.randint(0, 4)
        rows = [tuple(rng.randrange(q) for _ in range(n + len(pair_list(n)))) for _ in range(h2_rank)]
        g = TruncGroup(n, q, canonicalize(q, n + len(pair_list(n)), rows))
        ref = DictCohomologyTables(
            q, n, h2_rank, {pair: tuple(row[n + i] for row in rows) for i, pair in enumerate(pair_list(n))},
            {k: tuple(row[k] for row in rows) for k in range(n)})
        cups = [ref.cup_entry(a, b) for a in range(n) for b in range(n)]
        assert presentation_zero_pairs(g) == kernel(q, n * n, [[cup[i] for cup in cups]
                                                                for i in range(h2_rank)])


def test_parse_preset():
    assert parse_preset("finite:5") == FieldPreset("finite_field", 5)
    assert parse_preset("tame_local:7") == FieldPreset("tame_local", 7)
    assert parse_preset("two_adic") == FieldPreset("two_adic")
    with pytest.raises(PresetError):
        parse_preset("padic:3")
