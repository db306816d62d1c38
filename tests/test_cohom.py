import contextlib
import functools
import io
import json
import math
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gq3.zqlin
from gq3 import trunc
from gq3.cli import main
from gq3.cohom import (
    HypothesisViolation,
    MorphismError,
    check_relator_independence,
    cohomology_data_from_presentation,
    cup_rows,
    kappa_constant,
    lambda_matrix,
    morphism_check,
    obstruction_screen,
    reconstruct_g3,
    tables_json,
    tables_round_trip,
    _cup_order,
    _sorted_relators,
)
from gq3.milnor import presentation_zero_pairs
from gq3.presentations import (
    Commutator,
    Generator,
    Power,
    Product,
    make_presentation,
    parse_presentation,
    parse_word,
)
from gq3.trunc import (
    TruncElement,
    evaluate_relators,
    free_truncation,
    layer_image,
    pair_list,
    relator_subspace,
    truncated_quotient,
)
from gq3.zqlin import (
    MAX_AMBIENT,
    annihilator,
    canonicalize,
    prime_power,
    relations,
    row_space,
    zero_subspace,
)
from oracles import (
    DictCohomologyTables,
    QuotientReference,
    _combination,
    _decomposable_part_lift,
    annihilator_morphism_check,
    coboundary_classes,
    dict_lambda_matrix,
    eager_obstruction_screen,
    eager_relator_independence,
    eliminated_decomposable_part_lift,
    group_law_layer_columns,
    layer_map,
    pivot_scan_smith_diagonal,
    pretty,
    quadratic_sorted_relators,
    substitute,
    table_null_space,
)
from test_bench_reports import _load_workloads_module


GOLDEN = Path(__file__).parent / "golden"


def group_from_tables(q, n, h2_rank, cup=None, bockstein=None):
    """The group reconstruct_g3 reads off the tables whose cup and Bockstein
    columns are given with 0-based keys; absent ones are zero."""
    cup, bockstein = cup or {}, bockstein or {}
    return reconstruct_g3(json.dumps({
        "q": q, "n": n, "h2_rank": h2_rank,
        "cup": {f"{k + 1},{l + 1}": list(col) for (k, l), col in cup.items()},
        "bockstein": {str(k + 1): list(col) for k, col in bockstein.items()}}))


def cup_entry(g, k, l):
    return tuple(row[k * g.n + l] for row in cup_rows(g))


def test_kappa_values():
    assert kappa_constant(3) == 0
    assert kappa_constant(5) == 0
    assert kappa_constant(9) == 0
    assert kappa_constant(2) == 1
    assert kappa_constant(4) == 2
    assert kappa_constant(8) == 4


def test_sign_and_diagonal_rules():
    g = group_from_tables(4, 2, 1, cup={(0, 1): (3,)}, bockstein={0: (1,)})
    assert cup_entry(g, 1, 0) == (1,)
    assert cup_entry(g, 0, 0) == (2,)  # kappa = 2 over q = 4
    assert cup_entry(g, 1, 1) == (0,)


def test_lambda_matrix_zero_tables():
    """A zero table row spans nothing: lambda has no rows, and the tables
    rebuild the free S^[3]."""
    g = group_from_tables(2, 2, 1)
    assert g.w == zero_subspace(2, 3)
    assert lambda_matrix(g).entries == ()
    assert g == free_truncation(2, 2)


def test_lambda_matrix_tame_shape():
    g = group_from_tables(3, 2, 1, cup={(0, 1): (1,)}, bockstein={0: (1,)})
    assert lambda_matrix(g).entries == ((1, 0, 1),)


def test_lambda_matrix_rank_one():
    g = group_from_tables(2, 1, 1, bockstein={0: (1,)})
    assert lambda_matrix(g).entries == ((1,),)


def test_reconstruct_tame_local():
    g = group_from_tables(3, 2, 1, cup={(0, 1): (1,)}, bockstein={0: (1,)})
    assert g.order() == 3**5 // 3
    p = make_presentation(3, ["x1", "x2"], ["x1^3 [x1,x2]"])
    w, _ = relator_subspace(p)
    assert g.w == w


def test_reconstruct_rank1_q2():
    g = group_from_tables(2, 1, 1, bockstein={0: (1,)})
    assert g.order() == 2
    p = make_presentation(2, ["x1"], ["x1^2"])
    w, _ = relator_subspace(p)
    assert g.w == w


def test_extraction_free_presentation():
    p = make_presentation(2, ["x1", "x2"], [])
    g, _ = cohomology_data_from_presentation(p)
    assert g.w.basis == ()
    tables = tables_json(g)
    assert tables["h2_rank"] == 0
    assert tables["cup"] == {"1,2": []}
    assert tables["bockstein"] == {"1": [], "2": []}


def test_extraction_two_relators():
    p = make_presentation(2, ["x1", "x2"], ["[x1,x2]", "x1^2"])
    g, _ = cohomology_data_from_presentation(p)
    # canonical basis rows are (u1), (w12): bockstein(1) pairs the first,
    # cup(1,2) the second
    assert g.w.basis == ((1, 0, 0), (0, 0, 1))
    tables = tables_json(g)
    assert tables["h2_rank"] == 2
    assert tables["bockstein"] == {"1": [1, 0], "2": [0, 0]}
    assert tables["cup"] == {"1,2": [0, 1]}


def test_extraction_round_trip_demushkin():
    for q in (2, 3, 4, 5):
        p = make_presentation(q, ["x1", "x2"], [f"x1^{q} [x1,x2]"])
        g, _ = cohomology_data_from_presentation(p)
        w, _ = relator_subspace(p)
        assert reconstruct_g3(json.dumps(tables_json(g))).w == w


def test_lambda_surjectivity_rank_equality():
    p = make_presentation(4, ["x1", "x2", "x3"], ["x1^4 [x2,x3]", "x2^8 [x1,x3]"])
    g, _ = cohomology_data_from_presentation(p)
    w, _ = relator_subspace(p)
    assert row_space(lambda_matrix(g).transpose()).cardinality() == w.cardinality()


RANDOM_MODULI = [2, 3, 4, 5]


def random_central_relator(rng, n, q, names):
    """A word whose image is any prescribed central vector."""
    from gq3.trunc import pair_list

    parts = []
    for k in range(n):
        t = rng.randrange(q)
        if t:
            parts.append(f"{names[k]}^{q * t}")
    for k, l in pair_list(n):
        c = rng.randrange(q)
        if c:
            parts.append(f"[{names[k]},{names[l]}] ^ {c}".replace(" ", ""))
    return " ".join(parts)


def random_central_presentations(q):
    """60 seeded presentations on 1..4 generators with central relators."""
    rng = random.Random(q * 23)
    for _ in range(60):
        n = rng.randint(1, 4)
        names = [f"x{k + 1}" for k in range(n)]
        rels = []
        for _ in range(rng.randint(0, 3)):
            text = random_central_relator(rng, n, q, names)
            if text:
                rels.append(text)
        yield make_presentation(q, names, rels)


@pytest.mark.parametrize("q", RANDOM_MODULI)
def test_round_trip_random_presentations(q):
    for p in random_central_presentations(q):
        w, report = relator_subspace(p)
        assert report.minimal
        assert cohomology_data_from_presentation(p)[0].w == w
        group, equal, _ = tables_round_trip(p)  # through the printed tables
        assert equal and group.w == w


def test_h2_divisors_are_read_off_the_tables():
    """The invariant factors of H^2 are those of the tables' row span,
    whether the JSON gives them or not."""
    tables = {"q": 2, "n": 1, "h2_rank": 1, "bockstein": {"1": [1]}}
    bare = reconstruct_g3(json.dumps(tables))
    assert tables_json(bare)["h2_divisors"] == [2]
    assert reconstruct_g3(json.dumps({**tables, "h2_divisors": [2]})) == bare


@pytest.mark.parametrize("q", RANDOM_MODULI)
def test_cohomology_tables_round_trip_through_json(q):
    """The printed divisors match a Smith diagonal of the tables, and the
    printed tables parse back to the same data, with or without them."""
    for p in random_central_presentations(q):
        g, _ = cohomology_data_from_presentation(p)
        data = tables_json(g)
        diag = pivot_scan_smith_diagonal(lambda_matrix(g))
        assert data["h2_divisors"] == [q // x for x in diag if x]
        assert reconstruct_g3(json.dumps(data)) == g
        del data["h2_divisors"]
        assert reconstruct_g3(json.dumps(data)) == g


PRIME_POWERS_TO_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


@st.composite
def json_tables(draw):
    """Cohomology tables as JSON: absent entries, and entries negative or
    at least q."""
    q = draw(st.sampled_from(PRIME_POWERS_TO_32))
    n = draw(st.integers(min_value=0, max_value=4))
    h2_rank = draw(st.integers(min_value=0, max_value=3))
    vector = st.lists(st.integers(min_value=-2 * q, max_value=3 * q),
                      min_size=h2_rank, max_size=h2_rank)

    def table(keys):
        present = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
        return {key: draw(vector) for key in present}

    return {"q": q, "n": n, "h2_rank": h2_rank,
            "cup": table([f"{k + 1},{l + 1}" for k, l in pair_list(n)]),
            "bockstein": table([str(k + 1) for k in range(n)])}


@settings(max_examples=200, deadline=None)
@example(tables={"q": 5, "n": 0, "h2_rank": 2, "cup": {}, "bockstein": {}})
@given(tables=json_tables())
def test_one_table_reads_like_the_dict_tables(tables):
    """The tables read as one table are the Howell form of the span of the
    rows of the cup and Bockstein dicts, their n^2 cup products span what
    the dicts' cup entries span, the dicts read off the printed tables give
    back the Howell rows and the same report, and the printed tables parse
    back equal with and without the derived fields."""
    g = reconstruct_g3(json.dumps(tables))
    ref = DictCohomologyTables.from_json_dict(tables)
    q, n, m = g.q, g.n, dict_lambda_matrix(ref)
    assert g.w == canonicalize(q, m.ncols, m.entries)
    cups = [[ref.cup_entry(k, l)[i] for k in range(n) for l in range(n)] for i in range(ref.h2_rank)]
    assert canonicalize(q, n * n, cup_rows(g)) == canonicalize(q, n * n, cups)
    printed = tables_json(g)
    reread = DictCohomologyTables.from_json_dict(printed)
    assert dict_lambda_matrix(reread).entries == lambda_matrix(g).entries == g.w.basis
    assert reread.tables_json() == printed
    assert reconstruct_g3(json.dumps(printed)) == g
    bare = {key: printed[key] for key in ("q", "n", "h2_rank", "cup", "bockstein")}
    assert reconstruct_g3(json.dumps(bare)) == g


@settings(max_examples=300, deadline=None)
@given(tables=json_tables())
def test_decomposable_order_and_the_zero_pairs_split_the_cup_square(tables):
    """The cup map out of the n^2 degree-(1,1) products has image of the
    order morphism_check reads, |C(rows)|, and kernel
    presentation_zero_pairs: two eliminations of one map, whose orders
    multiply to q^(n^2)."""
    g = reconstruct_g3(json.dumps(tables))
    q, n = g.q, g.n
    assert _cup_order(q, n, g.w.basis) * presentation_zero_pairs(g).cardinality() == q ** (n * n)


@functools.cache
def _nonzero_vectors(q, size):
    return st.lists(st.integers(0, q - 1), min_size=size, max_size=size).filter(any)


@st.composite
def central_relator_texts(draw):
    """Presentation text whose relators each have a nonzero power part and
    a nonzero commutator part, on a G^[3] of at most 3125 elements."""
    q, n = draw(st.sampled_from([(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]))
    names = [f"x{k + 1}" for k in range(n)]
    pairs = pair_list(n)
    rels = []
    for _ in range(draw(st.integers(min_value=n - 1, max_value=3))):
        t = draw(_nonzero_vectors(q, n))
        c = draw(_nonzero_vectors(q, len(pairs)))
        parts = [f"{names[k]}^{q * x}" for k, x in enumerate(t) if x]
        parts += [f"[{names[k]},{names[l]}]^{x}" for (k, l), x in zip(pairs, c) if x]
        rels.append(f'"{" ".join(parts)}"')
    text = f"q = {q};\ngens = [{', '.join(names)}];\nrels = [{', '.join(rels)}];\n"
    assume(truncated_quotient(parse_presentation(text))[0].order() <= 3125)
    return text


def _cli_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return json.loads(out.getvalue())


@settings(max_examples=60, deadline=None)
@example(text='q = 5;\ngens = [x1, x2];\nrels = ["x1^5 x2^10 [x1,x2]^3"];\n')
@example(text='q = 3;\ngens = [x1, x2, x3];\nrels = ["x1^3 [x1,x2]", "x2^6 [x2,x3]^2 [x1,x3]"];\n')
@given(text=central_relator_texts())
def test_cohomology_tables_match_the_coboundaries_of_the_group(text):
    """A combination sum b_k beta_k + sum c_kl chi_k cup chi_l of cocycles on
    the elements of G is a coboundary exactly when the printed tables send
    (b | c) to zero, and the tables rebuild a group of order |G|."""
    order, coboundaries = coboundary_classes(parse_presentation(text))
    with tempfile.TemporaryDirectory() as tmp:
        pres_path, cd_path = Path(tmp) / "g.pres", Path(tmp) / "cd.json"
        pres_path.write_text(text, encoding="utf-8")
        report = _cli_report(["cohomology", str(pres_path)])
        assert table_null_space(report["cohomology"]) == coboundaries
        cd_path.write_text(json.dumps(report), encoding="utf-8")
        rebuilt = _cli_report(["reconstruct", "--cd-json", str(cd_path)])
    assert rebuilt["group"]["order"] == order


# ---------------------------------------------------------------------------
# Independence reports


def test_independence_single_power():
    p = make_presentation(5, ["x1", "x2"], ["x1^5"])
    report = check_relator_independence(p)
    assert report.verdict == "consistent"


def test_independence_zero_image_with_certificate():
    p = make_presentation(3, ["x1", "x2", "x3"], ["[[x1,x2],x3]"])
    report = check_relator_independence(p)
    assert report.verdict == "condition-failed"
    assert any("nontrivial" in t.witness for t in report.tests if t.status == "triggered")


def test_independence_dependent_images():
    p = make_presentation(3, ["x1", "x2"], ["x1^3", "x1^3 [x1,x2] [x2,x1]"])
    report = check_relator_independence(p)
    assert report.verdict == "condition-failed"
    assert any("dependency" in t.name for t in report.tests if t.status == "triggered")


def test_independence_trivial_relator_skipped():
    p = make_presentation(3, ["x1", "x2"], ["x1 x1^-1"])
    report = check_relator_independence(p)
    assert report.verdict == "consistent"
    assert any(t.status == "skipped" for t in report.tests)


def random_mixed_relators(rng, n, q, names):
    """Central products, weight-3 and weight-4 commutators, freely trivial
    words, words with a nonzero degree-1 image, and repeats and squares of
    earlier ones."""
    x = lambda: rng.choice(names)  # noqa: E731
    rels = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.randrange(7)
        if kind == 0:
            rels.append(rng.choice([random_central_relator(rng, n, q, names) or f"{x()}^{q}",
                                    f"[{x()},{x()}]^{rng.randint(1, 2 * q)}"]))
        elif kind == 1:
            rels.append(rng.choice([f"[{x()},[{x()},{x()}]]", f"[[{x()},{x()}],{x()}]"]))
        elif kind == 2:
            rels.append(rng.choice([f"[[{x()},{x()}],[{x()},{x()}]]",
                                    f"[{x()},[{x()},[{x()},{x()}]]]"]))
        elif kind == 3:
            g = x()
            rels.append(rng.choice([f"{g} {g}^-1", f"[{g},{g}]"]))
        elif kind == 4:
            central = random_central_relator(rng, n, q, names)
            rels.append(f"{x()}^{rng.choice([1, -1, q + 1])} {central}")
        elif rels:  # kinds 5 and 6
            rels.append(rng.choice([rng.choice(rels), f"({rng.choice(rels)})^2"]))
    return [r.strip() for r in rels]


@settings(max_examples=200, deadline=None)
@example(q=2, class_bound=1, seed=205)  # the screen names an uncertified dependent relator
@example(q=3, class_bound=1, seed=124)
@given(
    q=st.sampled_from([2, 3, 4, 5, 9]),
    class_bound=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**9),
)
def test_relator_sorting_matches_the_eager_reports(q, class_bound, seed):
    """equiv, and the screen at prime q, report exactly what the reports
    built from every relator certified up front report."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    names = [f"x{k + 1}" for k in range(n)]
    p = make_presentation(q, names, random_mixed_relators(rng, n, q, names))
    assert (check_relator_independence(p, class_bound).to_json_dict()
            == eager_relator_independence(p, class_bound).to_json_dict())
    if q in (2, 3, 5):
        cd = rng.choice([None, n, n + 1])
        torsion_free = rng.random() < 0.5
        assert (obstruction_screen(p, cd, torsion_free, class_bound).to_json_dict()
                == eager_obstruction_screen(p, cd, torsion_free, class_bound).to_json_dict())


def many_relators(rng, n, q, r):
    """r relators on n generators: central images, combinations of two
    earlier central relators (dependent ones, some p-divisible), identity
    images with and without a certificate, and non-central words."""
    names = [f"x{k + 1}" for k in range(n)]
    x = lambda: rng.choice(names)  # noqa: E731
    p = prime_power(q)[0]
    central, rels = [], []
    for _ in range(r):
        kind = rng.randrange(6)
        if kind <= 1 or not central:
            central.append(random_central_relator(rng, n, q, names) or f"{x()}^{q}")
            rels.append(central[-1])
        elif kind <= 3:
            a, b = rng.choice(central), rng.choice(central)
            rels.append(f"({a})^{rng.choice([1, p, rng.randrange(q)])} ({b})^{rng.randrange(q)}")
        elif kind == 4:
            g = x()
            rels.append(rng.choice([f"[{x()},[{x()},{x()}]]", f"{g}^{q * q}", f"{g} {g}^-1"]))
        else:
            rels.append(f"{x()}^{rng.choice([1, p])} {rng.choice(central)}")
    return make_presentation(q, names, rels)


def checked_kinds(presentation):
    """The relator kinds, asserted equal to the quadratic reference's."""
    group, relators = evaluate_relators(presentation, 3)
    kinds = list(_sorted_relators(group, relators))
    assert kinds == quadratic_sorted_relators(group, relators)
    return [kind for _, kind in kinds]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    q=st.sampled_from([2, 3, 4, 5, 8, 9, 27, 32]),
    seed=st.integers(min_value=0, max_value=10**9),
)
def test_relator_kinds_match_the_quadratic_reference(n, q, seed):
    """One Howell form of the graph rows sorts the relators as one span of
    the other central images per relator does, for up to twice the layer
    rank plus 2 relators."""
    rng = random.Random(seed)
    layer_rank = n + n * (n - 1) // 2
    checked_kinds(many_relators(rng, n, q, rng.randint(0, 2 * layer_rank + 2)))


@pytest.mark.parametrize("presentation", [
    parse_presentation((Path(__file__).parent / "golden/inputs/many_relators_q3.pres").read_text()),
    many_relators(random.Random(32), 3, 32, 400),
], ids=["golden-q3", "drawn-q32"])
def test_relator_kinds_past_max_ambient(presentation):
    """More nonzero central images than MAX_AMBIENT: the graph rows are
    wider than any ZqSubspace, and the kinds still match the reference."""
    kinds = checked_kinds(presentation)
    assert kinds.count("dependent") + kinds.count("independent") > MAX_AMBIENT


HOWELL = gq3.zqlin._howell


def count_howell_calls(monkeypatch, call):
    """Run call with every gq3 binding of zqlin._howell counted."""
    calls = []
    for module in list(sys.modules.values()):
        if module.__name__.startswith("gq3") and getattr(module, "_howell", None) is HOWELL:
            monkeypatch.setattr(module, "_howell",
                                lambda *args: calls.append(args) or HOWELL(*args))
    call()
    monkeypatch.undo()
    return len(calls)


def test_each_relator_list_takes_one_howell_form(monkeypatch):
    """relator_subspace on a non-minimal presentation, and equiv and the
    screen on 50 relators, eliminate their relator list once."""
    nonmin = make_presentation(4, ["x1", "x2", "x3"], ["x1 [x2,x3]^2", "x2^4 [x1,x2]", "[x1,x3]^3"])
    assert not relator_subspace(nonmin)[1].minimal
    assert count_howell_calls(monkeypatch, lambda: relator_subspace(nonmin)) == 1
    rng, names = random.Random(50), ["x1", "x2", "x3", "x4"]
    fifty = make_presentation(3, names, [random_central_relator(rng, 4, 3, names) or "x1^3"
                                         for _ in range(50)])
    assert count_howell_calls(monkeypatch, lambda: check_relator_independence(fifty)) == 1
    assert count_howell_calls(monkeypatch, lambda: obstruction_screen(fifty)) == 1


# ---------------------------------------------------------------------------
# A witness for every dependent relator


def called_dependent(presentation, relators):
    """Indices of the relators that equiv calls dependent and, at prime q,
    of the relator that the screen's dependency witness names."""
    report = check_relator_independence(presentation, 3)
    called = {int(m[1]) for t in report.tests
              if (m := re.fullmatch(r"relator\[(\d+)\] dependency", t.name))}
    if prime_power(presentation.q)[1] == 1:
        for t in obstruction_screen(presentation, certificate_class=3).tests:
            if t.name == "dependent-relator-image" and "has image dependent" in t.witness:
                called.add(next(i for i, (source, *_) in enumerate(relators)
                                if f"relator {source!r} " in t.witness))
    return called


def assert_dependent_witnesses(presentation):
    """Each relator called dependent has a relation a with a unit at its
    index, and prod_j y_j^(a_j) is the identity of the free S^[3], checked
    by the sparse group law alone.  Returns how many were checked."""
    group, relators = evaluate_relators(presentation, 3)
    q = group.q
    p = prime_power(q)[0]
    live = [j for j, (_, _, y, _) in enumerate(relators)
            if group.central_vector(y) is not None and y != group.identity()]
    rows = relations(q, group.layer_rank, [group.central_vector(relators[j][2]) for j in live])
    called = called_dependent(presentation, relators)
    for i in called:
        a = next((row for row in rows if row[live.index(i)] % p), None)
        assert a is not None, f"relator {i} is called dependent, but no relation has a unit there"
        product = ({}, {})
        for j, aj in zip(live, a):
            y = relators[j][2]
            maps = ({k: x for k, x in enumerate(y.e) if x},
                    {pair: x for pair, x in zip(group.pairs, y.c) if x})
            product = trunc._product(q, product, trunc._power(q, maps, aj))
        assert not any(product[0].values()) and not any(product[1].values()), i
    return len(called)


GOLDEN_DEPENDENCY_INPUTS = sorted({
    case["argv"][1] for case in json.loads((GOLDEN / "cases.json").read_text()).values()
    if case["argv"][:1] in (["equiv"], ["screen"]) and case["exit"] != 3})


@pytest.mark.parametrize("path", GOLDEN_DEPENDENCY_INPUTS)
def test_dependent_relators_have_group_law_witnesses_on_golden_inputs(path):
    presentation = parse_presentation((GOLDEN / path).read_text())
    checked = assert_dependent_witnesses(presentation)
    if path.endswith("many_relators_q3.pres"):  # more live relators than MAX_AMBIENT
        assert checked == 256


@pytest.mark.parametrize("q", [3, 4, 8, 9, 27])
def test_dependent_relators_have_group_law_witnesses(q):
    rng = random.Random(q)
    checked = 0
    for _ in range(30):
        n = rng.randint(1, 8)
        layer_rank = n + n * (n - 1) // 2
        presentation = many_relators(rng, n, q, rng.randint(0, 2 * layer_rank + 2))
        checked += assert_dependent_witnesses(presentation)
    assert checked


# ---------------------------------------------------------------------------
# A witness for every independent relator


def assert_independent_witnesses(presentation):
    """Each relator that equiv calls independent has a functional phi, a row
    of the annihilator of the other live central images, with phi . v_i
    nonzero mod q; phi is checked by plain dot products.  At q = p^d, at
    most d times the layer rank relators are independent, since each one
    lengthens the span of those before it.  Returns how many were checked."""
    group, relators = evaluate_relators(presentation, 3)
    q, m = group.q, group.layer_rank
    live = {j: group.central_vector(y) for j, (_, _, y, _) in enumerate(relators)
            if group.central_vector(y) is not None and y != group.identity()}
    called = [int(mt[1]) for t in check_relator_independence(presentation, 3).tests
              if (mt := re.fullmatch(r"relator\[(\d+)\] independent", t.name))]
    assert len(called) <= prime_power(q)[1] * m
    dot = lambda a, b: sum(x * y for x, y in zip(a, b)) % q  # noqa: E731
    for i in called:
        assert i in live, f"relator {i} is called independent, but its image is not live"
        others = [v for j, v in live.items() if j != i]
        phi = next((row for row in annihilator(canonicalize(q, m, others)).basis
                    if dot(row, live[i])), None)
        assert phi is not None, f"relator {i} is called independent, but no functional separates it"
        assert not any(dot(phi, v) for v in others), i
    return len(called)


@pytest.mark.parametrize("path", GOLDEN_DEPENDENCY_INPUTS)
def test_independent_relators_have_separating_functionals_on_golden_inputs(path):
    assert_independent_witnesses(parse_presentation((GOLDEN / path).read_text()))


@pytest.mark.parametrize("q", [3, 4, 8, 9, 27])
def test_independent_relators_have_separating_functionals(q):
    """The presentations the dependent witness test draws, drawn again."""
    rng = random.Random(q)
    checked = 0
    for _ in range(30):
        n = rng.randint(1, 8)
        layer_rank = n + n * (n - 1) // 2
        presentation = many_relators(rng, n, q, rng.randint(0, 2 * layer_rank + 2))
        checked += assert_independent_witnesses(presentation)
    assert checked


@pytest.mark.parametrize("seed", [1, 7919])
def test_bench_certificate_presentations_have_witnesses(seed, tmp_path):
    """Every equiv and screen input of the certificates bench corpus: each
    independent relator has a separating functional and each dependent one
    a group-law relation.  No bench presentation has a dependent relator."""
    corpus = _load_workloads_module().build("certificates", seed, str(tmp_path))
    paths = sorted({query.argv[1] for query in corpus.queries
                    if query.argv[0] in ("equiv", "screen")})
    independent = dependent = 0
    for path in paths:
        presentation = parse_presentation(corpus.files[path])
        independent += assert_independent_witnesses(presentation)
        dependent += assert_dependent_witnesses(presentation)
    assert len(paths) == 51 and independent == 64 and dependent == 0


# ---------------------------------------------------------------------------
# Morphisms


def demushkin(q, exponent=None):
    e = q if exponent is None else exponent
    return make_presentation(q, ["x1", "x2"], [f"x1^{e} [x1,x2]"])


def test_morphism_identity():
    p = demushkin(3)
    imgs = [parse_word("x1", p), parse_word("x2", p)]
    report = morphism_check(p, p, imgs)
    assert report.condition_b and report.condition_d and report.agreement


def test_morphism_central_perturbation():
    p = demushkin(3)
    imgs = [parse_word("x1 x2^3", p), parse_word("x2 [x1,x2]", p)]
    report = morphism_check(p, p, imgs)
    assert report.pi3_isomorphism
    assert report.condition_b and report.condition_d and report.agreement


def test_morphism_killing_generator():
    p1 = make_presentation(2, ["x1", "x2"], [])
    p2 = make_presentation(2, ["y1"], [])
    imgs = [parse_word("y1", p2), parse_word("y1 y1^-1", p2)]
    report = morphism_check(p1, p2, imgs)
    assert not report.condition_b and not report.condition_d and report.agreement


def test_morphism_rejects_bad_images():
    p1 = make_presentation(2, ["x1", "x2"], ["x1^2"])
    p2 = make_presentation(2, ["y1", "y2"], ["y2^2"])
    imgs = [parse_word("y1", p2), parse_word("y2", p2)]
    with pytest.raises(MorphismError, match="respect relator"):
        morphism_check(p1, p2, imgs)


def test_morphism_requires_minimal():
    p1 = make_presentation(2, ["x1", "x2"], ["x1"])
    p2 = make_presentation(2, ["y1", "y2"], [])
    imgs = [parse_word("y1", p2), parse_word("y2", p2)]
    with pytest.raises(HypothesisViolation):
        morphism_check(p1, p2, imgs)


def test_morphism_non_surjective_endo():
    p = make_presentation(2, ["x1", "x2"], [])
    imgs = [parse_word("x1^2", p), parse_word("x2", p)]
    report = morphism_check(p, p, imgs)
    assert not report.pi2_isomorphism
    assert not report.condition_b and not report.condition_d and report.agreement


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4, 5]),
    seed=st.integers(min_value=0, max_value=10**9),
)
def test_morphism_b_equivalent_d_on_random_endomorphisms(q, seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    names = [f"x{k + 1}" for k in range(n)]
    rels = []
    for _ in range(rng.randint(0, 2)):
        text = random_central_relator(rng, n, q, names)
        if text:
            rels.append(text)
    p = make_presentation(q, names, rels)
    # random endomorphism: generator images are random words
    imgs = []
    for _ in range(n):
        parts = []
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(n)
            e = rng.choice([-2, -1, 1, 2, q])
            parts.append(f"{names[k]}^{e}")
        imgs.append(parse_word(" ".join(parts), p))
    try:
        report = morphism_check(p, p, imgs)
    except MorphismError:
        return  # images failed to respect the relators: not an instance
    assert report.agreement


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 32])
def test_layer_map_matches_group_law(q):
    """The closed-form layer map against q-th powers and commutators of
    random images in S^[3], 90 maps per modulus with n1, n2 <= 8."""
    rng = random.Random(q * 101)
    for _ in range(90):
        n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
        free2 = free_truncation(n2, q)
        images = [
            TruncElement(tuple(rng.randrange(q * q) for _ in range(n2)),
                         tuple(rng.randrange(q) for _ in range(free2.npairs)))
            for _ in range(n1)
        ]
        assert layer_map(q, [x.e for x in images]) == group_law_layer_columns(images, free2)


@st.composite
def layer_images_and_vectors(draw):
    """A modulus q <= 32, degree-1 images mod q^2 of n1 <= 8 generators in
    the free S^[3] on n2 <= 8, and a vector of the source layer mod q, each
    entry zero about half the time."""
    q = draw(st.sampled_from(PRIME_POWERS_TO_32))
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))

    def entries(size, bound):
        return draw(st.lists(st.one_of(st.just(0), st.integers(1, bound - 1)),
                             min_size=size, max_size=size))

    images = [entries(n2, q * q) for _ in range(n1)]
    return q, n2, images, entries(n1 + len(pair_list(n1)), q)


@settings(max_examples=200, deadline=None)
@given(layer_images_and_vectors())
def test_layer_image_matches_the_layer_map_columns(case):
    """L v written per vector from the images' maps, dense or cut to their
    support mod q, against the combination of the closed-form columns."""
    q, n2, images, v = case
    want = [x % q for x in _combination(v, layer_map(q, images), n2 + len(pair_list(n2)))]
    assert layer_image(q, n2, [dict(enumerate(a)) for a in images], v) == want
    supports = [{k: x for k, x in enumerate(a) if x % q} for a in images]
    assert layer_image(q, n2, supports, v) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32])
def test_decomposable_part_lift_matches_whole_layer_elimination(q):
    """The reference's direct-sum lift against one Howell form over the
    whole layer, on ann(w) for n = 1..8 and relator subspaces w from 0 to
    about full, with entries of every p-adic valuation."""
    p = prime_power(q)[0]
    rng = random.Random(q)
    for n in range(1, 9):
        m = n + n * (n - 1) // 2
        for count in (0, 1, 2, n, m):
            rows = [[rng.randrange(q) * rng.choice((1, p)) for _ in range(m)] for _ in range(count)]
            ann = annihilator(canonicalize(q, m, rows))
            assert _decomposable_part_lift(q, n, ann) == eliminated_decomposable_part_lift(q, n, ann)


def random_image_word(rng, n, q):
    """A product of generator powers, a commutator and a q-th power over n generators."""
    factors = [Power(Generator(rng.randrange(n)), rng.choice([-2, -1, 1, 2, 3]))
               for _ in range(rng.randint(1, 3))]
    if n > 1 and rng.random() < 0.5:
        k, l = rng.sample(range(n), 2)
        factors.append(Commutator(Generator(k), Generator(l)))
    if rng.random() < 0.5:
        factors.append(Power(Generator(rng.randrange(n)), q * rng.randint(1, 2)))
    return Product(tuple(factors))


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_morphism_well_definedness_against_substitution(q):
    """The images define a morphism exactly when every source relator, with
    the image words substituted, evaluates to the identity of the target's
    G^[3]; otherwise the first relator that does not is named."""
    rng = random.Random(q * 7)
    verdicts = set()
    for _ in range(40):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        names1 = [f"x{k + 1}" for k in range(n1)]
        names2 = [f"y{k + 1}" for k in range(n2)]
        rels1 = [t for t in (random_central_relator(rng, n1, q, names1) for _ in range(3)) if t]
        p1 = make_presentation(q, names1, rels1)
        images = [random_image_word(rng, n2, q) for _ in range(n1)]
        substituted = [substitute(w, images) for w in p1.relators]
        # the target keeps some substituted relators and adds a random one
        rels2 = [pretty(w, names2) for w in substituted if rng.random() < 0.6]
        extra = random_central_relator(rng, n2, q, names2)
        if extra and rng.random() < 0.3:
            rels2.append(extra)
        p2 = make_presentation(q, names2, rels2)
        g2 = QuotientReference(*truncated_quotient(p2)[0])
        failing = [source for w, source in zip(substituted, p1.relator_sources)
                   if g2.evaluate_word(w) != g2.identity()]
        if failing:
            with pytest.raises(MorphismError) as err:
                morphism_check(p1, p2, images)
            assert str(err.value) == f"images do not respect relator {failing[0]!r}"
        else:
            morphism_check(p1, p2, images)
        verdicts.add(bool(failing))
    assert verdicts == {False, True}


@pytest.mark.parametrize("q", [2, 4, 8, 3, 9])
def test_morphism_between_presentations_related_by_a_change_of_generators(q):
    """A random unimodular change of generators over Z/q^2, substituted into
    the relators, gives a second presentation of the same group: the
    morphism between the two is a level-3 isomorphism, and both
    conditions hold."""
    rng = random.Random(q * 13)
    qq = q * q
    for _ in range(10):
        n = rng.randint(2, 5)
        names1 = [f"x{k + 1}" for k in range(n)]
        names2 = [f"y{k + 1}" for k in range(n)]
        rels1 = [t for t in (random_central_relator(rng, n, q, names1) for _ in range(3)) if t]
        p1 = make_presentation(q, names1, rels1)
        # row operations and unit scalings of the identity over Z/q^2
        a = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(qq)
            a[i] = [(x + c * y) % qq for x, y in zip(a[i], a[j])]
        units = [u for u in range(1, qq) if math.gcd(u, q) == 1]
        for row in a:
            unit = rng.choice(units)
            row[:] = [(unit * x) % qq for x in row]
        rng.shuffle(a)
        images = []
        for row in a:
            factors = [Power(Generator(j), e) for j, e in enumerate(row) if e]
            k, l = rng.sample(range(n), 2)
            factors.append(Power(Commutator(Generator(k), Generator(l)), rng.randrange(q)))
            images.append(Product(tuple(factors)))
        rels2 = [pretty(substitute(w, images), names2) for w in p1.relators]
        p2 = make_presentation(q, names2, rels2)
        report = morphism_check(p1, p2, images)
        assert report.pi3_isomorphism and report.condition_b and report.condition_d
        assert report.agreement


def random_sparse_central_relator(rng, n, q, names):
    """A central relator in which each power and each commutator occurs
    with probability 1/3."""
    parts = [f"{names[k]}^{q * rng.randrange(1, q)}" for k in range(n) if rng.random() < 1 / 3]
    parts += [f"[{names[k]},{names[l]}]^{rng.randrange(1, q)}"
              for k, l in pair_list(n) if rng.random() < 1 / 3]
    return " ".join(parts)


def random_morphism(q, n1, n2, seed):
    """Source, target and images.  The source relators are central, dense
    or sparse.  Each image is a random word, a Frattini word, or y_f(k) to
    a unit power times a Frattini word, with f a permutation or any map.
    The target presents the source group again, for n1 = n2 two times in
    five, or else has the source relators with the images substituted,
    some of them dropped, plus extra central ones."""
    rng = random.Random(seed)
    names1 = [f"x{k + 1}" for k in range(n1)]
    names2 = [f"y{k + 1}" for k in range(n2)]
    relator = rng.choice([random_central_relator, random_sparse_central_relator])
    rels1 = [t for t in (relator(rng, n1, q, names1) for _ in range(rng.randint(0, 4))) if t]
    p1 = make_presentation(q, names1, rels1)

    def frattini():
        return Product((Power(Generator(rng.randrange(n2)), q * rng.choice([-1, 1, 2])),
                        Commutator(Generator(rng.randrange(n2)), Generator(rng.randrange(n2)))))

    f = rng.choice([rng.choices(range(n2), k=n1)]
                   + [rng.sample(range(n2), n2), list(range(n2))] * (n1 == n2))
    units = [1] * q + [u for u in range(1, 2 * q) if u % prime_power(q)[0]]
    kinds = rng.choice([(0,), (1, 2, 2), (2,), (0, 1, 2)])
    images = []
    for k in range(n1):
        kind = rng.choice(kinds)
        images.append(random_image_word(rng, n2, q) if kind == 0 else frattini() if kind == 1
                      else Product((Power(Generator(f[k]), rng.choice(units)), frattini())))
    if n1 == n2 and rng.random() < 0.4:
        return p1, make_presentation(q, names2, [t.replace("x", "y") for t in rels1]), images
    rels2 = [pretty(substitute(w, images), names2) for w in p1.relators if rng.random() < 0.8]
    rels2 += [t for t in (relator(rng, n2, q, names2) for _ in range(rng.choice([0, 0, 1, 2])))
              if t]
    return p1, make_presentation(q, names2, rels2), images


def _morphism_outcome(check, *args):
    try:
        return check(*args)
    except ValueError as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@example(q=2, n1=2, n2=None, seed=1)  # (t|0) in W with kappa t != 0
@example(q=2, n1=2, n2=None, seed=35)  # x1 -> y1^2 kills the relator [x1,x2]
@given(
    q=st.sampled_from([2, 3, 4, 8, 9, 27, 32]),
    n1=st.integers(1, 5) | st.integers(1, 8),
    n2=st.none() | st.integers(1, 5) | st.integers(1, 8),
    seed=st.integers(min_value=0, max_value=10**9),
)
def test_morphism_matches_the_annihilator_reference(q, n1, n2, seed):
    """The H^2 condition decided on the relator subspaces gives the report,
    or the error, of the reference that decides it on their annihilators.
    n2 = None maps n1 generators to n1."""
    args = random_morphism(q, n1, n1 if n2 is None else n2, seed)
    assert (_morphism_outcome(morphism_check, *args)
            == _morphism_outcome(annihilator_morphism_check, *args))


def test_morphism_check_builds_no_annihilator(monkeypatch):
    """An n = 8, q = 32 morphism query takes no kernel and no annihilator;
    the spies do see the reference's."""
    import gq3.cohom
    import gq3.zqlin

    calls = []
    for name in ("kernel", "annihilator"):
        def spy(*args, _inner=getattr(gq3.zqlin, name), _name=name):
            calls.append(_name)
            return _inner(*args)
        monkeypatch.setattr(gq3.zqlin, name, spy)
        monkeypatch.setattr(gq3.cohom, name, spy, raising=False)
    inputs = Path(__file__).parent / "golden" / "inputs"
    mapping = ("x1 = y1 y2; x2 = y2 y3^-1; x3 = y3; x4 = y4 y1^2; x5 = y5 y6; x6 = y6; "
               "x7 = y7 y8 y1; x8 = y8^3 y2")
    report = _cli_report(["morphism", str(inputs / "n8_q32.pres"),
                          str(inputs / "n8_q32_moved.pres"), "--map", mapping])
    assert report["pi3_isomorphism"] and report["condition_d"]
    assert calls == []
    p1 = parse_presentation((inputs / "n8_q32.pres").read_text())
    p2 = parse_presentation((inputs / "n8_q32_moved.pres").read_text())
    images = [parse_word(part.partition("=")[2], p2) for part in mapping.split(";")]
    annihilator_morphism_check(p1, p2, images)
    assert calls


# ---------------------------------------------------------------------------
# Obstruction screening


def test_screen_inner_commutator_obstructed():
    for p_ in (2, 3, 5):
        pr = make_presentation(p_, ["x1", "x2"], ["[x1,[x1,x2]]"])
        report = obstruction_screen(pr)
        assert report.verdict == "obstructed"
        assert report.tests[0].status == "triggered"


def test_screen_iterated_commutator_obstructed():
    for p_ in (2, 3, 5):
        pr = make_presentation(p_, ["x1", "x2", "x3"], ["[[x1,x2],x3]"])
        assert obstruction_screen(pr).verdict == "obstructed"


@pytest.mark.parametrize("class_bound", range(1, 7))
def test_screen_and_equiv_agree_on_a_dependency(class_bound):
    """[x1,x2] and its square have dependent nonzero central images, which
    prove them nontrivial at every class bound, certificate or not."""
    pr = make_presentation(3, ["x1", "x2"], ["[x1,x2]", "[x1,x2]^2"])
    equiv = check_relator_independence(pr, class_bound)
    screen = obstruction_screen(pr, certificate_class=class_bound)
    assert equiv.verdict == "condition-failed"
    assert screen.verdict == "obstructed"
    assert screen.tests[-1].name == "dependent-relator-image"


def test_screen_power_relator_clean():
    pr = make_presentation(2, ["x1", "x2"], ["x1^2"])
    assert obstruction_screen(pr).verdict == "no_obstruction_found"


def test_screen_free_presentation_clean():
    pr = make_presentation(3, ["x1", "x2"], [])
    assert obstruction_screen(pr).verdict == "no_obstruction_found"


def test_screen_dimension_test():
    pr = make_presentation(3, ["x1", "x2"], [])
    report = obstruction_screen(pr, cd_bound=3)
    assert report.verdict == "obstructed"
    assert any(t.name == "dimension-versus-cd" and t.status == "triggered" for t in report.tests)


def test_screen_dimension_test_p2_needs_torsion_free():
    pr = make_presentation(2, ["x1", "x2"], [])
    report = obstruction_screen(pr, cd_bound=3)
    assert report.verdict == "no_obstruction_found"
    report2 = obstruction_screen(pr, cd_bound=3, torsion_free=True)
    assert report2.verdict == "obstructed"


@settings(max_examples=100, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5, 7]),
    seed=st.integers(min_value=0, max_value=10**9),
)
def test_screen_dim_h1_matches_relator_elimination(q, seed):
    """The screen reads dim H^1 off the rank of the degree-1 images; relator
    elimination keeps that many generators."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    names = [f"x{k + 1}" for k in range(n)]
    rels = []
    for _ in range(rng.randint(0, 3)):
        parts = [f"{rng.choice(names)}^{rng.choice([-1, 1, 2, q, q + 1])}"
                 for _ in range(rng.randint(1, 3))]
        rels.append(" ".join(parts + [random_central_relator(rng, n, q, names)]).strip())
    p = make_presentation(q, names, rels)
    report = obstruction_screen(p, cd_bound=n + 1, torsion_free=True)
    witnesses = [t.witness for t in report.tests if t.name == "dimension-versus-cd"]
    assume(witnesses)
    dim_h1 = int(re.match(r"dim H\^1 = (\d+) < ", witnesses[0]).group(1))
    assert dim_h1 == len(relator_subspace(p)[1].kept_generators)


def test_screen_rejects_prime_powers():
    pr = make_presentation(4, ["x1"], [])
    with pytest.raises(ValueError, match="prime"):
        obstruction_screen(pr)


def test_screen_dependent_images():
    pr = make_presentation(3, ["x1", "x2"], ["x1^3", "x1^3 [x1,x2] [x2,x1]"])
    report = obstruction_screen(pr)
    assert report.verdict == "obstructed"
    assert any(t.name == "dependent-relator-image" and t.status == "triggered"
               for t in report.tests)


def test_report_json_shape():
    pr = make_presentation(2, ["x1", "x2"], ["x1^2"])
    report = obstruction_screen(pr)
    data = report.to_json_dict()
    assert set(data) >= {"verdict", "tests", "assumptions"}
    assert all(set(t) == {"name", "status", "witness"} for t in data["tests"])
