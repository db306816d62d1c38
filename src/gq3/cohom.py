"""Low-degree mod-q cohomology models and the reconstruction machinery.

H^1 of a presented pro-p group on n generators is the rank-n dual of
its maximal elementary quotient.  H^2 is modeled through the perfect
pairing with the relator subgroup inside the central layer of S^[3]:
its elements are linear functionals on that subgroup, coordinatized
against the canonical basis of the relator subspace.

The combined cup/Bockstein map out of the dual central layer has the
relator pairing matrix lambda as its matrix, with the Howell rows of the
relator subspace W as its rows.  Its kernel annihilates exactly W, so by
Z/q duality W is its row span, and the tables are the group G^[3] =
TruncGroup(n, q, W): tables_json prints them off W's columns, and
reconstruct_g3, the one reader of their JSON, eliminates their rows once
into W, as relator_subspace does a presentation's relators.

A morphism given by degree-1 images (trunc.degree_one reads them off the
image words) acts on the free central layers as the Z/q-linear map L,
which trunc.layer_image applies to one vector at a time from the images'
degree-1 maps, and morphism_check reads both of its sides off L: the
images define a morphism when L carries every source relator vector into
the target's relator subspace W_2.  The decomposable part of H^2 pairs
with W through the cup part C(t|c) = (kappa t | c), so its order is
|C(W)|, and L^T maps the target's part onto the source's exactly when
|C(L W_1)| = |C(W_1)|, as ker C always lies in ker(C L) on W_1.

Relator independence and the obstruction screen read one pass,
trunc.evaluate_relators, which certifies only relators whose free S^[3]
image is the identity; the screen certifies at most one more relator,
the dependent one whose witness it words.  Both sort the relators by the
relations among their central images, one zqlin.relations call
(_sorted_relators).
"""

from __future__ import annotations

import json

from . import presentations as pres
from .freelie import MAX_GENERATORS, word_nontriviality_certificate
from .records import record
from .trunc import (
    TRIVIALITY_CLASS,
    MinimalityReport,
    TruncGroup,
    degree_one,
    evaluate_relators,
    kappa_constant,
    layer_image,
    pair_list,
    truncated_quotient,
)
from .zqlin import (
    MAX_AMBIENT,
    MAX_Q,
    ZqMatrix,
    canonicalize,
    invariant_factors,
    prime_power,
    relations,
)


class MorphismError(ValueError):
    """Generator images do not define a homomorphism at this level."""


class HypothesisViolation(ValueError):
    """Input falls outside the elementary-quotient hypothesis."""


TABLE_KEYS = ("q", "n", "h2_rank", "h2_divisors", "cup", "bockstein", "kappa")


def tables_json(g: TruncGroup) -> dict:
    """The H^1/H^2 tables of g, with the keys TABLE_KEYS: each Howell row of
    W is a coordinate of the rank-h2_rank H^2 model, its first n entries
    the Bockstein columns, then one cup column per pair k < l.  The rules
    cup(l,k) = -cup(k,l) and cup(k,k) = kappa * bockstein(k) are implied."""
    n = g.n
    columns = [[row[j] for row in g.w.basis] for j in range(g.layer_rank)]
    return {
        "q": g.q,
        "n": n,
        "h2_rank": g.w.nrows,
        "h2_divisors": list(invariant_factors(g.w)),
        "cup": {f"{k + 1},{l + 1}": col for (k, l), col in zip(g.pairs, columns[n:])},
        "bockstein": {str(k + 1): col for k, col in enumerate(columns[:n])},
        "kappa": kappa_constant(g.q),
    }


def cup_rows(g: TruncGroup) -> list[list[int]]:
    """Each row of W's n^2 cup products, cup(k,l) at index k n + l, read
    with the diagonal and sign rules."""
    n, q, kappa = g.n, g.q, kappa_constant(g.q)
    col = {pair: n + i for i, pair in enumerate(g.pairs)}
    return [[kappa * row[k] % q if k == l else row[col[k, l]] if k < l else -row[col[l, k]] % q
             for k in range(n) for l in range(n)] for row in g.w.basis]


def _json_int(x, what: str) -> int:
    # JSON true/false load as bool, a subclass of int
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def lambda_matrix(g: TruncGroup) -> ZqMatrix:
    """Matrix of the cup+Bockstein map out of the dual central layer.

    Columns are indexed by the dual basis of the layer: first the n
    Bockstein columns, then one cup column per pair (k,l), k < l.  The
    kernel of this matrix is the kernel of the map to H^2.
    """
    return ZqMatrix.from_rows(g.q, g.w.basis, g.w.ambient_dim)


def reconstruct_g3(text: str) -> TruncGroup:
    """The third q-central quotient determined by the cohomology tables, from
    JSON text in the tables_json layout, alone or as the cohomology object of
    a `cohomology` report, checked strictly.

    Its relator subspace W, the annihilator of the kernel of the
    cup+Bockstein matrix, is over Z/q the row span of the tables.  Keys are
    1-based: "k,l" with k < l <= n for cup and "k" with k <= n for
    Bockstein.  Absent entries are zero.  The derived fields may be absent;
    when present, kappa must be C(q,2) mod q and h2_divisors the invariant
    factors of W.  No key repeats in an object, and the tables have no key
    but TABLE_KEYS.  Text that is not JSON raises ParseError, anything else
    malformed ValueError.
    """
    repeated = []

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            repeated.append(next(key for key, _ in pairs if key in seen or seen.add(key)))
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise pres.ParseError(f"not JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except RecursionError:
        raise pres.ParseError("not JSON: nested too deep", 1, 1) from None
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise pres.ParseError("not JSON: integer literal too long", 1, 1) from None
    if repeated:
        raise ValueError(f"JSON object repeats key {repeated[0]!r}")
    if isinstance(data, dict) and "cohomology" in data:
        data = data["cohomology"]
    if not isinstance(data, dict):
        raise ValueError("cohomology tables must be a JSON object")
    unknown = [key for key in data if key not in TABLE_KEYS]
    if unknown:
        raise ValueError(f"cohomology tables have unknown key {unknown[0]!r}")
    missing = [key for key in ("q", "n", "h2_rank") if key not in data]
    if missing:
        raise ValueError(f"cohomology tables lack {', '.join(missing)}")
    q, n, h2_rank = (_json_int(data[key], key) for key in ("q", "n", "h2_rank"))
    if not 2 <= q <= MAX_Q:
        raise ValueError(f"modulus {q} outside 2..{MAX_Q}")
    if not 0 <= n <= MAX_GENERATORS:
        raise ValueError(f"n = {n} outside 0..{MAX_GENERATORS}")
    if not 0 <= h2_rank <= MAX_AMBIENT:
        raise ValueError(f"h2_rank = {h2_rank} outside 0..{MAX_AMBIENT}")
    rows = [[0] * (n + len(pair_list(n))) for _ in range(h2_rank)]

    def read_columns(name: str, keys: dict):
        table = data.get(name, {})
        if not isinstance(table, dict):
            raise ValueError(f"{name} table must be a JSON object")
        for key, vec in table.items():
            if key not in keys:
                raise ValueError(f"{name} key {key!r} out of range for n = {n}")
            if not isinstance(vec, list) or len(vec) != h2_rank:
                raise ValueError(f"{name}[{key!r}] must be a list of {h2_rank} integers")
            if not all(type(x) is int for x in vec):  # JSON gives no other int type
                for x in vec:
                    _json_int(x, f"{name}[{key!r}] entry")
            for row, x in zip(rows, vec):
                row[keys[key]] = x % q

    read_columns("cup", {f"{k + 1},{l + 1}": n + i for i, (k, l) in enumerate(pair_list(n))})
    read_columns("bockstein", {str(k + 1): k for k in range(n)})
    group = TruncGroup(n, q, canonicalize(q, n + len(pair_list(n)), rows))
    kappa = kappa_constant(q)
    if "kappa" in data and _json_int(data["kappa"], "kappa") != kappa:
        raise ValueError(f"kappa must be C(q,2) mod q = {kappa}")
    if "h2_divisors" in data:
        divisors = data["h2_divisors"]
        if not isinstance(divisors, list):
            raise ValueError("h2_divisors must be a list of integers")
        want = invariant_factors(group.w)
        if tuple(_json_int(x, "h2_divisors entry") for x in divisors) != want:
            raise ValueError(f"h2_divisors must be {list(want)}, "
                             "the invariant factors of the tables' row span")
    return group


def cohomology_data_from_presentation(presentation: pres.Presentation) -> tuple[TruncGroup, MinimalityReport]:
    """The presented group's G^[3], whose W is its H^1/H^2 tables."""
    return truncated_quotient(presentation)


def tables_round_trip(presentation: pres.Presentation) -> tuple[TruncGroup, bool, MinimalityReport]:
    """The group read back by reconstruct_g3 from the presentation's tables as
    printed, whether it is the presentation's G^[3], and the minimality
    report.  Rejecting tables gq3 has just printed is a bug: RuntimeError."""
    group, report = cohomology_data_from_presentation(presentation)
    try:
        printed = reconstruct_g3(json.dumps(tables_json(group)))
    except ValueError as exc:
        raise RuntimeError(f"gq3 rejects its own cohomology tables: {exc}") from None
    return printed, printed == group, report


# ---------------------------------------------------------------------------
# Structured reports


class TestOutcome(record("name status witness", defaults=("",))):
    __slots__ = ()
    name: str
    status: str  # "passed" | "triggered" | "skipped"
    witness: str  # "" by default


class Report(record("verdict tests assumptions data")):
    __slots__ = ()
    verdict: str
    tests: tuple[TestOutcome, ...]
    assumptions: tuple[str, ...]
    data: dict  # a fresh dict by default, never one shared between reports

    def __new__(cls, verdict: str, tests: tuple[TestOutcome, ...], assumptions: tuple[str, ...],
                data: dict | None = None):
        return super().__new__(cls, verdict, tests, assumptions, {} if data is None else data)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tests": [t._asdict() for t in self.tests],
            "assumptions": list(self.assumptions),
            **self.data,
        }


def _sorted_relators(group: TruncGroup, relators: list[tuple]):
    """(relator, kind) for each relator of evaluate_relators, in order.  The
    kind is "non-central", "zero" (identity image, certified nontrivial),
    "trivial" (identity image, no certificate), "dependent" (a nonzero
    central image in the span of the other central images) or
    "independent".  One Howell form decides every dependency: v_i is in the
    span of the others exactly when a relation sum_j a_j v_j = 0 has a_i = 1,
    and as Z/q is local, that holds exactly when a Howell row of the
    relations (zqlin.relations) has a unit at i.  The live images are passed
    in reverse order, so that each relation row leads at its own column."""
    q, m = group.q, group.layer_rank
    p = prime_power(q)[0]
    vectors = [group.central_vector(y) for _, _, y, _ in relators]
    live = [i for i, vec in enumerate(vectors) if vec is not None and any(vec)]
    r = len(live)
    rows = relations(q, m, [vectors[i] for i in reversed(live)])
    dependent = {live[r - 1 - k] for row in rows for k, a in enumerate(row) if a % p}
    for i, (relator, vec) in enumerate(zip(relators, vectors)):
        if vec is None:
            yield relator, "non-central"
        elif not any(vec):
            yield relator, "trivial" if relator[3] is None else "zero"
        else:
            yield relator, "dependent" if i in dependent else "independent"


def check_relator_independence(
    presentation: pres.Presentation, certificate_class: int = TRIVIALITY_CLASS
) -> Report:
    """Per-relator independence of the images in the central layer.

    A relator that is provably nontrivial in the free group but lands on
    zero, or inside the span of the other relators, witnesses that the
    relator subgroup cannot inject into the central layer, provided the
    relators are independent in the relation module.  That proviso is
    recorded as an assumption rather than verified.
    """
    group, relators = evaluate_relators(presentation, certificate_class)
    p = prime_power(group.q)[0]
    outcomes = []
    for i, ((source, _, y, cert), kind) in enumerate(_sorted_relators(group, relators)):
        if kind == "independent":
            outcomes.append(TestOutcome(f"relator[{i}] independent", "passed"))
            continue
        status = "triggered"
        if kind == "non-central" and any(x % p for x in y.e):
            test, witness = "frattini", "has nonzero degree-1 image: presentation not minimal"
        elif kind == "non-central":
            # a p-divisible image lies in the Frattini subgroup: the
            # presentation is minimal, but the relator is not central
            test = "non-central"
            witness = "has p-divisible nonzero degree-1 image: not central in S^[3]"
        elif kind == "zero":
            test = "zero-image"
            witness = f"is nontrivial (weight {cert[0]}) but lands in the third term of the series"
        elif kind == "trivial":
            test, status = "zero-image", "skipped"
            witness = ("has zero image and no nontriviality certificate "
                       f"at class {certificate_class}")
        else:
            test, witness = "dependency", "image lies in the span of the other relator images"
        outcomes.append(TestOutcome(f"relator[{i}] {test}", status, f"{source!r} {witness}"))

    assumptions = (
        "a triggered zero-image or dependency witnesses non-injectivity of the "
        "relation module into the central layer only if the relators are "
        "independent in it (user-asserted; plausible for small relator lists)",
    )
    failed = any(t.status == "triggered" for t in outcomes)
    return Report("condition-failed" if failed else "consistent", tuple(outcomes), assumptions)


# ---------------------------------------------------------------------------
# Morphisms


class MorphismReport(record("pi2_isomorphism pi3_isomorphism h1_isomorphism "
                            "h2_decomposable_isomorphism condition_b condition_d agreement "
                            "target_h2_decomposable_model")):
    __slots__ = ()
    pi2_isomorphism: bool
    pi3_isomorphism: bool
    h1_isomorphism: bool
    h2_decomposable_isomorphism: bool
    condition_b: bool
    condition_d: bool
    agreement: bool
    target_h2_decomposable_model: bool


def _require_minimal(report: MinimalityReport, which: str):
    if not report.minimal:
        raise HypothesisViolation(
            f"{which} presentation is not minimal; eliminate generators first "
            f"(eliminated: {[g for g, _ in report.eliminated]})"
        )


def _cup_order(q: int, n: int, vectors) -> int:
    """Order of the span of the cup parts (kappa t | c) of the central
    vectors (t | c) on n generators."""
    kappa = kappa_constant(q)
    cups = [[kappa * a for a in v[:n]] + list(v[n:]) for v in vectors]
    return canonicalize(q, n + len(pair_list(n)), cups).cardinality()


def morphism_check(
    pres1: pres.Presentation,
    pres2: pres.Presentation,
    images: list[pres.Word],
) -> MorphismReport:
    """Instance check of the equivalence between group-level and
    cohomology-level isomorphism conditions.

    Condition (b): the induced maps on the level-2 and level-3 quotients
    are bijective.  Condition (d): the induced maps on H^1 and on the
    decomposable part of the H^2 model are bijective.  The report states
    whether both sides agreed on this instance.
    """
    if pres1.q != pres2.q:
        raise MorphismError("presentations have different moduli")
    q = pres1.q
    p = prime_power(q)[0]
    g1, rep1 = truncated_quotient(pres1)
    g2, rep2 = truncated_quotient(pres2)
    _require_minimal(rep1, "source")
    _require_minimal(rep2, "target")
    n1, n2 = g1.n, g2.n
    if len(images) != n1:
        raise MorphismError(f"expected {n1} generator images, got {len(images)}")

    degree1 = [degree_one(q, n2, w) for w in images]

    # well-definedness: every source relator, central as the source is
    # minimal, must map into W_2 (its layer coordinates do not depend on W_1)
    for source, y in zip(pres1.relator_sources, rep1.images):
        if not g2.w.contains(layer_image(q, n2, degree1, g1.central_vector(y))):
            raise MorphismError(f"images do not respect relator {source!r}")

    rows = [[a.get(k, 0) for k in range(n2)] for a in degree1]
    surjective = canonicalize(p, n2, rows).cardinality() == p**n2
    pi2_iso = n1 == n2 and surjective
    pi3_iso = surjective and g1.order() == g2.order()
    h1_iso = pi2_iso

    # The decomposable part of H^2 has order |C(W)|, and L^T maps the
    # target's onto the source's iff ker(C L) = ker C on W1, that is iff
    # |C(L W1)| = |C(W1)|; the map is bijective iff also |C(W1)| = |C(W2)|.
    # ker C lies in ker(C L): for (t|0) in W1 with kappa t = 0, L(t|0) is
    # in W2 as L W1 is, its cup part is kappa times integer multiples of t,
    # and kappa A t = A (kappa t) = 0.
    dec1 = _cup_order(q, n1, g1.w.basis)
    dec2 = _cup_order(q, n2, g2.w.basis)
    pulled = _cup_order(q, n2, (layer_image(q, n2, degree1, w) for w in g1.w.basis))
    pidec2_iso = dec1 == dec2 == pulled
    target_h2_dec = dec2 == g2.w.cardinality()

    condition_b = pi3_iso
    condition_d = h1_iso and pidec2_iso
    return MorphismReport(
        pi2_isomorphism=pi2_iso,
        pi3_isomorphism=pi3_iso,
        h1_isomorphism=h1_iso,
        h2_decomposable_isomorphism=pidec2_iso,
        condition_b=condition_b,
        condition_d=condition_d,
        agreement=condition_b == condition_d,
        target_h2_decomposable_model=target_h2_dec,
    )


# ---------------------------------------------------------------------------
# Obstruction screening


def obstruction_screen(
    presentation: pres.Presentation,
    cd_bound: int | None = None,
    torsion_free: bool = False,
    certificate_class: int = TRIVIALITY_CLASS,
) -> Report:
    """Screen a pro-p presentation against the known obstructions to
    being a maximal pro-p Galois group (prime modulus only).

    Three tests, in order: the whole relation subgroup sitting inside
    the third term of the series; a dependent or vanishing relator image
    in the central layer; and a supplied cohomological dimension
    exceeding the generator rank.
    """
    q = presentation.q
    p_, d_ = prime_power(q)
    if d_ != 1:
        raise ValueError(f"the screen applies to prime modulus only, got q = {q}")
    if cd_bound is not None and cd_bound < 1:
        raise ValueError(f"cohomological dimension must be at least 1, got {cd_bound}")

    n = presentation.n
    group, relators = evaluate_relators(presentation, certificate_class)
    outcomes: list[TestOutcome] = []
    assumptions = [
        f"nontriviality certificates computed at class bound {certificate_class}",
    ]

    # (i) every relator dies at level 3, some relator provably nontrivial
    certified = [source for source, _, _, cert in relators if cert is not None]
    identity = group.identity()
    if certified and all(y == identity for _, _, y, _ in relators):
        outcomes.append(
            TestOutcome(
                "relation-subgroup-inside-level-3",
                "triggered",
                f"all relators vanish at level 3; {certified[0]!r} is certified nontrivial",
            )
        )
        return Report("obstructed", tuple(outcomes), tuple(assumptions))
    outcomes.append(TestOutcome("relation-subgroup-inside-level-3", "passed"))

    # (ii) the first certified zero or dependent central image; a dependent
    # relator is certified here, for the wording of the witness only
    triggered = None
    for (source, word, _, _), kind in _sorted_relators(group, relators):
        if kind == "zero":
            triggered = f"certified relator {source!r} has zero image in the central layer"
            break
        if kind == "dependent":
            named = (f"certified relator {source!r}"
                     if word_nontriviality_certificate(word, n, certificate_class)
                     else f"relator {source!r} (nonzero central image, no certificate "
                     f"at class bound {certificate_class})")
            triggered = f"{named} has image dependent on the other relators"
            break
    if triggered:
        outcomes.append(TestOutcome("dependent-relator-image", "triggered", triggered))
        assumptions.append(
            "dependency witnesses failure of H^2 decomposability provided the "
            "relators are independent in the relation module (user-asserted)"
        )
        return Report("obstructed", tuple(outcomes), tuple(assumptions))
    outcomes.append(TestOutcome("dependent-relator-image", "passed"))

    # (iii) supplied cohomological dimension against dim H^1: at prime q,
    # relator elimination keeps n minus the rank of the degree-1 images
    if cd_bound is not None:
        dim_h1 = n - canonicalize(q, n, [y.e for _, _, y, _ in relators]).nrows
        assumptions.append(f"user-supplied cd(G) = {cd_bound}")
        if dim_h1 >= cd_bound:
            outcomes.append(TestOutcome("dimension-versus-cd", "passed"))
        elif p_ == 2 and not torsion_free:
            witness = (f"dim H^1 = {dim_h1} < cd = {cd_bound}, but p = 2 requires the "
                       "torsion-free flag")
            outcomes.append(TestOutcome("dimension-versus-cd", "skipped", witness))
        else:
            if p_ == 2:
                assumptions.append("user asserts the group is torsion-free")
            witness = f"dim H^1 = {dim_h1} < cd(G) = {cd_bound}"
            outcomes.append(TestOutcome("dimension-versus-cd", "triggered", witness))
            return Report("obstructed", tuple(outcomes), tuple(assumptions))

    return Report("no_obstruction_found", tuple(outcomes), tuple(assumptions))
