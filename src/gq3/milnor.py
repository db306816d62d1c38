"""Graded Z/q-algebras, quadratic hulls, and mod-q Milnor K-ring presets.

A graded algebra is stored through its relation subspaces: degree r
lives in the q^(rank^r)-element tensor coordinate space and T_r is the
canonical subspace of relations, so A_r = (Z/q)^(rank^r) / T_r.  The
quadratic hull generates T_r from the degree-2 relations placed in all
slot pairs, which is the whole structure of a quadratic algebra; the
tensor positions of a placement are computed once per slot pair and
fill, and every relation row is written through them.  A full T_{r-1}
makes T_r full, so no rows are placed past the first full degree.  A
hull depends only on its degree-2 relations, so the comparison with a
presentation is decided there: equal relations give equal hulls in every
degree, and unequal ones differ in degree 2 already.  The presentation's
own hull is built only when they differ, for its degree ranks.

The field presets compute their degree-2 relations from first
principles: a Steinberg sweep a (x) (1-a) over F_ell, or over a bounded
Laurent-monomial window for the local preset, and 2-adic Hilbert symbols
on the nine basis pairs, extended by bimultiplicativity, for the dyadic
one.  The class dlog(c) mod q of a unit is read off one power of c.  A
unit a gives class(a) class(1-a) e_uu, so the sweep over F_ell stops at
the first unit product; a monomial c t^v with v < 0 gives the class pair
(class(c), class(c) + class(-1)), and three rows per negative valuation,
those of class(c) = 0, 1 and -1, span the rows of all q classes.  The
local sweep doubles its window, and the rows the wider window adds must
lie in the span already computed; the dyadic span must not move at a
higher precision.  Otherwise the oracle raises rather than returning an
unstable answer.  The square test behind a Hilbert symbol tries every
pair of values, as integer bitmasks ANDed in one step per value of the
first set.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from . import presentations as pres
from .cohom import CohomologyData, Report, TestOutcome, cohomology_data_from_presentation
from .records import record
from .zqlin import (
    ZqMatrix,
    ZqSubspace,
    canonicalize,
    factorize,
    full_subspace,
    invariant_factors,
    kernel,
    prime_power,
)

MAX_RANK = 4
MAX_DEGREE = 4
MAX_ELL = 10_000


class OracleInstability(AssertionError):
    """Doubling the enumeration window changed a computed relation span."""


class PresetError(ValueError):
    """Field preset and modulus are incompatible."""


# ---------------------------------------------------------------------------
# Graded algebras


class GradedAlgebra(record("q gen_count components basis_names", defaults=((),))):
    """Relation subspaces T_2..T_r_max; built by quadratic_hull."""

    __slots__ = ()
    q: int
    gen_count: int
    components: dict[int, ZqSubspace]  # degree -> relation subspace
    basis_names: tuple[str, ...]  # () by default

    def degree_cardinality(self, r: int) -> int:
        return math.prod(self.degree_divisors(r))

    def degree_divisors(self, r: int) -> tuple[int, ...]:
        """Cyclic factor orders of A_r, descending, trivial ones dropped; () for a full T_r."""
        if r == 1:
            return (self.q,) * self.gen_count
        if self.components[r].cardinality() == self.q ** (self.gen_count**r):
            return ()
        # A factor Z/f of T_r leaves Z/(q/f) in A_r; the coordinates T_r
        # does not reach stay free.
        inv = invariant_factors(self.components[r])
        free = [self.q] * (self.gen_count**r - len(inv))
        return tuple(sorted([self.q // f for f in inv if f < self.q] + free, reverse=True))

    def degree_rank(self, r: int) -> int:
        """Number of free Z/q-factors of A_r."""
        return self.degree_divisors(r).count(self.q)


def _grcomm_rows(q: int, m: int) -> list[list[int]]:
    """Graded commutativity in degree 2: x(x)y + y(x)x and 2 x(x)x."""
    rows = []
    for i in range(m):
        for j in range(i, m):
            row = [0] * (m * m)
            if i == j:
                row[i * m + i] = 2 % q
            else:
                row[i * m + j] = 1
                row[j * m + i] = 1
            if any(row):
                rows.append(row)
    return rows


def _check_degree_bound(r_max: int):
    if not (2 <= r_max <= MAX_DEGREE):
        raise ValueError(f"degree bound {r_max} outside 2..{MAX_DEGREE}")


def quadratic_hull(
    q: int,
    a1_rank: int,
    zero_pairs: ZqSubspace,
    r_max: int,
    basis_names: tuple[str, ...] = (),
) -> GradedAlgebra:
    """The graded algebra generated in degree 1 with relations generated
    by zero_pairs: T_r is spanned by the degree-2 relations placed in
    every slot pair, tensored with basis vectors elsewhere.
    """
    if not (1 <= a1_rank <= MAX_RANK):
        raise ValueError(f"rank {a1_rank} outside 1..{MAX_RANK}")
    _check_degree_bound(r_max)
    if zero_pairs.ambient_dim != a1_rank * a1_rank or zero_pairs.q != q:
        raise ValueError("zero_pairs has wrong ambient dimension or modulus")

    m = a1_rank
    components = {2: zero_pairs}
    # Howell rows are reduced and nonzero, and a placement sends distinct
    # (a, b) to distinct positions: each placed row is reduced and nonzero.
    entries = [[(k, x) for k, x in enumerate(zrow) if x] for zrow in zero_pairs.basis]
    for r in range(3, r_max + 1):
        if components[r - 1].cardinality() == q ** (m ** (r - 1)):
            # a full T_{r-1}, tensored with the basis vectors, lies in T_r
            components[r] = full_subspace(q, m**r)
            continue
        rows = set()  # a relation repeats across slot pairs and fills
        for i, j in itertools.combinations(range(r), 2):
            rest = [r - 1 - s for s in range(r) if s not in (i, j)]
            offsets = [a * m ** (r - 1 - i) + b * m ** (r - 1 - j)
                       for a in range(m) for b in range(m)]
            for fill in itertools.product(range(m), repeat=r - 2):
                base = sum(g * m**e for g, e in zip(fill, rest))
                positions = [base + o for o in offsets]
                for nonzero in entries:
                    out = [0] * m**r
                    for k, x in nonzero:
                        out[positions[k]] = x
                    rows.add(tuple(out))
        components[r] = canonicalize(q, m**r, rows)

    return GradedAlgebra(q, m, components, basis_names)


# ---------------------------------------------------------------------------
# Field presets


class FieldPreset(record("kind ell")):
    __slots__ = ()
    kind: str  # "finite_field" | "tame_local" | "two_adic"
    ell: int  # 0 by default

    def __new__(cls, kind: str, ell: int = 0):
        if kind not in ("finite_field", "tame_local", "two_adic"):
            raise PresetError(f"unknown preset {kind!r}")
        if kind in ("finite_field", "tame_local"):
            if not (2 <= ell <= MAX_ELL) or not _is_prime(ell):
                raise PresetError(f"residue characteristic {ell} must be a prime <= {MAX_ELL}")
        return super().__new__(cls, kind, ell)

    def validate_modulus(self, q: int):
        prime_power(q)
        if self.kind == "two_adic":
            if q != 2:
                raise PresetError("the dyadic preset is defined for q = 2 only")
        else:
            if (self.ell - 1) % q != 0:
                raise PresetError(
                    f"q = {q} does not divide ell - 1 = {self.ell - 1}: "
                    "the field has no q-th roots of unity"
                )

    def describe(self) -> str:
        if self.kind == "finite_field":
            return f"finite field F_{self.ell}"
        if self.kind == "tame_local":
            return f"Laurent series field F_{self.ell}((t))"
        return "dyadic field Q_2"


def _is_prime(m: int) -> bool:
    return factorize(m) == {m: 1}


def parse_preset(text: str) -> FieldPreset:
    """CLI syntax: finite:ell, tame_local:ell, two_adic."""
    name, colon, arg = text.partition(":")
    name = name.strip()
    if name in ("two_adic", "2adic", "q2") and not colon:
        return FieldPreset("two_adic")
    kind = {"finite": "finite_field", "finite_field": "finite_field",
            "tame": "tame_local", "tame_local": "tame_local"}.get(name)
    if kind is None or not (arg.strip().isascii() and arg.strip().isdecimal()):
        raise PresetError(f"preset {text!r} is not finite:ell, tame_local:ell or two_adic")
    digits = arg.strip().lstrip("0") or "0"
    if len(digits) > len(str(MAX_ELL)):
        # int() of a long enough string raises its own digit-limit error
        raise PresetError(f"residue characteristic {digits} must be a prime <= {MAX_ELL}")
    return FieldPreset(kind, int(digits))


def _primitive_root(ell: int) -> int:
    order = ell - 1
    primes = factorize(order)
    for g in range(1, ell):  # 1 generates F_2^*
        if all(pow(g, order // f, ell) != 1 for f in primes):
            return g
    raise AssertionError(f"no primitive root modulo {ell}")


def _class_map(ell: int, q: int):
    """c -> dlog_g(c) mod q on the units of F_ell, g the primitive root: the
    index of c^((ell-1)/q) among the q powers of zeta = g^((ell-1)/q)."""
    e = (ell - 1) // q
    zeta = pow(_primitive_root(ell), e, ell)
    index = {pow(zeta, k, ell): k for k in range(q)}
    return lambda c: index[pow(c, e, ell)]


def _outer(q: int, u, v) -> list[int]:
    return [(x * y) % q for x in u for y in v]


def _unit_span(ell: int, q: int, cls) -> int:
    """The g with g Z/q spanned by class(c) class(1-c), c = 2..ell-1; the
    sweep stops at the first unit product, since then g = 1."""
    g = q
    for c in range(2, ell):
        g = math.gcd(g, cls(c) * cls(ell + 1 - c))
        if g == 1:
            break
    return g


def steinberg_relations_finite(ell: int, q: int) -> ZqSubspace:
    """Span of a (x) (1-a) over all of F_ell, on the rank-1 basis u."""
    return canonicalize(q, 1, _grcomm_rows(q, 1) + [[_unit_span(ell, q, _class_map(ell, q))]])


def _valuation_rows(q: int, v: int, unit_span: int, s: int) -> list[tuple[int, ...]]:
    """Nonzero rows spanning a (x) (1-a) for the monomials a = c t^v, all c.

    1 - c t^v has the trivial class for v > 0, the class of 1 - c for
    v = 0 (rows spanning unit_span e_uu), and that of -c t^v for v < 0,
    where class(-c) = class(c) + s with s = class(-1).  For v < 0 the
    row of class a is R(a) = (a, v) (x) (a + s, v) = a^2 E + a B + C with
    E = (1,0,0,0), B = (s,v,v,0), C = (0,0,vs,v^2), so R(0), R(1), R(-1)
    span every R(a): R(a) - C = a (E + B) + (a^2 - a) E, a^2 - a is even,
    and 2E = (R(1) - C) + (R(-1) - C).
    """
    if v > 0:
        return []
    if v == 0:
        rows = [(unit_span % q, 0, 0, 0)]
    else:
        rows = [tuple(_outer(q, (a, v), (a + s, v))) for a in (0, 1, q - 1)]
    return [row for row in rows if any(row)]


def steinberg_relations_tame(ell: int, q: int, window: int = 2) -> ZqSubspace:
    """Span of a (x) (1-a) over Laurent monomials a = c t^v, |v| <= window,
    checked against |v| <= 2 * window.

    Classes are (unit dlog mod q, valuation mod q) on the basis (u, t).
    The rows the wider window adds must lie in the span, else the oracle
    raises.
    """
    cls = _class_map(ell, q)
    unit_span, s = _unit_span(ell, q, cls), cls(ell - 1)
    rows = set()
    for v in range(-window, window + 1):
        rows.update(_valuation_rows(q, v, unit_span, s))
    t2 = canonicalize(q, 4, _grcomm_rows(q, 2) + list(rows))
    wider = set()
    for v in itertools.chain(range(-2 * window, -window), range(window + 1, 2 * window + 1)):
        wider.update(_valuation_rows(q, v, unit_span, s))
    if not all(t2.contains(row) for row in wider - rows):
        raise OracleInstability("tame Steinberg span changed when the valuation window doubled")
    return t2


# -- dyadic Hilbert symbol ---------------------------------------------------

TWO_ADIC_CLASSES = (1, -1, 2, -2, 5, -5, 10, -10)
TWO_ADIC_BASIS = (-1, 2, 5)


def square_class_vector(a: int) -> tuple[int, int, int]:
    """Coordinates of a square class over the basis (-1, 2, 5)."""
    if a not in TWO_ADIC_CLASSES:
        raise ValueError(f"{a} is not a square-class representative")
    sign = 1 if a < 0 else 0
    two = 1 if a % 2 == 0 else 0
    five = 1 if abs(a) in (5, 10) else 0
    return (sign, two, five)


@lru_cache(maxsize=8)
def _square_sets(precision_bits: int) -> tuple[int, frozenset[int], frozenset[int]]:
    """The squares mod 2^precision_bits as a bitmask, and as sets of all
    and of odd squares."""
    m = 1 << precision_bits
    squares = frozenset((z * z) % m for z in range(m))
    return _mask(squares), squares, frozenset((z * z) % m for z in range(1, m, 2))


def _mask(residues) -> int:
    return sum(1 << x for x in residues)


def hilbert_symbol_two_adic(a: int, b: int, precision_bits: int = 8) -> int:
    """(a, b)_2 via exhaustive square testing at the given 2-power modulus.

    Solvability of z^2 = a x^2 + b y^2 with a primitive triple is decided
    modulo 2^precision_bits; any primitive 2-adic solution survives the
    reduction and Hensel lifting recovers one from a solution mod 2^k for
    the representatives in use, so the test is exact.  Every pair (u, v)
    of the two value sets is tested: for each u, the squares bitmask
    rotated down by u has bit v set exactly when u + v is a square, and
    is ANDed with the bitmask of the v set.
    """
    m = 1 << precision_bits
    sq_mask, squares, odd_sq = _square_sets(precision_bits)
    b_odd = _mask({(b * s) % m for s in odd_sq})
    b_all = _mask({(b * s) % m for s in squares})
    for us, vs in ((odd_sq, b_all), (squares, b_odd)):
        for u in {(a * s) % m for s in us}:
            if ((sq_mask >> u) | (sq_mask << (m - u))) & vs:
                return 1
    return -1


def hilbert_relation_span(precision_bits: int = 8) -> ZqSubspace:
    """Span mod 2 of a (x) b over the square-class pairs with trivial symbol.
    Only the nine basis pairs are square-tested; the symbol is bimultiplicative,
    so (a, b) = (-1)^(x^T H y) for the class vectors x, y and basis symbols H."""
    h = [hilbert_symbol_two_adic(a, b, precision_bits) == -1
         for a in TWO_ADIC_BASIS for b in TWO_ADIC_BASIS]
    rows = _grcomm_rows(2, 3)
    for a in TWO_ADIC_CLASSES:
        for b in TWO_ADIC_CLASSES:
            row = _outer(2, square_class_vector(a), square_class_vector(b))
            if any(row) and sum(t * s for t, s in zip(row, h)) % 2 == 0:
                rows.append(row)
    return canonicalize(2, 9, rows)


def preset_relations(preset: FieldPreset, q: int) -> tuple[ZqSubspace, tuple[str, ...]]:
    """Degree-2 relations of a preset field's mod-q K-ring, with the
    names of its degree-1 basis.

    For the Laurent-series and dyadic presets the oracle window (or
    2-adic precision) is doubled and the span must not move.
    """
    preset.validate_modulus(q)
    if preset.kind == "finite_field":
        return steinberg_relations_finite(preset.ell, q), ("u",)
    if preset.kind == "tame_local":
        return steinberg_relations_tame(preset.ell, q), ("u", "t")
    t2 = hilbert_relation_span(precision_bits=8)
    if t2 != hilbert_relation_span(precision_bits=10):
        raise OracleInstability("dyadic relation span changed under precision increase")
    return t2, ("-1", "2", "5")


def milnor_mod_q(preset: FieldPreset, q: int, r_max: int = 4) -> GradedAlgebra:
    """The mod-q Milnor K-ring of a preset field in degrees <= r_max:
    the quadratic hull of the preset's degree-2 relations."""
    t2, names = preset_relations(preset, q)
    return quadratic_hull(q, len(names), t2, r_max, names)


# ---------------------------------------------------------------------------
# Matched presentations and the symbol comparison


def preset_presentation(preset: FieldPreset, q: int) -> tuple[pres.Presentation, dict[str, str]]:
    """The standard presentation matched to a preset, with the
    degree-1 correspondence from K-ring basis names to generators.

    For the Laurent-series preset the relator exponent is the p-part of
    ell - 1 (the order of the p-primary roots of unity), carried by the
    uniformizer-dual generator; at truncation level the power vanishes
    entirely when q^2 divides ell - 1.
    """
    preset.validate_modulus(q)
    p = prime_power(q)[0]
    if preset.kind == "finite_field":
        return pres.make_presentation(q, ["x1"], []), {"u": "x1"}
    if preset.kind == "tame_local":
        q_f = p ** factorize(preset.ell - 1).get(p, 0)
        return (
            pres.make_presentation(q, ["x1", "x2"], [f"x2^{q_f} [x1,x2]"]),
            {"u": "x1", "t": "x2"},
        )
    return (
        pres.make_presentation(2, ["x1", "x2", "x3"], ["x1^2 x2^4 [x2,x3]"]),
        {"-1": "x1", "2": "x2", "5": "x3"},
    )


def presentation_zero_pairs(cd: CohomologyData) -> ZqSubspace:
    """Kernel of the degree-(1,1) cup map of a cohomology model."""
    return kernel(ZqMatrix.from_rows(cd.q, cd.cup_rows(), cd.n**2))


def galois_symbol_compare(
    preset: FieldPreset,
    presentation: pres.Presentation,
    correspondence: dict[str, str],
    r_max: int = 4,
) -> Report:
    """Check that the degree-1 correspondence extends to a graded
    isomorphism between the preset K-ring and the quadratic hull of the
    presentation's cohomology model, in degrees <= r_max.
    """
    q = presentation.q
    field_t2, names = preset_relations(preset, q)
    _check_degree_bound(r_max)
    cd, report = cohomology_data_from_presentation(presentation)

    outcomes: list[TestOutcome] = []
    assumptions = [f"preset: {preset.describe()}", f"tested degrees: 1..{r_max}"]
    if not report.minimal:
        assumptions.append(
            f"presentation auto-minimized; kept generators {report.kept_generators}"
        )

    if set(correspondence.keys()) != set(names):
        raise PresetError(
            f"correspondence keys {sorted(correspondence)} do not match the "
            f"K-ring basis {names}"
        )
    if len(set(correspondence.values())) != len(correspondence):
        raise PresetError("correspondence is not injective on generators")
    name_to_index = {name: i for i, name in enumerate(report.kept_generators)}
    for target in correspondence.values():
        if target not in name_to_index:
            raise PresetError(f"correspondence targets unknown generator {target!r}")

    # degree 1: bijection on the free module bases
    m = len(names)
    if m != cd.n:
        outcomes.append(
            TestOutcome("degree-1", "triggered", f"K_1 rank {m} != H^1 rank {cd.n}")
        )
        return Report("not-isomorphic", tuple(outcomes), tuple(assumptions))
    outcomes.append(TestOutcome("degree-1", "passed"))

    # Relabel the field relations along the correspondence; a generator
    # permutation commutes with the hull and keeps every degree's divisors.
    perm = [name_to_index[correspondence[name]] for name in names]
    mapped_rows = []
    for row in field_t2.basis:
        out = [0] * (m * m)
        for a in range(m):
            for b in range(m):
                out[perm[a] * m + perm[b]] = row[a * m + b]
        mapped_rows.append(out)
    mapped_t2 = canonicalize(q, m * m, mapped_rows)
    pres_t2 = presentation_zero_pairs(cd)
    # A hull is a function of its degree-2 relations: equal ones give equal
    # hulls in every degree, and unequal ones already differ in degree 2.
    ok = pres_t2 == mapped_t2
    field_hull = quadratic_hull(q, m, mapped_t2, r_max)
    field_ranks = [field_hull.degree_rank(r) for r in range(1, r_max + 1)]
    if ok:
        outcomes += [TestOutcome(f"degree-{r}", "passed") for r in range(2, r_max + 1)]
        pres_ranks = field_ranks
    else:
        pres_hull = quadratic_hull(q, m, pres_t2, r_max)
        pres_ranks = [pres_hull.degree_rank(r) for r in range(1, r_max + 1)]
        outcomes.append(TestOutcome(
            "degree-2",
            "triggered",
            "relation subspaces differ in degree 2: K-ring side has cardinality "
            f"{field_hull.degree_cardinality(2)}, cohomology side {pres_hull.degree_cardinality(2)}",
        ))
    return Report(
        "isomorphic" if ok else "not-isomorphic",
        tuple(outcomes),
        tuple(assumptions),
        data={"degree_ranks_field": field_ranks, "degree_ranks_presentation": pres_ranks},
    )
