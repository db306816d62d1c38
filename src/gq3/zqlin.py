"""Exact linear algebra over Z/q for a prime power q = p^d.

For d > 1 the ring Z/q is not a field, so plain row echelon forms do not
give unique representatives of row modules: the span of (2,1) over Z/4
also contains (0,2), which no echelon row reveals.  The Howell form adds
the missing annihilator rows and is the unique canonical form for
submodules of (Z/q)^n, which is what makes subspace equality a plain
tuple comparison everywhere else in this package.

The Howell form is the one elimination here: canonical spans, sums,
kernels and annihilators, and the part of a span that vanishes on given
coordinates (vanishing_part), all read off it.  The Smith form serves
the invariant factors only and returns just its diagonal.

All matrices are immutable, eagerly reduced mod q, and stored as nested
tuples of plain ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

MAX_Q = 32
MAX_AMBIENT = 256


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or moduli."""


def prime_power(q: int) -> tuple[int, int]:
    """Return (p, d) with q = p^d <= MAX_Q, or raise ValueError."""
    if q < 2:
        raise ValueError(f"modulus must be at least 2, got {q}")
    if q > MAX_Q:
        raise ValueError(f"modulus {q} exceeds cap {MAX_Q}")
    p = min(f for f in range(2, q + 1) if q % f == 0)
    d = 0
    m = q
    while m % p == 0:
        m //= p
        d += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, d


def pvaluation(a: int, p: int, d: int) -> int:
    """p-adic valuation of the representative a, capped at d (val of 0)."""
    if a == 0:
        return d
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return min(v, d)


def unit_multiplier(a: int, q: int, p: int) -> int:
    """Unit x with x*a == p^v mod q, where v is the valuation of a.

    Normalizing pivots to plain p-powers is what pins down the canonical
    forms below.  For a == 0 returns 1.
    """
    if a % q == 0:
        return 1
    while a % p == 0:
        a //= p
    return pow(a, -1, q)


def annihilator_generator(a: int, q: int) -> int:
    """Generator of the ideal {x : x*a == 0 mod q}."""
    return q // math.gcd(a % q, q)


def gcdex2(a: int, b: int, q: int) -> tuple[int, int, int, int, int]:
    """Extended gcd packaged as a 2x2 transform over Z/q.

    Returns (g, s, t, u, v) with s*a + t*b = g, u*a + v*b = 0 and
    [[s, t], [u, v]] of determinant 1, hence invertible mod q.
    """
    a %= q
    b %= q
    if b == 0:
        return a, 1, 0, 0, 1
    if a == 0:
        return b, 0, 1, 1, 0
    g, s, t = _egcd(a, b)
    return g % q, s % q, t % q, (-(b // g)) % q, (a // g) % q


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class ZqMatrix:
    """Immutable matrix over Z/q with q a prime power, entries in [0, q)."""

    q: int
    nrows: int
    ncols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        p, _ = prime_power(self.q)  # validates q
        if not (0 <= self.ncols <= MAX_AMBIENT):
            raise ValueError(f"column count {self.ncols} out of range")
        if len(self.entries) != self.nrows:
            raise DimensionMismatch("row count does not match entries")
        for row in self.entries:
            if len(row) != self.ncols:
                raise DimensionMismatch("ragged rows")
            if any(not (0 <= x < self.q) for x in row):
                raise ValueError("entry not reduced mod q")

    @staticmethod
    def from_rows(q: int, rows: Sequence[Sequence[int]], ncols: int | None = None) -> "ZqMatrix":
        rows = [tuple(x % q for x in row) for row in rows]
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for an empty matrix")
            ncols = len(rows[0])
        return ZqMatrix(q, len(rows), ncols, tuple(rows))

    def transpose(self) -> "ZqMatrix":
        return ZqMatrix(self.q, self.ncols, self.nrows,
                        tuple(tuple(self.entries[i][j] for i in range(self.nrows)) for j in range(self.ncols)))

    def apply_to_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix-times-column action on a length-ncols vector."""
        if len(v) != self.ncols:
            raise DimensionMismatch("vector length mismatch")
        q = self.q
        return tuple(sum(row[k] * v[k] for k in range(self.ncols)) % q for row in self.entries)


@dataclass(frozen=True)
class ZqSubspace:
    """Submodule of (Z/q)^ambient_dim in Howell canonical form.

    Two subspaces are equal as submodules iff the dataclasses compare
    equal; the basis rows are nonzero, pivot columns strictly increase,
    pivots are powers of p, and entries above a pivot are reduced below
    it.
    """

    q: int
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        prime_power(self.q)
        if not (0 <= self.ambient_dim <= MAX_AMBIENT):
            raise ValueError(f"ambient dimension {self.ambient_dim} out of range")
        for row in self.basis:
            if len(row) != self.ambient_dim:
                raise DimensionMismatch("basis row length mismatch")
            if not any(row):
                raise ValueError("zero basis row")
            if any(not (0 <= x < self.q) for x in row):
                raise ValueError("basis entry not reduced mod q")

    @property
    def nrows(self) -> int:
        return len(self.basis)

    def cardinality(self) -> int:
        total = 1
        for row in self.basis:
            pivot = next(x for x in row if x != 0)
            total *= self.q // pivot
        return total

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce_vector(vec))

    def reduce_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coset representative of vec modulo this submodule.

        Greedy left-to-right reduction is complete because the basis has
        the Howell closure property.
        """
        if len(vec) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        q = self.q
        v = [x % q for x in vec]
        for row in self.basis:
            j = next(k for k, x in enumerate(row) if x != 0)
            coeff = v[j] // row[j]
            if coeff:
                for k in range(j, self.ambient_dim):
                    v[k] = (v[k] - coeff * row[k]) % q
        return tuple(v)


def zero_subspace(q: int, ambient_dim: int) -> ZqSubspace:
    return ZqSubspace(q, ambient_dim, ())


def full_subspace(q: int, ambient_dim: int) -> ZqSubspace:
    rows = tuple(tuple(1 if i == j else 0 for j in range(ambient_dim)) for i in range(ambient_dim))
    return ZqSubspace(q, ambient_dim, rows)


def canonicalize(q: int, ambient_dim: int, rows: Iterable[Sequence[int]]) -> ZqSubspace:
    """Howell canonical form of the row span; idempotent by construction."""
    return ZqSubspace(q, ambient_dim, _howell(q, ambient_dim, rows))


def _howell(q: int, ambient: int, rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    p, d = prime_power(q)
    work = [[x % q for x in row] for row in rows]
    for row in work:
        if len(row) != ambient:
            raise DimensionMismatch("row length mismatch")
    r = 0
    for c in range(ambient):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        # Clear the column below via unimodular 2x2 transforms.
        for i in range(r + 1, len(work)):
            if work[i][c] == 0:
                continue
            g, s, t, u, v = gcdex2(work[r][c], work[i][c], q)
            new_r = [(s * work[r][k] + t * work[i][k]) % q for k in range(ambient)]
            new_i = [(u * work[r][k] + v * work[i][k]) % q for k in range(ambient)]
            work[r], work[i] = new_r, new_i
        # Normalize the pivot to a power of p.
        x = unit_multiplier(work[r][c], q, p)
        if x != 1:
            work[r] = [(x * e) % q for e in work[r]]
        pivot = work[r][c]
        # Reduce entries above the pivot into [0, pivot).
        for i in range(r):
            coeff = work[i][c] // pivot
            if coeff:
                work[i] = [(work[i][k] - coeff * work[r][k]) % q for k in range(ambient)]
        # Closure row: the annihilator multiple of the pivot row may have
        # support strictly to the right and must itself be spanned.
        ann = annihilator_generator(pivot, q)
        if ann % q != 0:
            extra = [(ann * e) % q for e in work[r]]
            if any(extra):
                work.append(extra)
        r += 1
    return tuple(tuple(row) for row in work[:r] if any(row))


def smith_normal_form(m: ZqMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form of m over Z/q, min(nrows, ncols) long.

    Entries are powers of the residue prime (0 standing for p^d) in
    ascending divisibility order.  Each step takes an entry of minimal
    valuation as pivot and clears its column in the remaining rows; every
    remaining entry stays divisible by the pivot, so clearing its row too
    would not change what is left.
    """
    q = m.q
    p, d = prime_power(q)
    rows = [list(row) for row in m.entries if any(row)]
    diag: list[int] = []
    while rows:
        _, i, j = min((pvaluation(x, p, d), i, j)
                      for i, row in enumerate(rows) for j, x in enumerate(row) if x)
        unit = unit_multiplier(rows[i][j], q, p)
        top = [(unit * x) % q for x in rows.pop(i)]
        pivot = top[j]
        for row in rows:
            f = row[j] // pivot
            if f:
                for k, x in enumerate(top):
                    row[k] = (row[k] - f * x) % q
        rows = [row for row in rows if any(row)]
        diag.append(pivot)
    return tuple(diag) + (0,) * (min(m.nrows, m.ncols) - len(diag))


def vanishing_part(q: int, ambient: int, rows: Iterable[Sequence[int]], lead: int) -> ZqSubspace:
    """Elements of the row span that vanish on the first lead coordinates,
    as a submodule of the remaining ambient - lead coordinates.

    The Howell rows that are zero on those coordinates span that part (the
    Howell property), and their tails are themselves in Howell form.
    """
    tails = tuple(row[lead:] for row in _howell(q, ambient, rows) if not any(row[:lead]))
    return ZqSubspace(q, ambient - lead, tails)


def kernel(m: ZqMatrix) -> ZqSubspace:
    """{v in (Z/q)^ncols : m v = 0}: the graph span {(m v, v)} where m v vanishes."""
    graph = [tuple(row[j] for row in m.entries) + tuple(int(i == j) for i in range(m.ncols))
             for j in range(m.ncols)]
    return vanishing_part(m.q, m.nrows + m.ncols, graph, m.nrows)


def row_space(m: ZqMatrix) -> ZqSubspace:
    return canonicalize(m.q, m.ncols, m.entries)


def annihilator(w: ZqSubspace) -> ZqSubspace:
    """{v : v.b = 0 for every basis row b}, under the standard dot pairing."""
    return kernel(ZqMatrix.from_rows(w.q, w.basis, w.ambient_dim))


def subspace_sum(a: ZqSubspace, b: ZqSubspace) -> ZqSubspace:
    if a.q != b.q or a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspace sum mismatch")
    return canonicalize(a.q, a.ambient_dim, a.basis + b.basis)


def subspace_intersect(a: ZqSubspace, b: ZqSubspace) -> ZqSubspace:
    """Intersection computed through the perfect pairing:
    (A cap B) = ann(ann(A) + ann(B))."""
    return annihilator(subspace_sum(annihilator(a), annihilator(b)))


def invariant_factors(w: ZqSubspace) -> tuple[int, ...]:
    """Orders of the cyclic factors of w, descending (its divisor chain)."""
    diag = smith_normal_form(ZqMatrix.from_rows(w.q, w.basis, w.ambient_dim))
    return tuple(w.q // x for x in diag if x)
