"""Exact linear algebra over Z/q for a prime power q = p^d.

For d > 1 the ring Z/q is not a field, so plain row echelon forms do not
give unique representatives of row modules: the span of (2,1) over Z/4
also contains (0,2), which no echelon row reveals.  The Howell form adds
the missing annihilator rows and is the unique canonical form for
submodules of (Z/q)^n, which is what makes subspace equality a plain
tuple comparison everywhere else in this package.

The Howell form is the one elimination here: canonical spans, sums,
kernels and annihilators, and the part of a span that vanishes on given
coordinates (vanishing_part), all read off it.  Invariant factors are
counted from the cardinalities of the Howell forms of p^k W, and the
Smith diagonal is read off the same count.

All matrices are immutable, eagerly reduced mod q, and stored as nested
tuples of plain ints.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

from .records import record

MAX_Q = 32
MAX_AMBIENT = 256


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or moduli."""


@lru_cache(maxsize=None, typed=True)  # only the 31 valid moduli are kept
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


class ZqMatrix(record("q nrows ncols entries")):
    """Immutable matrix over Z/q with q a prime power, entries in [0, q)."""

    __slots__ = ()
    q: int
    nrows: int
    ncols: int
    entries: tuple[tuple[int, ...], ...]

    def __new__(cls, q: int, nrows: int, ncols: int, entries: tuple[tuple[int, ...], ...]):
        prime_power(q)  # validates q
        if not (0 <= ncols <= MAX_AMBIENT):
            raise ValueError(f"column count {ncols} out of range")
        if len(entries) != nrows:
            raise DimensionMismatch("row count does not match entries")
        for row in entries:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            if row and (min(row) < 0 or max(row) >= q):
                raise ValueError("entry not reduced mod q")
        return super().__new__(cls, q, nrows, ncols, entries)

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


class ZqSubspace(record("q ambient_dim basis")):
    """Submodule of (Z/q)^ambient_dim in Howell canonical form.

    Two subspaces are equal as submodules iff the records compare equal
    (same q, ambient dimension and basis rows); the basis rows are
    nonzero, pivot columns strictly increase, pivots are powers of p,
    and entries above a pivot are reduced below it.
    """

    __slots__ = ()
    q: int
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __new__(cls, q: int, ambient_dim: int, basis: tuple[tuple[int, ...], ...]):
        prime_power(q)
        if not (0 <= ambient_dim <= MAX_AMBIENT):
            raise ValueError(f"ambient dimension {ambient_dim} out of range")
        for row in basis:
            if len(row) != ambient_dim:
                raise DimensionMismatch("basis row length mismatch")
            if not any(row):
                raise ValueError("zero basis row")
            if min(row) < 0 or max(row) >= q:
                raise ValueError("basis entry not reduced mod q")
        return super().__new__(cls, q, ambient_dim, basis)

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
    m = ambient_dim
    return ZqSubspace(q, m, tuple((0,) * i + (1,) + (0,) * (m - 1 - i) for i in range(m)))


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
        # Pivot on an entry of least valuation: every other entry of the
        # column is a multiple of it.
        best, least = None, d
        for i in range(r, len(work)):
            if work[i][c]:
                v = pvaluation(work[i][c], p, d)
                if v < least:
                    best, least = i, v
                    if not v:
                        break
        if best is None:
            continue
        # Normalize the pivot to p^least: that pins down the canonical form.
        top = work[best]
        if top[c] != p**least:
            x = pow(top[c] // p**least, -1, q)
            top = [(x * e) % q for e in top]
        work[best], work[r] = work[r], top
        pivot = top[c]
        # One subtraction clears the entries below the pivot and reduces
        # those above it into [0, pivot); the pivot row is zero left of c.
        for i, row in enumerate(work):
            f = row[c] // pivot
            if f and i != r:
                for k in range(c, ambient):
                    row[k] = (row[k] - f * top[k]) % q
        # Closure row: the annihilator multiple of the pivot row may have
        # support strictly to the right and must itself be spanned.
        if pivot != 1:
            extra = [(q // pivot * e) % q for e in top]
            if any(extra):
                work.append(extra)
        r += 1
    return tuple(tuple(row) for row in work[:r] if any(row))


def _cyclic_exponents(q: int, ambient: int, basis: Sequence[Sequence[int]]) -> list[int]:
    """Exponents a_i, descending, with the span W of the Howell rows basis
    isomorphic to the sum of the Z/p^(a_i).

    Read off cardinalities: log_p |p^k W| = sum_i max(a_i - k, 0), whose
    second difference in k counts the a_i equal to k.  That takes d - 1
    more Howell forms, none for prime q.
    """
    p, d = prime_power(q)
    logs = [_log_order(basis, p, d)]
    for _ in range(1, d):
        basis = _howell(q, ambient, [[p * x % q for x in row] for row in basis])
        logs.append(_log_order(basis, p, d))
    logs += [0, 0]
    return [a for a in range(d, 0, -1) for _ in range(logs[a - 1] - 2 * logs[a] + logs[a + 1])]


def _log_order(basis: Sequence[Sequence[int]], p: int, d: int) -> int:
    """log_p of the order of the span of Howell rows (pivot p^v adds d - v)."""
    return sum(d - pvaluation(next(x for x in row if x), p, d) for row in basis)


def smith_normal_form(m: ZqMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form of m over Z/q, min(nrows, ncols) long.

    Entries are powers of the residue prime (0 standing for p^d) in
    ascending divisibility order: p^(d - a) for each cyclic factor
    Z/p^a of the row span.
    """
    p, d = prime_power(m.q)
    exponents = _cyclic_exponents(m.q, m.ncols, _howell(m.q, m.ncols, m.entries))
    diag = tuple(p ** (d - a) for a in exponents)
    return diag + (0,) * (min(m.nrows, m.ncols) - len(diag))


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
    n = m.ncols
    columns = zip(*m.entries) if m.nrows else [()] * n
    graph = [col + (0,) * j + (1,) + (0,) * (n - 1 - j) for j, col in enumerate(columns)]
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
    p, _ = prime_power(w.q)
    return tuple(p**a for a in _cyclic_exponents(w.q, w.ambient_dim, w.basis))
