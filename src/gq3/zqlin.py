"""Exact linear algebra over Z/q for a prime power q = p^d.

For d > 1 the ring Z/q is not a field, so plain row echelon forms do not
give unique representatives of row modules: the span of (2,1) over Z/4
also contains (0,2), which no echelon row reveals.  The Howell form adds
the missing annihilator rows and is the unique canonical form for
submodules of (Z/q)^n, which is what makes subspace equality a plain
tuple comparison everywhere else in this package.

The Howell form is the one canonical form here, and canonical spans,
sums and annihilators are read off it.  Its rows that vanish on the
leading coordinates span the part of the span that vanishes there (the
Howell property): vanishing_part reads that part off a Howell form, and
relations reads the relation module of any number of vectors off the
Howell form of their graph rows (v_j | e_j); kernel is the relations
among the columns of bare rows.  The Smith diagonal and invariant factors
of a span take one Smith pass over its Howell rows and no other Howell
form: a row with a unit pivot splits off, the rest take one elimination.

All matrices are immutable, eagerly reduced mod q, and stored as nested
tuples of plain ints.  No answer builds a ZqMatrix but the one that
trunc.abelianization hands smith_normal_form; the rest pass bare rows.

factorize is the package's one integer factorization: prime_power reads
q = p^d off it, milnor tests primes with it and reads the p-part of
ell - 1 off it for a preset presentation, and freelie reads the Mobius
function off it.  Likewise gcd(q, x) = p^v(x) is the one valuation here,
which the Howell pivot search and the Smith pass both read, and
next(filter(None, row)) the one read of a Howell row's pivot.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import gcd
from operator import itemgetter

from .records import record

MAX_Q = 32
MAX_AMBIENT = 256


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or moduli."""


def factorize(m: int) -> dict[int, int]:
    """{p: e} with m = prod p^e for m >= 1, primes ascending; {} for 1."""
    if m < 1:
        raise ValueError(f"cannot factorize {m}")
    factors: dict[int, int] = {}
    f = 2
    while f * f <= m:  # trial division; what is left above sqrt is prime
        while m % f == 0:
            factors[f] = factors.get(f, 0) + 1
            m //= f
        f += 1
    if m > 1:
        factors[m] = 1
    return factors


@lru_cache(maxsize=None, typed=True)  # only the 31 valid moduli are kept
def prime_power(q: int) -> tuple[int, int]:
    """Return (p, d) with q = p^d <= MAX_Q, or raise ValueError."""
    if q < 2:
        raise ValueError(f"modulus must be at least 2, got {q}")
    if q > MAX_Q:
        raise ValueError(f"modulus {q} exceeds cap {MAX_Q}")
    (p, d), *others = factorize(q).items()
    if others:
        raise ValueError(f"{q} is not a prime power")
    return p, d


def unit_inverse(x: int, q: int) -> int:
    """x^-1 mod q.  Every caller passes a unit by construction, so a
    non-unit is a bug: it raises AssertionError (an internal error), not
    the ValueError that pow raises and that marks bad input."""
    try:
        return pow(x, -1, q)
    except ValueError:
        raise AssertionError(f"{x} is not a unit mod {q}") from None


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
            total *= self.q // next(filter(None, row))
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
            pivot = next(filter(None, row))
            j = row.index(pivot)
            coeff = v[j] // pivot
            if coeff:
                for k in range(j, self.ambient_dim):
                    v[k] = (v[k] - coeff * row[k]) % q
        return tuple(v)


def zero_subspace(q: int, ambient_dim: int) -> ZqSubspace:
    return ZqSubspace(q, ambient_dim, ())


def full_subspace(q: int, ambient_dim: int) -> ZqSubspace:
    return ZqSubspace(q, ambient_dim, tuple(axis(ambient_dim, i) for i in range(ambient_dim)))


def axis(size: int, k: int, x: int = 1) -> tuple[int, ...]:
    """(0, ..., x, ..., 0): x at coordinate k of size, 0 elsewhere."""
    return (0,) * k + (x,) + (0,) * (size - 1 - k)


def canonicalize(q: int, ambient_dim: int, rows: Iterable[Sequence[int]]) -> ZqSubspace:
    """Howell canonical form of the row span; idempotent by construction."""
    return ZqSubspace(q, ambient_dim, _howell(q, ambient_dim, rows))


def _howell(q: int, ambient: int, rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    prime_power(q)  # validates q
    work = [[x % q for x in row] for row in rows]
    for row in work:
        if len(row) != ambient:
            raise DimensionMismatch("row length mismatch")
    r = 0
    for c in range(ambient):
        if r == len(work):  # every row holds a pivot: no later column gets one
            break
        # Pivot on an entry of least valuation, p^v = gcd(q, x): every
        # other entry of the column is a multiple of it.
        best, pivot = None, q
        for i in range(r, len(work)):
            if work[i][c]:
                g = gcd(q, work[i][c])
                if g < pivot:
                    best, pivot = i, g
                    if g == 1:
                        break
        if best is None:
            continue
        # Normalize the pivot to p^v: that pins down the canonical form.
        top = work[best]
        if top[c] != pivot:
            x = unit_inverse(top[c] // pivot, q)
            top = [(x * e) % q for e in top]
        work[best], work[r] = work[r], top
        # One subtraction clears the entries below the pivot and reduces
        # those above it into [0, pivot), over the pivot row's nonzero
        # columns: it is zero left of c, and elsewhere entries stay reduced.
        support = None
        for i, row in enumerate(work):
            f = row[c] // pivot
            if f and i != r:
                if support is None:
                    support = [k for k in range(c, ambient) if top[k]]
                for k in support:
                    row[k] = (row[k] - f * top[k]) % q
        # Closure row: the annihilator multiple of the pivot row may have
        # support strictly to the right and must itself be spanned.
        if pivot != 1:
            extra = [(q // pivot * e) % q for e in top]
            if any(extra):
                work.append(extra)
        r += 1
    return tuple(tuple(row) for row in work[:r] if any(row))


def _smith_diagonal(q: int, basis: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero Smith diagonal p^v, ascending, of the span of the Howell rows
    basis, the sum of the Z/p^(d - v), in one pass.

    gcd(q, *row) is p to the least valuation in the row.  A row alone in its
    pivot column whose pivot is that gcd splits off: column operations clear
    the rest of it and touch no other row.  Each row with pivot 1 does (the
    entries above a Howell pivot are reduced below it), so at prime q all
    rows do.  The others take one elimination: pivot on an entry of least
    valuation, clear its column from the other rows, drop the pivot row;
    every entry left is a multiple of the pivot, so no column operation is
    needed."""
    diag, rows = [], []
    for i, row in enumerate(basis):
        pivot = next(filter(None, row))
        if pivot == 1 or (gcd(q, *row) == pivot
                          and not any(map(itemgetter(row.index(pivot)), basis[:i]))):
            diag.append(pivot)
        else:
            rows.append(list(row))
    least = [gcd(q, *row) for row in rows]
    while rows and (g := min(least)) < q:
        i = least.index(g)
        top, _ = rows.pop(i), least.pop(i)
        diag.append(g)
        c = next(k for k, x in enumerate(top) if gcd(q, x) == g)
        inverse = unit_inverse(top[c] // g, q)
        support = [k for k, x in enumerate(top) if x]
        for i, row in enumerate(rows):
            if row[c]:
                f = row[c] // g * inverse
                for k in support:
                    row[k] = (row[k] - f * top[k]) % q
                least[i] = gcd(q, *row)
    return sorted(diag)


def smith_normal_form(m: ZqMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form of m over Z/q, min(nrows, ncols) long.

    Entries are powers of the residue prime (0 standing for p^d) in
    ascending divisibility order: p^(d - a) for each cyclic factor
    Z/p^a of the row span.
    """
    diag = tuple(_smith_diagonal(m.q, _howell(m.q, m.ncols, m.entries)))
    return diag + (0,) * (min(m.nrows, m.ncols) - len(diag))


def _vanishing(rows: Iterable[Sequence[int]], lead: int) -> tuple[tuple[int, ...], ...]:
    """Tails past lead of the Howell rows that vanish on the first lead
    coordinates: by the Howell property they span the part of the span
    that vanishes there, and are themselves in Howell form."""
    return tuple(row[lead:] for row in rows if not any(row[:lead]))


def vanishing_part(w: ZqSubspace, lead: int) -> ZqSubspace:
    """Elements of w that vanish on its first lead coordinates, as a
    submodule of the remaining ambient_dim - lead coordinates."""
    return ZqSubspace(w.q, w.ambient_dim - lead, _vanishing(w.basis, lead))


def relations(q: int, width: int, vectors: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Howell rows of {a : sum_j a_j v_j = 0} for vectors v_j in (Z/q)^width,
    read off the graph rows (v_j | e_j).  len(vectors) is not capped, so
    the rows may be longer than MAX_AMBIENT."""
    r = len(vectors)
    graph = [tuple(v) + axis(r, j) for j, v in enumerate(vectors)]
    return _vanishing(_howell(q, width + r, graph), width)


def kernel(q: int, ncols: int, rows: Sequence[Sequence[int]]) -> ZqSubspace:
    """{v in (Z/q)^ncols : r.v = 0 for each row r}: the columns' relations."""
    if any(len(row) != ncols for row in rows):
        raise DimensionMismatch("ragged rows")
    return ZqSubspace(q, ncols, relations(q, len(rows), list(zip(*rows)) if rows else [()] * ncols))


def row_space(m: ZqMatrix) -> ZqSubspace:
    return canonicalize(m.q, m.ncols, m.entries)


def annihilator(w: ZqSubspace) -> ZqSubspace:
    """{v : v.b = 0 for every basis row b}, under the standard dot pairing."""
    return kernel(w.q, w.ambient_dim, w.basis)


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
    return tuple(w.q // x for x in _smith_diagonal(w.q, w.basis))
