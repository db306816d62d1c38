"""Reference helpers that the tests check gq3 against.

None of these is on a path the gq3 CLI runs: they rebuild words from
syllables, recognise Hall elements, multiply Z/q matrices and enumerate
small submodules, so that the library's answers can be verified by
direct construction.
"""

import itertools

from gq3.freelie import HallElement
from gq3.presentations import Generator, Power, Product
from gq3.zqlin import ZqMatrix, ZqSubspace


def syllables_to_word(seq):
    """The word g1^e1 g2^e2 ... of a syllable list [(g1, e1), ...]."""
    factors = []
    for g, e in seq:
        if e == 1:
            factors.append(Generator(g))
        elif e != 0:
            factors.append(Power(Generator(g), e))
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def is_hall(e: HallElement) -> bool:
    """The Hall conditions, checked recursively on the bracket tree."""
    if e.is_generator():
        return True
    u, v = e.left, e.right
    if not (is_hall(u) and is_hall(v) and v < u):
        return False
    if u.is_generator():
        return True
    return u.right <= v


def identity(q: int, n: int) -> ZqMatrix:
    return ZqMatrix(q, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def zero(q: int, nrows: int, ncols: int) -> ZqMatrix:
    return ZqMatrix(q, nrows, ncols, tuple(tuple(0 for _ in range(ncols)) for _ in range(nrows)))


def matmul(a: ZqMatrix, b: ZqMatrix) -> ZqMatrix:
    assert a.q == b.q and a.ncols == b.nrows
    out = tuple(
        tuple(sum(a.entries[i][k] * b.entries[k][j] for k in range(a.ncols)) % a.q
              for j in range(b.ncols))
        for i in range(a.nrows)
    )
    return ZqMatrix(a.q, a.nrows, b.ncols, out)


def is_diagonal(m: ZqMatrix) -> bool:
    return all(m.entries[i][j] == 0
               for i in range(m.nrows) for j in range(m.ncols) if i != j)


def subspace_vectors(w: ZqSubspace):
    """Every element of w, as combinations of its Howell basis (small w only)."""
    orders = [w.q // next(x for x in row if x != 0) for row in w.basis]
    for coeffs in itertools.product(*(range(o) for o in orders)):
        acc = [0] * w.ambient_dim
        for c, row in zip(coeffs, w.basis):
            for k in range(w.ambient_dim):
                acc[k] = (acc[k] + c * row[k]) % w.q
        yield tuple(acc)
