"""Seeded query corpora for the three benchmark workloads, with oracles.

Each workload is a list of ``gq3`` command lines plus the presentation
files they read.  Every query carries the answer it must produce, fixed
by how its input was constructed, and a check that compares the parsed
JSON report with it.  The oracles share no code with ``gq3``: orders come
from this module's own rank computation mod p, verdicts and certificate
weights from the construction of the relators, and K-ring ranks from the
closed forms for each field preset.

Workloads:

* ``groups``: truncate, cohomology, reconstruct and morphism on random
  minimal and non-minimal presentations over n in {2,4,6,8} and
  q in {2,3,9,32}.  Exercises the group law, generator elimination and
  many small Howell/Smith calls (``trunc`` and ``zqlin``).
* ``certificates``: screen and equiv on relators deep in the lower
  central series at q in {2,3}.  Exercises the Magnus expansion and the
  exact Hall-basis solve (``freelie``).
* ``milnor``: kmilnor and galois-check on field presets.  Exercises the
  Steinberg and Hilbert sweeps and a few very tall ``canonicalize``
  inputs (``milnor`` and ``zqlin``), the opposite use of ``zqlin``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

WORKLOADS = ("groups", "certificates", "milnor")


@dataclass
class Query:
    """One ``gq3`` invocation and the answer it must give.

    ``expect`` holds the constructed answer; ``check`` compares a report
    with it and returns a list of mismatches (empty when correct).  All
    queries with the same ``group`` must report the same group order.
    """

    argv: list[str]
    expect: dict
    check: Callable[[int, dict | None, dict], list[str]]
    group: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Corpus:
    files: dict[str, str] = field(default_factory=dict)
    queries: list[Query] = field(default_factory=list)


def build(workload: str, seed: int, workdir: str) -> Corpus:
    """The corpus of one workload; the same seed gives the same corpus."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"gq3-bench:{workload}:{seed}")
    builder = {"groups": _groups, "certificates": _certificates, "milnor": _milnor}[workload]
    corpus = Corpus()
    builder(rng, corpus, workdir)
    rng.shuffle(corpus.queries)
    return corpus


# ---------------------------------------------------------------------------
# Shared helpers


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{k + 1}" for k in range(n)]


def _pres_text(q: int, gens: list[str], rels: list[str]) -> str:
    quoted = ", ".join(f'"{r}"' for r in rels)
    return f"q = {q};\ngens = [{', '.join(gens)}];\nrels = [{quoted}];\n"


def _add_file(corpus: Corpus, workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    corpus.files[path] = text
    return path


def _pair_index(n: int, k: int, l: int) -> int:
    """Position of the commutator coordinate (k, l), k < l, in the layer."""
    return sum(n - 1 - i for i in range(k)) + (l - k - 1)


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by plain Gaussian elimination."""
    work = [[x % p for x in row] for row in rows]
    rank = 0
    width = len(work[0]) if work else 0
    for col in range(width):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def _prime_of(q: int) -> tuple[int, int]:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    d = round(math.log(q, p))
    return p, d


def _expect_rc(rc: int, expect: dict) -> list[str]:
    return [] if rc == expect["rc"] else [f"exit code {rc}, expected {expect['rc']}"]


def _mismatch(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


# ---------------------------------------------------------------------------
# groups
#
# A relator is a list of factors, each central in S^[3]:
#   ("pow", k, e)      x_k^e with q | e: adds e/q to the t_k coordinate
#   ("comm", k, l, e)  [x_k, x_l]^e with k < l: adds e to the (k, l) coordinate
# so the central vector of a relator is the sum over its factors.  A
# non-minimal presentation adds ("unit", k, u): x_k^u with u prime to p,
# which is not central and makes gq3 eliminate x_k.

GROUP_NS = (2, 4, 6, 8)
GROUP_QS = (2, 3, 9, 32)
# Presentations drawn per (n, q).  The costliest queries (n = 8) set
# query_p90_ms, so more draws of each shape keep it from moving with the seed.
GROUP_DRAWS = 2


def _commutator_factor(rng: random.Random, q: int, gens: list[int]) -> tuple:
    k, l = sorted(rng.sample(gens, 2))
    return ("comm", k, l, rng.randrange(1, q) + q * rng.randrange(0, 2))


def _power_factor(rng: random.Random, q: int, gens: list[int]) -> tuple:
    return ("pow", rng.choice(gens), q * (rng.randrange(1, q) + q * rng.randrange(0, 2)))


def _render(factors: list[tuple], name: Callable[[int], str]) -> str:
    parts = []
    for f in factors:
        if f[0] in ("pow", "unit"):
            parts.append(f"{name(f[1])}^{f[2]}")
        else:
            parts.append(f"[{name(f[1])}, {name(f[2])}]^{f[3]}")
    return " ".join(parts)


def _layer_vector(n: int, q: int, factors: list[tuple]) -> list[int]:
    vec = [0] * (n + n * (n - 1) // 2)
    for f in factors:
        if f[0] == "pow":
            vec[f[1]] += f[2] // q
        elif f[0] == "comm":
            vec[n + _pair_index(n, f[1], f[2])] += f[3]
    return [x % q for x in vec]


def _frattini_relators(rng: random.Random, q: int, gens: list[int], count: int) -> list[list]:
    """``count`` relators, each a commutator times a q-th power (a power only
    when one generator is left); none has zero image, which would make it
    a certificate query instead of a central one."""
    rels = []
    while len(rels) < count:
        rel = [_power_factor(rng, q, gens)]
        if len(gens) >= 2:
            rel.insert(0, _commutator_factor(rng, q, gens))
        if any(_layer_vector(max(gens) + 1, q, rel)):
            rels.append(rel)
    return rels


def _check_truncate(rc, payload, expect):
    errors = _expect_rc(rc, expect)
    if payload is None:
        return errors + ["no report"]
    group = payload["group"]
    errors += _mismatch("generators kept", group["n"], expect["kept"])
    eliminated = sorted(g for g, _ in payload["minimality"]["eliminated"])
    errors += _mismatch("eliminated generators", eliminated, expect["eliminated"])
    if expect["order"] is not None:
        errors += _mismatch("order", group["order"], expect["order"])
    return errors


def _check_cohomology(rc, payload, expect):
    errors = _expect_rc(rc, expect)
    if payload is None:
        return errors + ["no report"]
    cd = payload["cohomology"]
    errors += _mismatch("H^1 rank", cd["n"], expect["kept"])
    if expect["h2_rank"] is not None:
        errors += _mismatch("H^2 rank", cd["h2_rank"], expect["h2_rank"])
    return errors


def _check_reconstruct(rc, payload, expect):
    errors = _expect_rc(rc, expect)
    if payload is None:
        return errors + ["no report"]
    errors += _mismatch("round_trip_equal", payload["round_trip_equal"], True)
    if expect["order"] is not None:
        errors += _mismatch("order", payload["group"]["order"], expect["order"])
    return errors


def _check_morphism(rc, payload, expect):
    errors = _expect_rc(rc, expect)
    if payload is None:
        return errors + ["no report"]
    for key in ("pi2_isomorphism", "pi3_isomorphism", "agreement"):
        errors += _mismatch(key, payload[key], True)
    return errors


def _unimodular_words(rng: random.Random, n: int) -> list[list[tuple[int, int]]]:
    """Generator images x_k -> prod_j y_j^A[k][j] for a random A in GL_n(Z).

    A is a permuted product of unitriangular matrices with one entry +-1
    off the diagonal per row, so it is invertible over Z and the
    substitution is an automorphism of the free pro-p group.
    """
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        lower[i + 1][rng.randrange(i + 1)] = rng.choice((-1, 1))
        upper[i][rng.randrange(i + 1, n)] = rng.choice((-1, 1))
    perm = list(range(n))
    rng.shuffle(perm)
    a = [[sum(lower[perm[i]][t] * upper[t][j] for t in range(n)) for j in range(n)]
         for i in range(n)]
    return [[(j, a[k][j]) for j in range(n) if a[k][j]] for k in range(n)]


def _word_text(syllables: list[tuple[int, int]], names: list[str]) -> str:
    return " ".join(names[j] if e == 1 else f"{names[j]}^{e}" for j, e in syllables)


def _groups(rng: random.Random, corpus: Corpus, workdir: str) -> None:
    for n in GROUP_NS:
        for q in GROUP_QS:
            for draw in range(GROUP_DRAWS):
                _group_family(rng, corpus, workdir, n, q, f"n{n}q{q}-{draw}")


def _group_family(rng: random.Random, corpus: Corpus, workdir: str, n: int, q: int,
                  tag: str) -> None:
    """A minimal presentation, a non-minimal one and an isomorphic image of the first."""
    gens = _names("x", n)
    everyone = list(range(n))

    # The shape of each presentation is fixed per (n, q); the seed picks
    # generators and exponents, so the work per pass barely moves between
    # seeds.

    # minimal presentation: every relator lies in the Frattini layer
    rels = _frattini_relators(rng, q, everyone, n // 2 + 2)
    minimal = _add_file(corpus, workdir, f"{tag}-min.pres",
                        _pres_text(q, gens, [_render(r, gens.__getitem__) for r in rels]))
    _group_queries(corpus, minimal, f"{tag}-min", n, q, rels, everyone, [])

    # non-minimal: eliminated generators appear once, to a unit power,
    # times a Frattini word in the kept generators
    drop = sorted(rng.sample(everyone, max(1, n // 4)))
    kept = [k for k in everyone if k not in drop]
    kept_rels = _frattini_relators(rng, q, kept, len(kept) // 2 + 1)
    p, _ = _prime_of(q)
    elim_rels = []
    for k in drop:
        unit = rng.choice([u for u in range(1, q) if u % p]) + q * q * rng.randrange(0, 2)
        factor = _commutator_factor if len(kept) >= 2 else _power_factor
        tail = factor(rng, q, kept)
        elim_rels.append([("unit", k, unit), tail])
    all_rels = kept_rels + elim_rels
    rng.shuffle(all_rels)
    texts = [_render(r, gens.__getitem__) for r in all_rels]
    nonmin = _add_file(corpus, workdir, f"{tag}-elim.pres", _pres_text(q, gens, texts))
    _group_queries(corpus, nonmin, f"{tag}-elim", n, q, kept_rels, kept,
                   [gens[k] for k in drop])

    # an isomorphic pair: the minimal relators rewritten under a
    # unimodular change of generators
    ynames = _names("y", n)
    images = [_word_text(w, ynames) for w in _unimodular_words(rng, n)]
    target = _add_file(
        corpus, workdir, f"{tag}-image.pres",
        _pres_text(q, ynames, [_render(r, lambda k: f"({images[k]})") for r in rels]))
    mapping = "; ".join(f"{gens[k]} = {images[k]}" for k in range(n))
    corpus.queries.append(Query(["morphism", minimal, target, "--map", mapping],
                                {"rc": 0}, _check_morphism))


def _group_queries(corpus, path, tag, n, q, rels, kept, eliminated):
    """truncate, cohomology and reconstruct on one presentation.

    ``rels`` are the Frattini relators on the ``kept`` generators; the
    group is the one they present, so for prime q its H^2 rank is their
    rank mod p and its order q^(2m + C(m,2) - rank) with m = len(kept).
    """
    p, d = _prime_of(q)
    order = h2 = None
    if d == 1:
        coords = kept + [n + _pair_index(n, k, l) for i, k in enumerate(kept) for l in kept[i + 1:]]
        h2 = rank_mod_p([[_layer_vector(n, q, r)[c] for c in coords] for r in rels], p)
        m = len(kept)
        order = q ** (2 * m + m * (m - 1) // 2 - h2)
    expect = {"rc": 0, "kept": len(kept), "eliminated": sorted(eliminated),
              "order": order, "h2_rank": h2}
    corpus.queries.append(Query(["truncate", path], dict(expect), _check_truncate, group=tag))
    corpus.queries.append(Query(["cohomology", path], dict(expect), _check_cohomology))
    corpus.queries.append(Query(["reconstruct", path], dict(expect), _check_reconstruct,
                                group=tag))


# ---------------------------------------------------------------------------
# certificates
#
# Relators are commutator trees: an int is a generator (optionally raised
# to a large exponent), a pair (u, v) is the commutator [u, v].  A tree with
# distinct innermost leaves is nonzero in the free Lie ring, so its Magnus
# certificate has weight equal to its number of leaves.

CERT_QS = (2, 3)


def _tree_text(tree, names: list[str], big: dict[int, int]) -> str:
    if isinstance(tree, int):
        e = big.get(tree)
        return names[tree] if e is None else f"{names[tree]}^{e}"
    return f"[{_tree_text(tree[0], names, big)}, {_tree_text(tree[1], names, big)}]"


def _deep_tree(rng: random.Random, n: int, shape: str):
    """[[a,b],c], [[[a,b],c],d] or [[a,b],[c,d]] with a, b, c distinct."""
    if shape == "pair4":
        a, b, c, d = rng.sample(range(n), 4)
        return ((a, b), (c, d))
    a, b, c = rng.sample(range(n), 3)
    tree = ((a, b), c)
    return (tree, rng.randrange(n)) if shape == "left4" else tree


def _independent_central(rng: random.Random, n: int, q: int, count: int,
                         big_exponent: int | None = None) -> list[str]:
    """Weight-2 commutator products with linearly independent central images.

    Each relator owns one leading commutator pair no other relator uses, so
    the images are in echelon form with unit pivots; each also carries one
    commutator on a pair no relator leads with.  With ``big_exponent`` the
    first relator is [x_k^E, x_l], whose image is E times that of [x_k, x_l].
    """
    names = _names("x", n)
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    rng.shuffle(pairs)
    leading, spare = pairs[:count], pairs[count:]
    units = [u for u in range(1, q) if u % q]
    rels = []
    for i, (k, l) in enumerate(leading):
        if big_exponent is not None and i == 0:
            factors = [f"[{names[k]}^{big_exponent}, {names[l]}]"]
        else:
            factors = [f"[{names[k]}, {names[l]}]^{rng.choice(units) + q * rng.randrange(0, 2)}"]
        k2, l2 = rng.choice(spare)
        factors.append(f"[{names[k2]}, {names[l2]}]^{rng.randrange(1, q + 1)}")
        rng.shuffle(factors)
        rels.append(" ".join(factors))
    return rels


def _check_screen(rc, payload, expect):
    errors = _expect_rc(rc, expect)
    if payload is None:
        return errors + ["no report"]
    errors += _mismatch("verdict", payload["verdict"], expect["verdict"])
    statuses = [(t["name"], t["status"]) for t in payload["tests"]]
    errors += _mismatch("tests", statuses, expect["tests"])
    return errors


def _check_equiv(rc, payload, expect):
    errors = _expect_rc(rc, expect)
    if payload is None:
        return errors + ["no report"]
    errors += _mismatch("verdict", payload["verdict"], expect["verdict"])
    tests = payload["tests"]
    errors += _mismatch("test count", len(tests), len(expect["weights"]))
    for i, (test, weight) in enumerate(zip(tests, expect["weights"])):
        if weight == 2:
            errors += _mismatch(f"relator {i}", (test["name"], test["status"]),
                                (f"relator[{i}] independent", "passed"))
        else:
            errors += _mismatch(f"relator {i}", (test["name"], test["status"]),
                                (f"relator[{i}] zero-image", "triggered"))
            if f"(weight {weight})" not in test["witness"]:
                errors.append(f"relator {i}: certificate weight is not {weight}: "
                              f"{test['witness']!r}")
    return errors


def _cert_queries(corpus, workdir, name, q, n, rels, weights):
    path = _add_file(corpus, workdir, name, _pres_text(q, _names("x", n), rels))
    deep_only = all(w >= 3 for w in weights)
    if deep_only:
        screen = {"rc": 1, "verdict": "obstructed",
                  "tests": [("relation-subgroup-inside-level-3", "triggered")]}
    elif any(w >= 3 for w in weights):
        screen = {"rc": 1, "verdict": "obstructed",
                  "tests": [("relation-subgroup-inside-level-3", "passed"),
                            ("dependent-relator-image", "triggered")]}
    else:
        screen = {"rc": 0, "verdict": "no_obstruction_found",
                  "tests": [("relation-subgroup-inside-level-3", "passed"),
                            ("dependent-relator-image", "passed")]}
    corpus.queries.append(Query(["screen", path], screen, _check_screen))
    equiv = {"rc": 0 if not any(w >= 3 for w in weights) else 1,
             "verdict": "consistent" if not any(w >= 3 for w in weights) else "condition-failed",
             "weights": list(weights)}
    corpus.queries.append(Query(["equiv", path], equiv, _check_equiv))


def _certificates(rng: random.Random, corpus: Corpus, workdir: str) -> None:
    # Shapes and relator counts are fixed; the seed picks generators and
    # exponents, so the work per pass barely moves between seeds.
    names8 = _names("x", 8)
    for q in CERT_QS:
        # weight-2 commutator products with independent central images
        for n in (4, 6, 8):
            for i, count in enumerate((1, 2, 3, 2, 1)):
                rels = _independent_central(rng, n, q, count)
                _cert_queries(corpus, workdir, f"q{q}-w2-n{n}-{i}.pres", q, n, rels, [2] * count)
        # weight-3 iterated commutators; n = 8 (a quarter second each) at q = 2
        for n, counts in ((4, (2, 1)), (6, (1, 2)), (8, (1,) if q == 2 else ())):
            for i, count in enumerate(counts):
                rels = [_tree_text(_deep_tree(rng, n, "left3"), names8, {}) for _ in range(count)]
                _cert_queries(corpus, workdir, f"q{q}-w3-n{n}-{i}.pres", q, n, rels, [3] * count)
        # weight-4 commutators, n <= 4 only: at n = 8 one takes tens of seconds
        for n, shape in ((3, "left4"), (4, "pair4")):
            rels = [_tree_text(_deep_tree(rng, n, shape), names8, {})]
            _cert_queries(corpus, workdir, f"q{q}-w4-n{n}.pres", q, n, rels, [4])
        # independent central relators plus one weight-3 relator: the
        # certified relator with zero image obstructs
        for n, count in ((4, 1), (6, 2)):
            rels = _independent_central(rng, n, q, count)
            at = rng.randint(0, count)
            rels.insert(at, _tree_text(_deep_tree(rng, n, "left3"), names8, {}))
            weights = [2] * count
            weights.insert(at, 3)
            _cert_queries(corpus, workdir, f"q{q}-mixed-n{n}.pres", q, n, rels, weights)
        # large exponents, which presentations.letters flattens: about 10^6
        # inside a central commutator at q = 3 and 10^5 at q = 2, and 10^5
        # inside a weight-3 commutator
        top = 1_000_000 if q == 3 else 100_000
        big = rng.randrange(top * 95 // 100, top)
        big += (1 - big % q) % q  # a unit mod q keeps the central image nonzero
        _cert_queries(corpus, workdir, f"q{q}-big-w2.pres", q, 4,
                      _independent_central(rng, 4, q, 2, big_exponent=big), [2, 2])
        tree = _deep_tree(rng, 4, "left3")
        _cert_queries(corpus, workdir, f"q{q}-big-w3.pres", q, 4,
                      [_tree_text(tree, names8, {tree[0][0]: rng.randrange(95_000, 100_000)})],
                      [3])


# ---------------------------------------------------------------------------
# milnor
#
# Closed forms: K_*(F_l)/q has ranks [1, 0, 0, 0], K_*(F_l((t)))/q has
# [2, 1, 0, 0] and K_*(Q_2)/2 has [3, 1, 0, 0] in degrees 1..4.

MILNOR_QS = (2, 3, 32)
# The sweeps cost about ell, so each ell is one of the three usable primes
# nearest a fixed anchor: the seed moves the work per pass only slightly.
# Most ell are at most 3000.
TAME_ANCHORS = (150, 300, 500, 800, 1200, 1800)
FINITE_ANCHORS = (150, 300, 500, 800, 1200, 1800, 2200, 2500, 3000)
# MAX_ELL is 10 000: the tame sweep runs at 9973 for q = 2, the finite
# sweep above NEAR_CAP at every q (9857, the only candidate, at q = 32)
NEAR_CAP = 9800
RANKS = {"finite": [1, 0, 0, 0], "tame_local": [2, 1, 0, 0], "two_adic": [3, 1, 0, 0]}


def _primes_upto(m: int) -> list[int]:
    sieve = bytearray([1]) * (m + 1)
    sieve[0:2] = b"\x00\x00"
    for f in range(2, int(m**0.5) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytearray(len(sieve[f * f::f]))
    return [x for x in range(m + 1) if sieve[x]]


def _check_kmilnor(rc, payload, expect):
    errors = _expect_rc(rc, expect)
    if payload is None:
        return errors + ["no report"]
    ranks = [payload["degrees"][str(r)]["rank"] for r in range(1, 5)]
    return errors + _mismatch("ranks", ranks, expect["ranks"])


def _check_galois(rc, payload, expect):
    errors = _expect_rc(rc, expect)
    if payload is None:
        return errors + ["no report"]
    errors += _mismatch("verdict", payload["verdict"], "isomorphic")
    errors += _mismatch("field ranks", payload["degree_ranks_field"], expect["ranks"])
    errors += _mismatch("presentation ranks", payload["degree_ranks_presentation"],
                        expect["ranks"])
    return errors


def _matched_file(rng, corpus, workdir, kind, ell, q):
    """The presentation matched to a preset, with renamed and reordered
    generators, and the degree-1 correspondence that goes with it."""
    pool = ["a", "b", "c", "s", "t", "u", "v", "z"]
    if kind == "finite":
        basis, rels_of = ["u"], lambda g: []
    elif kind == "tame_local":
        p = _prime_of(q)[0]
        v = 0
        m = ell - 1
        while m % p == 0:
            m //= p
            v += 1
        basis, rels_of = ["u", "t"], lambda g: [f"{g['t']}^{p ** v} [{g['u']}, {g['t']}]"]
    else:
        basis = ["-1", "2", "5"]
        rels_of = lambda g: [f"{g['-1']}^2 {g['2']}^4 [{g['2']}, {g['5']}]"]
    chosen = rng.sample(pool, len(basis))
    g = dict(zip(basis, chosen))
    order = chosen[:]
    rng.shuffle(order)
    path = _add_file(corpus, workdir, f"{kind}-{ell}-q{q}-{len(corpus.files)}.pres",
                     _pres_text(q, order, rels_of(g)))
    return path, ", ".join(f"{b}:{g[b]}" for b in basis)


def _milnor_queries(rng, corpus, workdir, kind, ell, q, with_file):
    """kmilnor and galois-check on one preset; galois-check reads the
    matched presentation from a file when ``with_file``, else uses its own."""
    field_arg = "two_adic" if kind == "two_adic" else f"{kind}:{ell}"
    expect = {"rc": 0, "ranks": RANKS[kind]}
    corpus.queries.append(Query(["kmilnor", "--field", field_arg, "--q", str(q)],
                                expect, _check_kmilnor))
    argv = ["galois-check", "--field", field_arg, "--q", str(q)]
    if with_file:
        path, mapping = _matched_file(rng, corpus, workdir, kind, ell, q)
        argv += [path, "--map", mapping]
    corpus.queries.append(Query(argv, expect, _check_galois))


def _milnor(rng: random.Random, corpus: Corpus, workdir: str) -> None:
    primes = _primes_upto(10_000)
    for q in MILNOR_QS:
        usable = [ell for ell in primes if (ell - 1) % q == 0 and ell > 3]
        for kind, anchors in (("tame_local", TAME_ANCHORS), ("finite", FINITE_ANCHORS)):
            ells = [rng.choice(sorted(usable, key=lambda ell: abs(ell - anchor))[:3])
                    for anchor in anchors]
            if kind == "finite":
                ells.append(rng.choice([ell for ell in usable if ell > NEAR_CAP] or [max(usable)]))
            elif q == 2:
                ells.append(max(usable))  # the tame sweep at 9973 sets the peak memory
            for i, ell in enumerate(ells):
                _milnor_queries(rng, corpus, workdir, kind, ell, q, i % 2 == 0)
    for with_file in (False, True):
        _milnor_queries(rng, corpus, workdir, "two_adic", 0, 2, with_file)
