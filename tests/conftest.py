import json
import os
import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import settings

from totref import (
    DEFAULT_PRIME,
    Graph,
    PrimeField,
    RationalField,
    artinian_reduction,
    build_special_ring,
    reduction_chain,
    ten_vertex_graph,
)

# CI selects this profile (HYPOTHESIS_PROFILE=ci): every run draws the same
# examples, so a failure there reproduces locally with the same variable set
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# int64 arrays at the first three primes; object arrays of Python ints above
# 2**31 and of Fractions over the rationals ("QQ")
ARRAY_FIELDS = (7, DEFAULT_PRIME, 2**31 - 1, 4294967311, "QQ")


def array_field(p):
    return RationalField() if p == "QQ" else PrimeField(p)

EXAMPLE_RING_RELATIONS = [
    {(2, 0): 1, (0, 2): -1},  # X^2 - Y^2
    {(2, 0): 1, (1, 1): -1},  # X^2 - XY
    {(3, 0): 1},              # X^3
]


@pytest.fixture(scope="session")
def gf():
    return PrimeField()


@pytest.fixture(scope="session")
def qq():
    return RationalField()


@pytest.fixture(scope="session")
def ten_vertex_g():
    return ten_vertex_graph()


@pytest.fixture(scope="session")
def special_ring():
    return build_special_ring()


@pytest.fixture(scope="session")
def c4():
    return Graph(
        ["x1", "x2", "y1", "y2"],
        [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2")],
        bipartition=(("x1", "x2"), ("y1", "y2")),
    )


@pytest.fixture(scope="session")
def c4_reduction(c4):
    return artinian_reduction(c4)


@pytest.fixture(scope="session")
def c4_chain5(c4):
    return reduction_chain(c4, cutoff=5)


@pytest.fixture(scope="session")
def path4():
    return Graph(["x1", "y1", "x2", "y2"], [("x1", "y1"), ("y1", "x2"), ("x2", "y2")])


def random_bipartite_connected(rng: Random, n_min=4, n_max=12, edge_count=None):
    """A random connected bipartite graph; optionally with a forced edge count."""
    for _ in range(2000):
        n = rng.randrange(n_min, n_max + 1)
        k = rng.randrange(2, n - 1)
        l = n - k
        if l < 2:
            continue
        xs = [f"x{i}" for i in range(1, k + 1)]
        ys = [f"y{j}" for j in range(1, l + 1)]
        all_edges = [(x, y) for x in xs for y in ys]
        e = edge_count if edge_count is not None else 2 * n - 4
        if e > len(all_edges) or e < n - 1:
            continue
        edges = rng.sample(all_edges, e)
        g = Graph(xs + ys, edges, bipartition=(xs, ys))
        if g.is_connected():
            return g
    raise RuntimeError("could not sample a connected bipartite graph")


def to_networkx(g: Graph):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges)
    return G


def fraction_det(rows):
    """Independent determinant oracle: fraction-free recursive minor expansion
    with bitmask memoization."""
    n = len(rows)
    rows = [[Fraction(x) for x in r] for r in rows]
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def minor(r, colmask):
        if r == n:
            return Fraction(1)
        total = Fraction(0)
        sign = 1
        for c in range(n):
            bit = 1 << c
            if colmask & bit:
                continue
            if rows[r][c]:
                total += sign * rows[r][c] * minor(r + 1, colmask | bit)
            sign = -sign
        return total

    return minor(0, 0)


def count_eliminations(monkeypatch, rational_ranks_only=False):
    """A list that grows by one per elimination (``_rref_int`` and the
    sparse-row kernel ``_rref_sparse``, on every field) and by one per
    matrix of a stacked elimination (``_stacked_ranks``);
    with rational_ranks_only, per exact elimination over Q (``_rref_int``
    or ``_rref_sparse`` without a modulus) run by ``array_rank`` (not its
    mod-p bound, nor ``rref``)."""
    import totref.linalg as linalg

    calls = []
    # the position of the modulus p among each kernel's arguments
    for name, at in (("_rref_int", 2), ("_rref_sparse", 1)):
        real = getattr(linalg, name)

        def counted(*args, _real=real, _at=at, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != "array_rank":
                frame = frame.f_back
            p = args[_at] if len(args) > _at else kwargs.get("p")
            if not rational_ranks_only or (p is None and frame is not None):
                calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(linalg, name, counted)
    stacked = linalg._stacked_ranks

    def counted_stack(p, S):
        if not rational_ranks_only:  # a stack is always ranked mod p
            calls.extend([1] * len(S))
        return stacked(p, S)

    monkeypatch.setattr(linalg, "_stacked_ranks", counted_stack)
    return calls


def _sympy_rref(field, entries, cols):
    """Reference RREF from sympy's DomainMatrix, over GF(p) or QQ: the
    nonzero rows (lists) and the pivot columns."""
    from sympy import GF as SympyGF, QQ as SympyQQ
    from sympy.polys.matrices import DomainMatrix

    if field.kind == "qq":
        K = SympyQQ
        to_k = lambda x: K(Fraction(x).numerator, Fraction(x).denominator)
        back = lambda x: Fraction(int(K.numer(x)), int(K.denom(x)))
    else:
        K = SympyGF(field.p)
        to_k, back = K, lambda x: K.to_int(x) % field.p
    dm = DomainMatrix([[to_k(x) for x in row] for row in entries], (len(entries), cols), K)
    ref, piv = dm.rref()
    return [[back(x) for x in row] for row in ref.to_list()[: len(piv)]], list(piv)


def list_product(R, a, b):
    """Independent product oracle: a * b by a triple loop over the list view
    R.np_table(d1, d2).tolist() of R's table, in the field's own scalar
    arithmetic, skipping zero coordinates."""
    from totref import AlgebraElement

    f = R.field
    tab = R.np_table(a.degree, b.degree).tolist()
    out = [f.zero] * R.dims[a.degree + b.degree]
    for i, ca in enumerate(a.coords):
        if f.is_zero(ca):
            continue
        row = tab[i]
        for j, cb in enumerate(b.coords):
            if f.is_zero(cb):
                continue
            c = f.mul(ca, cb)
            for k, vk in enumerate(row[j]):
                if not f.is_zero(vk):
                    out[k] = f.add(out[k], f.mul(c, vk))
    return AlgebraElement(R, a.degree + b.degree, out)


def element_rows(R, D, degree=1):
    """A matrix of forms D[r, c, :] (an array over R's field) as rows of
    AlgebraElements of the degree, for oracles built on ``list_product``."""
    from totref import AlgebraElement

    return [[AlgebraElement(R, degree, e) for e in row] for row in D.tolist()]


def dump_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def naive_exactness(w):
    """Independent exactness oracle: image and kernel as explicit subspaces.

    Returns {(index, degree): exact} computed from span comparisons, never
    from rank bookkeeping.
    """
    from totref import Subspace
    from totref.linalg import kernel_basis

    R = w.algebra
    f = R.field
    verdicts = {}
    for i in w.interior_indices():
        for t in range(0, R.cutoff):
            if t + 1 > R.cutoff:
                continue
            src = R.dims[t] * w.rank_of(i)
            ker = kernel_basis(f, w._block_array(i, t))
            if t == 0:
                img = Subspace.zero(f, src)
            else:
                inc = w._block_array(i + 1, t - 1)
                img = Subspace.from_vectors(f, src, inc.T)
            verdicts[(i, w.twist(i) + t)] = img == ker
    return verdicts
