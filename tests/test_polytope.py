import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tpwalk import (
    Instance,
    ResourceLimitError,
    TransportError,
    are_adjacent,
    critical_edges,
    enumerate_vertices,
    gen_coincide,
    gen_diameter_n,
    gen_example1,
    gen_hirsch_sharp,
    hirsch_bound,
    insert_pivot,
    is_nondegenerate,
    northwest_corner,
    perturb,
    random_instance,
    tree_count,
)


def test_nondegeneracy():
    assert is_nondegenerate(Instance((3, 3), (2, 2, 2)))
    assert not is_nondegenerate(Instance((2, 2), (2, 2)))
    assert not is_nondegenerate(Instance((3, 5), (3, 2, 3)))


def _brute_nondegenerate(inst):
    """Reference oracle: list every proper subset sum of both sides."""
    usums = {sum(c) for r in range(1, inst.m) for c in combinations(inst.u, r)}
    vsums = {sum(c) for r in range(1, inst.n) for c in combinations(inst.v, r)}
    return not (usums & vsums)


MARGIN = st.builds(Fraction, st.integers(1, 12), st.sampled_from((1, 2, 3, 6)))


@st.composite
def sixths_instances(draw):
    """Margins on the 1/6 grid. Half the time u starts with the sum of a
    proper subset of v, which forces a tie, so the instance is degenerate."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    v = draw(st.lists(MARGIN, min_size=n, max_size=n))
    u = []
    if draw(st.booleans()):
        tie = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        u.append(sum(v[j] for j in tie))
    rest = int(6 * (sum(v) - sum(u)))
    parts = m - len(u)
    assume(rest >= parts)
    cuts = []
    if parts > 1:
        cuts = sorted(draw(st.sets(st.integers(1, rest - 1), min_size=parts - 1,
                                   max_size=parts - 1)))
    u += [Fraction(b - a, 6) for a, b in zip([0] + cuts, cuts + [rest])]
    return Instance(u, v)


@given(sixths_instances())
@settings(deadline=None, max_examples=300)
def test_nondegeneracy_matches_subset_listing(inst):
    assert is_nondegenerate(inst) == _brute_nondegenerate(inst)


@pytest.mark.parametrize("case,eps", [
    *((gen_hirsch_sharp(3, 4), e) for e in ("1/2", "1/3", "1/7", "1/1024")),
    *((gen_hirsch_sharp(3, 3), e) for e in ("1/2", "1/1024")),
    *((gen_example1(), e) for e in ("1/2", "1/8", "1/64", f"1/{2 ** 60}")),
])
def test_nondegeneracy_matches_subset_listing_perturbed(case, eps):
    inst = perturb(case, eps).inst
    assert is_nondegenerate(inst) == _brute_nondegenerate(inst)


def test_northwest_corner():
    case = gen_example1()
    assert northwest_corner(case.inst).flows == case.O.flows
    nw = northwest_corner(Instance((9, 7, 3), (8, 6, 5)))
    assert nw.flows == ((8, 1, 0), (0, 5, 2), (0, 0, 3))
    assert nw.is_vertex()


@pytest.mark.parametrize("m,n,want", [(2, 2, 4), (2, 3, 12), (3, 3, 81), (3, 4, 432)])
def test_tree_count(m, n, want):
    assert tree_count(m, n) == want


def test_enumerate_vertices_example():
    case = gen_example1()
    verts = enumerate_vertices(case.inst)
    assert len(verts) == 6
    assert all(v.is_vertex() for v in verts)
    assert all(len(v.support) == 4 for v in verts)
    assert len({v.flows for v in verts}) == 6


def test_enumerate_vertices_degenerate_dedup():
    verts = enumerate_vertices(Instance((2, 2), (2, 2)))
    assert sorted(v.flows for v in verts) == [
        ((0, 2), (2, 0)),
        ((2, 0), (0, 2)),
    ]
    assert are_adjacent(verts[0], verts[1])


def test_enumerate_vertices_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_vertices(gen_example1().inst, cap_trees=2)


def _root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def _tree_flow(u, v, tree):
    """The flow on a spanning tree: cutting cell (i, j) leaves row i a side
    whose supply less its demand must cross that cell."""
    m, n = len(u), len(v)
    grid = [[0] * n for _ in range(m)]
    for cut in tree:
        parent = list(range(m + n))
        for i, j in tree:
            if (i, j) != cut:
                parent[_root(parent, i)] = _root(parent, m + j)
        side = _root(parent, cut[0])
        grid[cut[0]][cut[1]] = (
            sum(x for i, x in enumerate(u) if _root(parent, i) == side)
            - sum(x for j, x in enumerate(v) if _root(parent, m + j) == side))
    return tuple(tuple(row) for row in grid)


def _tree_search(inst):
    """Reference oracle: every spanning tree of K_{m,n}, by include/exclude
    search over the cells with a union-find cycle prune, and its flow.
    Returns each nonnegative flow (a vertex) with its number of bases."""
    m, n = inst.m, inst.n
    d = lcm(*(x.denominator for x in inst.u + inst.v))
    u, v = [int(x * d) for x in inst.u], [int(x * d) for x in inst.v]
    cells = [(i, j) for i in range(m) for j in range(n)]
    need = m + n - 1
    found = Counter()

    def rec(pos, chosen, parent):
        if len(chosen) == need:
            flows = _tree_flow(u, v, chosen)
            if all(x >= 0 for row in flows for x in row):
                found[flows] += 1
            return
        if len(cells) - pos < need - len(chosen):
            return
        i, j = cells[pos]
        a, b = _root(parent, i), _root(parent, m + j)
        if a != b:
            child = list(parent)
            child[a] = b
            rec(pos + 1, chosen + [(i, j)], child)
        rec(pos + 1, chosen, parent)

    rec(0, [], list(range(m + n)))
    return {tuple(tuple(Fraction(x, d) for x in row) for row in flows): count
            for flows, count in found.items()}


def _pairwise_graph(verts):
    """Reference graph: the one-cycle rule on every pair, skipping a pair
    whose union has more than m + n cells (it holds two cycles or more)."""
    m, n = verts.inst.m, verts.inst.n
    return [[b for b, y in enumerate(verts) if b != a
             and len(x.support | y.support) <= m + n and are_adjacent(x, y)]
            for a, x in enumerate(verts)]


@given(sixths_instances())
@settings(deadline=None, max_examples=200)
def test_enumerate_vertices_matches_tree_search(inst):
    assume(tree_count(inst.m, inst.n) <= 2500)
    verts = enumerate_vertices(inst)
    assert [a.flows for a in verts] == sorted(_tree_search(inst))
    assert list(map(list, verts.graph)) == _pairwise_graph(verts)


@pytest.mark.parametrize("inst,vertices,bases", [
    (Instance((1,) * 3, (1,) * 3), 6, 72),
    (Instance((1,) * 4, (1,) * 4), 24, 3072),
    (gen_hirsch_sharp(4, 4).inst, 194, 404),
    (Instance((1, 3, 4), (2, 3, 3)), 14, 26),
], ids=["ones3x3", "ones4x4", "hirsch_sharp4x4", "134-233"])
def test_enumerate_vertices_where_bases_outnumber_vertices(inst, vertices, bases):
    found = _tree_search(inst)
    assert (len(found), sum(found.values())) == (vertices, bases)
    assert [a.flows for a in enumerate_vertices(inst)] == sorted(found)


def test_insert_pivot_pinned():
    case = gen_example1()
    piv = insert_pivot(case.O, (1, 0))
    assert (piv.circuit.supplies, piv.circuit.demands) == ((0, 1), (1, 0))
    assert piv.alpha == 1
    assert piv.deleted == frozenset({(1, 1)})
    assert piv.result.flows == ((1, 2, 0), (1, 0, 2))
    with pytest.raises(TransportError):
        insert_pivot(case.O, (0, 0))


def _pivots(v):
    """One insertion pivot per cell outside the support of vertex v."""
    return [insert_pivot(v, (i, j)) for i in range(v.inst.m)
            for j in range(v.inst.n) if (i, j) not in v.support]


def test_vertex_neighbors_regular():
    case = gen_example1()
    for v in enumerate_vertices(case.inst):
        pivs = _pivots(v)
        assert len(pivs) == 2
        results = {p.result.flows for p in pivs}
        assert len(results) == 2
        assert all(are_adjacent(v, p.result) for p in pivs)


def test_adjacency_is_not_transitive_closure():
    case = gen_example1()
    piv = insert_pivot(case.O, (1, 0))
    assert are_adjacent(case.O, piv.result)
    assert not are_adjacent(case.O, case.F)


def test_critical_edges_and_hirsch_bound():
    assert critical_edges(gen_example1().inst) == frozenset()
    assert hirsch_bound(gen_example1().inst) == 4
    cc = gen_coincide(3)
    assert set(critical_edges(cc.inst)) == {(0, 0), (1, 0)}
    assert hirsch_bound(cc.inst) == 2


def _scan_critical_edges(inst):
    """Reference oracle: the support shared by every vertex. Linear minima
    are attained at vertices, so these are the edges positive everywhere."""
    verts = enumerate_vertices(inst)
    out = verts[0].support
    for a in verts:
        out = out & a.support
    return frozenset(out)


@given(sixths_instances())
@settings(deadline=None, max_examples=200)
def test_critical_edges_match_vertex_scan(inst):
    assume(tree_count(inst.m, inst.n) <= 2500)
    assert critical_edges(inst) == _scan_critical_edges(inst)


@pytest.mark.parametrize("inst", [
    *(perturb(gen_hirsch_sharp(m, n), e).inst
      for m, n in ((3, 3), (3, 4))
      for e in ("1/2", "1/3", "1/7", "1/1024", f"1/{2 ** 60}")),
    *(perturb(gen_example1(), e).inst for e in ("1/2", "1/64", f"1/{2 ** 60}")),
    *(gen_coincide(n).inst for n in (2, 3, 4, 5)),
    *(gen_diameter_n(n).inst for n in (3, 4, 5)),
    gen_example1().inst,
])
def test_critical_edges_match_vertex_scan_named(inst):
    assert critical_edges(inst) == _scan_critical_edges(inst)


def test_critical_edges_beyond_the_tree_cap():
    # 2^21 * 22 spanning trees: more than enumerate_vertices will walk.
    inst = Instance((Fraction(21, 2), Fraction(23, 2)), (1,) * 22)
    with pytest.raises(ResourceLimitError):
        enumerate_vertices(inst)
    assert critical_edges(inst) == frozenset()
    assert hirsch_bound(inst) == 23
    # Row 1 carries 1/2 in all, so every column takes at least 1/2 from row 0.
    inst = Instance((Fraction(43, 2), Fraction(1, 2)), (1,) * 22)
    assert critical_edges(inst) == {(0, j) for j in range(22)}
    assert hirsch_bound(inst) == 1


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=25)
def test_random_instances_are_nondegenerate(seed):
    rng = random.Random(f"poly:{seed}")
    m = rng.choice((2, 3))
    n = rng.choice((3, 4))
    inst = random_instance(rng, m, n)
    assert (inst.m, inst.n) == (m, n)
    assert is_nondegenerate(inst)
    nw = northwest_corner(inst)
    assert nw.is_vertex()
    assert len(nw.support) == m + n - 1


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=15)
def test_pivot_walks_stay_on_vertices(seed):
    rng = random.Random(f"pivot:{seed}")
    inst = random_instance(rng, rng.choice((2, 3)), rng.choice((3, 4)))
    v = northwest_corner(inst)
    for _ in range(4):
        pivs = _pivots(v)
        assert len(pivs) == (inst.m - 1) * (inst.n - 1)
        piv = rng.choice(pivs)
        assert len(piv.deleted) == 1
        assert piv.result.is_vertex()
        v = piv.result
