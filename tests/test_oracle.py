import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from tpwalk import (
    Assignment,
    CircuitSet,
    Instance,
    ResourceLimitError,
    TransportError,
    VertexSet,
    apply_circuit,
    are_adjacent,
    cd_at_most,
    cd_minimum,
    cdfm_distance,
    enumerate_circuits,
    enumerate_vertices,
    gen_coincide,
    gen_diameter_n,
    gen_example1,
    gen_hirsch_sharp,
    graph_diameter,
    graph_distance,
    graph_distance_table,
    insert_pivot,
    is_nondegenerate,
    max_step,
    perturb,
    random_instance,
)


@pytest.fixture()
def case():
    return gen_example1()


def test_example_distances(case):
    assert graph_distance(case.O, case.F) == 3
    assert cdfm_distance(case.O, case.F) == 1
    assert cd_minimum(case.O, case.F) == 1


def test_zero_distances(case):
    assert graph_distance(case.O, case.O) == 0
    assert cdfm_distance(case.O, case.O) == 0
    assert cd_at_most(case.O, case.O, 0)


def test_cdfm_depth_cap(case):
    assert cdfm_distance(case.O, case.F, depth_cap=0) is None
    assert cdfm_distance(case.O, case.F, depth_cap=1) == 1


def test_cd_at_most_argument_checks(case):
    with pytest.raises(TransportError):
        cd_at_most(case.O, case.F, -1)
    with pytest.raises(TransportError):
        cd_at_most(case.O, case.F, 5)
    assert not cd_at_most(case.O, case.F, 0)


def test_resource_caps():
    cc = gen_coincide(4)
    with pytest.raises(ResourceLimitError):
        cdfm_distance(cc.O, cc.F, cap_states=2)
    other = gen_coincide(3)
    with pytest.raises(ResourceLimitError):
        cd_at_most(other.O, other.F, 2, cap_solves=1)


def test_cd_cap_names_progress():
    sharp = perturb(gen_hirsch_sharp(3, 3), Fraction(1, 1024))
    with pytest.raises(ResourceLimitError,
                       match=r"k=3 exceeded 50 solves \(largest basis reached: 1\)"):
        cd_at_most(sharp.O, sharp.F, 3, cap_solves=50)


def test_distance_table_matches_pointwise(case):
    verts = enumerate_vertices(case.inst)
    table = graph_distance_table(case.inst)
    for a in range(len(verts)):
        for b in range(len(verts)):
            assert table.distance(a, b) == graph_distance(verts[a], verts[b])
    assert max(map(max, table.rows)) == graph_diameter(case.inst) == 3


def test_vertex_set_is_enumerated_once_per_object(case):
    verts = enumerate_vertices(case.inst)
    assert enumerate_vertices(case.inst) is verts
    fresh = Instance(case.inst.u, case.inst.v)
    assert fresh == case.inst and hash(fresh) == hash(case.inst)
    assert enumerate_vertices(fresh) is not verts
    assert enumerate_vertices(fresh) == verts
    # The cap is checked before the stored set is consulted.
    with pytest.raises(ResourceLimitError):
        enumerate_vertices(case.inst, cap_trees=2)
    with pytest.raises(ResourceLimitError):
        graph_distance(case.O, case.F, cap_trees=2)


def test_neighbor_graph_returns_fresh_lists(case):
    # The set's graph is the one callers read; its rows are tuples, so a
    # caller cannot change the graph that later distances search.
    verts = enumerate_vertices(case.inst)
    assert isinstance(verts.graph, tuple)
    assert all(isinstance(row, tuple) and len(row) == 2 for row in verts.graph)
    assert graph_distance(case.O, case.F) == 3


def test_vertex_set_carries_its_graph():
    degenerate = Instance((1, 3, 4), (2, 3, 3))
    for inst in (gen_example1().inst, degenerate):
        verts = enumerate_vertices(inst)
        assert graph_distance_table(inst).verts.graph is verts.graph
        pair = VertexSet(inst, verts.vertices[:2], ((1,), (0,)))
        assert pair.graph == ((1,), (0,))
        with pytest.raises(TransportError):
            VertexSet(inst, verts.vertices, verts.graph[:-1])


def test_non_vertex_endpoints_are_refused(case):
    verts = enumerate_vertices(case.inst)
    mid = Assignment(case.inst, [["3/2", "3/2", 0], ["1/2", "1/2", 2]])
    with pytest.raises(TransportError, match="not a vertex"):
        graph_distance(case.O, mid)
    with pytest.raises(TransportError, match="not a vertex"):
        verts.index_of(mid.flows)
    other = enumerate_vertices(Instance((3, 3), (1, 2, 3)))[0]
    with pytest.raises(TransportError, match="another instance"):
        verts.index_of(other)
    assert verts.index_of(case.F) == verts.index_of(case.F.flows)


def test_index_of_reads_any_flow_matrix(case):
    verts = enumerate_vertices(case.inst)
    assert verts.index_of([[2, 1, 0], [0, 1, 2]]) == verts.index_of(case.O) == 5
    assert verts.index_of([["2", "1", 0], [0, 1, "2"]]) == 5
    with pytest.raises(TransportError, match="equal length"):
        verts.index_of([[2, 1, 0], [0, 1]])


def _pivot_graph(verts):
    """The graph as one insertion pivot per absent edge gives it, each
    pivot deleting one edge (non-degenerate instances only)."""
    m, n = verts.inst.m, verts.inst.n
    out = []
    for a in verts:
        pivots = [insert_pivot(a, (i, j)) for i in range(m) for j in range(n)
                  if (i, j) not in a.support]
        assert all(len(piv.deleted) == 1 for piv in pivots)
        out.append(sorted(verts.index_of(piv.result) for piv in pivots))
    return out


@pytest.mark.parametrize("m,n,count", [
    (2, 3, 2), (2, 4, 2), (2, 5, 2), (3, 3, 2), (3, 4, 2), (3, 5, 2), (4, 4, 1),
])
def test_neighbor_graph_matches_pivots(m, n, count):
    rng = random.Random(f"pivots:{m}x{n}")
    for _ in range(count):
        verts = enumerate_vertices(random_instance(rng, m, n))
        assert list(map(list, verts.graph)) == _pivot_graph(verts)
        assert all(len(row) == (m - 1) * (n - 1) for row in verts.graph)


@pytest.mark.parametrize("make", [
    lambda: gen_example1().inst,
    lambda: gen_hirsch_sharp(3, 3).inst,
    lambda: gen_coincide(4).inst,
    lambda: gen_diameter_n(4).inst,
    lambda: Instance((1, 3, 4), (2, 3, 3)),
    # Bases outnumber vertices: 72 for 6, 3072 for 24, 404 for 194.
    lambda: Instance((1,) * 3, (1,) * 3),
    lambda: Instance((1,) * 4, (1,) * 4),
    lambda: gen_hirsch_sharp(4, 4).inst,
], ids=["example1", "hirsch_sharp3x3", "coincide4", "diameter_n4", "134-233",
        "ones3x3", "ones4x4", "hirsch_sharp4x4"])
def test_neighbor_graph_matches_pairwise(make):
    verts = enumerate_vertices(make())
    want = [[b for b, y in enumerate(verts) if b != a and are_adjacent(x, y)]
            for a, x in enumerate(verts)]
    assert list(map(list, verts.graph)) == want


@pytest.mark.parametrize("u,v", [((3, 3), (2, 2, 2)), ((1, 3, 4), (2, 3, 3))])
def test_stored_graph_matches_fresh_table(u, v):
    inst = Instance(u, v)
    verts = enumerate_vertices(inst)
    pointwise = {
        (a, b): graph_distance(verts[a], verts[b])
        for a in range(len(verts)) for b in range(len(verts))
    }
    fresh = Instance(u, v)
    table = graph_distance_table(fresh)
    assert table.verts == verts
    assert all(table.distance(a, b) == d for (a, b), d in pointwise.items())
    assert max(pointwise.values()) == max(map(max, table.rows)) == 3


def test_neighbor_graph_degrees(case):
    adj = enumerate_vertices(case.inst).graph
    assert all(len(row) == 2 for row in adj)
    assert all(a in adj[b] for b, row in enumerate(adj) for a in row)


@pytest.mark.parametrize("n,want", [(2, 1), (3, 2), (4, 3)])
def test_coincide_diameter(n, want):
    assert graph_diameter(gen_coincide(n).inst) == want


def test_hierarchy_chain_on_random_instances():
    for seed in range(3):
        rng = random.Random(f"chain:{seed}")
        inst = random_instance(rng, 2, 3)
        verts = enumerate_vertices(inst)
        cs = enumerate_circuits(2, 3)
        table = graph_distance_table(inst)
        for a in range(len(verts)):
            for b in range(a + 1, len(verts)):
                cde = table.distance(a, b)
                cdfm = cdfm_distance(verts[a], verts[b], circuits=cs)
                cdmin = cd_minimum(verts[a], verts[b], circuits=cs)
                assert cde >= cdfm >= cdmin >= 1


def _rank(rows) -> int:
    """Rank over the rationals by plain Fraction elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _reference_cd(O, F, vecs) -> int:
    """Fewest circuits whose span holds y^F - y^O, by trying every subset
    of each size in full m*n coordinates."""
    diff = [F.flows[i][j] - O.flows[i][j]
            for i in range(O.inst.m) for j in range(O.inst.n)]
    for size in range(len(vecs) + 1):
        for subset in combinations(vecs, size):
            if _rank(list(subset) + [diff]) == _rank(subset):
                return size
    raise AssertionError("the circuits do not span the difference")


def _reference_cases():
    rng = random.Random("cd-reference")
    # Small margins on 2x5 tie demands, so some targets are reached only
    # through one particular circuit, or only by circuits whose supports
    # just cover the target's.
    for m, n, high in ((2, 3, 50), (2, 4, 50), (3, 3, 50), (2, 5, 12)):
        verts = enumerate_vertices(random_instance(rng, m, n, high=high))
        for _ in range(8):
            a, b = rng.sample(range(len(verts)), 2)
            yield verts[a], verts[b]
    sharp = perturb(gen_hirsch_sharp(3, 3), Fraction(1, 1024))
    yield sharp.O, sharp.F
    for u, v in (((2, 2), (2, 2)), ((1, 1, 2), (2, 2))):
        verts = enumerate_vertices(Instance(u, v))
        for a in range(len(verts)):
            for b in range(a + 1, len(verts)):
                yield verts[a], verts[b]


def test_cd_matches_subset_reference():
    for O, F in _reference_cases():
        m, n = O.inst.m, O.inst.n
        cs = enumerate_circuits(m, n)
        want = _reference_cd(O, F, [g.vector(m, n) for g in cs])
        got = [cd_at_most(O, F, k, circuits=cs) for k in range(m + n)]
        assert got == [k >= want for k in range(m + n)], (O.flows, F.flows)
        assert cd_minimum(O, F, circuits=cs) == want
        # The search is order dependent; its answer must not be. Each
        # rotation puts another circuit last.
        for r in range(1, len(cs)):
            rotated = CircuitSet(m, n, cs.circuits[r:] + cs.circuits[:r])
            assert cd_at_most(O, F, want, circuits=rotated), r
            if want:
                assert not cd_at_most(O, F, want - 1, circuits=rotated), r


def _reference_cd_at_most(O, F, k, circuits) -> bool:
    """The span search before it dropped repeated lines: DFS over
    index-increasing circuit subsets that reduces every later candidate
    against each chosen circuit and keeps every copy of a line, with its
    own integer elimination and no cap."""
    m, n = O.inst.m, O.inst.n

    def primitive(row):
        g = gcd(*row)
        if g == 0:
            return None
        lead = next(x for x in row if x)
        return tuple(x // (g if lead > 0 else -g) for x in row)

    def eliminate(vec, pivot, row):
        c = vec[pivot]
        if not c:
            return vec
        return primitive([row[pivot] * a - c * b for a, b in zip(vec, row)])

    coords = [i * n + j for i in range(m - 1) for j in range(n - 1)]
    diff = [F.flows[i][j] - O.flows[i][j] for i in range(m) for j in range(n)]
    scale = lcm(*(x.denominator for x in diff))
    target = primitive([int(diff[c] * scale) for c in coords])
    if target is None:
        return True
    if k == 0:
        return False
    cands = [primitive([g.vector(m, n)[c] for c in coords]) for g in circuits]

    def dfs(cands, residual, depth):
        if k - depth == 2:
            pivot = next(p for p, x in enumerate(residual) if x)
            first_on_line = {}
            for vec in cands:
                line = eliminate(vec, pivot, residual)
                if line is None or first_on_line.setdefault(line, vec) != vec:
                    return True
            return False
        if residual in cands:
            return True
        if k - depth == 1:
            return False
        for idx, vec in enumerate(cands):
            pivot = next(p for p, x in enumerate(vec) if x)
            rest = [eliminate(later, pivot, vec) for later in cands[idx + 1:]]
            if dfs([r for r in rest if r is not None],
                   eliminate(residual, pivot, vec), depth + 1):
                return True
        return False

    return dfs(cands, target, 0)


def _reference_cd_minimum(O, F, circuits) -> int:
    return next(k for k in range(O.inst.m + O.inst.n)
                if _reference_cd_at_most(O, F, k, circuits))


def test_cd_matches_the_search_that_keeps_repeated_lines_at_3x4(sharp3x4):
    # Repeated lines only appear once a node has chosen a circuit, that is
    # from k = 3 on, which 3x4 pairs reach and the brute force above is
    # too slow for.
    cs = enumerate_circuits(3, 4)
    rotations = [CircuitSet(3, 4, cs.circuits[r:] + cs.circuits[:r])
                 for r in (len(cs) // 3, 2 * len(cs) // 3)]
    assert _reference_cd_minimum(sharp3x4.O, sharp3x4.F, cs) == 6
    for c in [cs] + rotations:
        # The reference's failing k = 5 search is this test's largest
        # cost, so it runs once, in the enumeration order, above.
        assert [cd_at_most(sharp3x4.O, sharp3x4.F, k, circuits=c)
                for k in range(7)] == [k >= 6 for k in range(7)]
    rng = random.Random("cd-reference-3x4")
    verts = enumerate_vertices(random_instance(rng, 3, 4))
    found = {}
    while len(found) < 6:
        O, F = (verts[i] for i in rng.sample(range(len(verts)), 2))
        want = _reference_cd_minimum(O, F, cs)
        if want >= 3:
            found[O, F] = want
    assert set(found.values()) == {3, 4, 5}
    for O, F in found:
        for c in [cs] + rotations:
            want = [_reference_cd_at_most(O, F, k, c) for k in range(7)]
            assert [cd_at_most(O, F, k, circuits=c) for k in range(7)] == want


def test_failing_sharp_3x4_search_fits_in_100000_solves(sharp3x4):
    # Keeping every copy of a line, this search takes 226,621 solves.
    assert not cd_at_most(sharp3x4.O, sharp3x4.F, 5, cap_solves=100_000)


def _reference_cdfm(O, F, depth_cap=None, cap_states=10**6, circuits=None):
    """The maximal-step BFS over Fraction matrices, with both orientations
    of every circuit built as Circuit objects and stepped by max_step and
    apply_circuit."""
    inst = O.inst
    if depth_cap is None:
        depth_cap = inst.m + inst.n
    cs = circuits if circuits is not None else enumerate_circuits(inst.m, inst.n)
    oriented = [x for g in cs for x in (g, -g)]
    goal = F.flows
    if O.flows == goal:
        return 0
    seen = {O.flows}
    frontier = [O.flows]
    for depth in range(1, depth_cap + 1):
        nxt = []
        for y in frontier:
            for g in oriented:
                a = max_step(y, g)
                if a is None:
                    continue
                z = apply_circuit(y, g, a)
                if z == goal:
                    return depth
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        if len(seen) > cap_states:
            raise ResourceLimitError(
                f"maximal-step state space exceeded {cap_states} states"
            )
        if not nxt:
            return None
        frontier = nxt
    return None


def _balanced_margins(rng, m, n, high):
    """Balanced integer margins in [1, high], degenerate or not."""
    while True:
        u = [rng.randint(1, high) for _ in range(m)]
        v = [rng.randint(1, high) for _ in range(n)]
        if sum(u) == sum(v):
            return Instance(u, v)


def _cdfm_reference_instances():
    # Every ordered vertex pair is searched without a depth cap, so the
    # 3x4 cases keep to small margins and few vertices.
    rng = random.Random("cdfm-reference")
    for m, n in ((2, 3), (2, 4), (3, 3)):
        yield _balanced_margins(rng, m, n, 6)
        yield random_instance(rng, m, n)
    yield _balanced_margins(rng, 3, 4, 2)
    yield perturb(gen_hirsch_sharp(3, 3), Fraction(1, 1024)).inst


def test_cdfm_matches_fraction_reference_on_every_pair():
    insts = list(_cdfm_reference_instances())
    assert {is_nondegenerate(inst) for inst in insts} == {True, False}
    for inst in insts:
        verts = enumerate_vertices(inst)
        cs = enumerate_circuits(inst.m, inst.n)
        for O in verts:
            for F in verts:
                want = _reference_cdfm(O, F, circuits=cs)
                assert cdfm_distance(O, F, circuits=cs) == want, (O.flows, F.flows)
                if want and want > 1:
                    for cap in (want - 1, want):
                        got = cdfm_distance(O, F, depth_cap=cap, circuits=cs)
                        assert got == _reference_cdfm(O, F, depth_cap=cap, circuits=cs)
                        assert got == (want if cap == want else None)


def test_cdfm_matches_fraction_reference_on_perturbed_sharp_3x4():
    sharp = perturb(gen_hirsch_sharp(3, 4), Fraction(1, 1024))
    verts = enumerate_vertices(sharp.inst)
    table = graph_distance_table(sharp.inst)
    cs = enumerate_circuits(3, 4)
    rng = random.Random("cdfm-sharp3x4")
    near = [(a, b) for a in range(len(verts)) for b in range(len(verts))
            if a != b and table.distance(a, b) <= 2]
    for a, b in rng.sample(near, 12):
        want = _reference_cdfm(verts[a], verts[b], circuits=cs)
        assert want is not None
        assert cdfm_distance(verts[a], verts[b], circuits=cs) == want
    # O to F needs six maximal steps; a cap of three stops both searches.
    for cap in (2, 3):
        assert cdfm_distance(sharp.O, sharp.F, depth_cap=cap, circuits=cs) is None
        assert _reference_cdfm(sharp.O, sharp.F, depth_cap=cap, circuits=cs) is None


def _mix(inst, a, b, t):
    """The point (1 - t) a + t b, not a vertex for 0 < t < 1."""
    return Assignment(inst, [[(1 - t) * x + t * y for x, y in zip(ra, rb)]
                             for ra, rb in zip(a.flows, b.flows)])


def test_cdfm_matches_fraction_reference_from_non_vertex_points():
    found = 0
    for inst in (gen_example1().inst, Instance((1, 46, 27), (12, 38, 24)),
                 Instance((2, 2, 1), (1, 1, 2, 1))):
        verts = enumerate_vertices(inst)
        cs = enumerate_circuits(inst.m, inst.n)
        for t in (Fraction(1, 2), Fraction(1, 3)):
            for a in range(3):
                b = (a + 1) % len(verts)
                start = _mix(inst, verts[a], verts[b], t)
                assert not start.is_vertex()
                for F in (verts[0], verts[-1], start):
                    want = _reference_cdfm(start, F, circuits=cs)
                    assert cdfm_distance(start, F, circuits=cs) == want
                    found += want is not None
                want = _reference_cdfm(verts[0], start, circuits=cs)
                assert cdfm_distance(verts[0], start, circuits=cs) == want
    assert found


def test_cdfm_cap_states_boundary_matches_reference():
    cc = gen_coincide(4)

    def passes(cap):
        try:
            _reference_cdfm(cc.O, cc.F, cap_states=cap)
        except ResourceLimitError:
            return False
        return True

    lo, hi = 0, 10**6
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid + 1, hi)
    assert lo > 1 and not passes(lo - 1)
    assert cdfm_distance(cc.O, cc.F, cap_states=lo) == _reference_cdfm(cc.O, cc.F) == 3
    with pytest.raises(ResourceLimitError, match=f"exceeded {lo - 1} states"):
        cdfm_distance(cc.O, cc.F, cap_states=lo - 1)


@pytest.fixture(scope="module")
def sharp3x4():
    return perturb(gen_hirsch_sharp(3, 4), Fraction(1, 1024))


# A 3x3 set shares the rows but not the columns: flat indices i*n + j
# would read the wrong cells.
WRONG_SHAPES = [(2, 3), (3, 3), (4, 4)]


@pytest.mark.parametrize("shape", WRONG_SHAPES, ids=["2x3", "3x3", "4x4"])
def test_cdfm_refuses_a_circuit_set_of_another_shape(sharp3x4, shape):
    with pytest.raises(TransportError, match="circuit set cannot serve a 3x4"):
        cdfm_distance(sharp3x4.O, sharp3x4.F, circuits=enumerate_circuits(*shape))


@pytest.mark.parametrize("shape", WRONG_SHAPES, ids=["2x3", "3x3", "4x4"])
def test_cd_at_most_refuses_a_circuit_set_of_another_shape(sharp3x4, shape):
    with pytest.raises(TransportError, match="circuit set cannot serve a 3x4"):
        cd_at_most(sharp3x4.O, sharp3x4.F, 3, circuits=enumerate_circuits(*shape))


@pytest.mark.parametrize("shape", WRONG_SHAPES, ids=["2x3", "3x3", "4x4"])
def test_cd_minimum_refuses_a_circuit_set_of_another_shape(sharp3x4, shape):
    with pytest.raises(TransportError, match="circuit set cannot serve a 3x4"):
        cd_minimum(sharp3x4.O, sharp3x4.F, circuits=enumerate_circuits(*shape))
