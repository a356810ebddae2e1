"""Brute-force distance oracles, independent of the constructive walks.

Three notions, three engines. Skeleton distance is BFS on the neighbor
graph that enumerate_vertices builds in the same pivot search as the
vertex set, which carries it; the Instance object holds that set (freed
with it by the cycle collector), so each further distance is one BFS.
Equal but distinct Instance objects share nothing. Points enter as exact
rationals; the two circuit oracles scale them once by their least
common denominator and search over exact integers. The maximal-step
distance runs BFS over flat integer flow states, stepping by each
circuit's compiled cells. The unrestricted circuit distance reduces to
linear algebra: a difference vector is reachable in k unrestricted
steps iff it lies in the span of at most k circuits, since orientations
absorb signs and zero coefficients shrink the set. The span search
works in kernel coordinates, dimension (m-1)(n-1), with a fraction-free
integer echelon that is extended one row at a time by a single-row
elimination step, and it keeps each distinct line of its candidates once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import (
    Assignment,
    Instance,
    ResourceLimitError,
    TransportError,
    UnreachableCaseError,
    lcd_scale,
)
from .circuits import CircuitSet, enumerate_circuits
from .polytope import VertexSet, enumerate_vertices


@dataclass(frozen=True)
class DistanceTable:
    """Edge-walk (CD_e) distances for vertex pairs of one instance.

    rows[a][b] is the distance from vertex a to vertex b, as indices into
    the vertex set: one breadth-first-search row per vertex. The largest
    entry is the diameter, which graph_diameter finds without the table.
    """

    verts: VertexSet
    rows: tuple[tuple[int, ...], ...]

    def distance(self, a: int, b: int) -> int:
        return self.rows[a][b]


def _bfs(adj: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = [source]
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        for nxt in adj[node]:
            if dist[nxt] < 0:
                dist[nxt] = dist[node] + 1
                queue.append(nxt)
    return dist


def graph_distance(O: Assignment, F: Assignment, cap_trees: int = 10**7) -> int:
    """Minimum number of skeleton edges between two vertices."""
    if O.inst != F.inst:
        raise TransportError("graph distance needs a common instance")
    verts = enumerate_vertices(O.inst, cap_trees=cap_trees)
    return _bfs(verts.graph, verts.index_of(O))[verts.index_of(F)]


def graph_distance_table(inst: Instance, cap_trees: int = 10**7) -> DistanceTable:
    """All-pairs skeleton distances, one BFS per vertex."""
    verts = enumerate_vertices(inst, cap_trees=cap_trees)
    rows = tuple(tuple(_bfs(verts.graph, a)) for a in range(len(verts)))
    return DistanceTable(verts, rows)


def graph_diameter(inst: Instance, cap_trees: int = 10**7) -> int:
    """The largest skeleton distance, by one BFS per vertex."""
    graph = enumerate_vertices(inst, cap_trees=cap_trees).graph
    return max(max(_bfs(graph, a)) for a in range(len(graph)))


def _circuit_set(inst: Instance, circuits: CircuitSet | None) -> CircuitSet:
    """The given set, refused unless it has the instance's shape, or
    every circuit of that shape when None."""
    if circuits is None:
        return enumerate_circuits(inst.m, inst.n)
    if (circuits.m, circuits.n) != (inst.m, inst.n):
        raise TransportError(
            f"a {circuits.m}x{circuits.n} circuit set cannot serve a "
            f"{inst.m}x{inst.n} instance"
        )
    return circuits


def cdfm_distance(
    O: Assignment,
    F: Assignment,
    depth_cap: int | None = None,
    cap_states: int = 10**6,
    circuits: CircuitSet | None = None,
) -> int | None:
    """Minimum number of maximal feasible steps from O to F.

    BFS over flow states; each transition applies one applicable
    oriented circuit at its full step length. Returns None when no walk
    of length <= depth_cap (default m+n) exists.

    The states are the entries of O and F scaled once by their least
    common denominator, as flat row-major int tuples. A maximal step is
    the least entry on the circuit's decreased cells, so every reachable
    state stays integral, and the scaling is a bijection on states.
    """
    if O.inst != F.inst:
        raise TransportError("distance needs a common instance")
    inst = O.inst
    if depth_cap is None:
        depth_cap = inst.m + inst.n
    moves = []
    for inc, dec in _circuit_set(inst, circuits).flat():
        moves += ((inc, dec), (dec, inc))
    size = inst.m * inst.n
    cells = lcd_scale([x for a in (O, F) for row in a.flows for x in row])
    start, goal = tuple(cells[:size]), tuple(cells[size:])
    if start == goal:
        return 0
    seen = {start}
    frontier = [start]
    for depth in range(1, depth_cap + 1):
        nxt = []
        for y in frontier:
            for inc, dec in moves:
                a = min([y[k] for k in dec])
                if a <= 0:
                    continue
                z = list(y)
                for k in inc:
                    z[k] += a
                for k in dec:
                    z[k] -= a
                z = tuple(z)
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


def _normalize_row(row) -> tuple[int, ...] | None:
    """Primitive integer form with a positive leading entry, or None."""
    g = gcd(*row)
    if g == 0:
        return None
    for lead in row:
        if lead:
            break
    if lead < 0:
        g = -g
    return tuple([x // g for x in row])


def _eliminate(vec, pivot: int, row) -> tuple[int, ...] | None:
    """One fraction-free elimination step, the span search's kernel.

    vec and row are in _normalize_row's form, and pivot is row's leading
    index. Returns vec with its pivot entry cleared by one cross-multiply,
    in that form again, or None when vec lies on row's line; vec itself
    when that entry is already zero.
    """
    c = vec[pivot]
    if not c:
        return vec
    f = row[pivot]
    return _normalize_row([f * a - c * b for a, b in zip(vec, row)])


def _reduce(vec, basis) -> tuple[int, ...] | None:
    """vec reduced against echelon rows, one _eliminate step per row, in
    _normalize_row's form; None once it vanishes."""
    cur = _normalize_row(vec)
    for pivot, row in basis:
        if cur is None:
            break
        cur = _eliminate(cur, pivot, row)
    return cur


def cd_at_most(
    O: Assignment,
    F: Assignment,
    k: int,
    cap_solves: int = 10**7,
    circuits: CircuitSet | None = None,
) -> bool:
    """Can y^F - y^O be written as a positive combination of <= k circuits?

    Equivalent to span membership over <= k unoriented circuits (signs
    are a choice of orientation; a dependent set never beats its
    independent subsets). Searched by DFS over index-increasing subsets.
    Each node holds the target and the later circuits reduced against its
    echelon basis, in primitive form, so a reduced vector names its line
    modulo the basis: choosing a circuit eliminates its pivot from every
    later candidate once, and a candidate that vanishes leaves the whole
    subtree. One more circuit reaches the target iff some candidate lies
    on the target's line; two more iff two candidates on distinct lines
    fall on one line once the target's pivot is eliminated too.

    Each distinct line is searched once: repeats are dropped from the root
    candidates and from every node's reduced candidates, keeping the first
    occurrence. Two equal reduced candidates span the same space together
    with the basis, so a subset that uses the later one is matched by the
    same subset with the earlier one, which the search reaches too, and a
    subset that uses both is dependent. Exact throughout: the difference
    is scaled once by its least common denominator, and the candidates
    come from the set's compiled cells. A solve is one candidate
    elimination.
    """
    if O.inst != F.inst:
        raise TransportError("distance needs a common instance")
    inst = O.inst
    m, n = inst.m, inst.n
    if k < 0:
        raise TransportError("k must be nonnegative")
    if k > m + n - 1:
        raise TransportError(f"k={k} above the hard bound {m + n - 1}")
    cs = _circuit_set(inst, circuits)
    diff = lcd_scale([
        b - a for ra, rb in zip(O.flows, F.flows) for a, b in zip(ra, rb)
    ])
    if not any(diff):
        return True
    if k == 0:
        return False

    # Kernel coordinates: a margin-neutral vector is determined by its
    # entries on the first m-1 rows and n-1 columns.
    coords = [i * n + j for i in range(m - 1) for j in range(n - 1)]
    target = _normalize_row([diff[c] for c in coords])
    if target is None:
        raise UnreachableCaseError("nonzero difference projected to zero")

    cands = []
    for inc, dec in cs.flat():
        sign = dict.fromkeys(inc, 1) | dict.fromkeys(dec, -1)
        cands.append(_normalize_row([sign.get(c, 0) for c in coords]))
    solves = 0
    deepest = 0

    def eliminate(vec, pivot, row):
        nonlocal solves
        solves += 1
        if solves > cap_solves:
            raise ResourceLimitError(
                f"circuit-subset search for k={k} exceeded {cap_solves} "
                f"solves (largest basis reached: {deepest})"
            )
        return _eliminate(vec, pivot, row)

    def dfs(cands, residual, depth: int) -> bool:
        nonlocal deepest
        deepest = max(deepest, depth)
        if k - depth == 2:
            pivot = next(p for p, x in enumerate(residual) if x)
            lines = set()
            for vec in cands:
                line = eliminate(vec, pivot, residual)
                # None: vec lies on the residual's line, so one suffices.
                # The candidates are distinct lines, so a repeat is two
                # of them falling on one line.
                if line is None or line in lines:
                    return True
                lines.add(line)
            return False
        if residual in cands:
            return True
        if k - depth == 1:
            return False
        for idx, vec in enumerate(cands):
            vpivot = next(p for p, x in enumerate(vec) if x)
            rest = {}
            for later in cands[idx + 1:]:
                red = eliminate(later, vpivot, vec)
                if red is not None:
                    rest[red] = None
            new_res = _eliminate(residual, vpivot, vec)
            if dfs(list(rest), new_res, depth + 1):
                return True
        return False

    return dfs(list(dict.fromkeys(cands)), target, 0)


def cd_minimum(
    O: Assignment,
    F: Assignment,
    cap_solves: int = 10**7,
    circuits: CircuitSet | None = None,
) -> int:
    """Smallest k with cd_at_most(O, F, k)."""
    inst = O.inst
    cs = _circuit_set(inst, circuits)
    for k in range(inst.m + inst.n):
        if cd_at_most(O, F, k, cap_solves=cap_solves, circuits=cs):
            return k
    raise UnreachableCaseError("no k up to m+n-1 reached the target")
