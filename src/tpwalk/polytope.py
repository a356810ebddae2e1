"""Vertex structure of transportation polytopes.

Non-degeneracy (exact subset sums of the LCD-scaled integer margins,
pseudo-polynomial in their total), vertex enumeration by spanning-tree
search, skeleton adjacency (unique cycle in the union of two forest
supports), critical edges and the resulting pivot bound m+n-1-k.

Critical edges need no enumeration: row i and column j share only cell
(i, j), so every feasible y has y_ij >= u_i + v_j - T (T the margin total),
and Hall's condition on K_{m,n} minus (i, j) gives a feasible y with
y_ij = max(0, u_i + v_j - T). So (i, j) is critical iff u_i + v_j > T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    Assignment,
    Circuit,
    DegenerateError,
    Edge,
    Instance,
    Matrix,
    ResourceLimitError,
    TransportError,
    _cycle_count,
    _find,
    apply_circuit,
    lcd_scale,
)


def is_nondegenerate(inst: Instance) -> bool:
    """No nonempty proper supply subset sums to a proper demand subset sum.

    Exact and pseudo-polynomial. The margins are scaled once by their
    least common denominator to positive integers with total T. A proper
    sum s shared by both sides comes with the shared complement sum
    T - s, so it suffices to build each side's subset sums up to T/2, by
    doubling a set, and ask whether they share anything but 0. The cost
    is O((m+n) * min(2^max(m,n), T)) set operations, never more than
    listing the 2^m + 2^n subsets.
    """
    scaled = lcd_scale(inst.u + inst.v)
    u, v = scaled[:inst.m], scaled[inst.m:]
    half = sum(u) // 2
    return _subset_sums(u, half) & _subset_sums(v, half) == {0}


def _subset_sums(xs: list[int], cap: int) -> set[int]:
    """Every subset sum of xs up to cap, the empty one included."""
    out = {0}
    for x in xs:
        out |= {y + x for y in out if y <= cap - x}
    return out


def northwest_corner(inst: Instance) -> Assignment:
    """Greedy row-major fill. Always yields a vertex (staircase support)."""
    return _northwest_fill(inst, range(inst.n))


def _northwest_fill(inst: Instance, cols) -> Assignment:
    """The northwest-corner rule with the columns taken in the order
    cols. Any order gives a staircase support, so always a vertex."""
    m, n = inst.m, inst.n
    grid = [[Fraction(0)] * n for _ in range(m)]
    ru, rv = list(inst.u), list(inst.v)
    i = pos = 0
    while i < m and pos < n:
        j = cols[pos]
        x = min(ru[i], rv[j])
        grid[i][j] = x
        ru[i] -= x
        rv[j] -= x
        if ru[i] == 0 and i < m - 1:
            i += 1
        else:
            pos += 1
    return Assignment(inst, grid)


def _solve_tree(inst: Instance, edges) -> Matrix | None:
    """Unique flow on a spanning tree, or None if some entry goes negative."""
    edges = sorted(edges)
    m, n = inst.m, inst.n
    size = m + n
    adj: list[list[int]] = [[] for _ in range(size)]
    for idx, (i, j) in enumerate(edges):
        adj[i].append(idx)
        adj[m + j].append(idx)
    deg = [len(a) for a in adj]
    rem = list(inst.u) + list(inst.v)
    grid = [[Fraction(0)] * n for _ in range(m)]
    done = [False] * len(edges)
    leaves = [x for x in range(size) if deg[x] == 1]
    while leaves:
        node = leaves.pop()
        live = [e for e in adj[node] if not done[e]]
        if not live:
            continue
        eidx = live[0]
        i, j = edges[eidx]
        val = rem[node]
        if val < 0:
            return None
        other = m + j if node == i else i
        grid[i][j] = val
        rem[node] = Fraction(0)
        rem[other] -= val
        done[eidx] = True
        deg[node] -= 1
        deg[other] -= 1
        if deg[other] == 1:
            leaves.append(other)
    if any(x != 0 for x in rem):
        return None
    if any(grid[i][j] < 0 for i, j in edges):
        return None
    return tuple(tuple(row) for row in grid)


@dataclass(frozen=True)
class VertexSet:
    """All vertices of an instance, sorted by flow matrix."""

    inst: Instance
    vertices: tuple[Assignment, ...]
    _index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self._index.update(
            {a.flows: pos for pos, a in enumerate(self.vertices)}
        )

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, pos: int) -> Assignment:
        return self.vertices[pos]

    def index_of(self, a) -> int:
        flows = a.flows if isinstance(a, Assignment) else a
        return self._index[flows]


def tree_count(m: int, n: int) -> int:
    """Spanning trees of K_{m,n}."""
    return m ** (n - 1) * n ** (m - 1)


def enumerate_vertices(inst: Instance, cap_trees: int = 10**7) -> VertexSet:
    """Brute-force vertex enumeration.

    Walks all spanning trees of K_{m,n} (include/exclude search over the
    edge list with a union-find cycle prune), solves the unique flow on
    each, keeps the nonnegative ones and dedups by flow matrix. Every
    vertex has a spanning-tree basis, so degenerate vertices are found
    too; they simply repeat across trees.

    The search runs once per Instance object; later calls return the
    same VertexSet, after the cap check.
    """
    m, n = inst.m, inst.n
    total = tree_count(m, n)
    if total > cap_trees:
        raise ResourceLimitError(f"{total} spanning trees exceeds cap {cap_trees}")
    known = inst._derived.get("vertices")
    if known is not None:
        return known
    edges = [(i, j) for i in range(m) for j in range(n)]
    need = m + n - 1
    found: dict[Matrix, Assignment] = {}

    def rec(pos: int, chosen: list[Edge], parent: list[int]):
        if len(chosen) == need:
            flows = _solve_tree(inst, chosen)
            if flows is not None and flows not in found:
                found[flows] = Assignment(inst, flows)
            return
        if len(edges) - pos < need - len(chosen):
            return
        i, j = edges[pos]
        ra, rb = _find(parent, i), _find(parent, m + j)
        if ra != rb:
            child = list(parent)
            child[ra] = rb
            chosen.append((i, j))
            rec(pos + 1, chosen, child)
            chosen.pop()
        rec(pos + 1, chosen, parent)

    rec(0, [], list(range(m + n)))
    ordered = sorted(found.values(), key=lambda a: a.flows)
    verts = inst._derived["vertices"] = VertexSet(inst, tuple(ordered))
    return verts


def _require_vertex(a: Assignment, name: str):
    if not a.is_vertex():
        raise TransportError(f"{name} is not a vertex (support has a cycle)")


def are_adjacent(O: Assignment, C: Assignment) -> bool:
    """Vertices are adjacent iff the union of supports has exactly one cycle."""
    if O.inst != C.inst:
        raise TransportError("adjacency needs a common instance")
    _require_vertex(O, "first argument")
    _require_vertex(C, "second argument")
    return _cycle_count(O.support | C.support, O.inst.m, O.inst.n) == 1


@dataclass(frozen=True)
class PivotResult:
    """One skeleton move: the circuit walked, its length, what it deleted."""

    circuit: Circuit
    alpha: Fraction
    deleted: frozenset[Edge]
    result: Assignment


def insert_pivot(vertex: Assignment, edge: Edge) -> PivotResult:
    """Insert an absent edge into a vertex support and walk the unique cycle.

    The inserted edge is increased; flow moves around the cycle it closes
    until the first decreased edge hits zero. For non-degenerate instances
    exactly one edge is deleted and the result is the adjacent vertex in
    that direction.
    """
    _require_vertex(vertex, "pivot source")
    sup = vertex.support
    if edge in sup:
        raise TransportError(f"edge {edge} already present")
    m, n = vertex.inst.m, vertex.inst.n
    i, j = edge
    if not (0 <= i < m and 0 <= j < n):
        raise TransportError(f"edge {edge} outside {m}x{n}")
    # Path from demand j to supply i inside the support forest.
    adj: dict[int, list[int]] = {x: [] for x in range(m + n)}
    for a, b in sorted(sup):
        adj[a].append(m + b)
        adj[m + b].append(a)
    start, goal = m + j, i
    prev = {start: start}
    queue = [start]
    while queue:
        node = queue.pop(0)
        if node == goal:
            break
        for nxt in adj[node]:
            if nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    if goal not in prev:
        raise DegenerateError(f"support does not connect edge {edge}")
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    path.reverse()  # demand j, supply, demand, ..., supply i
    supplies = [i] + [x for x in path if x < m and x != i]
    demands = [x - m for x in path if x >= m]
    g = Circuit(supplies, demands)
    flows = [vertex.flows[a][b] for a, b in g.decreased()]
    alpha = min(flows)
    if alpha <= 0:
        raise DegenerateError(f"zero flow on the cycle closed by {edge}")
    deleted = frozenset(
        e for e in g.decreased() if vertex.flows[e[0]][e[1]] == alpha
    )
    result = Assignment(vertex.inst, apply_circuit(vertex.flows, g, alpha))
    return PivotResult(g, alpha, deleted, result)


def vertex_neighbors(vertex: Assignment) -> list[PivotResult]:
    """All single-insertion pivots, one per absent edge, sorted by edge.

    For non-degenerate instances these are exactly the skeleton neighbors,
    (m-1)(n-1) of them, pairwise distinct.
    """
    m, n = vertex.inst.m, vertex.inst.n
    sup = vertex.support
    out = []
    for i in range(m):
        for j in range(n):
            if (i, j) not in sup:
                out.append(insert_pivot(vertex, (i, j)))
    return out


@dataclass(frozen=True)
class HirschData:
    """Critical-edge count and the pivot bound m+n-1-k it implies."""

    k: int
    bound: int


def critical_edges(inst: Instance) -> frozenset[Edge]:
    """Edges positive at every feasible point: u_i + v_j > T. O(mn).

    Row i and column j count y_ij twice, so y_ij >= u_i + v_j - T; Hall's
    condition on K_{m,n} minus (i, j) attains max(0, u_i + v_j - T).
    """
    total = sum(inst.u)
    return frozenset((i, j) for i, a in enumerate(inst.u)
                     for j, b in enumerate(inst.v) if a + b > total)


def hirsch_data(inst: Instance) -> HirschData:
    k = len(critical_edges(inst))
    return HirschData(k=k, bound=inst.m + inst.n - 1 - k)
