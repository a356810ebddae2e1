"""Vertex structure of transportation polytopes.

Non-degeneracy (exact subset sums of the LCD-scaled integer margins,
pseudo-polynomial in their total), the vertices and the skeleton graph
from one pivot search over feasible bases, adjacency of two vertices
(unique cycle in the union of their supports), critical edges and the
Hirsch bound they lower.

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
    apply_circuit,
    as_matrix,
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
    grid = [[Fraction(0)] * inst.n for _ in range(inst.m)]
    for i, j, x in _northwest_cells(inst.u, inst.v, cols):
        grid[i][j] = x
    return Assignment(inst, grid)


def _northwest_cells(u, v, cols):
    """The cells (i, j, amount) the northwest-corner rule fills on margins
    u and v, columns in the order cols: a staircase of m + n - 1 cells,
    so a spanning tree of K_{m,n}, with zero amounts on degenerate ties."""
    m, n = len(u), len(cols)
    ru, rv = list(u), list(v)
    i = pos = 0
    while i < m and pos < n:
        j = cols[pos]
        x = min(ru[i], rv[j])
        yield i, j, x
        ru[i] -= x
        rv[j] -= x
        if ru[i] == 0 and i < m - 1:
            i += 1
        else:
            pos += 1


def _solve_tree(inst: Instance, edges) -> Matrix | None:
    """Unique flow on a forest of cells, or None if some entry goes
    negative or the margins are not met. Leaves are peeled one at a time:
    a leaf's one cell carries the leaf's remaining margin."""
    m, n = inst.m, inst.n
    live: list[set[int]] = [set() for _ in range(m + n)]
    for i, j in edges:
        live[i].add(m + j)
        live[m + j].add(i)
    rem = list(inst.u) + list(inst.v)
    grid = [[Fraction(0)] * n for _ in range(m)]
    leaves = [x for x in range(m + n) if len(live[x]) == 1]
    while leaves:
        x = leaves.pop()
        if live[x]:
            y = live[x].pop()
            live[y].discard(x)
            i, j = (x, y - m) if x < m else (y, x - m)
            grid[i][j] = rem[x]
            rem[x], rem[y] = 0, rem[y] - rem[x]
            if len(live[y]) == 1:
                leaves.append(y)
    if any(rem) or any(grid[i][j] < 0 for i, j in edges):
        return None
    return tuple(tuple(row) for row in grid)


@dataclass(frozen=True)
class VertexSet:
    """All vertices of an instance, sorted by flow matrix, and their
    skeleton graph: graph[a] is the sorted tuple of vertex a's neighbour
    indices."""

    inst: Instance
    vertices: tuple[Assignment, ...]
    graph: tuple[tuple[int, ...], ...]
    _index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if len(self.graph) != len(self.vertices):
            raise TransportError(
                f"{len(self.graph)} graph rows for {len(self.vertices)} vertices"
            )
        self._index.update({a.flows: p for p, a in enumerate(self.vertices)})

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __getitem__(self, pos: int) -> Assignment:
        return self.vertices[pos]

    def index_of(self, a) -> int:
        """Position of a vertex, given as an Assignment or a flow matrix
        (any nested iterable of rationals that as_matrix reads)."""
        if isinstance(a, Assignment):
            if a.inst != self.inst:
                raise TransportError("the point belongs to another instance")
            a = a.flows
        pos = self._index.get(as_matrix(a))
        if pos is None:
            raise TransportError("the point is not a vertex of this set")
        return pos


def tree_count(m: int, n: int) -> int:
    """Spanning trees of K_{m,n}."""
    return m ** (n - 1) * n ** (m - 1)


def enumerate_vertices(inst: Instance, cap_trees: int = 10**7) -> VertexSet:
    """Every vertex, sorted by flow matrix, and the skeleton graph.

    One breadth-first search over the feasible bases (spanning trees of
    K_{m,n} with nonnegative flow), from the northwest-corner basis, on
    the LCD-scaled integer margins; bases are bitmasks and flows tuples
    over the cells i*n + j. A cell outside a basis closes one cycle: the
    step is the least flow on its decreased cells, each decreased cell at
    that flow leaves for a neighbour basis, and a positive step is a
    skeleton edge (the pivots of reverse search: Avis and Fukuda, Discrete
    Comput. Geom. 8, 1992). cap_trees bounds the spanning trees, hence
    the bases. The Instance object holds the VertexSet, which carries the
    graph; later calls return it after the cap check.
    """
    m, n = inst.m, inst.n
    total = tree_count(m, n)
    if total > cap_trees:
        raise ResourceLimitError(f"{total} spanning trees exceeds cap {cap_trees}")
    held = inst._derived
    if "vertices" in held:
        return held["vertices"]
    scaled = lcd_scale(inst.u + inst.v)
    first = [0] * (m * n)
    key = 0
    for i, j, x in _northwest_cells(scaled[:m], scaled[m:], range(n)):
        first[i * n + j] = x
        key |= 1 << (i * n + j)
    nbrs = {tuple(first): set()}
    seen = {key}
    queue = [(key, tuple(first))]
    for key, y in queue:
        path = _forest_paths([divmod(k, n) for k in range(m * n) if key >> k & 1],
                             m, n)
        for c in range(m * n):
            if key >> c & 1:
                continue
            nodes = path(*divmod(c, n))
            rows, cols = nodes[1::2], [x - m for x in nodes[::2]]
            dec = [r * n + s for r, s in zip(rows, cols)]
            t = min([y[k] for k in dec])
            z = y
            if t:
                z = list(y)
                z[c] += t
                for r, s in zip(rows, cols[1:]):
                    z[r * n + s] += t
                for k in dec:
                    z[k] -= t
                z = tuple(z)
                nbrs[y].add(z)
                nbrs.setdefault(z, set()).add(y)
            for k in dec:
                nxt = key ^ (1 << c) ^ (1 << k)
                if y[k] == t and nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, z))
    order = sorted(nbrs)
    rank = {y: p for p, y in enumerate(order)}
    graph = tuple(tuple(sorted(rank[z] for z in nbrs[y])) for y in order)
    lcd = sum(scaled[:m]) // sum(inst.u)
    grids = ([[Fraction(x, lcd) for x in y[i * n:(i + 1) * n]] for i in range(m)]
             for y in order)
    held["vertices"] = VertexSet(inst, tuple(Assignment(inst, g) for g in grids),
                                 graph)
    return held["vertices"]


def _forest_paths(cells, m: int, n: int):
    """Paths in the forest on supplies 0..m-1 and demands m..m+n-1 whose
    edges are the cells (i, j): the returned function maps (i, j) to the
    nodes from demand j to supply i, or to None across two trees."""
    adj = [[] for _ in range(m + n)]
    for i, j in cells:
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent, depth = list(range(m + n)), [-1] * (m + n)
    for root in range(m + n):
        if depth[root] < 0:
            depth[root], stack = 0, [root]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if depth[y] < 0:
                        parent[y], depth[y] = x, depth[x] + 1
                        stack.append(y)

    def path(i: int, j: int) -> list[int] | None:
        up, down = [m + j], [i]
        while up[-1] != down[-1]:
            a, b = up[-1], down[-1]
            if depth[a] == depth[b] == 0:
                return None
            deeper = up if depth[a] >= depth[b] else down
            deeper.append(parent[deeper[-1]])
        return up + down[-2::-1]

    return path


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
    path = _forest_paths(sup, m, n)(i, j)
    if path is None:
        raise DegenerateError(f"support does not connect edge {edge}")
    # path: demand j, supply, demand, ..., supply i
    supplies = [i] + [x for x in path if x < m and x != i]
    demands = [x - m for x in path if x >= m]
    g = Circuit(supplies, demands)
    alpha = min(vertex.flows[a][b] for a, b in g.decreased())
    if alpha <= 0:
        raise DegenerateError(f"zero flow on the cycle closed by {edge}")
    deleted = frozenset(
        e for e in g.decreased() if vertex.flows[e[0]][e[1]] == alpha
    )
    result = Assignment(vertex.inst, apply_circuit(vertex.flows, g, alpha))
    return PivotResult(g, alpha, deleted, result)


def critical_edges(inst: Instance) -> frozenset[Edge]:
    """Edges positive at every feasible point: u_i + v_j > T. O(mn).

    Row i and column j count y_ij twice, so y_ij >= u_i + v_j - T; Hall's
    condition on K_{m,n} minus (i, j) attains max(0, u_i + v_j - T).
    """
    total = sum(inst.u)
    return frozenset((i, j) for i, a in enumerate(inst.u)
                     for j, b in enumerate(inst.v) if a + b > total)


def hirsch_bound(inst: Instance) -> int:
    """The Hirsch bound m+n-1-k, with k = len(critical_edges(inst)): each
    vertex support holds the k critical edges among its m+n-1. O(mn)."""
    return inst.m + inst.n - 1 - len(critical_edges(inst))
