"""Exact building blocks for flows on the complete bipartite graph K_{m,n}.

Margins, flow matrices, support graphs, circuits (signed even cycles) and
circuit walks. The API holds exact rationals (``fractions.Fraction``);
the circuit oracles and the non-degeneracy check scale their inputs once
by the least common denominator (``lcd_scale``) and work on exact
integers inside. Nothing in this package rounds, ever; equality checks
downstream rely on that.

Indices are 0-based throughout the library and only converted to 1-based
at the serialization boundary.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import lcm
from types import MappingProxyType

Edge = tuple[int, int]
Matrix = tuple[tuple[Fraction, ...], ...]

WALK_KINDS = ("CD", "CD_f", "CD_fm", "CD_e", "CD_s")


class TransportError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateError(TransportError):
    """The operation requires a non-degenerate instance."""


class ResourceLimitError(TransportError):
    """An enumeration or search exceeded its configured cap."""


class HypothesisError(TransportError):
    """A constructive step was invoked outside its proven precondition."""


class UnreachableCaseError(TransportError):
    """An internal invariant failed. This is a bug trap, not bad input."""


def parse_rational(x) -> Fraction:
    """Coerce ints, Fractions and "p/q" or "p" strings to Fraction.

    Floats are rejected on purpose: a float that survived this far is
    almost certainly a rounding bug upstream. Booleans are rejected too,
    though Python counts them as ints: JSON true is not the number 1.
    """
    if isinstance(x, float):
        raise TransportError(f"refusing float {x!r}; pass a string or Fraction")
    if isinstance(x, int):
        if type(x) is bool:  # bool cannot be subclassed
            raise TransportError(f"refusing bool {x!r}; pass an int or a string")
        return Fraction(x)
    if isinstance(x, Fraction):
        return x  # immutable, so no copy is needed
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError):
            raise TransportError(f"cannot read a rational from {x!r}") from None
    raise TransportError(f"cannot read a rational from {x!r}")


def lcd_scale(xs) -> list[int]:
    """The Fractions xs times their least common denominator, as ints.

    The scaling is one positive factor for all of xs, so it keeps every
    order, sign, sum and equality among them.
    """
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs]


def format_rational(q: Fraction) -> str:
    """Render as "p/q", or plain "p" for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _not_str(xs, what: str):
    """xs, unless it is a string, which would iterate as its characters."""
    if isinstance(xs, str):
        raise TransportError(f"{what} must be a list, not the string {xs!r}")
    return xs


def as_matrix(rows) -> Matrix:
    """Normalize a nested iterable of rational-likes to a tuple matrix."""
    try:
        mat = tuple(tuple(parse_rational(x) for x in _not_str(row, "a matrix row"))
                    for row in _not_str(rows, "a matrix"))
    except TypeError:
        raise TransportError(f"cannot read a matrix from {rows!r}") from None
    if not mat or any(len(row) != len(mat[0]) for row in mat):
        raise TransportError("matrix rows must be nonempty and equal length")
    return mat


@dataclass(frozen=True)
class Instance:
    """Margins of a transportation problem: supplies u, demands v.

    Entries must be strictly positive and balance exactly. The vertex
    set, which carries its neighbor graph, is computed at most once per
    object and held in _derived; it points back at the object, so the
    cycle collector frees it. Equal instances compare and hash equal
    regardless.
    """

    u: tuple[Fraction, ...]
    v: tuple[Fraction, ...]
    _derived: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    def __post_init__(self):
        try:
            for name in ("u", "v"):
                xs = _not_str(getattr(self, name), name)
                object.__setattr__(self, name, tuple(map(parse_rational, xs)))
        except TypeError:
            raise TransportError("margins must be lists of rationals") from None
        if len(self.u) < 2 or len(self.v) < 2:
            raise TransportError("need at least 2 supplies and 2 demands")
        if any(x <= 0 for x in self.u + self.v):
            raise TransportError("margins must be strictly positive")
        if sum(self.u) != sum(self.v):
            raise TransportError(
                f"margins do not balance: {sum(self.u)} != {sum(self.v)}"
            )

    @property
    def m(self) -> int:
        return len(self.u)

    @property
    def n(self) -> int:
        return len(self.v)


def support_graph(flows: Matrix) -> frozenset[Edge]:
    """Edges carrying positive flow: {(i, j) : y_ij > 0}."""
    return frozenset(
        (i, j) for i, row in enumerate(flows) for j, y in enumerate(row) if y > 0
    )


def _find(parent: list[int], x: int) -> int:
    """Union-find root of node x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _cycle_count(edges, m: int, n: int) -> int:
    """Independent cycles in a subgraph of K_{m,n}: 0 for a forest.

    Counts the edges that close a cycle under union-find over supply
    nodes 0..m-1 and demand nodes m..m+n-1.
    """
    parent = list(range(m + n))
    closing = 0
    for i, j in edges:
        ra, rb = _find(parent, i), _find(parent, m + j)
        if ra == rb:
            closing += 1
        else:
            parent[ra] = rb
    return closing


@dataclass(frozen=True)
class Assignment:
    """A feasible point together with its instance.

    The support is derived from the flows once, at construction; both are
    frozen, so they cannot drift apart.
    """

    inst: Instance
    flows: Matrix
    support: frozenset[Edge] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "flows", as_matrix(self.flows))
        m, n = self.inst.m, self.inst.n
        if len(self.flows) != m or len(self.flows[0]) != n:
            raise TransportError(f"flow matrix is not {m}x{n}")
        for row in self.flows:
            for y in row:
                if y < 0:
                    raise TransportError(f"negative flow {y}")
        for i, row in enumerate(self.flows):
            if sum(row) != self.inst.u[i]:
                raise TransportError(f"row {i} sums to {sum(row)}, want {self.inst.u[i]}")
        for j in range(n):
            col = sum(self.flows[i][j] for i in range(m))
            if col != self.inst.v[j]:
                raise TransportError(f"column {j} sums to {col}, want {self.inst.v[j]}")
        object.__setattr__(self, "support", support_graph(self.flows))

    def is_vertex(self) -> bool:
        """A feasible point is a vertex iff its support graph is a forest."""
        return _cycle_count(self.support, self.inst.m, self.inst.n) == 0


@dataclass(frozen=True)
class Circuit:
    """An oriented even simple cycle s_0, d_0, s_1, d_1, ..., s_{k-1}, d_{k-1}.

    Edge (s_l, d_l) is increased (+1) and (s_{l+1}, d_l) is decreased (-1),
    indices cyclic. Stored in canonical rotation (lexicographically smallest
    pair sequence), so structural equality is orientation-true semantic
    equality. The reverse orientation is a distinct circuit; see __neg__.
    Its increased and decreased edges and its sign map are derived once,
    at construction.
    """

    supplies: tuple[int, ...]
    demands: tuple[int, ...]
    _increased: tuple[Edge, ...] = field(init=False, compare=False, repr=False)
    _decreased: tuple[Edge, ...] = field(init=False, compare=False, repr=False)
    _signs: dict[Edge, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        s = tuple(int(x) for x in self.supplies)
        d = tuple(int(x) for x in self.demands)
        if len(s) != len(d) or len(s) < 2:
            raise TransportError("circuit needs k >= 2 supplies and demands")
        if len(set(s)) != len(s) or len(set(d)) != len(d):
            raise TransportError("circuit nodes must be pairwise distinct")
        if any(x < 0 for x in s + d):
            raise TransportError("negative node index")
        # Canonical rotation. The signed incidence vector is rotation
        # invariant, so this only fixes the stored representative.
        k = len(s)
        pairs = list(zip(s, d))
        best = min(range(k), key=lambda t: pairs[t:] + pairs[:t])
        s, d = s[best:] + s[:best], d[best:] + d[:best]
        object.__setattr__(self, "supplies", s)
        object.__setattr__(self, "demands", d)
        object.__setattr__(self, "_increased", tuple(zip(s, d)))
        object.__setattr__(
            self, "_decreased", tuple((s[(l + 1) % k], d[l]) for l in range(k))
        )
        object.__setattr__(self, "_signs", dict.fromkeys(self._increased, 1)
                           | dict.fromkeys(self._decreased, -1))

    def increased(self) -> tuple[Edge, ...]:
        return self._increased

    def decreased(self) -> tuple[Edge, ...]:
        return self._decreased

    def signs(self) -> MappingProxyType:
        """Edge -> +1 or -1, a read-only view of the map built once."""
        return MappingProxyType(self._signs)

    def vector(self, m: int, n: int) -> tuple[int, ...]:
        """Signed incidence vector, flattened row-major."""
        flat = [0] * (m * n)
        for (i, j), sg in self._signs.items():
            if i >= m or j >= n:
                raise TransportError(f"circuit node ({i},{j}) outside {m}x{n}")
            flat[i * n + j] = sg
        return tuple(flat)

    def __neg__(self) -> "Circuit":
        # Reversing the cycle swaps increased and decreased edges.
        # Traversal order s_0, d_{k-1}, s_{k-1}, ..., d_0 gives exactly that.
        s = (self.supplies[0],) + tuple(reversed(self.supplies[1:]))
        d = tuple(reversed(self.demands))
        return Circuit(s, d)


def apply_circuit(flows: Matrix, g: Circuit, alpha: Fraction) -> Matrix:
    """flows + alpha * g, with no feasibility check."""
    grid = [list(row) for row in flows]
    for i, j in g.increased():
        grid[i][j] += alpha
    for i, j in g.decreased():
        grid[i][j] -= alpha
    return tuple(tuple(row) for row in grid)


@dataclass(frozen=True)
class Walk:
    """A circuit walk: a start point y^0 and steps alpha_i g^i.

    The points y^{i+1} = y^i + alpha_i g^i are derived once, at
    construction, after each step is checked to have a positive length
    and a circuit on the start's grid; so they telescope exactly. Kind-
    specific semantics (feasibility, maximality, adjacency, sign
    compatibility) are the validator's job, not the type's.
    """

    kind: str
    start: InitVar[Matrix]
    steps: tuple[tuple[Circuit, Fraction], ...]
    points: tuple[Matrix, ...] = field(init=False)

    def __post_init__(self, start):
        if self.kind not in WALK_KINDS:
            raise TransportError(f"unknown walk kind {self.kind!r}")
        stp = tuple((g, parse_rational(a)) for g, a in self.steps)
        object.__setattr__(self, "steps", stp)
        pts = [as_matrix(start)]
        m, n = len(pts[0]), len(pts[0][0])
        for idx, (g, a) in enumerate(stp):
            if a <= 0:
                raise TransportError(f"step {idx}: alpha {a} not positive")
            if max(g.supplies) >= m or max(g.demands) >= n:
                raise TransportError(f"step {idx} circuit leaves the {m}x{n} grid")
            pts.append(apply_circuit(pts[-1], g, a))
        object.__setattr__(self, "points", tuple(pts))

    @property
    def length(self) -> int:
        return len(self.steps)


def edge_distance(O: Assignment, F: Assignment) -> int:
    """|support(O) \\ support(F)|, the number of edges to remove."""
    if O.inst != F.inst:
        raise TransportError("edge distance needs a common instance")
    return len(O.support - F.support)


def objective(s, y) -> Fraction:
    """Inner product sum s_ij * y_ij of a cost matrix with a flow matrix."""
    s, y = as_matrix(s), as_matrix(y)
    if len(s) != len(y) or len(s[0]) != len(y[0]):
        raise TransportError("shape mismatch")
    return _dot(s, y)


def _dot(s: Matrix, y: Matrix) -> Fraction:
    """The body of objective, for normalized matrices of equal shape."""
    return sum(a * b for srow, yrow in zip(s, y) for a, b in zip(srow, yrow))
