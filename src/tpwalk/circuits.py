"""Circuits of K_{m,n}: enumeration, steps, conformal decompositions.

The circuits of an m x n transportation polytope are exactly the even
simple cycles of K_{m,n} with alternating +1/-1 edge signs. The closed
form for the unoriented count,

    sum_{k=2}^{min(m,n)} C(m,k) * C(n,k) * k! * (k-1)! / 2,

doubles as the resource guard for enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

from .core import (
    Assignment,
    Circuit,
    Matrix,
    ResourceLimitError,
    TransportError,
    UnreachableCaseError,
    Walk,
    as_matrix,
)

CIRCUIT_CAP = 10**6   # the most circuits enumerate_circuits will list


def circuit_count(m: int, n: int) -> int:
    """Closed-form number of unoriented circuits of K_{m,n}."""
    k_max = min(m, n)
    return sum(
        comb(m, k) * comb(n, k) * factorial(k) * factorial(k - 1) // 2
        for k in range(2, k_max + 1)
    )


@dataclass(frozen=True)
class CircuitSet:
    """All unoriented circuits of K_{m,n}, one canonical orientation each.

    The stored orientation is the one with the lexicographically smaller
    signed incidence vector; the other is reachable via negation. Each
    circuit is compiled once, at construction, into its increased and
    decreased cells as row-major indices i*n + j; the reverse orientation
    is the same pair swapped.
    """

    m: int
    n: int
    circuits: tuple[Circuit, ...]
    _flat: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(set(self.circuits)) != len(self.circuits):
            raise TransportError("duplicate circuits")
        m, n = self.m, self.n
        if any(max(g.supplies) >= m or max(g.demands) >= n for g in self.circuits):
            raise TransportError(f"a circuit leaves the {m}x{n} grid")
        object.__setattr__(self, "_flat", tuple(
            (tuple(i * n + j for i, j in g.increased()),
             tuple(i * n + j for i, j in g.decreased()))
            for g in self.circuits
        ))

    def __len__(self) -> int:
        return len(self.circuits)

    def __iter__(self):
        return iter(self.circuits)

    def flat(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """(increased, decreased) flat cell indices, one pair per circuit."""
        return self._flat


def enumerate_circuits(m: int, n: int) -> CircuitSet:
    """Enumerate every unoriented even simple cycle of K_{m,n}.

    Cycles are generated per supply/demand subset pair; fixing the first
    supply makes sequences correspond to oriented cycles one-to-one, so
    each unoriented cycle shows up exactly twice (once per orientation)
    and the lex-smaller orientation is kept. Refuses shapes with more
    than CIRCUIT_CAP circuits.
    """
    if m < 2 or n < 2:
        raise TransportError("need m, n >= 2")
    total = circuit_count(m, n)
    if total > CIRCUIT_CAP:
        raise ResourceLimitError(f"{total} circuits exceeds cap {CIRCUIT_CAP}")

    seen: set[Circuit] = set()
    out: list[Circuit] = []
    for k in range(2, min(m, n) + 1):
        for sup in combinations(range(m), k):
            for dem in combinations(range(n), k):
                for dperm in permutations(dem):
                    for sperm in permutations(sup[1:]):
                        g = Circuit((sup[0],) + sperm, dperm)
                        rev = -g
                        keep = g if g.vector(m, n) <= rev.vector(m, n) else rev
                        if keep not in seen:
                            seen.add(keep)
                            out.append(keep)
    if len(out) != total:
        raise UnreachableCaseError(
            f"enumerated {len(out)} circuits, closed form says {total}"
        )
    out.sort(key=lambda g: g.vector(m, n))
    return CircuitSet(m, n, tuple(out))


def max_step(y: Matrix, g: Circuit) -> Fraction | None:
    """Largest feasible step length for g at y, or None if not applicable.

    A circuit applies at a feasible point only when every edge it wants to
    decrease carries positive flow.
    """
    flows = [y[i][j] for i, j in g.decreased()]
    if any(x <= 0 for x in flows):
        return None
    return min(flows)


@dataclass(frozen=True)
class Decomposition:
    """Sign-compatible conformal decomposition of a difference vector.

    terms sum to the target exactly; every circuit only uses edges where
    the target is nonzero, with the target's sign. That strict form makes
    the circuits pairwise sign-compatible as well.
    """

    target: Matrix
    terms: tuple[tuple[Circuit, Fraction], ...]

    def __post_init__(self):
        object.__setattr__(self, "target", as_matrix(self.target))
        tsigns = {
            (i, j): (1 if x > 0 else -1)
            for i, row in enumerate(self.target)
            for j, x in enumerate(row)
            if x != 0
        }
        total = {}
        for g, a in self.terms:
            if a <= 0:
                raise TransportError(f"coefficient {a} not positive")
            gs = g.signs()
            if any(tsigns.get(e, 0) != s for e, s in gs.items()):
                raise TransportError("circuit not conformal to the target")
            for e, s in gs.items():
                total[e] = total.get(e, Fraction(0)) + s * a
        m, n = len(self.target), len(self.target[0])
        for i in range(m):
            for j in range(n):
                if total.get((i, j), Fraction(0)) != self.target[i][j]:
                    raise TransportError("terms do not sum to the target")

    def as_walk(self, start: Matrix) -> Walk:
        """The decomposition as a walk from start, one term per step."""
        return Walk("CD_s", start, self.terms)


def sign_compatible_decomposition(O: Assignment, F: Assignment) -> Decomposition:
    """Greedy conformal decomposition of y^F - y^O into circuit steps.

    The residual difference induces a bipartite digraph (supply -> demand
    where flow must grow, demand -> supply where it must shrink). Margins
    cancel, so the residual is a circulation and every nonzero node lies
    on a cycle. Repeatedly walk from the lowest-index nonzero node along
    lowest-index arcs until a node repeats, extract that cycle with the
    largest coefficient that keeps the residual in the same orthant.
    Each extraction zeroes at least one entry, so this terminates; for
    vertex pairs it needs at most m+n-1 terms.
    """
    if O.inst != F.inst:
        raise TransportError("decomposition needs a common instance")
    m, n = O.inst.m, O.inst.n
    d = [
        [F.flows[i][j] - O.flows[i][j] for j in range(n)]
        for i in range(m)
    ]
    target = tuple(tuple(row) for row in d)

    def successors(node: int) -> list[int]:
        if node < m:
            return [m + j for j in range(n) if d[node][j] > 0]
        j = node - m
        return [i for i in range(m) if d[i][j] < 0]

    terms: list[tuple[Circuit, Fraction]] = []
    for _ in range(m * n):
        start = next(
            (i for i in range(m) if any(x != 0 for x in d[i])), None
        )
        if start is None:
            break
        # Walk lowest-index arcs; conservation per node means the walk
        # never dead-ends, so some node repeats within m+n steps.
        path = [start]
        pos = {start: 0}
        while True:
            nxt = min(successors(path[-1]))
            if nxt in pos:
                cyc = path[pos[nxt]:]
                break
            pos[nxt] = len(path)
            path.append(nxt)
        if cyc[0] >= m:
            cyc = cyc[1:] + cyc[:1]
        sup = cyc[0::2]
        dem = [x - m for x in cyc[1::2]]
        g = Circuit(sup, dem)
        coeff = min(
            min(d[i][j] for i, j in g.increased()),
            min(-d[i][j] for i, j in g.decreased()),
        )
        if coeff <= 0:
            raise UnreachableCaseError("extracted cycle has no slack")
        for (i, j), s in g.signs().items():
            d[i][j] -= s * coeff
            if d[i][j] != 0 and (d[i][j] > 0) != (target[i][j] > 0):
                raise UnreachableCaseError("residual left the target orthant")
        terms.append((g, coeff))
    else:
        raise UnreachableCaseError("decomposition did not terminate")
    return Decomposition(target, tuple(terms))
