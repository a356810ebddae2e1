"""Walk validation for each circuit-distance notion.

The kinds form a chain: CD allows any circuit steps, CD_f requires every
intermediate point feasible, CD_fm additionally requires each step to be
maximal, CD_e restricts to skeleton moves between adjacent vertices, and
CD_s (sign-compatible walks) sits between CD_f and CD_fm in strength but
is validated separately. A walk valid for a stronger kind is valid for
the weaker ones; tests lean on that implication chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Instance,
    TransportError,
    Walk,
    objective,
    support_graph,
    _cycle_count,
)
from .circuits import max_step


@dataclass(frozen=True)
class WalkReport:
    valid: bool
    kind: str
    violation: tuple[int, str] | None = None

    def __post_init__(self):
        if self.valid and self.violation is not None:
            raise TransportError("a valid report cannot carry a violation")


def _is_vertex_point(inst: Instance, point, support) -> bool:
    """point, with its support, is nonnegative and has a forest support."""
    if any(x < 0 for row in point for x in row):
        return False
    return _cycle_count(support, inst.m, inst.n) == 0


def validate_walk(w: Walk, inst: Instance) -> WalkReport:
    """Check w against the rules of its declared kind.

    Never raises for a rule violation; the first one found is reported
    with the step index it occurred at (point p is attributed to step
    p-1, the start point to step 0). The Walk constructor has already
    checked that every step has a positive length and stays on the
    start's grid, and derived each point from the one before it.
    """
    kind = w.kind

    def bad(idx: int, reason: str) -> WalkReport:
        return WalkReport(False, kind, (idx, reason))

    m, n = inst.m, inst.n
    # The start point suffices: each point is the one before it plus a
    # circuit step, which keeps every row and column sum.
    start = w.points[0]
    if len(start) != m or any(len(row) != n for row in start):
        return bad(0, f"point 0 is not {m}x{n}")
    cols = [sum(row[j] for row in start) for j in range(n)]
    if [sum(row) for row in start] != list(inst.u) or cols != list(inst.v):
        return bad(0, "point 0 violates the margins")
    # Each support is found once: every point's for CD_e, whose adjacency
    # test needs them all, and otherwise the two endpoints'.
    held = w.points if kind == "CD_e" else (start, w.points[-1])
    supports = [support_graph(point) for point in held]
    if not _is_vertex_point(inst, start, supports[0]):
        return bad(0, "start point is not a vertex")
    if not _is_vertex_point(inst, w.points[-1], supports[-1]):
        return bad(max(len(w.steps) - 1, 0), "end point is not a vertex")

    if kind in ("CD_f", "CD_fm", "CD_e", "CD_s"):
        for p, point in enumerate(w.points):
            if any(x < 0 for row in point for x in row):
                return bad(max(p - 1, 0), f"point {p} is infeasible")

    if kind == "CD_fm":
        # Every point is feasible here, so each decreased edge carries at
        # least the step length: max_step is never None.
        for idx, (g, a) in enumerate(w.steps):
            top = max_step(w.points[idx], g)
            if a != top:
                return bad(idx, f"step {idx} length {a} is not maximal ({top})")

    if kind == "CD_e":
        # The same forest test and one-cycle adjacency test as
        # Assignment.is_vertex and are_adjacent. The endpoints passed the
        # forest test above.
        for p in range(1, len(supports) - 1):
            if _cycle_count(supports[p], m, n) != 0:
                return bad(p - 1, f"point {p} is not a vertex")
        for idx in range(len(w.steps)):
            if _cycle_count(supports[idx] | supports[idx + 1], m, n) != 1:
                return bad(idx, f"step {idx} jumps between non-adjacent vertices")

    if kind == "CD_s":
        diff = {
            (i, j): w.points[-1][i][j] - w.points[0][i][j]
            for i in range(m)
            for j in range(n)
        }
        sign_vectors = [g.signs() for g, _ in w.steps]
        for idx, gs in enumerate(sign_vectors):
            if any(s * diff[e] < 0 for e, s in gs.items()):
                return bad(idx, f"step {idx} opposes the endpoint difference")
            for prev in range(idx):
                other = sign_vectors[prev]
                if any(s * other.get(e, 0) < 0 for e, s in gs.items()):
                    return bad(idx, f"steps {prev} and {idx} are not sign-compatible")

    return WalkReport(True, kind)


def is_monotone(w: Walk, s) -> bool:
    """True iff the objective s never decreases along the walk's points."""
    values = [objective(s, p) for p in w.points]
    return all(a <= b for a, b in zip(values, values[1:]))
