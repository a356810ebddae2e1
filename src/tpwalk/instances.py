"""Bundled example instances and the sharp lower-bound construction.

Each generator returns a GeneratedCase: an instance, two vertices to
walk between, a map of machine-checkable claims about them, and (where
the case supports margin perturbation) the circuit list driving it.

The lower-bound construction assembles a maximal family of pairwise
sign-compatible, linearly independent circuits from five fixed edge
patterns, reads margins off the per-node incidence counts, and takes
the union of decreased edges as the start vertex and the union of
increased edges as the target. Perturbing the margins along those
circuits with a decreasing weight schedule removes every shorter
sign-compatible route, which the span oracle then certifies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Assignment,
    Circuit,
    Instance,
    ResourceLimitError,
    TransportError,
    UnreachableCaseError,
    _cycle_count,
    parse_rational,
)
from .oracle import _reduce, cd_at_most
from .polytope import _require_vertex, _solve_tree, is_nondegenerate, northwest_corner

MAX_HALVINGS = 6     # perturb_certified's eps halvings before it gives up
MAX_TRIES = 200000   # random_instance's margin draws before it gives up


@dataclass(frozen=True, eq=False)
class GeneratedCase:
    """A named start/target vertex pair with verifiable claims attached."""

    provenance: str
    inst: Instance
    O: Assignment
    F: Assignment
    expected: dict
    circuits: tuple[Circuit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "circuits", tuple(self.circuits))
        if self.O.inst != self.inst or self.F.inst != self.inst:
            raise TransportError("case endpoints disagree with the instance")
        _require_vertex(self.O, "case endpoint O")
        _require_vertex(self.F, "case endpoint F")


def _mirrored(provenance: str, u, v, expected: dict, circuits=()) -> GeneratedCase:
    """A two-row case from its northwest corner to that vertex with its
    rows swapped."""
    inst = Instance(u, v)
    O = northwest_corner(inst)
    F = Assignment(inst, (O.flows[1], O.flows[0]))
    return GeneratedCase(provenance, inst, O, F, expected, circuits)


def gen_example1() -> GeneratedCase:
    """The 2x3 running example: northwest corner vs its row mirror."""
    return _mirrored(
        "example1", (3, 3), (2, 2, 2),
        expected={
            "edge_distance": 2,
            "graph_distance": 3,
            "cdfm_distance": 1,
            "perturbed_min_circuits": 2,
        },
        circuits=(Circuit((0, 1), (1, 0)),),
    )


def gen_coincide(n: int) -> GeneratedCase:
    """2xn family where maximal-step distance and diameter meet at n-1."""
    if n < 2:
        raise TransportError("needs n >= 2")
    return _mirrored(
        f"coincide(n={n})", (2 * n - 1, 2 * n - 1), (2 * n,) + (2,) * (n - 1),
        expected={
            "cdfm_distance": n - 1,
            "graph_diameter": n - 1,
            "critical_edges": ((0, 0), (1, 0)),
        },
    )


def gen_diameter_n(n: int) -> GeneratedCase:
    """2xn pair at graph distance exactly n: the edge bound is tight."""
    if n < 3:
        raise TransportError("needs n >= 3")
    return _mirrored(f"diameter_n(n={n})", (2 * n - 3, 2 * n - 3),
                     (2 * n - 4,) + (2,) * (n - 1), {"graph_distance": n})


def _lower_bound_circuits(m: int, n: int) -> list[Circuit]:
    """The five fixed families, selected by the stated side-conditions.

    Indices below are 0-based; the guards mirror the drawn ranges: the
    first family stops one column early once n exceeds 3 to make room
    for the two column-n families.
    """
    out: list[Circuit] = []
    hi = n if n <= 3 else n - 1
    for j in range(1, hi):
        out.append(Circuit((1, 0), (0, j)))
    for i in range(2, m):
        out.append(Circuit((i, 0), (0, 1)))
    if m >= 3:
        out.append(Circuit((1, 0, 2), (0, 1, 2)))
    if n >= 4:
        out.append(Circuit((0, 1), (1, n - 1)))
    if m >= 3 and n >= 4:
        out.append(Circuit((0, 1, 2), (1, n - 1, 0)))
    return out


def gen_hirsch_sharp(m: int, n: int) -> GeneratedCase:
    """Distance-k pair built from k sign-compatible independent circuits,
    k = min((m-1)(n-1), m+n-1).

    Margins count, at every node, the circuits through it. The start
    vertex carries the union of decreased edges, the target the union of
    increased edges; their difference is exactly the sum of the family.
    All structural claims are asserted here, so a mis-transcribed family
    surfaces as a generator error.
    """
    if not (2 <= m <= n):
        raise TransportError("needs 2 <= m <= n")
    circuits = _lower_bound_circuits(m, n)
    k = min((m - 1) * (n - 1), m + n - 1)
    if len(circuits) != k:
        raise UnreachableCaseError(f"family yields {len(circuits)} circuits, not {k}")
    vecs = [g.vector(m, n) for g in circuits]
    for a in range(k):
        for b in range(a + 1, k):
            if any(x * y < 0 for x, y in zip(vecs[a], vecs[b])):
                raise UnreachableCaseError(f"circuits {a} and {b} oppose each other")
    basis = []
    for vec in vecs:
        red = _reduce(vec, basis)
        if red is None:
            raise UnreachableCaseError("circuit family is linearly dependent")
        basis.append((next(p for p, x in enumerate(red) if x), red))
    solid = frozenset(e for g in circuits for e in g.decreased())
    dashed = frozenset(e for g in circuits for e in g.increased())
    if _cycle_count(solid, m, n) or _cycle_count(dashed, m, n):
        raise UnreachableCaseError("an edge union contains a cycle")
    u = [sum(1 for g in circuits if i in g.supplies) for i in range(m)]
    v = [sum(1 for g in circuits if j in g.demands) for j in range(n)]
    inst = Instance(u, v)
    points = []
    for sup in (solid, dashed):
        flows = _solve_tree(inst, sup)
        if flows is None or {e for e in sup if flows[e[0]][e[1]] == 0}:
            raise UnreachableCaseError("incidence margins do not fill an edge union")
        points.append(Assignment(inst, flows))
    return GeneratedCase(
        f"hirsch_sharp(m={m},n={n})",
        inst,
        points[0],
        points[1],
        expected={"circuit_count": k, "perturbed_min_circuits": k},
        circuits=tuple(circuits),
    )


def perturb(case: GeneratedCase, eps) -> GeneratedCase:
    """Shift the margins by eps^i along the case's i-th circuit (1-based)
    and re-solve both endpoints on their original supports.

    eps = 0 returns the case unchanged. If the shift drives any support
    flow to zero or below, the perturbation is too large and an error is
    raised rather than a broken case returned.
    """
    eps = parse_rational(eps)
    if eps < 0:
        raise TransportError("perturbation size must be nonnegative")
    if eps == 0:
        return case
    if not case.circuits:
        raise TransportError("case carries no perturbation circuits")
    inst = case.inst
    du = [Fraction(0)] * inst.m
    dv = [Fraction(0)] * inst.n
    for idx, g in enumerate(case.circuits):
        w = eps ** (idx + 1)
        for i in set(g.supplies):
            du[i] += w
        for j in set(g.demands):
            dv[j] += w
    shifted = Instance(
        [a + b for a, b in zip(inst.u, du)],
        [a + b for a, b in zip(inst.v, dv)],
    )
    points = []
    for a in (case.O, case.F):
        flows = _solve_tree(shifted, a.support)
        if flows is None or any(flows[i][j] <= 0 for i, j in a.support):
            raise TransportError(f"eps={eps} pushes a support flow out of positivity")
        points.append(Assignment(shifted, flows))
    expected = {}
    if "perturbed_min_circuits" in case.expected:
        expected["min_circuits"] = case.expected["perturbed_min_circuits"]
    return GeneratedCase(
        f"{case.provenance} perturbed eps={eps}",
        shifted,
        points[0],
        points[1],
        expected=expected,
        circuits=case.circuits,
    )


def perturb_certified(case: GeneratedCase, eps=Fraction(1, 1024),
                      cap_solves: int = 10 ** 7) -> tuple[GeneratedCase, int]:
    """Perturb and have the span oracle certify the distance lower bound.

    The finiteness argument guarantees some small enough eps works; this
    realizes it by halving, at most MAX_HALVINGS times, until the oracle
    confirms that k-1 circuits no longer reach the target while k still do.
    """
    k = case.expected.get("perturbed_min_circuits")
    if k is None:
        raise TransportError("case carries no perturbed lower-bound claim")
    eps = parse_rational(eps)
    if eps <= 0:
        raise TransportError("certifying needs a positive perturbation size")
    for _ in range(MAX_HALVINGS + 1):
        cand = perturb(case, eps)
        below = cd_at_most(cand.O, cand.F, k - 1, cap_solves=cap_solves)
        at = cd_at_most(cand.O, cand.F, k, cap_solves=cap_solves)
        if not at:
            raise UnreachableCaseError("the full circuit family no longer reaches")
        if not below:
            return cand, k
        eps = eps / 2
    raise ResourceLimitError(
        f"no certifying perturbation within {MAX_HALVINGS} halvings"
    )


def random_instance(rng: random.Random, m: int, n: int, high: int = 50
                    ) -> Instance:
    """Uniform integer margins in [1, high], resampled (at most MAX_TRIES
    draws) until they balance and are non-degenerate."""
    if m < 2 or n < 2:
        raise TransportError(f"random instances need m, n >= 2, not {m}x{n}")
    for _ in range(MAX_TRIES):
        u = [rng.randint(1, high) for _ in range(m)]
        v = [rng.randint(1, high) for _ in range(n)]
        if sum(u) != sum(v):
            continue
        inst = Instance(u, v)
        if is_nondegenerate(inst):
            return inst
    raise ResourceLimitError(f"no non-degenerate {m}x{n} margins found")
