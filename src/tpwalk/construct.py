"""Constructive circuit walks for 2xn and 3xn instances.

Four constructions live here. A maximal-step walk for 2xn that kills at
least one wrong edge per step. An edge walk for 2xn driven by a marking
discipline (marked edges are target edges that must never be deleted
again; each bookkeeping round marks exactly one new edge and costs at
most one pivot, and every mark placed without a pivot shortens the walk
by one). A monotone variant of that walk toward the greedy optimum of a
linear objective. And the 3xn edge walk, which is the same marking
discipline plus a case dispatch on how the marked edges sit inside the
mixed part of the current support.

Everything below assumes the standing shape facts for non-degenerate
instances: a 2xn vertex has exactly one demand served by both supplies;
a 3xn vertex has either one demand served by all three supplies or two
demands of degree two whose four edges form a path covering the three
supplies.

The procedures assert their own safety conditions aggressively. Any
UnreachableCaseError escaping from here means a bug, not bad input: the
underlying correctness arguments prove those branches impossible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    Assignment,
    Circuit,
    DegenerateError,
    Edge,
    HypothesisError,
    Instance,
    TransportError,
    UnreachableCaseError,
    Walk,
    apply_circuit,
    as_matrix,
    _dot,
    edge_distance,
    support_graph,
)
from .circuits import max_step
from .polytope import (PivotResult, _northwest_fill, _require_vertex, insert_pivot,
                       is_nondegenerate)


# ---------------------------------------------------------------- helpers

def _demand_degree(support) -> dict[int, int]:
    deg: dict[int, int] = {}
    for _, j in support:
        deg[j] = deg.get(j, 0) + 1
    return deg


def _mixed_demands(support) -> list[int]:
    return sorted(j for j, d in _demand_degree(support).items() if d >= 2)


def _mixed_edges(support) -> set[Edge]:
    deg = _demand_degree(support)
    return {e for e in support if deg[e[1]] >= 2}


def _f_leaf_edges(target_support, i: int) -> list[Edge]:
    """Target edges of supply i whose demand has target degree one."""
    deg = _demand_degree(target_support)
    return sorted(e for e in target_support if e[0] == i and deg[e[1]] == 1)


# ---------------------------------------------------------------- marking

@dataclass(frozen=True)
class MarkState:
    """Current point, target point, and the set of edges locked so far.

    Marking is only ever allowed under two rules: an edge whose demand is
    a leaf in the target may be marked as soon as it is present; an edge
    whose demand is mixed in the target may be marked only once all
    target-leaf edges of its supply are present and marked. Both rules
    are re-validated on every construction. Each round returns the next
    state with insert_pivot's PivotResult, or None for a free mark.
    """

    current: Assignment
    marked: frozenset[Edge]
    target: Assignment

    def __post_init__(self):
        object.__setattr__(self, "marked", frozenset(self.marked))
        if self.current.inst != self.target.inst:
            raise TransportError("marking needs a common instance")
        sup_o = self.current.support
        sup_f = self.target.support
        deg_f = _demand_degree(sup_f)
        for i, j in self.marked:
            if (i, j) not in sup_o:
                raise UnreachableCaseError(f"marked edge ({i},{j}) left the support")
            if (i, j) not in sup_f:
                raise UnreachableCaseError(f"marked edge ({i},{j}) is not a target edge")
            if deg_f[j] >= 2:
                for e in _f_leaf_edges(sup_f, i):
                    if e not in sup_o or e not in self.marked:
                        raise UnreachableCaseError(
                            f"mixed mark ({i},{j}) placed before leaf edge {e}"
                        )

    def done(self) -> bool:
        return self.marked == self.target.support


@dataclass
class MarkTrace:
    """Diagnostics collected while a marking walk runs."""

    marks: list[tuple[Edge, bool]] = field(default_factory=list)
    cases: list[str] = field(default_factory=list)
    protected: Edge | None = None
    step4_hits: int = 0

    @property
    def free_marks(self) -> int:
        """Rounds that marked an edge already present, without a pivot."""
        return sum(not pivoted for _, pivoted in self.marks)


def _mark(state: MarkState, edge: Edge) -> tuple[PivotResult | None, MarkState]:
    """Mark edge, first inserting it by one pivot (None if it is present).
    MarkState refuses a pivot that deletes a marked edge."""
    if edge in state.current.support:
        return None, MarkState(state.current, state.marked | {edge}, state.target)
    piv = insert_pivot(state.current, edge)
    if len(piv.deleted) != 1:
        raise UnreachableCaseError("pivot on a non-degenerate instance tied")
    return piv, MarkState(piv.result, state.marked | {edge}, state.target)


def _mixed_parity_ok(state: MarkState, i: int) -> bool:
    """All marked edges of the current mixed part sit an even number of
    edges along the mixed part, counted from supply i inclusive."""
    em = _mixed_edges(state.current.support)
    m = state.current.inst.m
    dist = {i: 0}
    frontier = [i]
    while frontier:
        nxt = []
        for node in frontier:
            for a, b in em:
                for here, there in ((a, m + b), (m + b, a)):
                    if here == node and there not in dist:
                        dist[there] = dist[node] + 1
                        nxt.append(there)
        frontier = nxt
    for a, b in em & state.marked:
        pos = max(dist.get(a, -1), dist.get(m + b, -1))
        if pos < 0 or pos % 2 == 1:
            return False
    return True


def _mark_round(state: MarkState, i: int, trace: MarkTrace
                ) -> tuple[PivotResult | None, MarkState]:
    """One bookkeeping round at supply i: mark one new target edge,
    inserting it first if it is missing. Returns insert_pivot's
    PivotResult (None for a free mark) and the new state. The walks call
    it after checking the shape and non-degeneracy once at entry. Counts
    each round that reaches _step4 in the trace.

    Requires the parity hypothesis: every marked edge of the current
    mixed part lies an even number of edges away from supply i, so the
    single pivot this round may perform only increases marked edges.

    The round prefers, in order: a target-leaf edge of i already present
    (free mark), a missing target-leaf edge of i (insert), a present
    unmarked target-mixed edge of i (free mark), a single missing
    target-mixed edge of i (insert). Two missing target-mixed edges
    trigger the configuration analysis in _step4. Lowest demand index
    breaks every tie.
    """
    if not _mixed_parity_ok(state, i):
        raise HypothesisError(
            f"marked mixed edges not all at even positions from supply {i}"
        )
    sup_o = state.current.support
    sup_f = state.target.support

    leaves = [e for e in _f_leaf_edges(sup_f, i) if e not in state.marked]
    if leaves:
        return _mark(state, ([e for e in leaves if e in sup_o] or leaves)[0])

    deg_f = _demand_degree(sup_f)
    own_mixed = sorted(e for e in sup_f if e[0] == i and deg_f[e[1]] >= 2)
    present_unmarked = [e for e in own_mixed if e in sup_o and e not in state.marked]
    missing = [e for e in own_mixed if e not in sup_o]
    if present_unmarked or len(missing) == 1:
        return _mark(state, (present_unmarked or missing)[0])
    if len(missing) == 2:
        trace.step4_hits += 1
        return _step4(state, i, missing)
    raise UnreachableCaseError(f"nothing left to mark at supply {i}")


def _step4(state: MarkState, i: int, missing: list[Edge]
           ) -> tuple[PivotResult | None, MarkState]:
    """Both target-mixed edges of supply i are absent (3xn only).

    In the target, i is the middle of the 4-edge mixed path, its two
    demands t1, t2 each tied to one other supply a1, a2. If some (a, t)
    is unmarked, inserting (i, t) is safe directly. Otherwise the choice
    is steered by the demand configuration around i in the current mixed
    part, so that the closed cycle only decreases unmarked edges.
    """
    inst = state.current.inst
    if inst.m != 3:
        raise UnreachableCaseError("two missing mixed edges outside 3 supplies")
    sup_f = state.target.support
    sup_o = state.current.support
    sides = []
    for _, t in missing:
        partners = [a for a in range(3) if a != i and (a, t) in sup_f]
        if len(partners) != 1:
            raise UnreachableCaseError(f"demand {t} not on the target mixed path")
        sides.append((t, partners[0]))
    if sides[0][1] == sides[1][1]:
        raise UnreachableCaseError("target mixed path folds back on one supply")

    unmarked = [pos for pos, (t, a) in enumerate(sides) if (a, t) not in state.marked]
    if unmarked:
        t = sides[unmarked[0]][0]
        return _mark(state, (i, t))

    # Both (a1,t1) and (a2,t2) are marked. Look for a demand adjacent, in
    # the current mixed part, to both i and one of the a's; prefer one
    # whose (a, d) edge is marked.
    em = _mixed_edges(sup_o)
    configs = []
    for pos, (t, a) in enumerate(sides):
        for d in _mixed_demands(sup_o):
            if (i, d) in em and (a, d) in em:
                configs.append((pos, d, (a, d) in state.marked))
    if not configs:
        raise UnreachableCaseError("no demand ties the middle supply to either side")
    ranked = sorted(configs, key=lambda c: (not c[2], c[0], c[1]))
    pos, d, _ = ranked[0]
    a = sides[pos][1]
    a_has_other = any(e[0] == a and e[1] != d for e in em)
    t = sides[1 - pos][0] if a_has_other else sides[pos][0]
    return _mark(state, (i, t))


# ---------------------------------------------------------- walk driver

def _check_endpoints(O: Assignment, F: Assignment, m: int):
    """The entry check of every construction: m supplies, one common
    instance, and both endpoints vertices."""
    if O.inst.m != m:
        raise TransportError(f"this walk needs exactly {m} supplies")
    if O.inst != F.inst:
        raise TransportError("walk endpoints need a common instance")
    _require_vertex(O, "start")
    _require_vertex(F, "target")


def _marking_walk(O: Assignment, F: Assignment, next_round
                  ) -> tuple[Walk, MarkTrace]:
    """The round driver of every marking walk, for callers that checked
    the endpoints and the instance once at entry.

    next_round(state, prev, trace) runs one round and returns the pivot
    (None for a free mark), the new state and the round's label; prev is
    the previous round's label, "start" before the first round. Each
    round must mark exactly one new target edge, so |F| rounds suffice.
    """
    state = MarkState(O, frozenset(), F)
    trace = MarkTrace()
    steps: list[tuple[Circuit, Fraction]] = []
    label = "start"
    for _ in range(len(F.support) + 1):
        if state.done():
            break
        before = state
        choice, state, label = next_round(state, label, trace)
        new = state.marked - before.marked
        if len(new) != 1:
            raise UnreachableCaseError("a round must mark exactly one edge")
        trace.marks.append((next(iter(new)), choice is not None))
        trace.cases.append(label)
        if choice is not None:
            steps.append((choice.circuit, choice.alpha))
    else:
        raise UnreachableCaseError("marking did not finish in |F| rounds")
    if state.current.flows != F.flows:
        raise UnreachableCaseError("all edges marked but target not reached")
    return Walk("CD_e", O.flows, tuple(steps)), trace


# ------------------------------------------------------- 2xn edge walks

def _mixed_pair_2xn(sup) -> int:
    mixed = _mixed_demands(sup)
    if len(mixed) != 1:
        raise UnreachableCaseError(f"2xn vertex with mixed demands {mixed}")
    return mixed[0]


def _marking_walk_2xn(O: Assignment, F: Assignment, choose=None
                      ) -> tuple[Walk, MarkTrace]:
    """The walk body of edge_walk_2xn_report, for callers that checked
    the endpoints and the instance once at entry."""
    # Opening free mark: some target-leaf edge already present, if any.
    deg_f = _demand_degree(F.support)
    start_leaves = sorted(
        e for e in F.support if deg_f[e[1]] == 1 and e in O.support
    )
    watch: frozenset[Edge] = frozenset()
    if not start_leaves:
        # No shared leaf edge forces the overlap to be exactly the two
        # mixed edges of both supports, shared by O and F. At most one of
        # them is ever deleted; the survivor will be marked for free.
        mixed_f = sorted(_mixed_edges(F.support))
        if not (len(mixed_f) == 2 and all(e in O.support for e in mixed_f)
                and set(mixed_f) == _mixed_edges(O.support)):
            raise UnreachableCaseError("no opening mark and no shared mixed pair")
        watch = frozenset(mixed_f)

    def next_round(state, prev, trace):
        if prev == "start" and start_leaves:
            return (*_mark(state, start_leaves[0]), "opening leaf mark")
        q = _mixed_pair_2xn(state.current.support)
        cands = [i for i in (0, 1) if (i, q) not in state.marked]
        if not cands:
            raise UnreachableCaseError("both mixed edges marked before completion")
        i = cands[0] if choose is None else choose(state, q, cands)
        if i not in cands:
            raise UnreachableCaseError(f"override chose supply {i} outside {cands}")
        choice, nxt = _mark_round(state, i, trace)
        if choice is not None:
            if trace.protected in choice.deleted:
                raise UnreachableCaseError(
                    f"protected shared edge {trace.protected} was deleted"
                )
            if choice.deleted & watch and trace.protected is None:
                trace.protected = next(iter(watch - choice.deleted))
        return choice, nxt, f"round at supply {i}"

    walk, trace = _marking_walk(O, F, next_round)
    if trace.free_marks < 1:
        raise UnreachableCaseError("walk finished without a free mark")
    return walk, trace


def edge_walk_2xn_report(O: Assignment, F: Assignment) -> tuple[Walk, MarkTrace]:
    """Edge walk between 2xn vertices, length at most min(n, n+1-k), and
    its marking trace (free marks, cases, protections)."""
    _check_endpoints(O, F, 2)
    if not is_nondegenerate(O.inst):
        raise DegenerateError("edge walks need a non-degenerate instance")
    return _marking_walk_2xn(O, F)


# ------------------------------------------------- monotone 2xn variant

def lp_optimum_2xn(inst: Instance, s) -> Assignment:
    """Greedy optimizer of a linear objective over a 2xn polytope; the
    target of monotone_walk_2xn_report.

    Sort columns stably by s_1j - s_2j, non-increasing. Serve the sorted
    prefix from supply 1 until it runs dry, split one column, serve the
    rest from supply 2: the northwest-corner rule in that column order.
    Non-degeneracy makes the split column proper, so the result is the
    unique optimal vertex up to objective ties. Checks, in order: two
    supplies, a 2xn cost matrix, a non-degenerate instance.
    """
    s = as_matrix(s)
    if inst.m != 2:
        raise TransportError("needs exactly 2 supplies")
    if len(s) != 2 or len(s[0]) != inst.n:
        raise TransportError(f"cost matrix is not 2x{inst.n}")
    if not is_nondegenerate(inst):
        raise DegenerateError("greedy optimum needs a non-degenerate instance")
    order = sorted(range(inst.n), key=lambda j: s[1][j] - s[0][j])
    return _northwest_fill(inst, order)


def monotone_walk_2xn_report(O: Assignment, s) -> tuple[Walk, MarkTrace]:
    """Edge walk of at most n steps from O to lp_optimum_2xn(O.inst, s),
    with nondecreasing objective, and its marking trace.

    While the current mixed demand equals the target's, any round keeps
    the objective nondecreasing. Otherwise the sorted position of the
    current mixed demand against the target's split column decides which
    supply runs the round: every insertion that supply can perform then
    has nonnegative reduced cost.
    """
    s = as_matrix(s)
    F = lp_optimum_2xn(O.inst, s)
    _check_endpoints(O, F, 2)
    target_mixed = _mixed_pair_2xn(F.support)

    def key(j):  # column j's place in lp_optimum_2xn's stable sort
        return s[1][j] - s[0][j], j

    def choose(state, q, cands):
        if q == target_mixed:
            return cands[0]
        return 1 if key(q) < key(target_mixed) else 0

    walk, trace = _marking_walk_2xn(O, F, choose=choose)
    values = [_dot(s, p) for p in walk.points]
    for idx in range(len(values) - 1):
        if values[idx] > values[idx + 1]:
            raise UnreachableCaseError(f"objective dropped at step {idx}")
    return walk, trace


# ------------------------------------------------------- 3xn edge walk

def _mixed_path_3xn(sup) -> tuple[int, int, int, int, int]:
    """Order the 4-edge mixed part as end, demand, middle, demand, end."""
    em = _mixed_edges(sup)
    sdeg: dict[int, int] = {}
    for a, _ in em:
        sdeg[a] = sdeg.get(a, 0) + 1
    ends = sorted(a for a, d in sdeg.items() if d == 1)
    mids = [a for a, d in sdeg.items() if d == 2]
    if len(ends) != 2 or len(mids) != 1:
        raise UnreachableCaseError(f"mixed part is not a path: {sorted(em)}")
    mid = mids[0]
    d_a = next(d for a, d in em if a == ends[0])
    d_b = next(d for a, d in em if a == ends[1])
    if d_a == d_b or (mid, d_a) not in em or (mid, d_b) not in em:
        raise UnreachableCaseError(f"mixed part is not a path: {sorted(em)}")
    return ends[0], d_a, mid, d_b, ends[1]


def _case_2b(state: MarkState, s1, d1, s2, s3, d2) -> tuple[PivotResult | None, MarkState]:
    """Marked: (s1,d1), (s2,d1). The far half of the path is unmarked.

    _case_3b hands over here when (s3,d2) is marked too and d2 is mixed
    in the target: the far demand is then settled the same way.
    """
    sup_f = state.target.support
    if _demand_degree(sup_f).get(d2, 0) == 1:
        if (s3, d2) not in sup_f:
            raise UnreachableCaseError("leaf demand of the far edge left the target")
        return _mark(state, (s3, d2))
    if (s2, d2) in sup_f:
        return _mark(state, (s2, d2))
    if (s1, d2) not in sup_f or (s3, d2) not in sup_f:
        raise UnreachableCaseError("mixed far demand lacks its two target edges")
    choice, nxt = _mark(state, (s1, d2))
    if choice is None or choice.deleted != {(s2, d2)}:
        raise UnreachableCaseError(f"marking ({s1},{d2}) did not delete ({s2},{d2})")
    return choice, nxt


def _case_3a(state: MarkState, s1, d1, s2, s3, d2, entered_from: str
             ) -> tuple[PivotResult | None, MarkState]:
    """Marked: (s1,d1), (s2,d1), (s2,d2). Only (s3,d2) of the path is not.

    Entry requires d2 mixed in the target; the dispatcher tracks where
    the walk came from so a violation names its origin.
    """
    sup_f = state.target.support
    sup_o = state.current.support
    deg_f = _demand_degree(sup_f)
    if deg_f.get(d2, 0) < 2:
        raise UnreachableCaseError(
            f"entered the three-marked path case from {entered_from} "
            f"with demand {d2} not mixed in the target"
        )
    leaves = [e for e in _f_leaf_edges(sup_f, s3) if e not in state.marked]
    if leaves:
        present = [e for e in leaves if e in sup_o]
        via_s2 = [e for e in leaves if (s2, e[1]) in sup_o]
        return _mark(state, (present or via_s2 or leaves)[0])
    if (s3, d2) not in sup_f:
        raise UnreachableCaseError("path end edge missing from the target")
    return _mark(state, (s3, d2))


def _case_3b(state: MarkState, s1, d1, s2, s3, d2) -> tuple[PivotResult | None, MarkState]:
    """Marked: (s1,d1), (s2,d1), (s3,d2). The middle edge (s2,d2) is not."""
    sup_f = state.target.support
    sup_o = state.current.support
    deg_f = _demand_degree(sup_f)
    if deg_f.get(d2, 0) >= 2:
        return _case_2b(state, s1, d1, s2, s3, d2)
    # d2 is a leaf in the target: hand the round to the demand that is
    # mixed there. It hangs off s3 in the current support.
    cands = [
        e for e in sup_o
        if e[0] == s3 and e[1] != d2 and deg_f.get(e[1], 0) >= 2
    ]
    if not cands:
        raise UnreachableCaseError("no current edge of the far supply is target-mixed")
    d3 = min(e[1] for e in cands)
    if (s3, d3) not in sup_f:
        raise UnreachableCaseError(f"({s3},{d3}) is not a target edge")
    others = [a for a in (s1, s2) if (a, d3) in sup_f]
    if len(others) != 1:
        raise UnreachableCaseError(f"demand {d3} does not have target degree 2")
    return _mark(state, (others[0], d3))


def _dispatch_3xn(state: MarkState, prev: str, trace: MarkTrace
                  ) -> tuple[PivotResult | None, MarkState, str]:
    sup = state.current.support
    mixed = _mixed_demands(sup)

    if len(mixed) == 1:
        delta = mixed[0]
        cands = [a for a in range(3) if (a, delta) not in state.marked]
        if not cands:
            raise UnreachableCaseError("full star marked before completion")
        return (*_mark_round(state, cands[0], trace), f"star round at supply {cands[0]}")

    end_a, d_a, mid, d_b, end_b = _mixed_path_3xn(sup)
    seq = [(end_a, d_a), (mid, d_a), (mid, d_b), (end_b, d_b)]
    pattern = tuple(p + 1 for p, e in enumerate(seq) if e in state.marked)
    mirrored = tuple(5 - p for p in reversed(pattern))
    if mirrored < pattern:
        # Read the path from end_b (p -> 5 - p), so that the marks start
        # at end_a and each mirrored pair of patterns is handled once.
        pattern = mirrored
        end_a, d_a, d_b, end_b = end_b, d_b, d_a, end_a

    if pattern == (2, 3):
        raise UnreachableCaseError("both middle path edges marked (impossible case)")
    if pattern == (1, 2, 3, 4):
        raise UnreachableCaseError("full path marked before completion")
    roles = (end_a, d_a, mid, end_b, d_b)
    if pattern == (1, 2):
        return (*_case_2b(state, *roles), "two marks at one end")
    if pattern == (1, 2, 3):
        return (*_case_3a(state, *roles, entered_from=prev), "three marks, path end open")
    if pattern == (1, 2, 4):
        return (*_case_3b(state, *roles), "three marks, middle open")
    if pattern == (1, 4):
        return (*_mark_round(state, mid, trace), f"path round at middle supply {mid}")
    # Only (), (1), (2) and (1, 3) are left. end_a fits when every marked
    # position is even, end_b when every one is odd; this picks the
    # smaller fitting end, as () is never mirrored and so has
    # end_a < end_b. _mark_round's parity check still guards the choice.
    end = end_a if all(p % 2 == 0 for p in pattern) else end_b
    return (*_mark_round(state, end, trace), f"path round at end supply {end}")


def edge_walk_3xn_report(O: Assignment, F: Assignment) -> tuple[Walk, MarkTrace]:
    """Edge walk between 3xn vertices, length at most n+2-k, and its
    marking trace (cases, step-4 rounds)."""
    _check_endpoints(O, F, 3)
    if not is_nondegenerate(O.inst):
        raise DegenerateError("edge walks need a non-degenerate instance")
    return _marking_walk(O, F, _dispatch_3xn)


# ---------------------------------------------------- 2xn maximal steps

def cdfm_walk_2xn(O: Assignment, F: Assignment) -> Walk:
    """Maximal-step walk between 2xn vertices, degenerate instances allowed.

    While some support edge is absent from the target, each step pairs
    one such edge per supply (or, once a supply has none left, its
    unique over-full shared edge) into a 4-cycle and applies the full
    step. Every step removes at least one wrong edge and inserts only
    target edges, so at most |O \\ F| steps happen, one less when the
    target support has only n edges.
    """
    _check_endpoints(O, F, 2)
    inst = O.inst
    budget = edge_distance(O, F)
    sup_f = F.support
    cur = O.flows
    steps: list[tuple[Circuit, Fraction]] = []
    for _ in range(budget + 1):
        if cur == F.flows:
            break
        sup = support_graph(cur)
        wrong = {i: sorted(j for (a, j) in sup - sup_f if a == i) for i in (0, 1)}
        busy = [i for i in (0, 1) if wrong[i]]
        if len(busy) == 2:
            j, l = wrong[0][0], wrong[1][0]
            g = Circuit((0, 1), (l, j))
            for a, b in g.increased():
                if (a, b) not in sup_f:
                    raise UnreachableCaseError(f"step would insert non-target ({a},{b})")
        elif len(busy) == 1:
            i_del = busy[0]
            other = 1 - i_del
            surplus = [
                j for j in range(inst.n)
                if (other, j) in sup and (other, j) in sup_f
                and cur[other][j] > F.flows[other][j]
            ]
            if len(surplus) != 1:
                raise UnreachableCaseError(
                    f"expected one over-full shared edge, found {surplus}"
                )
            l, j = wrong[i_del][0], surplus[0]
            g = Circuit((other, i_del), (l, j))
            if cur[other][j] <= cur[i_del][l]:
                raise UnreachableCaseError("shared edge would be deleted")
        else:
            raise UnreachableCaseError("no wrong edge but target not reached")
        alpha = max_step(cur, g)
        if alpha is None or alpha <= 0:
            raise UnreachableCaseError("constructed step is not applicable")
        cur = apply_circuit(cur, g, alpha)
        steps.append((g, alpha))
    else:
        raise UnreachableCaseError("walk exceeded its edge-distance budget")
    if len(steps) > budget or (len(sup_f) == inst.n and len(steps) > budget - 1
                               and budget > 0):
        raise UnreachableCaseError("maximal-step walk too long")
    return Walk("CD_fm", O.flows, tuple(steps))
