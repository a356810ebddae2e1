import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpwalk import (
    Assignment,
    DegenerateError,
    Instance,
    MarkState,
    MarkTrace,
    PivotResult,
    TransportError,
    UnreachableCaseError,
    cdfm_walk_2xn,
    critical_edges,
    edge_distance,
    edge_walk_2xn_report,
    edge_walk_3xn_report,
    enumerate_vertices,
    gen_example1,
    graph_distance,
    lp_optimum_2xn,
    monotone_walk_2xn_report,
    northwest_corner,
    objective,
    random_instance,
    validate_walk,
)
from tpwalk.construct import _mark_round


@pytest.fixture()
def case():
    return gen_example1()


@pytest.fixture()
def three_by_three():
    inst = Instance((9, 7, 3), (8, 6, 5))
    O = northwest_corner(inst)
    F = Assignment(inst, [[0, 4, 5], [5, 2, 0], [3, 0, 0]])
    return inst, O, F


def test_edge_walk_2xn_pinned(case):
    walk, trace = edge_walk_2xn_report(case.O, case.F)
    assert walk.length == 3
    assert validate_walk(walk, case.inst).valid
    assert trace.free_marks >= 1
    assert {e for e, _ in trace.marks} == set(case.F.support)
    assert sum(1 for _, pivoted in trace.marks if pivoted) == walk.length


def test_cdfm_walk_2xn_pinned(case):
    walk = cdfm_walk_2xn(case.O, case.F)
    assert walk.length == 1
    g, alpha = walk.steps[0]
    assert (g.supplies, g.demands, alpha) == ((0, 1), (2, 0), 2)
    assert walk.points[-1] == case.F.flows


def test_cdfm_walk_budget(case):
    walk = cdfm_walk_2xn(case.O, case.F)
    assert walk.length <= edge_distance(case.O, case.F)


def test_lp_optimum_pinned(case):
    assert lp_optimum_2xn(case.inst, [[3, 2, 1], [0, 0, 0]]).flows == case.O.flows
    assert lp_optimum_2xn(case.inst, [[0, 1, 2], [2, 1, 0]]).flows == case.F.flows


def test_monotone_walk_pinned(case):
    s = [[0, 1, 2], [2, 1, 0]]
    walk, _ = monotone_walk_2xn_report(case.O, s)
    assert walk.length == 3
    assert [objective(s, p) for p in walk.points] == [2, 4, 8, 10]
    assert walk.points[-1] == case.F.flows


def test_mark_state_validation(three_by_three):
    inst, O, F = three_by_three
    with pytest.raises(UnreachableCaseError):
        MarkState(O, frozenset({(0, 2)}), F)
    with pytest.raises(UnreachableCaseError):
        MarkState(O, frozenset({(0, 1)}), F)


def test_mark_pivot_single_round(case):
    state = MarkState(case.O, frozenset(), case.F)
    choice, after = _mark_round(state, 0, MarkTrace())
    assert isinstance(choice, PivotResult)
    assert choice.result == after.current
    assert choice.deleted == {(0, 1)}
    assert choice.alpha == 1
    assert after.marked == frozenset({(0, 2)})


def test_mark_pivot_free_mark(case):
    """A target edge already present is marked without a pivot."""
    choice, after = _mark_round(MarkState(case.F, frozenset(), case.F), 0,
                                MarkTrace())
    assert choice is None
    assert after.current is case.F
    assert after.marked == frozenset({(0, 2)})


def _degenerate_pair(u, v):
    verts = enumerate_vertices(Instance(u, v))
    return verts[0], verts[-1]


@pytest.mark.parametrize("walk", [
    lambda O, F: edge_walk_2xn_report(O, F),
    lambda O, F: monotone_walk_2xn_report(O, [[0, 1], [1, 0]]),
])
def test_2xn_walks_reject_degenerate(walk):
    # The instance is checked once at entry, not in each marking round,
    # so bad input must still surface as DegenerateError, not a bug trap.
    O, F = _degenerate_pair((2, 2), (2, 2))
    with pytest.raises(DegenerateError):
        walk(O, F)


@pytest.mark.parametrize("greedy", [
    lambda case, s: lp_optimum_2xn(case.inst, s),
    lambda case, s: monotone_walk_2xn_report(case.O, s),
])
def test_2xn_greedy_rejects_float_cost(case, greedy):
    with pytest.raises(TransportError, match="refusing float 0.5"):
        greedy(case, [[0.5, 1, 2], [2, 1, 0]])


def test_3xn_walk_rejects_degenerate():
    O, F = _degenerate_pair((1, 1, 2), (2, 2))
    with pytest.raises(DegenerateError):
        edge_walk_3xn_report(O, F)


# Degenerate only through the tie 1 + 1/2 = 3/2. The numerators alone
# share no proper subset sum, so a check that dropped the scaling by the
# common denominator would let these through.
FRACTIONAL_2XN = (("3/2", "4"), ("1", "1/2", "4"))


@pytest.mark.parametrize("u,v,walk", [
    (*FRACTIONAL_2XN, edge_walk_2xn_report),
    (*FRACTIONAL_2XN,
     lambda O, F: monotone_walk_2xn_report(O, [[0, 1, 2], [2, 1, 0]])),
    (*FRACTIONAL_2XN, lambda O, F: lp_optimum_2xn(O.inst, [[0, 1, 2], [2, 1, 0]])),
    (("1", "1/2", "7"), ("3/2", "3/2", "11/2"), edge_walk_3xn_report),
])
def test_walks_reject_fractional_degenerate(u, v, walk):
    O, F = _degenerate_pair(u, v)
    with pytest.raises(DegenerateError):
        walk(O, F)


def test_edge_walk_3xn_pinned(three_by_three):
    inst, O, F = three_by_three
    walk, trace = edge_walk_3xn_report(O, F)
    assert walk.length == 4
    assert validate_walk(walk, inst).valid
    assert trace.free_marks == 1
    assert {e for e, _ in trace.marks} == set(F.support)
    assert trace.cases == [
        "path round at end supply 0",
        "star round at supply 1",
        "star round at supply 1",
        "path round at end supply 2",
        "star round at supply 0",
    ]
    assert graph_distance(O, F) == 4


def test_double_insertion_round_regression():
    inst = Instance((41, 23, 33), (8, 40, 49))
    verts = enumerate_vertices(inst)
    O, F = verts[1], verts[11]
    assert O.flows == ((0, 0, 41), (0, 23, 0), (8, 17, 8))
    assert F.flows == ((1, 40, 0), (7, 0, 16), (0, 0, 33))
    walk, trace = edge_walk_3xn_report(O, F)
    assert trace.step4_hits == 1
    assert walk.length == 4
    assert validate_walk(walk, inst).valid


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=25)
def test_edge_walk_2xn_random(seed):
    rng = random.Random(f"c2:{seed}")
    n = rng.choice((3, 4, 5))
    inst = random_instance(rng, 2, n)
    verts = enumerate_vertices(inst)
    k = len(critical_edges(inst))
    a, b = rng.sample(range(len(verts)), 2)
    walk, trace = edge_walk_2xn_report(verts[a], verts[b])
    assert validate_walk(walk, inst).valid
    assert walk.length <= min(n, n + 1 - k)
    assert walk.length == sum(1 for _, pivoted in trace.marks if pivoted)
    assert len(trace.marks) == len(verts[b].support)


@given(st.integers(0, 10**6))
@example(seed=326)
@example(seed=488)
@settings(deadline=None, max_examples=25)
def test_edge_walk_3xn_random(seed):
    rng = random.Random(f"c3:{seed}")
    n = rng.choice((3, 4))
    inst = random_instance(rng, 3, n)
    verts = enumerate_vertices(inst)
    k = len(critical_edges(inst))
    a, b = rng.sample(range(len(verts)), 2)
    walk, trace = edge_walk_3xn_report(verts[a], verts[b])
    assert validate_walk(walk, inst).valid
    assert walk.length <= n + 2 - k
    # The 3xn bound is the Hirsch bound m + n - 1 - k: each of the n + 2
    # target edges is marked once, and at least the k critical ones for
    # free. Unlike 2xn a walk may need no free mark (seeds 326 and 488:
    # k = 0, length n + 2).
    assert len(trace.marks) == n + 2
    assert trace.free_marks >= k
    assert walk.length == len(trace.marks) - trace.free_marks


@given(st.integers(0, 10**6))
@example(514750)  # ties in s_1j - s_2j that the round choice must break
@example(378347)  # by column index, as lp_optimum_2xn's stable sort does
@settings(deadline=None, max_examples=25)
def test_monotone_walk_random(seed):
    rng = random.Random(f"mono:{seed}")
    n = rng.choice((3, 4))
    inst = random_instance(rng, 2, n)
    verts = enumerate_vertices(inst)
    s = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(2)]
    start = rng.choice(list(verts))
    walk, _ = monotone_walk_2xn_report(start, s)
    values = [objective(s, p) for p in walk.points]
    assert values == sorted(values)
    assert values[-1] == max(objective(s, v.flows) for v in verts)
    assert walk.length <= n
