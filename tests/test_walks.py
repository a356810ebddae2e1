from fractions import Fraction

import pytest

from tpwalk import (
    Assignment,
    Circuit,
    TransportError,
    Walk,
    WalkReport,
    cdfm_walk_2xn,
    edge_walk_2xn_report,
    gen_example1,
    is_monotone,
    monotone_walk_2xn_report,
    sign_compatible_decomposition,
    validate_walk,
)


@pytest.fixture()
def case():
    return gen_example1()


def test_valid_walks_of_each_kind(case):
    edge, _ = edge_walk_2xn_report(case.O, case.F)
    assert validate_walk(edge, case.inst).valid
    cdfm = cdfm_walk_2xn(case.O, case.F)
    assert validate_walk(cdfm, case.inst).valid
    dec = sign_compatible_decomposition(case.O, case.F).as_walk(case.O.flows)
    assert validate_walk(dec, case.inst).valid
    relaxed = Walk("CD_f", case.O.flows, cdfm.steps)
    assert validate_walk(relaxed, case.inst).valid
    free = Walk("CD", case.O.flows, cdfm.steps)
    assert validate_walk(free, case.inst).valid


def test_edge_walk_rules_reject_long_jump(case):
    cdfm = cdfm_walk_2xn(case.O, case.F)
    jumped = Walk("CD_e", case.O.flows, cdfm.steps)
    report = validate_walk(jumped, case.inst)
    assert not report.valid
    assert report.violation


def test_cdfm_rules_reject_partial_step(case):
    g = Circuit((0, 1), (2, 0))
    steps = ((g, Fraction(1)), (g, Fraction(1)))
    short = Walk("CD_fm", case.O.flows, steps)
    report = validate_walk(short, case.inst)
    assert not report.valid
    relaxed = Walk("CD_f", case.O.flows, steps)
    assert validate_walk(relaxed, case.inst).valid


def test_feasible_rules_reject_negative_point(case):
    g = Circuit((0, 1), (2, 0))
    steps = ((g, Fraction(3)), (-g, Fraction(1)))
    wild = Walk("CD", case.O.flows, steps)
    assert validate_walk(wild, case.inst).valid
    feas = Walk("CD_f", case.O.flows, steps)
    report = validate_walk(feas, case.inst)
    assert not report.valid
    assert report.violation


def test_endpoints_must_be_vertices(case):
    g = Circuit((0, 1), (2, 0))
    stub = Walk("CD_f", case.O.flows, ((g, Fraction(1)),))
    report = validate_walk(stub, case.inst)
    assert not report.valid
    assert "vertex" in report.violation[1]


def test_kind_mismatch_reported(case):
    cdfm = cdfm_walk_2xn(case.O, case.F)
    report = validate_walk(cdfm, case.inst)
    assert report.kind == "CD_fm"


def test_walk_requires_known_kind(case):
    with pytest.raises(TransportError):
        Walk("diagonal", case.O.flows, ())


def test_is_monotone(case):
    s = [[0, 1, 2], [2, 1, 0]]
    w, _ = monotone_walk_2xn_report(case.O, s)
    assert is_monotone(w, s)
    flipped = [[0, -1, -2], [-2, -1, 0]]
    assert not is_monotone(w, flipped)
    with pytest.raises(TransportError, match="refusing float"):
        is_monotone(w, [[0.5, 1, 2], [2, 1, 0]])
    with pytest.raises(TransportError, match="shape mismatch"):
        is_monotone(w, [[0, 1], [2, 1]])


# One invalid walk per violation class the validator can report, on
# example1 (O = [[2,1,0],[0,1,2]], F = [[0,1,2],[2,1,0]]). OF moves O to F
# in one step; CYC moves F to the cyclic point Y = [[1,1,1],[1,1,1]].
OF = Circuit((0, 1), (2, 0))
CYC = Circuit((0, 1), (0, 2))
UP = Circuit((0, 1), (1, 0))  # raises (0,1), lowers (1,1)
DOWN = Circuit((1, 0), (1, 2))  # lowers (0,1), raises (1,1)
Y = [[1, 1, 1], [1, 1, 1]]


def _table_walk(c, kind, steps, start=None):
    return Walk(kind, c.O.flows if start is None else start, steps)


VIOLATIONS = {
    "not m x n": (
        lambda c: Walk("CD", [[1, 1], [1, 1]], ()),
        (0, "point 0 is not 2x3")),
    "margins": (
        lambda c: Walk("CD", [[2, 1, 0], [0, 1, 1]], ()),
        (0, "point 0 violates the margins")),
    "start not a vertex": (
        lambda c: _table_walk(c, "CD", [(-CYC, 1)], start=Y),
        (0, "start point is not a vertex")),
    "end not a vertex": (
        lambda c: _table_walk(c, "CD", [(OF, 2), (CYC, 1)]),
        (1, "end point is not a vertex")),
    "infeasible": (
        lambda c: _table_walk(c, "CD_f", [(OF, 3), (-OF, 1)]),
        (0, "point 1 is infeasible")),
    # A step off a zero-flow edge is not maximal either, but the point it
    # reaches is infeasible and that is found first, at the same step.
    "CD_fm step off a zero-flow edge": (
        lambda c: _table_walk(c, "CD_fm", [(CYC, 1), (-CYC, 1)]),
        (0, "point 1 is infeasible")),
    "not maximal": (
        lambda c: _table_walk(c, "CD_fm", [(OF, 1), (OF, 1)]),
        (0, "step 0 length 1 is not maximal (2)")),
    "CD_e point not a vertex": (
        lambda c: _table_walk(c, "CD_e", [(-CYC, 1), (-CYC, 1)]),
        (0, "point 1 is not a vertex")),
    "CD_e non-adjacent": (
        lambda c: _table_walk(c, "CD_e", [(OF, 2)]),
        (0, "step 0 jumps between non-adjacent vertices")),
    "CD_s opposes": (
        lambda c: _table_walk(c, "CD_s", [(OF, 2), (CYC, 1), (-CYC, 1)]),
        (1, "step 1 opposes the endpoint difference")),
    "CD_s not sign-compatible": (
        lambda c: _table_walk(c, "CD_s", [(UP, 1), (DOWN, 2), (UP, 1)]),
        (1, "steps 0 and 1 are not sign-compatible")),
}


@pytest.mark.parametrize("name", sorted(VIOLATIONS))
def test_violation_classes(case, name):
    build, violation = VIOLATIONS[name]
    walk = build(case)
    assert validate_walk(walk, case.inst) == WalkReport(False, walk.kind, violation)


def test_edge_rules_build_no_assignment(case, monkeypatch):
    walks = [edge_walk_2xn_report(case.O, case.F)[0], VIOLATIONS["CD_e non-adjacent"][0](case)]
    built = []
    monkeypatch.setattr(Assignment, "__post_init__", lambda self: built.append(self))
    assert [validate_walk(w, case.inst).valid for w in walks] == [True, False]
    assert built == []
