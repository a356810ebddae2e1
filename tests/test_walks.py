from fractions import Fraction

import pytest

from tpwalk import (
    Circuit,
    TransportError,
    Walk,
    apply_circuit,
    cdfm_walk_2xn,
    edge_walk_2xn,
    gen_example1,
    is_monotone,
    monotone_walk_2xn,
    sign_compatible_decomposition,
    validate_walk,
)


@pytest.fixture()
def case():
    return gen_example1()


def test_valid_walks_of_each_kind(case):
    edge = edge_walk_2xn(case.O, case.F)
    assert validate_walk(edge, case.inst).valid
    cdfm = cdfm_walk_2xn(case.O, case.F)
    assert validate_walk(cdfm, case.inst).valid
    dec = sign_compatible_decomposition(case.O, case.F).as_walk(case.O.flows)
    assert validate_walk(dec, case.inst).valid
    relaxed = Walk("CD_f", cdfm.points, cdfm.steps)
    assert validate_walk(relaxed, case.inst).valid
    free = Walk("CD", cdfm.points, cdfm.steps)
    assert validate_walk(free, case.inst).valid


def test_edge_walk_rules_reject_long_jump(case):
    cdfm = cdfm_walk_2xn(case.O, case.F)
    jumped = Walk("CD_e", cdfm.points, cdfm.steps)
    report = validate_walk(jumped, case.inst)
    assert not report.valid
    assert report.violation


def test_cdfm_rules_reject_partial_step(case):
    g = Circuit((0, 1), (2, 0))
    mid = apply_circuit(case.O.flows, g, Fraction(1))
    steps = ((g, Fraction(1)), (g, Fraction(1)))
    short = Walk("CD_fm", (case.O.flows, mid, case.F.flows), steps)
    report = validate_walk(short, case.inst)
    assert not report.valid
    relaxed = Walk("CD_f", short.points, short.steps)
    assert validate_walk(relaxed, case.inst).valid


def test_feasible_rules_reject_negative_point(case):
    g = Circuit((0, 1), (2, 0))
    out = apply_circuit(case.O.flows, g, Fraction(3))
    steps = ((g, Fraction(3)), (-g, Fraction(1)))
    wild = Walk("CD", (case.O.flows, out, case.F.flows), steps)
    assert validate_walk(wild, case.inst).valid
    feas = Walk("CD_f", wild.points, wild.steps)
    report = validate_walk(feas, case.inst)
    assert not report.valid
    assert report.violation


def test_endpoints_must_be_vertices(case):
    g = Circuit((0, 1), (2, 0))
    mid = apply_circuit(case.O.flows, g, Fraction(1))
    stub = Walk("CD_f", (case.O.flows, mid), ((g, Fraction(1)),))
    report = validate_walk(stub, case.inst)
    assert not report.valid
    assert "vertex" in report.violation[1]


def test_kind_mismatch_reported(case):
    cdfm = cdfm_walk_2xn(case.O, case.F)
    report = validate_walk(cdfm, case.inst)
    assert report.kind == "CD_fm"


def test_walk_requires_known_kind(case):
    with pytest.raises(TransportError):
        Walk("diagonal", (case.O.flows,), ())


def test_is_monotone(case):
    s = [[0, 1, 2], [2, 1, 0]]
    w = monotone_walk_2xn(case.O, s)
    assert is_monotone(w, s)
    flipped = [[0, -1, -2], [-2, -1, 0]]
    assert not is_monotone(w, flipped)
    with pytest.raises(TransportError, match="refusing float"):
        is_monotone(w, [[0.5, 1, 2], [2, 1, 0]])
    with pytest.raises(TransportError, match="shape mismatch"):
        is_monotone(w, [[0, 1], [2, 1]])
