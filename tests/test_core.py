from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpwalk import (
    WALK_KINDS,
    Assignment,
    Circuit,
    Instance,
    TransportError,
    Walk,
    apply_circuit,
    as_matrix,
    edge_distance,
    format_rational,
    gen_example1,
    objective,
    parse_rational,
    support_graph,
)


def test_walk_kinds():
    assert set(WALK_KINDS) == {"CD", "CD_f", "CD_fm", "CD_e", "CD_s"}


@pytest.mark.parametrize(
    "raw,want",
    [
        ("3/4", Fraction(3, 4)),
        ("-2", Fraction(-2)),
        (5, Fraction(5)),
        (Fraction(1, 3), Fraction(1, 3)),
    ],
)
def test_parse_rational(raw, want):
    assert parse_rational(raw) == want


def test_parse_rational_refuses_float():
    with pytest.raises(TransportError):
        parse_rational(1.5)


@pytest.mark.parametrize("raw", [True, False])
def test_parse_rational_refuses_bool(raw):
    # bool is an int subclass, so unchecked JSON true reads as 1.
    with pytest.raises(TransportError, match="refusing bool"):
        parse_rational(raw)


@pytest.mark.parametrize("raw", ["1/0", "abc"])
def test_parse_rational_refuses_unreadable_string(raw):
    with pytest.raises(TransportError, match="cannot read a rational"):
        parse_rational(raw)


@given(st.fractions())
@settings(deadline=None, max_examples=50)
def test_rational_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_as_matrix_rejects_ragged():
    with pytest.raises(TransportError):
        as_matrix([[1, 2], [3]])
    with pytest.raises(TransportError):
        as_matrix([])
    with pytest.raises(TransportError, match="cannot read a matrix"):
        as_matrix(5)
    with pytest.raises(TransportError, match="cannot read a matrix"):
        as_matrix([1, 2])
    # A string iterates as its characters: unchecked, ["210", "012"] reads
    # as a 2x3 matrix.
    with pytest.raises(TransportError, match="matrix row must be a list"):
        as_matrix(["210", "012"])
    with pytest.raises(TransportError, match="matrix must be a list"):
        as_matrix("12")
    assert as_matrix([["2", "1/2"]]) == ((2, Fraction(1, 2)),)


def test_instance_validation():
    inst = Instance((3, 3), (2, 2, 2))
    assert (inst.m, inst.n) == (2, 3)
    with pytest.raises(TransportError):
        Instance((3, 3), (2, 2, 3))
    with pytest.raises(TransportError):
        Instance((0, 6), (2, 2, 2))
    with pytest.raises(TransportError):
        Instance((-1, 7), (2, 2, 2))
    with pytest.raises(TransportError, match="lists of rationals"):
        Instance(5, (2, 2, 2))
    with pytest.raises(TransportError, match="not the string '33'"):
        Instance("33", "222")
    with pytest.raises(TransportError, match="not the string '222'"):
        Instance((3, 3), "222")


def test_support_graph():
    y = as_matrix([[2, 1, 0], [0, 1, 2]])
    assert support_graph(y) == frozenset({(0, 0), (0, 1), (1, 1), (1, 2)})


def test_assignment_support_and_vertex():
    case = gen_example1()
    assert case.O.support == frozenset({(0, 0), (0, 1), (1, 1), (1, 2)})
    assert case.O.is_vertex()
    cyclic = Assignment(case.inst, [[1, 1, 1], [1, 1, 1]])
    assert not cyclic.is_vertex()
    assert case.O.support is case.O.support
    assert cyclic != case.O and Assignment(case.inst, case.O.flows) == case.O


def test_assignment_checks_margins():
    inst = Instance((3, 3), (2, 2, 2))
    with pytest.raises(TransportError):
        Assignment(inst, [[3, 0, 0], [0, 2, 1]])
    with pytest.raises(TransportError):
        Assignment(inst, [[4, -1, 0], [-1, 3, 1]])


def test_circuit_rotation_normal_form():
    assert Circuit((0, 1), (1, 0)) == Circuit((1, 0), (0, 1))
    g = Circuit((0, 1), (1, 0))
    assert set(g.increased()) == {(0, 1), (1, 0)}
    assert set(g.decreased()) == {(0, 0), (1, 1)}
    ng = -g
    assert set(ng.increased()) == {(0, 0), (1, 1)}
    assert g.decreased() is g.decreased() and g.increased() is g.increased()
    assert g.signs() is not g.signs() and g.signs() == g.signs()
    with pytest.raises(TypeError):
        g.signs()[(0, 0)] = 1
    assert g.signs() == {(0, 1): 1, (1, 0): 1, (0, 0): -1, (1, 1): -1}
    assert hash(Circuit((1, 0), (0, 1))) == hash(g) and repr(g) == (
        "Circuit(supplies=(0, 1), demands=(1, 0))")


def test_circuit_validation():
    with pytest.raises(TransportError):
        Circuit((0, 0), (1, 2))
    with pytest.raises(TransportError):
        Circuit((0,), (1,))


@given(st.data())
@settings(deadline=None, max_examples=50)
def test_circuit_vector_is_margin_neutral(data):
    m = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(2, min(m, n)))
    supplies = tuple(data.draw(st.permutations(range(m)))[:k])
    demands = tuple(data.draw(st.permutations(range(n)))[:k])
    flat = Circuit(supplies, demands).vector(m, n)
    assert all(sum(flat[i * n : (i + 1) * n]) == 0 for i in range(m))
    assert all(sum(flat[i * n + j] for i in range(m)) == 0 for j in range(n))
    assert sum(abs(x) for x in flat) == 2 * k


def test_apply_circuit():
    case = gen_example1()
    g = Circuit((0, 1), (1, 0))
    out = apply_circuit(case.O.flows, g, Fraction(1))
    assert out == as_matrix([[1, 2, 0], [1, 0, 2]])


def test_walk_points_and_length():
    case = gen_example1()
    g = Circuit((0, 1), (2, 0))
    w = Walk("CD_fm", case.O.flows, ((g, Fraction(2)),))
    assert w.length == 1
    assert w.points[-1] == case.F.flows


def test_walk_derives_points_from_start_and_steps():
    case = gen_example1()
    g = Circuit((0, 1), (2, 0))
    w = Walk("CD_f", case.O.flows, ((g, 1), (g, "1")))
    mid = as_matrix([[1, 1, 1], [1, 1, 1]])
    assert w.points == (case.O.flows, mid, case.F.flows)
    assert w.steps == ((g, Fraction(1)), (g, Fraction(1)))


@pytest.mark.parametrize("alpha", [0, -1])
def test_walk_rejects_nonpositive_alpha(alpha):
    case = gen_example1()
    g = Circuit((0, 1), (2, 0))
    with pytest.raises(TransportError, match=f"step 0: alpha {alpha} not positive"):
        Walk("CD", case.O.flows, ((g, alpha),))


def test_walk_rejects_broken_step():
    # validate_walk relies on these: a constructed walk's kind is known and
    # its steps stay on the grid.
    case = gen_example1()
    with pytest.raises(TransportError):
        Walk("XX", case.O.flows, ())
    off_grid = Circuit((0, 1), (0, 5))
    with pytest.raises(TransportError, match="step 0 circuit leaves the 2x3 grid"):
        Walk("CD", case.O.flows, ((off_grid, 1),))


def test_edge_distance():
    case = gen_example1()
    assert edge_distance(case.O, case.F) == 2
    assert edge_distance(case.O, case.O) == 0


def test_objective():
    case = gen_example1()
    s = [[0, 1, 2], [2, 1, 0]]
    assert objective(s, case.O.flows) == 2
    assert objective(s, case.F.flows) == 10
    with pytest.raises(TransportError):
        objective([[1, 2], [3, 4]], case.O.flows)
