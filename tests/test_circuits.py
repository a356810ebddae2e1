import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpwalk import (
    Circuit,
    CircuitSet,
    Decomposition,
    TransportError,
    apply_circuit,
    circuit_count,
    enumerate_circuits,
    enumerate_vertices,
    gen_example1,
    max_step,
    random_instance,
    sign_compatible_decomposition,
    validate_walk,
)


@pytest.mark.parametrize(
    "m,n,want",
    [(2, 2, 1), (2, 3, 3), (2, 4, 6), (3, 3, 15), (3, 4, 42), (4, 4, 204)],
)
def test_circuit_count_closed_form(m, n, want):
    assert circuit_count(m, n) == want


@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 3), (3, 4)])
def test_enumerate_matches_count(m, n):
    cs = enumerate_circuits(m, n)
    assert len(cs) == circuit_count(m, n)
    assert len(set(cs)) == len(cs)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 4)])
def test_circuit_set_compiles_flat_cells(m, n):
    cs = enumerate_circuits(m, n)
    assert len(cs.flat()) == len(cs)
    for g, (inc, dec) in zip(cs, cs.flat()):
        vec = [0] * (m * n)
        for c in inc:
            vec[c] += 1
        for c in dec:
            vec[c] -= 1
        assert tuple(vec) == g.vector(m, n)
        # The swapped pair is the reverse orientation.
        assert tuple(-x for x in vec) == (-g).vector(m, n)


def test_circuit_set_refuses_circuits_off_its_grid():
    with pytest.raises(TransportError, match="leaves the 2x3 grid"):
        CircuitSet(2, 3, enumerate_circuits(3, 3).circuits)
    with pytest.raises(TransportError, match="leaves the 3x3 grid"):
        CircuitSet(3, 3, enumerate_circuits(2, 4).circuits)


def test_enumerate_2x3_explicit():
    cs = enumerate_circuits(2, 3)
    assert sorted((g.supplies, g.demands) for g in cs) == [
        ((0, 1), (1, 0)),
        ((0, 1), (2, 0)),
        ((0, 1), (2, 1)),
    ]


def test_max_step():
    case = gen_example1()
    g = Circuit((0, 1), (1, 0))
    assert max_step(case.O.flows, g) == 1
    assert max_step(case.F.flows, g) is None
    stepped = apply_circuit(case.O.flows, g, Fraction(1))
    assert stepped == ((1, 2, 0), (1, 0, 2))


def test_decomposition_example_pair():
    case = gen_example1()
    dec = sign_compatible_decomposition(case.O, case.F)
    assert [(g.supplies, g.demands, a) for g, a in dec.terms] == [
        ((0, 1), (2, 0), 2)
    ]
    w = dec.as_walk(case.O.flows)
    assert w.kind == "CD_s"
    assert w.points[-1] == case.F.flows
    assert validate_walk(w, case.inst).valid


def test_decomposition_rejects_nonconformal():
    case = gen_example1()
    target = [
        [case.F.flows[i][j] - case.O.flows[i][j] for j in range(3)]
        for i in range(2)
    ]
    wrong = Circuit((0, 1), (0, 2))
    with pytest.raises(TransportError):
        Decomposition(target, ((wrong, Fraction(2)),))


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=30)
def test_decomposition_random_vertex_pairs(seed):
    rng = random.Random(f"dec:{seed}")
    m = rng.choice((2, 3))
    n = rng.choice((3, 4))
    inst = random_instance(rng, m, n)
    verts = enumerate_vertices(inst)
    a, b = rng.sample(range(len(verts)), 2)
    dec = sign_compatible_decomposition(verts[a], verts[b])
    assert 1 <= len(dec.terms) <= m + n - 1
    w = dec.as_walk(verts[a].flows)
    assert w.points[-1] == verts[b].flows
    assert all(x >= 0 for p in w.points for row in p for x in row)
