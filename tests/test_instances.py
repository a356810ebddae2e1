import random
from fractions import Fraction

import pytest

from tpwalk import (
    Assignment,
    Circuit,
    GeneratedCase,
    Instance,
    TransportError,
    gen_coincide,
    gen_diameter_n,
    gen_example1,
    gen_hirsch_sharp,
    graph_distance,
    insert_pivot,
    instances,
    is_nondegenerate,
    northwest_corner,
    perturb,
    perturb_certified,
    random_instance,
)


def test_example_case_contents():
    case = gen_example1()
    assert case.inst == Instance((3, 3), (2, 2, 2))
    assert case.O.flows == ((2, 1, 0), (0, 1, 2))
    assert case.F.flows == ((0, 1, 2), (2, 1, 0))
    assert case.expected == {
        "edge_distance": 2,
        "graph_distance": 3,
        "cdfm_distance": 1,
        "perturbed_min_circuits": 2,
    }
    assert case.circuits == (Circuit((0, 1), (1, 0)),)


def test_coincide_case():
    case = gen_coincide(3)
    assert case.inst == Instance((5, 5), (6, 2, 2))
    assert case.O.is_vertex() and case.F.is_vertex()
    assert case.expected["cdfm_distance"] == 2
    assert case.expected["graph_diameter"] == 2
    assert set(case.expected["critical_edges"]) == {(0, 0), (1, 0)}
    with pytest.raises(TransportError):
        gen_coincide(1)


def test_diameter_case():
    case = gen_diameter_n(3)
    assert case.expected["graph_distance"] == 3
    assert graph_distance(case.O, case.F) == 3
    with pytest.raises(TransportError):
        gen_diameter_n(2)


@pytest.mark.parametrize(
    "m,n,k",
    [
        (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 5, 4),
        (3, 3, 4), (3, 4, 6), (3, 5, 7),
        (4, 4, 7), (4, 5, 8), (5, 5, 9),
    ],
)
def test_hirsch_sharp_circuit_counts(m, n, k):
    case = gen_hirsch_sharp(m, n)
    assert case.expected["circuit_count"] == k
    assert case.expected["perturbed_min_circuits"] == k
    assert len(case.circuits) == k
    assert case.O.is_vertex() and case.F.is_vertex()


def test_hirsch_sharp_margins():
    assert gen_hirsch_sharp(2, 3).inst == Instance((2, 2), (2, 1, 1))
    assert gen_hirsch_sharp(3, 3).inst == Instance((4, 3, 2), (4, 3, 2))
    assert gen_hirsch_sharp(3, 4).inst == Instance((6, 5, 3), (5, 5, 2, 2))


def test_perturb_basics():
    case = gen_hirsch_sharp(3, 3)
    assert perturb(case, Fraction(0)) is case
    with pytest.raises(TransportError):
        perturb(case, Fraction(-1, 2))
    with pytest.raises(TransportError):
        perturb(gen_coincide(3), Fraction(1, 1024))
    shifted = perturb(case, Fraction(1, 1024))
    assert shifted.O.is_vertex() and shifted.F.is_vertex()
    assert shifted.expected["min_circuits"] == 4


def test_perturb_detects_lost_positivity():
    inst = Instance((3, 5), (2, 2, 2, 2))
    O = northwest_corner(inst)
    F = insert_pivot(O, (0, 2)).result
    case = GeneratedCase("posfail", inst, O, F, {}, (Circuit((0, 1), (2, 3)),))
    with pytest.raises(TransportError):
        perturb(case, Fraction(2))
    ok = perturb(case, Fraction(1, 2))
    assert ok.O.flows == (
        (2, Fraction(3, 2), 0, 0),
        (0, Fraction(1, 2), Fraction(5, 2), Fraction(5, 2)),
    )


def test_perturb_certified_small():
    shifted, k = perturb_certified(gen_hirsch_sharp(2, 3))
    assert k == 2
    assert shifted.expected["min_circuits"] == 2


@pytest.mark.parametrize("eps", [0, "-1/2"])
def test_perturb_certified_rejects_nonpositive_eps(monkeypatch, eps):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking eps")

    monkeypatch.setattr(instances, "cd_at_most", no_search)
    with pytest.raises(TransportError, match="positive"):
        perturb_certified(gen_hirsch_sharp(3, 3), eps)


def test_generated_case_validates_endpoints():
    case = gen_example1()
    flat = Assignment(case.inst, [[1, 1, 1], [1, 1, 1]])
    with pytest.raises(TransportError):
        GeneratedCase("bad", case.inst, flat, case.F, {}, ())


def test_random_instance_contract():
    rng = random.Random("ri:0")
    inst = random_instance(rng, 2, 4, high=30)
    assert (inst.m, inst.n) == (2, 4)
    assert is_nondegenerate(inst)
    assert sum(inst.u) == sum(inst.v)
    assert all(x == int(x) for x in inst.u + inst.v)
    again = random_instance(random.Random("ri:0"), 2, 4, high=30)
    assert again == inst


@pytest.mark.parametrize("m,n", [(2, 0), (1, 3), (3, 1)])
def test_random_instance_rejects_small_shapes(m, n):
    rng = random.Random("ri:small")
    state = rng.getstate()
    with pytest.raises(TransportError, match="need m, n >= 2"):
        random_instance(rng, m, n)
    assert rng.getstate() == state
