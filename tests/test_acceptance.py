"""Acceptance battery: one test per criterion, run `pytest -v` for the lines.

Populations are seeded, built once per module, and shared across criteria.
All arithmetic is exact, so every comparison below is equality or a hard
inequality with zero tolerance.
"""

import random
from fractions import Fraction

import pytest

from tpwalk import (
    cd_at_most,
    cdfm_distance,
    cdfm_walk_2xn,
    cd_minimum,
    circuit_count,
    critical_edges,
    edge_distance,
    edge_walk_2xn_report,
    edge_walk_3xn_report,
    enumerate_circuits,
    enumerate_vertices,
    gen_coincide,
    gen_diameter_n,
    gen_example1,
    gen_hirsch_sharp,
    graph_diameter,
    graph_distance,
    graph_distance_table,
    is_monotone,
    monotone_walk_2xn_report,
    objective,
    perturb,
    random_instance,
    sign_compatible_decomposition,
    validate_walk,
)


def _ordered_pairs(count: int, cap: int | None, rng: random.Random):
    pairs = [(a, b) for a in range(count) for b in range(count) if a != b]
    if cap is not None and len(pairs) > cap:
        pairs = rng.sample(pairs, cap)
    return pairs


def _decomp_record(O, F, m, n):
    dec = sign_compatible_decomposition(O, F)
    walk = dec.as_walk(O.flows)
    return {
        "terms_ok": 1 <= len(dec.terms) <= m + n - 1,
        "partials_ok": all(
            x >= 0 for p in walk.points for row in p for x in row
        ),
        "total_ok": walk.points[-1] == F.flows,
    }


@pytest.fixture(scope="module")
def pop2():
    """200 seeded 2xn instances, n in {3,4,5}; all pairs for n <= 4."""
    records = []
    for idx in range(200):
        n = 3 + idx % 3
        rng = random.Random(f"accept2:{idx}")
        inst = random_instance(rng, 2, n)
        verts = enumerate_vertices(inst)
        k = len(critical_edges(inst))
        table = graph_distance_table(inst)
        cs = enumerate_circuits(2, n)
        rec = {"idx": idx, "inst": inst, "verts": verts, "n": n, "k": k,
               "pairs": [], "errors": []}
        for a, b in _ordered_pairs(len(verts), None if n <= 4 else 50, rng):
            pair = {"a": a, "b": b}
            O, F = verts[a], verts[b]
            try:
                w = cdfm_walk_2xn(O, F)
                pair["cdfm_valid"] = validate_walk(w, inst).valid
                pair["cdfm_len"] = w.length
                pair["cdfm_oracle_within"] = (
                    cdfm_distance(O, F, depth_cap=w.length, circuits=cs)
                    is not None
                )
                we, trace = edge_walk_2xn_report(O, F)
                pair["edge_valid"] = validate_walk(we, inst).valid
                pair["edge_len"] = we.length
                pair["graph_d"] = table.distance(a, b)
                pair["decomp"] = _decomp_record(O, F, 2, n)
            except Exception as exc:  # traps must never fire
                rec["errors"].append(f"pair {a}->{b}: {exc!r}")
            rec["pairs"].append(pair)
        records.append(rec)
    return records


@pytest.fixture(scope="module")
def pop3():
    """100 seeded 3xn instances, n in {3,4,5}; all pairs for n = 3."""
    records = []
    for idx in range(100):
        n = 3 + idx % 3
        rng = random.Random(f"accept3:{idx}")
        inst = random_instance(rng, 3, n)
        verts = enumerate_vertices(inst)
        k = len(critical_edges(inst))
        table = graph_distance_table(inst)
        rec = {"idx": idx, "inst": inst, "verts": verts, "n": n, "k": k,
               "pairs": [], "errors": [],
               "diameter": max(map(max, table.rows)) if n <= 4 else None}
        for a, b in _ordered_pairs(len(verts), None if n == 3 else 30, rng):
            pair = {"a": a, "b": b}
            O, F = verts[a], verts[b]
            try:
                w, trace = edge_walk_3xn_report(O, F)
                pair["valid"] = validate_walk(w, inst).valid
                pair["len"] = w.length
                pair["graph_d"] = table.distance(a, b)
                pair["decomp"] = _decomp_record(O, F, 3, n)
            except Exception as exc:  # 2c and marked-deletion traps land here
                rec["errors"].append(f"pair {a}->{b}: {exc!r}")
            rec["pairs"].append(pair)
        records.append(rec)
    return records


def test_criterion_01_worked_example():
    case = gen_example1()
    assert graph_distance(case.O, case.F) == 3
    assert cdfm_distance(case.O, case.F) == 1
    assert edge_distance(case.O, case.F) == 2
    walk, _ = edge_walk_2xn_report(case.O, case.F)
    assert walk.length == 3
    assert cdfm_walk_2xn(case.O, case.F).length == 1


def test_criterion_02_coinciding_diameters_family():
    for n in range(2, 7):
        case = gen_coincide(n)
        assert set(critical_edges(case.inst)) == {(0, 0), (1, 0)}
        if n <= 4:
            assert cdfm_distance(case.O, case.F) == n - 1
        else:
            walk = cdfm_walk_2xn(case.O, case.F)
            # every maximal step inserts at most one edge in row 0, and
            # n-1 of row 0's target edges are missing: n-1 is a lower bound
            missing = {
                e for e in case.F.support - case.O.support if e[0] == 0
            }
            assert walk.length == n - 1 == len(missing)
            assert validate_walk(walk, case.inst).valid
        if n <= 5:
            assert graph_diameter(case.inst) == n - 1


def test_criterion_03_two_row_distance_n_family():
    for n in (3, 4):
        case = gen_diameter_n(n)
        assert graph_distance(case.O, case.F) == n


def test_criterion_04_cdfm_walk_sweep(pop2):
    assert len(pop2) == 200
    bad = []
    for rec in pop2:
        for pair in rec["pairs"]:
            if not pair.get("cdfm_valid"):
                bad.append((rec["idx"], pair["a"], pair["b"], "invalid"))
            elif pair["cdfm_len"] > rec["n"] - 1:
                bad.append((rec["idx"], pair["a"], pair["b"], "too long"))
            elif not pair.get("cdfm_oracle_within"):
                bad.append((rec["idx"], pair["a"], pair["b"], "below oracle"))
    assert not bad, bad[:5]


def test_criterion_05_edge_walk_2xn_sweep(pop2):
    bad = []
    for rec in pop2:
        bound = min(rec["n"], rec["n"] + 1 - rec["k"])
        for err in rec["errors"]:
            bad.append((rec["idx"], err))
        for pair in rec["pairs"]:
            if not pair.get("edge_valid"):
                bad.append((rec["idx"], pair["a"], pair["b"], "invalid"))
            elif pair["edge_len"] > bound:
                bad.append((rec["idx"], pair["a"], pair["b"], "too long"))
            elif pair["graph_d"] > pair["edge_len"]:
                bad.append((rec["idx"], pair["a"], pair["b"], "below BFS"))
    assert not bad, bad[:5]


def test_criterion_06_monotone_sweep(pop2):
    bad = []
    for rec in pop2:
        rng = random.Random(f"acceptcost:{rec['idx']}")
        s = [[rng.randint(-9, 9) for _ in range(rec["n"])] for _ in range(2)]
        start = rec["verts"][rng.randrange(len(rec["verts"]))]
        walk, _ = monotone_walk_2xn_report(start, s)
        best = max(objective(s, v.flows) for v in rec["verts"])
        if objective(s, walk.points[-1]) != best:
            bad.append((rec["idx"], "endpoint not optimal"))
        elif not is_monotone(walk, s):
            bad.append((rec["idx"], "not monotone"))
        elif walk.length > rec["n"]:
            bad.append((rec["idx"], "too long"))
    assert not bad, bad[:5]


def test_criterion_07_edge_walk_3xn_sweep(pop3):
    assert len(pop3) == 100
    bad = []
    for rec in pop3:
        bound = rec["n"] + 2 - rec["k"]
        for err in rec["errors"]:
            bad.append((rec["idx"], err))
        for pair in rec["pairs"]:
            if not pair.get("valid"):
                bad.append((rec["idx"], pair["a"], pair["b"], "invalid"))
            elif pair["len"] > bound:
                bad.append((rec["idx"], pair["a"], pair["b"], "too long"))
            elif pair["graph_d"] > pair["len"]:
                bad.append((rec["idx"], pair["a"], pair["b"], "below BFS"))
        if rec["diameter"] is not None and rec["diameter"] > bound:
            bad.append((rec["idx"], "diameter above bound"))
    assert not bad, bad[:5]


def test_criterion_08_decompositions(pop2, pop3):
    bad = []
    for pop in (pop2, pop3):
        for rec in pop:
            for pair in rec["pairs"]:
                d = pair.get("decomp")
                if d is None or not (
                    d["terms_ok"] and d["partials_ok"] and d["total_ok"]
                ):
                    bad.append((rec["inst"].m, rec["idx"], pair["a"], pair["b"]))
    rng = random.Random("accept4x")
    for trial in range(20):
        m, n = 4, 4 + trial % 2
        inst = random_instance(rng, m, n)
        verts = enumerate_vertices(inst)
        a, b = rng.sample(range(len(verts)), 2)
        d = _decomp_record(verts[a], verts[b], m, n)
        if not (d["terms_ok"] and d["partials_ok"] and d["total_ok"]):
            bad.append((m, n, a, b))
    assert not bad, bad[:5]


@pytest.mark.parametrize("m,n,k", [(2, 3, 2), (3, 3, 4), (3, 4, 6)])
def test_criterion_09_sharp_lower_bounds(m, n, k):
    case = perturb(gen_hirsch_sharp(m, n), Fraction(1, 1024))
    cs = enumerate_circuits(m, n)
    assert cd_at_most(case.O, case.F, k, cap_solves=10**7, circuits=cs)
    assert not cd_at_most(case.O, case.F, k - 1, cap_solves=10**7, circuits=cs)


def test_criterion_10_hierarchy_chain(pop2, pop3):
    small = [gen_example1().inst]
    small += [rec["inst"] for rec in pop2 if rec["n"] == 3][:2]
    small += [rec["inst"] for rec in pop2 if rec["n"] == 4][:2]
    small += [rec["inst"] for rec in pop3 if rec["n"] == 3][:2]
    for inst in small:
        verts = enumerate_vertices(inst)
        cs = enumerate_circuits(inst.m, inst.n)
        table = graph_distance_table(inst)
        for a in range(len(verts)):
            for b in range(a + 1, len(verts)):
                O, F = verts[a], verts[b]
                cde = table.distance(a, b)
                cdfm = cdfm_distance(O, F, circuits=cs)
                cdmin = cd_minimum(O, F, circuits=cs)
                assert cde >= cdfm >= cdmin >= 1
                if inst.m == 2:
                    assert cdfm <= cdfm_walk_2xn(O, F).length
                    walk, _ = edge_walk_2xn_report(O, F)
                else:
                    walk, _ = edge_walk_3xn_report(O, F)
                assert cde <= walk.length


def test_criterion_11_structural():
    for m in range(2, 6):
        for n in range(2, 6):
            assert len(enumerate_circuits(m, n)) == circuit_count(m, n)
    rng = random.Random("accept11")
    for m, n in ((2, 4), (3, 3), (3, 4)):
        inst = random_instance(rng, m, n)
        for v in enumerate_vertices(inst):
            assert len(v.support) == m + n - 1
    for m in range(2, 6):
        for n in range(m, 6):
            case = gen_hirsch_sharp(m, n)
            k = min((m - 1) * (n - 1), m + n - 1)
            assert case.expected["circuit_count"] == k
            assert len(case.circuits) == k
