"""Walk-for-walk guard on the three marking constructions.

golden/marking.json holds, for each recorded walk, every step (circuit
supplies, demands and alpha) and the whole marking trace: marks, round
labels, free marks and step-four hits. For the monotone walks it also
holds the greedy optimum lp_optimum_2xn returns. The 3xn pairs were
picked so that every mixed-path pattern the dispatcher met in 200
random 3x3/3x4 walks occurs at least once; each entry lists the
patterns its rounds saw, and the test checks those too. After a change
that is meant to alter the walks, re-record with

    PYTHONPATH=src python tests/test_marking_golden.py --record

and review the diff of golden/marking.json.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from tpwalk import (
    Assignment,
    Instance,
    construct,
    edge_walk_2xn_report,
    edge_walk_3xn_report,
    enumerate_vertices,
    format_rational,
    lp_optimum_2xn,
    monotone_walk_2xn_report,
    random_instance,
)

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "marking.json"


def _walk_record(walk, trace):
    return {
        "steps": [
            [list(g.supplies), list(g.demands), format_rational(alpha)]
            for g, alpha in walk.steps
        ],
        "marks": [[list(e), pivoted] for e, pivoted in trace.marks],
        "cases": list(trace.cases),
        "free_marks": trace.free_marks,
        "step4_hits": trace.step4_hits,
    }


def _pattern(state):
    """The dispatcher's view of a 3xn round: the star, or the positions
    (1-4, along the mixed path) of the marked path edges."""
    sup = state.current.support
    if len(construct._mixed_demands(sup)) == 1:
        return "star"
    end_a, d_a, mid, d_b, end_b = construct._mixed_path_3xn(sup)
    seq = [(end_a, d_a), (mid, d_a), (mid, d_b), (end_b, d_b)]
    return "".join(str(p + 1) for p, e in enumerate(seq) if e in state.marked) or "-"


def _walk_3xn_with_patterns(O, F):
    seen = []
    dispatch = construct._dispatch_3xn

    def watched(state, *rest):
        seen.append(_pattern(state))
        return dispatch(state, *rest)

    construct._dispatch_3xn = watched
    try:
        walk, trace = edge_walk_3xn_report(O, F)
    finally:
        construct._dispatch_3xn = dispatch
    return walk, trace, seen


def _inst_json(inst):
    return {"u": [format_rational(x) for x in inst.u],
            "v": [format_rational(x) for x in inst.v]}


def _flows_json(flows):
    return [[format_rational(x) for x in row] for row in flows]


def _random_pair(tag, seed, m, sizes):
    rng = random.Random(f"{tag}:{seed}")
    inst = random_instance(rng, m, rng.choice(sizes))
    verts = enumerate_vertices(inst)
    a, b = rng.sample(range(len(verts)), 2)
    return rng, inst, verts[a], verts[b]


def _cases_2xn():
    out = []
    for seed in range(12):
        _, inst, O, F = _random_pair("g2", seed, 2, (3, 4, 5, 6))
        out.append({"instance": _inst_json(inst), "O": _flows_json(O.flows),
                    "F": _flows_json(F.flows)})
    return out


def _cases_monotone():
    out = []
    for seed in range(12):
        rng, inst, O, _ = _random_pair("gm", seed, 2, (3, 4, 5, 6))
        cost = [[rng.randint(-9, 9) for _ in range(inst.n)] for _ in range(2)]
        out.append({"instance": _inst_json(inst), "O": _flows_json(O.flows),
                    "cost": cost})
    return out


def _cases_3xn():
    """Cover every pattern met in 200 random 3x3/3x4 walks, first seed
    first, plus the pinned pair whose round reaches step four."""
    picked, covered = [], set()
    for seed in range(200):
        _, inst, O, F = _random_pair("g3", seed, 3, (3, 4))
        _, _, seen = _walk_3xn_with_patterns(O, F)
        if set(seen) - covered:
            covered |= set(seen)
            picked.append((inst, O, F))
    inst = Instance((41, 23, 33), (8, 40, 49))
    verts = enumerate_vertices(inst)
    picked.append((inst, verts[1], verts[11]))
    return [
        {"instance": _inst_json(inst), "O": _flows_json(O.flows),
         "F": _flows_json(F.flows)}
        for inst, O, F in picked
    ]


def _endpoints(case):
    inst = Instance(case["instance"]["u"], case["instance"]["v"])
    O = Assignment(inst, case["O"])
    F = Assignment(inst, case["F"]) if "F" in case else None
    return inst, O, F


def _run(kind, case):
    inst, O, F = _endpoints(case)
    if kind == "edge2n":
        return _walk_record(*edge_walk_2xn_report(O, F))
    if kind == "monotone2n":
        record = _walk_record(*monotone_walk_2xn_report(O, case["cost"]))
        record["optimum"] = _flows_json(lp_optimum_2xn(inst, case["cost"]).flows)
        return record
    walk, trace, seen = _walk_3xn_with_patterns(O, F)
    record = _walk_record(walk, trace)
    record["patterns"] = seen
    return record


def _recorded():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", ["edge2n", "edge3n", "monotone2n"])
def test_marking_walks_unchanged(kind):
    for idx, entry in enumerate(_recorded()[kind]):
        assert _run(kind, entry["input"]) == entry["output"], idx


def test_golden_covers_mirrored_patterns():
    seen = {p for e in _recorded()["edge3n"] for p in e["output"]["patterns"]}
    for a, b in (("12", "34"), ("123", "234"), ("124", "134")):
        assert {a, b} <= seen
    assert any(e["output"]["step4_hits"] for e in _recorded()["edge3n"])


def _record():
    doc = {
        kind: [{"input": case, "output": _run(kind, case)} for case in cases]
        for kind, cases in (("edge2n", _cases_2xn()),
                            ("monotone2n", _cases_monotone()),
                            ("edge3n", _cases_3xn()))
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
