"""Command-line driver: generate cases, run walks and oracles, verify.

Exit status: 0 when every requested check passes, 1 when a check fails,
2 on usage or resource errors, 3 when an internal invariant fails (a bug:
UnreachableCaseError). Identical arguments produce identical
output bytes; tables carry an explicit column order for that reason.

Indices in files and reports are 1-based; rationals are "p/q" strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .core import (
    Assignment,
    Circuit,
    Instance,
    ResourceLimitError,
    TransportError,
    UnreachableCaseError,
    Walk,
    edge_distance,
    format_rational,
    objective,
    parse_rational,
)
from .circuits import sign_compatible_decomposition
from .construct import (
    cdfm_walk_2xn,
    edge_walk_2xn_report,
    edge_walk_3xn_report,
    monotone_walk_2xn_report,
)
from .instances import (
    GeneratedCase,
    gen_coincide,
    gen_diameter_n,
    gen_example1,
    gen_hirsch_sharp,
    perturb,
    perturb_certified,
    random_instance,
)
from .oracle import (
    cd_at_most,
    cd_minimum,
    cdfm_distance,
    graph_distance,
    graph_diameter,
)
from .polytope import (
    critical_edges,
    enumerate_vertices,
    hirsch_bound,
    northwest_corner,
)
from .walks import is_monotone, validate_walk


# ------------------------------------------------------------- plumbing

def _emit(payload, fields: list[str] | None, out: str | None) -> None:
    """payload: list of row dicts (tables) or a plain dict. Tables go to
    CSV when the output path ends in .csv, JSON otherwise."""
    if out and out.endswith(".csv"):
        if fields is None:
            raise TransportError("this command emits no table, use .json")
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        w.writeheader()
        for row in payload:
            w.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _inst_json(inst: Instance) -> dict:
    return {
        "m": inst.m,
        "n": inst.n,
        "u": [format_rational(x) for x in inst.u],
        "v": [format_rational(x) for x in inst.v],
    }


def _flows_json(flows) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in flows]


def _walk_json(w: Walk) -> dict:
    steps = []
    for g, alpha in w.steps:
        cells = sorted(
            [i + 1, j + 1, s] for (i, j), s in g.signs().items()
        )
        steps.append({"circuit": cells, "alpha": format_rational(alpha)})
    return {
        "kind": w.kind,
        "points": [_flows_json(p) for p in w.points],
        "steps": steps,
    }


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_instance(args) -> tuple[Instance, dict]:
    """The instance named by exactly one of --in, --gen, --u/--v, and the
    endpoint flows that source carries under the keys "O" and "F": those
    of the --in document, or the generated case's two vertices."""
    sources = sum(1 for x in (args.infile, args.gen, args.u) if x)
    if sources != 1:
        raise TransportError("give exactly one of --in, --gen, --u/--v")
    if args.gen:
        case = _load_case(args)
        return case.inst, {"O": case.O.flows, "F": case.F.flows}
    if args.u:
        if not args.v:
            raise TransportError("--u needs --v")
        return Instance(args.u.split(","), args.v.split(",")), {}
    doc = _read_json(args.infile)
    data = doc.get("instance", doc) if isinstance(doc, dict) else None
    if not isinstance(data, dict):
        raise TransportError(f"{args.infile} holds no JSON object of margins")
    return Instance(data["u"], data["v"]), doc


def _load_case(args) -> GeneratedCase:
    name = args.gen
    if name is None:
        raise TransportError(
            "this command needs --gen (example1 | coincide | diameter_n | hirsch_sharp)"
        )
    if name == "hirsch_sharp":
        return gen_hirsch_sharp(2 if args.m is None else args.m, args.n)
    if name not in ("example1", "coincide", "diameter_n"):
        raise TransportError(f"unknown generator {name!r}")
    if args.m not in (None, 2):
        raise TransportError(f"--m {args.m} conflicts with --gen {name} (2 rows)")
    if name == "example1":
        return gen_example1()
    if name == "coincide":
        return gen_coincide(args.n)
    return gen_diameter_n(args.n)


def _load_point(inst: Instance, path: str) -> Assignment:
    data = _read_json(path)
    if isinstance(data, dict):
        data = data["flows"]
    return Assignment(inst, data)


def _endpoints(args) -> tuple[Instance, Assignment, Assignment]:
    inst, doc = _load_instance(args)
    O = F = None
    if "O" in doc:
        O = Assignment(inst, doc["O"])
    if "F" in doc:
        F = Assignment(inst, doc["F"])
    if args.src:
        O = _load_point(inst, args.src)
    if args.dst:
        F = _load_point(inst, args.dst)
    if O is None or F is None:
        raise TransportError("need --from and --to unless the case supplies them")
    return inst, O, F


# ------------------------------------------------------------- commands

def _cmd_gen(args) -> int:
    case = _load_case(args)
    payload = {
        "provenance": case.provenance,
        "instance": _inst_json(case.inst),
        "O": _flows_json(case.O.flows),
        "F": _flows_json(case.F.flows),
        "expected": {k: _plain(v) for k, v in sorted(case.expected.items())},
    }
    _emit(payload, None, args.out)
    return 0


def _plain(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, tuple):
        return [_plain(x) for x in value]
    return value


def _cmd_vertices(args) -> int:
    inst, _ = _load_instance(args)
    verts = enumerate_vertices(inst, cap_trees=args.cap_trees)
    fields = ["index"] + [
        f"y{i + 1}_{j + 1}" for i in range(inst.m) for j in range(inst.n)
    ]
    rows = []
    for idx, a in enumerate(verts):
        row = {"index": idx}
        for i in range(inst.m):
            for j in range(inst.n):
                row[f"y{i + 1}_{j + 1}"] = format_rational(a.flows[i][j])
        rows.append(row)
    _emit(rows, fields, args.out)
    return 0


def _cmd_adjacency(args) -> int:
    inst, _ = _load_instance(args)
    verts = enumerate_vertices(inst, cap_trees=args.cap_trees)
    rows = [
        {"a": a, "b": b}
        for a, row in enumerate(verts.graph) for b in row if a < b
    ]
    _emit(rows, ["a", "b"], args.out)
    return 0


def _cmd_diameter(args) -> int:
    inst, _ = _load_instance(args)
    bound = hirsch_bound(inst)
    diam = graph_diameter(inst, cap_trees=args.cap_trees)
    ok = diam <= bound
    row = {
        "m": inst.m,
        "n": inst.n,
        "diameter": diam,
        "critical_edges": len(critical_edges(inst)),
        "hirsch_bound": bound,
        "pass": ok,
    }
    _emit([row], list(row), args.out)
    return 0 if ok else 1


def _default_cost(inst: Instance):
    return [
        [(inst.m - 1 - i) * (inst.n - 1 - j) for j in range(inst.n)]
        for i in range(inst.m)
    ]


def _edge_bound(inst: Instance) -> int:
    """The Hirsch bound (n+2-k on 3 rows), and at most n on 2 rows."""
    bound = hirsch_bound(inst)
    return min(inst.n, bound) if inst.m == 2 else bound


def _cmd_walk(args) -> int:
    inst, O, F = _endpoints(args)
    kind = args.kind
    bound = None
    if kind == "cdfm":
        walk = cdfm_walk_2xn(O, F)
        bound = edge_distance(O, F)
    elif kind == "edge2n":
        walk, _ = edge_walk_2xn_report(O, F)
        bound = _edge_bound(inst)
    elif kind == "edge3n":
        walk, _ = edge_walk_3xn_report(O, F)
        bound = _edge_bound(inst)
    elif kind == "monotone2n":
        cost = _read_json(args.cost) if args.cost else _default_cost(inst)
        walk, _ = monotone_walk_2xn_report(O, cost)
        bound = inst.n
    elif kind == "signcompat":
        dec = sign_compatible_decomposition(O, F)
        walk = dec.as_walk(O.flows)
        bound = inst.m + inst.n - 1
    else:
        raise TransportError(f"unknown walk kind {kind!r}")
    report = validate_walk(walk, inst)
    ok = report.valid and walk.length <= bound
    payload = {
        "kind": walk.kind,
        "length": walk.length,
        "bound": bound,
        "valid": report.valid,
        "violation": report.violation,
        "pass": ok,
        "walk": _walk_json(walk),
    }
    _emit(payload, None, args.out)
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    inst, O, F = _endpoints(args)
    if args.kind == "cde":
        value = graph_distance(O, F, cap_trees=args.cap_trees)
    elif args.kind == "cdfm":
        value = cdfm_distance(O, F, cap_states=args.cap_states)
    elif args.kind == "cd":
        if args.k is not None:
            value = cd_at_most(O, F, args.k, cap_solves=args.cap_states)
        else:
            value = cd_minimum(O, F, cap_solves=args.cap_states)
    else:
        raise TransportError(f"unknown oracle kind {args.kind!r}")
    _emit({"kind": args.kind, "value": value}, None, args.out)
    return 0


def _cmd_perturb(args) -> int:
    case = _load_case(args)
    eps = parse_rational(args.eps) if args.eps else Fraction(1, 1024)
    if args.certify:
        cand, k = perturb_certified(case, eps, cap_solves=args.cap_states)
    else:
        cand = perturb(case, eps)
        k = cand.expected.get("min_circuits")
    payload = {
        "provenance": cand.provenance,
        "instance": _inst_json(cand.inst),
        "O": _flows_json(cand.O.flows),
        "F": _flows_json(cand.F.flows),
        "min_circuits": k,
        "certified": bool(args.certify),
        "pass": True,
    }
    _emit(payload, None, args.out)
    return 0


# ------------------------------------------------------------- verify

def _check(rows, suite, name, value, ok):
    rows.append({"suite": suite, "check": name, "value": str(value),
                 "pass": bool(ok)})


def _suite_hierarchy(rows, args):
    case = gen_example1()
    cde = graph_distance(case.O, case.F)
    cdfm = cdfm_distance(case.O, case.F)
    cd = cd_minimum(case.O, case.F)
    _check(rows, "hierarchy", "edge distance oracle", cde, cde == 3)
    _check(rows, "hierarchy", "maximal-step oracle", cdfm, cdfm == 1)
    _check(rows, "hierarchy", "unrestricted minimum", cd, cd == 1)
    _check(rows, "hierarchy", "chain order", f"{cde}>={cdfm}>={cd}",
           cde >= cdfm >= cd)


def _suite_marking(rows, args):
    for n in (3, 4):
        case = gen_diameter_n(n)
        walk, trace = edge_walk_2xn_report(case.O, case.F)
        ok = (validate_walk(walk, case.inst).valid
              and walk.length <= case.inst.n and trace.free_marks >= 1)
        _check(rows, "marking", f"2x{n} walk length", walk.length, ok)
        dist = graph_distance(case.O, case.F)
        _check(rows, "marking", f"2x{n} oracle distance", dist,
               dist <= walk.length)
    inst = Instance((9, 7, 3), (8, 6, 5))
    O = northwest_corner(inst)
    flows = [[0, 4, 5], [5, 2, 0], [3, 0, 0]]
    F = Assignment(inst, flows)
    walk, trace = edge_walk_3xn_report(O, F)
    ok = validate_walk(walk, inst).valid and walk.length <= _edge_bound(inst)
    _check(rows, "marking", "3x3 walk length", walk.length, ok)


def _suite_monotone(rows, args):
    rng = random.Random(args.seed)
    for trial in range(5):
        inst = random_instance(rng, 2, 3 + trial % 3)
        cost = [
            [rng.randint(-9, 9) for _ in range(inst.n)] for _ in range(2)
        ]
        verts = enumerate_vertices(inst)
        start = verts[rng.randrange(len(verts))]
        walk, _ = monotone_walk_2xn_report(start, cost)
        best = max(objective(cost, a.flows) for a in verts)
        ok = (is_monotone(walk, cost)
              and objective(cost, walk.points[-1]) == best
              and walk.length <= inst.n)
        _check(rows, "monotone", f"trial {trial}", walk.length, ok)


def _suite_hirsch(rows, args):
    for n in (2, 3, 4, 5):
        case = gen_coincide(n)
        diam = graph_diameter(case.inst)
        crit = critical_edges(case.inst)
        ok = diam == n - 1 and crit == frozenset({(0, 0), (1, 0)})
        _check(rows, "hirsch", f"coincide n={n} diameter", diam, ok)


def _suite_lowerbound(rows, args):
    pairs = [(2, 3), (3, 3)] + ([(3, 4)] if args.deep else [])
    for m, n in pairs:
        case = gen_hirsch_sharp(m, n)
        # perturb_certified returns only once cd_at_most(k - 1) fails.
        _, k = perturb_certified(case, cap_solves=args.cap_states)
        _check(rows, "lowerbound", f"{m}x{n} needs {k} circuits",
               f"k={k}", True)


_SUITES = {
    "hierarchy": _suite_hierarchy,
    "marking": _suite_marking,
    "monotone": _suite_monotone,
    "hirsch": _suite_hirsch,
    "lowerbound": _suite_lowerbound,
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    rows: list[dict] = []
    for name in names:
        _SUITES[name](rows, args)
    _emit(rows, ["suite", "check", "value", "pass"], args.out)
    return 0 if all(r["pass"] for r in rows) else 1


# ------------------------------------------------------------- sweep

def _sample_pairs(rng: random.Random, count: int, cap: int) -> list:
    """Up to cap sorted ordered pairs of distinct indices below count: the
    pairs rng.sample would draw from their sorted list, found by index
    (sample picks by length alone) so that the list is never built."""
    total = count * (count - 1)
    picks = sorted(rng.sample(range(total), cap)) if total > cap else range(total)
    out = []
    for t in picks:
        a, r = divmod(t, count - 1)
        out.append((a, r + (r >= a)))
    return out


def _sweep_one(task) -> dict:
    seed, idx, m, n, pairs_cap, cap_trees = task
    rng = random.Random(f"{seed}:{idx}")
    inst = random_instance(rng, m, n)
    verts = enumerate_vertices(inst, cap_trees=cap_trees)
    pairs = _sample_pairs(rng, len(verts), pairs_cap)
    worst = 0
    valid = True
    for a, b in pairs:
        if m == 2:
            walk, trace = edge_walk_2xn_report(verts[a], verts[b])
        else:
            walk, trace = edge_walk_3xn_report(verts[a], verts[b])
        worst = max(worst, walk.length)
        valid = valid and validate_walk(walk, inst).valid
    bound = _edge_bound(inst)
    return {
        "index": idx,
        "m": m,
        "n": n,
        "u": ",".join(format_rational(x) for x in inst.u),
        "v": ",".join(format_rational(x) for x in inst.v),
        "pairs": len(pairs),
        "max_length": worst,
        "bound": bound,
        "pass": valid and worst <= bound,
    }


def _cmd_sweep(args) -> int:
    m = 2 if args.family == "2xn" else 3
    if args.m not in (None, m):
        raise TransportError(f"--m {args.m} conflicts with --family {args.family}")
    tasks = [
        (args.seed, idx, m, args.n, args.pairs, args.cap_trees)
        for idx in range(args.count)
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]
    fields = ["index", "m", "n", "u", "v", "pairs", "max_length", "bound",
              "pass"]
    _emit(rows, fields, args.out)
    return 0 if all(r["pass"] for r in rows) else 1


# ------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tpwalk",
        description="Circuit walks and diameter oracles on transportation polytopes",
    )
    sub = top.add_subparsers(dest="command", required=True)

    src = argparse.ArgumentParser(add_help=False)
    src.add_argument("--in", dest="infile", help="instance JSON file")
    src.add_argument("--gen", help="generator: example1 | coincide | diameter_n | hirsch_sharp")
    src.add_argument("--m", type=int, help="generator rows (default 2)")
    src.add_argument("--n", type=int, default=3, help="generator columns")
    src.add_argument("--u", help="comma-separated supply margins")
    src.add_argument("--v", help="comma-separated demand margins")
    src.add_argument("--from", dest="src", help="start flows JSON file")
    src.add_argument("--to", dest="dst", help="target flows JSON file")
    src.add_argument("--out", help="output path (.json or .csv)")
    src.add_argument("--cap-trees", type=int, default=10 ** 7)
    src.add_argument(
        "--cap-states", type=int, default=10 ** 6,
        help="cap on the maximal-step states of oracle --kind cdfm, and on "
             "the span-search solves (cap_solves) of oracle --kind cd, "
             "perturb --certify and verify --suite lowerbound (default 10^6)")
    src.add_argument("--seed", type=int, default=0)
    src.add_argument("--workers", type=int, default=1)

    sub.add_parser("gen", parents=[src])
    sub.add_parser("vertices", parents=[src])
    sub.add_parser("adjacency", parents=[src])
    sub.add_parser("diameter", parents=[src])

    p = sub.add_parser("walk", parents=[src])
    p.add_argument("--kind", required=True,
                   choices=["cdfm", "edge2n", "monotone2n", "edge3n", "signcompat"])
    p.add_argument("--cost", help="cost matrix JSON file (monotone2n)")

    p = sub.add_parser("oracle", parents=[src])
    p.add_argument("--kind", required=True, choices=["cde", "cdfm", "cd"])
    p.add_argument("--k", type=int)

    p = sub.add_parser("perturb", parents=[src])
    p.add_argument("--eps", help="perturbation size, rational")
    p.add_argument("--certify", action="store_true",
                   help="halve eps until the span oracle confirms the bound")

    p = sub.add_parser("verify", parents=[src])
    p.add_argument("--suite", required=True,
                   choices=["hierarchy", "marking", "monotone", "hirsch",
                            "lowerbound", "all"])
    p.add_argument("--deep", action="store_true",
                   help="include the 3x4 lower-bound search")

    p = sub.add_parser("sweep", parents=[src])
    p.add_argument("--family", required=True, choices=["2xn", "3xn"])
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--pairs", type=int, default=30,
                   help="vertex pairs sampled per instance")

    return top


_COMMANDS = {
    "gen": _cmd_gen,
    "vertices": _cmd_vertices,
    "adjacency": _cmd_adjacency,
    "diameter": _cmd_diameter,
    "walk": _cmd_walk,
    "oracle": _cmd_oracle,
    "perturb": _cmd_perturb,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UnreachableCaseError as exc:
        print(f"internal error: {exc}\nThis is a bug in tpwalk; please report "
              f"it with the command line and its input files.", file=sys.stderr)
        return 3
    except (TransportError, ResourceLimitError, OSError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
