"""Seeded workloads of the tpwalk benchmark: inputs, calls into the package,
and the checks every output must pass.

Each workload splits its inputs into batches. Batch ``i`` of seed ``s`` is
drawn from ``random.Random(f"<workload>:<s>:<i>")``, so a seed fixes every
input, and every batch holds inputs no other batch has. ``make_batch`` is
the set-up (it builds what the package receives); ``run_batch`` is the timed
phase. One caller runs the pairs of a batch one after another (closed loop).

The package is reached only through attribute lookups on the ``tpwalk``
package and its ``cli`` module at call time, so the tracer can swap in timed
wrappers without the workloads knowing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from math import comb, factorial
from time import perf_counter


class CheckFailed(Exception):
    """An output of the package broke a property the benchmark checks."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------- results

class BatchResult:
    """What one batch did: pair latencies, failures, fixed outputs."""

    def __init__(self):
        self.latencies: list[float] = []   # seconds, one per pair
        self.pairs = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # Mathematically fixed outputs (vertex counts, critical edges,
        # oracle distances, certified k). Walk lengths stay out, so a
        # legitimate change to a construction keeps the digest.
        self.fixed: list = []
        self.tight = 0           # walks as short as their oracle distance
        self.with_oracle = 0     # walks that have an oracle distance

    def fail(self, label: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{label}: {exc!r}")

    def unit(self, label: str, fn, *args):
        """One non-pair unit of work (an instance's oracles, a CLI run).
        Returns (result, seconds), or None if it failed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # any error of the package is a failed unit
            self.fail(label, exc)
            return None
        return out, perf_counter() - t0

    def pair(self, label: str, extra: float, fn, *args) -> None:
        """Time one pair. ``extra`` is per-instance work the pair waited for."""
        self.attempted += 1
        self.pairs += 1
        t0 = perf_counter()
        try:
            fixed = fn(*args)
        except Exception as exc:  # any error of the package is a failed pair
            self.fail(label, exc)
            fixed = ["failed", label]
        self.latencies.append(extra + perf_counter() - t0)
        self.fixed.append(fixed)

    def expect(self, digest: str | None, label: str) -> None:
        """Compare the batch's oracle digest with a recorded one, as one unit."""
        self.attempted += 1
        if digest is not None and self.digest() != digest:
            self.fail(label, CheckFailed(f"oracle digest {self.digest()}, recorded {digest}"))

    def oracle_match(self, length: int, distance: int) -> None:
        self.with_oracle += 1
        self.tight += length == distance

    def digest(self) -> str:
        blob = json.dumps(self.fixed, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# ------------------------------------------------- independent arithmetic

def circuit_count(m: int, n: int) -> int:
    """Closed form for the unoriented circuits of K_{m,n}."""
    return sum(
        comb(m, k) * comb(n, k) * factorial(k) * factorial(k - 1) // 2
        for k in range(2, min(m, n) + 1)
    )


def proper_subset_sums(xs) -> set:
    sums = {0}
    for x in xs:
        sums |= {s + x for s in sums}
    return sums - {0, sum(xs)}


def balanced_margins(rng: random.Random, m: int, n: int, high: int):
    """Draw v in [1, high], cut its total into m positive parts, and reject
    degenerate margins (a proper supply subset sum equal to a proper demand
    subset sum). The check is the benchmark's own, so set-up time does not
    follow changes to ``tpwalk.is_nondegenerate``."""
    while True:
        v = [rng.randint(1, high) for _ in range(n)]
        total = sum(v)
        cuts = sorted(rng.sample(range(1, total), m - 1))
        u = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        if not proper_subset_sums(u) & proper_subset_sums(v):
            return u, v


def northwest_fill(u, v, order) -> list[list[int]]:
    """Northwest-corner rule over the columns taken in ``order``, written
    back into the original column positions. The support is a staircase
    in that order, hence a spanning forest: always a vertex."""
    m, n = len(u), len(v)
    grid = [[0] * n for _ in range(m)]
    ru, rv = list(u), list(v)
    i = pos = 0
    while i < m and pos < n:
        j = order[pos]
        x = min(ru[i], rv[j])
        grid[i][j] = x
        ru[i] -= x
        rv[j] -= x
        if ru[i] == 0 and i < m - 1:
            i += 1
        else:
            pos += 1
    return grid


def support(flows) -> frozenset:
    return frozenset(
        (i, j) for i, row in enumerate(flows) for j, y in enumerate(row) if y > 0
    )


def objective(cost, flows) -> Fraction:
    return sum(
        Fraction(c) * y for crow, yrow in zip(cost, flows) for c, y in zip(crow, yrow)
    )


def lp_optimum_value_2xn(u, v, cost) -> Fraction:
    """Maximum of the objective over a 2xn polytope: with y_2j = v_j - y_1j
    it is a fractional knapsack on s_1j - s_2j, solved greedily."""
    value = sum(Fraction(c) * x for c, x in zip(cost[1], v))
    left = Fraction(u[0])
    gains = sorted(
        ((Fraction(cost[0][j] - cost[1][j]), v[j]) for j in range(len(v))),
        key=lambda t: -t[0],
    )
    for gain, cap in gains:
        take = min(left, cap)
        value += gain * take
        left -= take
    return value


# ---------------------------------------------------------------- checks

def check_walk(tp, walk, kind: str, inst, start, end) -> None:
    """Revalidate a walk under its own kind and pin its endpoints."""
    require(walk.kind == kind, f"walk kind {walk.kind}, want {kind}")
    report = tp.validate_walk(walk, inst)
    require(report.valid, f"{kind} walk invalid: {report.violation}")
    require(walk.points[0] == start, f"{kind} walk leaves from the wrong point")
    if end is not None:
        require(walk.points[-1] == end, f"{kind} walk ends at the wrong point")


def check_decomposition(tp, O, F, inst) -> None:
    dec = tp.sign_compatible_decomposition(O, F)
    limit = inst.m + inst.n - 1
    require(1 <= len(dec.terms) <= limit,
            f"{len(dec.terms)} decomposition terms, bound {limit}")
    check_walk(tp, dec.as_walk(O.flows), "CD_s", inst, O.flows, F.flows)


def ordered_pairs(count: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(count) for b in range(count) if a != b]


# --------------------------------------------------------------- certify

CERTIFY_SHAPES = ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5))
CERTIFY_PAIRS = 40   # ordered vertex pairs sampled per instance


class Certify:
    """Desk-scale certification battery shaped like the acceptance
    populations: every oracle of an instance, every construction of a pair,
    then the CLI's own verification suites."""

    name = "certify"

    def __init__(self, tp, cli, seed: int):
        self.tp, self.cli, self.seed = tp, cli, seed

    def make_batch(self, index: int):
        rng = random.Random(f"certify:{self.seed}:{index}")
        return [
            (self.tp.random_instance(rng, m, n, high=50), rng.getrandbits(32))
            for m, n in CERTIFY_SHAPES
        ]

    def run_batch(self, index: int, batch, res: BatchResult, mark) -> None:
        for pos, (inst, pair_seed) in enumerate(batch):
            self._instance(f"{index}/{pos}", inst, pair_seed, res, mark)
        mark(f"{index}/cli")
        res.unit(f"{index}/cli", self._verify)

    def _instance(self, label, inst, pair_seed, res, mark):
        mark(f"{label}/prep")
        ready = res.unit(label, self._prepare, inst, res)
        if ready is None:
            return
        (verts, k, table, cs), prep = ready
        pairs = ordered_pairs(len(verts))
        rng = random.Random(pair_seed)
        if len(pairs) > CERTIFY_PAIRS:
            pairs = sorted(rng.sample(pairs, CERTIFY_PAIRS))
        run = self._pair_2xn if inst.m == 2 else self._pair_3xn
        for a, b in pairs:
            mark(f"{label}/{a}-{b}")
            res.pair(f"{label}/{a}-{b}", prep, run, inst, verts, table, cs, k, a, b, res)
            prep = 0.0

    def _prepare(self, inst, res):
        tp = self.tp
        m, n = inst.m, inst.n
        verts = tp.enumerate_vertices(inst)
        crit = tp.critical_edges(inst)
        table = tp.graph_distance_table(inst)
        cs = tp.enumerate_circuits(m, n)
        require(len(cs) == circuit_count(m, n), "circuit count off the closed form")
        require(len(table.verts) == len(verts), "distance table misses vertices")
        res.fixed.append([
            m, n, [str(x) for x in inst.u], [str(x) for x in inst.v],
            len(verts), sorted(crit),
        ])
        return verts, len(crit), table, cs

    def _pair_2xn(self, inst, verts, table, cs, k, a, b, res):
        tp = self.tp
        O, F = verts[a], verts[b]
        n = inst.n
        walk = tp.cdfm_walk_2xn(O, F)
        check_walk(tp, walk, "CD_fm", inst, O.flows, F.flows)
        gap = len(support(O.flows) - support(F.flows))
        require(walk.length <= gap, f"cdfm2n {walk.length} > edge distance {gap}")
        edge, _ = tp.edge_walk_2xn_report(O, F)
        check_walk(tp, edge, "CD_e", inst, O.flows, F.flows)
        bound = min(n, n + 1 - k)
        require(edge.length <= bound, f"edge2n {edge.length} > {bound}")
        dfm = tp.cdfm_distance(O, F, depth_cap=walk.length, circuits=cs)
        require(dfm is not None, "cdfm oracle finds no walk as short as the construction")
        de = table.distance(a, b)
        require(dfm <= de <= edge.length,
                f"hierarchy cdfm {dfm} <= graph {de} <= edge2n {edge.length} fails")
        res.oracle_match(walk.length, dfm)
        res.oracle_match(edge.length, de)
        check_decomposition(tp, O, F, inst)
        return [a, b, de, dfm]

    def _pair_3xn(self, inst, verts, table, cs, k, a, b, res):
        tp = self.tp
        O, F = verts[a], verts[b]
        edge, _ = tp.edge_walk_3xn_report(O, F)
        check_walk(tp, edge, "CD_e", inst, O.flows, F.flows)
        bound = inst.n + 2 - k
        require(edge.length <= bound, f"edge3n {edge.length} > {bound}")
        de = table.distance(a, b)
        require(de <= edge.length, f"graph distance {de} > edge3n {edge.length}")
        res.oracle_match(edge.length, de)
        check_decomposition(tp, O, F, inst)
        return [a, b, de]

    def _verify(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["verify", "--suite", "all"])
        rows = json.loads(out.getvalue())
        require(code == 0 and rows and all(r["pass"] for r in rows),
                f"tpwalk verify --suite all exited {code}")


# ------------------------------------------------------------------ wide

WIDE_SHAPES = ((2, 9), (2, 10), (2, 11), (2, 12), (3, 7), (3, 8), (3, 9), (3, 10))
# Pairs per instance. Of the 28 pairs of a batch, ranked by cost, the
# 2x9/3x9 cluster holds ranks 11-17 and 2x12 the top two, so the median
# and the 95th percentile fall inside a cluster, away from the jumps
# between clusters.
WIDE_PAIRS = {2: 2, 3: 5}
WIDE_HIGH = 10 ** 6
COST_HIGH = 1000


class Wide:
    """The polynomial constructions at sizes enumeration cannot reach."""

    name = "wide"

    def __init__(self, tp, cli, seed: int):
        self.tp, self.seed = tp, seed

    def make_batch(self, index: int):
        tp = self.tp
        rng = random.Random(f"wide:{self.seed}:{index}")
        batch = []
        for m, n in WIDE_SHAPES:
            u, v = balanced_margins(rng, m, n, WIDE_HIGH)
            inst = tp.Instance(u, v)
            pairs = []
            for _ in range(WIDE_PAIRS[m]):
                order = rng.sample(range(n), n)
                start = northwest_fill(u, v, order)
                target = start
                while target == start:
                    target = northwest_fill(u, v, rng.sample(range(n), n))
                cost = None
                if m == 2:
                    cost = [[rng.randint(-COST_HIGH, COST_HIGH) for _ in range(n)]
                            for _ in range(2)]
                pairs.append((tp.Assignment(inst, start), tp.Assignment(inst, target), cost))
            batch.append((inst, pairs))
        return batch

    def run_batch(self, index: int, batch, res: BatchResult, mark) -> None:
        for pos, (inst, pairs) in enumerate(batch):
            label = f"{index}/{pos}"
            mark(f"{label}/prep")
            ready = res.unit(label, self._prepare, inst, res)
            if ready is None:
                continue
            prep = ready[1]
            run = self._pair_2xn if inst.m == 2 else self._pair_3xn
            for p, (O, F, cost) in enumerate(pairs):
                mark(f"{label}/{p}")
                res.pair(f"{label}/{p}", prep, run, inst, O, F, cost)
                prep = 0.0

    def _prepare(self, inst, res):
        flag = self.tp.is_nondegenerate(inst)
        require(flag, "is_nondegenerate rejects margins the benchmark checked")
        res.fixed.append([inst.m, inst.n, [str(x) for x in inst.u],
                          [str(x) for x in inst.v], flag])

    def _pair_2xn(self, inst, O, F, cost):
        tp = self.tp
        n = inst.n
        edge, _ = tp.edge_walk_2xn_report(O, F)
        check_walk(tp, edge, "CD_e", inst, O.flows, F.flows)
        require(edge.length <= n, f"edge2n {edge.length} > n = {n}")
        walk = tp.cdfm_walk_2xn(O, F)
        check_walk(tp, walk, "CD_fm", inst, O.flows, F.flows)
        gap = len(support(O.flows) - support(F.flows))
        require(walk.length <= gap, f"cdfm2n {walk.length} > edge distance {gap}")
        mono, _ = tp.monotone_walk_2xn_report(O, cost)
        check_walk(tp, mono, "CD_e", inst, O.flows, None)
        values = [objective(cost, p) for p in mono.points]
        require(all(x <= y for x, y in zip(values, values[1:])),
                "monotone walk lowers the objective")
        best = lp_optimum_value_2xn(inst.u, inst.v, cost)
        require(values[-1] == best, f"monotone walk ends at {values[-1]}, optimum {best}")
        check_decomposition(tp, O, F, inst)
        return [gap, str(best)]

    def _pair_3xn(self, inst, O, F, cost):
        tp = self.tp
        edge, _ = tp.edge_walk_3xn_report(O, F)
        check_walk(tp, edge, "CD_e", inst, O.flows, F.flows)
        bound = inst.n + 2
        require(edge.length <= bound, f"edge3n {edge.length} > n + 2 = {bound}")
        check_decomposition(tp, O, F, inst)
        return [len(support(O.flows) - support(F.flows))]


# ----------------------------------------------------------------- exact

EXACT_SHAPES = ((2, 3), (2, 4), (3, 3), (3, 4))
# Ordered pairs per case. The small cases give a uniform sample of up to
# EXACT_SMALL_PAIRS pairs; they hold the median pair. The perturbed 3x4
# case, whose margins have denominators up to 2^60, gives pairs by graph
# distance: pairs at distance 1 and 2 cost about the same (graph_distance
# dominates), so the 95th percentile sits inside that cluster rather than
# on the step to the few slow pairs above it. Two pairs at distance 3 carry
# the heavy tail of the maximal-step search into wall_s; none lie beyond,
# since one unbounded cdfm_distance takes 1 to 9 s at distance 4 and about
# 14 s at distance 5, so a single draw would swing a whole run.
EXACT_SMALL_PAIRS = {(2, 3): 30, (2, 4): 30, (3, 3): 20}
EXACT_3X4_QUOTA = {1: 12, 2: 16, 3: 2}


class Exact:
    """Exhaustive oracles on perturbed instances with big rational margins."""

    name = "exact"

    def __init__(self, tp, cli, seed: int):
        self.tp, self.seed = tp, seed

    def make_batch(self, index: int):
        tp = self.tp
        rng = random.Random(f"exact:{self.seed}:{index}")
        cases = [(tp.gen_hirsch_sharp(m, n), None) for m, n in EXACT_SHAPES]
        cases.append((tp.gen_example1(), Fraction(1, rng.randint(8, 64))))
        return [(case, eps, rng.getrandbits(32)) for case, eps in cases]

    def run_batch(self, index: int, batch, res: BatchResult, mark) -> None:
        for pos, (case, eps, pair_seed) in enumerate(batch):
            label = f"{index}/{pos}"
            mark(f"{label}/prep")
            ready = res.unit(label, self._prepare, case, eps, res)
            if ready is None:
                continue
            (inst, verts, table, cs, k_crit), prep = ready
            by_dist: dict[int, list] = {}
            for a, b in ordered_pairs(len(verts)):
                by_dist.setdefault(table.distance(a, b), []).append((a, b))
            rng = random.Random(pair_seed)
            if (inst.m, inst.n) == (3, 4):
                quota = EXACT_3X4_QUOTA
            else:
                quota = {None: EXACT_SMALL_PAIRS[inst.m, inst.n]}
                by_dist = {None: [p for group in by_dist.values() for p in group]}
            chosen = []
            for d, count in quota.items():
                group = sorted(by_dist.get(d, []))
                chosen += sorted(rng.sample(group, min(count, len(group))))
            for a, b in chosen:
                mark(f"{label}/{a}-{b}")
                res.pair(f"{label}/{a}-{b}", prep, self._pair,
                         inst, verts, table, cs, k_crit, a, b, res)
                prep = 0.0

    def _prepare(self, case, eps, res):
        tp = self.tp
        if eps is None:
            cert, k = tp.perturb_certified(case)
            want = case.expected["perturbed_min_circuits"]
            require(k == want, f"certified k = {k}, want {want}")
        else:
            cert, k = tp.perturb(case, eps), None
        inst = cert.inst
        m, n = inst.m, inst.n
        verts = tp.enumerate_vertices(inst)
        table = tp.graph_distance_table(inst)
        cs = tp.enumerate_circuits(m, n)
        nondeg = tp.is_nondegenerate(inst)
        k_crit = len(tp.critical_edges(inst)) if nondeg else None
        res.fixed.append([case.provenance, k, len(verts), nondeg, k_crit])
        return inst, verts, table, cs, k_crit

    def _pair(self, inst, verts, table, cs, k_crit, a, b, res):
        tp = self.tp
        O, F = verts[a], verts[b]
        m, n = inst.m, inst.n
        cde = tp.graph_distance(O, F)
        require(cde == table.distance(a, b), "graph_distance disagrees with the table")
        cdfm = tp.cdfm_distance(O, F, circuits=cs)
        require(cdfm is not None, f"no maximal-step walk within m + n = {m + n} steps")
        cd = tp.cd_minimum(O, F, circuits=cs)
        require(cd <= cdfm <= cde, f"hierarchy cd {cd} <= cdfm {cdfm} <= cde {cde} fails")
        if k_crit is not None:
            if m == 2:
                walk = tp.cdfm_walk_2xn(O, F)
                check_walk(tp, walk, "CD_fm", inst, O.flows, F.flows)
                gap = len(support(O.flows) - support(F.flows))
                require(cdfm <= walk.length <= gap,
                        f"cdfm2n {walk.length} outside [{cdfm}, {gap}]")
                res.oracle_match(walk.length, cdfm)
                edge, _ = tp.edge_walk_2xn_report(O, F)
                bound = min(n, n + 1 - k_crit)
            else:
                edge, _ = tp.edge_walk_3xn_report(O, F)
                bound = n + 2 - k_crit
            check_walk(tp, edge, "CD_e", inst, O.flows, F.flows)
            require(cde <= edge.length <= bound,
                    f"edge walk {edge.length} outside [{cde}, {bound}]")
            res.oracle_match(edge.length, cde)
            check_decomposition(tp, O, F, inst)
        return [a, b, cde, cdfm, cd]


WORKLOADS = {w.name: w for w in (Certify, Wide, Exact)}
