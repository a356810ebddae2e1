"""Benchmark of the tpwalk package: one seeded workload per run.

    python3 perfbench/run.py --workload certify|wide|exact --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. One closed-loop caller in one process runs batches of
the workload until ``S`` seconds of timed work are done (at least one
batch). Every output is checked; a failed check, an error raised by the
package, or an oracle digest that differs from the one recorded in
``digests.json`` counts as a failed unit, and the run then exits 1.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones:

    setup_s       import time plus the median time to build one batch's inputs
    wall_s        median timed phase of one batch
    pairs_per_s   median over batches of pairs finished per second of timed phase
    pair_p50_ms   median pair latency (a pair also waits for the per-instance
    pair_p95_ms   work before it); sample counts are printed above the JSON
    peak_rss_mb   ru_maxrss of this process

``failed_frac`` is printed with them and carried by the ``attempted`` and
``failed`` fields; it is not a metric because it is 0 when all is well.

With ``--trace 1`` each batch runs twice, first untraced and then on fresh
copies of the same inputs with timing wrappers around the layer functions
(see spans.py). The metrics are then the per-layer ones, per batch, plus
``trace.overhead_frac`` (traced over untraced timed time, minus one). The
spans are written to ``.bench_out/trace-<workload>-<seed>.jsonl``.

DEFAULT_SEED is the seed for day-to-day runs; HELDOUT_SEED is kept out of
tuning and serves only to confirm a claimed gain on a seed the change was
not written against.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, BatchResult  # noqa: E402

DEFAULT_SEED = 1
HELDOUT_SEED = 7919
UNITS = {
    "setup_s": "s", "wall_s": "s", "pairs_per_s": "1/s", "pair_p50_ms": "ms",
    "pair_p95_ms": "ms", "peak_rss_mb": "MB",
}


def import_package():
    """Import tpwalk and tpwalk.cli from this checkout's src directory."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tpwalk
    import tpwalk.cli

    if Path(tpwalk.__file__).resolve().parent.parent != src:
        raise ImportError(f"tpwalk was imported from {tpwalk.__file__}, not {src}")
    return tpwalk, tpwalk.cli


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def one_batch(workload, index: int, mark):
    """Build batch ``index`` (set-up), then run it (timed phase)."""
    mark(f"{index}/setup")
    start = perf_counter()
    batch = workload.make_batch(index)
    made = perf_counter()
    res = BatchResult()
    workload.run_batch(index, batch, res, mark)
    return made - start, perf_counter() - made, res


def run(args) -> int:
    t0 = perf_counter()
    try:
        tp, cli = import_package()
    except ImportError as exc:
        print(f"error: cannot import tpwalk from this checkout: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0

    workload = WORKLOADS[args.workload](tp, cli, args.seed)
    tracer = Tracer() if args.trace else None
    recorded = json.loads((HERE / "digests.json").read_text())
    recorded = recorded.get(args.workload, {}).get(str(args.seed), [])

    plain, traced = [], []   # (set-up s, timed s, result) per batch
    timed = 0.0
    index = 0
    while index == 0 or timed < args.seconds:
        plain.append(one_batch(workload, index, lambda unit: None))
        res = plain[-1][2]
        res.expect(recorded[index] if index < len(recorded) else None, f"batch {index}")
        timed += plain[-1][1]
        if tracer is not None:
            tracer.install(tp)
            try:
                traced.append(one_batch(workload, index, tracer.mark))
            finally:
                tracer.uninstall()
            traced[-1][2].expect(res.digest(), f"batch {index} traced")
            timed += traced[-1][1]
        index += 1

    results = [r for _, _, r in plain + traced]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    errors = [e for r in results for e in r.errors]
    latencies = [x for _, _, r in plain for x in r.latencies]
    pairs = sum(r.pairs for _, _, r in plain)
    tight = sum(r.tight for _, _, r in plain)
    with_oracle = sum(r.with_oracle for _, _, r in plain)
    batch_s = [t for _, t, _ in plain]
    traced_s = [t for _, t, _ in traced]
    digests = [r.digest() for _, _, r in plain]

    e2e = {
        "setup_s": import_s + statistics.median(g for g, _, _ in plain),
        "wall_s": statistics.median(batch_s),
        "pairs_per_s": statistics.median(r.pairs / t for _, t, r in plain),
        "pair_p50_ms": 1e3 * statistics.median(latencies),
        "pair_p95_ms": 1e3 * percentile(latencies, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {args.workload}  seed {args.seed}  batches {index}  "
          f"pairs {pairs}  closed loop, 1 caller")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:12.4f} {UNITS[name]}")
    print(f"  {'failed_frac':<12} {failed / attempted:12.4f} ({failed}/{attempted} units)")
    print(f"  samples: {len(latencies)} pair latencies, {index} batches; "
          f"{sum(1 for x in latencies if x > percentile(latencies, 95))} above p95")
    print(f"digests {args.workload} {args.seed} {json.dumps(digests)}")
    for line in errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    if tracer is None:
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in e2e.items()}
    else:
        batches = len(traced_s)
        values = tracer.per_layer(batches, sum(traced_s))
        values["construct.tight_frac"] = tight / with_oracle if with_oracle else 0.0
        values["trace.overhead_frac"] = sum(traced_s) / sum(batch_s) - 1
        calls = tracer.top_level_shares(sum(traced_s))
        layers: dict[str, float] = {}
        for name, share in calls.items():
            layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + share
        for title, shares in (("layer called", layers), ("function called", calls),
                              ("layer, self time", {
                                  k.split(".")[1]: v for k, v in values.items()
                                  if k.startswith("layer.")})):
            ranked = sorted(shares.items(), key=lambda t: -t[1])
            print(f"share of traced wall by {title}: "
                  + ", ".join(f"{k} {v:.3f}" for k, v in ranked if v >= 0.001))
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.dump(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_metrics()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
