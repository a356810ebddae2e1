"""Record a parent/change comparison of the benchmark as one JSON file.

    python3 bench/record.py --parent DIR --change DIR --out BENCH_<n>.json

DIR is a source checkout with ``perfbench/`` and ``src/``, for example
one made by ``git archive``. For each workload named in the change's
``BENCHMARK.json`` and each seed in ``SEEDS`` and ``HELDOUT``,
``perfbench/run.py --trace 0`` runs once per side, the side that goes
first alternating from seed to seed; the metrics are read from the last
line of its stdout. Then each side gets one traced run (``--trace 1``)
of every workload at ``TRACED_SEED``, which shows the layer the time
went to, one Tier-1 pytest run and the fixed-seed sweeps in ``SWEEPS``,
all timed; each sweep also records whether the two sides printed the
same bytes (``same_stdout``). ``src_lines`` counts each side's
non-blank, non-comment lines of ``src/tpwalk/*.py``, docstrings
included.

For each workload and end-to-end metric the summary gives each side's
median and quartiles over the seeds, and how many pairs the change won
(ties count for neither side). The held-out seed runs last, as the final
pair of each workload, and is kept out of the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")
SEEDS = tuple(range(1, 11))   # the seeds perfbench/digests.json records
HELDOUT = 7919                # perfbench's held-out seed
# A third of BENCHMARK.json's run_seconds: the 66 paired runs then take
# about 20 minutes on two cores.
SECONDS = 10.0
TRACED_SEED = 1
SWEEPS = (
    ["sweep", "--family", "2xn", "--count", "50", "--seed", "0"],
    ["sweep", "--family", "3xn", "--count", "20", "--seed", "0"],
)


def _env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its last JSON line plus the exit status."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no output from {root} {workload} {seed}: {proc.stderr}")
    doc = json.loads(lines[-1])
    return {"exit": proc.returncode, "failed": doc["failed"],
            "attempted": doc["attempted"],
            "metrics": {k: v["value"] for k, v in doc["metrics"].items()}}


def timed(root: Path, argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    start = perf_counter()
    proc = subprocess.run(argv, cwd=root, env=_env(root), capture_output=True,
                          text=True)
    return proc, perf_counter() - start


def src_lines(root: Path) -> int:
    """Non-blank lines of src/tpwalk/*.py that are not # comments."""
    return sum(1 for path in sorted((root / "src" / "tpwalk").glob("*.py"))
               for line in path.read_text().splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, way in better.items():
        sides = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
        sign = 1 if way == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(*sides.values()))
        out[name] = {**{s: quartiles(v) for s, v in sides.items()},
                     "change_wins": wins, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    record = {
        "machine": {"python": platform.python_version(),
                    "platform": platform.platform(), "cpus": os.cpu_count()},
        "seconds_per_run": SECONDS,
        "seeds": SEEDS,
        "heldout_seed": HELDOUT,
        "src_lines": {s: src_lines(roots[s]) for s in SIDES},
        "workloads": {},
    }
    turn = 0
    for spec_w in spec["workloads"]:
        name = spec_w["name"]
        pairs = []
        for seed in (*SEEDS, HELDOUT):
            order = SIDES if turn % 2 == 0 else SIDES[::-1]
            turn += 1
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench(roots[side], name, seed, SECONDS, 0)
            pairs.append(pair)
            print(name, seed, {s: round(pair[s]["metrics"]["wall_s"], 4)
                               for s in SIDES}, file=sys.stderr)
        record["workloads"][name] = {
            "pairs": pairs,
            "summary": summarize(pairs[:-1], better),
        }

    record["traced"] = {"seed": TRACED_SEED, "workloads": {}}
    for spec_w in spec["workloads"]:
        traced = record["traced"]["workloads"][spec_w["name"]] = {}
        for side in SIDES:
            run = bench(roots[side], spec_w["name"], TRACED_SEED, SECONDS, 1)
            run["metrics"] = {k: v for k, v in run["metrics"].items()
                              if k.endswith((".s", ".calls", "self_frac"))}
            traced[side] = run
    record["tier1"] = {}
    for side in SIDES:
        proc, s = timed(roots[side], [sys.executable, "-m", "pytest", "-q",
                                      "-p", "no:cacheprovider",
                                      "--continue-on-collection-errors"])
        last = proc.stdout.strip().splitlines()[-1:]
        record["tier1"][side] = {"exit": proc.returncode, "s": s, "summary": last}
    record["sweeps"] = []
    for sweep in SWEEPS:
        row = {"argv": sweep}
        stdout = {}
        for side in SIDES:
            proc, s = timed(roots[side], [sys.executable, "-m", "tpwalk.cli", *sweep])
            row[side] = {"exit": proc.returncode, "s": s}
            stdout[side] = proc.stdout
        row["same_stdout"] = stdout["parent"] == stdout["change"]
        record["sweeps"].append(row)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
