"""Byte-for-byte guard on CLI output.

Each command below was run once and its exit code and stdout stored in
golden/cli.json. Refactors must reproduce them exactly. After a change
that is meant to alter output, re-record with

    PYTHONPATH=src python tests/test_cli_golden.py --record

and review the diff of golden/cli.json.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tpwalk import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli.json"

EX1 = ["--gen", "example1"]
# Input files are named relative to this directory, so the stored argv is
# the same on every machine; run() resolves them.
CASE_3X3 = "golden/marking3x3.json"
CASE_3X9 = "golden/marking3x9.json"
# Degenerate: 14 vertices from 26 feasible bases.
DEG = ["--u", "1,3,4", "--v", "2,3,3"]
# Non-degenerate, drawn by random_instance(Random("golden4x4:1"), 4, 4).
R4X4 = ["--u", "4,13,47,23", "--v", "7,11,35,34"]
COMMANDS = {
    "gen-example1": ["gen", *EX1],
    "vertices-example1": ["vertices", *EX1],
    "adjacency-example1": ["adjacency", *EX1],
    "vertices-134-233": ["vertices", *DEG],
    "adjacency-134-233": ["adjacency", *DEG],
    "vertices-4x4": ["vertices", *R4X4],
    "adjacency-4x4": ["adjacency", *R4X4],
    "diameter-4x4": ["diameter", *R4X4],
    "diameter-coincide3": ["diameter", "--gen", "coincide", "--n", "3"],
    "walk-cdfm": ["walk", *EX1, "--kind", "cdfm"],
    "walk-edge2n": ["walk", *EX1, "--kind", "edge2n"],
    "walk-monotone2n": ["walk", *EX1, "--kind", "monotone2n"],
    "walk-signcompat": ["walk", *EX1, "--kind", "signcompat"],
    "walk-edge3n": ["walk", "--in", CASE_3X3, "--kind", "edge3n"],
    "walk-edge3n-3x9": ["walk", "--in", CASE_3X9, "--kind", "edge3n"],
    "oracle-cde": ["oracle", *EX1, "--kind", "cde"],
    "oracle-cdfm": ["oracle", *EX1, "--kind", "cdfm"],
    "oracle-cd": ["oracle", *EX1, "--kind", "cd"],
    "oracle-cd-k1": ["oracle", *EX1, "--kind", "cd", "--k", "1"],
    "perturb-hirsch33": ["perturb", "--gen", "hirsch_sharp", "--m", "3",
                         "--n", "3", "--eps", "1/1024"],
    "perturb-hirsch33-certify": ["perturb", "--gen", "hirsch_sharp", "--m", "3",
                                 "--n", "3", "--eps", "1/1024", "--certify"],
    "perturb-hirsch34-certify": ["perturb", "--gen", "hirsch_sharp", "--m", "3",
                                 "--n", "4", "--certify"],
    "verify-all": ["verify", "--suite", "all"],
    "verify-lowerbound-deep": ["verify", "--suite", "lowerbound", "--deep"],
    "sweep-2xn": ["sweep", "--family", "2xn", "--count", "50", "--seed", "0"],
    "sweep-3xn": ["sweep", "--family", "3xn", "--count", "20", "--seed", "0"],
}


def run(argv):
    argv = [str(HERE / a) if a.startswith("golden/") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _recorded():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_unchanged(name):
    want = _recorded()[name]
    assert want["argv"] == COMMANDS[name]
    rc, out = run(COMMANDS[name])
    assert rc == want["exit"]
    assert out == want["stdout"]


def _record():
    doc = {}
    for name, argv in sorted(COMMANDS.items()):
        rc, out = run(argv)
        doc[name] = {"argv": argv, "exit": rc, "stdout": out}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
