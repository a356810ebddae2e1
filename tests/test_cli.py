import csv
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tpwalk import (
    ResourceLimitError,
    UnreachableCaseError,
    Walk,
    cli,
)


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(args)
    return rc, out.getvalue(), err.getvalue()


def test_gen_payload():
    rc, out, _ = run(["gen", "--gen", "example1"])
    assert rc == 0
    doc = json.loads(out)
    assert sorted(doc) == ["F", "O", "expected", "instance", "provenance"]
    assert doc["instance"] == {"m": 2, "n": 3, "u": ["3", "3"], "v": ["2", "2", "2"]}
    assert doc["O"] == [["2", "1", "0"], ["0", "1", "2"]]


def test_gen_requires_generator():
    rc, _, err = run(["gen", "--u", "9,7,3", "--v", "8,6,5"])
    assert rc == 2
    assert "needs --gen" in err


def test_gen_file_feeds_in(tmp_path):
    path = tmp_path / "case.json"
    rc, _, _ = run(["gen", "--gen", "example1", "--out", str(path)])
    assert rc == 0
    rc, out, _ = run(["walk", "--in", str(path), "--kind", "cdfm"])
    assert rc == 0
    assert json.loads(out)["length"] == 1
    rc, out, _ = run(["oracle", "--in", str(path), "--kind", "cde"])
    assert rc == 0
    assert json.loads(out)["value"] == 3


def test_vertices_csv(tmp_path):
    path = tmp_path / "verts.csv"
    rc, _, _ = run(["vertices", "--gen", "example1", "--out", str(path)])
    assert rc == 0
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 6
    assert set(rows[0]) == {"index", "y1_1", "y1_2", "y1_3", "y2_1", "y2_2", "y2_3"}


def test_adjacency_rows():
    rc, out, _ = run(["adjacency", "--gen", "example1"])
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert all(row["a"] < row["b"] for row in rows)


def test_diameter_row():
    rc, out, _ = run(["diameter", "--gen", "coincide", "--n", "3"])
    assert rc == 0
    (row,) = json.loads(out)
    assert row == {
        "m": 2, "n": 3, "diameter": 2, "critical_edges": 2,
        "hirsch_bound": 2, "pass": True,
    }
    # k = 2 above, where m+n-1-k and the edge-walk bound min(n, n+1-k)
    # agree. Here k = 0: diameter reports m+n-1-k = 4, not 3.
    rc, out, _ = run(["diameter", "--gen", "example1"])
    assert rc == 0
    (row,) = json.loads(out)
    assert row == {
        "m": 2, "n": 3, "diameter": 3, "critical_edges": 0,
        "hirsch_bound": 4, "pass": True,
    }


@pytest.mark.parametrize(
    "kind,length", [("cdfm", 1), ("edge2n", 3), ("signcompat", 1)]
)
def test_walk_kinds(kind, length):
    rc, out, _ = run(["walk", "--gen", "example1", "--kind", kind])
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["valid"]
    assert doc["length"] == length


def test_walk_monotone_with_cost(tmp_path):
    cost = tmp_path / "cost.json"
    cost.write_text(json.dumps([[0, 1, 2], [2, 1, 0]]))
    rc, out, _ = run(
        ["walk", "--gen", "example1", "--kind", "monotone2n", "--cost", str(cost)]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["length"] == 3


def test_walk_with_explicit_endpoints(tmp_path):
    src = tmp_path / "from.json"
    dst = tmp_path / "to.json"
    src.write_text(json.dumps([["2", "1", "0"], ["0", "1", "2"]]))
    dst.write_text(json.dumps([["0", "1", "2"], ["2", "1", "0"]]))
    rc, out, _ = run(
        ["walk", "--u", "3,3", "--v", "2,2,2", "--kind", "cdfm",
         "--from", str(src), "--to", str(dst)]
    )
    assert rc == 0
    assert json.loads(out)["length"] == 1


@pytest.mark.parametrize("kind,value", [("cde", 3), ("cdfm", 1)])
def test_oracle_values(kind, value):
    rc, out, _ = run(["oracle", "--gen", "example1", "--kind", kind])
    assert rc == 0
    assert json.loads(out)["value"] == value


def test_oracle_cde_refuses_a_non_vertex(tmp_path):
    mid = tmp_path / "mid.json"
    mid.write_text(json.dumps([["3/2", "3/2", "0"], ["1/2", "1/2", "2"]]))
    rc, out, err = run(["oracle", "--gen", "example1", "--kind", "cde",
                        "--from", str(mid)])
    assert (rc, out) == (2, "")
    assert err == "error: the point is not a vertex of this set\n"


def test_oracle_cd_with_k():
    rc, out, _ = run(["oracle", "--gen", "example1", "--kind", "cd", "--k", "1"])
    assert rc == 0
    assert json.loads(out)["value"] is True


def test_perturb_command():
    rc, out, _ = run(
        ["perturb", "--gen", "hirsch_sharp", "--m", "2", "--n", "3",
         "--eps", "1/1024"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["min_circuits"] == 2
    assert doc["certified"] is False


def test_perturb_certify():
    rc, out, _ = run(
        ["perturb", "--gen", "hirsch_sharp", "--m", "2", "--n", "3", "--certify"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["certified"] is True and doc["min_circuits"] == 2


@pytest.mark.parametrize("suite", ["hierarchy", "monotone", "hirsch"])
def test_verify_suites(suite):
    rc, out, _ = run(["verify", "--suite", suite])
    assert rc == 0
    assert all(row["pass"] for row in json.loads(out))


def test_sweep_both_families():
    rc, out, _ = run(["sweep", "--family", "2xn", "--count", "2", "--pairs", "4"])
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 2 and all(row["pass"] for row in rows)
    rc, out, _ = run(
        ["sweep", "--family", "3xn", "--count", "1", "--pairs", "4", "--seed", "7"]
    )
    assert rc == 0
    assert all(row["pass"] for row in json.loads(out))


@pytest.mark.parametrize("count", [1, 2, 3, 7, 40])
@pytest.mark.parametrize("cap", [1, 5, 30, 2000])
def test_sweep_pairs_sampled_by_index(count, cap):
    for seed in range(5):
        # The former sampler: list every ordered pair, then sample the list.
        old, new = random.Random(seed), random.Random(seed)
        pairs = [(a, b) for a in range(count) for b in range(count) if a != b]
        if len(pairs) > cap:
            pairs = sorted(old.sample(pairs, cap))
        assert cli._sample_pairs(new, count, cap) == pairs
        assert new.random() == old.random()


def test_edge2n_bound_beyond_the_tree_cap(tmp_path):
    # 2^21 * 22 spanning trees, above the default vertex-enumeration cap.
    u, v = ["21/2", "23/2"], ["1"] * 22
    # The northwest corner, and the same fill with the columns reversed.
    O = [["1"] * 10 + ["1/2"] + ["0"] * 11, ["0"] * 10 + ["1/2"] + ["1"] * 11]
    F = [row[::-1] for row in O]
    case = tmp_path / "case.json"
    case.write_text(json.dumps({"instance": {"u": u, "v": v}, "O": O, "F": F}))
    rc, out, err = run(["walk", "--in", str(case), "--kind", "edge2n"])
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["bound"] == 22 and doc["valid"] and doc["pass"]


@pytest.mark.parametrize("family,m", [("2xn", "3"), ("3xn", "2")])
def test_sweep_rejects_conflicting_rows(family, m):
    rc, out, err = run(["sweep", "--family", family, "--m", m, "--count", "1"])
    assert (rc, out) == (2, "")
    assert "conflicts with --family" in err


@pytest.mark.parametrize("args", [
    ["gen", "--gen", "coincide", "--m", "5", "--n", "3"],
    ["gen", "--gen", "diameter_n", "--m", "3"],
    ["walk", "--gen", "example1", "--m", "4", "--kind", "cdfm"],
])
def test_two_row_generators_reject_other_rows(args):
    rc, out, err = run(args)
    assert (rc, out) == (2, "")
    assert "conflicts with --gen" in err


def test_two_row_generators_accept_two_rows():
    assert run(["gen", "--gen", "coincide", "--m", "2"]) == run(
        ["gen", "--gen", "coincide"])


def test_sweep_accepts_matching_rows():
    rc, out, _ = run(["sweep", "--family", "3xn", "--m", "3", "--count", "1",
                      "--pairs", "2"])
    assert rc == 0
    assert [row["m"] for row in json.loads(out)] == [3]


@pytest.mark.parametrize("command", [
    ["vertices", "--u", "4,4,4", "--v", "3,3,3,3"],
    ["sweep", "--family", "3xn", "--n", "4", "--count", "1", "--pairs", "2"],
])
def test_cap_trees_is_honoured(command):
    # A 3x4 instance has 3^3 * 4^2 = 432 spanning trees.
    rc, out, err = run([*command, "--cap-trees", "10"])
    assert (rc, out) == (2, "")
    assert "432 spanning trees exceeds cap 10" in err


def test_sweep_parallel_matches_serial():
    rc1, out1, _ = run(
        ["sweep", "--family", "2xn", "--count", "2", "--pairs", "3", "--seed", "5"]
    )
    rc2, out2, _ = run(
        ["sweep", "--family", "2xn", "--count", "2", "--pairs", "3", "--seed", "5",
         "--workers", "2"]
    )
    assert rc1 == rc2 == 0
    assert json.loads(out1) == json.loads(out2)


def test_sweep_revalidates_walks(monkeypatch):
    construct = cli.edge_walk_2xn_report

    def corrupted(O, F):
        # Double the first step: same length, but it overshoots into a
        # negative flow, so only revalidation can catch it.
        walk, trace = construct(O, F)
        g, a = walk.steps[0]
        start = walk.points[0]
        bad = Walk(walk.kind, start, ((g, 2 * a),))
        return bad, trace

    monkeypatch.setattr(cli, "edge_walk_2xn_report", corrupted)
    rc, out, _ = run(["sweep", "--family", "2xn", "--count", "1", "--pairs", "2",
                      "--workers", "1"])
    assert rc == 1
    (row,) = json.loads(out)
    assert row["max_length"] <= row["bound"] and row["pass"] is False


WALK_IN = ["walk", "--in", "{}", "--kind", "cdfm"]


@pytest.mark.parametrize("doc,args", [
    (5, ["walk", "--gen", "example1", "--kind", "monotone2n", "--cost", "{}"]),
    (5, ["walk", "--u", "3,3", "--v", "2,2,2", "--kind", "cdfm", "--from", "{}",
         "--to", "{}"]),
    ({"u": 5, "v": [2, 2, 2]}, WALK_IN),
    (5, WALK_IN),
    ([1, 2], WALK_IN),
    ("abc", WALK_IN),
    (5, ["vertices", "--in", "{}"]),
    ([1, 2], ["vertices", "--in", "{}"]),
    ("abc", ["vertices", "--in", "{}"]),
    ({"instance": [1, 2]}, ["vertices", "--in", "{}"]),
    ({"u": [True, 2], "v": [1, 2]}, ["vertices", "--in", "{}"]),
    ({"u": "33", "v": "222"}, ["vertices", "--in", "{}"]),
])
def test_malformed_json_is_a_usage_error(tmp_path, doc, args):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run([a.format(path) for a in args])
    assert (rc, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("args", [
    ["gen", "--gen", "coincide", "--n", "0"],
    ["gen", "--gen", "hirsch_sharp", "--m", "0", "--n", "3"],
    ["sweep", "--family", "2xn", "--n", "0", "--count", "1"],
])
def test_explicit_zero_size_is_kept(args):
    rc, out, err = run(args)
    assert (rc, out) == (2, "")
    assert err.startswith("error:")


def test_conflicting_sources_fail():
    rc, _, err = run(["oracle", "--gen", "example1", "--u", "3,3", "--v", "2,2,2",
                      "--kind", "cde"])
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize("exc,code", [
    (UnreachableCaseError("invariant broke"), 3),
    (ResourceLimitError("cap hit"), 2),
])
def test_failure_classes_exit_codes(monkeypatch, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "gen", fail)
    rc, out, err = run(["gen", "--gen", "example1"])
    assert (rc, out) == (code, "")
    assert str(exc) in err
    assert ("report" in err) == (code == 3)


@pytest.mark.parametrize("args", [
    ["vertices", "--u", "1/0,1", "--v", "1,1"],
    ["perturb", "--gen", "example1", "--eps", "1/0"],
])
def test_unreadable_rational_is_an_input_error(args):
    proc = subprocess.run([sys.executable, "-m", "tpwalk.cli", *args],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: cannot read a rational from '1/0'\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tpwalk.cli", "oracle", "--gen", "example1",
         "--kind", "cde"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 3
