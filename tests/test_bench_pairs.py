"""tools/bench_pairs.py folds canned sigbench result lines into a BENCH file."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def run_lines(seed, setup, ops, rss, sha, ok=True, commit=None):
    env = {"env": {"seed": seed, "nproc": 2, "python": "3.11.7", "src_sha256": sha,
                   "commit": commit},
           "summary": {"failed_frac": 0.0}, "workload": "ec"}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "setup_s": {"value": setup, "unit": "s"},
        "best_ops_per_s": {"value": ops, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return [json.dumps(env), *([json.dumps(result)] if ok else [])]


def write(path, runs):
    path.write_text("\n".join(line for run in runs for line in run) + "\n")


def test_folds_pairs_into_the_dlog_layout(tmp_path):
    parent, change, out = tmp_path / "p.log", tmp_path / "c.log", tmp_path / "BENCH_ec.json"
    write(parent, [run_lines(0, 0.5, 20.0, 25.0, "aa"), run_lines(1, 0.4, 22.0, 25.2, "aa"),
                   run_lines(2, 0.6, 21.0, 25.1, "aa")])
    # the change wins on ops in pairs 0 and 1; its seed-2 run failed
    write(change, [run_lines(0, 0.5, 30.0, 25.1, "bb"), run_lines(1, 0.3, 33.0, 25.0, "bb"),
                   run_lines(2, 0.5, 1.0, 25.0, "bb", ok=False)])
    assert bench_pairs.main([str(out), "ec", str(parent), str(change)]) == 0
    doc = json.loads(out.read_text())
    assert doc["machine"] == {"nproc": 2, "python": "3.11.7"}
    entry = doc["workloads"]["ec"]
    assert entry["seeds"] == [0, 1, 2] and entry["pairs"] == 3
    assert entry["parent"]["runs"] == 3 and entry["parent"]["failed_runs"] == 0
    assert entry["parent"]["best_ops_per_s"] == {"q1": 20.5, "median": 21.0, "q3": 21.5}
    assert entry["parent"]["src_sha256"] == "aa"
    assert entry["change"]["failed_runs"] == 1
    assert entry["change"]["best_ops_per_s"] == {"q1": 30.75, "median": 31.5, "q3": 32.25}
    assert entry["change_better_in_pairs"] == {
        "setup_s": "1/3", "best_ops_per_s": "2/3", "peak_rss_mb": "1/3"}
    # a second workload joins the same file and keeps the first
    assert bench_pairs.main([str(out), "dlog", str(parent), str(parent)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == {"ec", "dlog"}
    assert doc["workloads"]["dlog"]["change_better_in_pairs"]["best_ops_per_s"] == "0/3"


def test_another_parent_starts_a_fresh_document(tmp_path):
    parent, change, out = tmp_path / "p.log", tmp_path / "c.log", tmp_path / "BENCH_ec.json"
    old = {"what": "an older change", "claim": "its claim", "method": "its method",
           "parent": {"commit": None}, "change": {"commit": "c0"},
           "workloads": {"dlog": {"parent": {"src_sha256": "old"}}}}
    out.write_text(json.dumps(old))
    write(parent, [run_lines(0, 0.5, 20.0, 25.0, "aa")])
    write(change, [run_lines(0, 0.5, 30.0, 25.0, "bb")])
    # no commit recorded: another parent src_sha256 starts afresh
    assert bench_pairs.main([str(out), "ec", str(parent), str(change)]) == 0
    doc = json.loads(out.read_text())
    assert (doc["what"], doc["claim"], doc["change"]) == ("", "", {"commit": None})
    assert "older" not in doc["method"] and set(doc["workloads"]) == {"ec"}
    # a recorded commit decides: the same commit keeps the document
    doc.update(what="this change", parent={"commit": "p1"})
    out.write_text(json.dumps(doc))
    write(parent, [run_lines(0, 0.5, 20.0, 25.0, "zz", commit="p1")])
    assert bench_pairs.main([str(out), "dlog", str(parent), str(change)]) == 0
    doc = json.loads(out.read_text())
    assert doc["what"] == "this change" and set(doc["workloads"]) == {"ec", "dlog"}
    # and another commit starts afresh
    write(parent, [run_lines(0, 0.5, 20.0, 25.0, "zz", commit="p2")])
    assert bench_pairs.main([str(out), "dlog", str(parent), str(change)]) == 0
    doc = json.loads(out.read_text())
    assert doc["what"] == "" and doc["parent"] == {"commit": "p2"}
    assert set(doc["workloads"]) == {"dlog"}


def test_seeds_must_pair_up(tmp_path):
    parent, change = tmp_path / "p.log", tmp_path / "c.log"
    write(parent, [run_lines(0, 0.5, 20.0, 25.0, "aa")])
    write(change, [run_lines(1, 0.5, 20.0, 25.0, "bb")])
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path / "out.json"), "ec", str(parent), str(change)])
