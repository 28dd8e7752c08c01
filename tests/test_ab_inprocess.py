"""tools/ab_inprocess.py runs a mix on two checkouts in one process."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_inprocess.py"


def run_tool(parent, change, *args):
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change), *args],
                          capture_output=True, text=True, timeout=300)


def test_one_checkout_against_itself():
    done = run_tool(ROOT, ROOT, "--workload", "dlog", "--seed", "0", "--passes", "2",
                    "--limit", "4")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["positions"] == 4 and result["passes"] == 2
    assert set(result["best_ops_per_s"]) == {"parent", "change"}
    assert all(ops > 0 for ops in result["best_ops_per_s"].values())
    assert 0 <= result["change_faster_positions"] <= 4


def test_a_different_answer_fails(tmp_path):
    # a parent whose index calculus answers m + 1 must not pass as equal
    shutil.copytree(ROOT / "src", tmp_path / "src")
    module = tmp_path / "src" / "sigcalc" / "indexcalc.py"
    module.write_text(module.read_text() + (
        "\n_right = index_calculus_dlog\n\n\n"
        "def index_calculus_dlog(p, ell, *args, **kwargs):\n"
        "    return (_right(p, ell, *args, **kwargs) + 1) % ell\n"))
    done = run_tool(tmp_path, ROOT, "--workload", "dlog", "--passes", "1", "--limit", "2")
    assert done.returncode == 1
    assert "answers differ" in done.stderr


def test_different_signature_counters_fail(tmp_path):
    # a parent whose signature search returns the same s after one more
    # duplicate attempt must not pass as equal
    shutil.copytree(ROOT / "src", tmp_path / "src")
    module = tmp_path / "src" / "sigcalc" / "charsig.py"
    module.write_text(module.read_text() + (
        "\n_right = signature_index_calculus\n\n\n"
        "def signature_index_calculus(*args, counters=None, **kwargs):\n"
        "    sig = _right(*args, counters=counters, **kwargs)\n"
        "    if counters is not None:\n"
        "        counters['duplicate'] += 1\n"
        "    return sig\n"))
    done = run_tool(tmp_path, ROOT, "--workload", "signature", "--passes", "1", "--limit", "2")
    assert done.returncode == 1
    assert "answers differ" in done.stderr and "'duplicate'" in done.stderr
    done = run_tool(ROOT, ROOT, "--workload", "signature", "--passes", "1", "--limit", "2")
    assert done.returncode == 0, done.stderr


def test_different_eliminator_rows_fail(tmp_path):
    # a parent whose search reads every relation doubled finds the same
    # s with the same counters, and must still not pass as equal
    shutil.copytree(ROOT / "src", tmp_path / "src")
    module = tmp_path / "src" / "sigcalc" / "charsig.py"
    module.write_text(module.read_text() + (
        "\n_right_start = _BetaSearch.start\n\n\n"
        "def _doubled_start(instance, bound, seed):\n"
        "    from dataclasses import replace\n"
        "    search = _right_start(instance, bound, seed)\n\n"
        "    def read(x0, x1):\n"
        "        rel = search.read(x0, x1)\n"
        "        if isinstance(rel, str):\n"
        "            return rel\n"
        "        return Relation.make({col: 2 * c for col, c in rel.coeffs}, 2 * rel.const,\n"
        "                             instance.ell)\n\n"
        "    return replace(search, read=read)\n\n\n"
        "_BetaSearch.start = _doubled_start\n"))
    done = run_tool(tmp_path, ROOT, "--workload", "signature", "--passes", "1", "--limit", "1")
    assert done.returncode == 1
    assert "answers differ" in done.stderr
    # the same instance, s, m and counters: only the rows differ
    parent, change = done.stderr.split(", change ")
    assert parent.split("parent ")[1].split("}, [")[0] == change.split("}, [")[0]


def test_a_different_ec_answer_fails(tmp_path):
    # a parent whose scan reports every hit's order one higher must not
    # pass as equal
    shutil.copytree(ROOT / "src", tmp_path / "src")
    module = tmp_path / "src" / "sigcalc" / "ecsig.py"
    module.write_text(module.read_text() + (
        "\n_right = scan_torsion_places\n\n\n"
        "def scan_torsion_places(*args):\n"
        "    return [(w, order + 1) for w, order in _right(*args)]\n"))
    args = ("--workload", "ec", "--passes", "1")
    done = run_tool(tmp_path, ROOT, *args)
    assert done.returncode == 1
    assert "answers differ" in done.stderr
    done = run_tool(ROOT, ROOT, *args, "--limit", "3")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["positions"] == 3


@pytest.mark.parametrize("workload, module, lift", [
    ("signature", "charsig", "lift_unit"),
    ("ec", "ecsig", "lift_ec_instance"),
])
def test_a_different_lifted_instance_fails(tmp_path, workload, module, lift):
    # a parent whose lift records the next seed in its instance answers
    # the same everywhere else, and must still not pass as equal
    shutil.copytree(ROOT / "src", tmp_path / "src")
    path = tmp_path / "src" / "sigcalc" / f"{module}.py"
    path.write_text(path.read_text() + (
        f"\n_right = {lift}\n\n\n"
        f"def {lift}(*args, **kwargs):\n"
        "    from dataclasses import replace\n"
        "    instance = _right(*args, **kwargs)\n"
        "    return replace(instance, seed=instance.seed + 1)\n"))
    done = run_tool(tmp_path, ROOT, "--workload", workload, "--passes", "1", "--limit", "1")
    assert done.returncode == 1
    assert "answers differ" in done.stderr and '"seed": ' in done.stderr
