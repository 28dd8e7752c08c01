"""The answer checks accept the program's real answers and abort on
corrupted ones, both as functions and through the whole runner."""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import workloads
from checks import WrongAnswer

ROOT = Path(__file__).resolve().parents[2]


def test_dlog_check_accepts_the_answer_and_rejects_m_plus_one():
    from sigcalc.indexcalc import index_calculus_dlog

    p, ell, g, a = 1021, 5, 10, 800
    m = index_calculus_dlog(p, ell, g, a, 1000, 11)
    checks.check_dlog(p, ell, g, a, m)
    with pytest.raises(WrongAnswer):
        checks.check_dlog(p, ell, g, a, (m + 1) % ell)


def test_subgroup_log_matches_brute_force():
    p, ell, g = 1021, 5, 10
    h = pow(g, (p - 1) // ell, p)
    for a in range(2, 60):
        t = pow(a, (p - 1) // ell, p)
        assert pow(h, checks.subgroup_log(p, ell, g, a), p) == t


@pytest.fixture(scope="module")
def signature_answer():
    from sigcalc.charsig import dl_from_signature, lift_unit, signature_from_dl

    t = inputs.small_height_family(1013, 11, 1)[0]
    inst = lift_unit(t.a, t.p, t.ell, 0, g=t.g)
    oracle = workloads._bsgs_dl_oracle(t.p)
    s = signature_from_dl(inst, oracle).s
    m = dl_from_signature(t.a, t.g, t.p, t.ell, lambda i: signature_from_dl(i, oracle))
    return t, s, m


def test_signature_check_accepts_the_answer(signature_answer):
    t, s, m = signature_answer
    checks.check_signature(t.p, t.ell, t.g, t.a, s, s, m)


def test_signature_check_rejects_a_wrong_signature(signature_answer):
    t, s, m = signature_answer
    with pytest.raises(WrongAnswer):
        checks.check_signature(t.p, t.ell, t.g, t.a, s % t.ell + 1, s, m)


def test_signature_check_rejects_m_plus_one(signature_answer):
    t, s, m = signature_answer
    with pytest.raises(WrongAnswer):
        checks.check_signature(t.p, t.ell, t.g, t.a, s, s, (m + 1) % t.ell)


def test_signature_op_runs_clean_on_the_family():
    for t in inputs.small_height_family(1093, 13, 2):
        workloads.signature_op(t, 7)()


@pytest.fixture(scope="module")
def ec_answer():
    from sigcalc.arith import bsgs_dlog
    from sigcalc.ecsig import (
        coker_dim,
        ecdl_from_signature,
        lift_ec_instance,
        signature_from_ecdl,
    )
    from sigcalc.ecurve import Point, curve_group_ops, local_class

    base = inputs.fixture_curves(ROOT / "src")[1]  # f251l271
    m_seeded = 17
    rt = checks.ec_mul(m_seeded, base.Qt, base.a, base.q)
    inst = lift_ec_instance(base.a, base.b, Point(*base.Qt), Point(*rt), base.q, base.ell, 0)
    ops = curve_group_ops(inst.base_curve)
    sig = signature_from_ecdl(inst, lambda Q, R: bsgs_dlog(Q, R, base.ell, **ops))
    m = ecdl_from_signature(inst, lambda _i: sig)
    cQ = local_class(inst.Q, inst.lifted_curve, base.ell, place=inst.place_u).c
    cR = local_class(inst.R, inst.lifted_curve, base.ell, place=inst.place_u).c
    n = cR * pow(cQ, -1, base.ell) % base.ell
    dims = (coker_dim(inst), coker_dim(inst, [inst.place_v]),
            coker_dim(inst, [inst.place_v, inst.place_v_conj]))
    return base, rt, m_seeded, m, n, sig, dims


def test_ec_check_accepts_the_answer(ec_answer):
    base, rt, m_seeded, m, n, sig, dims = ec_answer
    checks.check_ec(base.q, base.a, base.ell, base.Qt, rt, m_seeded, m, n,
                    sig.alpha, sig.beta, dims)


@pytest.mark.parametrize("corrupt", ["m", "alpha", "dims"])
def test_ec_check_rejects_corrupted_answers(ec_answer, corrupt):
    base, rt, m_seeded, m, n, sig, dims = ec_answer
    m_bad = (m + 1) % base.ell if corrupt == "m" else m
    alpha = (sig.alpha + 1) % base.ell if corrupt == "alpha" else sig.alpha
    dims_bad = (0, 1, 1) if corrupt == "dims" else dims
    with pytest.raises(WrongAnswer):
        checks.check_ec(base.q, base.a, base.ell, base.Qt, rt, m_seeded, m_bad, n,
                        alpha, sig.beta, dims_bad)


def test_certify_rejects_a_curve_whose_order_is_not_ell():
    base = inputs.fixture_curves(ROOT / "src")[0]
    inputs.certify(base)
    with pytest.raises(ValueError):
        inputs.certify(inputs.EcBase(base.name, base.q, base.a, base.b, base.ell + 2, base.Qt))


def _cli_stdout(cmd):
    from sigcalc.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(cmd["argv"])) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def cli_mix():
    return {cmd["kind"]: cmd for cmd in inputs.cli_commands(5, ROOT / "src")}


def test_cli_check_accepts_every_command_kind(cli_mix):
    assert set(cli_mix) == {"dlog", "signature", "roundtrip", "coker", "scan", "verify"}
    for cmd in cli_mix.values():
        checks.check_cli(cmd, 0, _cli_stdout(cmd))


def test_cli_check_rejects_a_nonzero_exit(cli_mix):
    with pytest.raises(WrongAnswer):
        checks.check_cli(cli_mix["dlog"], 3, "")


@pytest.mark.parametrize("kind, corrupt", [
    ("dlog", lambda r: r["outputs"].update(m=str((int(r["outputs"]["m"]) + 1) % 5))),
    ("dlog", lambda r: r["cross_check"].update(agree=False)),
    ("signature", lambda r: r["outputs"].update(m=str(int(r["outputs"]["m"]) + 1))),
    ("roundtrip", lambda r: r["outputs"].update(m=str(int(r["outputs"]["m"]) + 1))),
    ("coker", lambda r: r["outputs"]["dims"].update({"u,u',v,v'": "1"})),
])
def test_cli_check_rejects_corrupted_reports(cli_mix, kind, corrupt):
    report = json.loads(_cli_stdout(cli_mix[kind]))
    corrupt(report)
    with pytest.raises(WrongAnswer):
        checks.check_cli(cli_mix[kind], 0, json.dumps(report))


def test_cli_runner_asserts_identical_stdout_for_a_repeated_command(monkeypatch, cli_mix):
    cmd = cli_mix["dlog"]
    good = _cli_stdout(cmd)
    runner = workloads.CliRunner(ROOT / "src")
    outputs = iter([good, good, good.replace('"seed"', '"seed" ')])
    monkeypatch.setattr(workloads.subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(
        a[0], 0, stdout=next(outputs), stderr=""))
    runner.op(cmd, 0)()
    runner.op(cmd, 0)()
    assert runner.a9_checked == 1
    with pytest.raises(WrongAnswer):
        runner.op(cmd, 0)()


def _checkout(tmp_path, with_src=True):
    shutil.copytree(ROOT / "sigbench", tmp_path / "sigbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(checkout, workload):
    return subprocess.run([sys.executable, "sigbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, timeout=170)


def test_runner_aborts_without_a_result_on_a_wrong_dlog(tmp_path):
    checkout = _checkout(tmp_path)
    indexcalc = checkout / "src" / "sigcalc" / "indexcalc.py"
    indexcalc.write_text(indexcalc.read_text() + (
        "\n_exact_dlog = index_calculus_dlog\n\n\n"
        "def index_calculus_dlog(p, ell, *args, **kwargs):\n"
        "    return (_exact_dlog(p, ell, *args, **kwargs) + 1) % ell\n"))
    proc = _run(checkout, "dlog")
    assert proc.returncode == 1
    assert "wrong answer" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_runner_refuses_a_directory_without_sigcalc_sources(tmp_path):
    proc = _run(_checkout(tmp_path, with_src=False), "ec")
    assert proc.returncode != 0
    assert proc.stdout == ""
