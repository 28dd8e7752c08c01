"""The four workloads: seeded set-up and one op each.

An op calls sigcalc's public functions exactly as a user would and
returns a check of its answer by checks.py.  A SigcalcError leaves the
op as a typed failure; a WrongAnswer aborts the whole benchmark.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs

# A search that ends without full rank or within its budget is re-seeded
# and run again, as a user of `sigcalc dlog --method index` would; the
# retries are reported by type and their time stays in the op.
RETRY_ERRORS = ("BudgetExhausted", "RankDeficient")
MAX_TRIES = 3


class CliExit(Exception):
    """A `sigcalc` command exited nonzero: a failed cli op."""

    def __init__(self, code: int):
        super().__init__(f"exit {code}")


@dataclass
class Workload:
    """A seeded mix of ops, run in order and over again until time is up.

    items holds one fully prepared input per position of the mix, so a
    position repeats identical work.  op(item, seed) calls sigcalc and
    returns a check of the answer; the runner times the call and runs
    the check after the clock stops.  op raises SigcalcError (or
    CliExit) when the op fails.
    """

    name: str
    items: list
    op: object  # op(item, seed) -> check(); check() raises checks.WrongAnswer


def _dlog_op(t: inputs.DlogTarget, seed: int):
    from sigcalc.indexcalc import index_calculus_dlog

    m = index_calculus_dlog(t.p, t.ell, t.g, t.a, inputs.DLOG_BOUND, seed)
    return lambda: checks.check_dlog(t.p, t.ell, t.g, t.a, m)


def _bsgs_dl_oracle(p: int):
    from sigcalc.arith import bsgs_dlog, mult_group_ops

    ops = mult_group_ops(p)
    return lambda g, a: bsgs_dlog(g, a, p - 1, **ops)


def signature_op(t: inputs.SigTarget, seed: int):
    """Lift, index-calculus signature, dl-oracle signature, then m back."""
    from sigcalc.charsig import (
        dl_from_signature,
        lift_unit,
        signature_from_dl,
        signature_index_calculus,
    )

    inst = lift_unit(t.a, t.p, t.ell, seed, g=t.g)
    s_index = signature_index_calculus(inst, inputs.SIGNATURE_BOUND, seed,
                                       max_attempts=inputs.SIGNATURE_BUDGET)
    oracle = _bsgs_dl_oracle(t.p)
    s_oracle = signature_from_dl(inst, oracle)
    m = dl_from_signature(t.a, t.g, t.p, t.ell,
                          lambda i: signature_from_dl(i, oracle), seed=seed)
    return lambda: checks.check_signature(t.p, t.ell, t.g, t.a, s_index.s, s_oracle.s, m)


def _ec_op(t: inputs.EcTarget, seed: int):
    from sigcalc.arith import bsgs_dlog
    from sigcalc.ecsig import (
        coker_dim,
        ecdl_from_signature,
        lift_ec_instance,
        scan_torsion_places,
        signature_from_ecdl,
    )
    from sigcalc.ecurve import Point, curve_group_ops, local_class

    base = t.base
    inst = lift_ec_instance(base.a, base.b, Point(*base.Qt), Point(*t.Rt), base.q, base.ell,
                            seed)
    ops = curve_group_ops(inst.base_curve)
    sig = signature_from_ecdl(inst, lambda Qb, Rb: bsgs_dlog(Qb, Rb, base.ell, **ops))
    m = ecdl_from_signature(inst, lambda _inst: sig)
    cQ = local_class(inst.Q, inst.lifted_curve, base.ell, place=inst.place_u).c
    cR = local_class(inst.R, inst.lifted_curve, base.ell, place=inst.place_u).c
    n = cR * pow(cQ, -1, base.ell) % base.ell
    dims = (coker_dim(inst), coker_dim(inst, [inst.place_v]),
            coker_dim(inst, [inst.place_v, inst.place_v_conj]))
    hits = scan_torsion_places(inst.lifted_curve, inst.K, base.ell, inputs.EC_SCAN_BOUND)

    def check():
        checks.check_ec(base.q, base.a, base.ell, base.Qt, t.Rt, t.m, m, n,
                        sig.alpha, sig.beta, dims)
        checks.check_scan(hits, base.ell, inputs.EC_SCAN_BOUND)

    return check


class CliRunner:
    """Runs `python -m sigcalc` one call at a time and asserts A9: a
    command repeated with the same seed prints byte-identical stdout."""

    def __init__(self, src: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.first_stdout: dict[tuple, str] = {}
        self.a9_checked = 0

    def op(self, cmd: dict, seed: int):
        """One call; the seed is already in cmd's argv."""
        proc = subprocess.run([sys.executable, "-m", "sigcalc", *cmd["argv"]],
                              capture_output=True, text=True, env=self.env)
        if proc.returncode != 0:
            raise CliExit(proc.returncode)
        return lambda: self.check(cmd, proc.stdout)

    def check(self, cmd: dict, stdout: str) -> None:
        checks.check_cli(cmd, 0, stdout)
        key = tuple(cmd["argv"])
        if key not in self.first_stdout:
            self.first_stdout[key] = stdout
        elif self.first_stdout[key] != stdout:
            raise checks.WrongAnswer(f"A9: stdout of {' '.join(key)} changed "
                                     "between two calls with the same seed")
        else:
            self.a9_checked += 1

    def sigcalc_file(self) -> str:
        proc = subprocess.run([sys.executable, "-c", "import sigcalc; print(sigcalc.__file__)"],
                              capture_output=True, text=True, env=self.env, check=True)
        return proc.stdout.strip()


def cli_inprocess(cmd: dict, seed: int = 0):
    """One command through sigcalc.cli.main in this process; its stdout
    gets the same checks as a subprocess call."""
    from sigcalc.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(cmd["argv"]))
    if code != 0:
        raise CliExit(code)
    return lambda: checks.check_cli(cmd, code, out.getvalue())


def build(name: str, seed: int, src: Path) -> Workload:
    """Set-up: the seeded mix, every input of every op prepared."""
    if name == "dlog":
        items, op = inputs.dlog_targets(seed), _dlog_op
    elif name == "signature":
        items, op = inputs.signature_targets(seed), signature_op
    elif name == "ec":
        items, op = inputs.ec_targets(seed, src), _ec_op
    elif name == "cli":
        # in-process here; the timed run swaps in a CliRunner's op
        items, op = inputs.cli_commands(seed, src), cli_inprocess
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, items, op)
