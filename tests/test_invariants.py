"""Invariants hold under `python -O`: the library checks them with typed
errors, never with `assert`, which -O strips."""

import ast
from pathlib import Path

import pytest

import sigcalc
from sigcalc import charsig, ecsig
from sigcalc.ecurve import Point
from sigcalc.errors import VerificationFailed

SRC = Path(sigcalc.__file__).resolve().parent


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_lift_ec_instance_checks_the_reductions(monkeypatch):
    monkeypatch.setattr(ecsig, "_reduce_point", lambda point, place: Point(0, 0))
    with pytest.raises(VerificationFailed):
        ecsig.lift_ec_instance(0, 3, Point(1, 2), Point(6, 3), 7, 13, seed=0)


def test_lift_unit_checks_the_residue(monkeypatch):
    report = charsig.lift_unit(17, 31, 5, seed=0).condition_report
    monkeypatch.setattr(charsig, "check_conditions", lambda instance: report)
    monkeypatch.setattr(charsig.CharSignatureInstance, "residue_at_v", lambda self: 0)
    with pytest.raises(VerificationFailed):
        charsig.lift_unit(17, 31, 5, seed=0)
