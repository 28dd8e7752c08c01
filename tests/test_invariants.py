"""Invariants hold under `python -O`: the library checks them with typed
errors, never with `assert`, which -O strips.  And every module-level
name of the library is used by the library (or by the benchmark)."""

import ast
import re
from pathlib import Path

import pytest

import sigcalc
from sigcalc import charsig, ecsig
from sigcalc.ecurve import Point
from sigcalc.errors import VerificationFailed

SRC = Path(sigcalc.__file__).resolve().parent
SIGBENCH = Path(__file__).resolve().parents[1] / "sigbench"


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _attribute_reads(trees) -> set[str]:
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_library_has_no_test_only_names():
    # a module-level function or class, or a non-dunder method or
    # property of a module-level class, that nothing in src/ refers to
    # (its definition and __all__'s string aside) serves the tests alone:
    # it belongs in tests/, unless the benchmark names it; so does an
    # annotated field of a module-level class that nothing in src/ reads
    # as an attribute, unless the benchmark reads it
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))]
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (*functions, ast.ClassDef))}
    defined |= {item.name for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)
                for item in node.body
                if isinstance(item, functions) and not re.fullmatch(r"__\w+__", item.name)}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    bench = "\n".join(path.read_text(encoding="utf-8") for path in SIGBENCH.rglob("*.py"))
    # today the benchmark names dl_from_signature, ec_add and place_valuations
    assert sorted(name for name in defined - used if not re.search(rf"\b{name}\b", bench)) == []
    fields = {item.target.id for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    bench_trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SIGBENCH.rglob("*.py")]
    # today the benchmark reads SolveResult.rank and .nullity
    assert sorted(fields - _attribute_reads(trees) - _attribute_reads(bench_trees)) == []


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
