"""Command-line driver: deterministic experiments, instance file I/O,
and machine-readable reports.

Exit codes: 0 ok; a SigcalcError exits with its category's exit_code
(see errors): 1 invariant or cross-check failure, 2 arithmetic
precondition, 3 attempt budget exhausted, 4 instance condition report,
5 heuristic assumption violated.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .arith import bsgs_dlog, canonical_json, dlog_mod_ell, mult_group_ops, multiplicative_order
from .charsig import (
    instance_from_json,
    instance_to_json,
    lift_unit,
    signature_from_dl,
    signature_index_calculus,
)
from .ecsig import (
    coker_dim,
    ec_instance_from_json,
    ec_instance_to_json,
    ecdl_from_signature,
    lift_ec_instance,
    scan_torsion_places,
    signature_from_ecdl,
)
from .ecurve import Point, curve_group_ops, lemma1_suite
from .errors import (
    BadInput,
    BudgetExhausted,
    ConditionFailure,
    InvariantError,
    SigcalcError,
)
from .indexcalc import index_calculus_dlog, reciprocity_suite
from .quadfield import rayrank_suite


@dataclass
class RunReport:
    """Reproducible record of one command invocation."""

    command: str
    inputs: dict
    outputs: dict = field(default_factory=dict)
    cross_check: dict | None = None
    attempts: dict = field(default_factory=dict)
    seed: int = 0
    wall_time_ms: float | None = None

    def to_json(self, timing: bool = False) -> str:
        doc = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "cross_check": self.cross_check,
            "attempts": self.attempts,
            "seed": self.seed,
        }
        if timing:
            doc["wall_time_ms"] = round(self.wall_time_ms or 0.0, 3)
        return canonical_json(doc)


def _finish(report: RunReport, args, t0: float) -> int:
    """Stamp the wall time since t0, emit the report, and return the exit
    code: InvariantError's when the cross-check disagrees, else 0."""
    report.wall_time_ms = 1000 * (time.perf_counter() - t0)
    if args.json:
        print(report.to_json(timing=args.timing))
    else:
        for key, value in report.outputs.items():
            print(f"{key}: {value}")
        if report.cross_check is not None:
            print(f"cross-check: {report.cross_check}")
        if args.timing:
            print(f"wall-time: {report.wall_time_ms:.1f} ms")
    if report.cross_check is not None and not report.cross_check["agree"]:
        return InvariantError.exit_code
    return 0


# ---------------------------------------------------------------------------
# dlog


def cmd_dlog(args) -> int:
    p, ell, g, a = args.p, args.ell, args.g, args.a
    t0 = time.perf_counter()
    report = RunReport(
        "dlog",
        {"p": p, "ell": ell, "g": g, "a": a, "method": args.method, "B": args.B},
        seed=args.seed,
    )
    if args.method == "bsgs":
        # m is determined modulo the order of g, which divides p - 1
        order = multiplicative_order(g, p)
        m = bsgs_dlog(g, a % p, order, **mult_group_ops(p))
        report.outputs = {"m": m, "modulus": order}
    else:
        m = index_calculus_dlog(p, ell, g, a, args.B, args.seed, counters=report.attempts)
        report.outputs = {"m": m, "modulus": ell}
        if not args.no_verify:
            check = dlog_mod_ell(g, a, p, ell)
            report.cross_check = {"bsgs_m": check, "agree": check == m}
    return _finish(report, args, t0)


# ---------------------------------------------------------------------------
# signature (multiplicative)


@contextmanager
def _malformed(source: str):
    """Whatever a parser trips on in a malformed document is BadInput."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # ValueError covers bad JSON and bad numbers
        raise BadInput(f"malformed {source}: {exc!r}") from None


def _read_instance(path: str, parse):
    """parse(text) of an instance file; an unreadable, non-UTF-8 or
    malformed file is BadInput."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise BadInput(f"cannot read instance file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise BadInput(f"instance file {path!r} is not UTF-8: {exc.reason}") from None
    with _malformed(f"instance file {path!r}"):
        return parse(text)


def _write_instance(path: str, text: str) -> None:
    """Write an instance file; an unwritable path is BadInput."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadInput(f"cannot write instance file {path!r}: {exc.strerror}") from None


def _load_char_instance(args):
    if args.instance is not None:
        return _read_instance(args.instance, instance_from_json)
    try:
        p, ell, g, a = (int(t) for t in args.lift.split(","))
    except ValueError:
        raise BadInput(f"--lift needs four integers p,ell,g,a, got {args.lift!r}") from None
    return lift_unit(a, p, ell, args.seed, g=g)


def cmd_signature(args) -> int:
    t0 = time.perf_counter()
    instance = _load_char_instance(args)
    report = RunReport(
        "signature",
        {
            "p": instance.p, "ell": instance.ell, "g": instance.g,
            "a": instance.a, "D": instance.K.D, "method": args.method, "B": args.B,
        },
        seed=args.seed,
    )
    if args.save_instance is not None:
        _write_instance(args.save_instance, instance_to_json(instance))
    outputs = {"conditions": instance.condition_report.as_dict()}
    if args.method in ("dl-oracle", "both"):
        sig = signature_from_dl(
            instance, lambda g, a: dlog_mod_ell(g, a, instance.p, instance.ell))
        outputs["s_dl_oracle"] = sig.s
        outputs["m"] = sig.m
        outputs["y"] = sig.y
    if args.method in ("index", "both"):
        sig_ic = signature_index_calculus(instance, args.B, args.seed,
                                          counters=report.attempts)
        outputs["s_index"] = sig_ic.s
    if args.method == "both":
        report.cross_check = {"agree": outputs["s_dl_oracle"] == outputs["s_index"]}
    report.outputs = outputs
    return _finish(report, args, t0)


# ---------------------------------------------------------------------------
# ec


def load_fixture(name: str) -> dict:
    """The document of a shipped fixture, named by the stem of its file
    in sigcalc/fixtures (e.g. f7l13); any other name is BadInput."""
    from importlib import resources  # deferred: only the ec commands need it

    fixtures = resources.files("sigcalc.fixtures")
    if f"{name}.json" not in {entry.name for entry in fixtures.iterdir()}:
        raise BadInput(f"unknown fixture {name!r}")
    return json.loads(fixtures.joinpath(f"{name}.json").read_text())


def _lift_fixture(name: str, seed: int):
    with _malformed(f"fixture {name!r}"):
        doc = load_fixture(name)
        a, b, p, ell = (int(doc[k]) for k in ("a", "b", "p", "ell"))
        Qt, Rt = (Point(int(doc[k][0]), int(doc[k][1])) for k in ("Qt", "Rt"))
    return lift_ec_instance(a, b, Qt, Rt, p, ell, seed)


def _ec_instance_from_args(args):
    if args.instance is not None:
        return _read_instance(args.instance, ec_instance_from_json)
    return _lift_fixture(args.fixture, args.seed)


def cmd_ec(args) -> int:
    t0 = time.perf_counter()
    instance = _ec_instance_from_args(args)
    if args.save_instance is not None:
        _write_instance(args.save_instance, ec_instance_to_json(instance))
    report = RunReport(
        f"ec-{args.subcommand}",
        {
            "p": instance.p, "ell": instance.ell, "a": instance.a,
            "b_r": instance.b_r, "D": instance.K.D,
        },
        seed=args.seed,
    )
    if args.subcommand == "roundtrip":
        ops = curve_group_ops(instance.base_curve)
        m_bsgs = bsgs_dlog(instance.Qt, instance.Rt, instance.ell, **ops)
        sig = signature_from_ecdl(instance, lambda _Qb, _Rb: m_bsgs)
        m = ecdl_from_signature(instance, lambda _inst: sig)
        report.outputs = {"alpha": sig.alpha, "beta": sig.beta, "m": m}
        report.cross_check = {"bsgs_m": m_bsgs, "agree": m == m_bsgs % instance.ell}
    elif args.subcommand == "coker":
        dims = {
            "u,u'": coker_dim(instance),
            "u,u',v": coker_dim(instance, [instance.place_v]),
            "u,u',v,v'": coker_dim(
                instance, [instance.place_v, instance.place_v_conj]),
        }
        report.outputs = {"dims": dims}
        expected = {"u,u'": 0, "u,u',v": 1, "u,u',v,v'": 2}
        report.cross_check = {"agree": dims == expected}
    else:  # scan
        hits = scan_torsion_places(instance.lifted_curve, instance.K,
                                   instance.ell, args.B)
        report.outputs = {
            "B": args.B,
            "hits": [
                {"q": w.q, "splitting": w.splitting,
                 "root": w.root_label if w.root_label is not None else "",
                 "order": order}
                for w, order in hits
            ],
        }
    return _finish(report, args, t0)


# ---------------------------------------------------------------------------
# verify


# the options each suite reads, and their values when not given; rayrank
# checks at most _RAYRANK_FIELDS fields, so under --suite all the default
# 100 trials check 40 of them
_SUITE_OPTIONS = {"reciprocity": ("trials", "p", "ell"), "rayrank": ("trials",), "lemma1": ()}
_VERIFY_DEFAULTS = {"trials": 100, "p": 31, "ell": 5}
_RAYRANK_FIELDS = 40


def cmd_verify(args) -> int:
    selected = list(_SUITE_OPTIONS) if args.suite == "all" else [args.suite]
    read = {option for suite in selected for option in _SUITE_OPTIONS[suite]}
    given = {option: getattr(args, option) for option in _VERIFY_DEFAULTS
             if getattr(args, option) is not None}
    unread = sorted(set(given) - read)
    if unread:
        raise BadInput(f"--suite {args.suite} reads none of "
                       + ", ".join(f"--{option}" for option in unread))
    trials, p, ell = {**_VERIFY_DEFAULTS, **given}.values()
    if trials < 1:
        raise BadInput(f"--trials must be at least 1, got {trials}")
    if "rayrank" in selected and given.get("trials", 0) > _RAYRANK_FIELDS:
        raise BadInput(f"rayrank checks at most {_RAYRANK_FIELDS} fields, got --trials {trials}")

    def lemma1_rows():
        instance = _lift_fixture("f7l13", args.seed)
        return lemma1_suite(instance.lifted_curve, instance.K, instance.ell, 500)

    suites = {
        "reciprocity": lambda: reciprocity_suite(p, ell, trials, args.seed),
        "rayrank": lambda: rayrank_suite(min(trials, _RAYRANK_FIELDS)),
        "lemma1": lemma1_rows,
    }
    failures = []
    for suite in selected:
        for row in list(suites[suite]()):  # a suite that raises prints no row
            doc = {"suite": suite, **row}
            print(canonical_json(doc))
            if not row["ok"]:
                failures.append(doc)
    print(canonical_json({"suite": args.suite, "failures": len(failures)}))
    if failures:
        print(canonical_json({"counterexample": failures[0]}), file=sys.stderr)
        return InvariantError.exit_code
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigcalc",
        description="signature calculus experiments at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0,
                        help="64-bit master seed (default 0)")
        sp.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
        sp.add_argument("--timing", action="store_true",
                        help="include wall time (breaks byte-reproducibility)")

    sp = sub.add_parser("dlog", help="discrete log in F_p^*")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--method", choices=["bsgs", "index"], default="bsgs")
    sp.add_argument("--B", type=int, default=1000)
    sp.add_argument("--no-verify", action="store_true",
                    help="skip the index method's baby-step giant-step cross-check "
                         "in the order-ell subgroup (it costs about sqrt(ell) steps)")
    common(sp)
    sp.set_defaults(func=cmd_dlog)

    sp = sub.add_parser("signature", help="ramification signature of a lifted unit")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--instance", help="instance JSON file")
    group.add_argument("--lift", help="p,ell,g,a to lift")
    sp.add_argument("--method", choices=["dl-oracle", "index", "both"],
                    default="dl-oracle")
    sp.add_argument("--B", type=int, default=80)
    sp.add_argument("--save-instance", help="write the instance JSON here")
    common(sp)
    sp.set_defaults(func=cmd_signature)

    sp = sub.add_parser("ec", help="homogeneous-space signature experiments")
    sp.add_argument("subcommand", choices=["roundtrip", "coker", "scan"])
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--fixture", help="named fixture, e.g. f7l13")
    group.add_argument("--instance", help="instance JSON file")
    sp.add_argument("--B", type=int, default=100, help="scan bound")
    sp.add_argument("--save-instance", help="write the instance JSON here")
    common(sp)
    sp.set_defaults(func=cmd_ec)

    sp = sub.add_parser("verify", help="run an invariant suite")
    sp.add_argument("--suite", choices=["reciprocity", "rayrank", "lemma1", "all"],
                    required=True)
    sp.add_argument("--trials", type=int,
                    help="reciprocity trials (default 100), rayrank fields (at most 40)")
    sp.add_argument("--p", type=int, help="reciprocity prime (default 31)")
    sp.add_argument("--ell", type=int, help="reciprocity degree (default 5)")
    common(sp)
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SigcalcError as exc:
        doc = {"error": type(exc).__name__}
        if isinstance(exc, ConditionFailure):
            doc["report"] = exc.report.as_dict()
        else:
            doc["detail"] = str(exc)
            if isinstance(exc, BudgetExhausted):
                doc["counters"] = exc.counters
        print(canonical_json(doc), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
