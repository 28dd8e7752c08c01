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
from dataclasses import dataclass, field

from .arith import bsgs_dlog, is_prime, jacobi, mult_group_ops, primes_up_to
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
from .ecurve import Curve, Point, curve_group_ops, ec_scalar_mul, h1_local_dim
from .errors import (
    BadInput,
    BudgetExhausted,
    ConditionFailure,
    InvariantError,
    OutOfScope,
    SigcalcError,
)
from .indexcalc import index_calculus_dlog, rational_character_pairing
from .quadfield import ray_class_ell_rank, rayrank_fields, split_places
from .seeds import rng_for

EXIT_OK = 0
EXIT_INVARIANT = InvariantError.exit_code


def _stringify(obj):
    """Numbers become decimal strings so reports never lose precision."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    return obj


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
            "inputs": _stringify(self.inputs),
            "outputs": _stringify(self.outputs),
            "cross_check": _stringify(self.cross_check) if self.cross_check is not None else None,
            "attempts": _stringify(self.attempts),
            "seed": str(self.seed),
        }
        if timing:
            doc["wall_time_ms"] = round(self.wall_time_ms or 0.0, 3)
        return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def _emit(report: RunReport, args) -> None:
    if args.json:
        print(report.to_json(timing=args.timing))
    else:
        for key, value in report.outputs.items():
            print(f"{key}: {value}")
        if report.cross_check is not None:
            print(f"cross-check: {report.cross_check}")
        if args.timing and report.wall_time_ms is not None:
            print(f"wall-time: {report.wall_time_ms:.1f} ms")


# ---------------------------------------------------------------------------
# dlog


def cmd_dlog(args) -> int:
    p, ell, g, a = args.p, args.ell, args.g, args.a
    if not is_prime(p):
        raise BadInput(f"{p} is not prime")
    t0 = time.perf_counter()
    report = RunReport(
        "dlog",
        {"p": p, "ell": ell, "g": g, "a": a, "method": args.method, "B": args.B},
        seed=args.seed,
    )
    code = EXIT_OK
    if args.method == "bsgs":
        m = bsgs_dlog(g, a % p, p - 1, **mult_group_ops(p))
        report.outputs = {"m": m, "modulus": p - 1}
    else:
        m = index_calculus_dlog(p, ell, g, a, args.B, args.seed)
        report.outputs = {"m": m, "modulus": ell}
        if not args.no_verify and p - 1 <= 2**24:
            full = bsgs_dlog(g, a % p, p - 1, **mult_group_ops(p))
            ok = full % ell == m
            report.cross_check = {"bsgs_m": full, "agree": ok}
            if not ok:
                code = EXIT_INVARIANT
    report.wall_time_ms = 1000 * (time.perf_counter() - t0)
    _emit(report, args)
    return code


# ---------------------------------------------------------------------------
# signature (multiplicative)


def _read_instance(path: str, parse):
    """parse(text) of an instance file; an unreadable or malformed file
    is BadInput, whatever the parser tripped on."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise BadInput(f"cannot read instance file {path!r}: {exc.strerror}") from None
    try:
        return parse(text)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # ValueError covers bad JSON and bad numbers
        raise BadInput(f"malformed instance file {path!r}: {exc!r}") from None


def _load_char_instance(args):
    if args.instance:
        instance = _read_instance(args.instance, instance_from_json)
        report = instance.condition_report
        if not report.all_ok:
            raise ConditionFailure(report)
        return instance
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
    if args.save_instance:
        with open(args.save_instance, "w", encoding="utf-8") as fh:
            fh.write(instance_to_json(instance))
    p = instance.p

    def dl_oracle(g, a):
        return bsgs_dlog(g, a, p - 1, **mult_group_ops(p))

    outputs = {"conditions": instance.condition_report.as_dict()}
    code = EXIT_OK
    if args.method in ("dl-oracle", "both"):
        sig = signature_from_dl(instance, dl_oracle)
        outputs["s_dl_oracle"] = sig.s
        outputs["m"] = sig.m
        outputs["y"] = sig.y
    if args.method in ("index", "both"):
        sig_ic = signature_index_calculus(instance, args.B, args.seed,
                                          counters=report.attempts)
        outputs["s_index"] = sig_ic.s
    if args.method == "both":
        agree = outputs["s_dl_oracle"] == outputs["s_index"]
        report.cross_check = {"agree": agree}
        if not agree:
            code = EXIT_INVARIANT
    report.outputs = outputs
    report.wall_time_ms = 1000 * (time.perf_counter() - t0)
    _emit(report, args)
    return code


# ---------------------------------------------------------------------------
# ec


def load_fixture(name: str) -> dict:
    from importlib import resources  # deferred: only the ec commands need it

    path = resources.files("sigcalc.fixtures").joinpath(f"{name}.json")
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise BadInput(f"unknown fixture {name!r}") from None
    return doc


def _lift_fixture(name: str, seed: int):
    doc = load_fixture(name)
    Qt = Point(int(doc["Qt"][0]), int(doc["Qt"][1]))
    Rt = Point(int(doc["Rt"][0]), int(doc["Rt"][1]))
    return lift_ec_instance(int(doc["a"]), int(doc["b"]), Qt, Rt,
                            int(doc["p"]), int(doc["ell"]), seed)


def _ec_instance_from_args(args):
    if args.instance:
        return _read_instance(args.instance, ec_instance_from_json)
    return _lift_fixture(args.fixture, args.seed)


def cmd_ec(args) -> int:
    t0 = time.perf_counter()
    instance = _ec_instance_from_args(args)
    if args.save_instance:
        with open(args.save_instance, "w", encoding="utf-8") as fh:
            fh.write(ec_instance_to_json(instance))
    report = RunReport(
        f"ec-{args.subcommand}",
        {
            "p": instance.p, "ell": instance.ell, "a": instance.a,
            "b_r": instance.b_r, "D": instance.K.D,
        },
        seed=args.seed,
    )
    code = EXIT_OK
    if args.subcommand == "roundtrip":
        base = instance.base_curve

        def ecdl_oracle(Qb, Rb):
            return bsgs_dlog(Qb, Rb, instance.ell, **curve_group_ops(base))

        sig = signature_from_ecdl(instance, ecdl_oracle)
        m = ecdl_from_signature(instance, lambda _inst: sig)
        m_bsgs = ecdl_oracle(instance.Qt, instance.Rt)
        ok = m == m_bsgs % instance.ell
        report.outputs = {"alpha": sig.alpha, "beta": sig.beta, "m": m}
        report.cross_check = {"bsgs_m": m_bsgs, "agree": ok}
        if not ok:
            code = EXIT_INVARIANT
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
        if dims != expected:
            code = EXIT_INVARIANT
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
    report.wall_time_ms = 1000 * (time.perf_counter() - t0)
    _emit(report, args)
    return code


# ---------------------------------------------------------------------------
# verify suites


def _suite_reciprocity(p: int, ell: int, trials: int, seed: int):
    """Random S-units must have vanishing pairing sums over all sites."""
    support = [q for q in primes_up_to(20) if q != p]
    for i in range(trials):
        rng = rng_for(seed, "reciprocity", i)
        exponents = {q: rng.randrange(-3, 4) for q in support}
        from fractions import Fraction

        a = Fraction(1)
        for q, e in exponents.items():
            a *= Fraction(q) ** e
        if a == 1:
            continue
        total = rational_character_pairing(p, ell, "p", a)
        for q, e in exponents.items():
            if e:
                total += rational_character_pairing(p, ell, q, a)
        yield {"trial": i, "sum": total % ell, "ok": total % ell == 0,
               "exponents": {str(q): e for q, e in exponents.items()}}


def _suite_rayrank(trials: int, seed: int):
    fields = rayrank_fields([3, 5, 7, 11, 13], trials)
    for i, (K, ell, p) in enumerate(fields):
        u, uc = split_places(ell, K)
        v = split_places(p, K)[0]
        rank_one = ray_class_ell_rank(K, ell, [(u, 2), (v, 1)])
        rank_full = ray_class_ell_rank(K, ell, [(u, 2), (uc, 2), (v, 1)])
        ok = rank_one == 1 and rank_full == 2
        yield {"trial": i, "D": K.D, "ell": ell, "p": p,
               "rank_one_place": rank_one, "rank_three_places": rank_full,
               "ok": ok}


def _brute_local_dim(curve: Curve, q: int, ell: int) -> int:
    """dim E(F_q)/ell by enumerating the full group and its ell-kernel."""
    points = [None]
    for x in range(q):
        f = (x**3 + curve.a * x + curve.b) % q
        if f == 0:
            points.append(Point(x, 0))
        elif jacobi(f, q) == 1:
            from .arith import sqrt_mod_prime

            y = sqrt_mod_prime(f, q)
            points.append(Point(x, y))
            points.append(Point(x, q - y))
    reduced = Curve(curve.a % q, curve.b % q, ("fp", q))
    kernel = sum(1 for P in points if ec_scalar_mul(ell, P, reduced) is None)
    dim = 0
    while ell**dim < kernel:
        dim += 1
    return dim


def _suite_lemma1(seed: int, bound: int = 500):
    instance = _lift_fixture("f7l13", seed)
    E, K, ell = instance.lifted_curve, instance.K, instance.ell
    disc = abs(E.discriminant())
    for q in primes_up_to(bound):
        if q == 2 or disc % q == 0:
            continue
        for w in split_places(q, K):
            if w.degree != 1:
                continue
            try:
                formula = h1_local_dim(E, w, ell)
            except OutOfScope:
                break  # the formula does not cover this place
            # brute dimension of E(K_w)/ell: the reduced group's ell-rank,
            # plus the kernel-of-reduction line at residue characteristic ell
            brute = _brute_local_dim(E.reduction(q), q, ell)
            if q == ell:
                brute += 1
            yield {"q": q, "splitting": w.splitting,
                   "root": w.root_label if w.root_label is not None else "",
                   "formula": formula, "brute": brute, "ok": formula == brute}
            break  # conjugate place has the identical reduction


def cmd_verify(args) -> int:
    suites = ["reciprocity", "rayrank", "lemma1"] if args.suite == "all" else [args.suite]
    failures = []
    for suite in suites:
        if suite == "reciprocity":
            rows = list(_suite_reciprocity(args.p, args.ell, args.trials, args.seed))
        elif suite == "rayrank":
            rows = list(_suite_rayrank(min(args.trials, 40), args.seed))
        else:
            rows = list(_suite_lemma1(args.seed))
        for row in rows:
            doc = {"suite": suite, **row}
            print(json.dumps(_stringify(doc), sort_keys=True, separators=(", ", ": ")))
            if not row.get("ok", True):
                failures.append(doc)
    summary = {"suite": args.suite, "failures": len(failures)}
    print(json.dumps(_stringify(summary), sort_keys=True, separators=(", ", ": ")))
    if failures:
        print(json.dumps(_stringify({"counterexample": failures[0]}),
                         sort_keys=True, separators=(", ", ": ")), file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


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
    sp.add_argument("--no-verify", action="store_true")
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
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--p", type=int, default=31)
    sp.add_argument("--ell", type=int, default=5)
    common(sp)
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SigcalcError as exc:
        if isinstance(exc, ConditionFailure):
            doc = _stringify({"error": "ConditionFailure", "report": exc.report.as_dict()})
        else:
            doc = {"error": type(exc).__name__, "detail": str(exc)}
            if isinstance(exc, BudgetExhausted):
                doc["counters"] = _stringify(exc.counters)
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
