"""Time a benchmark mix on two checkouts in one process, op by op.

    python3 tools/ab_inprocess.py PARENT CHANGE --workload dlog --seed 0 --passes 5

Each checkout's src/sigcalc is loaded under its own package name, so
both run in one interpreter on the same warm caches.  The mix is
sigbench/inputs.py's for the seed (taken from CHANGE), with each op's
search seed and retries derived as sigbench/run.py derives them.  Each
pass runs every position of the mix on both trees, alternating which
runs first; a position keeps its fastest time on each tree, and every
answer, with the lifted instance's JSON, the index-calculus search's
counters and every row it feeds its eliminator (and, for ec, the
certificate, both classes, the coker dimensions and the scan's hits
with their orders), must be the same on both, or the tool exits 1.
The result line gives each tree's ops per second over the fastest
times and the positions where CHANGE was faster.

This reads a speedup with less noise than separate runs; it does not
replace the paired `sigbench/run.py` runs that BENCH files record.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

clock = time.perf_counter
RETRY_ERRORS = ("BudgetExhausted", "RankDeficient")  # as sigbench/workloads.py
MAX_TRIES = 3


def load_checkout(root: Path, name: str):
    """The sigcalc package of a checkout, imported as `name`."""
    package = root / "src" / "sigcalc"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def dlog_op(lib, inputs, t, seed):
    counters = {}
    m = lib.indexcalc.index_calculus_dlog(t.p, t.ell, t.g, t.a, inputs.DLOG_BOUND, seed,
                                          counters=counters)
    return m, counters


def signature_op(lib, inputs, t, seed):
    charsig, arith = lib.charsig, lib.arith
    ops = arith.mult_group_ops(t.p)

    def oracle(g, a):
        return arith.bsgs_dlog(g, a, t.p - 1, **ops)

    inst = charsig.lift_unit(t.a, t.p, t.ell, seed, g=t.g)
    counters, rows, eliminator = {}, [], charsig.Eliminator

    class Recording(eliminator):
        def add(self, batch):
            batch = list(batch)
            rows.extend(batch)
            return super().add(batch)

    charsig.Eliminator = Recording  # every row the search feeds its eliminator
    try:
        s_index = charsig.signature_index_calculus(inst, inputs.SIGNATURE_BOUND, seed,
                                                   max_attempts=inputs.SIGNATURE_BUDGET,
                                                   counters=counters)
    finally:
        charsig.Eliminator = eliminator
    s_oracle = charsig.signature_from_dl(inst, oracle)
    m = charsig.dl_from_signature(t.a, t.g, t.p, t.ell,
                                  lambda i: charsig.signature_from_dl(i, oracle), seed=seed)
    return charsig.instance_to_json(inst), s_index.s, s_oracle.s, m, counters, rows


def ec_op(lib, inputs, t, seed):
    ecsig, ecurve = lib.ecsig, lib.ecurve
    base = t.base
    inst = ecsig.lift_ec_instance(base.a, base.b, ecurve.Point(*base.Qt), ecurve.Point(*t.Rt),
                                  base.q, base.ell, seed)
    ops = ecurve.curve_group_ops(inst.base_curve)
    sig = ecsig.signature_from_ecdl(
        inst, lambda Qb, Rb: lib.arith.bsgs_dlog(Qb, Rb, base.ell, **ops))
    m = ecsig.ecdl_from_signature(inst, lambda _inst: sig)
    cQ, cR = (ecurve.local_class(P, inst.lifted_curve, base.ell, place=inst.place_u).c
              for P in (inst.Q, inst.R))
    dims = (ecsig.coker_dim(inst), ecsig.coker_dim(inst, [inst.place_v]),
            ecsig.coker_dim(inst, [inst.place_v, inst.place_v_conj]))
    hits = ecsig.scan_torsion_places(inst.lifted_curve, inst.K, base.ell, inputs.EC_SCAN_BOUND)
    # places as plain tuples: each checkout has its own Place class
    return (ecsig.ec_instance_to_json(inst), inst.certificate, inst.d_ell, sig.alpha, sig.beta,
            m, cQ, cR, dims,
            [(w.q, w.splitting, w.root_label, order) for w, order in hits])


WORKLOADS = {
    "dlog": (lambda inputs, seed: inputs.dlog_targets(seed), dlog_op),
    "signature": (lambda inputs, seed: inputs.signature_targets(seed), signature_op),
    "ec": (lambda inputs, seed: inputs.ec_targets(seed, Path(inputs.__file__).parents[1] / "src"),
           ec_op),
}


def run_op(lib, inputs, op, item, run_seed, position):
    """(seconds, answer) of one position with its retries, as sigbench/run.py
    runs it; a failure's answer is its error type after the retries."""
    answer, retried = None, []
    start = clock()
    for attempt in range(MAX_TRIES):
        try:
            answer = op(lib, inputs, item, inputs.derive(run_seed, "op", position, attempt))
            break
        except lib.errors.SigcalcError as exc:
            retried.append(type(exc).__name__)
            if retried[-1] not in RETRY_ERRORS:
                break
    return clock() - start, (answer, retried)


def compare(parent: Path, change: Path, workload: str, seed: int, passes: int,
            limit: int | None = None) -> dict:
    sys.path[:0] = [str(change / "sigbench"), str(change / "src")]
    import inputs  # sigbench's seeded mix; its set-up may call sigcalc

    make_items, op = WORKLOADS[workload]
    items = make_items(inputs, seed)[:limit]
    libs = {"parent": load_checkout(parent, "sigcalc_parent"),
            "change": load_checkout(change, "sigcalc_change")}
    best = {side: [float("inf")] * len(items) for side in libs}
    for n in range(passes):
        for k, item in enumerate(items):
            order = ("parent", "change") if (n + k) % 2 == 0 else ("change", "parent")
            answers = {}
            for side in order:
                seconds, answers[side] = run_op(libs[side], inputs, op, item, seed, k)
                best[side][k] = min(best[side][k], seconds)
            if answers["parent"] != answers["change"]:
                raise SystemExit(f"position {k} answers differ: parent {answers['parent']!r}, "
                                 f"change {answers['change']!r}")
    ops = {side: len(items) / sum(times) for side, times in best.items()}
    return {"workload": workload, "seed": seed, "positions": len(items), "passes": passes,
            "best_ops_per_s": ops, "speedup": ops["change"] / ops["parent"],
            "change_faster_positions": sum(c < p for p, c in zip(best["parent"], best["change"]))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="dlog")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--limit", type=int, default=None, help="only the first LIMIT positions")
    args = ap.parse_args(argv)
    result = compare(args.parent.resolve(), args.change.resolve(), args.workload, args.seed,
                     args.passes, args.limit)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
