"""sigcalc benchmark: one seeded workload per call, checked answers, one
JSON result line.

    python3 sigbench/run.py --workload {cli,dlog,signature,ec} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; sigcalc is imported from that
checkout's src/ and nowhere else.  Load is one closed-loop client: a
single process, no threads, one op (or one `python -m sigcalc` call on
`cli`) at a time.  The seed fixes a mix of ops, every input prepared in
set-up; the timed phase runs the mix in order and over again, so each
position of the mix repeats identical work.  An op's time covers the
calls into sigcalc only; its answer is checked after the clock stops.

--trace 0 prints the end-to-end metrics: setup_s (the median of three
set-ups, each a fresh interpreter that imports sigcalc and builds the
inputs from the seed), best_ops_per_s (ops of the mix per second with
each position at its fastest repeat, which other processes on a shared
machine disturb least) and peak_rss_mb.  The line before the result
holds the rest: ops_per_s over the whole timed phase, op_p50_s,
failed_frac with failures and retries by type, op_tail_s with its
percentile and op count, and the environment (seed, commit, nproc,
versions, sigcalc.__file__).

--trace 1 prints the per-module metrics.  Every op runs twice, without
and with spans around calls into sigcalc's public functions, and
trace_overhead_frac compares the two.  The line before the result holds
self time per span name; the spans themselves go to
.sigbench/spans-<workload>-<seed>.jsonl in the checkout.

A wrong answer aborts with exit 1 and no result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import inputs
import workloads
from metrics import OpRecord, summarize
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli", "dlog", "signature", "ec")
SETUP_SAMPLES = 3
PROBE_SAMPLES = 3
READY = "READY"
SPANS_DIR = ".sigbench"  # traced runs write their spans here
clock = time.perf_counter


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def die(message: str, code: int) -> None:
    print(f"sigbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


# -- the launcher ------------------------------------------------------------


def spawn(args, role: str) -> tuple[float, dict | None]:
    """Start this script in a fresh interpreter; return the seconds until
    it reported READY and the payload it printed afterwards, if any."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    start = clock()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = clock() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or line.strip() != READY:
        sys.exit(code or 1)
    payload = json.loads(rest.strip().splitlines()[-1]) if rest.strip() else None
    return ready, payload


def launch(args) -> int:
    if not (SRC / "sigcalc" / "__init__.py").is_file():
        die(f"no sigcalc package under {SRC.relative_to(ROOT)}/; run from a checkout", 2)
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args, "setup")[0])
    ready, payload = spawn(args, "worker")
    setups.append(ready)
    metrics = payload.pop("metrics")
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        payload["setup_samples_s"] = setups
    payload["env"].update(environment())
    print(json.dumps(payload, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": payload["summary"]["attempted"],
                      "failed": payload["summary"]["failed"], "metrics": metrics}))
    return 0


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "sympy": version("sympy")}


# -- the worker ----------------------------------------------------------------


def require_checkout_copy(sigcalc_file: str, importer: str) -> Path:
    """Refuse to measure a sigcalc from anywhere but this checkout's src/,
    so that a stale install is never benchmarked."""
    where = Path(sigcalc_file).resolve()
    if SRC.resolve() not in where.parents:
        die(f"{importer} imports sigcalc from {where}, not from {SRC}", 3)
    return where


def import_checked_sigcalc() -> Path:
    sys.path.insert(0, str(SRC))
    import sigcalc

    return require_checkout_copy(sigcalc.__file__, "the benchmark")


def run_op(wl, index: int, run_seed: int, tracer=None) -> OpRecord:
    """The index-th op of a run, with its retries.  Only the calls into
    sigcalc are timed; the answer is checked after the clock stops."""
    from sigcalc.errors import SigcalcError

    position = index % len(wl.items)
    if tracer is not None:
        tracer.op = index
    retried = []
    start = clock()
    for attempt in range(workloads.MAX_TRIES):
        try:
            check = wl.op(wl.items[position], inputs.derive(run_seed, "op", position, attempt))
        except (SigcalcError, workloads.CliExit) as exc:
            name = str(exc) if isinstance(exc, workloads.CliExit) else type(exc).__name__
            if name not in workloads.RETRY_ERRORS or attempt + 1 == workloads.MAX_TRIES:
                return OpRecord(clock() - start, name, retried, position)
            retried.append(name)
            continue
        seconds = clock() - start
        check()
        return OpRecord(seconds, None, retried, position)


def timed_phase(wl, seconds: float, run_seed: int):
    """Start ops until `seconds` have passed; (records, phase seconds)."""
    records = []
    start = clock()
    while not records or clock() - start < seconds:
        records.append(run_op(wl, len(records), run_seed))
    return records, clock() - start


def untraced(args, wl, where) -> dict:
    extra = {}
    if wl.name == "cli":
        runner = workloads.CliRunner(SRC)
        require_checkout_copy(runner.sigcalc_file(), "python -m sigcalc")
        wl.op = runner.op
    records, seconds = timed_phase(wl, args.seconds, args.seed)
    if wl.name == "cli":
        extra["a9_checked"] = runner.a9_checked
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = summarize(records, seconds)
    return {
        "workload": wl.name, "summary": summary, "phase_s": seconds, **extra,
        "env": {"seed": args.seed, "sigcalc_file": str(where)},
        "metrics": {
            "best_ops_per_s": {"value": summary["best_ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        },
    }


def cli_probes(env: dict) -> dict:
    """Fresh-interpreter costs: bare start, import of sigcalc.cli, and the
    modules that import loads (medians of PROBE_SAMPLES)."""
    interp, imports, loaded = [], [], []
    code = ("import sys, time; n = len(sys.modules); t = time.perf_counter(); "
            "import sigcalc.cli; print(time.perf_counter() - t, len(sys.modules) - n)")
    for _ in range(PROBE_SAMPLES):
        start = clock()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        interp.append(clock() - start)
        out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                             capture_output=True, text=True).stdout.split()
        imports.append(float(out[0]))
        loaded.append(int(out[1]))
    return {"cli.interp_s": statistics.median(interp), "cli.import_s": statistics.median(imports),
            "cli.modules_loaded": statistics.median(loaded)}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_frac", "1"), ("_ratio", "1"), ("_yield", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def traced(args, wl, where) -> dict:
    """Each op runs twice, untraced and traced, in alternating order so
    that warm caches favour neither side; layer metrics come from the
    traced copies.  Every traced run ends with one traced in-process pass
    over the cli command mix, so each module shows up on every workload."""
    from sigcalc.errors import SigcalcError

    probes = cli_probes(workloads.CliRunner(SRC).env)
    tracer = Tracer()
    plain, replay = [], []
    start = clock()
    while not plain or clock() - start < args.seconds:
        index = len(plain)
        for with_spans in ((False, True) if index % 2 == 0 else (True, False)):
            if with_spans:
                with tracer:
                    replay.append(run_op(wl, index, args.seed, tracer))
            else:
                plain.append(run_op(wl, index, args.seed))
        if plain[-1].error != replay[-1].error:
            die(f"traced op {index} diverged: {plain[-1].error} vs {replay[-1].error}", 1)
    if wl.name == "cli":
        command_s = statistics.mean(r.seconds for r in plain)
    else:
        cli = workloads.build("cli", args.seed, SRC)
        command_s = statistics.mean(run_op(cli, k, args.seed).seconds
                                    for k in range(len(cli.items)))
        with tracer:
            for k in range(len(cli.items)):
                tracer.op = f"cli-{k}"
                run_op(cli, k, args.seed)
    generic = {"attempted": 0, "solved": 0, "failures_by_type": {}}
    if wl.name == "signature":
        # generic targets fail most index-calculus searches today, so they
        # are traced for their yield instead of timed as ops
        with tracer:
            for k, t in enumerate(inputs.generic_targets(args.seed)):
                tracer.op = f"generic-{k}"
                generic["attempted"] += 1
                try:
                    check = workloads.signature_op(t, inputs.derive(args.seed, "generic", k))
                    generic["solved"] += 1
                    check()
                except SigcalcError as exc:
                    name = type(exc).__name__
                    generic["failures_by_type"][name] = generic["failures_by_type"].get(name, 0) + 1
    spans_file = ROOT / SPANS_DIR / f"spans-{wl.name}-{args.seed}.jsonl"
    tracer.write(spans_file)
    overhead = sum(r.seconds for r in replay) / sum(r.seconds for r in plain) - 1
    metrics = {**probes, "cli.command_s": command_s, **layer_metrics(tracer),
               "charsig.generic_attempted": generic["attempted"],
               "charsig.generic_solved": generic["solved"],
               "trace_overhead_frac": overhead}
    return {
        "workload": wl.name, "summary": summarize(plain, sum(r.seconds for r in plain)),
        "generic_probe": generic, "self_times": tracer.self_times(),
        "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT)),
        "env": {"seed": args.seed, "sigcalc_file": str(where)},
        "metrics": {name: {"value": value, "unit": per_layer_unit(name)}
                    for name, value in metrics.items()},
    }


def work(args) -> int:
    where = import_checked_sigcalc()
    wl = workloads.build(args.workload, args.seed, SRC)
    print(READY, flush=True)
    if args.role == "setup":
        return 0
    try:
        payload = (traced if args.trace else untraced)(args, wl, where)
    except checks.WrongAnswer as exc:
        die(f"wrong answer: {exc}", 1)
    print(json.dumps(payload), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "main":
        return launch(args)
    return work(args)


if __name__ == "__main__":
    sys.exit(main())
