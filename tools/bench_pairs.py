"""Fold sigbench result lines from paired parent/change runs into a BENCH file.

    python3 tools/bench_pairs.py BENCH_ec.json ec parent.log change.log

Each log holds the stdout of successive `sigbench/run.py --trace 0` runs
of one workload on one side; the i-th parent and i-th change runs form
pair i and must share a seed; a run with no result line failed.  The
workload's entry in the BENCH file becomes each side's quartiles of
BENCHMARK.json's end-to-end metrics and the pairs the change won on
each.  The file starts afresh, in BENCH_dlog.json's layout, when it is
absent or measured another parent: one whose recorded commit differs
from the parent runs' or, where it records none, one with another
parent src_sha256.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_runs(lines):
    runs = []
    for line in lines:
        doc = json.loads(line) if line.startswith("{") else {}
        if "env" in doc:
            runs.append({"env": doc["env"], "summary": doc["summary"], "metrics": None})
        elif "metrics" in doc and runs and doc.get("correct"):
            runs[-1]["metrics"] = {k: v["value"] for k, v in doc["metrics"].items()}
    return runs


def side(runs, metrics):
    done = [r["metrics"] for r in runs if r["metrics"]]
    out = {"runs": len(runs), "failed_runs": len(runs) - len(done)}
    for name in metrics if done else ():
        values = [m[name] for m in done] * (2 if len(done) == 1 else 1)
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}
    out["failed_frac_max"] = max(r["summary"]["failed_frac"] for r in runs)
    out["src_sha256"] = runs[0]["env"].get("src_sha256")
    return out


def fold(bench: dict, workload: str, parent: list, change: list, metrics: dict) -> dict:
    seeds = [r["env"]["seed"] for r in parent]
    if seeds != [r["env"]["seed"] for r in change]:
        raise SystemExit("parent and change runs must pair up seed by seed")
    wins = {}
    for name, better in metrics.items():
        sign = 1 if better == "higher" else -1
        won = sum(1 for p, c in zip(parent, change) if p["metrics"] and c["metrics"]
                  and sign * (c["metrics"][name] - p["metrics"][name]) > 0)
        wins[name] = f"{won}/{len(parent)}"
    bench.setdefault("workloads", {})[workload] = {
        "seeds": seeds, "pairs": len(parent), "parent": side(parent, metrics),
        "change": side(change, metrics), "change_better_in_pairs": wins}
    return bench


def same_parent(bench: dict, env: dict) -> bool:
    """Whether a BENCH document measured the parent the runs with this
    env measured."""
    commit = bench["parent"].get("commit")
    if commit is not None:
        return commit == env.get("commit")
    return all(entry["parent"]["src_sha256"] == env.get("src_sha256")
               for entry in bench.get("workloads", {}).values())


def main(argv) -> int:
    out, workload, parent_log, change_log = argv
    metrics = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    parent, change = (read_runs(Path(f).read_text().splitlines())
                      for f in (parent_log, change_log))
    env = parent[0]["env"]
    bench = json.loads(Path(out).read_text()) if Path(out).exists() else None
    if bench is None or not same_parent(bench, env):
        bench = {
            "what": "", "claim": "",
            "command": "python3 sigbench/run.py --workload W --seed N --seconds S --trace 0",
            "method": "one parent and one change run per seed, alternating which runs first; "
                      "quartiles by the inclusive method",
            "machine": {"nproc": env.get("nproc"), "python": env.get("python")},
            "parent": {"commit": env.get("commit")}, "change": {"commit": None}}
    Path(out).write_text(json.dumps(fold(bench, workload, parent, change, metrics),
                                    indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
