"""End-to-end metric arithmetic over the ops of one timed phase."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

# Candidate tail percentiles, in tenths of a percent, highest first.
TAIL_LADDER = (999, 990, 950, 900, 800, 750, 500)
TAIL_MIN_BEYOND = 10


@dataclass
class OpRecord:
    """One op: its wall time (to failure, for a failed op) and outcome.

    error is None for an op that completed and passed its checks,
    otherwise the SigcalcError type name or "exit <code>" for the CLI.
    retried lists the typed search failures that a re-seeded retry
    recovered from before the op completed.  position is the op's place
    in the workload's mix; ops at one position repeat identical work.
    """

    seconds: float
    error: str | None = None
    retried: list[str] = field(default_factory=list)
    position: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


def tail(times: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, ops beyond it) for the highest ladder
    percentile with at least TAIL_MIN_BEYOND ops above it, by nearest
    rank; None when there are too few ops for any rung."""
    ordered = sorted(times)
    n = len(ordered)
    for tenths in TAIL_LADDER:
        rank = -(-tenths * n // 1000)  # ceil(n * pct / 100)
        beyond = n - rank
        if rank >= 1 and beyond >= TAIL_MIN_BEYOND:
            return tenths / 10, ordered[rank - 1], beyond
    return None


def best_ops_per_s(records: list[OpRecord]) -> float:
    """Ops of the mix per second, each position at its fastest repeat.

    Repeats of one position do identical work, so the fastest is the one
    that other processes on the machine slowed least.  A position whose
    op failed in any repeat costs its fastest time and counts no op.
    """
    best: dict[int, float] = {}
    ok: dict[int, bool] = {}
    for r in records:
        best[r.position] = min(best.get(r.position, r.seconds), r.seconds)
        ok[r.position] = ok.get(r.position, True) and r.ok
    return sum(ok.values()) / sum(best.values())


def summarize(records: list[OpRecord], phase_seconds: float) -> dict:
    """Every end-to-end op metric of one phase, plus its failure detail.

    A failed op counts in op_p50_s at its time to failure and in
    failed_frac, and never in ops_per_s or best_ops_per_s.
    """
    if not records:
        raise ValueError("no op was attempted")
    times = [r.seconds for r in records]
    failures: dict[str, int] = {}
    retries: dict[str, int] = {}
    for r in records:
        if r.error is not None:
            failures[r.error] = failures.get(r.error, 0) + 1
        for name in r.retried:
            retries[name] = retries.get(name, 0) + 1
    ok = sum(1 for r in records if r.ok)
    out = {
        "attempted": len(records),
        "failed": len(records) - ok,
        "ops_per_s": ok / phase_seconds,
        "best_ops_per_s": best_ops_per_s(records),
        "positions": len({r.position for r in records}),
        "op_p50_s": statistics.median(times),
        "failed_frac": (len(records) - ok) / len(records),
        "failures_by_type": dict(sorted(failures.items())),
        "retries_by_type": dict(sorted(retries.items())),
    }
    t = tail(times)
    if t is not None:
        out["op_tail_s"] = {"percentile": t[0], "value": t[1], "ops_beyond": t[2],
                            "ops": len(records)}
    return out
