"""Answer checks that share no code path with sigcalc's own cross-checks.

Every check raises WrongAnswer on a mismatch; the runner turns that into
a nonzero exit without a result line.  The group arithmetic here is the
benchmark's own (a square-root baby-step giant-step and an affine
double-and-add), so a defect in sigcalc.arith or sigcalc.ecurve cannot
hide itself.
"""

from __future__ import annotations

import json
from math import isqrt


class WrongAnswer(Exception):
    """The program returned an answer that fails an independent check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def subgroup_log(p: int, ell: int, g: int, a: int) -> int:
    """log of a^((p-1)/ell) to base g^((p-1)/ell), mod ell, by BSGS."""
    h = pow(g, (p - 1) // ell, p)
    t = pow(a, (p - 1) // ell, p)
    step = isqrt(ell) + 1
    baby = {}
    e = 1
    for j in range(step):
        baby.setdefault(e, j)
        e = e * h % p
    giant = pow(e, -1, p)
    for i in range(step + 1):
        j = baby.get(t)
        if j is not None:
            return (i * step + j) % ell
        t = t * giant % p
    raise WrongAnswer(f"{a} has no log in the order-{ell} subgroup mod {p}")


def check_dlog(p: int, ell: int, g: int, a: int, m: int) -> None:
    """m must equal the log of a in the order-ell subgroup."""
    expected = subgroup_log(p, ell, g, a)
    _require(m == expected, f"dlog: m={m}, subgroup BSGS gives {expected} "
                            f"(p={p}, ell={ell}, g={g}, a={a})")


def check_signature(p: int, ell: int, g: int, a: int, s_index: int,
                    s_oracle: int, m: int) -> None:
    """Index signature equals the dl-oracle one; recovered m is the log."""
    _require(s_index != 0, f"signature: s_index is 0 at (p={p}, a={a})")
    _require(s_index == s_oracle,
             f"signature: s_index={s_index} != s_dl_oracle={s_oracle} (p={p}, a={a})")
    check_dlog(p, ell, g, a, m)


def _ec_add(P, Q, a: int, q: int):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % q == 0:
        return None
    if x1 == x2:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, q) % q
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, q) % q
    x3 = (lam * lam - x1 - x2) % q
    return x3, (lam * (x1 - x3) - y1) % q


def ec_mul(n: int, P, a: int, q: int):
    """n*P on y^2 = x^3 + a*x + b over F_q; points are (x, y) or None."""
    result = None
    while n:
        if n & 1:
            result = _ec_add(result, P, a, q)
        P = _ec_add(P, P, a, q)
        n >>= 1
    return result


EXPECTED_COKER_DIMS = (0, 1, 2)


def check_ec(q: int, a: int, ell: int, Qt, Rt, m_seeded: int, m: int,
             n: int, alpha: int, beta: int, dims) -> None:
    """Recovered m is the seeded one, the signature relation holds, and
    the cokernel dimensions for S = (u,u'), (u,u',v), (u,u',v,v') are
    (0, 1, 2)."""
    _require(ec_mul(m_seeded, Qt, a, q) == Rt,
             f"ec: input Rt is not {m_seeded}*Qt over F_{q}")
    _require(m == m_seeded % ell, f"ec: recovered m={m}, seeded m={m_seeded} (q={q})")
    _require((m + n * alpha + beta) % ell == 0,
             f"ec: m + n*alpha + beta != 0 mod {ell} (q={q})")
    _require(tuple(dims) == EXPECTED_COKER_DIMS,
             f"ec: coker dims {tuple(dims)} != {EXPECTED_COKER_DIMS} (q={q})")


def check_scan(hits, ell: int, bound: int) -> None:
    """Every scan hit is a place of norm <= bound with ell | reduced order."""
    for place, order in hits:
        _require(place.norm <= bound and order % ell == 0,
                 f"ec scan: hit at q={place.q} with order {order}")


def check_cli(cmd: dict, returncode: int, stdout: str) -> None:
    """Check one `python -m sigcalc` call against its generated input.

    cmd carries the kind of command and the facts needed to check it:
    (p, ell, g, a) for dlog and signature, (q, a, Qt, Rt) for ec
    roundtrip, (ell, B) for ec scan.
    """
    kind = cmd["kind"]
    _require(returncode == 0, f"cli {kind}: exit {returncode}")
    if kind == "verify":
        rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        _require(bool(rows) and rows[-1].get("failures") == "0",
                 f"cli verify: summary {rows[-1] if rows else None}")
        _require(all(row.get("ok", True) is True for row in rows[:-1]),
                 "cli verify: a trial row is not ok")
        return
    report = json.loads(stdout)
    out = report["outputs"]
    if kind == "dlog":
        _require(report["cross_check"]["agree"] is True, "cli dlog: cross_check.agree false")
        check_dlog(cmd["p"], cmd["ell"], cmd["g"], cmd["a"], int(out["m"]))
    elif kind == "signature":
        m, y, s = int(out["m"]), int(out["y"]), int(out["s_dl_oracle"])
        check_dlog(cmd["p"], cmd["ell"], cmd["g"], cmd["a"], m)
        _require(s != 0 and (m + y * s) % cmd["ell"] == 0,
                 f"cli signature: y*s + m != 0 mod {cmd['ell']}")
        if "s_index" in out:
            _require(report["cross_check"]["agree"] is True and int(out["s_index"]) == s,
                     "cli signature: index and dl-oracle signatures differ")
    elif kind == "scan":
        for hit in out["hits"]:
            _require(int(hit["q"]) <= cmd["B"] and int(hit["order"]) % cmd["ell"] == 0,
                     f"cli ec scan: hit {hit}")
    elif kind == "roundtrip":
        _require(report["cross_check"]["agree"] is True,
                 "cli ec roundtrip: cross_check.agree false")
        m = int(out["m"])
        _require(ec_mul(m, cmd["Qt"], cmd["a"], cmd["q"]) == cmd["Rt"],
                 f"cli ec roundtrip: {m}*Qt != Rt over F_{cmd['q']}")
    elif kind == "coker":
        _require(report["cross_check"]["agree"] is True,
                 "cli ec coker: cross_check.agree false")
        dims = out["dims"]
        got = tuple(int(dims[k]) for k in ("u,u'", "u,u',v", "u,u',v,v'"))
        _require(got == EXPECTED_COKER_DIMS, f"cli ec coker: dims {got}")
    else:
        raise ValueError(f"unknown cli command kind {kind!r}")
