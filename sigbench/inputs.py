"""Seeded input generation for the four workloads.

The benchmark's own primality test and primitive-root search keep
sympy out of the benchmark process, so the import cost it measures is
sigcalc's alone.  Library calls appear only where an input family is
defined by what the library accepts (a small-height lift, a curve's
point count); those run in set-up and count toward setup_s.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

from checks import ec_mul

# (p, ell) pairs of the signature acceptance test A3.
A3_PAIRS = ((1021, 5), (1009, 7), (1013, 11), (1093, 13), (3011, 43))
FIXTURES = ("f7l13", "f251l271", "f1009l967", "f4003l4111", "f11003l11093")
EC_TIER_BITS = (12, 16, 20, 24)

# At these sizes an op takes about 0.02 s on a 2-vCPU x86 VM, relation
# sampling about 70% of it and F_ell elimination most of the rest.  Op
# cost varies widely with the search seed (CV about 0.55, by the number
# of rounds), so a run needs hundreds of distinct ops for its mean not
# to depend on the seed, and each of them repeated to see past other
# processes on a shared machine: a 20 s run holds three passes over the
# DLOG_POOL ops.  At p ~ 1e10, B = 5000 an op takes 5-12 s.
DLOG_P_RANGE = (10**6, 3 * 10**6)
DLOG_ELL_RANGE = (10**3, 10**5)
DLOG_BOUND = 150
DLOG_POOL = 300
SIGNATURE_BOUND = 150
SIGNATURE_BUDGET = 50_000
SIGNATURE_PER_PAIR = 4
EC_PER_TIER = 6
EC_SCAN_BOUND = 1000
CLI_DLOG = (1021, 5)
CLI_BOTH_PAIR = (1013, 11)
CLI_SCAN_BOUND = 150


def derive(seed: int, *labels) -> int:
    """A 63-bit child seed, stable across platforms."""
    text = "/".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def rng(seed: int, *labels) -> random.Random:
    return random.Random(derive(seed, *labels))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a basis that is deterministic below 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def least_primitive_root(p: int) -> int:
    factors = prime_factors(p - 1)
    g = 2
    while any(pow(g, (p - 1) // f, p) == 1 for f in factors):
        g += 1
    return g


def sqrt_mod(n: int, m: int) -> int | None:
    """Some square root of n mod m, by search (m is at most a few thousand)."""
    n %= m
    for t in range(m):
        if t * t % m == n:
            return t
    return None


# -- dlog ------------------------------------------------------------------


@dataclass(frozen=True)
class DlogTarget:
    p: int
    ell: int
    g: int
    a: int


def dlog_targets(seed: int) -> list[DlogTarget]:
    """DLOG_POOL targets: ell prime in DLOG_ELL_RANGE, p = k*ell + 1 prime
    in DLOG_P_RANGE, g the least primitive root and a uniform."""
    r = rng(seed, "dlog")
    targets: list[DlogTarget] = []
    while len(targets) < DLOG_POOL:
        ell = r.randrange(*DLOG_ELL_RANGE)
        if not is_prime(ell):
            continue
        lo = -(-(DLOG_P_RANGE[0] - 1) // ell)
        hi = (DLOG_P_RANGE[1] - 1) // ell
        for _ in range(100):
            p = r.randrange(lo, hi + 1) * ell + 1
            if is_prime(p):
                a = rng(seed, "dlog-target", len(targets)).randrange(2, p - 1)
                targets.append(DlogTarget(p, ell, least_primitive_root(p), a))
                break
    return targets


# -- signature -------------------------------------------------------------


@dataclass(frozen=True)
class SigTarget:
    p: int
    ell: int
    g: int
    a: int
    d0: int


def _small_height_candidates(p: int, ell: int):
    """a = c + d0 with c^2 = 1 + d0^2 mod p, by increasing d0 < 500,
    screened by the lift's cheap conditions at d = d0: ell splits, alpha
    is wild at both places over ell, and a is not an ell-th power."""
    ell2 = ell * ell
    for d0 in range(1, 500):
        w = 1 + d0 * d0
        if w % p == 0 or pow(w, (p - 1) // 2, p) != 1 or w % ell == 0 \
                or pow(w, (ell - 1) // 2, ell) != 1:
            continue
        t = sqrt_mod(w, ell2)
        if any(pow((d0 + s) % ell2, ell - 1, ell2) == 1 for s in (t, ell2 - t)):
            continue
        c = sqrt_mod_prime(w, p)
        for cc in sorted((c, p - c)):
            a = (cc + d0) % p
            if a not in (0, 1, p - 1) and pow(a, (p - 1) // ell, p) != 1:
                yield a, d0


def sqrt_mod_prime(n: int, p: int) -> int:
    """A square root of a quadratic residue n mod an odd prime p."""
    n %= p
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    m, c, t, x = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        i, e = 0, t
        while e != 1:
            e = e * e % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


def small_height_family(p: int, ell: int, count: int) -> list[SigTarget]:
    """The first `count` members of A3's family at (p, ell): targets that
    lift_unit lifts at d = d0 itself, with alpha = d0 + omega*f (so the
    field has D != 1 mod 4).  One target per d0, by increasing d0."""
    from sigcalc.charsig import lift_unit
    from sigcalc.errors import SigcalcError

    g = least_primitive_root(p)
    found: list[SigTarget] = []
    for a, d0 in _small_height_candidates(p, ell):
        if found and found[-1].d0 == d0:
            continue
        try:
            inst = lift_unit(a, p, ell, 0, g=g)
        except SigcalcError:
            continue
        if inst.alpha.a == d0:
            found.append(SigTarget(p, ell, g, a, d0))
            if len(found) == count:
                return found
    raise ValueError(f"only {len(found)} small-height targets at p={p}")


def signature_targets(seed: int) -> list[SigTarget]:
    """SIGNATURE_PER_PAIR family members per A3 pair, round-robin over the
    pairs so every prefix of a run has the same mix, from a seeded start."""
    family = [small_height_family(p, ell, SIGNATURE_PER_PAIR) for p, ell in A3_PAIRS]
    targets = [members[k] for k in range(SIGNATURE_PER_PAIR) for members in family]
    start = rng(seed, "signature").randrange(len(targets))
    return targets[start:] + targets[:start]


def generic_targets(seed: int) -> list[SigTarget]:
    """One uniform non-ell-th-power target per A3 pair."""
    out = []
    for p, ell in A3_PAIRS:
        r = rng(seed, "generic", p)
        while True:
            a = r.randrange(2, p - 1)
            if pow(a, (p - 1) // ell, p) != 1:
                break
        out.append(SigTarget(p, ell, least_primitive_root(p), a, 0))
    return out


# -- ec --------------------------------------------------------------------


@dataclass(frozen=True)
class EcBase:
    """A prime-order curve y^2 = x^3 + a*x + b over F_q with base point Qt."""

    name: str
    q: int
    a: int
    b: int
    ell: int
    Qt: tuple[int, int]


def _random_point(q: int, a: int, b: int, r: random.Random) -> tuple[int, int]:
    while True:
        x = r.randrange(q)
        f = (x * x * x + a * x + b) % q
        if f and pow(f, (q - 1) // 2, q) == 1:
            return x, sqrt_mod_prime(f, q)


def certify(base: EcBase) -> None:
    """ell is prime, ell*Qt = O and 2*ell exceeds the Hasse bound, so
    #E = ell exactly."""
    q, ell = base.q, base.ell
    if not (is_prime(ell) and ell != q and ec_mul(ell, base.Qt, base.a, q) is None
            and 2 * ell > q + 1 + 2 * isqrt(q) + 1):
        raise ValueError(f"curve {base} fails its order certificate")


def random_prime_order_curve(bits: int, r: random.Random) -> EcBase:
    from sigcalc.ecurve import Curve, ec_group_order

    # q in the bottom eighth of the tier: an op's cost grows with q, so
    # the tier costs about the same whatever the seed
    while True:
        q = r.randrange(1 << (bits - 1), (1 << (bits - 1)) + (1 << (bits - 4)))
        if is_prime(q):
            break
    while True:
        a, b = r.randrange(q), r.randrange(1, q)
        if (4 * a**3 + 27 * b * b) % q == 0:
            continue
        n = ec_group_order(Curve(a, b, ("fp", q)))
        if n != q and is_prime(n):
            base = EcBase(f"q{q}", q, a, b, n, _random_point(q, a, b, r))
            certify(base)
            return base


def _fixture(src: Path, name: str) -> dict:
    return json.loads((src / "sigcalc" / "fixtures" / f"{name}.json").read_text())


def fixture_curves(src: Path) -> list[EcBase]:
    out = []
    for name in FIXTURES:
        doc = _fixture(src, name)
        base = EcBase(name, int(doc["p"]), int(doc["a"]), int(doc["b"]), int(doc["ell"]),
                      (int(doc["Qt"][0]), int(doc["Qt"][1])))
        certify(base)
        out.append(base)
    return out


def ec_curves(seed: int, src: Path) -> list[EcBase]:
    """EC_PER_TIER seeded curves per tier, interleaved across tiers, then
    the five shipped fixtures."""
    tiers = [[random_prime_order_curve(bits, rng(seed, "ec", bits, k))
              for k in range(EC_PER_TIER)] for bits in EC_TIER_BITS]
    out = [tier[k] for k in range(EC_PER_TIER) for tier in tiers]
    return out + fixture_curves(src)


@dataclass(frozen=True)
class EcTarget:
    """Rt = m*Qt on a base curve, for a seeded m."""

    base: EcBase
    m: int
    Rt: tuple[int, int]


def ec_targets(seed: int, src: Path) -> list[EcTarget]:
    out = []
    for k, base in enumerate(ec_curves(seed, src)):
        m = rng(seed, "ec-m", k).randrange(1, base.ell)
        out.append(EcTarget(base, m, ec_mul(m, base.Qt, base.a, base.q)))
    return out


# -- cli -------------------------------------------------------------------


def cli_commands(seed: int, src: Path) -> list[dict]:
    """The seeded command mix of one run.

    An index dlog at CLI_DLOG, a dl-oracle signature at a seeded A3
    pair, ec roundtrip and coker at seeded consecutive fixtures, and a
    reciprocity suite, plus A9's two other command types: `signature
    --method both` at CLI_BOTH_PAIR and an `ec scan`.  The mix is short
    enough to repeat several times within a run, so that A9 is asserted
    on every command and each command's fastest call is seen.  Each entry holds the argv after ``python -m sigcalc`` and
    the facts its check needs.
    """
    p, ell = CLI_DLOG
    g = least_primitive_root(p)
    r = rng(seed, "cli")

    def seed_arg(*labels):
        return ["--json", "--seed", str(derive(seed, "cli-seed", *labels))]

    a = r.randrange(2, p - 1)
    mix = [{"kind": "dlog", "p": p, "ell": ell, "g": g, "a": a,
            "argv": ["dlog", "--p", str(p), "--ell", str(ell), "--g", str(g), "--a", str(a),
                     "--method", "index", *seed_arg("dlog")]}]
    oracle_pair = r.choice([pair for pair in A3_PAIRS if pair != CLI_BOTH_PAIR])
    for pair in (oracle_pair, CLI_BOTH_PAIR):
        t = r.choice(small_height_family(*pair, SIGNATURE_PER_PAIR))
        method = ["both", "--B", str(SIGNATURE_BOUND)] if pair == CLI_BOTH_PAIR else ["dl-oracle"]
        mix.append({"kind": "signature", "p": t.p, "ell": t.ell, "g": t.g, "a": t.a,
                    "argv": ["signature", "--lift", f"{t.p},{t.ell},{t.g},{t.a}",
                             "--method", *method, *seed_arg("sig", t.p)]})
    fixtures = fixture_curves(src)
    k = r.randrange(len(fixtures))
    for sub, base in zip(("roundtrip", "coker", "scan"), (fixtures * 2)[k:k + 3]):
        argv = ["ec", sub, "--fixture", base.name, *seed_arg(sub)]
        cmd = {"kind": sub, "q": base.q, "a": base.a, "ell": base.ell, "Qt": base.Qt,
               "Rt": tuple(int(c) for c in _fixture(src, base.name)["Rt"]), "argv": argv}
        if sub == "scan":
            cmd["B"] = CLI_SCAN_BOUND
            argv[4:4] = ["--B", str(CLI_SCAN_BOUND)]
        mix.append(cmd)
    mix.append({"kind": "verify",
                "argv": ["verify", "--suite", "reciprocity", "--trials", "5", *seed_arg("verify")]})
    # interleave the kinds so that a run cut short still sees most of them
    return [mix[i] for i in (0, 1, 3, 2, 4, 5, 6)]
