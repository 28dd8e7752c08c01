"""Acceptance criteria, one test per criterion.

Each test prints a single pass line (visible with pytest -s); every
assertion is exact equality in F_ell or in Z, and the stated wall-time
budgets are asserted on top.
"""

import json
import subprocess
import sys
import time

import pytest
import sympy

from sigcalc.arith import (
    bsgs_dlog,
    jacobi,
    mult_group_ops,
    primes_up_to,
    sqrt_mod_prime,
)
from sigcalc.charsig import (
    dl_from_signature,
    lift_unit,
    signature_from_dl,
    signature_index_calculus,
)
from sigcalc.ecsig import (
    coker_dim,
    lift_ec_instance,
    scan_torsion_places,
    signature_from_ecdl,
    ecdl_from_signature,
)
from sigcalc.ecurve import (
    Curve,
    Point,
    curve_group_ops,
    ec_group_order,
    ec_scalar_mul,
    lemma1_suite,
    local_class,
)
from sigcalc.indexcalc import build_theta_table, index_calculus_dlog, reciprocity_suite
from sigcalc.quadfield import (
    ray_class_ell_rank,
    rayrank_fields,
    rayrank_suite,
    split_places,
)
from sigcalc.seeds import rng_for

EC_FIXTURES = [
    (7, 0, 3, 13, Point(1, 2), Point(6, 3)),
    (251, 1, 4, 271, Point(0, 2), Point(114, 248)),
    (1009, 0, 11, 967, Point(1, 298), Point(550, 899)),
    (4003, 0, 2, 4111, Point(2, 1083), Point(1488, 796)),
]


def _passed(name: str, detail: str = ""):
    print(f"[acceptance] {name}: PASS {detail}".rstrip())


def _dl_pair(ell: int, p_min: int) -> int:
    k = max(2, (p_min - 1) // ell)
    while True:
        p = k * ell + 1
        if p >= p_min and k % ell != 0 and sympy.isprime(p):
            return p
        k += 1


def test_a1_classical_index_calculus():
    """A1: index_calculus_dlog = bsgs_dlog mod ell on 100 targets for 5
    seeded primes p in [1e5, 1e7], ell in [101, 1e4], B = 1000."""
    start = time.perf_counter()
    pairs = [(101, 10**5), (211, 2 * 10**5), (499, 5 * 10**5),
             (1009, 10**6), (2003, 2 * 10**6)]
    for ell, p_min in pairs:
        p = _dl_pair(ell, p_min)
        assert 10**5 <= p <= 10**7 and 101 <= ell <= 10**4
        g = sympy.primitive_root(p)
        theta = build_theta_table(p, ell, g, 1000, seed=0)
        ops = mult_group_ops(p)
        rng = rng_for(0, "a1", p)
        for _ in range(100):
            a = pow(g, rng.randrange(1, p - 1), p)
            m = index_calculus_dlog(p, ell, g, a, 1000, seed=0, theta=theta)
            assert m == bsgs_dlog(g, a, p - 1, **ops) % ell
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _passed("A1 classical index calculus", f"({elapsed:.1f}s)")


def test_a2_reciprocity():
    """A2: pairing values summed over all sites vanish for 100 random
    positive S-units at each of 5 (p, ell) pairs: the rows of the
    verify reciprocity suite."""
    start = time.perf_counter()
    rows = [row for p, ell in [(31, 5), (41, 5), (29, 7), (43, 7), (23, 11)]
            for row in reciprocity_suite(p, ell, 100, seed=0)]
    assert len(rows) == 500 and all(row["ok"] for row in rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _passed("A2 reciprocity", f"({elapsed:.1f}s)")


def _seeded_char_instances(p: int, ell: int, count: int):
    """Deterministic targets with small lifted d: a = c + d0 with
    c^2 = 1 + d0^2 mod p, accepted at the first sweep step."""
    out = []
    for d0 in range(1, 500):
        if len(out) >= count:
            break
        w = 1 + d0 * d0
        if w % p == 0 or jacobi(w % p, p) != 1:
            continue
        c = sqrt_mod_prime(w % p, p)
        for cc in (c, p - c):
            a = (cc + d0) % p
            if a in (0, 1, p - 1) or pow(a, (p - 1) // ell, p) == 1:
                continue
            try:
                inst = lift_unit(a, p, ell, seed=0)
            except Exception:
                continue
            if inst.alpha.a == d0:
                out.append(inst)
                break
    assert len(out) == count
    return out


def test_a3_signature_dl_equivalence():
    """A3: on >= 10 seeded DL instances, the index-calculus signature
    equals the dl-oracle signature exactly, and dl_from_signature
    recovers m = bsgs mod ell."""
    start = time.perf_counter()
    pairs = [(1021, 5), (1009, 7), (1013, 11), (1093, 13), (3011, 43)]
    instances = 0
    for p, ell in pairs:
        assert p <= 2**20 and ell <= 2**12
        ops = mult_group_ops(p)

        def oracle(g, a, _p=p, _ops=ops):
            return bsgs_dlog(g, a, _p - 1, **_ops)

        for inst in _seeded_char_instances(p, ell, 2):
            assert inst.a % p not in (1, p - 1)
            s_dl = signature_from_dl(inst, oracle)
            s_ic = signature_index_calculus(inst, 150, seed=0)
            assert s_ic.s == s_dl.s != 0
            m = dl_from_signature(
                inst.a, inst.g, p, ell,
                lambda i: signature_from_dl(i, oracle), seed=0)
            assert m == oracle(inst.g, inst.a) % ell
            instances += 1
    assert instances >= 10
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _passed("A3 signature/DL equivalence",
            f"({instances} instances, {elapsed:.1f}s)")


def test_a4_ray_class_dimensions():
    """A4: rank 1 for the one-place modulus and n(S)-1 in general, on
    >= 10 seeded fields passing the condition checks: the rows of the
    verify rayrank suite, and the modulus of the two places over ell."""
    start = time.perf_counter()
    rows = list(rayrank_suite(10))
    assert len(rows) >= 10 and all(row["ok"] for row in rows)
    for K, ell, _ in rayrank_fields([3, 5, 7, 11, 13], 10):
        u, uc = split_places(ell, K)
        assert ray_class_ell_rank(K, ell, [(u, 2), (uc, 2)]) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _passed("A4 ray-class ranks", f"({len(rows)} fields, {elapsed:.1f}s)")


def test_a5_local_h1_dimensions():
    """A5: the dimension formula matches the brute-force dimension of
    E(K_w)/ell at every good degree-1 place of norm <= 500: the rows of
    the verify lemma1 suite on three fixtures."""
    start = time.perf_counter()
    checked = 0
    for p, a, b, ell, Qt, Rt in EC_FIXTURES[:3]:
        inst = lift_ec_instance(a, b, Qt, Rt, p, ell, seed=0)
        rows = list(lemma1_suite(inst.lifted_curve, inst.K, ell, 500))
        assert all(row["ok"] for row in rows), p
        checked += len(rows)
    assert checked > 100
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _passed("A5 local H^1 dimensions", f"({checked} places, {elapsed:.1f}s)")


def test_a6_homogeneous_space_round_trip():
    """A6: lift -> signature -> ECDL recovers m = bsgs exactly on the
    fixture family and three more seeded prime-order curves, with
    m + n*alpha + beta = 0 for independently computed quantities."""
    start = time.perf_counter()
    trips = 0
    # the named fixture family: several multipliers on the base point
    p, a, b, ell, Qt, _ = EC_FIXTURES[0]
    base = Curve(a, b, ("fp", p))
    ops = curve_group_ops(base)
    for m_true in (1, 2, 3, 5, 7, 8, 11, 12):
        Rt = ec_scalar_mul(m_true, Qt, base)
        inst = lift_ec_instance(a, b, Qt, Rt, p, ell, seed=0)

        def oracle(Qb, Rb, _ell=ell, _ops=ops):
            return bsgs_dlog(Qb, Rb, _ell, **_ops)

        sig = signature_from_ecdl(inst, oracle)
        m = ecdl_from_signature(inst, lambda _i: sig)
        m_bsgs = bsgs_dlog(Qt, Rt, ell, **ops)
        assert m == m_true == m_bsgs
        cQ = local_class(inst.Q, inst.lifted_curve, ell, place=inst.place_u).c
        cR = local_class(inst.R, inst.lifted_curve, ell, place=inst.place_u).c
        n = cR * pow(cQ, -1, ell) % ell
        assert (m_bsgs + n * sig.alpha + sig.beta) % ell == 0
        trips += 1
    # three additional seeded prime-order curves with p <= 2**14
    for p, a, b, ell, Qt, Rt in EC_FIXTURES[1:]:
        assert p <= 2**14 and sympy.isprime(ell)
        inst = lift_ec_instance(a, b, Qt, Rt, p, ell, seed=0)
        base = inst.base_curve
        ops = curve_group_ops(base)

        def oracle(Qb, Rb, _ell=ell, _ops=ops):
            return bsgs_dlog(Qb, Rb, _ell, **_ops)

        sig = signature_from_ecdl(inst, oracle)
        m = ecdl_from_signature(inst, lambda _i: sig)
        m_bsgs = bsgs_dlog(Qt, Rt, ell, **ops)
        assert m == m_bsgs
        cQ = local_class(inst.Q, inst.lifted_curve, ell, place=inst.place_u).c
        cR = local_class(inst.R, inst.lifted_curve, ell, place=inst.place_u).c
        n = cR * pow(cQ, -1, ell) % ell
        assert (m_bsgs + n * sig.alpha + sig.beta) % ell == 0
        trips += 1
    assert trips >= 11
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    _passed("A6 homogeneous-space round trip",
            f"({trips} round trips, {elapsed:.1f}s)")


def test_a7_cokernel_dimensions():
    """A7: coker dims 0, 1, 2 for S = (u,u'), (u,u',v), (u,u',v,v')."""
    start = time.perf_counter()
    for p, a, b, ell, Qt, Rt in EC_FIXTURES[:3]:
        inst = lift_ec_instance(a, b, Qt, Rt, p, ell, seed=0)
        assert coker_dim(inst) == 0
        assert coker_dim(inst, [inst.place_v]) == 1
        assert coker_dim(inst, [inst.place_v, inst.place_v_conj]) == 2
    _passed("A7 cokernel dimensions",
            f"({time.perf_counter() - start:.1f}s)")


def test_a8_torsion_place_scan():
    """A8: scan hits only places of norm >= (sqrt(ell)-1)^2, is empty
    below that bound, and agrees with exhaustive enumeration to 500."""
    start = time.perf_counter()
    p, a, b, ell, Qt, Rt = EC_FIXTURES[0]
    inst = lift_ec_instance(a, b, Qt, Rt, p, ell, seed=0)
    E, K = inst.lifted_curve, inst.K
    floor_bound = (ell**0.5 - 1) ** 2
    hits = scan_torsion_places(E, K, ell, 500)
    assert all(w.norm >= floor_bound for w, _ in hits)
    assert scan_torsion_places(E, K, ell, int(floor_bound) - 1) == []
    keyed = {(w.q, w.root_label) for w, _ in hits}
    disc = abs(E.discriminant())
    for q in primes_up_to(500):
        if q in (2, ell) or disc % q == 0:
            continue
        degree_one = [w for w in split_places(q, K)
                      if w.degree == 1 and w.norm <= 500]
        if not degree_one:
            continue
        order = ec_group_order(E.reduction(q))
        for w in degree_one:
            assert ((w.q, w.root_label) in keyed) == (order % ell == 0)
    _passed("A8 torsion-place scan",
            f"({len(hits)} hits, {time.perf_counter() - start:.1f}s)")


def test_a9_determinism():
    """A9: repeated runs with the same seed give byte-identical reports."""
    commands = [
        ["dlog", "--p", "1021", "--ell", "5", "--g", "10", "--a", "800",
         "--method", "index", "--json", "--seed", "11"],
        ["signature", "--lift", "1021,5,10,800", "--method", "both",
         "--B", "80", "--json", "--seed", "11"],
        ["ec", "roundtrip", "--fixture", "f7l13", "--json", "--seed", "11"],
        ["ec", "scan", "--fixture", "f7l13", "--B", "150", "--json",
         "--seed", "11"],
        ["verify", "--suite", "reciprocity", "--trials", "5", "--seed", "11"],
    ]
    for args in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "sigcalc", *args],
                           capture_output=True, text=True)
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0, args
        assert runs[0].stdout == runs[1].stdout, args
        assert runs[0].stdout.strip(), args
    _passed("A9 determinism", f"({len(commands)} commands)")
