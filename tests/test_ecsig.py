from math import isqrt, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from sigcalc.arith import bsgs_dlog, factorint, is_prime, jacobi, primes_up_to, rank_mod, sqrt_mod_prime
from sigcalc.ecsig import (
    EC_INSTANCE_KEYS,
    coker_dim,
    ec_instance_from_json,
    ec_instance_to_json,
    ecdl_from_signature,
    lift_ec_instance,
    scan_torsion_places,
    signature_from_ecdl,
)
from sigcalc.ecurve import (
    Curve,
    INFINITY,
    Point,
    curve_group_ops,
    ec_group_order,
    ec_scalar_mul,
    local_class,
)
from sigcalc.errors import BadInput, SingularSystem, VerificationFailed
from sigcalc.quadfield import embed, split_places
from sigcalc.seeds import rng_for

FIXTURE = dict(a=0, b=3, p=7, ell=13, Qt=Point(1, 2), Rt=Point(6, 3))

EXTRA_CURVES = [
    # (p, a, b, ell, Qt, Rt): prime-order curves verified by point counting
    (251, 1, 4, 271, Point(0, 2), Point(114, 248)),
    (1009, 0, 11, 967, Point(1, 298), Point(550, 899)),
    (4003, 0, 2, 4111, Point(2, 1083), Point(1488, 796)),
]


# f11003l11093: the shipped fixture with a 15-digit D
F11003 = (11003, 1, 8, 11093, Point(1, 3943), Point(3833, 315))

# the five shipped fixtures, by name
FIXTURES = dict(zip(
    ("f7l13", "f251l271", "f1009l967", "f4003l4111", "f11003l11093"),
    ((7, 0, 3, 13, Point(1, 2), Point(6, 3)), *EXTRA_CURVES, F11003)))


def lift_fixture(name, seed):
    p, a, b, ell, Qt, Rt = FIXTURES[name]
    return lift_ec_instance(a, b, Qt, Rt, p, ell, seed)


def fixture_instance(seed=0):
    return lift_ec_instance(FIXTURE["a"], FIXTURE["b"], FIXTURE["Qt"],
                            FIXTURE["Rt"], FIXTURE["p"], FIXTURE["ell"], seed)


def classes_over_ell(instance):
    """R's local classes at u and u', each computed on its own."""
    return tuple(local_class(instance.R, instance.lifted_curve, instance.ell, place=w).c
                 for w in (instance.place_u, instance.place_u_conj))


def ecdl_oracle_for(instance):
    base = instance.base_curve
    ops = curve_group_ops(base)

    def oracle(Qb, Rb):
        return bsgs_dlog(Qb, Rb, instance.ell, **ops)

    return oracle


class TestLift:
    def test_fixture_base_data(self):
        base = Curve(0, 3, ("fp", 7))
        assert ec_group_order(base) == 13
        assert ec_scalar_mul(2, Point(1, 2), base) == Point(6, 3)

    def test_lift_invariants(self):
        inst = fixture_instance()
        # Q reduces to Qt at v, R to Rt
        assert inst.Q.x % 7 == 1 and inst.Q.y % 7 == 2
        E = inst.lifted_curve
        assert E.discriminant() % inst.ell != 0
        assert inst.d_ell % inst.ell != 0
        assert inst.certificate_det() != 0
        # R lies on the lifted curve over K
        EK = Curve(inst.a, inst.b_r, ("quad", inst.K.D))
        assert EK.contains(inst.R)
        # ell and p split in K
        assert split_places(inst.ell, inst.K)[0].splitting == "split"
        assert split_places(inst.p, inst.K)[0].splitting == "split"
        assert inst.sha_assumption

    def test_rejects_infinity(self):
        with pytest.raises(BadInput):
            lift_ec_instance(0, 3, Point(1, 2), INFINITY, 7, 13, 0)

    def test_rejects_composite_order(self):
        # y^2 = x^3 + 1 over F_5 has 6 points
        with pytest.raises(BadInput):
            lift_ec_instance(0, 1, Point(2, 3), Point(0, 1), 5, 6, 0)

    def test_base_order_is_certified_without_a_count(self, monkeypatch):
        # ell*Qt = O and 2*ell above the Hasse bound give #E = ell on every
        # fixture, so no lift counts its base curve
        import sigcalc.ecsig as ecsig

        count = ecsig.ec_group_order
        for name, (p, a, b, ell, Qt, Rt) in FIXTURES.items():
            def no_base_count(curve, p=p):
                if curve.base == ("fp", p):
                    raise AssertionError(f"the base curve of {name} was counted")
                return count(curve)

            monkeypatch.setattr(ecsig, "ec_group_order", no_base_count)
            assert lift_fixture(name, 0).ell == ell

    @pytest.mark.parametrize("p, a, b, ell, Qt, order", [
        (7, 0, 3, 11, Point(1, 2), 13),  # 11*Qt != O
        (11, 1, 1, 7, Point(0, 1), 14),  # 7*Qt = O, but 2*7 is inside the Hasse bound
    ])
    def test_uncertified_base_of_the_wrong_order_is_counted(self, p, a, b, ell, Qt, order):
        with pytest.raises(BadInput, match=f"base curve order {order} ") as exc:
            lift_ec_instance(a, b, Qt, Qt, p, ell, 0)
        assert exc.value.exit_code == 2

    def test_budget_exhaustion(self):
        from sigcalc.errors import BudgetExhausted

        with pytest.raises(BudgetExhausted) as exc:
            lift_ec_instance(0, 3, Point(1, 2), Point(6, 3), 7, 13, 0,
                             budget=1)
        assert exc.value.attempts <= 1

    def test_budget_counters_sum_to_attempts(self):
        # the first Q-lift of f11003l11093 passes; the five R-lifts tried
        # on it are the five attempts, each with its one rejection
        from sigcalc.errors import BudgetExhausted

        with pytest.raises(BudgetExhausted) as exc:
            lift_ec_instance(*F11003[1:3], *F11003[4:], F11003[0], F11003[3], 0,
                             budget=5)
        assert sum(exc.value.counters.values()) == exc.value.attempts == 5
        assert exc.value.counters == {"ell_not_split": 5}

    def test_ell_not_split_rejected_before_factoring(self, monkeypatch):
        # the five rejections above come from the symbol of the cubic
        # value at ell; none of the five cubic values is factored
        import sigcalc.quadfield as quadfield
        from sigcalc.errors import BudgetExhausted

        factored = []
        monkeypatch.setattr(quadfield, "sqrt_field", factored.append)
        with pytest.raises(BudgetExhausted):
            lift_ec_instance(*F11003[1:3], *F11003[4:], F11003[0], F11003[3], 0,
                             budget=5)
        assert factored == []

    def test_a_cubic_value_past_the_rho_cap_is_counted_and_skipped(self, monkeypatch):
        # the first cubic value of f7l13's lift is swapped for w = p1*p2,
        # two 36-bit primes: it is counted, and the sweep moves on
        import sigcalc.quadfield as quadfield
        from sigcalc.errors import BudgetExhausted

        sqrt_field, tried = quadfield.sqrt_field, []

        def plant_first(w):
            tried.append(w)
            return sqrt_field(42389895973 * 55701562349 if len(tried) == 1 else w)

        monkeypatch.setattr(quadfield, "sqrt_field", plant_first)
        with pytest.raises(BudgetExhausted) as exc:
            lift_ec_instance(0, 3, Point(1, 2), Point(6, 3), 7, 13, 0, budget=2)
        assert exc.value.counters == {"ell_not_split": 1, "value_unfactored": 1}
        tried.clear()
        inst = fixture_instance()
        mu = inst.R.x.a
        assert len(tried) == 2 and tried[1] == mu**3 + inst.a * mu + inst.b_r

    @pytest.mark.parametrize("p, a, b, ell, Qt, Rt, budget, counters", [
        # b_r = 16 at y = 4: 4*2^3 + 27*16^2 = 6944 = 0 mod 7
        (5, 2, 1, 7, Point(0, 4), Point(1, 2), 1, {"bad_reduction_at_ell": 1}),
        # b_r = 6 at y = 4: y^2 = x^3 + x + 6 has 13 points over F_13
        (11, 1, 6, 13, Point(2, 4), Point(5, 9), 1, {"ell_divides_reduced_order": 1}),
        # b_r = 9 at y = 3 reduces badly at 7; b_r = 64 at y = 8 gives cQ = 0
        (5, 2, 4, 7, Point(0, 3), Point(4, 4), 2,
         {"bad_reduction_at_ell": 1, "Q_trivial_at_ell": 1}),
        # the second cubic value gives cR_u = 0, so det = -2*cQ*cR_u = 0
        (5, 2, 4, 7, Point(0, 2), Point(4, 1), 2,
         {"ell_not_split": 1, "certificate_singular": 1}),
    ])
    def test_each_rejection_is_counted(self, p, a, b, ell, Qt, Rt, budget, counters):
        from sigcalc.errors import BudgetExhausted

        with pytest.raises(BudgetExhausted) as exc:
            lift_ec_instance(a, b, Qt, Rt, p, ell, 0, budget=budget)
        assert exc.value.counters == counters

    def test_a_p_degenerate_value_is_counted(self, monkeypatch):
        # no base reaches it: the cubic value is nu0^2 mod p, and nu0 != 0
        # because a curve of odd prime order has no point of order 2.  The
        # field of f7l13's second cubic value is planted with f = 7
        import sigcalc.quadfield as quadfield
        from sigcalc.errors import BudgetExhausted

        sqrt_field = quadfield.sqrt_field

        def plant(w):
            K, f = sqrt_field(w)
            return K, 7 * f

        monkeypatch.setattr(quadfield, "sqrt_field", plant)
        with pytest.raises(BudgetExhausted) as exc:
            lift_ec_instance(0, 3, Point(1, 2), Point(6, 3), 7, 13, 0, budget=2)
        assert exc.value.counters == {"ell_not_split": 1, "p_degenerate": 1}

    @given(st.sampled_from((3, 5, 7, 11, 13, 10007, 11093)), st.integers(1, 10**15))
    @settings(max_examples=200, deadline=None)
    def test_cubic_value_and_kernel_share_the_symbol_at_ell(self, ell, w):
        # the screen before sqrt_field rejects exactly what the check on
        # its squarefree D would: w = f^2 * D, with ell dividing neither
        assume(w % ell)
        D = prod(q for q, e in factorint(w).items() if e % 2)
        assert jacobi(w % ell, ell) == jacobi(D % ell, ell)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lifted_field_is_factored_once(self, monkeypatch, seed):
        # each cubic value is factored once, and the accepted one's
        # squarefree kernel D is not factored again to build the field
        import sigcalc.quadfield as quadfield

        calls = []
        factorint = quadfield.factorint
        monkeypatch.setattr(quadfield, "factorint", lambda n, *cap: calls.append(n) or factorint(n, *cap))
        inst = fixture_instance(seed)
        mu = inst.R.x.a
        w = mu**3 + inst.a * mu + inst.b_r
        assert calls[-1] == w
        assert len(set(calls)) == len(calls)
        assert inst.K.D not in calls[:-1]

    def test_local_classes_take_the_counted_order(self, monkeypatch):
        # the lift and the loader hand #E(F_ell) to local_class on the
        # curve's known_order: Q's class and R's class at u, twice
        import sigcalc.ecsig as ecsig

        orders = []

        def spy(point, curve, ell, place=None):
            orders.append(curve.known_order)
            return local_class(point, curve, ell, place)

        monkeypatch.setattr(ecsig, "local_class", spy)
        inst = fixture_instance()
        ec_instance_from_json(ec_instance_to_json(inst))
        assert orders and all(known and known[0] == inst.ell for known in orders)
        assert orders[-4:] == [(inst.ell, inst.d_ell)] * 4

    def test_rho_convention_holds(self):
        # R generates E(K_u')/ell and Q generates at u and v
        inst = fixture_instance()
        (cq1, cq2), (cr_u, cr_uc) = inst.certificate
        assert cq1 == cq2 != 0
        assert cr_uc != 0

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_classes_of_R_over_ell_are_opposite(self, name, seed):
        # R = (mu, f*sqrt(D)): conjugation maps R to -R and swaps u and
        # u', so cR_u' = -cR_u, and cR_u' = 0 would make det = 0; the
        # certificate reads cR_u' off that identity, the oracle computes
        # R's class at each place
        inst = lift_fixture(name, seed)
        assert inst.certificate[1] == classes_over_ell(inst)
        (_, _), (cr_u, cr_uc) = inst.certificate
        assert (cr_u + cr_uc) % inst.ell == 0

    def test_R_of_another_shape_gets_both_classes(self):
        # R = (sqrt(22), 1 + sqrt(22)) on y^2 = x^3 - 20x + 23, with the
        # rational Q = (1, 2): conjugation does not map R to -R, and R's
        # classes at the places over 13 are 7 and 1, not opposite
        import sigcalc.ecsig as ecsig
        from sigcalc.quadfield import RealQuadField

        K, ell = RealQuadField(22), 13
        d = ec_group_order(Curve(-20, 23, ("fp", ell)))
        E = Curve(-20, 23, ("rational",), known_order=(ell, d))
        Q, R = Point(1, 2), Point(K.from_sqrt_coords(0, 1), K.from_sqrt_coords(1, 1))
        assert Curve(-20, 23, ("quad", 22)).contains(R)
        u = split_places(ell, K)
        inst = ecsig._certified_instance(E, local_class(Q, E, ell).c, Q, R, K, u,
                                         split_places(3, K), 3, 0, True)
        assert inst.certificate[1] == tuple(local_class(R, E, ell, place=w).c for w in u) \
            == (7, 1)

    @given(name=st.sampled_from(["f7l13", "f251l271"]), k=st.integers(1, 10**6),
           seed=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_classes_of_R_over_ell_are_opposite_for_any_target(self, name, k, seed):
        p, a, b, ell, Qt, _ = FIXTURES[name]
        Rt = ec_scalar_mul(k % ell or 1, Qt, Curve(a, b, ("fp", p)))
        inst = lift_ec_instance(a, b, Qt, Rt, p, ell, seed)
        assert inst.certificate[1] == classes_over_ell(inst)
        (_, _), (cr_u, cr_uc) = inst.certificate
        assert (cr_u + cr_uc) % ell == 0

    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_derived_fields_match_the_lift_inputs(self, name):
        # base_curve, Qt and Rt are read off (a, b_r) and Q, R at v
        p, a, b, _, Qt, Rt = FIXTURES[name]
        inst = lift_fixture(name, 0)
        assert inst.base_curve == Curve(a % p, b % p, ("fp", p))
        assert (inst.Qt, inst.Rt) == (Qt, Rt)

    @pytest.mark.parametrize("certificate", [
        ((0, 1), (1, 2)),  # Q locally trivial at u, det = -1
        ((1, 1), (2, 0)),  # R locally trivial at u', det = -2
    ])
    def test_locally_trivial_reference_point_raises(self, certificate):
        # the signature system inverts cQ_u and cR_u' as well as det
        from dataclasses import replace

        with pytest.raises(SingularSystem):
            replace(fixture_instance(), certificate=certificate)


class TestSignatureRoundTrip:
    def test_fixture_recovers_doubling(self):
        inst = fixture_instance()
        oracle = ecdl_oracle_for(inst)
        sig = signature_from_ecdl(inst, oracle)
        m = ecdl_from_signature(inst, lambda _: sig)
        assert m == 2

    def test_key_identity_with_independent_parts(self):
        # m from BSGS, n from formal-group classes, (alpha, beta) from the
        # solved system: m + n*alpha + beta = 0 mod ell
        inst = fixture_instance()
        ell = inst.ell
        oracle = ecdl_oracle_for(inst)
        m = oracle(inst.Qt, inst.Rt)
        cQ = local_class(inst.Q, inst.lifted_curve, ell, place=inst.place_u).c
        cR = local_class(inst.R, inst.lifted_curve, ell, place=inst.place_u).c
        n = cR * pow(cQ, -1, ell) % ell
        sig = signature_from_ecdl(inst, oracle)
        assert (m + n * sig.alpha + sig.beta) % ell == 0

    def test_self_consistency_when_base_points_equal(self):
        # Rt = Qt gives m = 1, and 1 + n*alpha + beta = 0 with the
        # instance's own kernel-of-reduction ratio n
        inst = lift_ec_instance(0, 3, Point(1, 2), Point(1, 2), 7, 13, 0)
        oracle = ecdl_oracle_for(inst)
        sig = signature_from_ecdl(inst, oracle)
        ell = inst.ell
        cQ = local_class(inst.Q, inst.lifted_curve, ell, place=inst.place_u).c
        cR = local_class(inst.R, inst.lifted_curve, ell, place=inst.place_u).c
        n = cR * pow(cQ, -1, ell) % ell
        assert cQ * pow(cQ, -1, ell) % ell == 1  # the rho_u = Q normalisation
        assert (1 + n * sig.alpha + sig.beta) % ell == 0
        assert ecdl_from_signature(inst, lambda _: sig) == 1

    def test_round_trip_random_multipliers(self):
        base = Curve(0, 3, ("fp", 7))
        rng = rng_for(10, "multipliers")
        for _ in range(10):
            m_true = rng.randrange(1, 13)
            Rt = ec_scalar_mul(m_true, Point(1, 2), base)
            if Rt is INFINITY:
                continue
            inst = lift_ec_instance(0, 3, Point(1, 2), Rt, 7, 13, seed=1)
            oracle = ecdl_oracle_for(inst)
            m = ecdl_from_signature(
                inst, lambda i: signature_from_ecdl(i, oracle))
            assert m == m_true

    def test_extra_prime_order_curves(self):
        for p, a, b, ell, Qt, Rt in EXTRA_CURVES:
            inst = lift_ec_instance(a, b, Qt, Rt, p, ell, seed=0)
            oracle = ecdl_oracle_for(inst)
            m = ecdl_from_signature(
                inst, lambda i: signature_from_ecdl(i, oracle))
            assert ec_scalar_mul(m, Qt, inst.base_curve) == Rt
            assert m == 5  # the fixtures were built as Rt = 5*Qt

    def test_verification_failure_detected(self):
        from sigcalc.ecsig import EcSignature

        inst = fixture_instance()
        bad = EcSignature(alpha=1, beta=1)
        oracle = ecdl_oracle_for(inst)
        good = signature_from_ecdl(inst, oracle)
        if (bad.alpha, bad.beta) == (good.alpha, good.beta):
            bad = EcSignature(alpha=good.alpha + 1, beta=good.beta)
        with pytest.raises(VerificationFailed):
            ecdl_from_signature(inst, lambda _: bad)


class TestCertificateIsTheSource:
    @pytest.mark.parametrize("curve, expected", [
        ((7, 0, 3, 13, Point(1, 2), Point(6, 3)), (1, 3, 2)),
        (F11003, (8679, 7556, 5)),
    ])
    def test_no_local_class_after_the_lift(self, monkeypatch, curve, expected):
        # every class at u and u' is read from the certificate; the
        # expected values are the golden ec-roundtrip reports'
        import sigcalc.ecsig as ecsig

        p, a, b, ell, Qt, Rt = curve
        inst = lift_ec_instance(a, b, Qt, Rt, p, ell, seed=0)

        def forbidden(*args, **kwargs):
            raise AssertionError("local_class called after the lift")

        monkeypatch.setattr(ecsig, "local_class", forbidden)
        sig = signature_from_ecdl(inst, ecdl_oracle_for(inst))
        m = ecdl_from_signature(inst, lambda _: sig)
        assert (sig.alpha, sig.beta, m) == expected
        assert coker_dim(inst) == 0
        assert coker_dim(inst, [inst.place_v]) == 1
        assert coker_dim(inst, [inst.place_v, inst.place_v_conj]) == 2
        assert coker_dim(inst, [inst.place_u]) == 1

    @pytest.mark.parametrize("name", ["f7l13", "f1009l967", "f11003l11093"])
    def test_lifted_curve_carries_the_counted_order(self, monkeypatch, name):
        # local_class without d reads d_ell off the instance's one curve
        import sigcalc.ecurve as ecurve

        inst = lift_fixture(name, 0)

        def forbidden(curve):
            raise AssertionError("#E(F_ell) counted again after the lift")

        monkeypatch.setattr(ecurve, "ec_group_order", forbidden)
        E, ell = inst.lifted_curve, inst.ell
        assert E is inst.lifted_curve and E.known_order == (ell, inst.d_ell)
        (cQ, _), (cR, _) = inst.certificate
        assert local_class(inst.Q, E, ell, place=inst.place_u).c == cQ
        assert local_class(inst.R, E, ell, place=inst.place_u).c == cR

    def test_certificate_columns_are_the_places_over_ell(self):
        inst = fixture_instance()
        E, ell = inst.lifted_curve, inst.ell
        assert inst.certificate == tuple(
            tuple(local_class(P, E, ell, place=w).c
                  for w in (inst.place_u, inst.place_u_conj))
            for P in (inst.Q, inst.R))
        # a place over ell of another field has no certificate column
        from dataclasses import replace

        with pytest.raises(BadInput):
            coker_dim(inst, [replace(inst.place_u, D=inst.K.D + 1)])


def bsgs_coordinates(instance, place):
    """Coordinates of Q and R in E(K_w)/ell = F_ell at a place over p,
    where the reduced curve is the base curve of prime order ell: the
    discrete logs of their reductions against the reduction of Q."""
    assert place.q == instance.p
    gen, target = (Point(embed(P.x, place, 1), embed(P.y, place, 1))
                   for P in (instance.Q, instance.R))
    ops = curve_group_ops(instance.lifted_curve.reduction(place.q))
    return 1, bsgs_dlog(gen, target, instance.ell, **ops) % instance.ell


class TestCokerDim:
    def test_dimension_table(self):
        inst = fixture_instance()
        assert coker_dim(inst) == 0
        assert coker_dim(inst, [inst.place_v]) == 1
        assert coker_dim(inst, [inst.place_v, inst.place_v_conj]) == 2

    def test_v_column_grows_dimension_by_one(self):
        for p, a, b, ell, Qt, Rt in EXTRA_CURVES[:2]:
            inst = lift_ec_instance(a, b, Qt, Rt, p, ell, seed=0)
            assert coker_dim(inst) == 0
            assert coker_dim(inst, [inst.place_v]) == 1
            assert coker_dim(inst, [inst.place_v, inst.place_v_conj]) == 2

    def test_bad_place_contributes_zero_when_proxy_holds(self):
        # 3 divides the discriminant of the fixture lift; the vanishing
        # proxy holds (13 divides neither 3-1 nor the disc valuation 5),
        # so the place adds no column
        inst = fixture_instance()
        assert abs(inst.lifted_curve.discriminant()) % 3 == 0
        w3 = split_places(3, inst.K)[0]
        if w3.degree == 1:
            assert coker_dim(inst, [w3]) == 0

    def test_bad_place_proxy_detects_ell_in_norm_minus_one(self):
        from dataclasses import replace

        from sigcalc.ecsig import _bad_place_proxy_ok

        inst = fixture_instance()
        # a synthetic model whose discriminant picks up 79^2; 79 splits in
        # Q(sqrt 22) and 13 | 79 - 1, so the vanishing proxy must fail
        fake = replace(inst, b_r=79)
        assert abs(fake.lifted_curve.discriminant()) % 79 == 0
        w79 = split_places(79, inst.K)[0]
        assert w79.splitting == "split"
        assert not _bad_place_proxy_ok(fake, w79)
        # the honest bad places of the true instance pass the proxy
        for q in (2, 3):
            for w in split_places(q, inst.K):
                if w.degree == 1:
                    assert _bad_place_proxy_ok(inst, w)

    @pytest.mark.parametrize("q, order", [(67, 52), (97, 117)])
    def test_ell_torsion_with_a_cofactor_contributes_one(self, q, order):
        # #E(F_q) = k*ell with k > 1: the reduction of Q need not have
        # order ell, and the local group is still one-dimensional
        inst = fixture_instance()
        assert ec_group_order(inst.lifted_curve.reduction(q)) == order
        for w in split_places(q, inst.K):
            assert coker_dim(inst, [w]) == 1

    def test_singular_certificate_raises(self):
        from dataclasses import replace

        with pytest.raises(SingularSystem):
            replace(fixture_instance(), certificate=((1, 1), (1, 1)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_rank_two_against_coordinates(self, name, seed):
        # the coordinate matrix over S = {u, u', v, v'}: the certificate's
        # columns at u and u', discrete logs at the places over p
        inst = lift_fixture(name, seed)
        columns = [*zip(*inst.certificate)]
        columns += [bsgs_coordinates(inst, w) for w in (inst.place_v, inst.place_v_conj)]
        rank = rank_mod([list(row) for row in zip(*columns)], inst.ell)
        assert rank == 2
        assert coker_dim(inst, [inst.place_v, inst.place_v_conj]) == 4 - rank

    def test_trivial_local_groups_do_not_contribute(self):
        inst = fixture_instance()
        # a good degree-1 place with order not divisible by ell adds nothing
        for q in (5, 17, 23):
            places = [w for w in split_places(q, inst.K)
                      if w.degree == 1 and abs(
                          inst.lifted_curve.discriminant()) % q != 0]
            if not places:
                continue
            if ec_group_order(inst.lifted_curve.reduction(q)) % inst.ell:
                assert coker_dim(inst, [places[0]]) == 0


def brute_scan(E, K, ell, bound):
    """The scan's hits from a count of E(F_q) at every good odd q <= bound
    but ell, kept at the degree-1 places over q."""
    disc = abs(E.discriminant())
    hits = []
    for q in primes_up_to(bound):
        if q in (2, ell) or disc % q == 0:
            continue
        order = ec_group_order(E.reduction(q))
        hits += [(w, order) for w in split_places(q, K) if w.degree == 1 and order % ell == 0]
    return hits


def small_prime_order_curve(seed):
    """(p, a, b, ell, Qt): a seeded curve over F_p, 50 < p < 400, of prime
    order ell, and a point on it."""
    r = rng_for(seed, "scan-curve")
    primes = [q for q in primes_up_to(400) if q > 50]
    while True:
        p = primes[r.randrange(0, len(primes))]
        a, b = r.randrange(0, p), r.randrange(1, p)
        curve = Curve(a, b, ("fp", p))
        if curve.is_singular():
            continue
        ell = ec_group_order(curve)
        if ell != p and is_prime(ell):
            x = next(x for x in range(p) if jacobi((x**3 + a * x + b) % p, p) == 1)
            return p, a, b, ell, Point(x, sqrt_mod_prime((x**3 + a * x + b) % p, p))


class TestScan:
    def test_hits_cross_checked_by_enumeration(self):
        inst = fixture_instance()
        E, K, ell = inst.lifted_curve, inst.K, inst.ell
        hits = scan_torsion_places(E, K, ell, 200)
        keyed = {(w.q, w.root_label) for w, _ in hits}
        disc = abs(E.discriminant())
        from sigcalc.arith import primes_up_to

        for q in primes_up_to(200):
            if q in (2, ell) or disc % q == 0:
                continue
            degree_one = [w for w in split_places(q, K)
                          if w.degree == 1 and w.norm <= 200]
            order = ec_group_order(E.reduction(q)) if degree_one else None
            for w in degree_one:
                expected = order % ell == 0
                assert ((w.q, w.root_label) in keyed) == expected

    def test_norm_lower_bound(self):
        inst = fixture_instance()
        hits = scan_torsion_places(inst.lifted_curve, inst.K, inst.ell, 500)
        bound = (inst.ell**0.5 - 1) ** 2
        assert all(w.norm >= bound for w, _ in hits)

    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_screen_matches_an_unscreened_loop(self, name):
        inst = lift_fixture(name, 0)
        E, K, ell = inst.lifted_curve, inst.K, inst.ell
        assert scan_torsion_places(E, K, ell, 1000) == brute_scan(E, K, ell, 1000)

    @pytest.mark.parametrize("name", ["f4003l4111", "f11003l11093"])
    def test_no_curve_counted_below_the_hasse_bound(self, monkeypatch, name):
        import sigcalc.ecsig as ecsig

        inst = lift_fixture(name, 0)

        def forbidden(curve):
            raise AssertionError("a curve was counted")

        monkeypatch.setattr(ecsig, "ec_group_order", forbidden)
        assert scan_torsion_places(inst.lifted_curve, inst.K, inst.ell, 1000) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_screen_matches_a_brute_count_on_small_ell(self, seed):
        p, a, b, ell, Qt = small_prime_order_curve(seed)
        Rt = ec_scalar_mul(rng_for(seed, "scan-m").randrange(1, ell), Qt,
                           Curve(a, b, ("fp", p)))
        inst = lift_ec_instance(a, b, Qt, Rt, p, ell, seed)
        E, K = inst.lifted_curve, inst.K
        for bound in (300, 1000):
            assert scan_torsion_places(E, K, ell, bound) == brute_scan(E, K, ell, bound)

    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_nothing_is_counted_up_to_the_early_exit_bound(self, monkeypatch, name):
        # the largest bound with bound + 1 + isqrt(4*bound) < ell walks no
        # prime; one more and the scan is the brute one again
        import sigcalc.ecsig as ecsig

        inst = lift_fixture(name, 0)
        E, K, ell = inst.lifted_curve, inst.K, inst.ell
        bound = max(n for n in range(ell) if n + 1 + isqrt(4 * n) < ell)

        def forbidden(*args):
            raise AssertionError("a prime was walked")

        with monkeypatch.context() as patch:
            for attr in ("ec_group_order", "ell_may_divide_order", "prime_splitting"):
                patch.setattr(ecsig, attr, forbidden)
            assert scan_torsion_places(E, K, ell, bound) == []
        assert scan_torsion_places(E, K, ell, bound + 1) == brute_scan(E, K, ell, bound + 1)

    def test_a_ramified_place_is_scanned(self):
        # 13 divides #E(F_37) = 39 for y^2 = x^3 + 3; in Q(sqrt(37)) the
        # place over 37 is ramified, of degree 1
        from sigcalc.quadfield import RealQuadField

        E, K, ell = Curve(0, 3, ("rational",)), RealQuadField(37), 13
        order = ec_group_order(E.reduction(37))
        assert order % ell == 0
        hits = scan_torsion_places(E, K, ell, 100)
        assert (split_places(37, K)[0], order) in hits
        assert split_places(37, K)[0].splitting == "ramified"
        assert hits == brute_scan(E, K, ell, 100)

    def test_small_bound_is_empty(self):
        inst = fixture_instance()
        ell = inst.ell
        small = int((ell**0.5 - 1) ** 2)
        hits = scan_torsion_places(inst.lifted_curve, inst.K, ell, small - 1)
        assert hits == []


class TestSerialization:
    @pytest.mark.parametrize("name", list(FIXTURES))
    def test_round_trip_bit_exact(self, name):
        inst = lift_fixture(name, 5)
        text = ec_instance_to_json(inst)
        again = ec_instance_from_json(text)
        assert ec_instance_to_json(again) == text
        assert again == inst
        assert again.K.D == inst.K.D
        assert again.Qt == inst.Qt and again.Rt == inst.Rt
        assert again.base_curve == inst.base_curve
        assert again.d_ell == inst.d_ell
        assert again.certificate == inst.certificate
        assert (again.place_u, again.place_u_conj, again.place_v, again.place_v_conj) \
            == (inst.place_u, inst.place_u_conj, inst.place_v, inst.place_v_conj)
        assert again.sha_assumption

    def test_the_loader_factors_D_once(self, monkeypatch):
        # Curve.contains reads K off R's coordinates and builds no field
        import sigcalc.quadfield as quadfield

        inst = lift_fixture("f11003l11093", 0)
        text, calls, factorint = ec_instance_to_json(inst), [], quadfield.factorint
        monkeypatch.setattr(quadfield, "factorint", lambda n, *cap: calls.append(n) or factorint(n, *cap))
        assert ec_instance_from_json(text) == inst
        assert calls == [inst.K.D]

    def test_numbers_are_decimal_strings(self):
        import json

        doc = json.loads(ec_instance_to_json(fixture_instance()))
        assert doc["p"] == "7" and doc["ell"] == "13"
        assert doc["sha_assumption"] is True
        assert isinstance(doc["Q"][0], str)

    def test_unknown_key_is_rejected(self):
        import json

        doc = json.loads(ec_instance_to_json(fixture_instance()))
        assert sorted(doc) == list(EC_INSTANCE_KEYS)
        doc["extra"] = "1"
        with pytest.raises(BadInput, match="unknown keys"):
            ec_instance_from_json(json.dumps(doc))

    def test_point_off_the_curve_is_rejected(self):
        import json

        doc = json.loads(ec_instance_to_json(fixture_instance()))
        doc["R"][0][0] = str(int(doc["R"][0][0]) + 1)
        with pytest.raises(BadInput, match="lie on"):
            ec_instance_from_json(json.dumps(doc))

    def test_base_of_the_wrong_order_is_rejected(self):
        import json

        from sigcalc.arith import primes_up_to

        inst = fixture_instance()
        doc = json.loads(ec_instance_to_json(inst))
        for q in primes_up_to(200):
            places = split_places(q, inst.K)
            if q not in (2, 7, 13) and len(places) == 2 \
                    and inst.lifted_curve.discriminant() % q \
                    and ec_group_order(inst.lifted_curve.reduction(q)) != 13:
                break
        doc["p"], doc["v_root_label"] = str(q), str(places[0].root_label)
        with pytest.raises(BadInput, match="base curve order"):
            ec_instance_from_json(json.dumps(doc))

    def test_singular_certificate_is_rejected(self, monkeypatch):
        import sigcalc.ecsig as ecsig
        from sigcalc.ecurve import LocalClass

        # R's class at u' is minus its class at u, so the certificate
        # ((cQ, cQ), (c, -c)) is singular only for c = 0
        text = ec_instance_to_json(fixture_instance())
        monkeypatch.setattr(ecsig, "local_class",
                            lambda point, curve, ell, place=None: LocalClass(0 if place else 1))
        with pytest.raises(SingularSystem):
            ec_instance_from_json(text)
