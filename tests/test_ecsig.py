import pytest
from hypothesis import assume, given, settings, strategies as st

from sigcalc.arith import bsgs_dlog, jacobi, primes_up_to, rank_mod
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
from sigcalc.quadfield import embed, split_places, squarefree_kernel
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
        import sigcalc.ecsig as ecsig
        from sigcalc.errors import BudgetExhausted

        factored = []
        monkeypatch.setattr(ecsig, "sqrt_field", factored.append)
        with pytest.raises(BudgetExhausted):
            lift_ec_instance(*F11003[1:3], *F11003[4:], F11003[0], F11003[3], 0,
                             budget=5)
        assert factored == []

    @given(st.sampled_from((3, 5, 7, 11, 13, 10007, 11093)), st.integers(1, 10**15))
    @settings(max_examples=200, deadline=None)
    def test_cubic_value_and_kernel_share_the_symbol_at_ell(self, ell, w):
        # the screen before squarefree_kernel rejects exactly what the
        # check on D would: w = f^2 * D, with ell dividing neither
        assume(w % ell)
        D, _ = squarefree_kernel(w)
        assert jacobi(w % ell, ell) == jacobi(D % ell, ell)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lifted_field_is_factored_once(self, monkeypatch, seed):
        # each cubic value is factored once, and the accepted one's
        # squarefree kernel D is not factored again to build the field
        import sigcalc.quadfield as quadfield

        calls = []
        factorint = quadfield.factorint
        monkeypatch.setattr(quadfield, "factorint", lambda n: calls.append(n) or factorint(n))
        inst = fixture_instance(seed)
        mu = inst.R.x.a
        w = mu**3 + inst.a * mu + inst.b_r
        assert calls[-1] == w
        assert len(set(calls)) == len(calls)
        assert inst.K.D not in calls[:-1]

    def test_local_classes_take_the_counted_order(self, monkeypatch):
        # the lift and the loader hand #E(F_ell) to local_class
        import sigcalc.ecsig as ecsig

        orders = []

        def spy(*args, d=None, **kwargs):
            orders.append(d)
            return local_class(*args, d=d, **kwargs)

        monkeypatch.setattr(ecsig, "local_class", spy)
        inst = fixture_instance()
        ec_instance_from_json(ec_instance_to_json(inst))
        assert None not in orders
        assert orders[-6:] == [inst.d_ell] * 6

    def test_rho_convention_holds(self):
        # R generates E(K_u')/ell and Q generates at u and v
        inst = fixture_instance()
        (cq1, cq2), (cr_u, cr_uc) = inst.certificate
        assert cq1 == cq2 != 0
        assert cr_uc != 0


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

        inst = replace(fixture_instance(), certificate=((1, 1), (1, 1)))
        with pytest.raises(SingularSystem):
            coker_dim(inst)

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
        disc = abs(E.discriminant())
        expected = []
        for q in primes_up_to(1000):
            if q in (2, ell) or disc % q == 0:
                continue
            degree_one = [w for w in split_places(q, K) if w.degree == 1 and w.norm <= 1000]
            if degree_one:
                order = ec_group_order(E.reduction(q))
                if order % ell == 0:
                    expected.extend((w, order) for w in degree_one)
        assert scan_torsion_places(E, K, ell, 1000) == expected

    @pytest.mark.parametrize("name", ["f4003l4111", "f11003l11093"])
    def test_no_curve_counted_below_the_hasse_bound(self, monkeypatch, name):
        import sigcalc.ecsig as ecsig

        inst = lift_fixture(name, 0)

        def forbidden(curve):
            raise AssertionError("a curve was counted")

        monkeypatch.setattr(ecsig, "ec_group_order", forbidden)
        assert scan_torsion_places(inst.lifted_curve, inst.K, inst.ell, 1000) == []

    def test_small_bound_is_empty(self):
        inst = fixture_instance()
        ell = inst.ell
        small = int((ell**0.5 - 1) ** 2)
        hits = scan_torsion_places(inst.lifted_curve, inst.K, ell, small - 1)
        assert hits == []


class TestSerialization:
    def test_round_trip_bit_exact(self):
        inst = fixture_instance(seed=5)
        text = ec_instance_to_json(inst)
        again = ec_instance_from_json(text)
        assert ec_instance_to_json(again) == text
        assert again.K.D == inst.K.D
        assert again.Qt == inst.Qt and again.Rt == inst.Rt
        assert again.certificate == inst.certificate
        assert again.sha_assumption

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

        text = ec_instance_to_json(fixture_instance())
        monkeypatch.setattr(ecsig, "local_class",
                            lambda point, curve, ell, place=None, d=None: LocalClass(1, place, 9))
        with pytest.raises(SingularSystem):
            ec_instance_from_json(text)
