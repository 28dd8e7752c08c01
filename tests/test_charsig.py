from dataclasses import replace
from math import isqrt

import pytest
import sympy
from hypothesis import HealthCheck, assume, given, reject, settings, strategies as st

import sigcalc.charsig as charsig
from sigcalc.arith import bsgs_dlog, factor_smooth, mult_group_ops, smooth_cofactor, teichmuller
from sigcalc.charsig import (
    INSTANCE_KEYS,
    SIGNATURE_COLUMN,
    check_conditions,
    dl_from_signature,
    instance_from_json,
    instance_to_json,
    lift_unit,
    pairing_column,
    signature_from_dl,
    signature_index_calculus,
    _BetaSearch,
    _shell_point,
)
from sigcalc.errors import (
    BadInput,
    DegenerateTarget,
    OracleInconsistent,
    SigcalcError,
    VerificationFailed,
)
from sigcalc.indexcalc import Relation
from sigcalc.quadfield import RealQuadField, embed, place_valuations, split_places
from sigcalc.seeds import rng_for


def bsgs_oracle(p):
    ops = mult_group_ops(p)

    def oracle(g, a):
        return bsgs_dlog(g, a, p - 1, **ops)

    return oracle


class TestLiftUnit:
    def test_worked_lift(self):
        # d sweeps 3, 34, 65; 1+3^2 = 10 = 0 mod 5 and 1+34^2 = 1157 = 2 mod 5
        # (a non-residue) are rejected, 1+65^2 = 4226 = 1 mod 5 is kept
        inst = lift_unit(17, 31, 5, seed=0)
        assert inst.K.D == 4226
        assert (inst.alpha.a, inst.alpha.b) == (65, 1)
        assert inst.place_v.root_label == 14
        assert inst.place_u.root_label == 1
        assert inst.alpha.norm() == -1
        assert inst.residue_at_v() == 17
        assert inst.condition_report.all_ok

    def test_lifted_field_is_factored_once(self, monkeypatch):
        # 1 + 65^2 = 4226 = D gives the field and f = 1 from one factorisation
        import sigcalc.quadfield as quadfield

        calls = []
        factorint = quadfield.factorint
        monkeypatch.setattr(quadfield, "factorint", lambda n: calls.append(n) or factorint(n))
        inst = lift_unit(17, 31, 5, seed=0)
        assert inst.K.D == 4226
        assert calls == [4226]

    def test_degenerate_targets(self):
        with pytest.raises(DegenerateTarget):
            lift_unit(1, 31, 5, seed=0)
        with pytest.raises(DegenerateTarget):
            lift_unit(30, 31, 5, seed=0)

    def test_ell_power_target_rejected(self):
        # 26 = 3^5 mod 31 is a fifth power; its log is 0 mod 5 by inspection
        with pytest.raises(BadInput):
            lift_unit(26, 31, 5, seed=0)

    def test_norm_is_minus_one_always(self):
        rng = rng_for(2, "lift")
        p, ell = 211, 7  # 210 = 2*3*5*7
        for _ in range(10):
            a = rng.randrange(2, p - 1)
            if pow(a, (p - 1) // ell, p) == 1 or a == p - 1:
                continue
            inst = lift_unit(a, p, ell, seed=0)
            assert inst.alpha.norm() == -1
            assert inst.residue_at_v() == a

    def test_budget_counters_sum_to_attempts(self):
        # three of the eight lifts fail two conditions at once; each
        # attempt still counts once, under its first failed condition
        from sigcalc.errors import BudgetExhausted

        with pytest.raises(BudgetExhausted) as exc:
            lift_unit(3, 100003, 7, 0, budget=8)
        counters = exc.value.counters
        assert sum(counters.values()) == exc.value.attempts == 8
        assert counters == {"ell_not_split": 5, "condition_class_number": 3}


class TestConditions:
    def test_ell_power_alpha_fails_condition_two(self):
        inst = lift_unit(17, 31, 5, seed=0)
        assert inst.condition_report.unit_wild_everywhere
        powered = replace(inst, alpha=inst.alpha**5)
        # the replaced instance computes its own report, not the lift's
        assert powered.condition_report == check_conditions(powered)
        assert not any(ok for _, ok in powered.condition_report.unit_wild_at)

    def test_condition_three_worked_value(self):
        # alpha = 17 at v and 17^6 = 8 != 1 mod 31
        assert pow(17, 6, 31) == 8
        inst = lift_unit(17, 31, 5, seed=0)
        assert inst.condition_report.target_not_ell_power

    def test_class_number_failure_fixture(self):
        # h(Q(sqrt 79)) = 3: a field with ell | h for ell = 3
        K = RealQuadField(79)
        assert K.class_number == 3


class TestSignatureFromDl:
    def test_worked_chain(self):
        # alpha = 16 mod 25 at the root-1 place: 16 = 1 * (1 + 5*3), y = 3;
        # m = 7 = 2 mod 5; s = -2 * 3^-1 = 1 mod 5
        inst = lift_unit(17, 31, 5, seed=0)
        sig = signature_from_dl(inst, bsgs_oracle(31))
        assert (sig.s, sig.m, sig.y) == (1, 2, 3)

    def test_conjugate_place_changes_signature(self):
        # at the root-4 place alpha = 14 = 24*(1+5*2) mod 25, so y' = 2
        # and s' = -2 * 2^-1 = 4 mod 5
        inst = lift_unit(17, 31, 5, seed=0)
        swapped = replace(inst, place_u=inst.place_u_conj, place_u_conj=inst.place_u)
        sig = signature_from_dl(swapped, bsgs_oracle(31))
        assert (sig.s, sig.y) == (4, 2)

    def test_wrong_oracle_rejected(self):
        inst = lift_unit(17, 31, 5, seed=0)
        with pytest.raises(OracleInconsistent):
            signature_from_dl(inst, lambda g, a: 3)

    def test_invariant_under_unit_rescaling(self):
        # replacing alpha by +-alpha^k (k coprime to ell) fixes s
        inst = lift_unit(17, 31, 5, seed=0)
        s0 = signature_from_dl(inst, bsgs_oracle(31)).s
        for k in (1, 2, 3, 4, 6):
            for sign in (1, -1):
                alpha = inst.alpha**k * sign
                variant = replace(inst, alpha=alpha)
                if not variant.condition_report.all_ok:
                    continue
                assert signature_from_dl(variant, bsgs_oracle(31)).s == s0


class TestDlFromSignature:
    def test_shortcut_for_ell_powers(self):
        # 26 = 3^5: answered without consulting the oracle
        def exploding_oracle(instance):
            raise AssertionError("oracle must not be called")

        assert dl_from_signature(26, 3, 31, 5, exploding_oracle) == 0

    def test_worked_inverse_chain(self):
        def sig_oracle(instance):
            return signature_from_dl(instance, bsgs_oracle(31))

        assert dl_from_signature(17, 3, 31, 5, sig_oracle, seed=0) == 2

    def test_round_trip_100_targets(self):
        p, ell = 211, 7
        g = sympy.primitive_root(p)
        ops = mult_group_ops(p)

        def sig_oracle(instance):
            return signature_from_dl(instance, bsgs_oracle(p))

        rng = rng_for(4, "roundtrip")
        checked = 0
        draws = 0
        while checked < 100 and draws < 200:
            draws += 1
            a = pow(g, rng.randrange(1, p - 1), p)
            if a in (1, p - 1):
                continue
            m = dl_from_signature(a, g, p, ell, sig_oracle, seed=0)
            assert m == bsgs_dlog(g, a, p - 1, **ops) % ell
            checked += 1
        assert checked == 100


class TestSquareRootOfMinusOne:
    def test_imaginary_targets_shortcut_to_zero(self):
        # a^2 = -1 forces 4 | (p-1)/ell, so such a is always an ell-th
        # power: the lift never runs and the log is 0 mod ell
        from sigcalc.arith import sqrt_mod_prime

        for p, ell in ((1021, 5), (1013, 11)):
            a = sqrt_mod_prime(p - 1, p)
            assert pow(a, (p - 1) // ell, p) == 1
            with pytest.raises(BadInput):
                lift_unit(a, p, ell, seed=0)
            m = dl_from_signature(a, sympy.primitive_root(p), p, ell,
                                  lambda i: None)
            assert m == 0
            g = sympy.primitive_root(p)
            assert bsgs_dlog(g, a, p - 1, **mult_group_ops(p)) % ell == 0


class TestSignatureIndexCalculus:
    def test_bound_validation(self):
        inst = lift_unit(17, 31, 5, seed=0)
        with pytest.raises(BadInput):
            signature_index_calculus(inst, 1, seed=0)

    def test_attempt_budget_respected(self):
        from sigcalc.errors import BudgetExhausted, RankDeficient

        inst = lift_unit(17, 31, 5, seed=0)
        with pytest.raises((BudgetExhausted, RankDeficient)):
            signature_index_calculus(inst, 60, seed=0, max_attempts=20)

    def test_budget_counters_sum_to_attempts(self):
        from sigcalc.errors import BudgetExhausted

        inst = lift_unit(17, 31, 5, seed=0)
        with pytest.raises(BudgetExhausted) as exc:
            signature_index_calculus(inst, 60, seed=0, max_attempts=20)
        counters = exc.value.counters
        assert sum(counters.values()) == exc.value.attempts == 20
        assert counters["not_smooth"] and counters["not_unit_at_u"]

    def test_agrees_with_dl_oracle_path(self):
        inst = lift_unit(17, 31, 5, seed=0)
        s_dl = signature_from_dl(inst, bsgs_oracle(31)).s
        s_ic = signature_index_calculus(inst, 60, seed=0).s
        assert s_ic == s_dl == 1

    def test_agreement_across_targets(self):
        for a in (7, 11, 22):
            inst = lift_unit(a, 31, 5, seed=0)
            s_dl = signature_from_dl(inst, bsgs_oracle(31)).s
            s_ic = signature_index_calculus(inst, 60, seed=0).s
            assert s_ic == s_dl

    def test_relation_rows_vanish_on_oracle_values(self):
        """Independent check of the relation semantics: local pairing
        values of the unramified places, derived from principal
        generators (h = 1) and the dl-oracle signature, satisfy every
        sampled relation identically."""
        p, ell = 211, 7
        inst = None
        g = sympy.primitive_root(p)
        for a in range(2, p - 1):
            if pow(a, (p - 1) // ell, p) == 1:
                continue
            try:
                candidate = lift_unit(a, p, ell, seed=0, g=g)
            except Exception:
                continue
            if candidate.K.class_number == 1:
                inst = candidate
                break
        assert inst is not None, "no class-number-one lift found"
        bound = 40
        s_true = signature_from_dl(inst, bsgs_oracle(p)).s

        def theta_v(x):
            residue = embed(x, inst.place_v, 1)
            return bsgs_dlog(inst.g, residue, p - 1,
                             **mult_group_ops(p)) % ell

        def y_u(x):
            return teichmuller(embed(x, inst.place_u, 2), ell)

        def generator_of(place):
            # brute search xi = (X + b sqrt(D))/2 with |N(xi)| = norm(place)
            # and v_place(xi) = 1; h = 1 guarantees one exists
            K, q = inst.K, place.norm
            if place.splitting == "inert":
                return K.element(place.q, 0)
            for b in range(4001):
                for sign in (4 * q, -4 * q):
                    X2 = K.D * b * b + sign
                    if X2 <= 0:
                        continue
                    X = isqrt(X2)
                    if X * X != X2:
                        continue
                    xi = _integral_half(K, X, b)
                    if xi is None:
                        continue
                    assert abs(xi.norm()) == q
                    if place.splitting == "ramified":
                        return xi
                    for cand in (xi, xi.conjugate()):  # |N| = q: v_w(cand) <= 1
                        if embed(cand, place, 1) == 0:
                            return cand
            return None

        oracle_x = {}
        search = _BetaSearch.start(inst, bound, 0)
        base = [w for q in sympy.primerange(2, bound + 1) for w in split_places(q, inst.K)
                if w.norm <= bound and w not in (inst.place_u, inst.place_v)]
        places = (*base, inst.place_u_conj, inst.place_v_conj)
        assert search.columns == {place: pairing_column(place) for place in places}
        for place in places:
            xi = generator_of(place)
            if xi is None:
                continue
            oracle_x[pairing_column(place)] = (-(y_u(xi) * s_true + theta_v(xi))) % ell
        # require the oracle to cover the base: h = 1 guarantees generators
        assert len(oracle_x) == len(search.columns)

        rows = 0
        for index in range(300_000):
            rel = search.attempt(index)
            if isinstance(rel, str):
                continue  # a rejection reason
            total = 1  # the theta_v(beta) = 1 contribution at v
            for col, coeff in rel.coeffs:
                value = s_true if col == SIGNATURE_COLUMN else oracle_x[col]
                total += coeff * value
            assert total % ell == 0
            assert rel.const == (-1) % ell
            rows += 1
            if rows >= 25:
                break
        assert rows >= 25


def _integral_half(K, X, b):
    """(X + b*sqrt(D))/2 as an integer of K, or None if not integral."""
    if K.omega_is_half:
        if (X - b) % 2:
            return None
        return K.element((X - b) // 2, b)
    if X % 2 or b % 2:
        return None
    return K.from_sqrt_coords(X // 2, b // 2)


# (p, ell) with ell | p - 1 at which 50 of 50 seeded generic lifts solved at
# B = 200 within 20k attempts
SMALL_PAIRS = [(31, 5), (61, 5), (71, 7), (101, 5), (131, 13), (151, 5), (181, 5), (211, 7)]


@st.composite
def small_lifts(draw):
    """(instance, seed) for a uniform non-ell-th-power target at a small p."""
    p, ell = draw(st.sampled_from(SMALL_PAIRS))
    a = draw(st.integers(2, p - 2))
    seed = draw(st.integers(0, 10**6))
    assume(pow(a, (p - 1) // ell, p) != 1)
    try:
        return lift_unit(a, p, ell, seed), seed
    except SigcalcError:
        reject()


def element_route_attempt(search, index):
    """An attempt read the way the search read it before it kept alpha's
    images: beta built in K, its norm split over places by
    place_valuations, and its image at u by embed.  Returns the outcome
    and the (place, valuation) list of a smooth beta (None otherwise)."""
    inst = search.instance
    p, ell, alpha = inst.p, inst.ell, inst.alpha
    r, s = search.pair(index)
    if (r * embed(alpha, inst.place_u, 1) + s) % ell == 0:
        return "not_unit_at_u", None
    norm = abs(s * s + alpha.trace() * r * s + alpha.norm() * r * r)
    if norm == 0:
        return "zero_norm", None
    e_ell = e_p = 0
    while norm % ell == 0:
        norm //= ell
        e_ell += 1
    while norm % p == 0:
        norm //= p
        e_p += 1
    if smooth_cofactor(norm, search.bound) > 1:
        return "not_smooth", None
    beta = r * alpha + inst.K.element(s, 0)
    shares = place_valuations(beta, factor_smooth(norm, search.bound))
    columns = search.columns
    coeffs = {SIGNATURE_COLUMN: teichmuller(embed(beta, inst.place_u, 2), ell)}
    for place, e in shares:
        if place not in columns:
            return "outside_base", shares
        coeffs[columns[place]] = coeffs.get(columns[place], 0) + e
    if e_ell:
        coeffs[columns[inst.place_u_conj]] = e_ell
    if e_p:
        coeffs[columns[inst.place_v_conj]] = e_p
    return Relation.make(coeffs, -1, ell), shares


class TestBetaSearch:
    @given(key=st.integers(0, 2**64 - 1), k=st.integers(0, 15))
    def test_shells_cover_each_square_once(self, key, k):
        points = [_shell_point(i, key) for i in range((2 * k + 1) ** 2)]
        assert sorted(points) == [(a, b) for a in range(-k, k + 1) for b in range(-k, k + 1)]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(lift=small_lifts(), k=st.integers(0, 12))
    def test_pairs_lie_on_the_coset(self, lift, k):
        inst, seed = lift
        p, a_v = inst.p, inst.residue_at_v()
        search = _BetaSearch.start(inst, 60, seed)
        (r1, s1), (r2, s2) = search.b1, search.b2
        assert abs(r1 * s2 - s1 * r2) == p
        pairs = [search.pair(i) for i in range((2 * k + 1) ** 2)]
        assert all((r * a_v + s - inst.g) % p == 0 for r, s in pairs)
        assert len(set(pairs)) == len(pairs)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(lift=small_lifts())
    def test_same_seed_same_relations(self, lift):
        inst, seed = lift

        def relations(seed):
            search = _BetaSearch.start(inst, 200, seed)
            return [rel for rel in map(search.attempt, range(400)) if not isinstance(rel, str)]

        first = relations(seed)
        assert first and relations(seed) == first

    def test_seed_rotates_the_shells(self):
        inst = lift_unit(17, 31, 5, seed=0)
        orders = [[_BetaSearch.start(inst, 60, seed).pair(i) for i in range(25)]
                  for seed in (0, 1)]
        assert orders[0] != orders[1]
        assert sorted(orders[0]) == sorted(orders[1])

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(lift=small_lifts())
    def test_agrees_with_dl_oracle_on_generic_lifts(self, lift):
        inst, seed = lift
        s_dl = signature_from_dl(inst, bsgs_oracle(inst.p)).s
        assert signature_index_calculus(inst, 200, seed, max_attempts=20_000).s == s_dl

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(lift=small_lifts(), bound=st.sampled_from((10, 30, 60, 200)),
           first=st.integers(0, 5000), floor=st.sampled_from((2, 50, charsig._IMAGE_FLOOR)))
    def test_attempts_match_the_element_route(self, lift, bound, first, floor):
        # a low floor keeps alpha's images short, so that most prime
        # powers in a norm widen one
        inst, seed = lift
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(charsig, "_IMAGE_FLOOR", floor)
            search = _BetaSearch.start(inst, bound, seed)
        for index in range(first, first + 300):
            assert search.attempt(index) == element_route_attempt(search, index)[0]

    def test_attempts_match_the_element_route_on_a3_pairs(self):
        # the A3 pairs at the benchmark's bound, with the cases the integer
        # read-out must get right: a prime power q^e, e >= 2, in a split
        # norm, support at either place over a split q, a ramified or
        # inert place, and an inert place outside the base
        seen = set()
        for p, ell in ((1021, 5), (1009, 7), (1013, 11), (1093, 13), (3011, 43)):
            targets = [a for a in range(2, 60) if pow(a, (p - 1) // ell, p) != 1]
            for seed, a in enumerate(targets[:2]):
                inst = lift_unit(a, p, ell, seed)
                search = _BetaSearch.start(inst, 150, seed)
                for index in range(2500):
                    outcome, shares = element_route_attempt(search, index)
                    assert search.attempt(index) == outcome
                    if outcome == "outside_base":
                        seen.add("outside_base")
                    for place, e in shares or ():
                        if place.splitting != "split":
                            seen.add(place.splitting)
                            continue
                        first, second = split_places(place.q, inst.K)
                        seen.add("first" if place == first else "second")
                        if e >= 2:
                            seen.add("split_power")
        assert seen >= {"first", "second", "split_power", "ramified", "outside_base"}

    @pytest.mark.parametrize("p, ell, g, a, seed", [
        (1013, 11, 3, 200, 0),
        (1093, 13, 5, 33, 1),
    ])
    def test_generic_lift_solves_at_b150(self, p, ell, g, a, seed):
        # uniform targets of the benchmark's generic_targets(seed): draws
        # of r, s up to (4 + i/2000)*p left both RankDeficient after 50k
        # attempts; the lattice enumeration solves them in 4617 and 3828
        inst = lift_unit(a, p, ell, seed, g=g)
        s_dl = signature_from_dl(inst, bsgs_oracle(p)).s
        assert signature_index_calculus(inst, 150, seed, max_attempts=50_000).s == s_dl


class TestSerialization:
    def test_round_trip_bit_exact(self):
        inst = lift_unit(17, 31, 5, seed=3)
        text = instance_to_json(inst)
        again = instance_from_json(text)
        assert instance_to_json(again) == text
        assert again.K.D == inst.K.D
        assert again.alpha == inst.alpha
        assert again.place_u == inst.place_u
        assert again.place_v == inst.place_v
        assert again.condition_report.all_ok

    def test_unknown_key_is_rejected(self):
        import json

        doc = json.loads(instance_to_json(lift_unit(17, 31, 5, seed=0)))
        assert sorted(doc) == list(INSTANCE_KEYS)
        doc["extra"] = "1"
        with pytest.raises(BadInput, match="unknown keys"):
            instance_from_json(json.dumps(doc))

    def test_numbers_are_decimal_strings(self):
        import json

        doc = json.loads(instance_to_json(lift_unit(17, 31, 5, seed=0)))
        assert doc["p"] == "31" and doc["D"] == "4226"
        assert doc["alpha"] == ["65", "1"]

    @pytest.mark.parametrize("key, value", [
        ("a", "18"),  # alpha reduces to 17 at v
        ("g", "2"),  # 2 has order 5 in F_31^*
        ("alpha", ["64", "1"]),  # norm 64^2 - 4226 = -130
    ])
    def test_tampered_file_is_rejected(self, key, value):
        import json

        doc = json.loads(instance_to_json(lift_unit(17, 31, 5, seed=0)))
        doc[key] = value
        with pytest.raises(BadInput):
            instance_from_json(json.dumps(doc))
