from math import gcd, isqrt, log, pi, sin

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.solvers.diophantine.diophantine import diop_DN

from sigcalc.arith import factor_smooth, factorint, is_prime, jacobi, primes_up_to, sqrt_mod_prime
from sigcalc.errors import (
    BadInput,
    ClassNumberDivisible,
    NotSmooth,
    NotSquarefree,
    TooLarge,
)
from sigcalc.quadfield import (
    Place,
    SQRT_FIELD_RHO_STEPS,
    RealQuadField,
    embed,
    lifted_field,
    place_valuations,
    prime_splitting,
    ray_class_ell_rank,
    split_places,
    sqrt_field,
)
from sigcalc.seeds import rng_for

SQUAREFREE = [D for D in range(2, 150)
              if all(e == 1 for e in sympy.factorint(D).values())]


def conjugate(z):
    """The Galois conjugate of z = a + b*omega: its trace minus z."""
    return z.field.element(z.trace(), 0) - z


def kronecker(delta: int, a: int) -> int:
    result = 1
    for p, e in sympy.factorint(a).items():
        if p == 2:
            if delta % 2 == 0:
                return 0
            result *= (1 if delta % 8 in (1, 7) else -1) ** e
        else:
            result *= jacobi(delta % p, p) ** e
    return result


def analytic_class_number(D: int) -> int:
    """Independent oracle: the value of the character sum formula
    h = -sum chi(a) log(2 sin(pi a / Delta)) / (2 log eps)."""
    K = RealQuadField(D)
    delta = K.discriminant
    eps = K.fundamental_unit
    omega = (1 + D**0.5) / 2 if K.omega_is_half else D**0.5
    eps_val = eps.a + eps.b * omega
    total = sum(kronecker(delta, a) * log(2 * sin(pi * a / delta))
                for a in range(1, delta) if gcd(a, delta) == 1)
    return round(-total / (2 * log(eps_val)))


def all_reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    """Every reduced indefinite form of discriminant disc, (a, b, c) and
    (-a, b, -c) alike: for each b, the divisors a of m = (disc - b^2)/4
    in [(s-b)/2 + 1, (s+b)/2], s = isqrt(disc), from the odd primes
    sieved over b, 2 and the one prime they leave."""
    s = isqrt(disc)
    b_start = 2 - (disc & 1)
    small = {b: [] for b in range(b_start, s + 1, 2)}
    for q in primes_up_to(isqrt(disc // 4))[1:]:
        if jacobi(disc, q) == -1:
            continue
        r = sqrt_mod_prime(disc, q)
        for root in {r, (q - r) % q}:
            first = root if (root - b_start) % 2 == 0 else root + q
            if first < b_start:
                first += 2 * q
            for b in range(first, s + 1, 2 * q):
                small[b].append(q)
    forms = []
    for b, odd_primes in small.items():
        m = (disc - b * b) // 4
        lo, hi = (s - b) // 2 + 1, (s + b) // 2
        rest = m
        divisors = [1]
        for q in (2, *odd_primes):
            powers = [1]
            while rest % q == 0:
                rest //= q
                powers.append(powers[-1] * q)
            divisors = [d * t for d in divisors for t in powers]
        if rest > 1:
            divisors += [d * rest for d in divisors]
        for a in sorted(d for d in divisors if lo <= d <= hi):
            forms += [(a, b, -(m // a)), (-a, b, m // a)]
    return forms


def all_forms_class_number(D: int) -> int:
    """Reference for class_number's walk of rho^2 over the reduced forms
    with a > 0: the cycles of rho over every reduced form, corrected by
    the unit norm."""
    K = RealQuadField(D)
    disc = K.discriminant
    s = isqrt(disc)
    forms = all_reduced_forms(disc)
    unseen = set(forms)
    cycles = 0
    for f in forms:
        if f not in unseen:
            continue
        cycles += 1
        g = f
        while True:
            unseen.discard(g)
            _, b, c = g
            r = s - (s + b) % (2 * abs(c))
            g = (c, r, (r * r - disc) // (4 * c))
            if g == f:
                break
            assert g in unseen, "form cycle left the reduced set"
    return cycles if K.unit_norm == -1 else cycles // 2


# the lifted fields of the benchmark's seed-0 signature mix
SIGNATURE_MIX_FIELDS = (2026, 442, 730, 290, 1090, 9026, 842, 2402, 842, 74, 11026, 4762,
                        2810, 1522, 2210, 26, 226, 122, 82, 226)


class TestFundamentalUnit:
    def test_small_units(self):
        # brute Pell solutions: 1+sqrt(2) (norm -1), 2+sqrt(3) (norm +1),
        # (1+sqrt(5))/2 (norm -1, the half-integer unit)
        eps2 = RealQuadField(2).fundamental_unit
        assert (eps2.a, eps2.b, eps2.norm()) == (1, 1, -1)
        eps3 = RealQuadField(3).fundamental_unit
        assert (eps3.a, eps3.b, eps3.norm()) == (2, 1, 1)
        eps5 = RealQuadField(5).fundamental_unit
        assert (eps5.a, eps5.b) == (0, 1)  # omega = (1+sqrt(5))/2
        assert eps5.norm() == -1

    def test_half_integer_units(self):
        # (261 + 25 sqrt(109))/2 has norm -1; its cube is the Z[sqrt D] unit
        eps = RealQuadField(109).fundamental_unit
        assert (2 * eps.a + eps.b, eps.b) == (261, 25)  # a + b*(1 + sqrt(109))/2
        assert eps.norm() == -1

    def test_pell_oracle(self):
        # eps^j lies in Z[sqrt(D)] with norm +1 for some j | 6 (the unit
        # index is 1 or 3, and squaring clears norm -1); the least such
        # power is the fundamental solution of x^2 - D*y^2 = 1
        for D in range(2, 3000):
            if any(e > 1 for e in sympy.factorint(D).values()):
                continue
            K = RealQuadField(D)
            eps = z = K.fundamental_unit
            for _ in range(6):
                if z.norm() == 1 and not (K.omega_is_half and z.b % 2):
                    break
                z = z * eps
            else:
                pytest.fail(f"no power of {eps} up to 6 solves Pell's equation")
            y = z.b // 2 if K.omega_is_half else z.b
            assert (z.a + y if K.omega_is_half else z.a, y) == diop_DN(D, 1)[0], D

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            RealQuadField(12)

    def test_units_exhaust_bounded_height(self):
        # every unit of bounded height is +-eps^k (k of either sign)
        for D in (2, 3, 5, 10, 13):
            K = RealQuadField(D)
            eps = K.fundamental_unit
            known = [eps**k for k in range(0, 15)]
            coords = {(z.a, z.b) for z in known}
            coords |= {(conjugate(z).a, conjugate(z).b) for z in known}
            coords |= {(-a, -b) for a, b in coords}
            for a in range(-60, 61):
                for b in range(-60, 61):
                    z = K.element(a, b)
                    if abs(z.norm()) == 1:
                        assert (a, b) in coords, (D, a, b)


class TestClassNumber:
    def test_reference_values(self):
        # form-class enumeration, cross-checked by the analytic oracle below
        assert RealQuadField(5).class_number == 1
        assert RealQuadField(10).class_number == 2
        assert RealQuadField(79).class_number == 3

    def test_matches_the_all_forms_cycle_count(self):
        fields = [D for D in range(2, 6000) if max(sympy.factorint(D).values()) == 1]
        assert len(fields) == 3645
        for D in (*fields, *SIGNATURE_MIX_FIELDS):
            assert RealQuadField(D).class_number == all_forms_class_number(D), D

    def test_matches_analytic_oracle(self):
        for D in SQUAREFREE:
            assert RealQuadField(D).class_number == analytic_class_number(D), D

    def test_too_large(self):
        big = sympy.nextprime(10**9)
        with pytest.raises(TooLarge):
            RealQuadField(big).class_number


class TestPlaces:
    def test_ramified(self):
        places = split_places(2, RealQuadField(2))
        assert len(places) == 1 and places[0].splitting == "ramified"

    def test_inert(self):
        (w,) = split_places(5, RealQuadField(2))
        assert w.splitting == "inert"
        assert w.norm == 25 and w.degree == 2

    def test_split_with_canonical_labels(self):
        w1, w2 = split_places(7, RealQuadField(2))
        assert (w1.root_label, w2.root_label) == (3, 4)

    def test_split_two(self):
        # 17 = 1 mod 8 so 2 splits; the first label is the root 1 mod 4
        w1, w2 = split_places(2, RealQuadField(17))
        assert w1.splitting == "split"
        assert w1.root_label % 4 == 1 and w2.root_label % 4 == 3

    def test_embed_rational_everywhere(self):
        K = RealQuadField(2)
        for q in (5, 7):
            for w in split_places(q, K):
                assert embed(K.element(9, 0), w, 2) == 9

    def test_embed_conjugate_symmetry(self):
        K = RealQuadField(4226)
        x = K.from_sqrt_coords(65, 1)
        w1, w2 = split_places(31, K)
        a1 = embed(x, w1, 3)
        a2 = embed(conjugate(x), w2, 3)
        assert a1 == a2

    def test_embed_worked_value(self):
        K = RealQuadField(4226)
        v = [w for w in split_places(31, K) if w.root_label == 14][0]
        assert embed(K.from_sqrt_coords(65, 1), v, 1) == 17

    def test_embed_is_multiplicative(self):
        rng = rng_for(7, "embed")
        K = RealQuadField(79)
        for q in (5, 13, 19):
            for w in split_places(q, K):
                if w.splitting != "split":
                    continue
                for _ in range(20):
                    x = K.element(rng.randrange(-50, 50), rng.randrange(-50, 50))
                    y = K.element(rng.randrange(-50, 50), rng.randrange(-50, 50))
                    lhs = embed(x * y, w, 3)
                    rhs = embed(x, w, 3) * embed(y, w, 3) % q**3
                    assert lhs == rhs

    def test_embed_rejects_precision_below_one(self):
        K = RealQuadField(2)
        w = split_places(7, K)[0]
        for x in (9, K.element(9, 0), K.element(1, 1)):
            with pytest.raises(BadInput):
                embed(x, w, 0)

    def test_embed_2adic_split_place(self):
        K = RealQuadField(17)
        w1, w2 = split_places(2, K)
        omega = K.element(0, 1)  # (1+sqrt(17))/2, a root of x^2 - x - 4
        for w in (w1, w2):
            t = embed(omega, w, 6)
            assert (t * t - t - 4) % 2**6 == 0


class TestFactorPrincipal:
    """place_valuations on the factorisation of |N(x)| by factor_smooth."""

    def test_unit_factors_empty(self):
        K = RealQuadField(2)
        eps = K.fundamental_unit
        assert place_valuations(eps, factor_smooth(abs(eps.norm()), 10)) == []

    def test_ramified_generator(self):
        K = RealQuadField(2)
        x = K.from_sqrt_coords(0, 1)
        [(w, e)] = place_valuations(x, factor_smooth(abs(x.norm()), 10))
        assert w.splitting == "ramified" and w.q == 2 and e == 1

    def test_split_selection(self):
        K = RealQuadField(2)
        x = K.from_sqrt_coords(3, 1)
        [(w, e)] = place_valuations(x, factor_smooth(abs(x.norm()), 10))
        assert (w.q, w.root_label, e) == (7, 4, 1)

    def test_not_smooth(self):
        K = RealQuadField(2)
        with pytest.raises(NotSmooth):
            factor_smooth(abs(K.element(11, 0).norm()), 5)

    def test_even_norm_splits_over_the_two_2adic_places(self):
        # omega = (1+sqrt 17)/2 has norm -4; 2-adically (1+s)/2 is a unit
        # for the root s = 1 mod 4 and divisible by 4 for the other root
        K = RealQuadField(17)
        omega = K.element(0, 1)
        assert omega.norm() == -4
        [(w, e)] = place_valuations(omega, factor_smooth(4, 10))
        assert w.q == 2 and w.splitting == "split" and e == 2
        assert w.root_label % 4 == 3

    def test_norm_identity(self):
        # sum of e_w * deg(w) * log q accounts for |N(x)| exactly
        rng = rng_for(3, "factor")
        for D in (2, 5, 17, 79):
            K = RealQuadField(D)
            for _ in range(25):
                x = K.element(rng.randrange(-40, 40), rng.randrange(-40, 40))
                if x.norm() == 0:
                    continue
                try:
                    factors = place_valuations(x, factor_smooth(abs(x.norm()), 100))
                except NotSmooth:
                    continue
                product = 1
                for w, e in factors:
                    product *= w.norm**e
                assert product == abs(x.norm())


class TestRayClassRank:
    def _uv(self, K, ell, p):
        u, uc = split_places(ell, K)
        v = split_places(p, K)[0]
        return u, uc, v

    def test_empty_modulus(self):
        assert ray_class_ell_rank(RealQuadField(4226), 5, []) == 0

    def test_one_place_dimension(self):
        K = RealQuadField(4226)
        u, uc, v = self._uv(K, 5, 31)
        assert ray_class_ell_rank(K, 5, [(u, 2), (v, 1)]) == 1

    def test_three_place_dimension(self):
        K = RealQuadField(4226)
        u, uc, v = self._uv(K, 5, 31)
        assert ray_class_ell_rank(K, 5, [(u, 2), (uc, 2), (v, 1)]) == 2

    def test_class_number_divisible_rejected(self):
        K = RealQuadField(79)  # h = 3
        u_places = split_places(3, K)
        if u_places[0].splitting == "split":
            with pytest.raises(ClassNumberDivisible):
                ray_class_ell_rank(K, 3, [(u_places[0], 2)])
        else:
            with pytest.raises(ClassNumberDivisible):
                ray_class_ell_rank(K, 3, [])

    def test_extra_place_adds_at_most_one(self):
        K = RealQuadField(4226)
        u, uc, v = self._uv(K, 5, 31)
        base = ray_class_ell_rank(K, 5, [(u, 2), (v, 1)])
        # 11 = 1 mod 5 and 4226 = 2 mod 11 is a square mod 11 (4^2 = 5... check)
        for q in (11, 31, 41, 61, 71):
            if q == 31 or jacobi(4226 % q, q) != 1 or q % 5 != 1:
                continue
            w = split_places(q, K)[0]
            grown = ray_class_ell_rank(K, 5, [(u, 2), (v, 1), (w, 1)])
            assert grown - base in (0, 1)

    def test_validation(self):
        K = RealQuadField(4226)
        u, uc, v = self._uv(K, 5, 31)
        with pytest.raises(BadInput):
            ray_class_ell_rank(K, 5, [(u, 1)])  # wrong exponent at ell
        with pytest.raises(BadInput):
            ray_class_ell_rank(K, 5, [(v, 2)])  # wrong exponent at p

    def test_matches_brute_force_quotient_rank(self):
        # independent oracle: the rank equals 3 minus the F_ell-rank of
        # the full discrete logs (mod ell) of -1 and the unit in the
        # product of local unit groups, computed by exhaustive dlog in
        # (Z/ell^2)^* and F_p^* / F_q^*
        def brute_rank(K, ell, p, modulus):
            rows = []
            for unit in (K.element(-1, 0), K.fundamental_unit):
                row = []
                for place, exponent in modulus:
                    q = place.q
                    if exponent == 2:
                        mod = ell * ell
                        residue = embed(unit, place, 2)
                        h = sympy.primitive_root(mod)
                        t = next(t for t in range(ell * (ell - 1))
                                 if pow(h, t, mod) == residue)
                        row.append(t % ell)
                    else:
                        residue = embed(unit, place, 1)
                        h = sympy.primitive_root(q)
                        t = next(t for t in range(q - 1)
                                 if pow(h, t, q) == residue)
                        row.append(t % ell)
                rows.append(row)
            from sigcalc.arith import rank_mod

            return len(modulus) - rank_mod(rows, ell)

        for D, ell, p in ((4226, 5, 31), (19, 3, 31), (22, 3, 13)):
            K = RealQuadField(D)
            u, uc = split_places(ell, K)
            v = split_places(p, K)[0]
            for modulus in ([(u, 2), (v, 1)],
                            [(u, 2), (uc, 2), (v, 1)],
                            [(u, 2), (uc, 2)]):
                assert ray_class_ell_rank(K, ell, modulus) == \
                    brute_rank(K, ell, p, modulus)


def test_squarefree_kernel():
    # sqrt_field writes n = f**2 * D with D squarefree
    assert sqrt_field(2200) == (RealQuadField(22), 10)
    assert sqrt_field(1) == (None, 1)
    assert sqrt_field(4226) == (RealQuadField(4226), 1)
    with pytest.raises(BadInput):
        sqrt_field(0)


def test_sqrt_field():
    K, f = sqrt_field(2200)
    assert (K, f) == (RealQuadField(22), 10)
    assert (K.omega_is_half, K.discriminant) == (False, 88)
    assert sqrt_field(49) == (None, 7)
    # two 36-bit primes take about 2e5 rho steps, past the lifts' cap;
    # factorint without a cap still factors them
    w = 42389895973 * 55701562349
    assert sqrt_field(w) is None
    assert factorint(w) == {42389895973: 1, 55701562349: 1}
    assert factorint(w, SQRT_FIELD_RHO_STEPS) is None
    assert sqrt_field(w * 4) is None
    # the field of a non-squarefree D given directly is still refused
    with pytest.raises(NotSquarefree):
        RealQuadField(2200)


def test_a_field_past_the_rho_cap_is_too_large():
    # a D read from a file is factored under the lifts' cap: two 36-bit
    # primes take about 2e5 rho steps
    with pytest.raises(TooLarge):
        RealQuadField(42389895973 * 55701562349)


# w = 4226 = 1 + 65^2 is the worked lift's value at (p, ell) = (31, 5):
# 4226 = 1 mod 5 and 65 = 3 mod 31, so w = 10 = 14^2 mod 31
K4226 = RealQuadField(4226)
U4226 = (Place(4226, 5, "split", 1), Place(4226, 5, "split", 4))
V14, V17 = Place(4226, 31, "split", 14), Place(4226, 31, "split", 17)


@pytest.mark.parametrize("w, ell, p, root, expected", [
    (0, 5, 31, 0, "value_not_positive"),
    (-4226, 5, 31, 14, "value_not_positive"),
    (2, 5, 31, 8, "ell_not_split"),  # 2 is not a square mod 5
    (50, 5, 31, 18, "ell_not_split"),  # 5 divides 50 once: it ramifies
    (42389895973 * 55701562349, 7, 31, 1, "value_unfactored"),  # (w/7) = 1
    (49, 3, 31, 7, "value_square"),
    (9 * 4226, 5, 3, 0, "p_degenerate"),  # 3 divides f = 3
    (4226, 5, 2113, 0, "p_degenerate"),  # 4226 = 2 * 2113 = D
    (4226, 5, 31, 14, (K4226, 1, U4226, (V14, V17))),
    (4226, 5, 31, 17, (K4226, 1, U4226, (V17, V14))),  # -14: v is the other place
    (25 * 4226, 5, 31, 70 % 31, (K4226, 5, U4226, (V14, V17))),  # 5^2 | w, 4226 = 1 mod 5
])
def test_lifted_field(monkeypatch, w, ell, p, root, expected):
    import sigcalc.quadfield as quadfield

    factored = []
    monkeypatch.setattr(quadfield, "factorint",
                        lambda n, *cap: factored.append(n) or factorint(n, *cap))
    assert lifted_field(w, ell, p, root) == expected
    # ell's splitting is decided before w is factored, and w is factored once
    refused = expected in ("value_not_positive", "ell_not_split")
    assert factored == ([] if refused else [w])


@given(st.sampled_from((3, 5, 7, 11, 13, 10007)), st.integers(0, 4), st.integers(1, 10**10))
@settings(max_examples=300, deadline=None)
def test_ell_not_split_is_the_splitting_of_the_field(ell, j, rest):
    # w = ell^j * rest, so ell divides w to every power; p is the least
    # prime above 10^6 at which w is a nonzero square, so the p side passes
    w = ell**j * rest
    field = sqrt_field(w)
    assume(field is not None and field[0] is not None)
    p = next(q for q in range(10**6 + 1, 10**7, 2) if is_prime(q) and jacobi(w, q) == 1)
    verdict = lifted_field(w, ell, p, sqrt_mod_prime(w % p, p))
    assert (verdict == "ell_not_split") == (prime_splitting(ell, field[0])[0] != "split")
