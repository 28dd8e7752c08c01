from fractions import Fraction
from math import gcd, log, pi, sin

import pytest
import sympy

from sigcalc.arith import jacobi
from sigcalc.errors import (
    BadInput,
    ClassNumberDivisible,
    NotSmooth,
    NotSquarefree,
    TooLarge,
    ZeroElement,
)
from sigcalc.quadfield import (
    Place,
    RealQuadField,
    class_number,
    embed,
    factor_principal,
    fundamental_unit,
    ray_class_ell_rank,
    split_places,
    sqrt_field,
    squarefree_kernel,
)
from sigcalc.seeds import rng_for

SQUAREFREE = [D for D in range(2, 150)
              if all(e == 1 for e in sympy.factorint(D).values())]


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
    x, y = K.fundamental_unit.sqrt_coords()
    eps_val = float(x) + float(y) * D**0.5
    total = sum(kronecker(delta, a) * log(2 * sin(pi * a / delta))
                for a in range(1, delta) if gcd(a, delta) == 1)
    return round(-total / (2 * log(eps_val)))


class TestFundamentalUnit:
    def test_small_units(self):
        # brute Pell solutions: 1+sqrt(2) (norm -1), 2+sqrt(3) (norm +1),
        # (1+sqrt(5))/2 (norm -1, the half-integer unit)
        eps2 = fundamental_unit(2)
        assert (eps2.a, eps2.b, eps2.norm()) == (1, 1, -1)
        eps3 = fundamental_unit(3)
        assert (eps3.a, eps3.b, eps3.norm()) == (2, 1, 1)
        eps5 = fundamental_unit(5)
        assert (eps5.a, eps5.b) == (0, 1)  # omega = (1+sqrt(5))/2
        assert eps5.norm() == -1

    def test_half_integer_units(self):
        # (261 + 25 sqrt(109))/2 has norm -1; its cube is the Z[sqrt D] unit
        eps = fundamental_unit(109)
        assert eps.sqrt_coords() == (Fraction(261, 2), Fraction(25, 2))
        assert eps.norm() == -1

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
            coords |= {(z.conjugate().a, z.conjugate().b) for z in known}
            coords |= {(-a, -b) for a, b in coords}
            for a in range(-60, 61):
                for b in range(-60, 61):
                    z = K.element(a, b)
                    if abs(z.norm()) == 1:
                        assert (a, b) in coords, (D, a, b)


class TestClassNumber:
    def test_reference_values(self):
        # form-class enumeration, cross-checked by the analytic oracle below
        assert class_number(5) == 1
        assert class_number(10) == 2
        assert class_number(79) == 3

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
        a2 = embed(x.conjugate(), w2, 3)
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
    def test_unit_factors_empty(self):
        K = RealQuadField(2)
        assert factor_principal(K.fundamental_unit, 10) == []

    def test_ramified_generator(self):
        K = RealQuadField(2)
        [(w, e)] = factor_principal(K.from_sqrt_coords(0, 1), 10)
        assert w.splitting == "ramified" and w.q == 2 and e == 1

    def test_split_selection(self):
        K = RealQuadField(2)
        [(w, e)] = factor_principal(K.from_sqrt_coords(3, 1), 10)
        assert (w.q, w.root_label, e) == (7, 4, 1)

    def test_zero_rejected(self):
        K = RealQuadField(2)
        with pytest.raises(ZeroElement):
            factor_principal(K.element(0, 0), 10)

    def test_not_smooth(self):
        K = RealQuadField(2)
        with pytest.raises(NotSmooth):
            factor_principal(K.element(11, 0), 5)

    def test_even_norm_splits_over_the_two_2adic_places(self):
        # omega = (1+sqrt 17)/2 has norm -4; 2-adically (1+s)/2 is a unit
        # for the root s = 1 mod 4 and divisible by 4 for the other root
        K = RealQuadField(17)
        omega = K.element(0, 1)
        assert omega.norm() == -4
        [(w, e)] = factor_principal(omega, 10)
        assert w.q == 2 and w.splitting == "split" and e == 2
        assert w.root_label % 4 == 3

    def test_norm_identity(self):
        # sum of e_w * deg(w) * log q accounts for |N(x)| exactly
        rng = rng_for(3, "factor")
        for D in (2, 5, 17, 79):
            K = RealQuadField(D)
            for _ in range(25):
                x = K.element(rng.randrange(-40, 40), rng.randrange(-40, 40))
                if x.is_zero():
                    continue
                try:
                    factors = factor_principal(x, 100)
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
    assert squarefree_kernel(2200) == (22, 10)
    assert squarefree_kernel(1) == (1, 1)
    assert squarefree_kernel(4226) == (4226, 1)


def test_sqrt_field():
    K, f = sqrt_field(2200)
    assert (K, f) == (RealQuadField(22), 10)
    assert (K.omega_is_half, K.discriminant) == (False, 88)
    assert sqrt_field(49) == (None, 7)
    # the field of a non-squarefree D given directly is still refused
    with pytest.raises(NotSquarefree):
        RealQuadField(2200)
