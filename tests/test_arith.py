import random
from math import isqrt

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from sigcalc.arith import (
    Eliminator,
    bsgs_dlog,
    dlog_mod_ell,
    ell_power_residue_test,
    factor_smooth,
    factorint,
    gauss_reduce,
    is_prime,
    jacobi,
    least_primitive_root,
    lift_sqrt,
    mult_group_ops,
    multiplicative_order,
    primes_up_to,
    rank_mod,
    smooth_cofactor,
    sqrt_2adic,
    sqrt_mod_prime,
    teichmuller,
)
from sigcalc.ecurve import INFINITY, Curve, Point, curve_group_ops, ec_add, ec_scalar_mul
from sigcalc.errors import (
    BadInput,
    Inconsistent,
    NonResidue,
    NotAUnit,
    NotInSubgroup,
    NotSmooth,
    Ramified,
)
from sigcalc.indexcalc import Relation, solve_linear_mod_ell

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def brute_sqrt_mod(n, modulus):
    return sorted(x for x in range(modulus) if x * x % modulus == n % modulus)


def canonical_root(n, q):
    """The square root of n mod q in [1, (q-1)/2], as split_places labels it."""
    r = sqrt_mod_prime(n, q)
    return min(r, q - r)


class TestHenselSqrt:
    """lift_sqrt from the canonical root mod q."""

    def test_identity(self):
        assert lift_sqrt(1, canonical_root(1, 7), 7, 3) == 1

    def test_exact_square(self):
        # canonical root of 4 mod 5^3 is 2 (base residue 2 <= (5-1)/2)
        assert lift_sqrt(4, canonical_root(4, 5), 5, 3) == 2

    def test_one_lift_step(self):
        # base root 3 of 2 mod 7; one lift reaches 10 with 10^2 = 100 = 2 mod 49
        root = lift_sqrt(2, canonical_root(2, 7), 7, 2)
        assert root == 10
        assert root**2 % 49 == 2
        # brute-force oracle: roots of 2 mod 49 are {10, 39}; 10 = 3 mod 7 is canonical
        assert brute_sqrt_mod(2, 49) == [10, 39]

    def test_non_residue_rejected(self):
        with pytest.raises(NonResidue):
            canonical_root(3, 7)

    def test_ramified_rejected(self):
        # 7 divides 14: the place over 7 ramifies in Q(sqrt 14), and
        # sqrt(14) has no image in a degree-1 completion there
        from sigcalc.quadfield import RealQuadField, embed, split_places

        K = RealQuadField(14)
        [w] = split_places(7, K)
        assert w.splitting == "ramified"
        with pytest.raises(Ramified):
            embed(K.from_sqrt_coords(0, 1), w, 2)

    @given(st.sampled_from(ODD_PRIMES), st.integers(1, 5), st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_square_property(self, q, k, n):
        if n % q == 0 or jacobi(n % q, q) != 1:
            return
        x = lift_sqrt(n, canonical_root(n, q), q, k)
        assert (x * x - n) % q**k == 0
        assert 1 <= x % q <= (q - 1) // 2


def teichmuller_pair(x, ell):
    """(xi, y) with x = xi*(1 + y*ell) mod ell^2: y from `teichmuller`,
    and xi = x*(1 + y*ell)^-1, which must be an (ell-1)-th root of 1."""
    m = ell * ell
    y = teichmuller(x, ell)
    xi = x * pow(1 + y * ell, -1, m) % m
    assert pow(xi, ell - 1, m) == 1
    return xi, y


class TestTeichmuller:
    def test_identity(self):
        assert teichmuller_pair(1, 7) == (1, 0)

    def test_one_unit(self):
        assert teichmuller_pair(1 + 11, 11) == (1, 1)

    def test_worked_decomposition(self):
        # 2^5 = 32 = 7 mod 25, 7^4 = 1 mod 25, and 2 * 7^-1 = 11 = 1 + 5*2
        assert teichmuller_pair(2, 5) == (7, 2)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            teichmuller(10, 5)

    @given(st.sampled_from(ODD_PRIMES), st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, ell, x):
        if x % ell == 0:
            return
        _, y = teichmuller_pair(x, ell)
        assert 0 <= y < ell

    @given(st.sampled_from(ODD_PRIMES), st.integers(1, 10**4), st.integers(1, 10**4))
    @settings(max_examples=200, deadline=None)
    def test_y_is_additive(self, ell, x1, x2):
        if x1 % ell == 0 or x2 % ell == 0:
            return
        y12 = teichmuller(x1 * x2, ell)
        assert y12 == (teichmuller(x1, ell) + teichmuller(x2, ell)) % ell


class TestBsgs:
    def test_trivial_cases(self):
        ops = mult_group_ops(31)
        assert bsgs_dlog(3, 1, 30, **ops) == 0
        assert bsgs_dlog(3, 3, 30, **ops) == 1

    def test_worked_example(self):
        # 3^7 = 2187 = 17 mod 31, confirmed by exhaustive powering
        assert pow(3, 7, 31) == 17
        assert bsgs_dlog(3, 17, 30, **mult_group_ops(31)) == 7

    def test_not_in_subgroup(self):
        # 4 generates the squares mod 31; 3 is a non-square
        with pytest.raises(NotInSubgroup):
            bsgs_dlog(4, 3, 15, **mult_group_ops(31))

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, m):
        import sympy

        p = 104729  # prime
        g = sympy.primitive_root(p)
        m %= p - 1
        assert bsgs_dlog(g, pow(g, m, p), p - 1, **mult_group_ops(p)) == m


class TestDlogModEll:
    @given(st.sampled_from([p for p in primes_up_to(2000) if p > 3]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy(self, p, data):
        # any g whose order ell divides, and any a in <g>
        ell = data.draw(st.sampled_from(sorted(factorint(p - 1))))
        g = data.draw(st.integers(2, p - 1))
        assume(pow(g, (p - 1) // ell, p) != 1)
        a = pow(g, data.draw(st.integers(0, p - 2)), p)
        assert dlog_mod_ell(g, a, p, ell) == sympy.discrete_log(p, a, g) % ell

    def test_target_outside_the_subgroup(self):
        # 4 is a square mod 31 and 3 is not: no log of 3 to the base 4
        with pytest.raises(NotInSubgroup):
            dlog_mod_ell(4, 3, 31, 2)


def reference_bsgs(generator, target, group_order, op, identity, invert):
    """Least m in [0, group_order) with m*generator = target, by
    baby-step giant-step on a binary op, one step at a time: the
    reference for bsgs_dlog's batched, negation-map search."""
    s = isqrt(group_order - 1) + 1
    table, e = {}, identity
    for j in range(s):
        table.setdefault(e, j)
        e = op(e, generator)
    giant, gamma = invert(e), target
    for i in range(s + 1):
        j = table.get(gamma)
        if j is not None and i * s + j < group_order:
            return i * s + j
        gamma = op(gamma, giant)
    raise NotInSubgroup("target is not a multiple of the generator")


def dlog_or_none(dlog, *args, **kwargs):
    """dlog's answer, or None where it raises NotInSubgroup."""
    try:
        return dlog(*args, **kwargs)
    except NotInSubgroup:
        return None


def curve_points(curve: Curve) -> list:
    """O and every affine point of a curve over a small F_q."""
    q = curve.base[1]
    points = [INFINITY]
    for x in range(q):
        f = (x**3 + curve.a * x + curve.b) % q
        if f == 0:
            points.append(Point(x, 0))
        elif jacobi(f, q) == 1:
            y = sqrt_mod_prime(f, q)
            points += [Point(x, y), Point(x, q - y)]
    return points


def first_point(curve: Curve, x0: int):
    """The affine point with the least x >= x0 (cyclically) and the
    root sqrt_mod_prime gives."""
    q = curve.base[1]
    for x in (x % q for x in range(x0, x0 + q)):
        f = (x**3 + curve.a * x + curve.b) % q
        if f == 0 or jacobi(f, q) == 1:
            return Point(x, sqrt_mod_prime(f, q))
    raise AssertionError("no affine point")


def curve_dlogs(curve, G, T, n, as_tuples):
    """bsgs_dlog on curve_group_ops, and the reference on ec_add, with
    Points or plain tuples handed to bsgs_dlog."""
    q = curve.base[1]

    def neg(P):
        return INFINITY if P is INFINITY else Point(P.x, -P.y % q)

    want = dlog_or_none(reference_bsgs, G, T, n, lambda P, Q: ec_add(P, Q, curve),
                        INFINITY, neg)
    if as_tuples:
        G, T = (None if P is INFINITY else (P.x, P.y) for P in (G, T))
    return dlog_or_none(bsgs_dlog, G, T, n, **curve_group_ops(curve)), want


CURVE_PRIMES = [q for q in primes_up_to(110) if q > 2]


class TestBsgsTables:
    """bsgs_dlog on both operation tables against the one-step reference."""

    @given(p=st.sampled_from([*ODD_PRIMES, 101, 1009, 10007, 104729]),
           g=st.integers(1, 10**6), t=st.integers(1, 10**6), n=st.integers(1, 2 * 10**5))
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_table(self, p, g, t, n):
        g, t, n = g % (p - 1) + 1, t % (p - 1) + 1, n % (2 * p) + 1
        want = dlog_or_none(reference_bsgs, g, t, n, lambda x, y: x * y % p, 1,
                            lambda x: pow(x, -1, p))
        assert dlog_or_none(bsgs_dlog, g, t, n, **mult_group_ops(p)) == want

    @given(q=st.sampled_from(CURVE_PRIMES), a=st.integers(0, 10**4), b=st.integers(0, 10**4),
           g=st.integers(0, 10**4), t=st.integers(0, 10**4), n=st.integers(1, 300),
           as_tuples=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_curve_table_on_every_point(self, q, a, b, g, t, n, as_tuples):
        # small q: generators of every order, 2-torsion, targets outside
        # the subgroup and ranges beyond the generator's order
        curve = Curve(a % q, b % q, ("fp", q))
        assume(not curve.is_singular())
        points = curve_points(curve)
        G, T = points[g % len(points)], points[t % len(points)]
        got, want = curve_dlogs(curve, G, T, n, as_tuples)
        assert got == want

    @given(q=st.sampled_from([10007, 40009]), a=st.integers(0, 10**4), b=st.integers(1, 10**4),
           x=st.integers(0, 40008), k=st.integers(0, 10**5), n=st.integers(1, 10**5),
           multiple=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_curve_table_across_giant_batches(self, q, a, b, x, k, n, multiple):
        curve = Curve(a, b, ("fp", q))
        assume(not curve.is_singular())
        G, T = first_point(curve, x), first_point(curve, 7 * x + 1)
        if multiple:
            T = ec_scalar_mul(k, G, curve)
        got, want = curve_dlogs(curve, G, T, n, False)
        assert got == want

    @pytest.mark.parametrize("keyed", [False, True])
    def test_least_m_in_every_cyclic_group_up_to_64(self, keyed):
        # Z/n for n = 1..64: a generator of every order, every target, and
        # search ranges of n and about n/2; key(e) is shared by e and -e
        for n in range(1, 65):
            ops = {"identity": 0, "shift": lambda es, t, n=n: [(e + t) % n for e in es],
                   "invert": lambda e, n=n: -e % n}
            if keyed:
                ops["key"] = lambda e, n=n: min(e, -e % n)
            for g in {n // d for d in range(1, n + 1) if n % d == 0}:
                for bound in {n, n // 2 + 1}:
                    for t in range(n):
                        want = next((m for m in range(bound) if m * g % n == t), None)
                        assert dlog_or_none(bsgs_dlog, g % n, t, bound, **ops) == want, \
                            (n, g, bound, t)

    def test_named_cases(self):
        # y^2 = x^3 + 1 over F_5: E = Z/6, (4, 0) of order 2, (0, 1) of order 3
        curve = Curve(0, 1, ("fp", 5))
        G2, G3, G6 = Point(4, 0), Point(0, 1), Point(2, 2)
        ops = curve_group_ops(curve)
        assert bsgs_dlog(G6, INFINITY, 1, **ops) == 0  # group order 1
        with pytest.raises(NotInSubgroup):
            bsgs_dlog(G6, G6, 1, **ops)
        assert bsgs_dlog(G6, INFINITY, 6, **ops) == 0  # identity target
        assert bsgs_dlog(G2, G2, 50, **ops) == 1  # 2-torsion, y = 0
        assert bsgs_dlog(G2, INFINITY, 50, **ops) == 0
        assert bsgs_dlog(G3, ec_add(G3, G3, curve), 50, **ops) == 2  # small order, least m
        assert bsgs_dlog((2, 2), (4, 0), 6, **ops) == 3  # plain tuples
        with pytest.raises(NotInSubgroup):
            bsgs_dlog(G3, G2, 50, **ops)
        with pytest.raises(NotInSubgroup):
            bsgs_dlog(G6, G2, 3, **ops)  # 3*G6 = G2 lies outside [0, 3)
        # order 4 = 2s for s = isqrt(16) // 2: the second giant step meets
        # 2*G4 = -2*G4, and m = 5 - 2 is the least, not 5 + 2
        curve4 = Curve(1, 2, ("fp", 5))
        assert bsgs_dlog(Point(1, 3), Point(1, 2), 16, **curve_group_ops(curve4)) == 3


class TestPowerResidue:
    def test_one_is_always_residue(self):
        assert ell_power_residue_test(1, 31, 5)

    def test_non_residue(self):
        assert pow(2, 6, 31) == 2  # 2^6 = 64 = 2 mod 31
        assert not ell_power_residue_test(2, 31, 5)

    def test_fifth_power(self):
        assert pow(3, 5, 31) == 26
        assert ell_power_residue_test(26, 31, 5)

    def test_bad_input(self):
        with pytest.raises(BadInput):
            ell_power_residue_test(2, 31, 7)


class TestFactorSmooth:
    def test_one(self):
        assert factor_smooth(1, 10) == {}

    def test_full_factorisation(self):
        assert factor_smooth(12, 5) == {2: 2, 3: 1}

    def test_cofactor_reported(self):
        with pytest.raises(NotSmooth) as exc:
            factor_smooth(14, 5)
        assert exc.value.cofactor == 7

    @given(st.integers(1, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_reassembles(self, n):
        try:
            factors = factor_smooth(n, 100)
        except NotSmooth as exc:
            # trial division alone leaves the part that the screen leaves
            assert exc.cofactor == smooth_cofactor(n, 100) > 1
            return
        product = 1
        for q, e in factors.items():
            product *= q**e
        assert product == n


class TestTwoAdic:
    @given(st.integers(1, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_sqrt_2adic(self, n):
        if n % 8 != 1:
            return
        for k in (4, 8, 12):
            x = sqrt_2adic(n, k)
            assert (x * x - n) % (1 << k) == 0
            assert x % 4 == 1


def test_sqrt_mod_prime_matches_brute_force():
    for q in ODD_PRIMES:
        for n in range(1, q):
            if jacobi(n, q) == 1:
                r = sqrt_mod_prime(n, q)
                assert r * r % q == n


# ---------------------------------------------------------------------------
# number theory core, against sympy as the oracle

# psi_1..psi_9 of the Miller-Rabin base ladder: each is a strong
# pseudoprime to every base of the rung below it
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 3474749660383,
                       341550071728321, 3825123056546413051]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161]


class TestIsPrime:
    def test_small_range(self):
        assert [n for n in range(3000) if is_prime(n)] == list(sympy.primerange(3000))

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
    def test_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)
        assert not sympy.isprime(n)

    @given(st.integers(0, 10**40))
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)

    @pytest.mark.parametrize("p", [43, 47, 53, 71])
    def test_base_two_pseudoprimes_beyond_the_ladder(self, p):
        # (4^p + 1)/5 is a strong pseudoprime to base 2 above 3.3e24,
        # where only the strong Lucas half of Baillie-PSW rejects it
        n = (4**p + 1) // 5
        assert n > 3317044064679887385961981 and pow(2, n - 1, n) == 1
        assert not is_prime(n)
        assert not sympy.isprime(n)

    @given(st.integers(2, 10**30), st.integers(2, 10**30))
    @settings(max_examples=100, deadline=None)
    def test_primes_and_their_products(self, a, b):
        p, q = sympy.nextprime(a), sympy.nextprime(b)
        assert is_prime(p) and is_prime(q)
        assert not is_prime(p * q)


class TestFactorint:
    @given(st.integers(1, 10**20))
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy(self, n):
        assert factorint(n) == dict(sorted(sympy.factorint(n).items()))

    @given(st.integers(2**10, 2**26), st.integers(2**10, 2**26), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_products_of_large_primes(self, a, b, e):
        p, q = sympy.nextprime(a), sympy.nextprime(b)
        assert factorint(p**e * q) == dict(sorted(sympy.factorint(p**e * q).items()))

    def test_rejects_non_positive(self):
        with pytest.raises(BadInput):
            factorint(0)

    # 1 + 48592009976^2, two 36-bit primes: about 2e5 Brent-rho steps
    SEMIPRIME = 42389895973 * 55701562349

    def steps_needed(self, n):
        """The least max_steps under which factorint(n, max_steps) answers."""
        if factorint(n, 0) is not None:
            return 0
        lo, hi = 0, 1  # factorint(n, lo) gives up
        while factorint(n, hi) is None:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if factorint(n, mid) is None else (lo, mid)
        return hi

    def test_a_capped_run_answers_within_its_steps_and_gives_up_past_them(self):
        for n in (self.SEMIPRIME, 35238019653472453639561, 1009 * 1013 * 2**40):
            steps = self.steps_needed(n)
            assert factorint(n, steps) == factorint(n)
            if steps:
                assert factorint(n, steps - 1) is None
        assert 2**17 < self.steps_needed(self.SEMIPRIME) < 2**19
        # the most steps any cubic value of the seed-0 ec benchmark mix needs
        assert self.steps_needed(35238019653472453639561) == 1790

    @given(st.integers(1, 10**24), st.sampled_from([0, 1, 100, 4096]))
    @settings(max_examples=200, deadline=None)
    def test_a_cap_never_changes_an_answer(self, n, cap):
        capped = factorint(n, cap)
        assert capped is None or capped == factorint(n)
        large = [q for q, e in factorint(n).items() for _ in range(e) if q > 2**10]
        if len(large) < 2:  # trial division leaves 1 or a prime: no rho step
            assert capped == factorint(n)


class TestLeastPrimitiveRoot:
    def test_small_primes(self):
        for p in sympy.primerange(2, 5000):
            assert least_primitive_root(p) == sympy.primitive_root(p)

    @given(st.integers(2, 10**12))
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy(self, n):
        p = sympy.nextprime(n)
        assert least_primitive_root(p) == sympy.primitive_root(p)

    def test_composite_rejected(self):
        with pytest.raises(BadInput):
            least_primitive_root(1001)


class TestMultiplicativeOrder:
    @given(st.integers(2, 10**12), st.integers(1, 10**12))
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy(self, n, g):
        p = sympy.nextprime(n)
        assume(g % p)
        assert multiplicative_order(g, p) == sympy.n_order(g, p)

    @pytest.mark.parametrize("g, p", [(3, 1001), (2, 1), (2, 0), (0, 1021), (2042, 1021)])
    def test_a_composite_p_or_a_non_unit_is_bad_input(self, g, p):
        with pytest.raises(BadInput):
            multiplicative_order(g, p)


# ---------------------------------------------------------------------------
# the sparse F_ell eliminator


def oracle_rank(rows, ncols, ell):
    F = sympy.GF(ell)
    if not rows:
        return 0
    return DomainMatrix([[F(v) for v in row] for row in rows], (len(rows), ncols), F).rank()


@st.composite
def sparse_systems(draw):
    """A random sparse system over F_ell with a planted solution."""
    ell = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    ncols = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    truth = [rng.randrange(ell) for _ in range(ncols)]
    dense = []
    for _ in range(draw(st.integers(0, 12))):
        row = [rng.randrange(ell) if rng.random() < 0.4 else 0 for _ in range(ncols)]
        dense.append(row)
    consts = [sum(c * t for c, t in zip(row, truth)) % ell for row in dense]
    return ell, ncols, truth, dense, consts


class TestGaussReduce:
    @staticmethod
    def norm2(w):
        return w[0] * w[0] + w[1] * w[1]

    @given(st.integers(-60, 60), st.integers(-60, 60),
           st.integers(-60, 60), st.integers(-60, 60))
    def test_reduced_basis_of_the_same_lattice(self, a, b, c, d):
        det = a * d - b * c
        assume(det != 0)

        def in_lattice(r, s):
            return (r * d - s * c) % det == 0 and (a * s - b * r) % det == 0

        b1, b2 = gauss_reduce((a, b), (c, d))
        assert abs(b1[0] * b2[1] - b1[1] * b2[0]) == abs(det)
        assert in_lattice(*b1) and in_lattice(*b2)
        n1 = self.norm2(b1)
        assert n1 <= self.norm2(b2)
        assert 2 * abs(b1[0] * b2[0] + b1[1] * b2[1]) <= n1
        # no nonzero lattice vector is shorter than b1
        box = isqrt(n1)
        assert not any(in_lattice(r, s) and 0 < r * r + s * s < n1
                       for r in range(-box, box + 1) for s in range(-box, box + 1))

    def test_determinant_p_lattice(self):
        # L = {(r, s) : 396*r + s = 0 mod 1009}: 28*396 + 11 = 11*1009 and
        # 23*396 - 27 = 9*1009, two vectors near sqrt(1009) = 31.8 long
        # spanning a lattice of determinant 28*(-27) - 11*23 = -1009
        assert gauss_reduce((1, -396 % 1009), (0, 1009)) == ((28, 11), (23, -27))

    def test_dependent_basis_rejected(self):
        with pytest.raises(BadInput):
            gauss_reduce((2, 4), (-1, -2))


def sparse_rows(dense, consts):
    """The (coeffs, const) rows of a dense system, zero entries dropped."""
    return [({j: c for j, c in enumerate(row) if c}, k) for row, k in zip(dense, consts)]


class TestSparseKernel:
    @given(sparse_systems())
    @settings(max_examples=300, deadline=None)
    def test_consistent_systems(self, system):
        ell, ncols, truth, dense, consts = system
        elim = Eliminator(ell)
        elim.add(sparse_rows(dense, consts))
        assert len(elim.rows) == oracle_rank(dense, ncols, ell)
        # free columns at zero give a particular solution: pivots = rhs
        x = {j: 0 for j in range(ncols)}
        x.update(elim.consts)
        for row, k in zip(dense, consts):
            assert sum(c * x[j] for j, c in enumerate(row)) % ell == k
        # determined columns carry the planted values, and are exactly
        # those whose unit vector lies in the row space
        for j in range(ncols):
            unit = [int(i == j) for i in range(ncols)]
            determined = oracle_rank(dense + [unit], ncols, ell) == len(elim.rows)
            assert elim.determined(j) == determined
            if determined:
                assert elim.consts[j] == truth[j]

    @given(sparse_systems(), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_eliminator_takes_rows_one_at_a_time(self, system, shift):
        ell, ncols, truth, dense, consts = system
        elim = Eliminator(ell)
        for n, (row, k) in enumerate(sparse_rows(dense, consts), 1):
            elim.add([(row, k)])
            rank = oracle_rank(dense[:n], ncols, ell)
            assert len(elim.rows) == rank
            for j in range(ncols):
                unit = [int(i == j) for i in range(ncols)]
                determined = oracle_rank(dense[:n] + [unit], ncols, ell) == rank
                assert elim.determined(j) == determined
                if determined:
                    assert elim.consts[j] == truth[j]
        batch = Eliminator(ell)
        batch.add(sparse_rows(dense, consts))
        assert len(batch.rows) == len(elim.rows)
        assert {col: batch.consts[col] for col in batch.rows if batch.determined(col)} == {
            col: elim.consts[col] for col in elim.rows if elim.determined(col)}
        # a row off the span's right-hand side by shift leaves the state as it was
        assume(dense and shift % ell)
        combo = [sum(row[j] for row in dense) % ell for j in range(ncols)]
        before = ({c: dict(row) for c, row in elim.rows.items()}, dict(elim.consts))
        with pytest.raises(Inconsistent):
            elim.add([({j: c for j, c in enumerate(combo) if c}, sum(consts) + shift)])
        assert (elim.rows, elim.consts) == before

    @given(sparse_systems(), st.lists(st.integers(0, 12), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_eliminator_takes_rows_in_batches(self, system, cuts):
        # the rows in successive batches, as a carried solve feeds them
        ell, ncols, truth, dense, consts = system
        rows = sparse_rows(dense, consts)
        elim, start = Eliminator(ell), 0
        for end in [*sorted(cuts), len(rows)]:
            end = max(start, min(end, len(rows)))
            elim.add(rows[start:end])
            start = end
            rank = oracle_rank(dense[:end], ncols, ell)
            assert len(elim.rows) == rank
            for j in range(ncols):
                unit = [int(i == j) for i in range(ncols)]
                determined = oracle_rank(dense[:end] + [unit], ncols, ell) == rank
                assert elim.determined(j) == determined
                if determined:
                    assert elim.consts[j] == truth[j]

    @given(sparse_systems())
    @settings(max_examples=200, deadline=None)
    def test_solver_rank_nullity_and_rank_deficiency(self, system):
        # the solver reads the columns the relations hold, and leaves out
        # of its values exactly the undetermined ones
        ell, ncols, truth, dense, consts = system
        rels = [Relation.make({f"c{j}": c for j, c in enumerate(row)}, k, ell)
                for row, k in zip(dense, consts)]
        present = [j for j in range(ncols) if any(row[j] for row in dense)]
        rank = oracle_rank(dense, ncols, ell)
        determined = [j for j in present
                      if oracle_rank(dense + [[int(i == j) for i in range(ncols)]],
                                     ncols, ell) == rank]
        result = solve_linear_mod_ell(rels, Eliminator(ell), set())
        assert result.rank == rank
        assert result.columns == sorted(f"c{j}" for j in present)
        assert result.rank + result.nullity == len(present)
        assert result.values == {f"c{j}": truth[j] for j in determined}

    @given(sparse_systems(), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_inconsistent_systems(self, system, shift):
        ell, ncols, truth, dense, consts = system
        assume(dense and shift % ell)
        # a combination of the rows whose right-hand side is off by shift
        combo = [sum(row[j] for row in dense) % ell for j in range(ncols)]
        rows = sparse_rows([*dense, combo], [*consts, sum(consts) + shift])
        with pytest.raises(Inconsistent):
            Eliminator(ell).add(rows)

    def test_rank_mod_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            ell = rng.choice([2, 3, 5, 7, 31])
            rows = [[rng.randrange(-50, 50) for _ in range(4)] for _ in range(2)]
            assert rank_mod(rows, ell) == oracle_rank(
                [[v % ell for v in row] for row in rows], 4, ell)

    def test_modulus_beyond_31_bits(self):
        ell = 2**61 - 1
        rng = random.Random(11)
        truth = {f"u{i}": rng.randrange(ell) for i in range(6)}
        rels = []
        for _ in range(9):
            coeffs = {k: rng.randrange(ell) for k in rng.sample(sorted(truth), 4)}
            const = sum(c * truth[k] for k, c in coeffs.items())
            rels.append(Relation.make(coeffs, const, ell))
        result = solve_linear_mod_ell(rels, Eliminator(ell), set())
        assert result.values == truth
        assert result.rank == 6 and result.nullity == 0
