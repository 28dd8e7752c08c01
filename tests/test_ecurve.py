from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sigcalc.ecurve as ecurve
from sigcalc.arith import bsgs_dlog, hensel_sqrt, jacobi, primes_up_to, sqrt_mod_prime
from sigcalc.cli import load_fixture
from sigcalc.ecurve import (
    Curve,
    INFINITY,
    Point,
    curve_group_ops,
    ec_add,
    ec_group_order,
    ec_neg,
    ec_scalar_mul,
    h1_local_dim,
    hasse_interval,
    local_class,
    _proj_add,
    _proj_mul,
    _projective_mod,
)
from sigcalc.errors import (
    BadInput,
    NonInvertibleDenominator,
    OutOfScope,
    Singular,
    VerificationFailed,
)
from sigcalc.quadfield import RealQuadField, split_places
from sigcalc.seeds import rng_for


def brute_order(curve: Curve) -> int:
    q = curve.base[1]
    count = 1
    for x in range(q):
        f = (x**3 + curve.a * x + curve.b) % q
        if f == 0:
            count += 1
        elif jacobi(f, q) == 1:
            count += 2
    return count


def random_point(curve: Curve, rng):
    q = curve.base[1]
    while True:
        x = rng.randrange(q)
        f = (x**3 + curve.a * x + curve.b) % q
        if f == 0:
            return Point(x, 0)
        if jacobi(f, q) == 1:
            y = sqrt_mod_prime(f, q)
            return Point(x, rng.choice([y, q - y]))


def rational_mul(n: int, P, a):
    """n*P for n >= 0 on y^2 = x^3 + a*x + b over Q, by affine
    double-and-add in Fraction arithmetic: the exact oracle for the
    local classes, which sigcalc computes mod ell^2 instead."""

    def add(U, V):
        if U is INFINITY:
            return V
        if V is INFINITY:
            return U
        x1, y1, x2, y2 = (Fraction(c) for c in (U.x, U.y, V.x, V.y))
        if x1 == x2:
            if y1 + y2 == 0:
                return INFINITY
            lam = (3 * x1 * x1 + a) / (2 * y1)
        else:
            lam = (y2 - y1) / (x2 - x1)
        x3 = lam * lam - x1 - x2
        return Point(x3, lam * (x1 - x3) - y1)

    result = INFINITY
    while n:
        if n & 1:
            result = add(result, P)
        P = add(P, P)
        n >>= 1
    return result


class TestGroupLaw:
    def test_point_is_a_tuple(self):
        P = Point(2, 3)
        assert (P.x, P.y) == P == (2, 3)
        assert hash(P) == hash((2, 3))

    def test_identity_and_inverse(self):
        c = Curve(0, 1, ("fp", 5))
        P = Point(2, 3)
        assert ec_add(P, INFINITY, c) == P
        assert ec_add(P, ec_neg(P, c), c) is INFINITY

    def test_doubling_worked(self):
        # lambda = 3*4/(2*3) = 2 mod 5, x3 = 4 - 4 = 0, y3 = 2*2 - 3 = 1
        c = Curve(0, 1, ("fp", 5))
        assert ec_scalar_mul(2, Point(2, 3), c) == Point(0, 1)

    def test_axioms_random_triples(self):
        rng = rng_for(1, "axioms")
        for _ in range(8):
            q = rng.choice([101, 103, 107])
            a, b = rng.randrange(q), rng.randrange(q)
            c = Curve(a, b, ("fp", q))
            if c.is_singular():
                continue
            P, Q, R = (random_point(c, rng) for _ in range(3))
            assert ec_add(P, Q, c) == ec_add(Q, P, c)
            assert ec_add(ec_add(P, Q, c), R, c) == ec_add(P, ec_add(Q, R, c), c)
            assert ec_add(P, ec_neg(P, c), c) is INFINITY

    def test_rational_base(self):
        c = Curve(0, Fraction(3), ("rational",))
        P = Point(Fraction(1), Fraction(2))
        assert c.contains(P)
        assert c.contains(rational_mul(2, P, 0))
        assert not c.contains(Point(Fraction(1), Fraction(3)))
        assert not c.contains(Point(Fraction(1, 2), 2))
        # the group law runs over F_q only
        with pytest.raises(BadInput):
            ec_add(P, P, c)
        with pytest.raises(BadInput):
            ec_scalar_mul(2, P, c)

    def test_quadratic_base(self):
        K = RealQuadField(22)
        c = Curve(0, 3, ("quad", 22))
        R = Point(K.element(13, 0), K.from_sqrt_coords(0, 10))
        assert c.contains(R)
        P = Point(K.element(1, 0), K.element(2, 0))
        assert c.contains(P)
        assert c.contains(Point(1, 2))
        assert not c.contains(Point(K.element(13, 0), K.from_sqrt_coords(1, 10)))
        assert not c.contains(Point(K.element(13, 1), K.from_sqrt_coords(0, 10)))
        with pytest.raises(BadInput):
            ec_add(R, P, c)
        with pytest.raises(BadInput):
            curve_group_ops(c)


def point_law_ops(curve: Curve) -> dict:
    """The ECDL oracle's table on Points: ec_add and ec_neg, which reduce
    both operands and build a Point on every step."""
    return {"op": partial(ec_add, curve=curve), "identity": INFINITY,
            "invert": partial(ec_neg, curve=curve)}


@pytest.mark.parametrize("name", ["f7l13", "f251l271", "f1009l967", "f4003l4111",
                                  "f11003l11093"])
def test_ecdl_oracle_on_tuples_matches_the_point_law(name):
    # curve_group_ops runs the int-tuple law; Points and plain tuples of
    # residues give the answer that the Point law gives
    doc = load_fixture(name)
    q, ell = int(doc["p"]), int(doc["ell"])
    base = Curve(int(doc["a"]), int(doc["b"]), ("fp", q))
    Qt = Point(*(int(c) for c in doc["Qt"]))
    Rt = Point(*(int(c) for c in doc["Rt"]))
    ops = curve_group_ops(base)
    targets = [Rt] + [ec_scalar_mul(m, Qt, base) for m in (0, 1, 2, ell // 2, ell - 1)]
    for target in targets:
        want = bsgs_dlog(Qt, target, ell, **point_law_ops(base))
        assert ec_scalar_mul(want, Qt, base) == target
        assert bsgs_dlog(Qt, target, ell, **ops) == want
        plain = None if target is INFINITY else (target.x, target.y)
        assert bsgs_dlog((Qt.x, Qt.y), plain, ell, **ops) == want


class TestGroupOrder:
    def test_enumerated_fixtures(self):
        assert ec_group_order(Curve(0, 1, ("fp", 5))) == 6
        assert ec_group_order(Curve(1, 0, ("fp", 5))) == 4
        assert ec_group_order(Curve(0, 3, ("fp", 7))) == 13

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            ec_group_order(Curve(0, 0, ("fp", 5)))

    def test_bsgs_path_matches_enumeration(self):
        # force the BSGS path by patching the threshold
        import sigcalc.ecurve as ec

        rng = rng_for(6, "orders")
        old = ec.ENUMERATION_LIMIT
        try:
            for _ in range(6):
                q = rng.choice([2003, 2011, 2017])
                a, b = rng.randrange(q), rng.randrange(q)
                c = Curve(a, b, ("fp", q))
                if c.is_singular():
                    continue
                expected = brute_order(c)
                ec.ENUMERATION_LIMIT = 10
                got = ec_group_order(c)
                ec.ENUMERATION_LIMIT = old
                assert got == expected
        finally:
            ec.ENUMERATION_LIMIT = old

    def test_hasse_interval(self):
        assert hasse_interval(211) == (183, 241)  # 2*sqrt(211) = 29.05...
        rng = rng_for(8, "hasse")
        for _ in range(10):
            q = rng.choice([211, 223, 227])
            c = Curve(rng.randrange(q), rng.randrange(q), ("fp", q))
            if c.is_singular():
                continue
            lo, hi = hasse_interval(q)
            assert lo <= ec_group_order(c) <= hi


PRIMES_BELOW_3000 = [q for q in primes_up_to(3000) if q > 2]


@st.composite
def fp_curves(draw):
    # half the draws below 100, where small and non-cyclic groups
    # leave the Hasse-interval search more than one candidate order
    q = draw(st.sampled_from(PRIMES_BELOW_3000[:24]) | st.sampled_from(PRIMES_BELOW_3000))
    curve = Curve(draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1)), ("fp", q))
    assume(not curve.is_singular())
    return curve


def point_from(curve: Curve, x0: int, flip: bool):
    """The first affine point with x >= x0 (cyclically), or O if none."""
    q = curve.base[1]
    for x in [*range(x0, q), *range(x0)]:
        f = (x**3 + curve.a * x + curve.b) % q
        if f == 0:
            return Point(x, 0)
        if jacobi(f, q) == 1:
            y = sqrt_mod_prime(f, q)
            return Point(x, q - y if flip else y)
    return INFINITY


def bsgs_order(curve: Curve) -> int:
    """ec_group_order with the Hasse-interval path forced."""
    old = ecurve.ENUMERATION_LIMIT
    ecurve.ENUMERATION_LIMIT = 2
    try:
        return ec_group_order(curve)
    finally:
        ecurve.ENUMERATION_LIMIT = old


class TestCountingProperties:
    @given(fp_curves())
    @settings(max_examples=150, deadline=None)
    def test_table_bsgs_and_brute_counts_agree(self, curve):
        assert ec_group_order(curve) == bsgs_order(curve) == brute_order(curve)

    @given(fp_curves(), st.lists(st.tuples(st.integers(0, 2999), st.booleans()),
                                 min_size=3, max_size=3),
           st.integers(-10**6, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_fp_law_axioms(self, curve, picks, n):
        q = curve.base[1]
        P, Q, R = (point_from(curve, x % q, flip) for x, flip in picks)

        def add(U, V):
            return ec_add(U, V, curve)

        assert add(add(P, Q), R) == add(P, add(Q, R))
        assert add(P, Q) == add(Q, P)
        assert add(P, ec_neg(P, curve)) is INFINITY
        assert add(P, INFINITY) == P
        order = ec_group_order(curve)
        assert ec_scalar_mul(order, P, curve) is INFINITY
        assert ec_scalar_mul(n, P, curve) == ec_scalar_mul(n % order, P, curve)
        assert ec_scalar_mul(-n, P, curve) == ec_neg(ec_scalar_mul(n, P, curve), curve)


class TestCompositeModuli:
    @pytest.mark.parametrize("q", [15, 3 * 10007])
    def test_group_order_rejects_composite_q(self, q):
        with pytest.raises(BadInput):
            ec_group_order(Curve(1, 1, ("fp", q)))

    def test_non_unit_denominator(self):
        # x2 - x1 = 5 shares the factor 5 with 15
        with pytest.raises(NonInvertibleDenominator):
            ec_add(Point(0, 1), Point(5, 1), Curve(1, 1, ("fp", 15)))

    def test_zero_denominator(self):
        # off-curve points with equal x and y1 + y2 != 0 take the
        # tangent branch, whose denominator 2*y1 is 0 here
        with pytest.raises(NonInvertibleDenominator):
            ec_add(Point(1, 0), Point(1, 3), Curve(0, 1, ("fp", 7)))


class TestH1LocalDim:
    def test_dimension_formula_cases_for_ell_13(self):
        # curve y^2 = x^3 + 3: 13 points over F_7, 9 over F_13, and over
        # F_11 the order is not divisible by 13
        E = Curve(0, 3, ("rational",))
        K = RealQuadField(22)  # 7, 13 split; 11 ramifies... use degree-1 places
        ell = 13
        w13 = [w for w in split_places(13, K) if w.degree == 1][0]
        assert h1_local_dim(E, w13, ell) == 1
        w7 = [w for w in split_places(7, K) if w.degree == 1][0]
        assert ec_group_order(E.reduction(7)) == 13
        assert h1_local_dim(E, w7, ell) == 1
        w11 = split_places(11, K)[0]
        assert w11.splitting == "ramified" and w11.degree == 1
        assert ec_group_order(E.reduction(11)) % 13 != 0
        assert h1_local_dim(E, w11, ell) == 0

    def test_matches_order_divisibility(self):
        E = Curve(0, 3, ("rational",))
        K = RealQuadField(22)
        disc = abs(E.discriminant())
        from sigcalc.arith import primes_up_to

        for q in primes_up_to(120):
            if q == 2 or q == 13 or disc % q == 0:
                continue
            places = [w for w in split_places(q, K) if w.degree == 1]
            if not places:
                continue
            order = ec_group_order(E.reduction(q))
            if order % (13 * 13) == 0:
                continue
            expected = 1 if order % 13 == 0 else 0
            assert h1_local_dim(E, places[0], 13) == expected

    def test_out_of_scope_cases(self):
        E = Curve(0, 3, ("rational",))
        K = RealQuadField(22)
        w3 = split_places(3, K)[0]  # 3 divides the discriminant
        if w3.degree == 1:
            with pytest.raises(OutOfScope):
                h1_local_dim(E, w3, 13)
        inert = [w for w in split_places(5, K) if w.degree == 2]
        if inert:
            with pytest.raises(BadInput):
                h1_local_dim(E, inert[0], 13)


def in_ell_E(W, curve: Curve, ell: int) -> bool:
    """Brute-force membership test W in ell*E(Q_ell), W an (X, Y, Z)
    tuple mod ell^2.

    Multiplication by ell is a bijection on the reduced curve, so the
    reduction of any ell-divisor of W is forced; W is divisible by ell
    iff W - ell*V0 sits at depth >= 2 in the kernel of reduction, for
    V0 any lift of that forced reduction.  Depth >= 2 means z = -X/Y
    vanishes mod ell^2.
    """
    N = ell * ell
    a, b3 = curve.a % N, 3 * curve.b % N
    X, Y, Z = W
    if Z % ell:
        zi = pow(Z, -1, ell)
        W_red = Point(X * zi % ell, Y * zi % ell)
        reduced_curve = curve.reduction(ell)
        d = ec_group_order(reduced_curve)
        V_red = ec_scalar_mul(pow(ell, -1, d), W_red, reduced_curve)
        if V_red.y == 0:
            raise ValueError("lifting 2-torsion is not needed for these curves")
        # lift V_red to a local point: fix x, lift y by the square root
        f = V_red.x**3 + curve.a * V_red.x + curve.b
        y = hensel_sqrt(f, ell, 2)
        if y % ell != V_red.y:
            y = N - y
        EX, EY, EZ = _proj_mul(ell, (V_red.x, y, 1), a, b3, N)
        X, Y, Z = _proj_add(W, (EX, -EY % N, EZ), a, b3, N)
    if Y % ell == 0:
        raise ValueError("the difference left the projective law's scope")
    return X % ell == 0 == Z % ell and X * pow(Y, -1, N) % N == 0


def _neg(P, ell: int):
    X, Y, Z = P
    return X, -Y % (ell * ell), Z


def exact_class(P, curve: Curve, ell: int) -> int:
    """(z/ell) mod ell for z = -x/y of d*P, d*P computed over Q."""
    d = ec_group_order(curve.reduction(ell))
    Q = rational_mul(d, P, curve.a)
    if Q is INFINITY:
        return 0
    t = -Fraction(Q.x) / Fraction(Q.y) / ell
    return t.numerator * pow(t.denominator, -1, ell) % ell


class TestLocalClass:
    def test_class_of_infinity(self):
        c = Curve(0, 3, ("rational",))
        assert local_class(INFINITY, c, 13).c == 0

    def test_additivity(self):
        c = Curve(0, 3, ("rational",))
        ell = 13
        P = Point(1, 2)
        assert c.contains(P)
        values = {}
        base = c
        for k in range(1, 8):
            # k*P over Q has huge coordinates; compute the class of kP
            # locally instead: c(kP) = k*c(P) must hold
            values[k] = local_class(P, base, ell).c * k % ell
        # direct check of c(2P) via the exact rational doubling
        twoP = rational_mul(2, P, 0)
        c2 = local_class(Point(twoP.x, twoP.y), base, ell).c
        assert c2 == values[2]

    def test_kills_ell_multiples(self):
        c = Curve(0, 3, ("rational",))
        ell = 13
        ellP = rational_mul(ell, Point(1, 2), 0)
        assert local_class(ellP, c, ell).c == local_class(Point(1, 2), c, ell).c * ell % ell == 0

    def test_membership_oracle_cross_check(self):
        # local_class(P) = c means P - c*G is an ell-th multiple, where the
        # auxiliary point G has class 1
        ell, N = 13, 169
        a, b3 = 0, 9  # y^2 = x^3 + 3
        c = Curve(0, 3, ("rational",))
        cP = local_class(Point(1, 2), c, ell).c
        assert cP != 0
        # G with class 1: scale P by the inverse of its class
        k = pow(cP, -1, ell)
        P_loc = _projective_mod(Point(1, 2), None, ell)
        G_loc = _proj_mul(k, P_loc, a, b3, N)
        for m in range(1, 6):
            W = _proj_mul(m, P_loc, a, b3, N)
            cW = local_class(rational_mul(m, Point(1, 2), 0), c, ell).c
            # W - cW * G must be in ell*E
            minus = _proj_mul(cW, G_loc, a, b3, N)
            assert in_ell_E(_proj_add(W, _neg(minus, ell), a, b3, N), c, ell)
            # and W - (cW+1) * G must not be
            minus_bad = _proj_mul((cW + 1) % ell, G_loc, a, b3, N)
            assert not in_ell_E(_proj_add(W, _neg(minus_bad, ell), a, b3, N), c, ell)

    def test_pinned_kernel_descent(self):
        # 15*P passes through the kernel of reduction on the way; the
        # exact rational 15*P has z/11 = 7 mod 11
        E = Curve(2, 31, ("rational",))
        assert exact_class(Point(3, -8), E, 11) == 7
        assert local_class(Point(3, -8), E, 11).c == 7

    @settings(max_examples=300, deadline=None)
    @example(ell=11, a=2, x=3, y=-8, y_mult=False, k=1)
    @example(ell=11, a=5, x=5, y=-9, y_mult=False, k=1)
    @example(ell=11, a=3, x=-2, y=-5, y_mult=False, k=1)
    @example(ell=7, a=-3, x=-3, y=1, y_mult=True, k=2)  # 2P has 7^3 in y's denominator
    @given(ell=st.sampled_from([3, 5, 7, 11, 13]), a=st.integers(-6, 6),
           x=st.integers(-6, 6), y=st.integers(-9, 9), y_mult=st.booleans(),
           k=st.integers(1, 3))
    def test_matches_exact_rational_multiple(self, ell, a, x, y, y_mult, k):
        # b is fixed by the point; y_mult forces y = 0 mod ell, a point
        # reducing to 2-torsion; k > 1 gives Fraction coordinates, and
        # k = 2 on such a point lands in the kernel of reduction
        if y_mult:
            y *= ell
        E = Curve(a, y * y - x**3 - a * x, ("rational",))
        assume(E.discriminant() % ell != 0)
        d = ec_group_order(E.reduction(ell))
        assume(d % ell != 0 and d <= 20)
        P = rational_mul(k, Point(x, y), a)
        cls = local_class(P, E, ell)
        assert cls.d == d
        assert cls.c == exact_class(P, E, ell)

    def test_known_order_is_not_recounted(self, monkeypatch):
        E, P = Curve(0, 3, ("rational",)), Point(1, 2)
        cls = local_class(P, E, 13)

        def forbidden(curve):
            raise AssertionError("the order was recounted")

        monkeypatch.setattr(ecurve, "ec_group_order", forbidden)
        assert local_class(P, E, 13, d=cls.d) == cls
        # a wrong order leaves d*P outside the kernel of reduction
        with pytest.raises(VerificationFailed):
            local_class(P, E, 13, d=cls.d + 1)

    def test_not_in_the_kernel_after_d(self):
        # an off-curve point: d*P does not reduce to O
        with pytest.raises(VerificationFailed):
            local_class(Point(1, 1), Curve(0, 3, ("rational",)), 13)

    def test_quadratic_point_needs_place(self):
        K = RealQuadField(22)
        c = Curve(0, 3, ("rational",))
        R = Point(K.element(13, 0), K.from_sqrt_coords(0, 10))
        with pytest.raises(BadInput):
            local_class(R, c, 13)
        u = split_places(13, K)[0]
        cls = local_class(R, c, 13, place=u)
        assert 0 <= cls.c < 13
