"""Elliptic curves y^2 = x^3 + ax + b over prime fields, the rationals,
quadratic fields, and ell-adic completions.

Provides the chord-tangent group law over F_q, deterministic point
counting, the one-place cohomology dimension formula, and the
normalised formal-group coordinate on the kernel of reduction that
turns E(Q_ell)/ell into explicit F_ell values.

The group law runs over F_q only, as one affine law on plain ints:
internally a point is an (x, y) tuple of residues and None is O, and
the public functions wrap it in Points.  Over Q and Q(sqrt D) a curve
only tests membership, exactly; global points enter arithmetic through
their images mod ell^2 at a place.  #E(F_q) comes from a table of
square-root counts mod q (one bytearray, built in O(q)) up to
ENUMERATION_LIMIT, and from point orders found by baby-step giant-step
in the Hasse interval above it.

The class of a point in E(Q_ell)/ell is read from d*P, d = #E(F_ell),
computed exactly in E(Z/ell^2): a Montgomery ladder on the complete
projective addition law of Renes, Costello and Batina, reduced mod
ell^2.  That law fails over F_ell only on pairs whose difference has
order 2, so every result mod ell^2 is primitive and no precision is
tracked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .arith import bsgs_dlog, factorint, is_prime, jacobi, sqrt_mod_prime
from .errors import (
    BadInput,
    BadReduction,
    NonInvertibleDenominator,
    OutOfScope,
    Singular,
    VerificationFailed,
)
from .quadfield import Place, QuadInt, RealQuadField, embed

__all__ = [
    "Curve",
    "Point",
    "LocalClass",
    "INFINITY",
    "ec_add",
    "ec_neg",
    "ec_scalar_mul",
    "ec_group_order",
    "hasse_interval",
    "curve_group_ops",
    "h1_local_dim",
    "local_class",
]

INFINITY = None  # the point at infinity

ENUMERATION_LIMIT = 10**4  # point counting switches to BSGS above this


class Point(NamedTuple):
    """Affine point, a tuple equal to the plain (x, y); the point at
    infinity is the module constant None."""

    x: object
    y: object


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a*x + b over a named base.

    base is ("fp", p), ("rational",) or ("quad", D); coefficients are
    exact (ints, Fractions, or QuadInts for the quadratic case).  The
    scaled discriminant 16(4a^3 + 27b^2) is tracked exactly and must
    not vanish.  The group law needs an ("fp", p) base; over Q and K the
    curve tests membership only.
    """

    a: object
    b: object
    base: tuple

    def discriminant(self):
        return 16 * (4 * self.a**3 + 27 * self.b**2)

    def is_singular(self) -> bool:
        disc = self.discriminant()
        if self.base[0] == "fp":
            return disc % self.base[1] == 0
        return disc == 0

    def contains(self, point) -> bool:
        """y^2 = x^3 + ax + b: mod p over F_p, exactly in Fraction
        arithmetic over Q and in QuadInt arithmetic over K."""
        if point is INFINITY:
            return True
        x, y, a, b = point.x, point.y, self.a, self.b
        kind = self.base[0]
        if kind == "fp":
            return (y * y - (x * x * x + a * x + b)) % self.base[1] == 0
        if kind == "quad":
            K = RealQuadField(self.base[1])
            x, y, a, b = (c if isinstance(c, QuadInt) else K.element(c, 0)
                          for c in (x, y, a, b))
        elif kind != "rational":
            raise BadInput(f"unknown base {self.base}")
        return y * y == x * x * x + a * x + b

    def reduction(self, q: int) -> "Curve":
        """Reduce integer coefficients mod an odd prime q."""
        if not isinstance(self.a, int) or not isinstance(self.b, int):
            raise BadInput("only integer models reduce directly")
        return Curve(self.a % q, self.b % q, ("fp", q))


# ---------------------------------------------------------------------------
# group law over F_q on plain ints


def _fp_add(P, Q, a: int, q: int):
    """Chord-tangent sum on (x, y) tuples of residues in [0, q); None is O.

    Any non-unit denominator, q prime or not, raises
    NonInvertibleDenominator.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        num, den = 3 * x1 * x1 + a, 2 * y1
    else:
        num, den = y2 - y1, x2 - x1
    try:
        lam = num * pow(den, -1, q) % q
    except ValueError:
        raise NonInvertibleDenominator(f"{den % q} is not a unit mod {q}") from None
    x3 = (lam * lam - x1 - x2) % q
    return x3, (lam * (x1 - x3) - y1) % q


def _fp_neg(P, q: int):
    return None if P is None else (P[0], -P[1] % q)


def _fp_mul(n: int, P, a: int, q: int):
    """n*P for n >= 0 by double-and-add on tuples."""
    result = None
    while n:
        if n & 1:
            result = _fp_add(result, P, a, q)
        P = _fp_add(P, P, a, q)
        n >>= 1
    return result


def _fp_point_add(P, Q, a: int, q: int):
    """_fp_add on Points; an operand O returns the other as given."""
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    R = _fp_add((P.x % q, P.y % q), (Q.x % q, Q.y % q), a, q)
    return INFINITY if R is None else Point(*R)


def _fp_modulus(curve: Curve) -> int:
    """q for a curve over F_q; the group law runs on no other base."""
    if curve.base[0] != "fp":
        raise BadInput(f"the group law runs over F_q only, not over {curve.base}")
    return curve.base[1]


def ec_neg(P, curve: Curve):
    q = _fp_modulus(curve)
    return INFINITY if P is INFINITY else Point(P.x % q, -P.y % q)


def ec_add(P, Q, curve: Curve):
    """Chord-tangent sum over F_q, on plain ints."""
    return _fp_point_add(P, Q, curve.a, _fp_modulus(curve))


def ec_scalar_mul(n: int, P, curve: Curve):
    """n*P by double-and-add (negative n through the inverse)."""
    q = _fp_modulus(curve)
    if P is INFINITY:
        return INFINITY
    y = P.y if n >= 0 else -P.y
    R = _fp_mul(abs(n), (P.x % q, y % q), curve.a, q)
    return INFINITY if R is None else Point(*R)


def curve_group_ops(curve: Curve) -> dict:
    """Operation table of E(F_q) for bsgs_dlog, on the int-tuple law.

    Points must be reduced mod q: (x, y) tuples or Points of residues in
    [0, q), and None for O.  Results are plain tuples, equal to the
    Points with the same coordinates.
    """
    q = _fp_modulus(curve)
    return {"op": partial(_fp_add, a=curve.a % q, q=q), "identity": INFINITY,
            "invert": partial(_fp_neg, q=q)}


# ---------------------------------------------------------------------------
# point counting


def _enumerated_order(a: int, b: int, q: int) -> int:
    """1 + sum over x of #{y : y^2 = x^3 + ax + b}, read from one table
    of square-root counts mod q."""
    roots = bytearray(q)  # roots[v] = #{y in F_q : y^2 = v}
    roots[0] = 1
    for y in range(1, (q + 1) // 2):
        roots[y * y % q] = 2
    total = 1
    for x in range(q):
        total += roots[(x * (x * x + a) + b) % q]
    return total


def _first_points(a: int, b: int, q: int):
    for x in range(q):
        f = (x * x * x + a * x + b) % q
        if f == 0:
            yield x, 0
        elif jacobi(f, q) == 1:
            y = sqrt_mod_prime(f, q)
            yield x, min(y, q - y)


def _point_order(P, a: int, q: int, lo: int, hi: int) -> int:
    # least multiple of ord(P) in [lo, hi], then strip prime factors
    target = _fp_neg(_fp_mul(lo, P, a, q), q)
    k = bsgs_dlog(P, target, hi - lo + 1, op=partial(_fp_add, a=a, q=q),
                  identity=None, invert=partial(_fp_neg, q=q))
    t = lo + k
    order = t
    for prime in factorint(t):
        while order % prime == 0 and _fp_mul(order // prime, P, a, q) is None:
            order //= prime
    return order


def hasse_interval(q: int) -> tuple[int, int]:
    """The integers lo, hi with lo <= #E(F_q) <= hi for every curve over
    F_q: |#E(F_q) - (q + 1)| <= 2*sqrt(q)."""
    return q + 1 - isqrt(4 * q), q + 1 + isqrt(4 * q)


def ec_group_order(curve: Curve) -> int:
    """#E(F_q) for a prime q, deterministic.

    Up to ENUMERATION_LIMIT the square-root table counts every x.  Above
    it, the orders of up to 40 points, each found by baby-step
    giant-step inside the Hasse interval, pin down the one multiple of
    their lcm in that interval; when more than one multiple remains the
    table counts after all.
    """
    if curve.base[0] != "fp":
        raise BadInput("point counting needs a prime-field base")
    q = curve.base[1]
    if q < 3:
        raise BadInput("q must be an odd prime")
    if q > 2**24:
        raise BadInput("desk-scale counting is limited to q <= 2^24")
    if not is_prime(q):
        raise BadInput(f"q = {q} is not prime")
    if curve.is_singular():
        raise Singular(f"curve is singular over F_{q}")
    a, b = curve.a % q, curve.b % q
    if q <= ENUMERATION_LIMIT:
        return _enumerated_order(a, b, q)
    lo, hi = hasse_interval(q)
    L = 1
    for count, P in enumerate(_first_points(a, b, q)):
        if count >= 40:
            break
        order = _point_order(P, a, q, lo, hi)
        L = L * order // gcd(L, order)
        first = ((lo + L - 1) // L) * L
        if first > hi:  # pragma: no cover - impossible, #E is a multiple
            raise ArithmeticError("no multiple of the point orders in range")
        if first + L > hi:
            return first
    # several multiples of the sampled orders lie in the interval: the
    # group has a large non-cyclic part, which happens at small q
    return _enumerated_order(a, b, q)


# ---------------------------------------------------------------------------
# local cohomology dimension at a degree-1 place


def h1_local_dim(curve: Curve, place: Place, ell: int) -> int:
    """F_ell-dimension of H^1(K_w, E)[ell] at a good degree-1 place.

    Residue characteristic ell: dimension 1 when ell does not divide
    the reduced order.  Away from ell: 0 when ell does not divide the
    reduced order, 1 when it divides exactly once.  Everything else is
    outside the formula's scope and raises.
    """
    if place.degree != 1:
        raise BadInput("only degree-1 places are supported")
    q = place.q
    if q == 2:
        raise OutOfScope("residue characteristic 2 is not modelled")
    reduced = curve.reduction(q)
    if reduced.is_singular():
        raise OutOfScope(f"bad reduction at {place}")
    order = ec_group_order(reduced)
    if q == ell:
        if order % ell == 0:
            raise OutOfScope("ell divides the reduced order at ell")
        return 1
    if order % ell != 0:
        return 0
    if order % (ell * ell) == 0:
        raise OutOfScope("ell^2 divides the reduced order")
    return 1


# ---------------------------------------------------------------------------
# local classes in E(Q_ell)/ell, exact in E(Z/ell^2)


@dataclass(frozen=True)
class LocalClass:
    """Normalised class of a point in E(Q_ell)/ell.

    c is (z(dP)/ell) mod ell with z = -x/y the formal parameter and
    d the reduced group order at ell; c(O) = 0 and c is additive with
    kernel containing ell*E(Q_ell).
    """

    c: int
    place: Place | None
    d: int


def _proj_add(P, Q, a: int, b3: int, N: int):
    """Complete projective sum on (X, Y, Z) tuples mod N, with b3 = 3b.

    Renes, Costello and Batina, "Complete addition formulas for prime
    order elliptic curves" (EUROCRYPT 2016), Algorithm 1.  Over F_ell it
    returns (0:0:0) only when P - Q has order 2; otherwise its result
    mod ell^2 is primitive.
    """
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    t0, t1, t2 = X1 * X2, Y1 * Y2, Z1 * Z2
    t3 = X1 * Y2 + X2 * Y1
    t4 = X1 * Z2 + X2 * Z1
    t5 = Y1 * Z2 + Y2 * Z1
    u = (a * t4 + b3 * t2) % N
    v = (a * (t0 - a * t2) + b3 * t4) % N
    w = (3 * t0 + a * t2) % N
    s, t = t1 - u, t1 + u
    return (t3 * s - t5 * v) % N, (s * t + w * v) % N, (t5 * t + t3 * w) % N


def _proj_mul(n: int, P, a: int, b3: int, N: int):
    """n*P for n >= 0 by a Montgomery ladder; R1 - R0 = P throughout."""
    R0, R1 = (0, 1, 0), P
    for bit in bin(n)[2:]:
        if bit == "1":
            R0, R1 = _proj_add(R0, R1, a, b3, N), _proj_add(R1, R1, a, b3, N)
        else:
            R0, R1 = _proj_add(R0, R0, a, b3, N), _proj_add(R0, R1, a, b3, N)
    return R0


def _projective_mod(point, place: Place | None, ell: int):
    """A primitive (X, Y, Z) mod ell^2 for a global point at a place over ell.

    QuadInt coordinates embed through the place; rational coordinates
    are scaled by the power of ell in their denominators.
    """
    N = ell * ell
    if point is INFINITY:
        return 0, 1, 0
    x, y = point.x, point.y
    if isinstance(x, QuadInt) or isinstance(y, QuadInt):
        if place is None:
            raise BadInput("quadratic coordinates need a place over ell")
        return embed(x, place, 2), embed(y, place, 2), 1
    for c in (x, y):
        if not isinstance(c, (int, Fraction)):
            raise BadInput(f"cannot localise coordinate {type(c).__name__}")
    x, y = Fraction(x), Fraction(y)
    scale, den = Fraction(1), lcm(x.denominator, y.denominator)
    while den % ell == 0:
        scale, den = scale * ell, den // ell
    return tuple(c.numerator * pow(c.denominator, -1, N) % N
                 for c in (x * scale, y * scale, scale))


def local_class(point, curve: Curve, ell: int, place: Place | None = None,
                d: int | None = None) -> LocalClass:
    """The class of a point of E(Q_ell) in E(Q_ell)/ell as an F_ell value.

    Requires good reduction at ell with reduced order d not divisible
    by ell; d is counted unless the caller already knows it.  d*P lies
    in the kernel of reduction; it is computed exactly in E(Z/ell^2),
    and c = (z/ell) mod ell with z = -X/Y.
    """
    reduced = curve.reduction(ell)  # BadInput unless the model is integral
    if reduced.is_singular():
        raise BadReduction(f"bad reduction at {ell}")
    if d is None:
        d = ec_group_order(reduced)
    if d % ell == 0:
        raise BadReduction(f"ell divides the reduced order {d}")
    N = ell * ell
    a, b3 = curve.a % N, 3 * curve.b % N
    P, n = _projective_mod(point, place, ell), d
    if P[1] % ell == 0 and P[2] % ell:
        # P reduces to a point of order 2, the one ladder difference the
        # complete law does not cover: d is even, and d*P = (d/2)*(2P)
        P, n = _proj_add(P, P, a, b3, N), d // 2
    X, Y, Z = _proj_mul(n, P, a, b3, N)
    if X % ell or Z % ell or Y % ell == 0:
        raise VerificationFailed(f"d*P is not in the kernel of reduction at {ell}")
    return LocalClass((-X * pow(Y, -1, N) % N) // ell, place, d)
