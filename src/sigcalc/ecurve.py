"""Elliptic curves y^2 = x^3 + ax + b over prime fields, the rationals,
quadratic fields, and ell-adic completions.

Provides the chord-tangent group law, deterministic point counting,
the one-place cohomology dimension formula, and the normalised
formal-group coordinate on the kernel of reduction that turns
E(Q_ell)/ell into explicit F_ell values.

Over F_q the group law is one affine law on plain ints: internally a
point is an (x, y) tuple of residues and None is O, and the public
functions wrap it in Points.  The rational and quadratic bases keep an
exact law on Fractions and QuadRats.  #E(F_q) comes from a table of
square-root counts mod q (one bytearray, built in O(q)) up to
ENUMERATION_LIMIT, and from point orders found by baby-step giant-step
in the Hasse interval above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, isqrt

from .arith import bsgs_dlog, factorint, is_prime, jacobi, sqrt_mod_prime
from .errors import (
    BadInput,
    BadReduction,
    NonInvertibleDenominator,
    OutOfScope,
    PrecisionLoss,
    Singular,
)
from .quadfield import Place, QuadInt, embed

__all__ = [
    "Curve",
    "Point",
    "LocalClass",
    "INFINITY",
    "ec_add",
    "ec_neg",
    "ec_scalar_mul",
    "ec_group_order",
    "curve_group_ops",
    "h1_local_dim",
    "local_class",
    "local_point_at_place",
]

INFINITY = None  # the point at infinity

ENUMERATION_LIMIT = 10**4  # point counting switches to BSGS above this
DEFAULT_LOCAL_PRECISION = 4  # work mod ell^4 for formal-group reads


@dataclass(frozen=True)
class Point:
    """Affine point; the point at infinity is the module constant None."""

    x: object
    y: object


@dataclass(frozen=True)
class Curve:
    """y^2 = x^3 + a*x + b over a named base.

    base is ("fp", p), ("rational",) or ("quad", D); coefficients are
    exact (ints, Fractions, or QuadInts for the quadratic case).  The
    scaled discriminant 16(4a^3 + 27b^2) is tracked exactly and must
    not vanish.
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
        if point is INFINITY:
            return True
        if self.base[0] == "fp":
            p = self.base[1]
            return (point.y**2 - (point.x**3 + self.a * point.x + self.b)) % p == 0
        x, y = _coerce(self, point.x), _coerce(self, point.y)
        a, b = _coerce(self, self.a), _coerce(self, self.b)
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


# ---------------------------------------------------------------------------
# exact group law over the rationals and quadratic fields


@dataclass(frozen=True)
class QuadRat:
    """Element x + y*sqrt(D) of K with Fraction coordinates."""

    D: int
    x: Fraction
    y: Fraction

    def __add__(self, o):
        return QuadRat(self.D, self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        return QuadRat(self.D, self.x - o.x, self.y - o.y)

    def __neg__(self):
        return QuadRat(self.D, -self.x, -self.y)

    def __mul__(self, o):
        return QuadRat(self.D, self.x * o.x + self.y * o.y * self.D,
                       self.x * o.y + self.y * o.x)

    def __truediv__(self, o):
        n = o.x * o.x - o.y * o.y * self.D
        return self * QuadRat(self.D, o.x / n, -o.y / n)

    @classmethod
    def from_quadint(cls, z: QuadInt) -> "QuadRat":
        x, y = z.sqrt_coords()
        return cls(z.field.D, x, y)

    @classmethod
    def integer(cls, D: int, n) -> "QuadRat":
        return cls(D, Fraction(n), Fraction(0))


def _coerce(curve: Curve, value):
    """An exact-base coordinate as a Fraction or QuadRat."""
    kind = curve.base[0]
    if kind == "rational":
        return Fraction(value) if isinstance(value, int) else value
    if kind == "quad":
        if isinstance(value, QuadInt):
            return QuadRat.from_quadint(value)
        if isinstance(value, int):
            return QuadRat.integer(curve.base[1], value)
        return value
    raise BadInput(f"unknown base {curve.base}")


def _exact_add(P, Q, curve: Curve):
    x1, y1 = _coerce(curve, P.x), _coerce(curve, P.y)
    x2, y2 = _coerce(curve, Q.x), _coerce(curve, Q.y)
    zero = _coerce(curve, 0)
    if x1 == x2:
        if y1 + y2 == zero:
            return INFINITY
        # tangent: lambda = (3x^2 + a) / (2y)
        num = _coerce(curve, 3) * (x1 * x1) + _coerce(curve, curve.a)
        den = _coerce(curve, 2) * y1
    else:
        num, den = y2 - y1, x2 - x1
    if den == zero:
        raise NonInvertibleDenominator("division by zero")
    lam = num / den
    x3 = lam * lam - x1 - x2
    return Point(x3, lam * (x1 - x3) - y1)


# ---------------------------------------------------------------------------
# public group law


def ec_neg(P, curve: Curve):
    if P is INFINITY:
        return INFINITY
    if curve.base[0] == "fp":
        q = curve.base[1]
        return Point(P.x % q, -P.y % q)
    return Point(_coerce(curve, P.x), -_coerce(curve, P.y))


def ec_add(P, Q, curve: Curve):
    """Chord-tangent sum: int-only over F_q, exact field inversions over
    the rational and quadratic bases."""
    if curve.base[0] == "fp":
        return _fp_point_add(P, Q, curve.a, curve.base[1])
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    return _exact_add(P, Q, curve)


def ec_scalar_mul(n: int, P, curve: Curve):
    """n*P by double-and-add (negative n through the inverse)."""
    if n < 0:
        return ec_scalar_mul(-n, ec_neg(P, curve), curve)
    if curve.base[0] == "fp":
        if P is INFINITY:
            return INFINITY
        q = curve.base[1]
        R = _fp_mul(n, (P.x % q, P.y % q), curve.a, q)
        return INFINITY if R is None else Point(*R)
    result, base = INFINITY, P
    while n:
        if n & 1:
            result = ec_add(result, base, curve)
        base = ec_add(base, base, curve)
        n >>= 1
    return result


def curve_group_ops(curve: Curve) -> dict:
    """Operation table of E(F_q) for bsgs_dlog (points must be Points/None)."""
    if curve.base[0] == "fp":
        op = partial(_fp_point_add, a=curve.a, q=curve.base[1])
    else:
        op = partial(ec_add, curve=curve)
    return {"op": op, "identity": INFINITY, "invert": partial(ec_neg, curve=curve)}


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
    lo = q + 1 - isqrt(4 * q)
    hi = q + 1 + isqrt(4 * q)
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
# ell-adic numbers with explicit valuation tracking


class Loc:
    """ell^val * (unit + O(ell^rel)): a floating ell-adic ball.

    kind "num" carries a unit; "zero" is an unresolved zero known only
    mod ell^val; "exact0" is the true zero.  Division never loses
    digits; subtraction sheds digits on cancellation.
    """

    __slots__ = ("ell", "kind", "val", "unit", "rel")

    def __init__(self, ell, kind, val=0, unit=0, rel=0):
        self.ell = ell
        self.kind = kind
        self.val = val
        self.unit = unit
        self.rel = rel

    @classmethod
    def from_int(cls, n: int, ell: int, prec: int) -> "Loc":
        if n == 0:
            return cls(ell, "exact0")
        v = 0
        while n % ell == 0:
            n //= ell
            v += 1
        return cls(ell, "num", v, n % ell**prec, prec)

    @classmethod
    def zero_ball(cls, ell: int, abs_prec: int) -> "Loc":
        return cls(ell, "zero", abs_prec)

    def is_certain_zero(self) -> bool:
        return self.kind == "exact0"

    def is_unresolved(self) -> bool:
        return self.kind == "zero"

    def __neg__(self):
        if self.kind != "num":
            return self
        return Loc(self.ell, "num", self.val,
                   (-self.unit) % self.ell**self.rel, self.rel)

    def __add__(self, other: "Loc") -> "Loc":
        ell = self.ell
        if self.kind == "exact0":
            return other
        if other.kind == "exact0":
            return self
        if self.kind == "zero" and other.kind == "zero":
            return Loc.zero_ball(ell, min(self.val, other.val))
        if self.kind == "zero" or other.kind == "zero":
            ball, num = (self, other) if self.kind == "zero" else (other, self)
            if num.val >= ball.val:
                return Loc.zero_ball(ell, ball.val)
            return Loc(ell, "num", num.val, num.unit % ell**min(num.rel, ball.val - num.val),
                       min(num.rel, ball.val - num.val))
        lo, hi = (self, other) if self.val <= other.val else (other, self)
        delta = hi.val - lo.val
        if delta >= lo.rel:
            return lo
        rel = min(lo.rel, hi.rel + delta)
        mod = ell**rel
        t = (lo.unit + hi.unit * ell**delta) % mod
        if t == 0:
            return Loc.zero_ball(ell, lo.val + rel)
        e = 0
        while t % ell == 0:
            t //= ell
            e += 1
        return Loc(ell, "num", lo.val + e, t % ell ** (rel - e), rel - e)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "Loc") -> "Loc":
        ell = self.ell
        if self.kind == "exact0" or other.kind == "exact0":
            return Loc(ell, "exact0")
        if self.kind == "zero" or other.kind == "zero":
            if self.kind == "zero" and other.kind == "zero":
                return Loc.zero_ball(ell, self.val + other.val)
            ball, num = (self, other) if self.kind == "zero" else (other, self)
            return Loc.zero_ball(ell, ball.val + num.val)
        rel = min(self.rel, other.rel)
        return Loc(ell, "num", self.val + other.val,
                   self.unit * other.unit % ell**rel, rel)

    def inverse(self) -> "Loc":
        if self.kind != "num":
            raise NonInvertibleDenominator("cannot invert an (apparent) zero")
        return Loc(self.ell, "num", -self.val,
                   pow(self.unit, -1, self.ell**self.rel), self.rel)

    def __truediv__(self, other):
        return self * other.inverse()

    def valuation(self) -> int:
        if self.kind != "num":
            raise PrecisionLoss("valuation of an unresolved zero")
        return self.val

    def __repr__(self):  # pragma: no cover - debug helper
        if self.kind == "num":
            return f"Loc({self.ell}^{self.val} * {self.unit} + O({self.ell}^{self.val + self.rel}))"
        return f"Loc({self.kind}, O({self.ell}^{self.val}))"


def _local_add(P, Q, a_loc: Loc, ell: int):
    """Group law on affine local points (pairs of Loc) or None for O."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    dx = x2 - x1
    if dx.kind == "num":
        lam = (y2 - y1) / dx
    else:
        sy = y1 + y2
        if sy.kind != "num":
            return None  # inverse points (or beyond precision: consistent)
        if y1.kind != "num":
            raise PrecisionLoss("tangent slope with unresolved y")
        three = Loc.from_int(3, ell, y1.rel)
        two = Loc.from_int(2, ell, y1.rel)
        lam = (three * x1 * x1 + a_loc) / (two * y1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


def _local_scalar_mul(n: int, P, a_loc: Loc, ell: int):
    result, base = None, P
    while n:
        if n & 1:
            result = _local_add(result, base, a_loc, ell)
        base = _local_add(base, base, a_loc, ell)
        n >>= 1
    return result


def local_point_at_place(point, place: Place | None, ell: int, prec: int):
    """Affine local coordinates of a global point as Loc values.

    Rational coordinates embed directly; QuadInt coordinates embed
    through the given split place over ell.
    """
    if point is INFINITY:
        return None
    coords = []
    for c in (point.x, point.y):
        if isinstance(c, int):
            coords.append(Loc.from_int(c, ell, prec))
        elif isinstance(c, Fraction):
            num = Loc.from_int(c.numerator, ell, prec)
            den = Loc.from_int(c.denominator, ell, prec)
            coords.append(num / den)
        elif isinstance(c, QuadInt):
            if place is None:
                raise BadInput("quadratic coordinates need a place over ell")
            approx = embed(c, place, prec)
            coords.append(Loc.from_int(approx.value, ell, prec)
                          if approx.value else Loc.zero_ball(ell, prec))
        else:
            raise BadInput(f"cannot localise coordinate {type(c).__name__}")
    return tuple(coords)


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


def _formal_read(dP, ell: int) -> int:
    """(z/ell) mod ell for a kernel-of-reduction point, or 0 deep down."""
    if dP is None:
        return 0
    x, y = dP
    if x.kind != "num" or y.kind != "num":
        raise PrecisionLoss("kernel point unresolved at this precision")
    z = -(x / y)
    v = z.valuation()
    if v < 1:
        raise PrecisionLoss("point did not land in the kernel of reduction")
    if v >= 2:
        return 0
    if z.rel < 1:
        raise PrecisionLoss("one digit of z/ell is not resolved")
    return z.unit % ell


def local_class(point, curve: Curve, ell: int, place: Place | None = None,
                prec: int = DEFAULT_LOCAL_PRECISION) -> LocalClass:
    """The class of a point of E(Q_ell) in E(Q_ell)/ell as an F_ell value.

    Requires good reduction at ell with reduced order d not divisible
    by ell.  Retries once at doubled precision on precision loss.
    """
    if not isinstance(curve.a, int) or not isinstance(curve.b, int):
        raise BadInput("local classes need an integral model")
    reduced = curve.reduction(ell)
    if reduced.is_singular():
        raise BadReduction(f"bad reduction at {ell}")
    d = ec_group_order(reduced)
    if d % ell == 0:
        raise BadReduction(f"ell divides the reduced order {d}")
    for attempt_prec in (prec, 2 * prec):
        try:
            a_loc = Loc.from_int(curve.a, ell, attempt_prec)
            P_loc = local_point_at_place(point, place, ell, attempt_prec)
            dP = _local_scalar_mul(d, P_loc, a_loc, ell)
            return LocalClass(_formal_read(dP, ell), place, d)
        except PrecisionLoss:
            continue
    raise PrecisionLoss(f"local class unresolved at precision {2 * prec}")
