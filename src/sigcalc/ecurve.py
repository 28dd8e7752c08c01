"""Elliptic curves y^2 = x^3 + ax + b over prime fields, the rationals,
quadratic fields, and ell-adic completions.

Provides the chord-tangent group law over F_q, deterministic point
counting, the one-place cohomology dimension formula with the suite
that checks it against a brute count of E(F_q), and the normalised
formal-group coordinate on the kernel of reduction that turns
E(Q_ell)/ell into explicit F_ell values.

The group law runs over F_q only, as one affine law on plain ints:
internally a point is an (x, y) tuple of residues and None is O, and
the public functions wrap it in Points.  Over Q and Q(sqrt D) a curve
only tests membership, exactly; global points enter arithmetic through
their images mod ell^2 at a place.  #E(F_q) comes from a table of
square-root counts mod q (one bytearray, built in O(q)) up to
ENUMERATION_LIMIT, and from point orders found in the Hasse interval
above it by the batched baby-step giant-step of arith, which
curve_group_ops feeds one modular inversion per batch of additions
(Montgomery's trick) and the x-coordinate as a negation-map key.

The class of a point in E(Q_ell)/ell is read from d*P, d = #E(F_ell),
computed exactly in E(Z/ell^2) on the complete projective formulas of
Renes, Costello and Batina, reduced mod ell^2: with d = 2^v * m, m odd,
v doublings and then a double-and-add by m.  Their addition law fails
over F_ell only on pairs whose difference has order 2, and the chain
adds only within the odd-order subgroup, so every result mod ell^2 is
primitive and no precision is tracked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import islice
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .arith import bsgs_dlog, factorint, is_prime, jacobi, primes_up_to, sqrt_mod_prime
from .errors import (
    BadInput,
    BadReduction,
    NonInvertibleDenominator,
    OutOfScope,
    Singular,
    VerificationFailed,
)
from .quadfield import Place, QuadInt, RealQuadField, embed, split_places

__all__ = [
    "Curve",
    "Point",
    "LocalClass",
    "INFINITY",
    "ec_add",
    "ec_scalar_mul",
    "ec_group_order",
    "ell_may_divide_order",
    "hasse_interval",
    "curve_group_ops",
    "h1_local_dim",
    "lemma1_suite",
    "local_class",
]

INFINITY = None  # the point at infinity

# Point counting switches from the square-root table to BSGS above this
# q; the two paths cost the same near q = 700 (0.14 ms a curve, measured
# on random curves on a 2-vCPU x86-64 VM).
ENUMERATION_LIMIT = 700


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
    curve tests membership only.  known_order, when set, is (q, #E(F_q))
    for one reduction already counted; local_class at ell = q reads it.
    """

    a: object
    b: object
    base: tuple
    known_order: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def discriminant(self):
        return 16 * (4 * self.a**3 + 27 * self.b**2)

    def is_singular(self) -> bool:
        disc = self.discriminant()
        if self.base[0] == "fp":
            return disc % self.base[1] == 0
        return disc == 0

    def contains(self, point) -> bool:
        """y^2 = x^3 + ax + b: mod p over F_p, exactly in Fraction
        arithmetic over Q and in QuadInt arithmetic over K, taken from
        the QuadInt coordinates (BadInput when theirs is not the base's
        D), so that no field is built."""
        if point is INFINITY:
            return True
        x, y, a, b = point.x, point.y, self.a, self.b
        kind = self.base[0]
        if kind == "fp":
            return (y * y - (x * x * x + a * x + b)) % self.base[1] == 0
        if kind == "quad":
            fields = {c.field for c in (x, y, a, b) if isinstance(c, QuadInt)}
            if any(K.D != self.base[1] for K in fields):
                raise BadInput(f"coordinates outside Q(sqrt({self.base[1]}))")
            if fields:
                K = fields.pop()
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
        n >>= 1
        if n:
            P = _fp_add(P, P, a, q)
    return result


def _fp_modulus(curve: Curve) -> int:
    """q for a curve over F_q; the group law runs on no other base."""
    if curve.base[0] != "fp":
        raise BadInput(f"the group law runs over F_q only, not over {curve.base}")
    return curve.base[1]


def ec_add(P, Q, curve: Curve):
    """Chord-tangent sum over F_q, on plain ints; an operand O returns
    the other as given."""
    q = _fp_modulus(curve)
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    R = _fp_add((P.x % q, P.y % q), (Q.x % q, Q.y % q), curve.a, q)
    return INFINITY if R is None else Point(*R)


def ec_scalar_mul(n: int, P, curve: Curve):
    """n*P by double-and-add (negative n through the inverse)."""
    q = _fp_modulus(curve)
    if P is INFINITY:
        return INFINITY
    y = P.y if n >= 0 else -P.y
    R = _fp_mul(abs(n), (P.x % q, y % q), curve.a, q)
    return INFINITY if R is None else Point(*R)


def _fp_shift(points, T, a: int, q: int) -> list:
    """[P + T for P in points] on (x, y) tuples of residues, None for O,
    with one modular inversion for the whole batch (Montgomery's
    simultaneous inversion).  A non-unit denominator raises
    NonInvertibleDenominator."""
    if T is None:
        return list(points)
    x2, y2 = T
    prefix, acc = [], 1  # prefix[i]: the product of the denominators before i
    for P in points:
        prefix.append(acc)
        if P is not None:
            if P[0] != x2:
                acc = acc * (P[0] - x2) % q
            elif (P[1] + y2) % q:
                acc = acc * 2 * P[1] % q
    try:
        inv = pow(acc, -1, q)
    except ValueError:
        raise NonInvertibleDenominator(f"a denominator is not a unit mod {q}") from None
    out = [None] * len(prefix)
    for i in range(len(prefix) - 1, -1, -1):
        P = points[i]
        if P is None:
            out[i] = T
            continue
        x1, y1 = P
        if x1 != x2:
            num, den = y1 - y2, x1 - x2
        elif (y1 + y2) % q:
            num, den = 3 * x1 * x1 + a, 2 * y1
        else:
            continue  # P = -T
        lam = num * inv * prefix[i] % q  # inv holds 1/(den_0 * ... * den_i)
        inv = inv * den % q
        x3 = (lam * lam - x1 - x2) % q
        out[i] = x3, (lam * (x1 - x3) - y1) % q
    return out


def _fp_x(P):
    """The x-coordinate, shared by P and -P alone; None for O."""
    return None if P is None else P[0]


def curve_group_ops(curve: Curve) -> dict:
    """Operation table of E(F_q) for bsgs_dlog, on the int-tuple law,
    with the x-coordinate as the key that enables the negation map.

    Points must be reduced mod q: (x, y) tuples or Points of residues in
    [0, q), and None for O.  Results are plain tuples, equal to the
    Points with the same coordinates.
    """
    q = _fp_modulus(curve)
    return {"identity": INFINITY, "shift": partial(_fp_shift, a=curve.a % q, q=q),
            "invert": partial(_fp_neg, q=q), "key": _fp_x}


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
    """One point (x, y) of E(F_q) for each x on the curve, y <= q/2;
    -P = (x, q - y) is the other point at x when y != 0."""
    for x in range(q):
        f = (x * x * x + a * x + b) % q
        if f == 0:
            yield x, 0
        elif jacobi(f, q) == 1:
            y = sqrt_mod_prime(f, q)
            yield x, min(y, q - y)


def _point_order(P, ops: dict, a: int, q: int, lo: int, hi: int) -> int:
    # least multiple of ord(P) in [lo, hi], then strip prime factors; each
    # multiple n*P sums the doublings 2^i * P over the bits of n, and the
    # doublings are made once for all of them
    doubles = [P]
    for _ in range(hi.bit_length() - 1):
        doubles.append(_fp_add(doubles[-1], doubles[-1], a, q))

    def times(n: int):
        R = None
        for i, D in enumerate(doubles):
            if n >> i & 1:
                R = _fp_add(R, D, a, q)
        return R

    t = lo + bsgs_dlog(P, _fp_neg(times(lo), q), hi - lo + 1, **ops)
    order = t
    for prime in factorint(t):
        while order % prime == 0 and times(order // prime) is None:
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
    ops = curve_group_ops(curve)
    L = 1
    for count, P in enumerate(_first_points(a, b, q)):
        if count >= 40:
            break
        order = _point_order(P, ops, a, q, lo, hi)
        L = L * order // gcd(L, order)
        first = ((lo + L - 1) // L) * L
        if first > hi:  # pragma: no cover - impossible, #E is a multiple
            raise ArithmeticError("no multiple of the point orders in range")
        if first + L > hi:
            return first
    # several multiples of the sampled orders lie in the interval: the
    # group has a large non-cyclic part, which happens at small q
    return _enumerated_order(a, b, q)


def ell_may_divide_order(curve: Curve, ell: int) -> bool:
    """False when ell cannot divide #E(F_q): no multiple of ell lies in
    the Hasse interval, or a point of E(F_q) with y != 0 survives every
    multiple of ell there (#E kills every point).  Up to two such points
    are tried; True when none of them proves it."""
    q = _fp_modulus(curve)
    a, b = curve.a % q, curve.b % q
    lo, hi = hasse_interval(q)
    first = -(-lo // ell) * ell
    if first > hi:
        return False
    for P in islice((P for P in _first_points(a, b, q) if P[1]), 2):
        T = _fp_mul(ell, P, a, q)
        R = _fp_mul(first // ell, T, a, q)  # first*P, then each later multiple
        for _ in range(first, hi + 1, ell):
            if R is None:
                break
            R = _fp_add(R, T, a, q)
        else:
            return False
    return True


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


def _ell_rank(a: int, b: int, q: int, ell: int) -> int:
    """dim E(F_q)/ell, brute force: log_ell of the size of the kernel of
    multiplication by ell, counted over `_first_points`, where each
    point with y != 0 stands for itself and its negative."""
    kernel = 1 + sum(2 if y else 1 for x, y in _first_points(a, b, q)
                     if _fp_mul(ell, (x, y), a, q) is None)
    rank = 0
    while ell**rank < kernel:
        rank += 1
    return rank


def lemma1_suite(curve: Curve, K: RealQuadField, ell: int, bound: int):
    """Rows of the one-place H^1 check for an integral curve over K: at
    the first degree-1 place w over each odd prime q <= bound of good
    reduction, h1_local_dim must equal the brute dimension of
    E(K_w)/ell, the ell-rank of E(F_q), plus the kernel-of-reduction
    line at q = ell.  A prime whose place the formula does not cover
    yields no row."""
    disc = abs(curve.discriminant())
    for q in primes_up_to(bound):
        if q == 2 or disc % q == 0:
            continue
        # the conjugate place has the identical reduction
        w = next((w for w in split_places(q, K) if w.degree == 1), None)
        if w is None:
            continue
        try:
            formula = h1_local_dim(curve, w, ell)
        except OutOfScope:
            continue
        brute = _ell_rank(curve.a % q, curve.b % q, q, ell)
        if q == ell:
            brute += 1
        yield {"q": q, "splitting": w.splitting,
               "root": w.root_label if w.root_label is not None else "",
               "formula": formula, "brute": brute, "ok": formula == brute}


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


def _proj_double(P, a: int, b3: int, N: int):
    """2P on an (X, Y, Z) tuple mod N of a point on the curve, b3 = 3b.

    Renes, Costello and Batina, Algorithm 3: Algorithm 1 at P = Q with
    the curve equation folded into Z.  P - P = O never has order 2, so
    over F_ell no input is an exception.
    """
    X, Y, Z = P
    t0, t1, t2 = X * X, Y * Y, Z * Z
    t3, xz, yz = 2 * X * Y, 2 * X * Z, 2 * Y * Z
    at2 = a * t2
    u = (a * xz + b3 * t2) % N
    v = (a * (t0 - at2) + b3 * xz) % N
    w = (3 * t0 + at2) % N
    s, t = t1 - u, t1 + u
    return (t3 * s - yz * v) % N, (s * t + w * v) % N, 4 * yz * t1 % N


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


def local_class(point, curve: Curve, ell: int, place: Place | None = None) -> LocalClass:
    """The class of a point of E(Q_ell) in E(Q_ell)/ell as an F_ell value.

    Requires good reduction at ell with reduced order d not divisible
    by ell; d is read off the curve's known_order when that holds it
    and counted otherwise.  d*P lies in the kernel of reduction; it is
    computed exactly in E(Z/ell^2), and c = (z/ell) mod ell with
    z = -X/Y.  With d = 2^v * m, m odd, one chain computes it: v
    complete doublings, then a left-to-right double-and-add by m on
    2^v * P, whose reduction has odd order.
    """
    reduced = curve.reduction(ell)  # BadInput unless the model is integral
    if reduced.is_singular():
        raise BadReduction(f"bad reduction at {ell}")
    known = curve.known_order
    d = known[1] if known and known[0] == ell else ec_group_order(reduced)
    if d % ell == 0:
        raise BadReduction(f"ell divides the reduced order {d}")
    N = ell * ell
    a, b3 = curve.a % N, 3 * curve.b % N
    G = _projective_mod(point, place, ell)
    v = (d & -d).bit_length() - 1  # d = 2^v * m with m odd
    for _ in range(v):
        G = _proj_double(G, a, b3, N)
    # G reduces into the odd-order subgroup: R - G = (k - 1)*G never has
    # order 2, so no sum below is an exception of the complete law
    R = G
    for bit in bin(d >> v)[3:]:
        R = _proj_double(R, a, b3, N)
        if bit == "1":
            R = _proj_add(R, G, a, b3, N)
    X, Y, Z = R
    if X % ell or Z % ell or Y % ell == 0:
        raise VerificationFailed(f"d*P is not in the kernel of reduction at {ell}")
    return LocalClass((-X * pow(Y, -1, N) % N) // ell)
