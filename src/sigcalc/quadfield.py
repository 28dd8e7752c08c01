"""Arithmetic of real quadratic fields K = Q(sqrt(D)).

Integers of the maximal order, fundamental units by continued
fractions, class numbers by exhaustive reduction of indefinite binary
quadratic forms, places and their completions, principal-ideal
factorisation, and the F_ell-rank of ray class groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

from .arith import (
    bsgs_dlog,
    ell_power_residue_test,
    factorint,
    integer_cbrt,
    is_prime,
    jacobi,
    least_primitive_root,
    lift_sqrt,
    mult_group_ops,
    factor_smooth,
    primes_up_to,
    rank_mod,
    sqrt_2adic,
    sqrt_mod_prime,
    teichmuller,
)
from .errors import (
    BadInput,
    ClassNumberDivisible,
    NotSquarefree,
    Ramified,
    TooLarge,
    ZeroElement,
)

__all__ = [
    "RealQuadField",
    "QuadInt",
    "Place",
    "fundamental_unit",
    "class_number",
    "split_places",
    "labelled_places",
    "embed",
    "factor_principal",
    "ray_class_ell_rank",
    "rayrank_fields",
    "squarefree_kernel",
    "sqrt_field",
]

CLASS_NUMBER_DISC_BOUND = 10**8


def squarefree_kernel(n: int) -> tuple[int, int]:
    """Write n = f**2 * D with D squarefree; returns (D, f). n > 0."""
    if n <= 0:
        raise BadInput("n must be positive")
    d, f = 1, 1
    for p, e in factorint(n).items():
        f *= p ** (e // 2)
        if e % 2:
            d *= p
    return d, f


def sqrt_field(n: int) -> tuple["RealQuadField | None", int]:
    """(K, f) with n = f**2 * D and K = Q(sqrt(D)) = Q(sqrt(n)), from one
    factorisation of n; K is None when n is a square.  n > 0."""
    D, f = squarefree_kernel(n)
    if D == 1:
        return None, f
    K = RealQuadField.__new__(RealQuadField)
    K._set_D(D)  # squarefree by construction: no second factorisation
    return K, f


class RealQuadField:
    """K = Q(sqrt(D)) for squarefree D > 1, with its maximal order.

    The ring of integers is Z[omega] with omega = (1+sqrt(D))/2 when
    D = 1 mod 4 and omega = sqrt(D) otherwise.  Fundamental unit and
    class number are computed on first use and cached; everything after
    construction is read-only.
    """

    def __init__(self, D: int):
        if D <= 1:
            raise BadInput("D must be > 1")
        if any(e > 1 for e in factorint(D).values()):
            raise NotSquarefree(f"{D} is not squarefree")
        self._set_D(D)

    def _set_D(self, D: int) -> None:
        self.D = D
        self.omega_is_half = D % 4 == 1
        self.discriminant = D if self.omega_is_half else 4 * D

    def __repr__(self):
        return f"RealQuadField(D={self.D})"

    def __eq__(self, other):
        return isinstance(other, RealQuadField) and other.D == self.D

    def __hash__(self):
        return hash(("RealQuadField", self.D))

    def element(self, a: int, b: int) -> "QuadInt":
        """The integer a + b*omega."""
        return QuadInt(self, a, b)

    def from_sqrt_coords(self, x: int, y: int) -> "QuadInt":
        """The integer x + y*sqrt(D) (integral for any integer x, y)."""
        if self.omega_is_half:
            return QuadInt(self, x - y, 2 * y)
        return QuadInt(self, x, y)

    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)

    @cached_property
    def fundamental_unit(self) -> "QuadInt":
        return fundamental_unit(self.D, field=self)

    @cached_property
    def unit_norm(self) -> int:
        # parity of the continued-fraction period of sqrt(D); the index-3
        # refinement for D = 1 mod 4 cannot change the sign
        return -1 if _cf_period_length(self.D) % 2 else 1

    @cached_property
    def class_number(self) -> int:
        return class_number(self.D, field=self)


@dataclass(frozen=True)
class QuadInt:
    """Element a + b*omega of the maximal order of K."""

    field: RealQuadField
    a: int
    b: int

    def _require_same_field(self, other: "QuadInt"):
        if self.field != other.field:
            raise BadInput("operands live in different fields")

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._require_same_field(other)
        return QuadInt(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._require_same_field(other)
        return QuadInt(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.field, -self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadInt(self.field, self.a * other, self.b * other)
        self._require_same_field(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if self.field.omega_is_half:
            # omega^2 = omega + (D-1)/4
            c = (self.field.D - 1) // 4
            return QuadInt(self.field, a1 * a2 + b1 * b2 * c,
                           a1 * b2 + a2 * b1 + b1 * b2)
        return QuadInt(self.field, a1 * a2 + b1 * b2 * self.field.D,
                       a1 * b2 + a2 * b1)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QuadInt":
        if k < 0:
            raise BadInput("negative powers are not integral in general")
        result, base = self.field.one(), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "QuadInt":
        if self.field.omega_is_half:
            return QuadInt(self.field, self.a + self.b, -self.b)
        return QuadInt(self.field, self.a, -self.b)

    def norm(self) -> int:
        if self.field.omega_is_half:
            return self.a * self.a + self.a * self.b \
                - self.b * self.b * (self.field.D - 1) // 4
        return self.a * self.a - self.field.D * self.b * self.b

    def trace(self) -> int:
        return 2 * self.a + (self.b if self.field.omega_is_half else 0)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sqrt_coords(self) -> tuple:
        """(x, y) with self = x + y*sqrt(D); halves possible for D=1 mod 4."""
        from fractions import Fraction

        if self.field.omega_is_half:
            return (Fraction(2 * self.a + self.b, 2), Fraction(self.b, 2))
        return (Fraction(self.a), Fraction(self.b))

    def __repr__(self):
        if self.field.omega_is_half:
            return f"({self.a} + {self.b}*(1+sqrt({self.field.D}))/2)"
        return f"({self.a} + {self.b}*sqrt({self.field.D}))"


# ---------------------------------------------------------------------------
# fundamental units


def _cf_sqrt(D: int):
    """Continued fraction digits of sqrt(D) through one full period.

    Yields (a_i, m_i, d_i) for i = 0..k where a_k = 2*a_0 closes the
    period: sqrt(D) = [a_0; a_1, ..., a_k, a_1, ...].
    """
    a0 = isqrt(D)
    m, d, a = 0, 1, a0
    yield a, m, d
    while a != 2 * a0:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        yield a, m, d


def _cf_period_length(D: int) -> int:
    return sum(1 for _ in _cf_sqrt(D)) - 1


def _pell_unit(D: int) -> tuple[int, int, int]:
    """Fundamental unit x + y*sqrt(D) of the order Z[sqrt(D)] with its norm."""
    digits = [a for a, _, _ in _cf_sqrt(D)]
    period = len(digits) - 1
    p_prev, p = 1, digits[0]
    q_prev, q = 0, 1
    for a in digits[1:-1]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return p, q, (-1) ** period


def fundamental_unit(D: int, field: RealQuadField | None = None) -> QuadInt:
    """Smallest unit > 1 of the maximal order of Q(sqrt(D)).

    The continued fraction of sqrt(D) gives the fundamental unit of
    Z[sqrt(D)]; for D = 1 mod 4 the maximal order may be three times
    denser, so an exact cube-root search refines the result.
    """
    K = field if field is not None else RealQuadField(D)
    if K.D != D:
        raise BadInput("field/D mismatch")
    x, y, _ = _pell_unit(D)
    eps = K.from_sqrt_coords(x, y)
    if not K.omega_is_half:
        return eps
    # look for (u + v*sqrt(D))/2 whose cube is eps, i.e. half-integer units;
    # the sqrt(D)-part of the cube is (v^3*D -+ 3v)/2, so v ~ cbrt(2y/D)
    y_est = integer_cbrt(max(2 * y // D, 1))
    for v in range(max(1, y_est - 2), y_est + 4):
        for norm_sign in (1, -1):
            u_sq = v * v * D + 4 * norm_sign
            if u_sq <= 0:
                continue
            u = isqrt(u_sq)
            if u * u != u_sq or (u - v) % 2:
                continue
            candidate = QuadInt(K, (u - v) // 2, v)
            if candidate ** 3 == eps:
                return candidate
    return eps


# ---------------------------------------------------------------------------
# class numbers via reduced indefinite forms


def _reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    """All reduced indefinite forms (a, b, c) of discriminant disc.

    For each b the leading coefficients a are the divisors of
    m = (disc - b^2)/4 in [(s-b)/2 + 1, (s+b)/2], s = isqrt(disc).  An
    odd prime q divides m exactly when b = +-sqrt(disc) mod q, so the
    primes up to sqrt(disc/4) are sieved over b; what they leave of m is
    1 or a single prime.
    """
    s = isqrt(disc)
    b_start = 2 - (disc & 1)
    small: dict[int, list[int]] = {b: [] for b in range(b_start, s + 1, 2)}
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
    forms: list[tuple[int, int, int]] = []
    for b, odd_primes in small.items():
        m = (disc - b * b) // 4
        lo = (s - b) // 2 + 1
        hi = (s + b) // 2
        if hi < lo:
            continue
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
            c = -(m // a)
            forms.append((a, b, c))
            forms.append((-a, b, -c))
    return forms


def _rho(form: tuple[int, int, int], disc: int, s: int) -> tuple[int, int, int]:
    """Reduction step; permutes the reduced forms along their cycles."""
    _, b, c = form
    two_c = 2 * abs(c)
    r = s - (s + b) % two_c
    return (c, r, (r * r - disc) // (4 * c))


def class_number(D: int, field: RealQuadField | None = None) -> int:
    """Class number of Q(sqrt(D)) by exhaustive form reduction.

    Counts cycles of reduced indefinite forms of the field discriminant
    (the narrow class number) and corrects by the fundamental unit norm.
    Restricted to discriminants <= 1e8; raises TooLarge beyond.
    """
    K = field if field is not None else RealQuadField(D)
    disc = K.discriminant
    if disc > CLASS_NUMBER_DISC_BOUND:
        raise TooLarge(f"discriminant {disc} exceeds {CLASS_NUMBER_DISC_BOUND}")
    forms = _reduced_forms(disc)
    s = isqrt(disc)
    unseen = set(forms)
    cycles = 0
    for f in forms:
        if f not in unseen:
            continue
        cycles += 1
        g = f
        while True:
            unseen.discard(g)
            g = _rho(g, disc, s)
            if g == f:
                break
            if g not in unseen and g != f:  # pragma: no cover - sanity
                raise ArithmeticError("form cycle left the reduced set")
    narrow = cycles
    return narrow if K.unit_norm == -1 else narrow // 2


# ---------------------------------------------------------------------------
# places and completions


@dataclass(frozen=True)
class Place:
    """A finite place of K, labelled canonically for reproducibility.

    For split odd q the two places are told apart by the Hensel root of
    D mod q; the first place carries the root in [1, (q-1)/2].  For the
    (rare) split q = 2 the root of D in Z_2 that is 1 mod 4 labels the
    first place and roots are stored mod 8.
    """

    D: int
    q: int
    splitting: str  # "split" | "inert" | "ramified"
    root_label: int | None = None

    @property
    def norm(self) -> int:
        return self.q * self.q if self.splitting == "inert" else self.q

    @property
    def degree(self) -> int:
        return 2 if self.splitting == "inert" else 1

    def __repr__(self):
        tag = f", root={self.root_label}" if self.root_label is not None else ""
        return f"Place(q={self.q}, {self.splitting}{tag} | D={self.D})"


def split_places(q: int, K: RealQuadField) -> list[Place]:
    """The places of K above the rational prime q.

    Splitting is decided by the Kronecker symbol of the discriminant;
    split places come back ordered with the canonically labelled one
    first.
    """
    D = K.D
    if q == 2:
        if D % 4 != 1:
            return [Place(D, 2, "ramified")]
        if D % 8 == 1:
            s = sqrt_2adic(D, 8) % 8
            if s % 4 != 1:
                s = (-s) % 8
            return [Place(D, 2, "split", s), Place(D, 2, "split", (-s) % 8)]
        return [Place(D, 2, "inert")]
    if not is_prime(q):
        raise BadInput(f"{q} is not prime")
    if K.discriminant % q == 0:
        return [Place(D, q, "ramified")]
    symbol = jacobi(D % q, q)
    if symbol == -1:
        return [Place(D, q, "inert")]
    r = sqrt_mod_prime(D % q, q)
    if not 1 <= r <= (q - 1) // 2:
        r = q - r
    return [Place(D, q, "split", r), Place(D, q, "split", q - r)]


def labelled_places(q: int, K: RealQuadField, root_label: int) -> tuple[Place, Place]:
    """The two split places over q, the one labelled root_label first;
    BadInput when no split place over q carries that label."""
    places = split_places(q, K)
    labels = [w.root_label for w in places]
    if len(places) != 2 or root_label not in labels:
        raise BadInput(f"no split place over {q} has the root label {root_label}")
    return (places[0], places[1]) if labels[0] == root_label else (places[1], places[0])


def _sqrtD_image(place: Place, k: int) -> int:
    """The image of sqrt(D) in the completion at a split place, mod q**k."""
    D, q = place.D, place.q
    if q == 2:
        s = sqrt_2adic(D, k + 3)
        if place.root_label % 4 != 1:
            s = -s
        return s % (1 << (k + 3))
    return lift_sqrt(D, place.root_label, q, k)


def embed(x, place: Place, k: int) -> int:
    """Image of x in the completion at a degree-1 place: its residue in
    [0, q**k).

    Rational integers embed at every place; a QuadInt with nonzero
    omega-part needs a split place (ramified and inert completions are
    not modelled at finite precision here).
    """
    if k < 1:
        raise BadInput("precision k must be >= 1")
    q = place.q
    mod = q**k
    if isinstance(x, int):
        return x % mod
    if not isinstance(x, QuadInt):
        raise BadInput(f"cannot embed {type(x).__name__}")
    if x.field.D != place.D:
        raise BadInput("element and place belong to different fields")
    if x.b == 0:
        return x.a % mod
    if place.splitting != "split":
        raise Ramified(f"no degree-1 embedding at {place}")
    s = _sqrtD_image(place, k)
    if not x.field.omega_is_half:
        omega = s
    elif q == 2:
        omega = (1 + s) // 2
    else:
        omega = (1 + s) * pow(2, -1, mod)
    return (x.a + x.b * omega) % mod


# ---------------------------------------------------------------------------
# ideal factorisation


def place_valuations(x: QuadInt, prime_exponents: dict[int, int]) -> list[tuple[Place, int]]:
    """Distribute the prime factorisation of |N(x)| over places of K.

    For split q the share of each conjugate place is read off the
    valuation of the corresponding embedding; inert primes contribute
    half their norm-valuation; ramified primes contribute it in full.
    """
    K = x.field
    out: list[tuple[Place, int]] = []
    for q in sorted(prime_exponents):
        e = prime_exponents[q]
        if e == 0:
            continue
        places = split_places(q, K)
        if places[0].splitting == "ramified":
            out.append((places[0], e))
        elif places[0].splitting == "inert":
            if e % 2:  # pragma: no cover - impossible for true norms
                raise ArithmeticError("odd norm valuation at an inert prime")
            out.append((places[0], e // 2))
        else:
            residue, v1 = embed(x, places[0], e + 1), 0
            while residue and residue % q == 0:  # so v1 <= e
                residue //= q
                v1 += 1
            if v1:
                out.append((places[0], v1))
            if e - v1:
                out.append((places[1], e - v1))
    return out


def factor_principal(x: QuadInt, bound: int) -> list[tuple[Place, int]]:
    """Place-by-place factorisation of the principal ideal (x).

    Requires |N(x)| to be bound-smooth; raises NotSmooth otherwise and
    ZeroElement for x = 0.  Units factor as the empty list.
    """
    if x.is_zero():
        raise ZeroElement("zero has no ideal factorisation")
    n = abs(x.norm())
    return place_valuations(x, factor_smooth(n, bound))


# ---------------------------------------------------------------------------
# ray class ell-rank


def _local_coordinate(x: QuadInt, place: Place, exponent: int, ell: int) -> int:
    """Coordinate of a unit x in the mod-ell quotient of the local unit
    group at a modulus component.

    At a degree-1 place over q = 1 mod ell (exponent 1) this is the
    discrete log of the residue; at a place over ell (exponent 2) it is
    the 1-unit exponent of the Teichmuller decomposition.
    """
    q = place.q
    if exponent == 2:
        return teichmuller(embed(x, place, 2), ell)
    residue = embed(x, place, 1)
    if residue == 0:
        raise BadInput("element is not a unit at a modulus place")
    g = least_primitive_root(q)
    return bsgs_dlog(g, residue, q - 1, **mult_group_ops(q)) % ell


def ray_class_ell_rank(K: RealQuadField, ell: int,
                       modulus: list[tuple[Place, int]]) -> int:
    """F_ell-dimension of the ray class group mod the given modulus.

    Computed as dim (O_K/m)^* (x) F_ell minus the rank of the image of
    the global units <-1, fundamental unit>.  Valid only when ell does
    not divide the class number (checked).  Modulus components must be
    degree-1 places over ell with exponent 2, or over primes q = 1 mod
    ell with exponent 1.
    """
    if K.class_number % ell == 0:
        raise ClassNumberDivisible(f"{ell} divides h = {K.class_number}")
    for place, exponent in modulus:
        if place.degree != 1:
            raise BadInput("modulus places must have degree 1")
        if exponent == 2:
            if place.q != ell:
                raise BadInput("exponent-2 components must lie over ell")
        elif exponent == 1:
            if place.q % ell != 1:
                raise BadInput("exponent-1 components need q = 1 mod ell")
        else:
            raise BadInput("modulus exponents must be 1 or 2")
    if not modulus:
        return 0
    eps = K.fundamental_unit
    minus_one = K.element(-1, 0)
    rows = [
        [_local_coordinate(u, place, exponent, ell) for place, exponent in modulus]
        for u in (minus_one, eps)
    ]
    return len(modulus) - rank_mod(rows, ell)


def rayrank_fields(ell_list, count: int):
    """Deterministic search for fields meeting the one-place rank
    hypotheses: ell splits, ell does not divide h, the fundamental unit
    is wild at both places over ell and a non-ell-th power at a split
    degree-1 place over some p = 1 mod ell."""
    found = []
    for ell in ell_list:
        for D in range(2, 2000):
            if len(found) >= count:
                return found
            if any(e > 1 for e in factorint(D).values()):
                continue
            if D % ell == 0 or jacobi(D % ell, ell) != 1:
                continue
            K = RealQuadField(D)
            if K.class_number % ell == 0:
                continue
            eps = K.fundamental_unit
            u_places = split_places(ell, K)
            ys = [teichmuller(embed(eps, w, 2), ell) for w in u_places]
            if 0 in ys:
                continue
            p = None
            candidate = 2 * ell + 1
            while candidate < 60 * ell:
                if is_prime(candidate) and candidate % ell == 1 \
                        and D % candidate != 0 \
                        and jacobi(D % candidate, candidate) == 1:
                    v = split_places(candidate, K)[0]
                    residue = embed(eps, v, 1)
                    if not ell_power_residue_test(residue, candidate, ell):
                        p = candidate
                        break
                candidate += 2 * ell
            if p is None:
                continue
            found.append((K, ell, p))
    return found
