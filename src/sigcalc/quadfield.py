"""Arithmetic of real quadratic fields K = Q(sqrt(D)).

Integers of the maximal order, fundamental units from the continued
fraction of omega, class numbers by exhaustive reduction of indefinite
binary quadratic forms, places and their completions, the place
valuations of a principal ideal, and the F_ell-rank of ray class groups,
with the suite of rows that checks it on seeded fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

from .arith import (
    dlog_mod_ell,
    ell_power_residue_test,
    factorint,
    is_prime,
    jacobi,
    least_primitive_root,
    lift_sqrt,
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
)

__all__ = [
    "RealQuadField",
    "QuadInt",
    "Place",
    "fundamental_unit",
    "class_number",
    "prime_splitting",
    "split_places",
    "labelled_places",
    "lifted_field",
    "split_image",
    "embed",
    "place_valuations",
    "ray_class_ell_rank",
    "rayrank_fields",
    "rayrank_suite",
    "sqrt_field",
]

CLASS_NUMBER_DISC_BOUND = 10**8
# a power of two, at least twice the most rho steps (1,790) that any lift
# of the seed-0 benchmark mixes or of the golden reports needs; it also
# bounds the factorisation of a D read from an instance file
SQRT_FIELD_RHO_STEPS = 1 << 12


def sqrt_field(n: int) -> tuple["RealQuadField | None", int] | None:
    """(K, f) with n = f**2 * D, D squarefree and K = Q(sqrt(D)) =
    Q(sqrt(n)), from one factorisation of n; K is None when n is a square.
    n > 0.  None when the factorisation takes more than
    SQRT_FIELD_RHO_STEPS Brent-rho steps, so that a lift moves on to its
    next value and never stalls."""
    if n <= 0:
        raise BadInput("n must be positive")
    factors = factorint(n, SQRT_FIELD_RHO_STEPS)
    if factors is None:
        return None
    D, f = 1, 1
    for p, e in factors.items():
        f *= p ** (e // 2)
        if e % 2:
            D *= p
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
        factors = factorint(D, SQRT_FIELD_RHO_STEPS)
        if factors is None:
            raise TooLarge(f"D = {D} does not factor in {SQRT_FIELD_RHO_STEPS} rho steps")
        if any(e > 1 for e in factors.values()):
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

    @cached_property
    def fundamental_unit(self) -> "QuadInt":
        return fundamental_unit(self)

    @cached_property
    def unit_norm(self) -> int:
        # (-1)^period of omega's continued fraction, from the quotients
        # alone: the unit itself can run to thousands of digits
        return -1 if sum(1 for _ in _cf_omega(self)) % 2 else 1

    @cached_property
    def class_number(self) -> int:
        return class_number(self)


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
        result, base = QuadInt(self.field, 1, 0), self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def norm(self) -> int:
        if self.field.omega_is_half:
            return self.a * self.a + self.a * self.b \
                - self.b * self.b * (self.field.D - 1) // 4
        return self.a * self.a - self.field.D * self.b * self.b

    def trace(self) -> int:
        return 2 * self.a + (self.b if self.field.omega_is_half else 0)

    def __repr__(self):
        if self.field.omega_is_half:
            return f"({self.a} + {self.b}*(1+sqrt({self.field.D}))/2)"
        return f"({self.a} + {self.b}*sqrt({self.field.D}))"


# ---------------------------------------------------------------------------
# fundamental units


def _cf_omega(K: RealQuadField):
    """Partial quotients a_0, ..., a_(k-1) of omega = (Tr omega + sqrt(D))/2
    over one period of its continued fraction.

    The complete quotients (P + sqrt(D))/Q start at (1, 2) when
    D = 1 mod 4 and at (0, 1) otherwise; from the second on they are
    reduced, and the period ends when Q returns to its start value
    (Cohen, GTM 138, Algorithm 5.7.2).  k is the period length.
    """
    D, s = K.D, isqrt(K.D)
    P, Q = (1, 2) if K.omega_is_half else (0, 1)
    start = Q
    while True:
        a = (P + s) // Q
        yield a
        P = a * Q - P
        Q = (D - P * P) // Q
        if Q == start:
            return


def fundamental_unit(K: RealQuadField) -> QuadInt:
    """Smallest unit > 1 of the maximal order of K.

    With p/q the last convergent of one period of omega's continued
    fraction, the unit is p - q*conj(omega); its norm is (-1)^period.
    """
    p_prev, p = 0, 1
    q_prev, q = 1, 0
    for a in _cf_omega(K):
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    trace_omega = 1 if K.omega_is_half else 0
    return QuadInt(K, p - q * trace_omega, q)


# ---------------------------------------------------------------------------
# class numbers via reduced indefinite forms


def _reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    """The reduced indefinite forms (a, b, c) of discriminant disc with
    a > 0.

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
        lo, hi = (s - b) // 2 + 1, (s + b) // 2
        m = rest = (disc - b * b) // 4
        divisors = [1]
        for q in (2, *odd_primes):
            count, power = len(divisors), 1
            while rest % q == 0:
                rest //= q
                power *= q
                divisors += [d * power for d in divisors[:count]]
        if rest > 1:
            divisors += [d * rest for d in divisors]
        forms += [(a, b, -(m // a)) for a in divisors if lo <= a <= hi]
    return forms


def class_number(K: RealQuadField) -> int:
    """Class number of K by exhaustive form reduction.

    Counts the cycles of the reduced indefinite forms of the field
    discriminant (the narrow class number) and corrects by the
    fundamental unit norm.  The reduction step rho maps (a, b, c) to
    (c, r, (r^2 - disc)/4c) with r = -b mod 2|c| in (s - 2|c|, s],
    s = isqrt(disc); it flips the sign of a, so the forms with a > 0 of
    each rho-cycle make one cycle of rho^2, and only those are walked
    (Cohen, GTM 138, section 5.6).  Restricted to discriminants <= 1e8;
    raises TooLarge beyond.
    """
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
            _, b, c = g  # c < 0, and the form rho gives has a = c, c > 0
            b = s - (s + b) % (-2 * c)
            a = (b * b - disc) // (4 * c)
            b = s - (s + b) % (2 * a)
            g = (a, b, (b * b - disc) // (4 * a))
            if g == f:
                break
            if g not in unseen:  # pragma: no cover - sanity
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


def prime_splitting(q: int, K: RealQuadField) -> tuple[str, tuple[int, ...]]:
    """How the prime q splits in K ("split", "inert" or "ramified"), by
    the Kronecker symbol of the discriminant, with the root labels of
    the two places over a split q, the canonical one first (see Place),
    and none otherwise.  q is not tested for primality."""
    D = K.D
    if q == 2:
        if D % 4 != 1:
            return "ramified", ()
        if D % 8 != 1:
            return "inert", ()
        s = sqrt_2adic(D, 8) % 8
        if s % 4 != 1:
            s = (-s) % 8
        return "split", (s, (-s) % 8)
    if K.discriminant % q == 0:
        return "ramified", ()
    if jacobi(D % q, q) == -1:
        return "inert", ()
    r = sqrt_mod_prime(D % q, q)
    if not 1 <= r <= (q - 1) // 2:
        r = q - r
    return "split", (r, q - r)


def split_places(q: int, K: RealQuadField) -> list[Place]:
    """The places of K above the rational prime q, a split pair ordered
    with the canonically labelled one first."""
    if not is_prime(q):
        raise BadInput(f"{q} is not prime")
    splitting, roots = prime_splitting(q, K)
    return [Place(K.D, q, splitting, root) for root in roots] or [Place(K.D, q, splitting)]


def labelled_places(q: int, K: RealQuadField, root_label: int) -> tuple[Place, Place]:
    """The two split places over q, the one labelled root_label first;
    BadInput when no split place over q carries that label."""
    places = split_places(q, K)
    labels = [w.root_label for w in places]
    if len(places) != 2 or root_label not in labels:
        raise BadInput(f"no split place over {q} has the root label {root_label}")
    return (places[0], places[1]) if labels[0] == root_label else (places[1], places[0])


def lifted_field(w: int, ell: int, p: int, root: int) -> tuple | str:
    """The field K = Q(sqrt(D)) of a lift's value w = f**2 * D, as
    (K, f, (u, u'), (v, v')) with u the canonically labelled place over
    the odd prime ell and v the place over the odd prime p at which
    f*sqrt(D) reduces to root (w = root**2 mod p), or the reason w is
    rejected.  ell's splitting is decided exactly before w is factored:
    with w = ell**(2j) * w' and ell**2 not dividing w', ell ramifies if
    it divides w', and otherwise w' = f'**2 * D with ell dividing
    neither f' nor D, so ell splits exactly when w' is a square mod ell."""
    if w <= 0:
        return "value_not_positive"
    rest, ell2 = w, ell * ell
    while rest % ell2 == 0:
        rest //= ell2
    if jacobi(rest, ell) != 1:
        return "ell_not_split"
    field = sqrt_field(w)
    if field is None:
        return "value_unfactored"
    K, f = field
    if K is None:
        return "value_square"
    if f % p == 0 or K.D % p == 0:
        return "p_degenerate"
    # D = (root/f)**2 mod p is then a nonzero square, so p splits
    u_places, v_places = split_places(ell, K), split_places(p, K)
    if embed(K.from_sqrt_coords(0, f), v_places[0], 1) != root % p:
        v_places.reverse()
    return K, f, tuple(u_places), tuple(v_places)


def split_image(x: QuadInt, q: int, root: int, k: int) -> int:
    """x's image mod q**k at the split place over q with the root label
    root, unchecked: embed's arithmetic for callers that keep no Place."""
    D, mod = x.field.D, q**k
    if q == 2:  # the root of D in Z_2 that is 1 mod 4, or its negative
        s = sqrt_2adic(D, k + 3)
        s = (s if root % 4 == 1 else -s) % (1 << (k + 3))
    else:
        s = lift_sqrt(D, root, q, k)
    if not x.field.omega_is_half:
        omega = s
    elif q == 2:
        omega = (1 + s) // 2
    else:
        omega = (1 + s) * pow(2, -1, mod)
    return (x.a + x.b * omega) % mod


def embed(x, place: Place, k: int) -> int:
    """Image of x in the completion at a degree-1 place: its residue in
    [0, q**k).

    Rational integers embed at every place; a QuadInt with nonzero
    omega-part needs a split place (ramified and inert completions are
    not modelled at finite precision here).
    """
    if k < 1:
        raise BadInput("precision k must be >= 1")
    if isinstance(x, int):
        return x % place.q**k
    if not isinstance(x, QuadInt):
        raise BadInput(f"cannot embed {type(x).__name__}")
    if x.field.D != place.D:
        raise BadInput("element and place belong to different fields")
    if x.b == 0:
        return x.a % place.q**k
    if place.splitting != "split":
        raise Ramified(f"no degree-1 embedding at {place}")
    return split_image(x, place.q, place.root_label, k)


# ---------------------------------------------------------------------------
# ideal factorisation


def place_valuations(x: QuadInt, prime_exponents: dict[int, int]) -> list[tuple[Place, int]]:
    """Distribute the prime factorisation of |N(x)| over places of K, for
    a nonzero x and the exponents of factor_smooth(|N(x)|, B).

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
    return dlog_mod_ell(least_primitive_root(q), residue, q, ell)


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


def rayrank_suite(count: int):
    """Rows of the ray-class rank check on the first `count` fields of
    rayrank_fields([3, 5, 7, 11, 13], count), where u, u' lie over ell
    and v over p: the rank is 1 for the modulus u^2 v and 2 for
    u^2 u'^2 v."""
    for i, (K, ell, p) in enumerate(rayrank_fields([3, 5, 7, 11, 13], count)):
        u, uc = split_places(ell, K)
        v = split_places(p, K)[0]
        rank_one = ray_class_ell_rank(K, ell, [(u, 2), (v, 1)])
        rank_full = ray_class_ell_rank(K, ell, [(u, 2), (uc, 2), (v, 1)])
        yield {"trial": i, "D": K.D, "ell": ell, "p": p,
               "rank_one_place": rank_one, "rank_three_places": rank_full,
               "ok": rank_one == 1 and rank_full == 2}
