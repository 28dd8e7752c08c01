"""Elliptic-curve signature calculus.

An ECDL instance (base curve of prime order ell over F_p, points Qt,
Rt) is lifted to a curve over Q with Q rational and R defined over a
real quadratic field K in which p and ell split.  The localisation of
the one-dimensional space of degree-ell homogeneous-space classes
ramified at u, u', v is encoded by the pair (alpha, beta) of pairing
ratios, tied to the discrete log by m + n*alpha + beta = 0 mod ell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

from .arith import (
    _primes,
    canonical_json,
    is_prime,
    parse_decimal,
    parse_pair,
    require_known_keys,
)
from .errors import (
    AssumptionViolated,
    BadInput,
    BudgetExhausted,
    SingularSystem,
    VerificationFailed,
)
from .ecurve import (
    Curve,
    INFINITY,
    Point,
    ec_group_order,
    ec_scalar_mul,
    ell_may_divide_order,
    hasse_interval,
    local_class,
)
from .quadfield import (
    Place,
    RealQuadField,
    embed,
    labelled_places,
    lifted_field,
    prime_splitting,
    split_places,
)

__all__ = [
    "EcSignatureInstance",
    "EcSignature",
    "lift_ec_instance",
    "signature_from_ecdl",
    "ecdl_from_signature",
    "coker_dim",
    "scan_torsion_places",
    "ec_instance_to_json",
    "ec_instance_from_json",
]


@dataclass(frozen=True)
class EcSignatureInstance:
    """A lifted homogeneous-space signature instance.

    The lifted curve E: y^2 = x^3 + a x + b_r has integer coefficients,
    good reduction at ell, and reduces to the base curve mod p.  Q is
    rational, R has coordinates in K = Q(sqrt(D)); Qt, Rt are their
    reductions at v.  The independence certificate is the 2x2 matrix of
    local classes of Q (row 0) and R (row 1) at place_u and place_u_conj
    (columns 0 and 1), the one source of the classes at u and u'.
    Constructing an instance, `dataclasses.replace` included, raises
    SingularSystem unless Q's class at u, R's at u' and the determinant
    are nonzero.  The triviality of the ell-part of the
    everywhere-locally-trivial classes is an assumption flag, never
    computed.
    """

    p: int
    ell: int
    a: int
    b_r: int
    Q: Point
    R: Point
    K: RealQuadField
    place_u: Place
    place_u_conj: Place
    place_v: Place
    place_v_conj: Place
    d_ell: int
    certificate: tuple[tuple[int, int], tuple[int, int]]
    seed: int
    sha_assumption: bool = True

    def __post_init__(self):
        (cQ, _), (_, cR_uc) = self.certificate
        if cQ == 0 or cR_uc == 0 or self.certificate_det() == 0:
            raise SingularSystem(f"the independence certificate {self.certificate} "
                                 "is singular or fails to generate locally")

    @property
    def base_curve(self) -> Curve:
        return Curve(self.a % self.p, self.b_r % self.p, ("fp", self.p))

    @cached_property
    def Qt(self) -> Point:
        return _reduce_point(self.Q, self.place_v)

    @cached_property
    def Rt(self) -> Point:
        return _reduce_point(self.R, self.place_v)

    @cached_property
    def lifted_curve(self) -> Curve:
        """E over Q, carrying d_ell so that local_class at ell reads it."""
        return Curve(self.a, self.b_r, ("rational",), known_order=(self.ell, self.d_ell))

    def certificate_det(self) -> int:
        (a11, a12), (a21, a22) = self.certificate
        return (a11 * a22 - a12 * a21) % self.ell


@dataclass(frozen=True)
class EcSignature:
    """The pair (alpha, beta) of local pairing ratios in F_ell.

    alpha is the u-to-v ratio of pairings against Q, beta the u'-to-v
    ratio against R; they satisfy m + n*alpha + beta = 0 for the
    instance's true discrete logs m (at v) and n (at u).
    """

    alpha: int
    beta: int


def _require_prime_order_base(curve: Curve, ell: int, Qt: Point):
    """#E(F_p) = ell for a prime ell, given a nonzero point Qt on the
    curve.  When ell*Qt = O, ell is the order of Qt and divides #E, and
    when 2*ell also exceeds the Hasse bound that multiple is ell itself;
    otherwise the curve is counted."""
    p = curve.base[1]
    if is_prime(ell) and is_prime(p) and not curve.is_singular() \
            and 2 * ell > hasse_interval(p)[1] and ec_scalar_mul(ell, Qt, curve) is INFINITY:
        return
    order = ec_group_order(curve)
    if order != ell or not is_prime(ell):
        raise BadInput(f"base curve order {order} must equal the prime ell={ell}")


def _reduce_point(point: Point, place: Place) -> Point:
    """Reduction of an integral global point at a degree-1 place."""
    return Point(embed(point.x, place, 1), embed(point.y, place, 1))


def _certified_instance(E: Curve, cQ: int, Q: Point, R: Point, K: RealQuadField,
                        u_places, v_places, p: int, seed: int,
                        sha_assumption: bool) -> EcSignatureInstance:
    """The instance on E (which carries #E(F_ell)) with the certificate
    of cQ, the rational Q's class at both places over ell, and R's
    classes at u and u'; SingularSystem when it is not invertible.

    When R = (x, y) has x rational and y in Q*sqrt(D), as every lifted
    R has, conjugation maps R to -R and swaps u and u', so R's class at
    u' is minus its class at u and only that one is computed.
    """
    ell, d_ell = E.known_order
    cR_u = local_class(R, E, ell, place=u_places[0]).c
    if R.x.b == 0 and R.y.trace() == 0:
        cR = (cR_u, -cR_u % ell)
    else:
        cR = (cR_u, local_class(R, E, ell, place=u_places[1]).c)
    return EcSignatureInstance(
        p=p, ell=ell, a=E.a, b_r=E.b, Q=Q, R=R, K=K, place_u=u_places[0],
        place_u_conj=u_places[1], place_v=v_places[0], place_v_conj=v_places[1],
        d_ell=d_ell, certificate=((cQ, cQ), cR), seed=seed, sha_assumption=sha_assumption)


def lift_ec_instance(base_a: int, base_b: int, Qt: Point, Rt: Point,
                     p: int, ell: int, seed: int,
                     budget: int = 1000) -> EcSignatureInstance:
    """Lift an ECDL instance to a signature instance over K.

    Q lifts Qt to a rational point by sweeping the y-coordinate through
    v + r*p (which fixes b_r); the sweep rejects curves with bad or
    ell-divisible reduction at ell.  R lifts Rt into E(K), with K the
    field quadfield.lifted_field takes from the cubic value; the sweep
    keeps retrying until it takes one and the independence certificate
    is invertible.  Deterministic given (inputs, seed).  budget bounds the
    attempts, each a rejected Q-lift or one R-lift tried on an accepted
    one, and each rejection counts once under its reason.
    """
    base = Curve(base_a % p, base_b % p, ("fp", p))
    if Qt is INFINITY or Rt is INFINITY:
        raise BadInput("base points must be nonzero")
    if not base.contains(Qt) or not base.contains(Rt):
        raise BadInput("base points must lie on the base curve")
    _require_prime_order_base(base, ell, Qt)
    x0, y0 = Qt.x % p, Qt.y % p
    mu0, nu0 = Rt.x % p, Rt.y % p
    counters: dict[str, int] = {}
    attempts = 0

    def reject(reason: str) -> None:
        nonlocal attempts
        attempts += 1
        counters[reason] = counters.get(reason, 0) + 1

    a = base_a % p
    for r in range(budget):
        if attempts >= budget:
            break
        y_lift = y0 + r * p
        b_r = y_lift * y_lift - (x0**3 + a * x0)
        reduced = Curve(a % ell, b_r % ell, ("fp", ell))
        Q = Point(x0, y_lift)
        if reduced.is_singular():
            reject("bad_reduction_at_ell")
            continue
        d_ell = ec_group_order(reduced)
        if d_ell % ell == 0:
            reject("ell_divides_reduced_order")
            continue
        E = Curve(a, b_r, ("rational",), known_order=(ell, d_ell))
        cQ = local_class(Q, E, ell).c
        if cQ == 0:
            reject("Q_trivial_at_ell")
            continue
        for r2 in range(min(32, budget - attempts)):
            mu = mu0 + r2 * p
            # w = nu0^2 mod p, and f*sqrt(D) reduces to nu0 at v
            lifted = lifted_field(mu**3 + a * mu + b_r, ell, p, nu0)
            if isinstance(lifted, str):
                reject(lifted)
                continue
            K, f, u_places, v_places = lifted
            # R = (mu, f*sqrt(D)), so cR_u' = -cR_u and det = 0 covers cR_u' = 0
            R = Point(K.element(mu, 0), K.from_sqrt_coords(0, f))
            try:
                instance = _certified_instance(E, cQ, Q, R, K, u_places, v_places, p,
                                               seed, True)
            except SingularSystem:
                reject("certificate_singular")
                continue
            if instance.Qt != (x0, y0) or instance.Rt != (mu0, nu0):
                raise VerificationFailed("lifted points do not reduce to Qt, Rt at v")
            return instance
    raise BudgetExhausted(attempts, counters)


def signature_from_ecdl(instance: EcSignatureInstance, ecdl_oracle) -> EcSignature:
    """The signature pair from an ECDL oracle on the reduction at v.

    With reference points rho_v = rho_u = Q and rho_u' = R, the
    localisation coordinates of Q and R give two independent linear
    relations in (alpha, beta); the oracle supplies the v-coordinate of
    R (its discrete log against Q on the reduced curve).
    """
    ell = instance.ell
    a_v, a_u = 1, 1
    (cQ_u, cQ_uc), (cR_u, cR_uc) = instance.certificate
    a_uc = cQ_uc * pow(cR_uc, -1, ell) % ell
    b_u = cR_u * pow(cQ_u, -1, ell) % ell
    b_uc = 1
    b_v = ecdl_oracle(instance.Qt, instance.Rt) % ell
    # solve a_v + a_u*X + a_uc*Y = 0, b_v + b_u*X + b_uc*Y = 0 (det != 0 by __post_init__)
    det = (a_u * b_uc - a_uc * b_u) % ell
    inv = pow(det, -1, ell)
    alpha = (-(a_v * b_uc - a_uc * b_v)) * inv % ell
    beta = (-(a_u * b_v - b_u * a_v)) * inv % ell
    return EcSignature(alpha=alpha, beta=beta)


def ecdl_from_signature(instance: EcSignatureInstance, sig_oracle) -> int:
    """m with Rt = m*Qt, recovered from a signature oracle.

    n is the ratio of formal-group classes of R and Q at u; the oracle
    supplies (alpha, beta); then m = -n*alpha - beta mod ell, verified
    by scalar multiplication on the base curve before returning.
    """
    ell = instance.ell
    (cQ, _), (cR, _) = instance.certificate
    n = cR * pow(cQ, -1, ell) % ell
    sig = sig_oracle(instance)
    m = (-n * sig.alpha - sig.beta) % ell
    base = instance.base_curve
    if ec_scalar_mul(m, instance.Qt, base) != instance.Rt:
        raise VerificationFailed("recovered m fails Rt = m*Qt on the base curve")
    return m


def _bad_place_proxy_ok(instance: EcSignatureInstance, place: Place) -> bool:
    """Proxy for the vanishing of E(K_w)/ell at a bad place: ell must
    divide neither Nw - 1 nor the discriminant valuation there."""
    ell = instance.ell
    disc = abs(instance.lifted_curve.discriminant())
    v = 0
    while disc % place.q == 0:
        disc //= place.q
        v += 1
    return (place.norm - 1) % ell != 0 and v % ell != 0


def coker_dim(instance: EcSignatureInstance, extra_places=()) -> int:
    """Dimension of coker(E(K)/ell -> sum of local E(K_w)/ell over S).

    S is {u, u'} together with the extra places.  Assumes the recorded
    triviality flag and that (Q, R) generate E(K)/ell.  Good degree-1
    places contribute the local dimension from the reduced group order,
    1 or 0; bad places must pass the vanishing proxy and contribute 0.
    The image is spanned by the coordinates of Q and R, and the
    certificate's columns at u and u' already have rank 2, so the
    cokernel has dimension (contributing places) - 2 and no coordinate
    away from ell is computed.
    """
    if not instance.sha_assumption:
        raise AssumptionViolated("instance built without the triviality flag")
    ell = instance.ell
    contributing = 0
    disc = abs(instance.lifted_curve.discriminant())
    for place in [instance.place_u, instance.place_u_conj, *extra_places]:
        if place.degree != 1:
            raise BadInput("only degree-1 places are supported")
        if disc % place.q == 0:
            if not _bad_place_proxy_ok(instance, place):
                raise AssumptionViolated(
                    f"bad place {place} fails the local-vanishing proxy")
            continue  # contributes the zero group
        if place.q == ell:
            # dimension 1, as ell does not divide d_ell
            if place not in (instance.place_u, instance.place_u_conj):
                raise BadInput(f"{place} is not a place of K over ell")
        elif place.q != instance.p:  # at p the reduced order is exactly ell
            order = ec_group_order(instance.lifted_curve.reduction(place.q))
            if order % (ell * ell) == 0:
                raise BadInput(f"ell^2 divides the reduced order at {place}")
            if order % ell:
                continue  # the local group is zero
        contributing += 1
    return contributing - 2


def scan_torsion_places(curve: Curve, K: RealQuadField, ell: int,
                        bound: int) -> list[tuple[Place, int]]:
    """Degree-1 good-reduction places w of norm <= bound, away from ell,
    where ell divides the reduced group order.

    The scan is empty, and nothing is counted, when
    bound + 1 + isqrt(4*bound) < ell: the Hasse interval of every
    q <= bound then lies below ell.  Otherwise a prime q is skipped
    before its curve is counted when its Hasse interval holds no
    multiple of ell, when q is inert in K, or when a point of E(F_q)
    shows that ell does not divide the order (ell_may_divide_order);
    the places over q are built only at a hit.
    """
    if not isinstance(curve.a, int) or not isinstance(curve.b, int):
        raise BadInput("scanning needs an integral model")
    hits: list[tuple[Place, int]] = []
    if bound + 1 + isqrt(4 * bound) < ell:
        return hits
    disc = abs(curve.discriminant())
    for q in _primes(bound):
        if q == 2 or q == ell or disc % q == 0:
            continue
        lo, hi = hasse_interval(q)
        if hi // ell * ell < lo or prime_splitting(q, K)[0] == "inert":
            continue
        reduced = curve.reduction(q)
        if ell_may_divide_order(reduced, ell):
            order = ec_group_order(reduced)
            if order % ell == 0:
                hits.extend((w, order) for w in split_places(q, K))
    return hits


# ---------------------------------------------------------------------------
# serialization


EC_INSTANCE_KEYS = ("D", "Q", "R", "a", "b_r", "ell", "p", "seed", "sha_assumption",
                    "u_root_label", "v_root_label")


def ec_instance_to_json(instance: EcSignatureInstance) -> str:
    """Canonical JSON; numbers as decimal strings, flag as a boolean."""
    return canonical_json({
        "p": instance.p,
        "ell": instance.ell,
        "a": instance.a,
        "b_r": instance.b_r,
        "Q": [instance.Q.x, instance.Q.y],
        "D": instance.K.D,
        "R": [[instance.R.x.a, instance.R.x.b], [instance.R.y.a, instance.R.y.b]],
        "v_root_label": instance.place_v.root_label,
        "u_root_label": instance.place_u.root_label,
        "seed": instance.seed,
        "sha_assumption": instance.sha_assumption,
    }) + "\n"


def ec_instance_from_json(text: str) -> EcSignatureInstance:
    """Parse an instance file, holding it to the invariants of a lift:
    Q and R on the curve, a base curve of prime order ell, and an
    invertible independence certificate."""
    doc = json.loads(text)
    require_known_keys(doc, EC_INSTANCE_KEYS)
    p, ell = parse_decimal(doc["p"]), parse_decimal(doc["ell"])
    a, b_r = parse_decimal(doc["a"]), parse_decimal(doc["b_r"])
    K = RealQuadField(parse_decimal(doc["D"]))
    Q = Point(*parse_pair(doc["Q"]))
    Rx, Ry = parse_pair(doc["R"], parse_pair)
    R = Point(K.element(*Rx), K.element(*Ry))
    sha_assumption = doc["sha_assumption"]
    if not isinstance(sha_assumption, bool):
        raise BadInput("sha_assumption must be true or false")
    u, u_conj = labelled_places(ell, K, parse_decimal(doc["u_root_label"]))
    v, v_conj = labelled_places(p, K, parse_decimal(doc["v_root_label"]))
    E = Curve(a, b_r, ("rational",))
    if not E.contains(Q) or not Curve(a, b_r, ("quad", K.D)).contains(R):
        raise BadInput("Q and R must lie on y^2 = x^3 + a*x + b_r")
    _require_prime_order_base(Curve(a % p, b_r % p, ("fp", p)), ell, _reduce_point(Q, v))
    E = Curve(a, b_r, ("rational",), known_order=(ell, ec_group_order(E.reduction(ell))))
    return _certified_instance(E, local_class(Q, E, ell).c, Q, R, K, (u, u_conj),
                               (v, v_conj), p, parse_decimal(doc["seed"]), sha_assumption)
