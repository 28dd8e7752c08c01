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

from .arith import is_prime, jacobi, parse_decimal, parse_pair, require_known_keys
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
    hasse_interval,
    local_class,
)
from .quadfield import (
    Place,
    RealQuadField,
    embed,
    labelled_places,
    split_places,
    sqrt_field,
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
    rational, R has coordinates in K = Q(sqrt(D)).  The independence
    certificate is the 2x2 matrix of local classes of Q (row 0) and R
    (row 1) at place_u and place_u_conj (columns 0 and 1); it must be
    invertible, and it is the one source of the classes at u and u'.
    The triviality of the ell-part of the everywhere-locally-trivial
    classes is an assumption flag, never computed.
    """

    p: int
    ell: int
    base_a: int
    base_b: int
    Qt: Point
    Rt: Point
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

    @property
    def base_curve(self) -> Curve:
        return Curve(self.base_a, self.base_b, ("fp", self.p))

    @property
    def lifted_curve(self) -> Curve:
        return Curve(self.a, self.b_r, ("rational",))

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


def _require_prime_order_base(curve: Curve, ell: int):
    order = ec_group_order(curve)
    if order != ell or not is_prime(ell):
        raise BadInput(f"base curve order {order} must equal the prime ell={ell}")


def _reduce_point(point: Point, place: Place) -> Point:
    """Reduction of an integral global point at a degree-1 place."""
    return Point(embed(point.x, place, 1), embed(point.y, place, 1))


def lift_ec_instance(base_a: int, base_b: int, Qt: Point, Rt: Point,
                     p: int, ell: int, seed: int,
                     budget: int = 1000) -> EcSignatureInstance:
    """Lift an ECDL instance to a signature instance over K.

    Q lifts Qt to a rational point by sweeping the y-coordinate through
    v + r*p (which fixes b_r); the sweep rejects curves with bad or
    ell-divisible reduction at ell.  R lifts Rt into E(K) with
    K = Q(sqrt(squarefree kernel of the cubic value)); the sweep keeps
    retrying until ell splits in K and the independence certificate is
    invertible.  Deterministic given (inputs, seed).  budget bounds the
    attempts, each a rejected Q-lift or one R-lift tried on an accepted
    one, and each rejection counts once under its reason.
    """
    base = Curve(base_a % p, base_b % p, ("fp", p))
    _require_prime_order_base(base, ell)
    if Qt is INFINITY or Rt is INFINITY:
        raise BadInput("base points must be nonzero")
    if not base.contains(Qt) or not base.contains(Rt):
        raise BadInput("base points must lie on the base curve")
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
        E = Curve(a, b_r, ("rational",))
        Q = Point(x0, y_lift)
        if E.discriminant() % ell == 0:
            reject("bad_reduction_at_ell")
            continue
        d_ell = ec_group_order(E.reduction(ell))
        if d_ell % ell == 0:
            reject("ell_divides_reduced_order")
            continue
        cQ = local_class(Q, E, ell, d=d_ell).c
        if cQ == 0:
            reject("Q_trivial_at_ell")
            continue
        for r2 in range(min(32, budget - attempts)):
            mu = mu0 + r2 * p
            w = mu**3 + a * mu + b_r
            if w <= 0:
                reject("cubic_value_not_positive")
                continue
            # w = f^2 * D, so when ell does not divide w the symbols of w
            # and D at ell agree: reject before factoring w
            if w % ell and jacobi(w % ell, ell) != 1:
                reject("ell_not_split")
                continue
            K, f = sqrt_field(w)
            if K is None:
                reject("cubic_value_square")
                continue
            D = K.D
            if D % ell == 0 or jacobi(D % ell, ell) != 1:
                reject("ell_not_split")
                continue
            if f % p == 0 or D % p == 0:
                reject("p_label_degenerate")
                continue
            u_places = split_places(ell, K)
            v_places = split_places(p, K)
            if len(v_places) != 2:
                reject("p_not_split")
                continue
            # R = (mu, f*sqrt(D)); v is the place where f*sqrt(D) = nu0
            R = Point(K.element(mu, 0), K.from_sqrt_coords(0, f))
            images = [embed(R.y, w_, 1) for w_ in v_places]
            if nu0 not in images:
                reject("no_v_label")
                continue
            vi = images.index(nu0)
            cR_u = local_class(R, E, ell, place=u_places[0], d=d_ell).c
            cR_uc = local_class(R, E, ell, place=u_places[1], d=d_ell).c
            det = (cQ * cR_uc - cQ * cR_u) % ell
            if det == 0:
                reject("certificate_singular")
                continue
            if cR_uc == 0:
                # relabel so that R generates E(K_u')/ell (the rho choice)
                u_places = [u_places[1], u_places[0]]
                cR_u, cR_uc = cR_uc, cR_u
            certificate = ((cQ % ell, cQ % ell), (cR_u, cR_uc))
            instance = EcSignatureInstance(
                p=p, ell=ell, base_a=base.a, base_b=base.b, Qt=Point(x0, y0),
                Rt=Point(mu0, nu0), a=a, b_r=b_r, Q=Q, R=R, K=K,
                place_u=u_places[0], place_u_conj=u_places[1],
                place_v=v_places[vi], place_v_conj=v_places[1 - vi],
                d_ell=d_ell, certificate=certificate, seed=seed,
            )
            if (_reduce_point(Q, instance.place_v) != instance.Qt
                    or _reduce_point(R, instance.place_v) != instance.Rt):
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
    if cQ_u == 0 or cR_uc == 0:
        raise SingularSystem("reference points fail to generate locally")
    a_uc = cQ_uc * pow(cR_uc, -1, ell) % ell
    b_u = cR_u * pow(cQ_u, -1, ell) % ell
    b_uc = 1
    b_v = ecdl_oracle(instance.Qt, instance.Rt) % ell
    # solve a_v + a_u*X + a_uc*Y = 0, b_v + b_u*X + b_uc*Y = 0
    det = (a_u * b_uc - a_uc * b_u) % ell
    if det == 0:
        raise SingularSystem("independence certificate violated")
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
    if cQ == 0:
        raise SingularSystem("Q is locally trivial at u; instance invalid")
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
    if instance.certificate_det() == 0:
        raise SingularSystem("independence certificate violated")
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

    A prime q whose Hasse interval holds no multiple of ell is skipped
    before its places are split or its curve counted.  So nothing is
    counted, and the scan is empty, whenever bound < (sqrt(ell)-1)^2:
    the Hasse interval keeps ell-torsion away from small residue fields.
    """
    from .arith import primes_up_to

    if not isinstance(curve.a, int) or not isinstance(curve.b, int):
        raise BadInput("scanning needs an integral model")
    disc = abs(curve.discriminant())
    hits: list[tuple[Place, int]] = []
    for q in primes_up_to(bound):
        if q == 2 or q == ell or disc % q == 0:
            continue
        lo, hi = hasse_interval(q)
        if hi // ell * ell < lo:
            continue  # no multiple of ell can be #E(F_q)
        degree_one = [w for w in split_places(q, K) if w.degree == 1 and w.norm <= bound]
        if not degree_one:
            continue
        order = ec_group_order(curve.reduction(q))
        if order % ell == 0:
            hits.extend((w, order) for w in degree_one)
    return hits


# ---------------------------------------------------------------------------
# serialization


EC_INSTANCE_KEYS = ("D", "Q", "R", "a", "b_r", "ell", "p", "seed", "sha_assumption",
                    "u_root_label", "v_root_label")


def ec_instance_to_json(instance: EcSignatureInstance) -> str:
    """Canonical JSON; numbers as decimal strings, flag as a boolean."""
    doc = {
        "p": str(instance.p),
        "ell": str(instance.ell),
        "a": str(instance.a),
        "b_r": str(instance.b_r),
        "Q": [str(instance.Q.x), str(instance.Q.y)],
        "D": str(instance.K.D),
        "R": [[str(instance.R.x.a), str(instance.R.x.b)],
              [str(instance.R.y.a), str(instance.R.y.b)]],
        "v_root_label": str(instance.place_v.root_label),
        "u_root_label": str(instance.place_u.root_label),
        "seed": str(instance.seed),
        "sha_assumption": instance.sha_assumption,
    }
    return json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


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
    _require_prime_order_base(Curve(a % p, b_r % p, ("fp", p)), ell)
    d_ell = ec_group_order(E.reduction(ell))
    cQ = local_class(Q, E, ell, d=d_ell).c
    cR_u = local_class(R, E, ell, place=u, d=d_ell).c
    cR_uc = local_class(R, E, ell, place=u_conj, d=d_ell).c
    instance = EcSignatureInstance(
        p=p, ell=ell, base_a=a % p, base_b=b_r % p, Qt=_reduce_point(Q, v),
        Rt=_reduce_point(R, v), a=a, b_r=b_r, Q=Q, R=R, K=K,
        place_u=u, place_u_conj=u_conj, place_v=v, place_v_conj=v_conj,
        d_ell=d_ell, certificate=((cQ, cQ), (cR_u, cR_uc)),
        seed=parse_decimal(doc["seed"]), sha_assumption=sha_assumption,
    )
    if instance.certificate_det() == 0:
        raise SingularSystem("the independence certificate is singular")
    return instance
