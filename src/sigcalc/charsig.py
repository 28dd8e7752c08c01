"""Multiplicative signature calculus.

A discrete-log target a = g^m in F_p^* is lifted to a norm -1 unit
alpha of a real quadratic field in which p and ell split.  The cyclic
degree-ell extension ramified exactly at one place u over ell and one
place v over p pairs with alpha to give y*sigma_u + m*sigma_v = 0,
where y is the 1-unit exponent of alpha at u.  The ramification
signature s = sigma_u / sigma_v is therefore interchangeable with m,
and can also be computed by an index calculus over the field's places.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .arith import (
    Eliminator,
    canonical_json,
    ell_power_residue_test,
    factor_smooth,
    gauss_reduce,
    is_prime,
    least_primitive_root,
    multiplicative_order,
    parse_decimal,
    parse_pair,
    primes_up_to,
    require_known_keys,
    smooth_cofactor,
    teichmuller,
)
from .errors import (
    BadInput,
    BudgetExhausted,
    ConditionFailure,
    DegenerateTarget,
    OracleInconsistent,
    TooLarge,
    VerificationFailed,
)
from .indexcalc import Relation
from .quadfield import (
    Place,
    QuadInt,
    RealQuadField,
    embed,
    labelled_places,
    lifted_field,
    prime_splitting,
    split_image,
)
from .seeds import rng_for

__all__ = [
    "ConditionReport",
    "CharSignatureInstance",
    "CharSignature",
    "check_conditions",
    "lift_unit",
    "signature_from_dl",
    "dl_from_signature",
    "signature_index_calculus",
    "instance_to_json",
    "instance_from_json",
]

SIGNATURE_COLUMN = "s"


def pairing_column(q: int, splitting: str, root: int | None = None) -> str:
    """The column of the pairing value at the place over q with this
    splitting and, for a split place, root label."""
    return f"x({q},{splitting[0]}{'' if root is None else root})"


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition booleans for a lifted instance.

    class_number_ok      : ell does not divide h_K (None when h_K is
                           beyond the exhaustive bound and unknown)
    unit_wild_at         : per ell-place, 1-unit exponent of alpha nonzero
    target_not_ell_power : residue of alpha at v is not an ell-th power
    """

    class_number_ok: bool | None
    unit_wild_at: tuple[tuple[int, bool], ...]
    target_not_ell_power: bool

    @property
    def unit_wild_everywhere(self) -> bool:
        return all(ok for _, ok in self.unit_wild_at)

    @property
    def all_ok(self) -> bool:
        return self.class_number_ok is True and self.unit_wild_everywhere \
            and self.target_not_ell_power

    def as_dict(self) -> dict:
        return {
            "class_number_ok": self.class_number_ok,
            "unit_wild_at": {str(root): ok for root, ok in self.unit_wild_at},
            "target_not_ell_power": self.target_not_ell_power,
        }


@dataclass(frozen=True)
class CharSignatureInstance:
    """A signature computation instance over K = Q(sqrt(D)).

    Places u, u' lie over ell (u is the canonically labelled first one)
    and v, v' over p, with v the place where alpha reduces to the
    original target a.  alpha is a unit with N(alpha) = -1.  An instance
    exists only when it passes its condition report: constructing one
    that fails it, by `dataclasses.replace` too, raises ConditionFailure.
    """

    K: RealQuadField
    p: int
    ell: int
    g: int
    a: int
    alpha: QuadInt
    place_u: Place
    place_u_conj: Place
    place_v: Place
    place_v_conj: Place
    seed: int

    def __post_init__(self):
        if not self.condition_report.all_ok:
            raise ConditionFailure(self.condition_report)

    @cached_property
    def condition_report(self) -> ConditionReport:
        """check_conditions(self), run once, on construction."""
        return check_conditions(self)

    def residue_at_v(self) -> int:
        return embed(self.alpha, self.place_v, 1)


@dataclass(frozen=True)
class CharSignature:
    """Ramification signature s = sigma_u * sigma_v^-1 in F_ell, nonzero.

    The auxiliaries (m, y) are the discrete log and 1-unit exponent used
    on the dl-oracle derivation path; None when solved by index calculus.
    """

    s: int
    m: int | None = None
    y: int | None = None


def _unit_y(instance: CharSignatureInstance, place: Place) -> int:
    return teichmuller(embed(instance.alpha, place, 2), instance.ell)


def check_conditions(instance: CharSignatureInstance) -> ConditionReport:
    """Evaluate the three instance conditions; reports, never raises.

    (1) ell does not divide h_K; (2) the 1-unit exponent of alpha is
    nonzero at each place over ell (equivalent to alpha^(ell-1) != 1 mod
    the square of the place); (3) the residue of alpha at v is not an
    ell-th power.
    """
    ell = instance.ell
    try:
        class_ok = instance.K.class_number % ell != 0
    except TooLarge:
        class_ok = None
    wild = tuple(
        (w.root_label, _unit_y(instance, w) != 0)
        for w in (instance.place_u, instance.place_u_conj)
    )
    residue = instance.residue_at_v()
    not_power = not ell_power_residue_test(residue, instance.p, ell)
    return ConditionReport(class_ok, wild, not_power)


def _validate_generator(g: int, p: int):
    if multiplicative_order(g, p) != p - 1:
        raise BadInput(f"{g} does not generate F_{p}^*")


def _validate_primes(p: int, ell: int):
    if not is_prime(p) or not is_prime(ell) or ell == 2 or p == 2:
        raise BadInput("p and ell must be odd primes")
    if (p - 1) % ell != 0:
        raise BadInput(f"{ell} must divide p - 1")


def lift_unit(a: int, p: int, ell: int, seed: int, g: int | None = None,
              budget: int = 64) -> CharSignatureInstance:
    """Lift the target a to a norm -1 unit of a real quadratic field.

    With b = a^-1, c = (a+b)/2, d = (a-b)/2 mod p, the element
    alpha = gamma + d with gamma^2 = 1 + d^2 has norm -1 and reduces to
    a at the place v where gamma = c.  d sweeps d, d+p, d+2p, ... until
    quadfield.lifted_field takes the field of 1 + d^2 (ell and p split
    in it) and the field passes every instance condition.
    """
    _validate_primes(p, ell)
    a %= p
    if a in (1, p - 1):
        raise DegenerateTarget("a = +-1; m is (p-1)/2 or p-1 directly")
    if a == 0:
        raise BadInput("a must be a unit mod p")
    if pow(a, (p - 1) // ell, p) == 1:
        raise BadInput("a is an ell-th power residue; its log is 0 mod ell")
    if g is None:
        g = least_primitive_root(p)
    else:
        g %= p
        _validate_generator(g, p)
    inv2 = pow(2, -1, p)
    b = pow(a, -1, p)
    c = (a + b) * inv2 % p
    d0 = (a - b) * inv2 % p
    counters: dict[str, int] = {}

    def reject(reason: str):
        counters[reason] = counters.get(reason, 0) + 1

    for r in range(budget):
        d = d0 + r * p
        # 1 + d^2 = c^2 mod p, and gamma = f*sqrt(D) reduces to c at v
        lifted = lifted_field(1 + d * d, ell, p, c)
        if isinstance(lifted, str):
            reject(lifted)
            continue
        K, f, (u, u_conj), (v, v_conj) = lifted
        alpha = K.from_sqrt_coords(d, f)
        try:
            instance = CharSignatureInstance(
                K=K, p=p, ell=ell, g=g, a=a, alpha=alpha, place_u=u,
                place_u_conj=u_conj, place_v=v, place_v_conj=v_conj, seed=seed,
            )
        except ConditionFailure as exc:
            # one count per attempt, under the first condition that fails
            failed = next(name for name, ok in (
                ("class_number_unknown", exc.report.class_number_ok is not None),
                ("class_number", exc.report.class_number_ok),
                ("unit_wild", exc.report.unit_wild_everywhere),
                ("target_power", exc.report.target_not_ell_power)) if not ok)
            reject(f"condition_{failed}")
            continue
        if alpha.norm() != -1 or instance.residue_at_v() != a:
            raise VerificationFailed("lifted unit fails N(alpha) = -1 or alpha = a at v")
        return instance
    raise BudgetExhausted(budget, counters)


def signature_from_dl(instance: CharSignatureInstance, dl_oracle) -> CharSignature:
    """Ramification signature from a discrete-log oracle.

    The oracle is called as dl_oracle(g, a) and may return any m with
    m = log_g(a) mod ell; it is verified against a^e = g^(e*m), e =
    (p-1)/ell, before use.  With y != 0 the 1-unit exponent of alpha at
    u (condition 2), the relation y*sigma_u + m*sigma_v = 0 gives
    s = -m * y^-1 mod ell.
    """
    p, ell = instance.p, instance.ell
    a_v, e = instance.residue_at_v(), (p - 1) // ell
    m = dl_oracle(instance.g, a_v)
    if pow(a_v, e, p) != pow(instance.g, e * m, p):
        raise OracleInconsistent(f"{m} is not log_g(alpha mod v) mod {ell}")
    m %= ell
    y = _unit_y(instance, instance.place_u)
    s = (-m * pow(y, -1, ell)) % ell
    if s == 0:
        raise VerificationFailed("signature must be nonzero")
    return CharSignature(s=s, m=m, y=y)


def dl_from_signature(a: int, g: int, p: int, ell: int, sig_oracle,
                      seed: int = 0) -> int:
    """m mod ell with a = g^m, from a signature oracle.

    Targets that are ell-th powers answer 0 without the oracle, once p,
    ell and g are checked.  The oracle receives the lifted instance and
    returns a CharSignature; m = -y*s is verified against the
    power-residue identity.
    """
    _validate_primes(p, ell)
    _validate_generator(g % p, p)
    a %= p
    if a == 0:
        raise BadInput("a must be a unit mod p")
    e = (p - 1) // ell
    if pow(a, e, p) == 1:
        return 0
    instance = lift_unit(a, p, ell, seed, g=g)
    y = _unit_y(instance, instance.place_u)
    m = (-y * sig_oracle(instance).s) % ell
    if pow(a, e, p) != pow(g, e * m, p):
        raise VerificationFailed("recovered m fails the power-residue check")
    return m


def _nearest(n: int, d: int) -> int:
    """The integer nearest n/d (halves round up), exactly."""
    if d < 0:
        n, d = -n, -d
    return (2 * n + d) // (2 * d)


def _place_table(K: RealQuadField, bound: int, skip: tuple[int, ...]) -> dict:
    """The places over each prime q <= bound not in skip (a search skips
    ell and p, whose parts of the norm go to u' and v'), keyed by q and
    read in one pass: (column, degree) for the one place over an inert
    or ramified q, with column None when its norm q^degree exceeds
    bound, and (column, conjugate column, omega mod the first place) for
    a split q."""
    omega = K.element(0, 1)
    table: dict = {}
    for q in primes_up_to(bound):
        if q in skip:
            continue
        splitting, roots = prime_splitting(q, K)
        if roots:
            table[q] = (pairing_column(q, splitting, roots[0]),
                        pairing_column(q, splitting, roots[1]),
                        split_image(omega, q, roots[0], 1))
        else:
            degree = 2 if splitting == "inert" else 1
            table[q] = (pairing_column(q, splitting) if q**degree <= bound else None, degree)
    return table


@dataclass(frozen=True)
class _BetaSearch:
    """Candidates beta = r*alpha + s for one signature search.

    beta = g at v says r*a_v + s = g mod p, which holds exactly on a
    coset of the determinant-p lattice L = {(r, s) : r*a_v + s = 0 mod p}.
    Both vectors of a Gauss-reduced basis b1, b2 of L are about sqrt(p)
    long, so attempt i takes (r, s) = center + a*b1 + b*b2 for the i-th
    point (a, b) of the square shells of Z^2: on shell k, |r| and |s|
    are about k*sqrt(p) and |N(beta)| = |s^2 + Tr(alpha)*r*s +
    N(alpha)*r^2| about Tr(alpha)*k^2*p (Pollard's lattice sieve on the
    norm form).  center is the coset point that rounding (0, g) to L
    leaves, and the key, drawn once from the seed, rotates each shell.

    `start` maps center, b1 and b2 once to beta's coordinates, beta =
    x0 + x1*omega with (x0, x1) = (r*a0 + s, r*a1) for alpha = a0 +
    a1*omega, so the walk yields (x0, x1) and `read` takes any beta of
    O_K, with no alpha in it.
    """

    center: tuple[int, int]
    b1: tuple[int, int]
    b2: tuple[int, int]
    key: int
    read: Callable[[int, int], Relation | str]

    @classmethod
    def start(cls, instance: CharSignatureInstance, bound: int, seed: int) -> "_BetaSearch":
        p, ell, g, K = instance.p, instance.ell, instance.g, instance.K
        table = _place_table(K, bound, (ell, p))
        u_column = pairing_column(ell, "split", instance.place_u_conj.root_label)
        v_column = pairing_column(p, "split", instance.place_v_conj.root_label)
        omega = K.element(0, 1)
        omega_u2, ell2 = embed(omega, instance.place_u, 2), ell * ell
        omega_trace, omega_norm, make = omega.trace(), omega.norm(), Relation.make

        def read(x0: int, x1: int) -> Relation | str:
            """The relation of beta = x0 + x1*omega, or the reason for
            rejecting it.

            beta is kept a unit at u and accepted when its norm factors
            over the base places together with the dedicated conjugate
            columns.  Everything is read in plain integers: the norm
            from omega's norm form, beta's image at u from omega's mod
            ell^2, and its share at the places over a split q from
            omega's residue at the first place, so no element of K is
            built.
            """
            beta_u = (x0 + x1 * omega_u2) % ell2
            if beta_u % ell == 0:
                return "not_unit_at_u"
            # beta is a unit at u, so beta != 0 and so is its norm
            norm = abs(x0 * x0 + omega_trace * x0 * x1 + omega_norm * x1 * x1)
            e_ell = 0
            while norm % ell == 0:
                norm //= ell
                e_ell += 1
            e_p = 0
            while norm % p == 0:
                norm //= p
                e_p += 1
            if smooth_cofactor(norm, bound) > 1:
                return "not_smooth"
            coeffs = {SIGNATURE_COLUMN: teichmuller(beta_u, ell)}
            for q, e in factor_smooth(norm, bound).items():
                entry = table[q]
                if len(entry) == 2:  # the one place over q has norm q^degree
                    column, degree = entry
                    if column is None:
                        return "outside_base"  # support at an inert place > sqrt(B)
                    coeffs[column] = e // degree
                    continue
                column, conj_column, omega_w = entry
                # q^c | beta in O_K = Z[omega] gives both places q^c; the
                # rest of q^e goes to the one place at which beta/q^c is
                # 0 mod q (the degree-one prime rule)
                y0, y1, c = x0, x1, 0
                while y0 % q == 0 and y1 % q == 0:
                    y0, y1, c = y0 // q, y1 // q, c + 1
                v = e - c if (y0 + y1 * omega_w) % q == 0 else c
                if v:
                    coeffs[column] = v
                if v < e:
                    coeffs[conj_column] = e - v
            if e_ell:
                coeffs[u_column] = e_ell
            if e_p:
                coeffs[v_column] = e_p
            return make(coeffs, -1, ell)

        b1, b2 = gauss_reduce((1, -instance.residue_at_v() % p), (0, p))
        det = b1[0] * b2[1] - b1[1] * b2[0]
        c1, c2 = _nearest(-g * b2[0], det), _nearest(g * b1[0], det)
        center = (-c1 * b1[0] - c2 * b2[0], g - c1 * b1[1] - c2 * b2[1])
        a0, a1 = instance.alpha.a, instance.alpha.b
        center, b1, b2 = ((r * a0 + s, r * a1) for r, s in (center, b1, b2))
        return cls(center, b1, b2, key=rng_for(seed, "beta").getrandbits(64), read=read)

    def walk(self):
        """The coordinates (x0, x1) = center + a*b1 + b*b2, each with
        beta = x0 + x1*omega = g at v, for the points (a, b) of Z^2
        shell by shell: shell k holds the 8k points with max(|a|, |b|) =
        k, and runs round its square's boundary as a closed loop, each
        step adding +-b1 or +-b2 to (x0, x1).  Side 0 runs from (k, -k)
        towards (k, k) and the others follow counter-clockwise; the loop
        starts at point t of side `side`, with side, t = divmod(key %
        8k, 2k)."""
        (c0, c1), (u0, u1), (w0, w1) = self.center, self.b1, self.b2
        # the direction of each side of a shell, counter-clockwise
        steps = ((w0, w1), (-u0, -u1), (-w0, -w1), (u0, u1))
        yield self.center
        k = 1
        while True:
            side, t = divmod(self.key % (8 * k), 2 * k)
            a, b = ((k, t - k), (k - t, k), (-k, k - t), (t - k, -k))[side]
            x0, x1 = c0 + a * u0 + b * w0, c1 + a * u1 + b * w1
            for d, run in ((side, 2 * k - t), (side + 1, 2 * k), (side + 2, 2 * k),
                           (side + 3, 2 * k), (side, t)):
                d0, d1 = steps[d % 4]
                for _ in range(run):
                    yield x0, x1
                    x0 += d0
                    x1 += d1
            k += 1


def signature_index_calculus(instance: CharSignatureInstance, bound: int,
                             seed: int, max_attempts: int = 500_000,
                             counters: dict | None = None) -> CharSignature:
    """Ramification signature by relation collection over field places.

    Candidates beta = r*alpha + s with beta = g at v and beta a local
    unit at u (`_BetaSearch`) satisfy 1 + y_beta*s + sum_w e_w*x_w = 0
    over F_ell, where the x_w are the (unknown, normalised) unramified
    pairing values at the base places and at the dedicated conjugate
    places u', v'.  Each new relation goes to one incremental
    eliminator, and the search returns at the first relation that pins
    the signature unknown s.  It keeps one counter per outcome, summing
    to the attempts made: a rejection reason, "duplicate" or
    "accepted".  They are written into `counters` when one is given,
    and carried by the BudgetExhausted raised after max_attempts
    attempts.
    """
    if bound < 2:
        raise BadInput("bound must be >= 2")
    search = _BetaSearch.start(instance, bound, seed)
    system = Eliminator(instance.ell)
    seen: set = set()
    if counters is None:
        counters = {}
    counters.update({"not_unit_at_u": 0, "not_smooth": 0, "outside_base": 0,
                     "duplicate": 0, "accepted": 0})
    read = search.read
    for x0, x1 in islice(search.walk(), max_attempts):
        rel = read(x0, x1)
        if isinstance(rel, str):
            counters[rel] += 1
            continue
        if rel.coeffs in seen:
            counters["duplicate"] += 1
            continue
        seen.add(rel.coeffs)
        counters["accepted"] += 1
        system.add([(rel.coeffs, rel.const)])
        if system.determined(SIGNATURE_COLUMN):
            s = system.consts[SIGNATURE_COLUMN]
            if s == 0:
                raise VerificationFailed("signature must be nonzero")
            return CharSignature(s=s)
    raise BudgetExhausted(max_attempts, counters)


# ---------------------------------------------------------------------------
# serialization


INSTANCE_KEYS = ("D", "a", "alpha", "ell", "g", "p", "seed", "u_root_label", "v_root_label")


def instance_to_json(instance: CharSignatureInstance) -> str:
    """Canonical JSON for an instance; numbers as decimal strings."""
    return canonical_json({
        "p": instance.p,
        "ell": instance.ell,
        "g": instance.g,
        "a": instance.a,
        "D": instance.K.D,
        "alpha": [instance.alpha.a, instance.alpha.b],
        "v_root_label": instance.place_v.root_label,
        "u_root_label": instance.place_u.root_label,
        "seed": instance.seed,
    }) + "\n"


def instance_from_json(text: str) -> CharSignatureInstance:
    """Parse an instance file, holding it to the invariants of a lift:
    a and g are residues in (0, p), g generates F_p^*, N(alpha) = -1 and
    alpha reduces to a at v (all BadInput), and the instance passes its
    conditions (ConditionFailure)."""
    doc = json.loads(text)
    require_known_keys(doc, INSTANCE_KEYS)
    p, ell = parse_decimal(doc["p"]), parse_decimal(doc["ell"])
    K = RealQuadField(parse_decimal(doc["D"]))
    alpha = K.element(*parse_pair(doc["alpha"]))
    u, u_conj = labelled_places(ell, K, parse_decimal(doc["u_root_label"]))
    v, v_conj = labelled_places(p, K, parse_decimal(doc["v_root_label"]))
    g, a = parse_decimal(doc["g"]), parse_decimal(doc["a"])
    if not (0 < a < p and 0 < g < p):
        raise BadInput(f"a and g must be residues in (0, {p})")
    _validate_generator(g, p)
    # before the condition report, which needs alpha a unit
    if alpha.norm() != -1 or embed(alpha, v, 1) != a:
        raise BadInput("alpha must have norm -1 and reduce to a at v")
    return CharSignatureInstance(
        K=K, p=p, ell=ell, g=g, a=a, alpha=alpha,
        place_u=u, place_u_conj=u_conj, place_v=v, place_v_conj=v_conj,
        seed=parse_decimal(doc["seed"]),
    )
