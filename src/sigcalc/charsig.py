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
from dataclasses import dataclass, replace

from .arith import (
    ell_power_residue_test,
    factor_smooth,
    factorint,
    is_prime,
    jacobi,
    least_primitive_root,
    parse_decimal,
    parse_pair,
    smooth_cofactor,
    teichmuller,
)
from .errors import (
    BadInput,
    BudgetExhausted,
    DegenerateTarget,
    OracleInconsistent,
    RankDeficient,
    TooLarge,
    VerificationFailed,
    ZeroY,
)
from .indexcalc import FactorBase, Relation, solve_linear_mod_ell
from .quadfield import (
    Place,
    QuadInt,
    RealQuadField,
    _sqrtD_image,
    embed,
    labelled_places,
    place_valuations,
    split_places,
    squarefree_kernel,
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


def pairing_column(place: Place) -> str:
    return f"x({place.q},{place.splitting[0]}{place.root_label if place.root_label is not None else ''})"


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition booleans for a lifted instance.

    class_number_ok      : ell does not divide h_K (False when h_K is
                           beyond the exhaustive bound and unknown)
    unit_wild_at         : per ell-place, 1-unit exponent of alpha nonzero
    target_not_ell_power : residue of alpha at v is not an ell-th power
    """

    class_number_ok: bool
    unit_wild_at: tuple[tuple[int, bool], ...]
    target_not_ell_power: bool

    @property
    def unit_wild_everywhere(self) -> bool:
        return all(ok for _, ok in self.unit_wild_at)

    @property
    def unit_wild_somewhere(self) -> bool:
        return any(ok for _, ok in self.unit_wild_at)

    @property
    def all_ok(self) -> bool:
        return self.class_number_ok and self.unit_wild_everywhere \
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
    original target a.  alpha is a unit with N(alpha) = -1.
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
    condition_report: ConditionReport | None = None

    def with_report(self, report: ConditionReport) -> "CharSignatureInstance":
        return replace(self, condition_report=report)

    def residue_at_v(self) -> int:
        return embed(self.alpha, self.place_v, 1).value


@dataclass(frozen=True)
class CharSignature:
    """Ramification signature s = sigma_u * sigma_v^-1 in F_ell, nonzero.

    The auxiliaries (m, y) are the discrete log and 1-unit exponent used
    on the dl-oracle derivation path; None when solved by index calculus.
    """

    s: int
    provenance: str  # "dl-oracle" | "index-calculus"
    m: int | None = None
    y: int | None = None


def _unit_y(instance_or_alpha, place: Place, ell: int) -> int:
    alpha = getattr(instance_or_alpha, "alpha", instance_or_alpha)
    return teichmuller(embed(alpha, place, 2).value, ell).y


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
        class_ok = False
    wild = tuple(
        (w.root_label, _unit_y(instance, w, ell) != 0)
        for w in (instance.place_u, instance.place_u_conj)
    )
    residue = instance.residue_at_v()
    not_power = not ell_power_residue_test(residue, instance.p, ell)
    return ConditionReport(class_ok, wild, not_power)


def _validate_generator(g: int, p: int):
    if g % p == 0:
        raise BadInput("g must be a unit mod p")
    for q in factorint(p - 1):
        if pow(g, (p - 1) // q, p) == 1:
            raise BadInput(f"{g} does not generate F_{p}^*")


def lift_unit(a: int, p: int, ell: int, seed: int, g: int | None = None,
              budget: int = 64) -> CharSignatureInstance:
    """Lift the target a to a norm -1 unit of a real quadratic field.

    With b = a^-1, c = (a+b)/2, d = (a-b)/2 mod p, the element
    alpha = gamma + d with gamma^2 = 1 + d^2 has norm -1 and reduces to
    a at the place v where gamma = c.  d sweeps d, d+p, d+2p, ... until
    1 + d^2 is a nonzero square mod ell (so ell splits) and the
    resulting field passes every instance condition.
    """
    if not is_prime(p) or not is_prime(ell) or ell == 2 or p == 2:
        raise BadInput("p and ell must be odd primes")
    if (p - 1) % ell != 0:
        raise BadInput(f"{ell} must divide p - 1")
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
        w = 1 + d * d
        wl = w % ell
        if wl == 0 or jacobi(wl, ell) != 1:
            reject("ell_not_split")
            continue
        D, f = squarefree_kernel(w)
        if D == 1 or f % p == 0 or D % p == 0:
            reject("p_side_degenerate")
            continue
        try:
            K = RealQuadField(D)
        except TooLarge:
            reject("field_too_large")
            continue
        u_places = split_places(ell, K)
        v_places = split_places(p, K)
        if len(u_places) != 2 or len(v_places) != 2:
            reject("not_split")
            continue
        # gamma = f*sqrt(D) reduces to +-c; v is the place matching +c
        gamma_images = [f * _sqrtD_image(w_, 1) % p for w_ in v_places]
        if c not in gamma_images:
            reject("no_v_label")
            continue
        v_index = gamma_images.index(c)
        alpha = K.from_sqrt_coords(d, f)
        instance = CharSignatureInstance(
            K=K, p=p, ell=ell, g=g, a=a, alpha=alpha,
            place_u=u_places[0], place_u_conj=u_places[1],
            place_v=v_places[v_index], place_v_conj=v_places[1 - v_index],
            seed=seed,
        )
        report = check_conditions(instance)
        if not report.all_ok:
            # one count per attempt, under the first condition that fails
            failed = next(name for name, ok in (
                ("class_number", report.class_number_ok),
                ("unit_wild", report.unit_wild_everywhere),
                ("target_power", report.target_not_ell_power)) if not ok)
            reject(f"condition_{failed}")
            continue
        if alpha.norm() != -1 or instance.residue_at_v() != a:
            raise VerificationFailed("lifted unit fails N(alpha) = -1 or alpha = a at v")
        return instance.with_report(report)
    raise BudgetExhausted(budget, counters)


def signature_from_dl(instance: CharSignatureInstance, dl_oracle) -> CharSignature:
    """Ramification signature from a discrete-log oracle.

    The oracle is called as dl_oracle(g, a) and must return the full
    discrete log m; it is verified against g^m = a before use.  With
    y the 1-unit exponent of alpha at u, the defining relation
    y*sigma_u + m*sigma_v = 0 gives s = -m * y^-1 mod ell.
    """
    report = instance.condition_report or check_conditions(instance)
    if not report.all_ok:
        raise BadInput(f"instance fails its conditions: {report.as_dict()}")
    p, ell = instance.p, instance.ell
    a_v = instance.residue_at_v()
    m_full = dl_oracle(instance.g, a_v)
    if pow(instance.g, m_full, p) != a_v:
        raise OracleInconsistent(f"g^{m_full} != alpha mod v")
    m = m_full % ell
    y = _unit_y(instance, instance.place_u, ell)
    if y == 0:
        raise ZeroY("1-unit exponent of alpha vanishes at u")
    s = (-m * pow(y, -1, ell)) % ell
    if s == 0:
        raise VerificationFailed("signature must be nonzero")
    return CharSignature(s=s, provenance="dl-oracle", m=m, y=y)


def dl_from_signature(a: int, g: int, p: int, ell: int, sig_oracle,
                      seed: int = 0) -> int:
    """m mod ell with a = g^m, from a signature oracle.

    Targets that are ell-th powers answer 0 without the oracle.  The
    oracle receives the lifted instance and returns a CharSignature;
    m = -y*s is verified against the power-residue identity.
    """
    a %= p
    if a == 0:
        raise BadInput("a must be a unit mod p")
    if pow(a, (p - 1) // ell, p) == 1:
        return 0
    instance = lift_unit(a, p, ell, seed, g=g)
    y = _unit_y(instance, instance.place_u, ell)
    sig = sig_oracle(instance)
    s = sig.s if isinstance(sig, CharSignature) else int(sig)
    m = (-y * s) % ell
    lhs = pow(a, (p - 1) // ell, p)
    rhs = pow(pow(g, (p - 1) // ell, p), m, p)
    if lhs != rhs:
        raise VerificationFailed("recovered m fails the power-residue check")
    return m


def _beta_attempt(instance: CharSignatureInstance, base: FactorBase,
                  columns: dict, alpha_res_v: int, alpha_res_u: int,
                  seed: int, index: int, height_span: int) -> Relation | str:
    """Pure sampling attempt: one candidate beta = r*alpha + s_int.

    beta is forced to reduce to g at v (shifting either component by
    multiples of p preserves the residue), kept a unit at u, and
    accepted when its norm factors over the base places together with
    the dedicated conjugate columns.  Returns the relation row, or the
    reason for rejecting the candidate.
    """
    p, ell = instance.p, instance.ell
    rng = rng_for(seed, "beta", index)
    span = height_span + index // 2000  # widen the height cap as attempts mount
    r = rng.randrange(1, p) + p * rng.randrange(0, span)
    s_int = (instance.g - r * alpha_res_v) % p + p * rng.randrange(-span, span + 1)
    if (r * alpha_res_u + s_int) % ell == 0:
        return "not_unit_at_u"
    beta = r * instance.alpha + instance.K.element(s_int, 0)
    norm = abs(beta.norm())
    if norm == 0:
        return "zero_norm"
    e_ell = 0
    while norm % ell == 0:
        norm //= ell
        e_ell += 1
    e_p = 0
    while norm % p == 0:
        norm //= p
        e_p += 1
    if smooth_cofactor(norm, base.bound) > 1:
        return "not_smooth"
    exponents = dict(factor_smooth(norm, base.bound))
    coeffs: dict[str, int] = {SIGNATURE_COLUMN: teichmuller(
        embed(beta, instance.place_u, 2).value, ell).y}
    for place, e in place_valuations(beta, exponents):
        if place not in columns:
            return "outside_base"  # support at an inert place > sqrt(B)
        coeffs[columns[place]] = coeffs.get(columns[place], 0) + e
    if e_ell:
        coeffs[columns[instance.place_u_conj]] = e_ell
    if e_p:
        coeffs[columns[instance.place_v_conj]] = e_p
    return Relation.make(coeffs, -1, ell)


def signature_index_calculus(instance: CharSignatureInstance, bound: int,
                             seed: int, max_attempts: int = 500_000,
                             height_span: int = 4) -> CharSignature:
    """Ramification signature by relation collection over field places.

    Random beta = r*alpha + s with beta = g at v and beta a local unit
    at u satisfy 1 + y_beta*s + sum_w e_w*x_w = 0 over F_ell, where the
    x_w are the (unknown, normalised) unramified pairing values at the
    base places and at the dedicated conjugate places u', v'.  Solving
    the system pins the signature unknown s.
    """
    if bound < 2:
        raise BadInput("bound must be >= 2")
    report = instance.condition_report or check_conditions(instance)
    if not report.all_ok:
        raise BadInput(f"instance fails its conditions: {report.as_dict()}")
    ell = instance.ell
    base = FactorBase.quadratic(
        instance.K, bound, exclude=(instance.place_u, instance.place_v))
    columns = {place: pairing_column(place) for place in base.entries}
    columns.setdefault(instance.place_u_conj, pairing_column(instance.place_u_conj))
    columns.setdefault(instance.place_v_conj, pairing_column(instance.place_v_conj))
    alpha_res_v = instance.residue_at_v()
    alpha_res_u = embed(instance.alpha, instance.place_u, 1).value
    target = len(columns) + 9
    relations: list[Relation] = []
    seen: set = set()
    counters = {"not_unit_at_u": 0, "zero_norm": 0, "not_smooth": 0,
                "outside_base": 0, "duplicate": 0}
    index = 0
    while index < max_attempts:
        rel = _beta_attempt(instance, base, columns, alpha_res_v, alpha_res_u,
                            seed, index, height_span)
        index += 1
        if isinstance(rel, str):
            counters[rel] += 1
            continue
        if rel.coeffs in seen:
            counters["duplicate"] += 1
            continue
        seen.add(rel.coeffs)
        relations.append(rel)
        if len(relations) < target:
            continue
        try:
            solved = solve_linear_mod_ell(relations, [SIGNATURE_COLUMN], ell)
        except RankDeficient:
            target += max(4, len(columns) // 4)
            continue
        s = solved.values[SIGNATURE_COLUMN]
        if s == 0:
            raise VerificationFailed("signature must be nonzero")
        return CharSignature(s=s, provenance="index-calculus")
    if relations:
        raise RankDeficient([SIGNATURE_COLUMN],
                            "relation budget exhausted before full rank")
    raise BudgetExhausted(max_attempts, counters)


# ---------------------------------------------------------------------------
# serialization


def instance_to_json(instance: CharSignatureInstance) -> str:
    """Canonical JSON for an instance; numbers as decimal strings."""
    doc = {
        "p": str(instance.p),
        "ell": str(instance.ell),
        "g": str(instance.g),
        "a": str(instance.a),
        "D": str(instance.K.D),
        "alpha": [str(instance.alpha.a), str(instance.alpha.b)],
        "v_root_label": str(instance.place_v.root_label),
        "u_root_label": str(instance.place_u.root_label),
        "seed": str(instance.seed),
    }
    return json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


def instance_from_json(text: str) -> CharSignatureInstance:
    """Parse an instance file, holding it to the invariants of a lift:
    g generates F_p^*, N(alpha) = -1 and alpha reduces to a at v."""
    doc = json.loads(text)
    p, ell = parse_decimal(doc["p"]), parse_decimal(doc["ell"])
    K = RealQuadField(parse_decimal(doc["D"]))
    alpha = K.element(*parse_pair(doc["alpha"]))
    u, u_conj = labelled_places(ell, K, parse_decimal(doc["u_root_label"]))
    v, v_conj = labelled_places(p, K, parse_decimal(doc["v_root_label"]))
    g, a = parse_decimal(doc["g"]), parse_decimal(doc["a"])
    _validate_generator(g, p)
    instance = CharSignatureInstance(
        K=K, p=p, ell=ell, g=g, a=a, alpha=alpha,
        place_u=u, place_u_conj=u_conj, place_v=v, place_v_conj=v_conj,
        seed=parse_decimal(doc["seed"]),
    )
    if alpha.norm() != -1 or instance.residue_at_v() != a % p:
        raise BadInput("alpha must have norm -1 and reduce to a at v")
    return instance.with_report(check_conditions(instance))
