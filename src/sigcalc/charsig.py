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
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

from .arith import (
    ell_power_residue_test,
    factor_smooth,
    factorint,
    gauss_reduce,
    is_prime,
    jacobi,
    least_primitive_root,
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
    DegenerateTarget,
    OracleInconsistent,
    RankDeficient,
    TooLarge,
    VerificationFailed,
    ZeroY,
)
from .indexcalc import Relation, solve_linear_mod_ell
from .quadfield import (
    Place,
    QuadInt,
    RealQuadField,
    embed,
    labelled_places,
    split_places,
    sqrt_field,
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

    @cached_property
    def condition_report(self) -> ConditionReport:
        """check_conditions(self), run once on first read."""
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


def _unit_y(instance_or_alpha, place: Place, ell: int) -> int:
    alpha = getattr(instance_or_alpha, "alpha", instance_or_alpha)
    return teichmuller(embed(alpha, place, 2), ell)


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
        K, f = sqrt_field(w)
        if K is None or f % p == 0 or K.D % p == 0:
            reject("p_side_degenerate")
            continue
        u_places = split_places(ell, K)
        v_places = split_places(p, K)
        if len(u_places) != 2 or len(v_places) != 2:
            reject("not_split")
            continue
        # gamma = f*sqrt(D) reduces to +-c; v is the place matching +c
        gamma = K.from_sqrt_coords(0, f)
        gamma_images = [embed(gamma, w_, 1) for w_ in v_places]
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
        report = instance.condition_report
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
        return instance
    raise BudgetExhausted(budget, counters)


def signature_from_dl(instance: CharSignatureInstance, dl_oracle) -> CharSignature:
    """Ramification signature from a discrete-log oracle.

    The oracle is called as dl_oracle(g, a) and must return the full
    discrete log m; it is verified against g^m = a before use.  With
    y the 1-unit exponent of alpha at u, the defining relation
    y*sigma_u + m*sigma_v = 0 gives s = -m * y^-1 mod ell.
    """
    report = instance.condition_report
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
    return CharSignature(s=s, m=m, y=y)


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


def _nearest(n: int, d: int) -> int:
    """The integer nearest n/d (halves round up), exactly."""
    if d < 0:
        n, d = -n, -d
    return (2 * n + d) // (2 * d)


def _shell_point(index: int, key: int) -> tuple[int, int]:
    """The index-th point of Z^2 taken by square shells.

    Shell k holds the 8k points with max(|a|, |b|) = k, so indices
    below (2k+1)^2 cover the square [-k, k]^2 exactly once.  Within a
    shell the points run round the square's boundary, starting at an
    offset that the key sets.
    """
    k = (isqrt(index) + 1) // 2
    if k == 0:
        return 0, 0
    side, t = divmod((index - (2 * k - 1) ** 2 + key) % (8 * k), 2 * k)
    if side == 0:
        return k, t - k
    if side == 1:
        return k - t, k
    if side == 2:
        return -k, k - t
    return t - k, -k


# alpha's image at a split place over q is first kept mod the least
# power of q >= this: a norm divisible by that power, which would widen
# it, turns up about once in as many norms
_IMAGE_FLOOR = 1 << 20


def _precision_at_least(q: int, floor: int) -> int:
    """The least k >= 1 with q^k >= floor."""
    k, power = 1, q
    while power < floor:
        k, power = k + 1, power * q
    return k


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

    beta's image at a split place w is r*alpha_w + s, so a relation is
    read off in plain integers from alpha's images, which the search
    keeps: at u mod ell^2, and at the first place over each split
    q <= B, ell and p aside.
    """

    instance: CharSignatureInstance
    bound: int
    columns: dict  # base place -> column name, u' and v' included
    center: tuple[int, int]
    b1: tuple[int, int]
    b2: tuple[int, int]
    key: int
    alpha_u2: int  # alpha's image at u mod ell^2
    alpha_trace: int
    alpha_norm: int
    # prime q <= B, ell and p aside -> the columns of the places over q,
    # the first split place first and None for a place off the base
    over: dict
    inert: frozenset  # the primes of `over` that stay inert
    images: dict  # split q -> (first place, k, alpha's image there mod q^k)

    @classmethod
    def start(cls, instance: CharSignatureInstance, bound: int, seed: int) -> "_BetaSearch":
        K, p, ell, g, alpha = instance.K, instance.p, instance.ell, instance.g, instance.alpha
        columns: dict = {}
        over: dict = {}
        inert = set()
        images: dict = {}
        for q in primes_up_to(bound):
            if q in (ell, p):
                continue  # the norm's ell- and p-parts go to u' and v'
            places = split_places(q, K)
            cols = tuple(pairing_column(w) if w.norm <= bound else None for w in places)
            columns.update((w, col) for w, col in zip(places, cols) if col)
            over[q] = cols
            if places[0].splitting == "inert":
                inert.add(q)
            elif places[0].splitting == "split":
                k = _precision_at_least(q, _IMAGE_FLOOR)
                images[q] = (places[0], k, embed(alpha, places[0], k))
        for place in (instance.place_u_conj, instance.place_v_conj):
            columns[place] = pairing_column(place)
        b1, b2 = gauss_reduce((1, -instance.residue_at_v() % p), (0, p))
        det = b1[0] * b2[1] - b1[1] * b2[0]
        c1, c2 = _nearest(-g * b2[0], det), _nearest(g * b1[0], det)
        center = (-c1 * b1[0] - c2 * b2[0], g - c1 * b1[1] - c2 * b2[1])
        return cls(instance, bound, columns, center, b1, b2,
                   key=rng_for(seed, "beta").getrandbits(64),
                   alpha_u2=embed(alpha, instance.place_u, 2),
                   alpha_trace=alpha.trace(), alpha_norm=alpha.norm(),
                   over=over, inert=frozenset(inert), images=images)

    def pair(self, index: int) -> tuple[int, int]:
        """(r, s) of attempt `index`; r*a_v + s = g mod p."""
        a, b = _shell_point(index, self.key)
        (r0, s0), (r1, s1), (r2, s2) = self.center, self.b1, self.b2
        return r0 + a * r1 + b * r2, s0 + a * s1 + b * s2

    def _first_place_valuation(self, q: int, e: int, r: int, s: int) -> int:
        """beta's valuation at the first place over a split q, where q^e
        exactly divides N(beta): that of r*alpha_w + s mod q^(e+1)."""
        place, k, image = self.images[q]
        if e >= k:  # past the image's precision: widen it, at least twofold
            k = max(e + 1, 2 * k)
            image = embed(self.instance.alpha, place, k)
            self.images[q] = (place, k, image)
        x = (r * image + s) % q ** (e + 1)
        v = 0
        while x and x % q == 0:
            x //= q
            v += 1
        return v

    def attempt(self, index: int) -> Relation | str:
        """The relation of beta = r*alpha + s, or the reason for rejecting
        it; the outcome depends on the index alone.

        beta is kept a unit at u and accepted when its norm factors over
        the base places together with the dedicated conjugate columns.
        Everything is read in plain integers: the norm from the norm
        form, and beta's images at u and at the places over the norm's
        primes from alpha's, so no element of K is built.
        """
        instance = self.instance
        p, ell = instance.p, instance.ell
        r, s_int = self.pair(index)
        beta_u = (r * self.alpha_u2 + s_int) % (ell * ell)
        if beta_u % ell == 0:
            return "not_unit_at_u"
        norm = abs(s_int * s_int + self.alpha_trace * r * s_int + self.alpha_norm * r * r)
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
        if smooth_cofactor(norm, self.bound) > 1:
            return "not_smooth"
        coeffs: dict[str, int] = {SIGNATURE_COLUMN: teichmuller(beta_u, ell)}
        for q, e in factor_smooth(norm, self.bound).items():
            cols = self.over[q]
            if len(cols) == 2:
                v = self._first_place_valuation(q, e, r, s_int)
                shares = ((cols[0], v), (cols[1], e - v))
            else:  # the one place over q has norm q^2 when q stays inert
                shares = ((cols[0], e // 2 if q in self.inert else e),)
            for col, share in shares:
                if not share:
                    continue
                if col is None:
                    return "outside_base"  # support at an inert place > sqrt(B)
                coeffs[col] = coeffs.get(col, 0) + share
        if e_ell:
            coeffs[self.columns[instance.place_u_conj]] = e_ell
        if e_p:
            coeffs[self.columns[instance.place_v_conj]] = e_p
        return Relation.make(coeffs, -1, ell)


def signature_index_calculus(instance: CharSignatureInstance, bound: int,
                             seed: int, max_attempts: int = 500_000,
                             counters: dict | None = None) -> CharSignature:
    """Ramification signature by relation collection over field places.

    Candidates beta = r*alpha + s with beta = g at v and beta a local
    unit at u (`_BetaSearch`) satisfy 1 + y_beta*s + sum_w e_w*x_w = 0
    over F_ell, where the x_w are the (unknown, normalised) unramified
    pairing values at the base places and at the dedicated conjugate
    places u', v'.  Solving the system pins the signature unknown s.
    The search keeps one counter per outcome, summing to the attempts
    made: a rejection reason, "accepted", or "rank_deficient_solves"
    for a relation whose solve left s undetermined.  They are written
    into `counters` when one is given, and carried by the
    BudgetExhausted raised after max_attempts attempts.
    """
    if bound < 2:
        raise BadInput("bound must be >= 2")
    report = instance.condition_report
    if not report.all_ok:
        raise BadInput(f"instance fails its conditions: {report.as_dict()}")
    ell = instance.ell
    search = _BetaSearch.start(instance, bound, seed)
    target = len(search.columns) + 9
    relations: list[Relation] = []
    seen: set = set()
    if counters is None:
        counters = {}
    counters.update({"not_unit_at_u": 0, "zero_norm": 0, "not_smooth": 0,
                     "outside_base": 0, "duplicate": 0, "accepted": 0,
                     "rank_deficient_solves": 0})
    for index in range(max_attempts):
        rel = search.attempt(index)
        if isinstance(rel, str):
            counters[rel] += 1
            continue
        if rel.coeffs in seen:
            counters["duplicate"] += 1
            continue
        seen.add(rel.coeffs)
        relations.append(rel)
        if len(relations) < target:
            counters["accepted"] += 1
            continue
        try:
            solved = solve_linear_mod_ell(relations, [SIGNATURE_COLUMN], ell)
        except RankDeficient:
            counters["rank_deficient_solves"] += 1
            target += max(4, len(search.columns) // 4)
            continue
        counters["accepted"] += 1
        s = solved.values[SIGNATURE_COLUMN]
        if s == 0:
            raise VerificationFailed("signature must be nonzero")
        return CharSignature(s=s)
    raise BudgetExhausted(max_attempts, counters)


# ---------------------------------------------------------------------------
# serialization


INSTANCE_KEYS = ("D", "a", "alpha", "ell", "g", "p", "seed", "u_root_label", "v_root_label")


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
    require_known_keys(doc, INSTANCE_KEYS)
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
    return instance
