"""Classical index calculus over F_p^* and shared F_ell linear algebra.

Relations between discrete logs of factor-base primes are harvested
from smooth powers of the generator and solved by the shared sparse
Gauss-Jordan eliminator mod ell.  The rational character pairing realises the
degree-ell character of Q ramified only at p, whose local values
reproduce exactly this relation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arith import (
    bsgs_dlog,
    factor_smooth,
    is_prime,
    least_primitive_root,
    mult_group_ops,
    primes_up_to,
    row_reduce_mod,
    smooth_cofactor,
)
from .errors import (
    BadInput,
    BadSupport,
    BudgetExhausted,
    NotSmooth,
    RankDeficient,
    VerificationFailed,
)
from .seeds import rng_for

__all__ = [
    "Relation",
    "FactorBase",
    "collect_relations",
    "solve_linear_mod_ell",
    "SolveResult",
    "index_calculus_dlog",
    "build_theta_table",
    "rational_character_pairing",
]


def theta_column(q: int) -> str:
    """Column name for the unknown discrete log of a factor-base prime."""
    return f"theta({q})"


@dataclass(frozen=True)
class Relation:
    """A linear equation sum_i coeff_i * unknown_i = const over F_ell.

    Column ids are distinct named unknowns; zero coefficients are
    dropped at construction.
    """

    coeffs: tuple[tuple[str, int], ...]
    const: int

    @classmethod
    def make(cls, coeffs: dict[str, int], const: int, ell: int) -> "Relation":
        cleaned = tuple(sorted((col, c % ell) for col, c in coeffs.items() if c % ell))
        return cls(cleaned, const % ell)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(col for col, _ in self.coeffs)

    def is_trivial(self) -> bool:
        return not self.coeffs and self.const == 0


@dataclass(frozen=True)
class FactorBase:
    """Ordered factor base: rational primes <= B, or places of norm <= B."""

    bound: int
    entries: tuple

    @classmethod
    def rational(cls, bound: int) -> "FactorBase":
        if bound < 2:
            raise BadInput("bound must be >= 2")
        return cls(bound, tuple(primes_up_to(bound)))

    @classmethod
    def quadratic(cls, K, bound: int, exclude=()) -> "FactorBase":
        from .quadfield import split_places

        if bound < 2:
            raise BadInput("bound must be >= 2")
        places = []
        for q in primes_up_to(bound):
            for place in split_places(q, K):
                if place.norm <= bound and place not in exclude:
                    places.append(place)
        return cls(bound, tuple(sorted(places, key=lambda w: w.sort_key())))


def _relation_attempt(p: int, ell: int, g: int, base: FactorBase,
                      seed: int, index: int):
    """Pure attempt: (seed, index) -> (r, Relation) or None.

    Defined per-index so attempts can be fanned out and merged back in
    index order without changing the result.
    """
    r = rng_for(seed, "relation", index).randrange(1, p - 1)
    value = pow(g, r, p)
    if smooth_cofactor(value, base.bound) > 1:
        return None
    exponents = factor_smooth(value, base.bound)
    rel = Relation.make({theta_column(q): e for q, e in exponents.items()}, r, ell)
    if rel.is_trivial():
        return None
    return r, rel


def collect_relations(p: int, ell: int, g: int, base: FactorBase, count: int,
                      seed: int, budget_factor: int = 10_000) -> list[Relation]:
    """Harvest `count` factor-base relations from smooth powers g^r.

    Each smooth g^r = prod q^e_q yields sum e_q * theta(q) = r mod ell.
    Duplicate r values are discarded.  Deterministic in (inputs, seed).
    """
    if (p - 1) % ell != 0:
        raise BadInput(f"{ell} must divide p - 1")
    relations: list[Relation] = []
    seen_r: set[int] = set()
    budget = budget_factor * count
    for index in range(budget):
        hit = _relation_attempt(p, ell, g, base, seed, index)
        if hit is None:
            continue
        r, rel = hit
        if r in seen_r:
            continue
        seen_r.add(r)
        relations.append(rel)
        if len(relations) == count:
            return relations
    raise BudgetExhausted(budget, {"not_smooth": budget - len(relations)})


@dataclass
class SolveResult:
    """Determined column values plus the solution-space dimension."""

    values: dict[str, int]
    nullity: int
    rank: int
    columns: list[str] = field(default_factory=list)


def solve_linear_mod_ell(relations: list[Relation], unknowns, ell: int) -> SolveResult:
    """Solve a relation system over F_ell with the sparse eliminator.

    Returns the value of every determined column and the solution-space
    dimension.  Raises Inconsistent for contradictory systems and
    RankDeficient when a requested unknown stays undetermined.
    """
    requested = list(unknowns)
    columns = sorted({col for rel in relations for col in rel.columns} | set(requested))
    pivots = row_reduce_mod([(dict(rel.coeffs), rel.const) for rel in relations], ell)
    values = {col: pivots[col][1] for col in columns
              if col in pivots and not pivots[col][0]}
    missing = [u for u in requested if u not in values]
    if missing:
        raise RankDeficient(missing)
    return SolveResult(values=values, nullity=len(columns) - len(pivots),
                       rank=len(pivots), columns=columns)


def build_theta_table(p: int, ell: int, g: int, bound: int, seed: int,
                      rounds: int = 4) -> dict[int, int]:
    """Discrete logs mod ell of every determined factor-base prime.

    Collects relations in growing batches until the factor-base system
    pins down every theta that actually occurs in smooth values.
    """
    base = FactorBase.rational(bound)
    # at most p-2 distinct exponents exist; never ask for more
    count = min(len(base.entries) + 16, p - 2)
    seen: set[str] = set()
    solved = SolveResult({}, 0, 0)
    for attempt in range(1, rounds + 1):
        relations = collect_relations(p, ell, g, base,
                                      min(count * attempt, p - 2), seed)
        solved = solve_linear_mod_ell(relations, [], ell)
        seen = {col for rel in relations for col in rel.columns}
        if seen and all(col in solved.values for col in seen):
            return {
                q: solved.values[theta_column(q)]
                for q in base.entries
                if theta_column(q) in solved.values
            }
    raise RankDeficient(sorted(c for c in seen if c not in solved.values))


def index_calculus_dlog(p: int, ell: int, g: int, a: int, bound: int, seed: int,
                        theta: dict[int, int] | None = None,
                        descent_budget: int = 100_000) -> int:
    """m mod ell with a = g^m, by factor-base index calculus.

    Solves the theta system (or reuses a prebuilt table), then finds s
    with a*g^s smooth and reads m = sum e_q theta(q) - s.  The answer is
    verified against a^((p-1)/ell) = (g^((p-1)/ell))^m before returning.
    """
    if not is_prime(p) or not is_prime(ell):
        raise BadInput(f"p = {p} and ell = {ell} must be primes")
    if (p - 1) % ell != 0:
        raise BadInput(f"{ell} must divide p - 1")
    a %= p
    if a == 0:
        raise BadInput("target must be a unit mod p")
    if a == 1:
        return 0
    if theta is None:
        theta = build_theta_table(p, ell, g, bound, seed)
    rng = rng_for(seed, "descent", a)
    for _ in range(descent_budget):
        s = rng.randrange(0, p - 1)
        value = a * pow(g, s, p) % p
        if smooth_cofactor(value, bound) > 1:
            continue
        exponents = factor_smooth(value, bound)
        if any(q not in theta for q in exponents):
            continue
        m = (sum(e * theta[q] for q, e in exponents.items()) - s) % ell
        lhs = pow(a, (p - 1) // ell, p)
        rhs = pow(pow(g, (p - 1) // ell, p), m, p)
        if lhs != rhs:
            raise VerificationFailed(
                "index-calculus answer failed the power-residue cross-check")
        return m
    raise BudgetExhausted(descent_budget, {"descent_not_smooth": descent_budget})


def _as_fraction(a) -> Fraction:
    if isinstance(a, Fraction):
        return a
    if isinstance(a, int):
        return Fraction(a)
    raise BadInput("rational argument expected")


def _valuation(x: Fraction, q: int) -> int:
    v = 0
    n = x.numerator
    while n % q == 0:
        n //= q
        v += 1
    if v:
        return v
    d = x.denominator
    while d % q == 0:
        d //= q
        v -= 1
    return v


def rational_character_pairing(p: int, ell: int, site, a) -> int:
    """Local pairing value in F_ell of the degree-ell character inside
    Q(mu_p) against a nonzero rational a.

    Normalisation: the pairing of the character with the canonical
    generator g (least primitive root of p) at the site p is 1.  At the
    site p the value is theta(a mod p) mod ell; at a finite site q it is
    -v_q(a) * theta(q) mod ell.  Reciprocity: the values summed over the
    support of a together with p vanish.
    """
    if (p - 1) % ell != 0:
        raise BadInput(f"{ell} must divide p - 1")
    a = _as_fraction(a)
    if a == 0:
        raise BadSupport("a must be nonzero")
    g = least_primitive_root(p)

    def theta_mod_ell(t: int) -> int:
        return bsgs_dlog(g, t % p, p - 1, **mult_group_ops(p)) % ell

    if site == "p":
        if a.numerator % p == 0 or a.denominator % p == 0:
            raise BadSupport(f"a must be a unit at {p}")
        residue = a.numerator * pow(a.denominator, -1, p) % p
        return theta_mod_ell(residue)
    q = int(site)
    if q == p:
        raise BadSupport("use site 'p' for the ramified prime")
    if not is_prime(q):
        raise BadSupport(f"site {q} is not prime")
    v = _valuation(a, q)
    return (-v * theta_mod_ell(q)) % ell
