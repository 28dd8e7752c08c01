"""Classical index calculus over F_p^* and shared F_ell linear algebra.

Relations between discrete logs of factor-base primes are harvested
from powers of the generator written as ratios +-u/v of two numbers
below sqrt(p), pruned of singleton columns and solved by the shared
sparse Gauss-Jordan eliminator mod ell.  The rational character
pairing realises the degree-ell character of Q ramified only at p,
whose local values reproduce exactly this relation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

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
    RankDeficient,
    VerificationFailed,
)
from .seeds import rng_for

__all__ = [
    "Relation",
    "RelationSearch",
    "half_split",
    "collect_relations",
    "prune_singletons",
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


def half_split(x: int, p: int) -> tuple[int, int, int]:
    """(u, v, sigma) with x = (-1)^sigma * u / v mod p, u^2 < p, v^2 <= p.

    The extended Euclidean algorithm on (p, x) keeps r_i = t_i * x mod p
    and stops at the first remainder below sqrt(p); its cofactor obeys
    |t_i| <= p / r_(i-1) <= sqrt(p) (Blake, Fuji-Hara, Mullin and
    Vanstone 1984).  u and v are coprime.  x must be a unit mod p.
    """
    r0, r1, t0, t1 = p, x, 0, 1
    while r1 * r1 >= p:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return r1, abs(t1), int(t1 < 0)


def _split_smooth(x: int, p: int, bound: int):
    """(sigma, {q: e}) with x = (-1)^sigma * prod q^e mod p, read off
    the half-size split x = +-u/v; None when u*v is not bound-smooth."""
    u, v, sigma = half_split(x, p)
    uv = u * v
    if smooth_cofactor(uv, bound) > 1:
        return None
    # u and v are coprime, so each prime of u*v belongs to one of them
    return sigma, {q: -e if v % q == 0 else e for q, e in factor_smooth(uv, bound).items()}


@dataclass
class RelationSearch:
    """Where a relation search stands, so that a later call resumes it:
    the next attempt index and the exponents r already drawn."""

    next_index: int = 0
    drawn: set[int] = field(default_factory=set)

    def exhausted(self, p: int) -> bool:
        """Every exponent r in [1, p-2] has been drawn."""
        return len(self.drawn) == p - 2


def collect_relations(p: int, ell: int, g: int, bound: int, count: int,
                      seed: int, budget_factor: int = 10_000,
                      search: RelationSearch | None = None) -> list[Relation]:
    """Harvest `count` new factor-base relations from half-size splits of g^r.

    Attempt i draws r from rng_for(seed, "relation", i) and splits
    g^r = (-1)^sigma * u/v with u, v <= sqrt(p) (`half_split`).  When
    u*v is bound-smooth, sum_q (e_q(u) - e_q(v)) * theta(q) =
    r - sigma*(p-1)/2 mod ell, as log(-1) = (p-1)/2.  Trivial rows and
    repeated r are discarded.  Passing a `search` resumes it at its next
    index; the call stops early, with what it has, once every r in
    [1, p-2] has been drawn.  Raises BudgetExhausted after
    budget_factor * count attempts, with a counter per outcome that
    sums to the attempts made.  Deterministic in (inputs, seed).
    """
    if (p - 1) % ell != 0:
        raise BadInput(f"{ell} must divide p - 1")
    if search is None:
        search = RelationSearch()
    drawn, half = search.drawn, (p - 1) // 2
    start = index = search.next_index
    stop = start + budget_factor * count
    # only when every exponent can be drawn within budget is it worth
    # remembering the rejected ones too; accepted r are always kept
    remember_all = p - 2 <= stop - start
    counters = {"not_smooth": 0, "trivial": 0, "duplicate": 0}
    relations: list[Relation] = []
    while len(relations) < count and index < stop and len(drawn) < p - 2:
        r = rng_for(seed, "relation", index).randrange(1, p - 1)
        index += 1
        if r in drawn:
            counters["duplicate"] += 1
            continue
        if remember_all:
            drawn.add(r)
        split = _split_smooth(pow(g, r, p), p, bound)
        if split is None:
            counters["not_smooth"] += 1
            continue
        sigma, exponents = split
        rel = Relation.make({theta_column(q): e for q, e in exponents.items()},
                            r - sigma * half, ell)
        if rel.is_trivial():
            counters["trivial"] += 1
            continue
        drawn.add(r)
        relations.append(rel)
    search.next_index = index
    if len(relations) == count or search.exhausted(p):
        return relations
    raise BudgetExhausted(index - start, {**counters, "accepted": len(relations)})


def prune_singletons(relations: list[Relation]) -> list[Relation]:
    """Drop, repeatedly, every relation holding a column that no other
    relation holds (LaMacchia and Odlyzko, CRYPTO '90).

    Such a row constrains no other column, so the values the solver
    determines for the remaining columns are unchanged.  One pass: the
    rows of each column are indexed once, and dropping a row pushes
    every column it leaves with weight 1 onto a stack.  Removal in any
    order reaches the same rows, which keep their order.
    """
    rows_of: dict[str, list[int]] = {}
    for i, rel in enumerate(relations):
        for col, _ in rel.coeffs:
            rows_of.setdefault(col, []).append(i)
    weight = {col: len(rows) for col, rows in rows_of.items()}
    alive = [True] * len(relations)
    stack = [col for col, w in weight.items() if w == 1]
    while stack:
        col = stack.pop()
        if weight[col] != 1:
            continue  # its last row went with another column
        i = next(i for i in rows_of[col] if alive[i])
        alive[i] = False
        for other, _ in relations[i].coeffs:
            weight[other] -= 1
            if weight[other] == 1:
                stack.append(other)
    return [rel for rel, keep in zip(relations, alive) if keep]


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

    The base is the primes <= min(bound, sqrt(p)): no larger prime
    divides the halves u, v of a split.  Each round resumes one relation
    search for a larger batch, prunes singleton columns and solves, until
    every column left in the pruned system is determined.  Once every
    exponent r has been drawn no round can add a relation, and the
    determined part of the table is returned as it stands.
    """
    bound = max(2, min(bound, isqrt(p)))
    base = primes_up_to(bound)
    # at most p-2 distinct exponents exist; never ask for more
    count = min(len(base) + 16, p - 2)
    search = RelationSearch()
    relations: list[Relation] = []
    seen: set[str] = set()
    solved = SolveResult({}, 0, 0)
    for attempt in range(1, rounds + 1):
        relations += collect_relations(p, ell, g, bound,
                                       min(count * attempt, p - 2) - len(relations),
                                       seed, search=search)
        kept = prune_singletons(relations)
        solved = solve_linear_mod_ell(kept, [], ell)
        seen = {col for rel in kept for col in rel.columns}
        if (seen and seen <= solved.values.keys()) or search.exhausted(p):
            return {
                q: solved.values[theta_column(q)]
                for q in base
                if theta_column(q) in solved.values
            }
    raise RankDeficient(sorted(c for c in seen if c not in solved.values))


def index_calculus_dlog(p: int, ell: int, g: int, a: int, bound: int, seed: int,
                        theta: dict[int, int] | None = None,
                        descent_budget: int = 100_000) -> int:
    """m mod ell with a = g^m, by factor-base index calculus.

    Solves the theta system (or reuses a prebuilt table), then splits
    a*g^s = (-1)^sigma * u/v as the relations do, skipping s while u*v
    is not smooth or holds, with an exponent nonzero mod ell, a prime
    the table lacks, and reads m = sum e_q theta(q) + sigma*(p-1)/2 - s.
    The answer is verified against a^((p-1)/ell) = (g^((p-1)/ell))^m
    before returning.
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
    counters = {"descent_not_smooth": 0, "descent_undetermined": 0}
    for _ in range(descent_budget):
        s = rng.randrange(0, p - 1)
        split = _split_smooth(a * pow(g, s, p) % p, p, bound)
        if split is None:
            counters["descent_not_smooth"] += 1
            continue
        sigma, exponents = split
        if any(e % ell and q not in theta for q, e in exponents.items()):
            counters["descent_undetermined"] += 1
            continue
        m = (sum(e * theta.get(q, 0) for q, e in exponents.items())
             + sigma * ((p - 1) // 2) - s) % ell
        lhs = pow(a, (p - 1) // ell, p)
        rhs = pow(pow(g, (p - 1) // ell, p), m, p)
        if lhs != rhs:
            raise VerificationFailed(
                "index-calculus answer failed the power-residue cross-check")
        return m
    raise BudgetExhausted(descent_budget, counters)


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
