"""Classical index calculus over F_p^* and shared F_ell linear algebra.

Relations between discrete logs of factor-base primes are harvested
from powers of the generator written as ratios +-u/v with u*v < p,
read off consecutive convergents of one Euclidean run, pruned of
singleton columns and solved by the shared sparse Gauss-Jordan
eliminator mod ell.  The rational character pairing realises the
degree-ell character of Q ramified only at p, whose local values
reproduce exactly this relation machinery; `reciprocity_suite` checks
that they sum to zero over random S-units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, prod

from .arith import (
    Eliminator,
    dlog_mod_ell,
    factor_smooth,
    is_prime,
    least_primitive_root,
    primes_up_to,
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
    "convergent_splits",
    "collect_relations",
    "SingletonPruner",
    "solve_linear_mod_ell",
    "SolveResult",
    "index_calculus_dlog",
    "build_theta_table",
    "rational_character_pairing",
    "reciprocity_suite",
]


@dataclass(frozen=True)
class Relation:
    """A linear equation sum_i coeff_i * unknown_i = const over F_ell.

    Column ids are distinct unknowns (the classical system names the
    log of a factor-base prime q by q itself); zero coefficients are
    dropped at construction.
    """

    coeffs: tuple[tuple[object, int], ...]
    const: int

    @classmethod
    def make(cls, coeffs: dict, const: int, ell: int) -> "Relation":
        cleaned = tuple(sorted((col, c % ell) for col, c in coeffs.items() if c % ell))
        return cls(cleaned, const % ell)

    @property
    def columns(self) -> tuple:
        return tuple(col for col, _ in self.coeffs)

    def is_trivial(self) -> bool:
        return not self.coeffs and self.const == 0


def convergent_splits(x: int, p: int) -> list[tuple[int, int, int]]:
    """Up to three (u, v, sigma) with x = (-1)^sigma * u / v mod p,
    gcd(u, v) = 1 and u*v < p, from one Euclidean run on (p, x).

    The run keeps r_j = t_j * x mod p.  The first is the half split
    (r_i, |t_i|) at the first remainder below sqrt(p): u^2 < p and
    v^2 <= p, as |t_i| <= p / r_(i-1) <= sqrt(p) (Blake, Fuji-Hara,
    Mullin and Vanstone 1984).  Then come its neighbours
    (r_(i-1), |t_(i-1)|) and (r_(i+1), |t_(i+1)|), skipping one with
    t = 0 or r = 0.  Each obeys r_j * |t_j| < r_(j-1) * |t_j| <= p, as
    r_(j-1)*|t_j| + r_j*|t_(j-1)| = p, and a common factor of r_j and
    t_j would divide p.  x must be a unit mod p.
    """
    r0, r1, t0, t1 = p, x, 0, 1
    while r1 * r1 >= p:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    q = r0 // r1
    r2, t2 = r0 - q * r1, t0 - q * t1
    return [(r, abs(t), int(t < 0)) for r, t in ((r1, t1), (r0, t0), (r2, t2)) if r and t]


def _base_bound(bound: int, p: int) -> int:
    """max(2, min(bound, isqrt(p))): the factor base ends at sqrt(p),
    above which no prime divides the halves u, v of a half split; a
    neighbouring split that holds a larger prime counts as not smooth."""
    return max(2, min(bound, isqrt(p)))


def _split_smooth(x: int, p: int, bound: int):
    """(sigma, {q: e}) with x = (-1)^sigma * prod q^e mod p, read off
    the first of `convergent_splits` x = +-u/v (the half split, then
    its two neighbours) whose u*v is bound-smooth; None when none is."""
    for u, v, sigma in convergent_splits(x, p):
        uv = u * v
        if smooth_cofactor(uv, bound) == 1:
            # u and v are coprime, so each prime of u*v belongs to one of them
            return sigma, {q: -e if v % q == 0 else e
                           for q, e in factor_smooth(uv, bound).items()}
    return None


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
                      search: RelationSearch | None = None,
                      counters: dict | None = None) -> list[Relation]:
    """Harvest `count` new factor-base relations from splits of g^r.

    Attempt i draws r from rng_for(seed, "relation", i) and writes
    g^r = (-1)^sigma * u/v with u*v < p, trying the three splits of
    `convergent_splits` in turn: the half split (u, v <= sqrt(p)), then
    its two neighbouring convergents.  For the first split whose u*v is
    bound-smooth, sum_q (e_q(u) - e_q(v)) * theta(q) =
    r - sigma*(p-1)/2 mod ell, as log(-1) = (p-1)/2.  One draw gives at
    most one relation, and each attempt one outcome.  Trivial rows and
    repeated r are discarded.  Passing a `search` resumes it at its next
    index; the call stops early, with what it has, once every r in
    [1, p-2] has been drawn.  It keeps one counter per outcome
    ("not_smooth", "trivial", "duplicate", "accepted"), summing to the
    attempts made; they are added into `counters` when one is given,
    and carried by the BudgetExhausted raised after budget_factor *
    count attempts.  g must be a unit mod p, or BadInput is raised.
    Deterministic in (inputs, seed).
    """
    if (p - 1) % ell != 0:
        raise BadInput(f"{ell} must divide p - 1")
    if g % p == 0:  # every split would be u = 0, which no bound makes smooth
        raise BadInput(f"g = {g} must be a unit mod {p}")
    if search is None:
        search = RelationSearch()
    drawn, half = search.drawn, (p - 1) // 2
    start = index = search.next_index
    stop = start + budget_factor * count
    # only when every exponent can be drawn within budget is it worth
    # remembering the rejected ones too; accepted r are always kept
    remember_all = p - 2 <= stop - start
    tally = {"not_smooth": 0, "trivial": 0, "duplicate": 0}
    relations: list[Relation] = []
    while len(relations) < count and index < stop and len(drawn) < p - 2:
        r = rng_for(seed, "relation", index).randrange(1, p - 1)
        index += 1
        if r in drawn:
            tally["duplicate"] += 1
            continue
        if remember_all:
            drawn.add(r)
        split = _split_smooth(pow(g, r, p), p, bound)
        if split is None:
            tally["not_smooth"] += 1
            continue
        sigma, exponents = split
        rel = Relation.make(exponents, r - sigma * half, ell)
        if rel.is_trivial():
            tally["trivial"] += 1
            continue
        drawn.add(r)
        relations.append(rel)
    search.next_index = index
    tally["accepted"] = len(relations)
    if counters is not None:
        for outcome, n in tally.items():
            counters[outcome] = counters.get(outcome, 0) + n
    if len(relations) == count or search.exhausted(p):
        return relations
    raise BudgetExhausted(index - start, tally)


class SingletonPruner:
    """The 2-core of a growing relation list: what is left once every row
    holding a column that no other row holds is dropped, repeatedly
    (LaMacchia and Odlyzko, CRYPTO '90); the solver's values for the
    rest are unchanged.  The rows of each column are indexed once, as
    they are added; each `add` peels the whole list again, since new
    rows may hold up rows dropped before, even two that share a column.
    """

    def __init__(self):
        self.relations: list[Relation] = []
        self.rows_of: dict = {}

    def add(self, new: list[Relation]) -> list[Relation]:
        """Append `new`; the core of every relation so far, in order."""
        relations, rows_of = self.relations, self.rows_of
        for i, rel in enumerate(new, len(relations)):
            for col, _ in rel.coeffs:
                rows_of.setdefault(col, []).append(i)
        relations += new
        # dropping a row pushes every column it leaves with weight 1;
        # removal in any order reaches the same rows
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

    values: dict
    nullity: int
    rank: int
    columns: list = field(default_factory=list)


def solve_linear_mod_ell(relations: list[Relation], system: Eliminator,
                         held: set) -> SolveResult:
    """Solve a relation system over F_ell on a carried eliminator.

    `system` holds the relations in `held`, all of them among
    `relations`; it takes the relations it lacks, as one batch
    (`Eliminator.add`), and `held` gains them.  Returns the value of
    every determined column of `relations` and the solution-space
    dimension over those columns.  Raises Inconsistent for
    contradictory systems.
    """
    new = [rel for rel in relations if rel not in held]
    system.add((rel.coeffs, rel.const) for rel in new)
    held.update(new)
    columns = sorted({col for rel in relations for col in rel.columns})
    values = {col: system.consts[col] for col in columns if system.determined(col)}
    return SolveResult(values=values, nullity=len(columns) - len(system.rows),
                       rank=len(system.rows), columns=columns)


def build_theta_table(p: int, ell: int, g: int, bound: int, seed: int,
                      counters: dict | None = None) -> dict[int, int]:
    """Discrete logs mod ell of every determined factor-base prime.

    The base is the n primes <= min(bound, sqrt(p)) (`_base_bound`).
    Round i (from 0) resumes one relation search until it holds
    ceil(n * 3^i / 2^(i+1)) relations in all (n/2 first, then half as
    many again each round, and at least one more than the round
    before), prunes singleton columns and solves, until every column
    left in the pruned system is determined.  The pruned set only grows
    as relations are added, so one carried pruner and one carried
    eliminator take each round's new rows alone; each round's solve
    still reads all kept rows, with the values, rank and nullity of a
    fresh elimination.  No round asks for more than 4*(n + 16)
    relations in all, nor for more than the p-2 distinct exponents; a
    round at that ceiling that still leaves a column undetermined
    raises RankDeficient.  Once every exponent r has been drawn no round can
    add a relation, and the determined part of the table is returned as
    it stands.  When a `counters` dict is given, the relation outcomes
    of every round are added into it and "theta_rounds" is set to the
    rounds run.
    """
    if counters is None:
        counters = {}
    bound = _base_bound(bound, p)
    base = primes_up_to(bound)
    n = len(base)
    ceiling = min(4 * (n + 16), p - 2)
    search = RelationSearch()
    system, held = Eliminator(ell), set()
    pruner = SingletonPruner()
    want = rounds = 0
    while True:
        want = min(max(want + 1, -(-n * 3**rounds // 2 ** (rounds + 1))), ceiling)
        rounds += 1
        counters["theta_rounds"] = rounds
        kept = pruner.add(collect_relations(p, ell, g, bound, want - len(pruner.relations),
                                            seed, search=search, counters=counters))
        solved = solve_linear_mod_ell(kept, system, held)
        undetermined = [col for col in solved.columns if col not in solved.values]
        if (solved.columns and not undetermined) or search.exhausted(p):
            return {q: solved.values[q] for q in base if q in solved.values}
        if want == ceiling:
            raise RankDeficient(undetermined)


def index_calculus_dlog(p: int, ell: int, g: int, a: int, bound: int, seed: int,
                        theta: dict[int, int] | None = None,
                        descent_budget: int = 100_000,
                        counters: dict | None = None) -> int:
    """m mod ell with a = g^m, by factor-base index calculus.

    Solves the theta system (or reuses a prebuilt table), then splits
    a*g^s = (-1)^sigma * u/v as the relations do (the half split, then
    its neighbouring convergents), skipping s while no split is smooth
    or the smooth one holds, with an exponent nonzero mod ell, a prime
    the table lacks, and reads m = sum e_q theta(q) + sigma*(p-1)/2 - s.
    The answer is verified against a^((p-1)/ell) = (g^((p-1)/ell))^m
    before returning.  g must be a unit mod p whose (p-1)/ell-th power
    is not 1, or BadInput is raised.  When a `counters` dict is given,
    the table's counters (`build_theta_table`) and the descent's
    rejections, "descent_not_smooth" and "descent_undetermined", are
    written into it; the BudgetExhausted raised after descent_budget
    splits carries the descent's alone.
    """
    if not is_prime(p) or not is_prime(ell):
        raise BadInput(f"p = {p} and ell = {ell} must be primes")
    if (p - 1) % ell != 0:
        raise BadInput(f"{ell} must divide p - 1")
    h = pow(g, (p - 1) // ell, p)
    if h in (0, 1):  # h = 0 exactly when p divides g
        raise BadInput(f"g = {g} must be a unit mod {p} and not an ell-th power")
    a %= p
    if a == 0:
        raise BadInput("target must be a unit mod p")
    if a == 1:
        return 0
    bound = _base_bound(bound, p)
    if counters is None:
        counters = {}
    if theta is None:
        theta = build_theta_table(p, ell, g, bound, seed, counters=counters)
    rng = rng_for(seed, "descent", a)
    descent = {"descent_not_smooth": 0, "descent_undetermined": 0}
    for _ in range(descent_budget):
        s = rng.randrange(0, p - 1)
        split = _split_smooth(a * pow(g, s, p) % p, p, bound)
        if split is None:
            descent["descent_not_smooth"] += 1
            continue
        sigma, exponents = split
        if any(e % ell and q not in theta for q, e in exponents.items()):
            descent["descent_undetermined"] += 1
            continue
        m = (sum(e * theta.get(q, 0) for q, e in exponents.items())
             + sigma * ((p - 1) // 2) - s) % ell
        if pow(a, (p - 1) // ell, p) != pow(h, m, p):
            raise VerificationFailed(
                "index-calculus answer failed the power-residue cross-check")
        counters.update(descent)
        return m
    counters.update(descent)
    raise BudgetExhausted(descent_budget, descent)


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
    if not is_prime(p) or not is_prime(ell):
        raise BadInput(f"p = {p} and ell = {ell} must be primes")
    if (p - 1) % ell != 0:
        raise BadInput(f"{ell} must divide p - 1")
    a = _as_fraction(a)
    if a == 0:
        raise BadSupport("a must be nonzero")
    g = least_primitive_root(p)
    if site == "p":
        if a.numerator % p == 0 or a.denominator % p == 0:
            raise BadSupport(f"a must be a unit at {p}")
        residue = a.numerator * pow(a.denominator, -1, p) % p
        return dlog_mod_ell(g, residue, p, ell)
    q = int(site)
    if q == p:
        raise BadSupport("use site 'p' for the ramified prime")
    if not is_prime(q):
        raise BadSupport(f"site {q} is not prime")
    v = _valuation(a, q)
    return (-v * dlog_mod_ell(g, q, p, ell)) % ell


def reciprocity_suite(p: int, ell: int, trials: int, seed: int):
    """Rows of the reciprocity check, one per trial i whose S-unit is
    not 1: a = prod q^e over the primes q < 20 other than p, with each e
    in [-3, 3] drawn from rng_for(seed, "reciprocity", i), and the
    pairing values of a at p and at its support, which must sum to
    0 mod ell."""
    support = [q for q in primes_up_to(20) if q != p]
    for i in range(trials):
        rng = rng_for(seed, "reciprocity", i)
        exponents = {q: rng.randrange(-3, 4) for q in support}
        a = prod(Fraction(q) ** e for q, e in exponents.items())
        if a == 1:
            continue
        total = rational_character_pairing(p, ell, "p", a)
        for q, e in exponents.items():
            if e:
                total += rational_character_pairing(p, ell, q, a)
        yield {"trial": i, "sum": total % ell, "ok": total % ell == 0,
               "exponents": {str(q): e for q, e in exponents.items()}}
