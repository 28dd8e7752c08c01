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
    _primes,
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
    "collect_relations",
    "SingletonPruner",
    "solve_linear_mod_ell",
    "SolveResult",
    "index_calculus_dlog",
    "build_theta_table",
    "rational_character_pairing",
    "reciprocity_suite",
]


class Relation:
    """A linear equation sum_i coeff_i * unknown_i = const over F_ell.

    coeffs holds (column, coefficient) pairs, sorted by column, with
    distinct columns and every coefficient in [1, ell); const is in
    [0, ell).  Column ids are distinct unknowns (the classical system
    names the log of a factor-base prime q by q itself).  Two relations
    are equal when their coeffs and consts are; the hash is taken once,
    at construction, as the solver's sets take a relation each round.
    """

    __slots__ = ("coeffs", "const", "_hash")

    def __init__(self, coeffs: tuple[tuple[object, int], ...], const: int):
        self.coeffs, self.const = coeffs, const
        self._hash = hash((coeffs, const))

    @classmethod
    def make(cls, coeffs: dict, const: int, ell: int) -> "Relation":
        """The relation of {column: coefficient} and const, reduced mod
        ell, with zero coefficients dropped."""
        cleaned = tuple(sorted((col, c % ell) for col, c in coeffs.items() if c % ell))
        return cls(cleaned, const % ell)

    def __eq__(self, other):
        if other.__class__ is not Relation:
            return NotImplemented
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Relation(coeffs={self.coeffs!r}, const={self.const!r})"


def _base_bound(bound: int, p: int) -> int:
    """max(2, min(bound, isqrt(p))): the factor base ends at sqrt(p),
    above which no prime divides the halves u, v of a half split; a
    neighbouring split that holds a larger prime counts as not smooth."""
    return max(2, min(bound, isqrt(p)))


def _split_smooth(x: int, p: int, bound: int):
    """(sigma, ((q, e), ...)) with x = (-1)^sigma * prod q^e mod p, the
    primes ascending and each e nonzero, read off the first split
    x = +-u/v of one Euclidean run on (p, x) whose u*v is bound-smooth;
    None when none is.

    The run keeps r_j = t_j * x mod p.  The half split (r_i, |t_i|) at
    the first remainder below sqrt(p) is screened first: u^2 < p and
    v^2 <= p, as |t_i| <= p / r_(i-1) <= sqrt(p) (Blake, Fuji-Hara,
    Mullin and Vanstone 1984).  Only when it is not smooth is its
    predecessor (r_(i-1), |t_(i-1)|) tried, skipped when t = 0, and
    only then one more step of the run taken, to its successor
    (r_(i+1), |t_(i+1)|), skipped when r = 0.  Each split has
    gcd(u, v) = 1 and u*v < p, as r_j * |t_j| < r_(j-1) * |t_j| <= p,
    r_(j-1)*|t_j| + r_j*|t_(j-1)| = p, and a common factor of r_j and
    t_j would divide p.  Each split tried costs one smooth_cofactor
    screen, and the smooth one a factor_smooth.  x must be a unit mod p.
    """
    r0, r1, t0, t1 = p, x, 0, 1
    while r1 * r1 >= p:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    # t1 and r0 are never 0; t0 is 0 when x^2 < p, and r2 when r1 = 1
    u, t = r1, t1
    if not (u and smooth_cofactor(u * abs(t), bound) == 1):
        u, t = r0, t0
        if not (t and smooth_cofactor(u * abs(t), bound) == 1):
            q = r0 // r1
            u, t = r0 - q * r1, t0 - q * t1
            if not (u and smooth_cofactor(u * abs(t), bound) == 1):
                return None
    v = abs(t)
    # u and v are coprime, so each prime of u*v belongs to one of them
    return int(t < 0), tuple([(q, -e if v % q == 0 else e)
                              for q, e in factor_smooth(u * v, bound).items()])


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
    g^r = (-1)^sigma * u/v with u*v < p in one pass (`_split_smooth`:
    the half split, u, v <= sqrt(p), then its two neighbouring
    convergents).  For the first split whose u*v is bound-smooth,
    sum_q (e_q(u) - e_q(v)) * theta(q) = r - sigma*(p-1)/2 mod ell, as
    log(-1) = (p-1)/2; the relation's sorted coefficients are the
    split's exponents mod ell, in the split's ascending order.  One draw
    gives at most one relation, and each attempt one outcome.  Trivial
    rows and repeated r are discarded.  Passing a `search` resumes it
    at its next index; the call stops early, with what it has, once
    every r in [1, p-2] has been drawn.  It keeps one counter per
    outcome ("not_smooth", "trivial", "duplicate", "accepted"), summing
    to the attempts made; they are added into `counters` when one is
    given, and carried by the BudgetExhausted raised after
    budget_factor * count attempts.  g must be a unit mod p, or
    BadInput is raised.  Deterministic in (inputs, seed).
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
        coeffs = tuple([(q, c) for q, e in exponents if (c := e % ell)])
        const = (r - sigma * half) % ell
        if not (coeffs or const):
            tally["trivial"] += 1
            continue
        drawn.add(r)
        relations.append(Relation(coeffs, const))
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
    rest are unchanged.  Each column's weight (the rows holding it) and
    the sum of those rows' indices are carried over all rows from call
    to call, so a column of weight 1 names its one row.  Each `add`
    peels copies of them, since new rows may hold up rows dropped
    before, even two that share a column.  The core only grows as rows
    are added, each of its columns held by two of its own rows, so the
    peel never reaches a row of the carried core: it costs only the
    rows outside it.
    """

    def __init__(self):
        self.relations: list[Relation] = []
        self.weight: dict = {}
        self.row_sum: dict = {}

    def add(self, new: list[Relation]) -> list[Relation]:
        """Append `new`; the core of every relation so far, in order."""
        relations, weight, row_sum = self.relations, self.weight, self.row_sum
        for i, rel in enumerate(new, len(relations)):
            for col, _ in rel.coeffs:
                weight[col] = weight.get(col, 0) + 1
                row_sum[col] = row_sum.get(col, 0) + i
        relations += new
        # dropping a row pushes every column it leaves with weight 1;
        # removal in any order reaches the same rows
        left, sums = weight.copy(), row_sum.copy()
        alive = [True] * len(relations)
        stack = [col for col, w in left.items() if w == 1]
        while stack:
            col = stack.pop()
            if left[col] != 1:
                continue  # its last row went with another column
            i = sums[col]
            alive[i] = False
            for other, _ in relations[i].coeffs:
                left[other] -= 1
                sums[other] -= i
                if left[other] == 1:
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
    `relations`, and nothing else; it takes the relations it lacks, as
    one batch (`Eliminator.add`), and `held` gains them.  A relation
    hashes once, so telling the new ones apart costs a set lookup each.
    The system then holds exactly `relations`, so the columns are those
    its `occurrences` count, with no pass over the rows.  Returns the
    value of every determined column of `relations` and the
    solution-space dimension over those columns.  Raises Inconsistent
    for contradictory systems.
    """
    new = [rel for rel in relations if rel not in held]
    system.add((rel.coeffs, rel.const) for rel in new)
    held.update(new)
    columns = sorted(system.occurrences)
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
    feeds the eliminator only the kept rows it lacks and reads the
    columns off it, with the values, rank and nullity of a fresh
    elimination.  No round asks for more than 4*(n + 16)
    relations in all, nor for more than the p-2 distinct exponents; a
    round at that ceiling that still leaves a column undetermined
    raises RankDeficient.  Once every exponent r has been drawn no
    round can add a relation, and the determined part of the table is
    returned as it stands.  When a `counters` dict is given, the relation outcomes
    of every round are added into it and "theta_rounds" is set to the
    rounds run.
    """
    if counters is None:
        counters = {}
    bound = _base_bound(bound, p)
    base = _primes(bound)
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
        if any(e % ell and q not in theta for q, e in exponents):
            descent["descent_undetermined"] += 1
            continue
        m = (sum(e * theta.get(q, 0) for q, e in exponents)
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
