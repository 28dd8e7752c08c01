"""Exact modular and p-adic arithmetic primitives.

Primality, factorisation and least primitive roots, Hensel lifting of
square roots, the 1-unit exponent of a unit modulo ell^2, a baby-step
giant-step discrete log in batched steps and its projection onto the
order-ell subgroup of F_p^*, power residue tests, smoothness factoring,
the one sparse Gauss-Jordan eliminator over F_ell that every module
shares, which takes rows in batches, and the canonical JSON form that
reports and instance files are written in.
Everything else is a pure function of its inputs.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from math import gcd, inf, isqrt, prod

from .errors import (
    BadInput,
    Inconsistent,
    NonResidue,
    NotAUnit,
    NotInSubgroup,
    NotSmooth,
    Ramified,
)

__all__ = [
    "lift_sqrt",
    "teichmuller",
    "bsgs_dlog",
    "dlog_mod_ell",
    "mult_group_ops",
    "ell_power_residue_test",
    "factor_smooth",
    "primes_up_to",
    "is_prime",
    "factorint",
    "least_primitive_root",
    "multiplicative_order",
    "sqrt_mod_prime",
    "jacobi",
    "gauss_reduce",
    "Eliminator",
    "rank_mod",
    "canonical_json",
    "parse_decimal",
    "parse_pair",
    "require_known_keys",
]


def _decimal_strings(obj):
    """obj with every int (bools aside) a decimal string, at any depth."""
    if isinstance(obj, dict):
        return {str(k): _decimal_strings(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_decimal_strings(v) for v in obj]
    return str(obj) if isinstance(obj, int) and not isinstance(obj, bool) else obj


def canonical_json(doc) -> str:
    """One JSON line with sorted keys and every int a decimal string, the
    form of reports and instance files; parse_decimal reads it back."""
    return json.dumps(_decimal_strings(doc), sort_keys=True, separators=(", ", ": "))


def parse_decimal(value) -> int:
    """int(value) for a decimal string as str(n) writes it; any other
    value (12, true, "+12", "012", " 12", "-0") raises ValueError, so a
    file of such strings that loads re-saves byte for byte."""
    if not isinstance(value, str) or str(int(value)) != value:
        raise ValueError(f"not a canonical decimal string: {value!r}")
    return int(value)


def parse_pair(value, parse=parse_decimal) -> tuple:
    """The parsed entries of a two-element list; ValueError otherwise."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"not a list of two entries: {value!r}")
    return parse(value[0]), parse(value[1])


def require_known_keys(doc, keys) -> None:
    """BadInput when the JSON object doc holds a key outside keys: a
    loader would drop it, so the file would not re-save byte for byte."""
    if not isinstance(doc, dict):
        raise ValueError(f"not a JSON object: {doc!r}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise BadInput(f"unknown keys in instance file: {unknown}")


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound by sieve."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise BadInput("jacobi symbol needs odd n > 0")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=None)
def _primes(bound: int) -> tuple[int, ...]:
    """primes_up_to(bound), sieved once per bound."""
    return tuple(primes_up_to(bound))


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_SMALL_PRIMORIAL = prod(_SMALL_PRIMES)
# Miller-Rabin to the first k prime bases is exact below psi_k, the
# least strong pseudoprime to all of them (Jaeschke 1993; Sorenson and
# Webster 2015 for psi_12 and psi_13).
_MR_BASES = (
    (2047, _SMALL_PRIMES[:1]),
    (1373653, _SMALL_PRIMES[:2]),
    (25326001, _SMALL_PRIMES[:3]),
    (3215031751, _SMALL_PRIMES[:4]),
    (2152302898747, _SMALL_PRIMES[:5]),
    (3474749660383, _SMALL_PRIMES[:6]),
    (341550071728321, _SMALL_PRIMES[:7]),
    (3825123056546413051, _SMALL_PRIMES[:9]),
    (318665857834031151167461, _SMALL_PRIMES[:12]),
    (3317044064679887385961981, _SMALL_PRIMES[:13]),
)


def _strong_probable_prime(n: int, base: int, d: int, s: int) -> bool:
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (P = 1, Q = (1-D)/4)."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while jacobi(D, n) != -1:
        if gcd(D, n) > 1:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":  # (U_k, V_k) -> (U_k+1, V_k+1), halving mod n
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality: Miller-Rabin with the least base set that is exact for
    n's size, and Baillie-PSW (base 2 plus strong Lucas) above 3.3e24."""
    if n < 2:
        return False
    if gcd(n, _SMALL_PRIMORIAL) != 1:
        return n in _SMALL_PRIMES
    if n < 53 * 53:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, bases in _MR_BASES:
        if n < bound:
            return all(_strong_probable_prime(n, b, d, s) for b in bases)
    return _strong_probable_prime(n, 2, d, s) and _strong_lucas_probable_prime(n)


def _brent_rho(n: int, left: float) -> tuple[int, float]:
    """(g, left): a proper factor g of the odd composite n (Brent's variant
    of Pollard rho, with deterministic increments c = 1, 2, ...) and what
    remains of a budget of `left` steps y -> y^2 + c.  g = 0, at once,
    when the next run of steps would overspend the budget."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            left -= r
            if left < 0:
                return 0, left
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                left -= steps
                if left < 0:
                    return 0, left
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product overshot: step back one at a time
            g = 1
            while g == 1:
                left -= 1
                if left < 0:
                    return 0, left
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, left


_TRIAL_BOUND = 1 << 10


def factorint(n: int, max_steps: int | None = None) -> dict[int, int] | None:
    """Prime factorisation {prime: exponent} of n >= 1, primes ascending.

    Trial division by the primes below 2^10, then Brent-Pollard rho on
    whatever composite cofactor remains.  Given max_steps, None when rho
    needs more than max_steps steps over the whole of n.
    """
    if n < 1:
        raise BadInput("n must be a positive integer")
    factors: dict[int, int] = {}
    for q in _primes(_TRIAL_BOUND):
        if q * q > n:
            break
        if n % q == 0:
            e = 0
            while n % q == 0:
                n //= q
                e += 1
            factors[q] = e
    # no factor below the trial bound is left, so below its square is prime
    def prime(m):
        return m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m)

    left = inf if max_steps is None else max_steps
    while n > 1:
        q = n
        while not prime(q):
            q, left = _brent_rho(q, left)
            if not q:
                return None
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        factors[q] = e
    return dict(sorted(factors.items()))


def least_primitive_root(p: int) -> int:
    """The least generator of F_p^* for a prime p."""
    if not is_prime(p):
        raise BadInput(f"{p} is not prime")
    if p == 2:
        return 1
    cofactors = [(p - 1) // q for q in factorint(p - 1)]
    g = 2
    while any(pow(g, e, p) == 1 for e in cofactors):
        g += 1
    return g


def multiplicative_order(g: int, p: int) -> int:
    """The order of the unit g in F_p^* for a prime p: p - 1 stripped of
    every prime power of factorint(p - 1) that g^order = 1 allows."""
    if not is_prime(p):
        raise BadInput(f"{p} is not prime")
    if g % p == 0:
        raise BadInput(f"g = {g} must be a unit mod {p}")
    order = p - 1
    for q, e in factorint(p - 1).items():
        for _ in range(e):
            if pow(g, order // q, p) != 1:
                break
            order //= q
    return order


def sqrt_mod_prime(n: int, q: int) -> int:
    """A square root of n mod odd prime q (Tonelli-Shanks); n must be a QR."""
    n %= q
    if n == 0:
        return 0
    if jacobi(n, q) != 1:
        raise NonResidue(f"{n} is not a square mod {q}")
    if q % 4 == 3:
        return pow(n, (q + 1) // 4, q)
    # write q-1 = t * 2^s with t odd
    t, s = q - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    z = 2
    while jacobi(z, q) != -1:
        z += 1
    c = pow(z, t, q)
    x = pow(n, (t + 1) // 2, q)
    b = pow(n, t, q)
    m = s
    while b != 1:
        i, e = 0, b
        while e != 1:
            e = e * e % q
            i += 1
        f = pow(c, 1 << (m - i - 1), q)
        x = x * f % q
        c = f * f % q
        b = b * c % q
        m = i
    return x


def lift_sqrt(n: int, root: int, q: int, k: int) -> int:
    """The square root of n mod q**k that reduces to `root` mod q, for
    an odd prime q and root^2 = n != 0 mod q; k >= 1."""
    x, prec = root % q, 1
    while prec < k:
        prec = min(2 * prec, k)
        mod = q**prec
        # Newton step x -> (x + n/x)/2 fixes the mod-q residue
        x = (x + (n % mod) * pow(x, -1, mod)) * pow(2, -1, mod) % mod
    return x


def sqrt_2adic(n: int, k: int) -> int:
    """The square root of n in Z_2 that is 1 mod 4, returned mod 2**k.

    Requires n = 1 mod 8 (the solvable unit case).
    """
    if n % 2 == 0:
        raise Ramified(f"2 divides {n}")
    if n % 8 != 1:
        raise NonResidue(f"{n} is not a 2-adic square")
    x = 1
    for j in range(3, k):
        # x is a root mod 2^j; adjust by 2^(j-1) to reach mod 2^(j+1)
        if ((x * x - n) >> j) & 1:
            x += 1 << (j - 1)
    return x % (1 << k)


def teichmuller(x: int, ell: int) -> int:
    """The 1-unit exponent y in [0, ell) of a unit x mod ell**2, written
    as xi*(1 + y*ell) with xi^(ell-1) = 1.

    x^(ell-1) = (1 + y*ell)^(ell-1) = 1 - y*ell mod ell^2, so y is read
    off one power: y = ((1 - x^(ell-1)) mod ell^2) / ell.
    """
    m = ell * ell
    if x % ell == 0:
        raise NotAUnit(f"{x % m} is divisible by {ell}")
    return (1 - pow(x, ell - 1, m)) % m // ell


def mult_group_ops(p: int) -> dict:
    """Operation table of F_p^* for bsgs_dlog."""
    return {
        "identity": 1,
        "shift": lambda elements, t: [e * t % p for e in elements],
        "invert": lambda e: pow(e, -1, p),
    }


def _multiples(generator, count: int, identity, shift) -> list:
    """[j*generator for j in range(count)], count >= 1, in log2(count)
    shifts: each round adds step = len(found)*generator to a prefix of
    found and doubles step in the same batch."""
    found, step = [identity], generator
    while len(found) < count:
        *more, step = shift(found[: count - len(found)] + [step], step)
        found += more
    return found


def bsgs_dlog(generator, target, group_order: int, *, identity, shift, invert,
              key=None) -> int:
    """Least m in [0, group_order) with m*generator = target (additive
    notation); NotInSubgroup when there is none.

    The group is supplied through its operation table: the identity,
    shift(elements, t) returning every e + t, and invert.  Elements must
    be hashable.  Baby steps are multiples j*generator, giant steps
    subtract a fixed stride from the target, both taken in batches.  A
    table may also supply key(e), shared by e and -e alone (a point's
    x-coordinate): then the baby steps run over j in [0, s] with
    s = isqrt(n)//2 for n = group_order, giant step i matches
    m = i*(2s + 1) +- j (the negation map), and the stride is 2s + 1.
    That s balances the s baby steps against the n/(4s) giant steps a
    search takes on average; sqrt(n/2) would balance them against the
    n/(2s) of the worst case.  Without a key the baby steps run over
    [0, s) with s = ceil(sqrt(n)), giant step i matches m = i*s + j,
    and the stride is s.  A batch of giant steps whose keys all miss
    the table costs one set check.
    """
    if group_order < 1:
        raise BadInput("group order must be positive")
    if key is None:
        s = isqrt(group_order - 1) + 1
        baby = _multiples(generator, s + 1, identity, shift)
        stride = baby.pop()
        keys, low, span = baby, 0, s
    else:
        s = isqrt(group_order) // 2
        baby = _multiples(generator, s + 2, identity, shift)
        stride = shift([baby.pop()], baby[s])[0]  # (s + 1) + s
        keys, low, span = list(map(key, baby)), -s, 2 * s + 1
    table = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # least j wins
    if len(table) < len(keys) and key is not None:
        # j*generator = +-j'*generator for some j != j' <= s: the order of
        # the generator is below 2s, and the plain table covers that case
        return bsgs_dlog(generator, target, group_order, identity=identity,
                         shift=shift, invert=invert)
    giants = -((low - group_order) // span)  # giant i covers i*span + [low, low + span)
    # a batch of giant steps costs one shift, and the search overshoots
    # its match by less than a batch: about 2*sqrt(giants) balances them
    width = min(giants, 2 * isqrt(giants) + 1)
    *steps, leap = _multiples(invert(stride), width + 1, identity, shift)
    gammas = shift(steps, target)  # gammas[n] = target - (start + n)*stride
    for start in range(0, giants, width):
        if start:
            gammas = shift(gammas, leap)
        keyed = gammas if key is None else list(map(key, gammas))
        if table.keys().isdisjoint(keyed):
            continue
        for n, j in enumerate(map(table.get, keyed)):
            if j is None:
                continue
            base, P = (start + n) * span, baby[j]
            m = base + j
            if key is not None and (gammas[n] != P or base >= j and invert(P) == P):
                m = base - j  # gamma = -P; for P = -P the lower value is the least
            if m >= group_order:
                raise NotInSubgroup("target is not a multiple of the generator")
            if m >= 0:
                return m
    raise NotInSubgroup("target is not a multiple of the generator")


def dlog_mod_ell(g: int, a: int, p: int, ell: int) -> int:
    """log_g(a) mod ell in F_p^*, for a prime ell dividing p - 1 and ell
    dividing the order of g: the log of a^e to the base g^e, e =
    (p-1)/ell, in the order-ell subgroup (the Pohlig-Hellman step)."""
    e = (p - 1) // ell
    return bsgs_dlog(pow(g, e, p), pow(a, e, p), ell, **mult_group_ops(p))


def ell_power_residue_test(a: int, p: int, ell: int) -> bool:
    """True iff a^((p-1)/ell) = 1 mod p, i.e. a is an ell-th power residue."""
    if (p - 1) % ell != 0:
        raise BadInput(f"{ell} does not divide {p} - 1")
    if a % p == 0:
        raise BadInput(f"{p} divides {a}")
    return pow(a, (p - 1) // ell, p) == 1


@lru_cache(maxsize=None)
def _prime_product(bound: int) -> int:
    return prod(_primes(bound))


def smooth_cofactor(n: int, bound: int) -> int:
    """The part of n coprime to every prime <= bound (fast gcd screen)."""
    r = n
    g = gcd(r, _prime_product(bound))
    while g > 1:
        r //= g
        g = gcd(r, g)
    return r


def factor_smooth(n: int, bound: int) -> dict[int, int]:
    """Full factorisation of n by trial division over primes <= bound.

    Raises NotSmooth (carrying the surviving cofactor) when a factor
    above the bound remains.  Callers that expect most n to fail screen
    them first with smooth_cofactor, which is cheaper on a non-smooth n.
    """
    if n < 1:
        raise BadInput("n must be a positive integer")
    factors: dict[int, int] = {}
    rem = n
    for q in _primes(bound):
        if rem == 1:
            break
        if rem % q == 0:
            e = 0
            while rem % q == 0:
                rem //= q
                e += 1
            factors[q] = e
    if rem > 1:
        raise NotSmooth(rem)
    return factors


def gauss_reduce(u: tuple[int, int], v: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Lagrange-Gauss reduction of a basis (u, v) of a lattice in Z^2.

    Returns a basis (b1, b2) of the same lattice with |b1| <= |b2| and
    |b1.b2| <= |b1|^2 / 2, so b1 is a shortest nonzero vector.  Each
    size reduction subtracts the nearest integer multiple, rounded
    exactly in integers.
    """
    if u[0] * v[1] - u[1] * v[0] == 0:
        raise BadInput("the basis vectors must be independent")

    def norm2(w):
        return w[0] * w[0] + w[1] * w[1]

    if norm2(u) > norm2(v):
        u, v = v, u
    while True:
        n = norm2(u)
        q = (2 * (u[0] * v[0] + u[1] * v[1]) + n) // (2 * n)
        v = (v[0] - q * u[0], v[1] - q * u[1])
        if norm2(v) >= n:
            return u, v
        u, v = v, u


# ---------------------------------------------------------------------------
# sparse linear algebra over F_ell


def _subtract_row(row: dict, f: int, other: dict, ell: int) -> None:
    """row -= f * other over F_ell, in place, dropping zero entries."""
    for c, v in other.items():
        x = (row.get(c, 0) - f * v) % ell
        if x:
            row[c] = x
        else:
            row.pop(c, None)


class Eliminator:
    """Gauss-Jordan elimination over F_ell of sparse rows, fed in batches.

    A row is {column: coefficient}, as a mapping or as pairs, with
    every coefficient in [1, ell), and a right-hand side.  The state is
    the reduced row echelon form of the rows added so far: `rows` maps
    each pivot column to its row, which holds only free (non-pivot)
    columns with the pivot's own coefficient 1 implicit, and `consts`
    to its right-hand side.  len(rows) is the rank.  A row pivots on
    its column of fewest `occurrences`, which keeps fill-in low: the
    count of the rows added so far that hold it, where a batch is
    counted whole before its first row goes in.
    """

    def __init__(self, ell: int):
        self.ell = ell
        self.rows: dict = {}
        self.consts: dict = {}
        self.occurrences = Counter()

    def add(self, rows) -> None:
        """Add a batch of (coeffs, const) rows: count the columns of the
        whole batch, then reduce each row, lightest first, against the
        pivots and keep what is left, if anything, as a new pivot row.
        Raises Inconsistent when a row reduces to 0 = nonzero: that row
        changes neither rows nor consts, and the rows before it stay."""
        batch = [(dict(coeffs), const) for coeffs, const in rows]
        for row, _ in batch:
            self.occurrences.update(row.keys())
        for row, const in sorted(batch, key=lambda item: len(item[0])):
            self._absorb(row, const)

    def _absorb(self, row: dict, const: int) -> None:
        ell, rows, consts = self.ell, self.rows, self.consts
        const %= ell
        # pivot rows hold no pivot columns, so one pass clears them all
        for col in [c for c in row if c in rows]:
            f = row.pop(col)
            _subtract_row(row, f, rows[col], ell)
            const = (const - f * consts[col]) % ell
        if not row:
            if const:
                raise Inconsistent("0 = nonzero row after elimination")
            return
        pivot = min(row, key=self.occurrences.__getitem__)
        inv = pow(row.pop(pivot), -1, ell)
        if inv != 1:
            row = {c: v * inv % ell for c, v in row.items()}
            const = const * inv % ell
        for col, other in rows.items():
            f = other.pop(pivot, 0)
            if f:
                _subtract_row(other, f, row, ell)
                consts[col] = (consts[col] - f * const) % ell
        rows[pivot] = row
        consts[pivot] = const

    def determined(self, col) -> bool:
        """Whether every solution gives col one value, consts[col]: col
        is a pivot whose row holds no free column."""
        return col in self.rows and not self.rows[col]


def rank_mod(matrix: list[list[int]], ell: int) -> int:
    """Rank over F_ell of a dense integer matrix."""
    elim = Eliminator(ell)
    elim.add(({c: v % ell for c, v in enumerate(row) if v % ell}, 0) for row in matrix)
    return len(elim.rows)
