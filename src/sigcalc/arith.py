"""Exact modular and p-adic arithmetic primitives.

Primality, factorisation and least primitive roots, Hensel lifting of
square roots, the 1-unit exponent of a unit modulo ell^2, a
generic baby-step giant-step discrete log, power residue tests,
smoothness factoring, and the one sparse Gauss-Jordan eliminator over
F_ell that every module shares.  Everything is a pure function of its
inputs.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd, isqrt, prod

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
    "hensel_sqrt",
    "lift_sqrt",
    "teichmuller",
    "bsgs_dlog",
    "mult_group_ops",
    "ell_power_residue_test",
    "factor_smooth",
    "primes_up_to",
    "is_prime",
    "factorint",
    "least_primitive_root",
    "integer_cbrt",
    "sqrt_mod_prime",
    "jacobi",
    "gauss_reduce",
    "row_reduce_mod",
    "rank_mod",
    "parse_decimal",
    "parse_pair",
    "require_known_keys",
]


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


def _brent_rho(n: int) -> int:
    """A proper factor of the odd composite n (Brent's variant of
    Pollard rho, with deterministic increments c = 1, 2, ...)."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


_TRIAL_BOUND = 1 << 10


def factorint(n: int) -> dict[int, int]:
    """Prime factorisation {prime: exponent} of n >= 1, primes ascending.

    Trial division by the primes below 2^10, then Brent-Pollard rho on
    whatever composite cofactor remains.
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

    while n > 1:
        q = n
        while not prime(q):
            q = _brent_rho(q)
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


def integer_cbrt(n: int) -> int:
    """floor(n^(1/3)) for n >= 0, by Newton's iteration from above."""
    if n < 0:
        raise BadInput("n must be non-negative")
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


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


def hensel_sqrt(n: int, q: int, k: int) -> int:
    """Square root of n mod q**k for an odd prime q not dividing n.

    Root selection is canonical: the returned root reduces mod q into
    [1, (q-1)/2], so conjugate labellings are reproducible across runs.
    """
    if k < 1:
        raise BadInput("precision k must be >= 1")
    if q < 3 or q % 2 == 0:
        raise BadInput("q must be an odd prime")
    n0 = n % q
    if n0 == 0:
        raise Ramified(f"{q} divides {n}")
    if pow(n0, (q - 1) // 2, q) != 1:
        raise NonResidue(f"{n} is not a quadratic residue mod {q}")
    r = sqrt_mod_prime(n0, q)
    if not 1 <= r <= (q - 1) // 2:
        r = q - r
    return lift_sqrt(n, r, q, k)


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

    xi is obtained as the fixed point of repeated ell-th powering mod
    ell**2 (one powering already lands on the fixed point at this
    precision), then y = ((x * xi^-1 mod ell^2) - 1) / ell.
    """
    m = ell * ell
    x %= m
    if x % ell == 0:
        raise NotAUnit(f"{x} is divisible by {ell}")
    xi = pow(x, ell, m)
    while pow(xi, ell, m) != xi:
        xi = pow(xi, ell, m)
    return (x * pow(xi, -1, m) % m - 1) // ell


def mult_group_ops(p: int) -> dict:
    """Operation table of F_p^* for bsgs_dlog."""
    return {
        "op": lambda a, b: a * b % p,
        "identity": 1,
        "invert": lambda a: pow(a, -1, p),
    }


def bsgs_dlog(generator, target, group_order: int, *, op, identity, invert) -> int:
    """Least m >= 0 with m*generator = target (additive notation).

    The group is supplied through its operation table; elements must be
    hashable.  Baby table size is ceil(sqrt(group_order)).
    """
    if group_order < 1:
        raise BadInput("group order must be positive")
    s = isqrt(group_order - 1) + 1 if group_order > 1 else 1
    table: dict = {}
    e = identity
    for j in range(s):
        table.setdefault(e, j)
        e = op(e, generator)
    giant = invert(e)  # e is now s * generator
    gamma = target
    for i in range(s + 1):
        j = table.get(gamma)
        if j is not None:
            m = i * s + j
            if m < group_order:
                return m
        gamma = op(gamma, giant)
    raise NotInSubgroup("target is not a multiple of the generator")


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
    above the bound remains.
    """
    if n < 1:
        raise BadInput("n must be a positive integer")
    if n == 1:
        return {}
    cofactor = smooth_cofactor(n, bound)
    if cofactor > 1:
        raise NotSmooth(cofactor)
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


def row_reduce_mod(rows, ell: int) -> dict:
    """Gauss-Jordan elimination over F_ell of sparse rows.

    Each row is a pair ({column: coefficient}, right-hand side).  Rows
    are taken lightest first and each pivots on its column that occurs
    in the fewest input rows, which keeps fill-in low.  Returns the
    reduced row echelon form as {pivot column: (row, right-hand side)},
    where a row holds only free (non-pivot) columns and the pivot's own
    coefficient 1 is implicit.  Its length is the rank, and a pivot
    whose row is empty is determined: it equals the right-hand side.
    Raises Inconsistent when a row reduces to 0 = nonzero.
    """
    work = []
    for coeffs, const in rows:
        work.append(({c: v % ell for c, v in coeffs.items() if v % ell}, const % ell))
    occurrences = Counter(c for row, _ in work for c in row)
    work.sort(key=lambda item: len(item[0]))
    pivot_rows: dict = {}
    pivot_consts: dict = {}
    for row, const in work:
        # pivot rows hold no pivot columns, so one pass clears them all
        for col in [c for c in row if c in pivot_rows]:
            f = row.pop(col)
            _subtract_row(row, f, pivot_rows[col], ell)
            const = (const - f * pivot_consts[col]) % ell
        if not row:
            if const:
                raise Inconsistent("0 = nonzero row after elimination")
            continue
        pivot = min(row, key=occurrences.__getitem__)
        inv = pow(row.pop(pivot), -1, ell)
        if inv != 1:
            row = {c: v * inv % ell for c, v in row.items()}
            const = const * inv % ell
        for col, other in pivot_rows.items():
            f = other.pop(pivot, 0)
            if f:
                _subtract_row(other, f, row, ell)
                pivot_consts[col] = (pivot_consts[col] - f * const) % ell
        pivot_rows[pivot] = row
        pivot_consts[pivot] = const
    return {col: (row, pivot_consts[col]) for col, row in pivot_rows.items()}


def rank_mod(matrix: list[list[int]], ell: int) -> int:
    """Rank over F_ell of a dense integer matrix."""
    return len(row_reduce_mod([(dict(enumerate(r)), 0) for r in matrix], ell))
