import random
from math import isqrt

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from sigcalc.arith import (
    bsgs_dlog,
    ell_power_residue_test,
    factor_smooth,
    factorint,
    gauss_reduce,
    hensel_sqrt,
    integer_cbrt,
    is_prime,
    jacobi,
    least_primitive_root,
    mult_group_ops,
    primes_up_to,
    rank_mod,
    row_reduce_mod,
    sqrt_2adic,
    sqrt_mod_prime,
    teichmuller,
)
from sigcalc.errors import (
    BadInput,
    Inconsistent,
    NonResidue,
    NotAUnit,
    NotInSubgroup,
    NotSmooth,
    Ramified,
    RankDeficient,
)
from sigcalc.indexcalc import Relation, solve_linear_mod_ell

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def brute_sqrt_mod(n, modulus):
    return sorted(x for x in range(modulus) if x * x % modulus == n % modulus)


class TestHenselSqrt:
    def test_identity(self):
        assert hensel_sqrt(1, 7, 3) == 1

    def test_exact_square(self):
        # canonical root of 4 mod 5^3 is 2 (base residue 2 <= (5-1)/2)
        assert hensel_sqrt(4, 5, 3) == 2

    def test_one_lift_step(self):
        # base root 3 of 2 mod 7; one lift reaches 10 with 10^2 = 100 = 2 mod 49
        root = hensel_sqrt(2, 7, 2)
        assert root == 10
        assert root**2 % 49 == 2
        # brute-force oracle: roots of 2 mod 49 are {10, 39}; 10 = 3 mod 7 is canonical
        assert brute_sqrt_mod(2, 49) == [10, 39]

    def test_non_residue_rejected(self):
        with pytest.raises(NonResidue):
            hensel_sqrt(3, 7, 2)

    def test_ramified_rejected(self):
        with pytest.raises(Ramified):
            hensel_sqrt(14, 7, 2)

    @given(st.sampled_from(ODD_PRIMES), st.integers(1, 5), st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_square_property(self, q, k, n):
        if n % q == 0 or jacobi(n % q, q) != 1:
            return
        x = hensel_sqrt(n, q, k)
        assert (x * x - n) % q**k == 0
        assert 1 <= x % q <= (q - 1) // 2


def teichmuller_pair(x, ell):
    """(xi, y) with x = xi*(1 + y*ell) mod ell^2: y from `teichmuller`,
    and xi = x*(1 + y*ell)^-1, which must be an (ell-1)-th root of 1."""
    m = ell * ell
    y = teichmuller(x, ell)
    xi = x * pow(1 + y * ell, -1, m) % m
    assert pow(xi, ell - 1, m) == 1
    return xi, y


class TestTeichmuller:
    def test_identity(self):
        assert teichmuller_pair(1, 7) == (1, 0)

    def test_one_unit(self):
        assert teichmuller_pair(1 + 11, 11) == (1, 1)

    def test_worked_decomposition(self):
        # 2^5 = 32 = 7 mod 25, 7^4 = 1 mod 25, and 2 * 7^-1 = 11 = 1 + 5*2
        assert teichmuller_pair(2, 5) == (7, 2)

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            teichmuller(10, 5)

    @given(st.sampled_from(ODD_PRIMES), st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, ell, x):
        if x % ell == 0:
            return
        _, y = teichmuller_pair(x, ell)
        assert 0 <= y < ell

    @given(st.sampled_from(ODD_PRIMES), st.integers(1, 10**4), st.integers(1, 10**4))
    @settings(max_examples=200, deadline=None)
    def test_y_is_additive(self, ell, x1, x2):
        if x1 % ell == 0 or x2 % ell == 0:
            return
        y12 = teichmuller(x1 * x2, ell)
        assert y12 == (teichmuller(x1, ell) + teichmuller(x2, ell)) % ell


class TestBsgs:
    def test_trivial_cases(self):
        ops = mult_group_ops(31)
        assert bsgs_dlog(3, 1, 30, **ops) == 0
        assert bsgs_dlog(3, 3, 30, **ops) == 1

    def test_worked_example(self):
        # 3^7 = 2187 = 17 mod 31, confirmed by exhaustive powering
        assert pow(3, 7, 31) == 17
        assert bsgs_dlog(3, 17, 30, **mult_group_ops(31)) == 7

    def test_not_in_subgroup(self):
        # 4 generates the squares mod 31; 3 is a non-square
        with pytest.raises(NotInSubgroup):
            bsgs_dlog(4, 3, 15, **mult_group_ops(31))

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, m):
        import sympy

        p = 104729  # prime
        g = sympy.primitive_root(p)
        m %= p - 1
        assert bsgs_dlog(g, pow(g, m, p), p - 1, **mult_group_ops(p)) == m


class TestPowerResidue:
    def test_one_is_always_residue(self):
        assert ell_power_residue_test(1, 31, 5)

    def test_non_residue(self):
        assert pow(2, 6, 31) == 2  # 2^6 = 64 = 2 mod 31
        assert not ell_power_residue_test(2, 31, 5)

    def test_fifth_power(self):
        assert pow(3, 5, 31) == 26
        assert ell_power_residue_test(26, 31, 5)

    def test_bad_input(self):
        with pytest.raises(BadInput):
            ell_power_residue_test(2, 31, 7)


class TestFactorSmooth:
    def test_one(self):
        assert factor_smooth(1, 10) == {}

    def test_full_factorisation(self):
        assert factor_smooth(12, 5) == {2: 2, 3: 1}

    def test_cofactor_reported(self):
        with pytest.raises(NotSmooth) as exc:
            factor_smooth(14, 5)
        assert exc.value.cofactor == 7

    @given(st.integers(1, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_reassembles(self, n):
        try:
            factors = factor_smooth(n, 100)
        except NotSmooth as exc:
            assert exc.cofactor > 100 or any(
                exc.cofactor % q == 0 for q in primes_up_to(10**5))
            return
        product = 1
        for q, e in factors.items():
            product *= q**e
        assert product == n


class TestTwoAdic:
    @given(st.integers(1, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_sqrt_2adic(self, n):
        if n % 8 != 1:
            return
        for k in (4, 8, 12):
            x = sqrt_2adic(n, k)
            assert (x * x - n) % (1 << k) == 0
            assert x % 4 == 1


def test_sqrt_mod_prime_matches_brute_force():
    for q in ODD_PRIMES:
        for n in range(1, q):
            if jacobi(n, q) == 1:
                r = sqrt_mod_prime(n, q)
                assert r * r % q == n


# ---------------------------------------------------------------------------
# number theory core, against sympy as the oracle

# psi_1..psi_9 of the Miller-Rabin base ladder: each is a strong
# pseudoprime to every base of the rung below it
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 3474749660383,
                       341550071728321, 3825123056546413051]
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161]


class TestIsPrime:
    def test_small_range(self):
        assert [n for n in range(3000) if is_prime(n)] == list(sympy.primerange(3000))

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
    def test_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)
        assert not sympy.isprime(n)

    @given(st.integers(0, 10**40))
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)

    @pytest.mark.parametrize("p", [43, 47, 53, 71])
    def test_base_two_pseudoprimes_beyond_the_ladder(self, p):
        # (4^p + 1)/5 is a strong pseudoprime to base 2 above 3.3e24,
        # where only the strong Lucas half of Baillie-PSW rejects it
        n = (4**p + 1) // 5
        assert n > 3317044064679887385961981 and pow(2, n - 1, n) == 1
        assert not is_prime(n)
        assert not sympy.isprime(n)

    @given(st.integers(2, 10**30), st.integers(2, 10**30))
    @settings(max_examples=100, deadline=None)
    def test_primes_and_their_products(self, a, b):
        p, q = sympy.nextprime(a), sympy.nextprime(b)
        assert is_prime(p) and is_prime(q)
        assert not is_prime(p * q)


class TestFactorint:
    @given(st.integers(1, 10**20))
    @settings(max_examples=200, deadline=None)
    def test_matches_sympy(self, n):
        assert factorint(n) == dict(sorted(sympy.factorint(n).items()))

    @given(st.integers(2**10, 2**26), st.integers(2**10, 2**26), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_products_of_large_primes(self, a, b, e):
        p, q = sympy.nextprime(a), sympy.nextprime(b)
        assert factorint(p**e * q) == dict(sorted(sympy.factorint(p**e * q).items()))

    def test_rejects_non_positive(self):
        with pytest.raises(BadInput):
            factorint(0)


class TestLeastPrimitiveRoot:
    def test_small_primes(self):
        for p in sympy.primerange(2, 5000):
            assert least_primitive_root(p) == sympy.primitive_root(p)

    @given(st.integers(2, 10**12))
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy(self, n):
        p = sympy.nextprime(n)
        assert least_primitive_root(p) == sympy.primitive_root(p)

    def test_composite_rejected(self):
        with pytest.raises(BadInput):
            least_primitive_root(1001)


class TestIntegerCbrt:
    @given(st.integers(0, 10**60))
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy(self, n):
        assert integer_cbrt(n) == sympy.integer_nthroot(n, 3)[0]

    def test_exact_cubes_and_neighbours(self):
        for r in range(1, 2000):
            assert integer_cbrt(r**3) == r
            assert integer_cbrt(r**3 - 1) == r - 1


# ---------------------------------------------------------------------------
# the sparse F_ell eliminator


def oracle_rank(rows, ncols, ell):
    F = sympy.GF(ell)
    if not rows:
        return 0
    return DomainMatrix([[F(v) for v in row] for row in rows], (len(rows), ncols), F).rank()


@st.composite
def sparse_systems(draw):
    """A random sparse system over F_ell with a planted solution."""
    ell = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    ncols = draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    truth = [rng.randrange(ell) for _ in range(ncols)]
    dense = []
    for _ in range(draw(st.integers(0, 12))):
        row = [rng.randrange(ell) if rng.random() < 0.4 else 0 for _ in range(ncols)]
        dense.append(row)
    consts = [sum(c * t for c, t in zip(row, truth)) % ell for row in dense]
    return ell, ncols, truth, dense, consts


class TestGaussReduce:
    @staticmethod
    def norm2(w):
        return w[0] * w[0] + w[1] * w[1]

    @given(st.integers(-60, 60), st.integers(-60, 60),
           st.integers(-60, 60), st.integers(-60, 60))
    def test_reduced_basis_of_the_same_lattice(self, a, b, c, d):
        det = a * d - b * c
        assume(det != 0)

        def in_lattice(r, s):
            return (r * d - s * c) % det == 0 and (a * s - b * r) % det == 0

        b1, b2 = gauss_reduce((a, b), (c, d))
        assert abs(b1[0] * b2[1] - b1[1] * b2[0]) == abs(det)
        assert in_lattice(*b1) and in_lattice(*b2)
        n1 = self.norm2(b1)
        assert n1 <= self.norm2(b2)
        assert 2 * abs(b1[0] * b2[0] + b1[1] * b2[1]) <= n1
        # no nonzero lattice vector is shorter than b1
        box = isqrt(n1)
        assert not any(in_lattice(r, s) and 0 < r * r + s * s < n1
                       for r in range(-box, box + 1) for s in range(-box, box + 1))

    def test_determinant_p_lattice(self):
        # L = {(r, s) : 396*r + s = 0 mod 1009}: 28*396 + 11 = 11*1009 and
        # 23*396 - 27 = 9*1009, two vectors near sqrt(1009) = 31.8 long
        # spanning a lattice of determinant 28*(-27) - 11*23 = -1009
        assert gauss_reduce((1, -396 % 1009), (0, 1009)) == ((28, 11), (23, -27))

    def test_dependent_basis_rejected(self):
        with pytest.raises(BadInput):
            gauss_reduce((2, 4), (-1, -2))


class TestSparseKernel:
    @given(sparse_systems())
    @settings(max_examples=300, deadline=None)
    def test_consistent_systems(self, system):
        ell, ncols, truth, dense, consts = system
        pivots = row_reduce_mod(
            [(dict(enumerate(row)), k) for row, k in zip(dense, consts)], ell)
        assert len(pivots) == oracle_rank(dense, ncols, ell)
        # free columns at zero give a particular solution: pivots = rhs
        x = {j: 0 for j in range(ncols)}
        x.update({col: k for col, (_, k) in pivots.items()})
        for row, k in zip(dense, consts):
            assert sum(c * x[j] for j, c in enumerate(row)) % ell == k
        # determined columns carry the planted values, and are exactly
        # those whose unit vector lies in the row space
        for j in range(ncols):
            unit = [int(i == j) for i in range(ncols)]
            determined = oracle_rank(dense + [unit], ncols, ell) == len(pivots)
            assert (j in pivots and not pivots[j][0]) == determined
            if determined:
                assert pivots[j][1] == truth[j]

    @given(sparse_systems())
    @settings(max_examples=200, deadline=None)
    def test_solver_rank_nullity_and_rank_deficiency(self, system):
        ell, ncols, truth, dense, consts = system
        unknowns = [f"c{j}" for j in range(ncols)]
        rels = [Relation.make({f"c{j}": c for j, c in enumerate(row)}, k, ell)
                for row, k in zip(dense, consts)]
        rank = oracle_rank(dense, ncols, ell)
        undetermined = [u for j, u in enumerate(unknowns)
                        if oracle_rank(dense + [[int(i == j) for i in range(ncols)]],
                                       ncols, ell) > rank]
        if undetermined:
            with pytest.raises(RankDeficient) as exc:
                solve_linear_mod_ell(rels, unknowns, ell)
            assert exc.value.undetermined == sorted(undetermined)
            return
        result = solve_linear_mod_ell(rels, unknowns, ell)
        assert result.rank == rank
        assert result.rank + result.nullity == len(result.columns) == ncols
        assert result.values == dict(zip(unknowns, truth))

    @given(sparse_systems(), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_inconsistent_systems(self, system, shift):
        ell, ncols, truth, dense, consts = system
        assume(dense and shift % ell)
        # a combination of the rows whose right-hand side is off by shift
        combo = [sum(row[j] for row in dense) % ell for j in range(ncols)]
        rows = [(dict(enumerate(row)), k) for row, k in zip(dense, consts)]
        rows.append((dict(enumerate(combo)), sum(consts) + shift))
        with pytest.raises(Inconsistent):
            row_reduce_mod(rows, ell)

    def test_rank_mod_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            ell = rng.choice([2, 3, 5, 7, 31])
            rows = [[rng.randrange(-50, 50) for _ in range(4)] for _ in range(2)]
            assert rank_mod(rows, ell) == oracle_rank(
                [[v % ell for v in row] for row in rows], 4, ell)

    def test_modulus_beyond_31_bits(self):
        ell = 2**61 - 1
        rng = random.Random(11)
        truth = {f"u{i}": rng.randrange(ell) for i in range(6)}
        rels = []
        for _ in range(9):
            coeffs = {k: rng.randrange(ell) for k in rng.sample(sorted(truth), 4)}
            const = sum(c * truth[k] for k, c in coeffs.items())
            rels.append(Relation.make(coeffs, const, ell))
        result = solve_linear_mod_ell(rels, list(truth), ell)
        assert result.values == truth
        assert result.rank == 6 and result.nullity == 0
