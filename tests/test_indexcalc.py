from collections import Counter
from fractions import Fraction

from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from sigcalc.arith import bsgs_dlog, least_primitive_root, mult_group_ops
from sigcalc.errors import (
    BadInput,
    BadSupport,
    BudgetExhausted,
    Inconsistent,
    RankDeficient,
    SigcalcError,
)
from sigcalc.indexcalc import (
    Relation,
    RelationSearch,
    build_theta_table,
    collect_relations,
    half_split,
    index_calculus_dlog,
    prune_singletons,
    rational_character_pairing,
    solve_linear_mod_ell,
    theta_column,
)
from sigcalc.seeds import rng_for


def brute_theta(p, g):
    """Exhaustive discrete log table for F_p^* (the relation oracle)."""
    table, value = {}, 1
    for r in range(p - 1):
        table[value] = r
        value = value * g % p
    return table


class TestRelations:
    def test_worked_relation_values(self):
        # 3^24 = 2 mod 31 (exhaustive powering), so theta(2) = 24 = 4 mod 5
        assert pow(3, 24, 31) == 2
        bound = 7
        relations = collect_relations(31, 5, 3, bound, 15, seed=0)
        by_const = {}
        for rel in relations:
            by_const[rel.const] = rel
        # the r = 24 relation reads theta(2) = 4
        rel = next(r for r in relations
                   if r.coeffs == ((theta_column(2), 1),) and r.const == 4)
        assert rel is not None

    def test_rejects_non_smooth(self):
        # 3^7 = 17 mod 31 and 17 > 7: never appears as a relation
        bound = 7
        relations = collect_relations(31, 5, 3, bound, 15, seed=0)
        theta = brute_theta(31, 3)
        for rel in relations:
            value = 1
            # reconstruct g^r from the row and confirm smoothness
            assert all(q <= 7 for q in
                       [int(c.split("(")[1][:-1]) for c, _ in rel.coeffs])

    def test_substituting_true_thetas(self):
        # relation semantics: true discrete logs satisfy every row exactly
        p, ell, g = 1019, 509, 2
        assert sympy.is_primitive_root(g, p)
        theta = brute_theta(p, g)
        bound = 30
        for rel in collect_relations(p, ell, g, bound, 40, seed=1):
            total = sum(c * theta[int(col.split("(")[1][:-1])]
                        for col, c in rel.coeffs)
            assert total % ell == rel.const % ell

    def test_deterministic(self):
        bound = 7
        a = collect_relations(31, 5, 3, bound, 10, seed=42)
        b = collect_relations(31, 5, 3, bound, 10, seed=42)
        assert a == b


class TestHalfSplit:
    @given(st.integers(3, 10**30), st.integers(1, 10**40))
    @settings(max_examples=300, deadline=None)
    def test_split_is_a_half_size_ratio(self, n, x):
        p = sympy.prevprime(n)
        x %= p
        assume(x != 0)
        u, v, sigma = half_split(x, p)
        assert u > 0 and v > 0 and gcd(u, v) == 1
        assert u * u < p and v * v <= p
        assert x * v % p == (-1) ** sigma * u % p

    def test_worked_split(self):
        # 3 = 1/(-2) mod 7: the remainders run 7, 3, 1 with cofactor -2
        assert half_split(3, 7) == (1, 2, 1)
        assert half_split(2, 31) == (2, 1, 0)


class TestCollection:
    def test_counters_sum_to_attempts(self):
        with pytest.raises(BudgetExhausted) as exc:
            collect_relations(1019, 509, 2, 3, 40, seed=0,
                              budget_factor=1)
        assert exc.value.attempts == 40
        assert sum(exc.value.counters.values()) == 40
        assert exc.value.counters["not_smooth"] > 0

    def test_descent_counters_sum_to_attempts(self):
        # an empty table leaves only the splits +-1 usable
        with pytest.raises(BudgetExhausted) as exc:
            index_calculus_dlog(10007, 5003, 5, 3, 200, seed=0, theta={},
                                descent_budget=50)
        assert sum(exc.value.counters.values()) == exc.value.attempts == 50
        assert exc.value.counters["descent_undetermined"] > 0

    def test_resumed_search_repeats_one_long_search(self):
        bound = 30
        search = RelationSearch()
        first = collect_relations(1019, 509, 2, bound, 10, seed=3, search=search)
        second = collect_relations(1019, 509, 2, bound, 10, seed=3, search=search)
        assert first + second == collect_relations(1019, 509, 2, bound, 20, seed=3)
        assert search.next_index > 0

    def test_stops_when_every_exponent_is_drawn(self):
        # only 9 exponents exist mod 11: ask for more and get what there is
        search = RelationSearch()
        relations = collect_relations(11, 5, 2, 3, 50, seed=0,
                                      search=search)
        assert search.exhausted(11) and 0 < len(relations) < 9
        assert collect_relations(11, 5, 2, 3, 50, seed=0,
                                 search=search) == []


class TestPruning:
    def test_prunes_singletons_repeatedly(self):
        ell = 7
        rows = [Relation.make({"a": 1, "b": 1}, 1, ell),
                Relation.make({"b": 1, "c": 1}, 2, ell),
                Relation.make({"c": 1}, 3, ell),
                Relation.make({"c": 1, "d": 1}, 4, ell),
                Relation.make({"c": 2}, 6, ell)]
        # a and d go first; that leaves b in one row, which goes next
        kept = prune_singletons(rows)
        assert kept == [rows[2], rows[4]]
        assert prune_singletons(kept) == kept
        assert solve_linear_mod_ell(kept, ["c"], ell).values == {"c": 3}
        assert solve_linear_mod_ell(rows, ["c"], ell).values["c"] == 3

    def test_a_lone_row_is_pruned(self):
        assert prune_singletons([Relation.make({"x": 1}, 1, 5)]) == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.dictionaries(st.sampled_from("abcdefghij"), st.integers(1, 6),
                                    max_size=4), max_size=25))
    def test_one_pass_matches_the_fixed_point_loop(self, rows):
        relations = [Relation.make(coeffs, i, 7) for i, coeffs in enumerate(rows)]
        assert prune_singletons(relations) == fixed_point_prune(relations)


def fixed_point_prune(relations):
    """Singleton pruning as rounds that each recount every column, until
    a round drops nothing."""
    kept = relations
    while True:
        weight = Counter(col for rel in kept for col in rel.columns)
        pruned = [rel for rel in kept if all(weight[col] > 1 for col in rel.columns)]
        if len(pruned) == len(kept):
            return kept
        kept = pruned


def _small_grid():
    for p in sympy.primerange(3, 150):
        for ell in sympy.primefactors(p - 1):
            for bound in (10, 50, 1000):
                for a in sorted({2 % p, 3 % p, p - 1} - {0}):
                    yield p, ell, bound, a


class TestSmallPrimeGrid:
    def test_matches_bsgs_or_raises_typed(self):
        # ell = 2 makes the sign term (p-1)/2 count; B = 1000 exceeds sqrt(p)
        failures = []
        for p, ell, bound, a in _small_grid():
            g = least_primitive_root(p)
            want = bsgs_dlog(g, a, p - 1, **mult_group_ops(p)) % ell
            try:
                m = index_calculus_dlog(p, ell, g, a, bound, seed=0)
            except SigcalcError:
                failures.append((p, ell, bound, a))
                continue
            assert m == want, (p, ell, bound, a)
        assert [case for case in failures if case[0] >= 29] == []


class TestSolver:
    def test_single_pinned_unknown(self):
        rel = Relation.make({"x": 1}, 4, 7)
        result = solve_linear_mod_ell([rel], ["x"], 7)
        assert result.values["x"] == 4

    def test_inconsistent(self):
        rels = [Relation.make({"x": 1}, 1, 7), Relation.make({"x": 1}, 2, 7)]
        with pytest.raises(Inconsistent):
            solve_linear_mod_ell(rels, [], 7)

    def test_rank_deficient_lists_unknowns(self):
        rel = Relation.make({"x": 1, "y": 1}, 0, 7)
        with pytest.raises(RankDeficient) as exc:
            solve_linear_mod_ell([rel], ["x", "y"], 7)
        assert set(exc.value.undetermined) == {"x", "y"}

    def test_solution_space_dimension(self):
        rel = Relation.make({"x": 1, "y": 1}, 0, 7)
        result = solve_linear_mod_ell([rel], [], 7)
        assert result.nullity == 1

    def test_random_systems_against_known_solution(self):
        rng = rng_for(5, "solver")
        ell = 101
        for _ in range(20):
            n = rng.randrange(2, 8)
            truth = {f"u{i}": rng.randrange(ell) for i in range(n)}
            rels = []
            for _ in range(n + 3):
                coeffs = {k: rng.randrange(ell) for k in truth}
                const = sum(c * truth[k] for k, c in coeffs.items()) % ell
                rels.append(Relation.make(coeffs, const, ell))
            try:
                result = solve_linear_mod_ell(rels, list(truth), ell)
            except RankDeficient:
                continue
            assert result.values == {k: v for k, v in truth.items()}


class TestIndexCalculus:
    def test_trivial_target(self):
        assert index_calculus_dlog(31, 5, 3, 1, 7, seed=0) == 0

    def test_generator_target(self):
        assert index_calculus_dlog(31, 5, 3, 3, 7, seed=0) == 1

    def test_worked_example(self):
        # full log is 7 (BSGS oracle), so the mod-5 answer is 2
        assert bsgs_dlog(3, 17, 30, **mult_group_ops(31)) == 7
        assert index_calculus_dlog(31, 5, 3, 17, 7, seed=0) == 2

    def test_matches_bsgs_on_mid_size_instance(self):
        p, ell = 10007, 5003  # p - 1 = 2 * 5003
        g = sympy.primitive_root(p)
        theta = build_theta_table(p, ell, g, 200, seed=0)
        ops = mult_group_ops(p)
        rng = rng_for(9, "targets")
        for _ in range(25):
            a = pow(g, rng.randrange(1, p - 1), p)
            m = index_calculus_dlog(p, ell, g, a, 200, seed=0, theta=theta)
            assert m == bsgs_dlog(g, a, p - 1, **ops) % ell

    def test_bad_ell(self):
        with pytest.raises(BadInput):
            index_calculus_dlog(31, 7, 3, 17, 7, seed=0)


class TestRationalCharacterPairing:
    def test_trivial(self):
        assert rational_character_pairing(31, 5, "p", 1) == 0
        assert rational_character_pairing(31, 5, 2, 1) == 0

    def test_worked_value(self):
        # theta(2) = 24 with g = 3 the least primitive root of 31
        assert rational_character_pairing(31, 5, "p", 2) == 24 % 5

    def test_prime_sites_cancel(self):
        # the site-q and site-p values of q itself sum to zero
        for q in (2, 3, 7, 11):
            total = rational_character_pairing(31, 5, "p", q) \
                + rational_character_pairing(31, 5, q, q)
            assert total % 5 == 0

    def test_bad_support(self):
        with pytest.raises(BadSupport):
            rational_character_pairing(31, 5, "p", 31)
        with pytest.raises(BadSupport):
            rational_character_pairing(31, 5, 31, 31)
        with pytest.raises(BadSupport):
            rational_character_pairing(31, 5, 4, 2)

    def test_reciprocity_100_units(self):
        # sum over all sites vanishes for random S-units
        p, ell = 31, 5
        support = [2, 3, 5, 7, 11, 13, 17, 19]
        rng = rng_for(11, "reciprocity")
        for _ in range(100):
            a = Fraction(1)
            exponents = {}
            for q in support:
                e = rng.randrange(-3, 4)
                exponents[q] = e
                a *= Fraction(q)**e
            if a == 1:
                continue
            total = rational_character_pairing(p, ell, "p", a)
            for q, e in exponents.items():
                if e:
                    total += rational_character_pairing(p, ell, q, a)
            assert total % ell == 0
