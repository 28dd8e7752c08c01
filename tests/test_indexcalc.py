from collections import Counter
from fractions import Fraction

from math import ceil, gcd, isqrt

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from sigcalc.arith import (
    Eliminator,
    bsgs_dlog,
    factor_smooth,
    least_primitive_root,
    mult_group_ops,
    primes_up_to,
    smooth_cofactor,
)
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
    SingletonPruner,
    build_theta_table,
    _split_smooth,
    collect_relations,
    index_calculus_dlog,
    rational_character_pairing,
    solve_linear_mod_ell,
)
from sigcalc.seeds import rng_for


def fresh_solve(relations, ell):
    """solve_linear_mod_ell on a new eliminator that holds nothing."""
    return solve_linear_mod_ell(relations, Eliminator(ell), set())


def convergent_splits(x, p):
    """Up to three (u, v, sigma) with x = (-1)^sigma * u / v mod p, from
    one Euclidean run on (p, x) kept as r_j = t_j * x mod p: the half
    split (r_i, |t_i|) at the first remainder below sqrt(p), then its
    neighbours (r_(i-1), |t_(i-1)|) and (r_(i+1), |t_(i+1)|), skipping
    one with t = 0 or r = 0 (the order `_split_smooth` tries them in)."""
    r0, r1, t0, t1 = p, x, 0, 1
    while r1 * r1 >= p:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    q = r0 // r1
    r2, t2 = r0 - q * r1, t0 - q * t1
    return [(r, abs(t), int(t < 0)) for r, t in ((r1, t1), (r0, t0), (r2, t2)) if r and t]


def signed_exponents(u, v, bound):
    """The factorisation of the bound-smooth u*v as ascending (q, e)
    pairs, e negative for the primes of v."""
    return tuple((q, -e if v % q == 0 else e) for q, e in factor_smooth(u * v, bound).items())


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
                   if r.coeffs == ((2, 1),) and r.const == 4)
        assert rel is not None

    def test_rejects_non_smooth(self):
        # 3^7 = 17 mod 31 and 17 > 7: never appears as a relation
        bound = 7
        relations = collect_relations(31, 5, 3, bound, 15, seed=0)
        theta = brute_theta(31, 3)
        for rel in relations:
            value = 1
            # reconstruct g^r from the row and confirm smoothness
            assert all(q <= 7 for q, _ in rel.coeffs)

    def test_substituting_true_thetas(self):
        # relation semantics: true discrete logs satisfy every row exactly
        p, ell, g = 1019, 509, 2
        assert sympy.is_primitive_root(g, p)
        theta = brute_theta(p, g)
        bound = 30
        for rel in collect_relations(p, ell, g, bound, 40, seed=1):
            total = sum(c * theta[q] for q, c in rel.coeffs)
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
        u, v, sigma = convergent_splits(x, p)[0]
        assert u > 0 and v > 0 and gcd(u, v) == 1
        assert u * u < p and v * v <= p
        assert x * v % p == (-1) ** sigma * u % p

    def test_worked_split(self):
        # 3 = 1/(-2) mod 7: the remainders run 7, 3, 1 with cofactor -2
        assert convergent_splits(3, 7)[0] == (1, 2, 1)
        assert convergent_splits(2, 31)[0] == (2, 1, 0)

    @given(st.integers(3, 10**30), st.integers(1, 10**40))
    @settings(max_examples=300, deadline=None)
    def test_each_convergent_is_a_coprime_ratio_below_p(self, n, x):
        p = sympy.prevprime(n)
        x %= p
        assume(x != 0)
        splits = convergent_splits(x, p)
        assert 1 <= len(splits) <= 3
        assert len(set(splits)) == len(splits)
        for u, v, sigma in splits:
            assert u > 0 and v > 0 and gcd(u, v) == 1 and u * v < p
            assert x * v % p == (-1) ** sigma * u % p

    def test_worked_neighbours(self):
        # 12 mod 31: remainders 31, 12, 7, 5, 2 with cofactors 0, 1, -2, 3, -5;
        # 5 is the first below sqrt(31), so 5/3 comes first, then 7/(-2), 2/(-5)
        assert convergent_splits(12, 31) == [(5, 3, 0), (7, 2, 1), (2, 5, 1)]
        # x = 2 is already below sqrt(31): its predecessor has t = 0
        assert convergent_splits(2, 31) == [(2, 1, 0), (1, 15, 1)]


def half_split_smooth(x, p, bound):
    """The relation read off the half split alone, or None when u*v is
    not bound-smooth (the split the search tries first)."""
    u, v, sigma = convergent_splits(x, p)[0]
    if smooth_cofactor(u * v, bound) > 1:
        return None
    return sigma, signed_exponents(u, v, bound)


def three_split_smooth(x, p, bound):
    """The relation read off the first bound-smooth split of all three
    `convergent_splits`, formed up front, or None."""
    for u, v, sigma in convergent_splits(x, p):
        if smooth_cofactor(u * v, bound) == 1:
            return sigma, signed_exponents(u, v, bound)
    return None


class TestSplitSmooth:
    @given(st.integers(5, 10**12), st.integers(1, 10**15), st.integers(2, 200))
    @settings(max_examples=400, deadline=None)
    def test_a_smooth_split_writes_x_and_prefers_the_half_split(self, n, x, bound):
        p = sympy.prevprime(n)
        x %= p
        assume(x != 0)
        split = _split_smooth(x, p, bound)
        old = half_split_smooth(x, p, bound)
        if old is not None:
            assert split == old
        if split is None:
            return
        sigma, exponents = split
        assert [q for q, _ in exponents] == sorted({q for q, _ in exponents})
        value, size = (-1) ** sigma, 1
        for q, e in exponents:
            assert q <= bound and sympy.isprime(q) and e
            value = value * pow(q, e, p) % p
            size *= q ** abs(e)
        assert value % p == x
        assert size <= p

    @given(st.integers(5, 10**12), st.integers(1, 10**15), st.integers(2, 10**4))
    @settings(max_examples=500, deadline=None)
    def test_the_one_pass_split_is_the_three_split_reference(self, n, x, bound):
        # the same split, exponents and sign as forming all three
        # convergents first and screening them in turn
        p = sympy.prevprime(n)
        x %= p
        assume(x != 0)
        assert _split_smooth(x, p, bound) == three_split_smooth(x, p, bound)

    def test_the_one_pass_split_screens_only_the_splits_it_tries(self, monkeypatch):
        # the half split alone when it is smooth, else its neighbours in turn
        import sigcalc.indexcalc as indexcalc

        screened = []
        monkeypatch.setattr(indexcalc, "smooth_cofactor",
                            lambda n, bound: screened.append(n) or smooth_cofactor(n, bound))
        for x, bound, want in ((12, 5, [15]), (12, 3, [15, 14, 10]), (2, 3, [2])):
            screened.clear()
            _split_smooth(x, 31, bound)
            assert screened == want
            assert [u * v for u, v, _ in convergent_splits(x, 31)][:len(want)] == want

    def test_neighbours_find_splits_the_half_split_misses(self):
        p, bound = 1000003, 150
        rescued = sum(1 for x in range(2, 3000)
                      if half_split_smooth(x, p, bound) is None
                      and _split_smooth(x, p, bound) is not None)
        assert rescued > 0


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
        kept = SingletonPruner().add(rows)
        assert kept == [rows[2], rows[4]]
        assert SingletonPruner().add(kept) == kept
        assert fresh_solve(kept, ell).values == {"c": 3}
        assert fresh_solve(rows, ell).values["c"] == 3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.dictionaries(st.sampled_from("abcdefghij"), st.integers(1, 6),
                                    max_size=4), max_size=25), st.integers(0, 25))
    def test_the_kept_set_only_grows(self, rows, cut):
        # what a theta round keeps, every later round keeps: the carried
        # eliminator relies on it (distinct consts tell the rows apart)
        relations = [Relation.make(coeffs, i, 29) for i, coeffs in enumerate(rows)]
        pruner = SingletonPruner()
        assert set(pruner.add(relations[:cut])) <= set(pruner.add(relations[cut:]))

    def test_a_lone_row_is_pruned(self):
        assert SingletonPruner().add([Relation.make({"x": 1}, 1, 5)]) == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.dictionaries(st.sampled_from("abcdefghij"), st.integers(1, 6),
                                    max_size=4), max_size=25))
    def test_one_pass_matches_the_fixed_point_loop(self, rows):
        relations = [Relation.make(coeffs, i, 7) for i, coeffs in enumerate(rows)]
        assert SingletonPruner().add(relations) == fixed_point_prune(relations)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.dictionaries(st.sampled_from("abcdefghij"),
                                             st.integers(1, 6), max_size=4),
                             max_size=8), max_size=6))
    def test_the_carried_core_of_every_prefix_is_the_pruned_prefix(self, batches):
        # a row dropped once comes back when a later batch holds it up,
        # also when it is held up only by another dropped row
        pruner, relations = SingletonPruner(), []
        for batch in batches:
            new = [Relation.make(coeffs, len(relations) + i, 7)
                   for i, coeffs in enumerate(batch)]
            relations += new
            assert pruner.add(new) == fixed_point_prune(relations)

    def test_two_dropped_rows_that_share_a_column_come_back_together(self):
        # x and y each stand alone in the first batch; the second holds
        # them up but not z, so rows 0 and 1 come back as a pair
        ell = 7
        first = [Relation.make({"x": 1, "z": 1}, 1, ell),
                 Relation.make({"z": 1, "y": 1}, 2, ell)]
        second = [Relation.make({"x": 1, "w": 1}, 3, ell),
                  Relation.make({"y": 1, "w": 1}, 4, ell)]
        pruner = SingletonPruner()
        assert pruner.add(first) == []
        assert pruner.add(second) == first + second


def fixed_point_prune(relations):
    """Singleton pruning as rounds that each recount every column, until
    a round drops nothing."""
    kept = relations
    while True:
        weight = Counter(col for rel in kept for col, _ in rel.coeffs)
        pruned = [rel for rel in kept if all(weight[col] > 1 for col, _ in rel.coeffs)]
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


def theta_schedule(n, p):
    """The relation totals the rounds of a theta table ask for: n*3^i/2^(i+1)
    rounded up, at least one more each round, up to min(4*(n + 16), p - 2)."""
    ceiling = min(4 * (n + 16), p - 2)
    totals = [min(ceil(Fraction(n, 2)), ceiling)]
    while totals[-1] < ceiling:
        i = len(totals)
        totals.append(min(max(ceil(Fraction(n * 3**i, 2 ** (i + 1))), totals[-1] + 1),
                          ceiling))
    return totals


def determined_columns(relations, ell):
    """The columns of a system whose value it pins: those whose unit row
    lies in its row space over F_ell (dense rank, independent of the
    sparse eliminator)."""
    cols = sorted({col for rel in relations for col, _ in rel.coeffs})
    F = GF(ell)
    rows = [[F(dict(rel.coeffs).get(col, 0)) for col in cols] for rel in relations]

    def rank(matrix):
        return DomainMatrix(matrix, (len(matrix), len(cols)), F).rank() if matrix else 0

    full = rank(rows)
    return cols, {col for col in cols
                  if rank(rows + [[F(int(c == col)) for c in cols]]) == full}


class TestThetaTable:
    def test_values_match_bsgs_on_bases_of_one_to_three_primes_and_more(self):
        base_sizes = set()
        for p in (101, 1019, 2003, 10007):
            g = least_primitive_root(p)
            ops = mult_group_ops(p)
            for ell in sympy.primefactors(p - 1):
                for bound in (2, 3, 5, 30, 1000):  # 1, 2, 3, 10 primes and sqrt(p)
                    for seed in (0, 1):
                        table = build_theta_table(p, ell, g, bound, seed)
                        for q, value in table.items():
                            assert value == bsgs_dlog(g, q, p - 1, **ops) % ell, (p, ell, q)
                        if table:
                            base_sizes.add(len(primes_up_to(min(bound, isqrt(p)))))
        assert {1, 2, 3} <= base_sizes

    @pytest.mark.parametrize("p, ell, bound, seed", [
        (1019, 509, 30, 0), (2003, 7, 5, 0), (10007, 5003, 30, 0),
        (30011, 5, 100, 0), (1000003, 3, 150, 0), (1000003, 3, 150, 1),
    ])
    def test_theta_rounds_is_the_first_fully_determined_round(self, p, ell, bound, seed):
        # one search for the last round's total holds every round's relations
        # as a prefix; re-solve each pruned prefix densely until one is pinned
        g = least_primitive_root(p)
        counters = {}
        table = build_theta_table(p, ell, g, bound, seed, counters=counters)
        totals = theta_schedule(len(primes_up_to(min(bound, isqrt(p)))), p)
        relations = collect_relations(p, ell, g, bound, totals[-1], seed)
        for rounds, total in enumerate(totals, 1):
            cols, determined = determined_columns(fixed_point_prune(relations[:total]), ell)
            if cols and determined == set(cols):
                break
        assert counters["theta_rounds"] == rounds
        assert set(table) == set(cols)

    def test_rounds_follow_the_schedule_up_to_the_ceiling(self, monkeypatch):
        # with a solver that pins nothing, every round runs: their totals are
        # the schedule's, ending at 4*(n + 16) relations, then RankDeficient
        import sigcalc.indexcalc as indexcalc

        asked, collect = [], indexcalc.collect_relations

        def counting_collect(*args, **kwargs):
            relations = collect(*args, **kwargs)
            asked.append(len(relations))
            return relations

        monkeypatch.setattr(indexcalc, "collect_relations", counting_collect)
        monkeypatch.setattr(indexcalc, "solve_linear_mod_ell",
                            lambda relations, system, held: indexcalc.SolveResult({}, 0, 0))
        counters = {}
        with pytest.raises(RankDeficient):
            build_theta_table(1000003, 3, 2, 150, 0, counters=counters)
        n = len(primes_up_to(150))
        totals = [sum(asked[:i + 1]) for i in range(len(asked))]
        assert totals == theta_schedule(n, 1000003)
        assert totals[0] == ceil(n / 2) and totals[-1] == 4 * (n + 16)
        assert counters["theta_rounds"] == len(totals)
        assert counters["accepted"] == totals[-1]

    @pytest.mark.parametrize("p, ell, bound, seed", [
        (1019, 509, 30, 0), (2003, 7, 5, 0), (10007, 5003, 30, 0),
        (30011, 5, 100, 0), (1000003, 3, 150, 0), (1000003, 3, 150, 1),
        (1000003, 3, 40, 2),
    ])
    def test_the_carried_eliminator_solves_as_a_fresh_one(self, p, ell, bound, seed,
                                                          monkeypatch):
        # each round's carried solve against a new eliminator fed all the
        # kept rows, then a whole table built on new eliminators against
        # the carried one
        import sigcalc.indexcalc as indexcalc

        g = least_primitive_root(p)
        solve, rounds = indexcalc.solve_linear_mod_ell, []

        def both(relations, system, held):
            carried = solve(relations, system, held)
            assert held == set(relations)
            rounds.append((carried, fresh_solve(relations, ell)))
            return carried

        monkeypatch.setattr(indexcalc, "solve_linear_mod_ell", both)
        counters = {}
        table = build_theta_table(p, ell, g, bound, seed, counters=counters)
        assert len(rounds) == counters["theta_rounds"]
        for carried, fresh in rounds:
            assert (carried.values, carried.rank, carried.nullity, carried.columns) == \
                (fresh.values, fresh.rank, fresh.nullity, fresh.columns)
        monkeypatch.setattr(indexcalc, "solve_linear_mod_ell",
                            lambda relations, system, held: fresh_solve(relations, ell))
        fresh_counters = {}
        assert build_theta_table(p, ell, g, bound, seed, counters=fresh_counters) == table
        assert fresh_counters == counters

    @pytest.mark.parametrize("g", [0, 1021, 2 * 1021])
    def test_a_generator_divisible_by_p_is_bad_input(self, g):
        # every split of g^r would be u = 0, which no bound makes smooth
        with pytest.raises(BadInput):
            collect_relations(1021, 5, g, 31, 3, seed=0)
        with pytest.raises(BadInput):
            build_theta_table(1021, 5, g, 31, 0)


class TestSolver:
    def test_single_pinned_unknown(self):
        rel = Relation.make({"x": 1}, 4, 7)
        result = fresh_solve([rel], 7)
        assert result.values["x"] == 4

    def test_inconsistent(self):
        rels = [Relation.make({"x": 1}, 1, 7), Relation.make({"x": 1}, 2, 7)]
        with pytest.raises(Inconsistent):
            fresh_solve(rels, 7)

    def test_rank_deficient_lists_unknowns(self, monkeypatch):
        # the solver leaves undetermined columns out of its values, and a
        # theta table whose last round leaves them so lists them
        import sigcalc.indexcalc as indexcalc

        rel = Relation.make({"x": 1, "y": 1}, 0, 7)
        result = fresh_solve([rel], 7)
        assert result.columns == ["x", "y"] and result.values == {}
        monkeypatch.setattr(indexcalc, "solve_linear_mod_ell",
                            lambda relations, system, held: result)
        with pytest.raises(RankDeficient) as exc:
            build_theta_table(1000003, 3, 2, 150, 0)
        assert exc.value.undetermined == ["x", "y"]

    def test_solution_space_dimension(self):
        rel = Relation.make({"x": 1, "y": 1}, 0, 7)
        result = fresh_solve([rel], 7)
        assert result.nullity == 1

    def test_random_systems_against_known_solution(self):
        rng = rng_for(5, "solver")
        ell = 101
        for _ in range(20):
            n = rng.randrange(2, 8)
            truth = {f"u{i}": rng.randrange(0, ell) for i in range(n)}
            rels = []
            for _ in range(n + 3):
                coeffs = {k: rng.randrange(0, ell) for k in truth}
                const = sum(c * truth[k] for k, c in coeffs.items()) % ell
                rels.append(Relation.make(coeffs, const, ell))
            # n + 3 dense rows over F_101: every system drawn has full rank,
            # so every unknown is determined
            result = fresh_solve(rels, ell)
            assert result.rank == n and result.nullity == 0
            assert result.values == truth


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

    @pytest.mark.parametrize("g", [0, 31, 1, 2**5])
    def test_degenerate_generator(self, g):
        # p divides g, or g is a 5th power mod 31: g^6 = 1
        with pytest.raises(BadInput):
            index_calculus_dlog(31, 5, g, 17, 7, seed=0)

    def test_table_and_descent_clamp_the_bound_to_sqrt_p(self, monkeypatch):
        import sigcalc.indexcalc as indexcalc

        bounds, smooth_cofactor = set(), indexcalc.smooth_cofactor
        monkeypatch.setattr(indexcalc, "smooth_cofactor",
                            lambda n, bound: bounds.add(bound) or smooth_cofactor(n, bound))
        m = index_calculus_dlog(1021, 5, 10, 800, 10**6, seed=11)
        assert bounds == {31}  # isqrt(1021)
        assert m == index_calculus_dlog(1021, 5, 10, 800, 31, seed=11)


# (p, ell, g, a, seed, m, counters): p the least prime past a running
# offset from 1e6, ell the largest prime factor of p - 1, B = 150.  The
# literal values pin the search itself: a change to the draws, the
# splits, the relations or the rounds that alters what is tried or
# kept changes them.  Counters in the order of PINNED_COUNTERS.
PINNED_COUNTERS = ("not_smooth", "trivial", "duplicate", "accepted", "theta_rounds",
                   "descent_not_smooth", "descent_undetermined")
PINNED_SEARCHES = [
    (1000003, 166667, 2, 857243, 0, 100004, (8, 0, 0, 27, 2, 2, 3)),
    (1007933, 251983, 2, 164898, 1, 250095, (7, 0, 0, 27, 2, 2, 2)),
    (1023821, 103, 2, 644720, 2, 75, (12, 0, 0, 40, 3, 0, 1)),
    (1047587, 523793, 2, 961048, 3, 68546, (3, 0, 0, 18, 1, 0, 1)),
    (1079269, 89939, 2, 195451, 4, 28774, (18, 0, 0, 40, 3, 0, 0)),
    (1118867, 233, 2, 1032021, 5, 67, (11, 0, 0, 40, 3, 0, 0)),
    (1166383, 9257, 3, 997473, 6, 7414, (8, 0, 0, 40, 3, 1, 0)),
    (1221821, 61091, 2, 358452, 7, 11936, (5, 0, 0, 27, 2, 2, 8)),
    (1285181, 4943, 2, 312827, 8, 2178, (17, 0, 0, 27, 2, 1, 1)),
    (1356461, 9689, 2, 467765, 9, 3363, (7, 0, 0, 27, 2, 1, 0)),
    (1435657, 1459, 5, 656469, 10, 455, (14, 0, 1, 40, 3, 3, 3)),
    (1522769, 7321, 3, 1212634, 11, 775, (16, 0, 0, 27, 2, 0, 1)),
    (1617809, 101113, 3, 1018518, 12, 55825, (9, 0, 0, 27, 2, 2, 2)),
    (1720769, 167, 3, 838751, 13, 146, (14, 0, 0, 27, 2, 1, 0)),
    (1831667, 953, 5, 201655, 14, 791, (16, 0, 0, 40, 3, 0, 0)),
    (1950457, 449, 5, 1679436, 15, 443, (13, 0, 0, 40, 3, 1, 0)),
    (2077181, 401, 2, 1817317, 16, 394, (7, 0, 0, 27, 2, 1, 1)),
    (2211817, 587, 5, 1415462, 17, 420, (13, 0, 0, 27, 2, 1, 4)),
    (2354413, 196201, 2, 2044000, 18, 47442, (15, 0, 0, 27, 2, 6, 6)),
    (2504881, 71, 13, 1057365, 19, 34, (15, 0, 0, 27, 2, 0, 1)),
]


@pytest.mark.parametrize("p, ell, g, a, seed, m, counts", PINNED_SEARCHES)
def test_the_search_is_pinned(p, ell, g, a, seed, m, counts):
    counters = {}
    assert index_calculus_dlog(p, ell, g, a, 150, seed, counters=counters) == m
    assert counters == dict(zip(PINNED_COUNTERS, counts))


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

    @pytest.mark.parametrize("p, ell", [(31, 0), (2, 1), (31, 6), (33, 2)])
    def test_p_and_ell_must_be_prime(self, p, ell):
        with pytest.raises(BadInput):
            rational_character_pairing(p, ell, "p", 2)

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
