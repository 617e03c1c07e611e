import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from budgetmatroid import (
    FamilySpec,
    InternalInvariantError,
    PreconditionError,
    ScaleCapError,
    Matroid,
    construct,
    contract,
    min_weight_basis,
    rank,
    restrict,
    truncate,
)
from budgetmatroid.matroid import greedy
from budgetmatroid.verify import check_axioms, exchange_witness, extend_to_independent, union
from helpers import FAMILIES, all_bases, exhaustive_rank, listed_sets_matroid, random_matroid


def uniform(r, n):
    return construct(FamilySpec("uniform", rank=r), n)


def triangle():
    return construct(
        FamilySpec("graphic", num_vertices=3, edges=((0, 1), (1, 2), (2, 0))), 3
    )


def partition(blocks, caps, n):
    return construct(
        FamilySpec("partition", blocks=tuple(map(tuple, blocks)), capacities=tuple(caps)), n
    )


class TestIndependence:
    def test_uniform_within_rank(self):
        assert uniform(2, 4).is_independent({0, 1})

    def test_uniform_above_rank(self):
        assert not uniform(2, 4).is_independent({0, 1, 2})

    def test_triangle_cycle_dependent(self):
        assert not triangle().is_independent({0, 1, 2})

    def test_outside_ground_rejected(self):
        with pytest.raises(PreconditionError):
            uniform(2, 4).is_independent({0, 9})


class TestRank:
    def test_empty(self):
        assert rank(uniform(2, 4), set()) == 0

    def test_truncated_cardinality(self):
        assert rank(uniform(2, 4), {0, 1, 2}) == 2

    def test_partition_matches_enumeration(self):
        m = partition([[0, 1], [2, 3]], [1, 1], 4)
        s = {0, 1, 2}
        assert rank(m, s) == exhaustive_rank(m, s) == 2

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exhaustive_on_random_matroids(self, seed):
        rng = random.Random(seed)
        m = random_matroid(rng, rng.randint(2, 8))
        for _ in range(5):
            s = {e for e in m.ground if rng.random() < 0.6}
            assert rank(m, s) == exhaustive_rank(m, s)

    @given(st.integers(0, 6), st.integers(0, 6), st.sets(st.integers(0, 5)))
    def test_uniform_rank_formula(self, r, n, s):
        s = {e for e in s if e < n}
        assert rank(uniform(r, n), s) == min(len(s), r)


class TestMinWeightBasis:
    def test_uniform_two_cheapest(self):
        w = {0: F(3), 1: F(1), 2: F(2), 3: F(5)}
        assert min_weight_basis(uniform(2, 4), w) == {1, 2}

    def test_triangle_mst(self):
        assert min_weight_basis(triangle(), {0: F(5), 1: F(1), 2: F(1)}) == {1, 2}

    def test_partition_enumerated_minimum(self):
        m = partition([[0, 1], [2, 3]], [1, 1], 4)
        w = {0: F(2), 1: F(1), 2: F(1), 3: F(2)}
        basis = min_weight_basis(m, w)
        assert basis == {1, 2}
        best = min(sum(w[e] for e in b) for b in all_bases(m))
        assert sum(w[e] for e in basis) == best

    @pytest.mark.parametrize("seed", range(30))
    def test_greedy_is_optimal_and_blocking_holds(self, seed):
        rng = random.Random(1000 + seed)
        m = random_matroid(rng, rng.randint(2, 7))
        w = {e: F(rng.randint(0, 9), rng.choice((1, 2, 3))) for e in m.ground}
        basis = min_weight_basis(m, w)
        bases = all_bases(m)
        assert basis in bases
        assert sum(w[e] for e in basis) == min(sum(w[e] for e in b) for b in bases)
        # Minimum-basis blocking: cheap prefix of the basis spans every outsider.
        for a in m.ground - basis:
            blockers = {e for e in basis if w[e] <= w[a]}
            assert not m.is_independent(blockers | {a})


class TestExchange:
    def test_extend_noop_when_smaller(self):
        m = uniform(3, 5)
        assert extend_to_independent(m, {0}, {1, 2}) == frozenset()

    def test_extend_ascending_scan(self):
        m = uniform(3, 5)
        d = extend_to_independent(m, {0, 1, 2}, {3})
        assert d == {0, 1}
        assert m.is_independent({3} | d)

    def test_extend_triangle(self):
        assert extend_to_independent(triangle(), {0, 1}, {2}) == {0}

    def test_extend_rejects_dependent_input(self):
        with pytest.raises(PreconditionError):
            extend_to_independent(uniform(1, 3), {0, 1}, {2})

    def test_witness_rank_one(self):
        assert exchange_witness(uniform(1, 3), {0}, {1}, 0) == 1

    def test_witness_triangle(self):
        b = exchange_witness(triangle(), {0, 1}, {1, 2}, 0)
        assert b == 2
        assert triangle().is_independent({1, 2})

    def test_witness_partition(self):
        m = partition([[0, 1], [2]], [1, 1], 3)
        assert exchange_witness(m, {0, 2}, {1, 2}, 0) == 1

    def test_witness_precondition(self):
        with pytest.raises(PreconditionError):
            exchange_witness(uniform(3, 4), {0, 1}, {2, 3}, 0)  # B + a independent


class TestOperations:
    def test_truncate(self):
        m = truncate(uniform(3, 4), 2)
        assert not m.is_independent({0, 1, 2})
        assert m.is_independent({0, 1})

    def test_contract(self):
        m = contract(uniform(2, 4), {0})
        assert m.is_independent({1})
        assert not m.is_independent({1, 2})

    def test_contract_requires_independent(self):
        with pytest.raises(PreconditionError):
            contract(uniform(1, 3), {0, 1})

    def test_union_disjoint(self):
        m = union([restrict(uniform(1, 2), {0, 1}),
                   restrict(construct(FamilySpec("uniform", rank=1), 4), {2, 3})])
        assert m.is_independent({0, 2})
        assert not m.is_independent({0, 1})

    def test_union_rejects_overlap(self):
        with pytest.raises(PreconditionError):
            union([uniform(1, 3), uniform(1, 3)])

    def test_union_basis_splits_into_part_minima(self):
        rng = random.Random(7)
        for _ in range(20):
            n1, n2 = rng.randint(2, 5), rng.randint(2, 5)
            m1 = random_matroid(rng, n1)
            m2 = random_matroid(rng, n2)
            shifted = type(m2)(
                frozenset(e + n1 for e in m2.ground),
                lambda s, _m=m2, _k=n1: _m.indep_fn(frozenset(e - _k for e in s)),
                label="shifted",
            )
            w = {e: F(rng.randint(0, 9)) for e in range(n1 + n2)}
            u = union([m1, shifted])
            basis = min_weight_basis(u, w)
            assert basis & m1.ground == min_weight_basis(m1, w)
            assert basis & shifted.ground == min_weight_basis(
                shifted, {e: w[e] for e in shifted.ground}
            )


class TestCheckAxioms:
    def test_uniform_passes(self):
        assert check_axioms(uniform(2, 4)).ok

    def test_contraction_passes(self):
        assert check_axioms(contract(uniform(2, 4), {0})).ok

    def test_non_matroid_family_caught(self):
        # Maximal sets {0,1} and {2}: sizes differ, exchange must fail.
        m = listed_sets_matroid(((0, 1), (2,)), 3)
        report = check_axioms(m)
        assert not report.ok
        assert report.violation == "exchange violation"

    def test_refuses_large_ground(self):
        with pytest.raises(ScaleCapError):
            check_axioms(uniform(3, 11))

    def test_broken_oracle_detected_by_witness_search(self):
        # Not a matroid: {0,1} and {2} maximal. The witness search for the
        # guaranteed exchange partner must flag it.
        bad = listed_sets_matroid(((0, 1), (2,)), 3)
        with pytest.raises(InternalInvariantError):
            extend_to_independent(bad, frozenset({0, 1}), frozenset({2}))


def loop_greedy(indep, base, order):
    """The generic greedy loop from ``base``: one independence test per element."""
    kept = frozenset(base)
    for e in order:
        if indep(kept | {e}):
            kept = kept | {e}
    return kept


def random_derived(rng, m):
    """A random chain of restrictions, contractions and truncations of m."""
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("restrict", "contract", "truncate"))
        if op == "restrict":
            m = restrict(m, {e for e in m.ground if rng.random() < 0.8})
        elif op == "contract":
            order = sorted(m.ground)
            rng.shuffle(order)
            fixed = loop_greedy(m.indep_fn, (), order)
            m = contract(m, {e for e in fixed if rng.random() < 0.5})
        else:
            m = truncate(m, rng.randint(0, len(m.ground)))
    return m


class TestScansThroughDerivedHandles:
    """greedy on restricted, contracted and truncated handles, and the scans
    that restrictions keep, against the generic loop on the same handle's
    oracle."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_loop(self, family):
        rng = random.Random(f"derived-{family}")
        chains = {True: 0, False: 0}
        for _ in range(120):
            m = random_derived(rng, random_matroid(rng, rng.randint(1, 9), kind=family))
            # A restriction keeps the family's scan; a contraction or a
            # truncation answers through a plain function without one.
            plain = "contract(" in m.label or "truncate(" in m.label
            chains[plain] += 1
            assert hasattr(m.indep_fn, "scan") != plain
            for _ in range(3):
                order = [e for e in m.ground if rng.random() < 0.8]
                rng.shuffle(order)
                assert greedy(m, order) == loop_greedy(m.indep_fn, (), order)
                shuffled = sorted(m.ground)
                rng.shuffle(shuffled)
                base = {e for e in loop_greedy(m.indep_fn, (), shuffled) if rng.random() < 0.5}
                base = frozenset(base)
                if not plain:
                    assert m.indep_fn.scan(base, order) == loop_greedy(m.indep_fn, base, order)
                # greedy from a base: the greedy set of the contraction by it.
                rest = [e for e in order if e not in base]
                assert greedy(m, rest, base) == greedy(contract(m, base), rest)
                assert greedy(m, rest, base) == loop_greedy(m.indep_fn, base, rest) - base
        assert min(chains.values()) > 0

    def test_oracle_without_scan(self):
        # A plain function oracle: greedy and the derived handles fall back to
        # the generic loop, with one oracle call per tested set.
        rng = random.Random(5)
        for _ in range(60):
            inner = random_matroid(rng, rng.randint(1, 8))
            calls = []
            plain = Matroid(inner.ground, lambda s: calls.append(s) or inner.indep_fn(s))
            m = random_derived(rng, plain)
            assert not hasattr(m.indep_fn, "scan")
            order = sorted(m.ground)
            rng.shuffle(order)
            calls.clear()
            result = greedy(m, order)
            fallback_calls = len(calls)
            calls.clear()
            assert result == loop_greedy(m.indep_fn, (), order)
            assert fallback_calls == len(calls)
            # The loop from a base: the greedy set of the contraction by it.
            base = frozenset(sorted(result)[::2])
            rest = [e for e in order if e not in base]
            assert greedy(m, rest, base) == greedy(contract(m, base), rest)
