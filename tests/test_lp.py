import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from budgetmatroid import (
    FamilySpec,
    InternalInvariantError,
    PreconditionError,
    ScaleCapError,
    approximate,
    construct,
    make_instance,
    restrict,
)
from budgetmatroid import lp
from budgetmatroid.generate import GenSpec, generate_instance
from budgetmatroid.lp import (
    LP_STATS,
    LpOutcome,
    complete,
    lp_upper_bound,
    lp_variables,
    round_integral,
    solve_lp,
)
from budgetmatroid.oracle import brute_force_opt
from helpers import (
    FAMILIES,
    all_independent_sets,
    gap_instance,
    random_instance,
    random_matroid,
    random_rational,
    solve_rational_lp,
)
from reference import (
    LP_REFERENCE_CAP,
    FractionalPoint,
    contract,
    lp_point,
    rank,
    separate,
    solve_polytope_lp_reference,
)


def free(n):
    return construct(FamilySpec("uniform", rank=n), n)


class TestSeparate:
    def test_indicator_of_independent_set_is_inside(self):
        m = free(3)
        x = FractionalPoint((0, 1, 2), {0: F(1), 2: F(1)})
        assert separate(m, x).inside

    def test_overfull_singleton_detected(self):
        m = construct(FamilySpec("uniform", rank=1), 2)
        x = FractionalPoint((0, 1), {0: F(3, 4), 1: F(1, 2)})
        result = separate(m, x)
        assert not result.inside
        assert result.violated == {0, 1}
        assert result.violated_rank == 1
        assert result.violated_mass == F(5, 4)

    def test_domain_outside_ground_rejected(self):
        with pytest.raises(PreconditionError):
            separate(free(2), FractionalPoint((0, 5), {0: F(1, 2)}))

    def test_negative_entry_rejected(self):
        with pytest.raises(PreconditionError):
            separate(free(2), FractionalPoint((0, 1), {0: F(-1, 2)}))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_full_exhaustive_scan(self, seed):
        rng = random.Random(seed)
        m = random_matroid(rng, rng.randint(1, 7))
        elems = sorted(m.ground)
        values = {
            e: F(rng.randint(0, 4), 4) for e in elems if rng.random() < 0.8
        }
        x = FractionalPoint(tuple(elems), values)
        # Reference: minimize rank(S) - x(S) over every nonempty subset of
        # the whole domain, zero-mass elements included.
        best = F(0)
        for size in range(1, len(elems) + 1):
            for combo in itertools.combinations(elems, size):
                margin = rank(m, set(combo)) - x.mass(combo)
                best = min(best, margin)
        result = separate(m, x)
        if best == 0:
            assert result.inside
        else:
            assert not result.inside
            assert result.violated_rank - result.violated_mass == best


def dense_case(seed):
    """(matroid, profits, costs, budget) of a random LP with at most 6 elements."""
    rng = random.Random(900 + seed)
    m = random_matroid(rng, rng.randint(1, 6))
    elems = sorted(m.ground)
    profits = {e: random_rational(rng) for e in elems}
    costs = {e: F(rng.randint(0, 5), rng.choice((1, 2))) for e in elems}
    budget = F(rng.randint(1, 12), 2)
    return m, profits, costs, budget


class TestSolvePolytopeLp:
    def test_expensive_element_fractional_vertex(self):
        # One high-profit element whose cost exceeds the budget: the LP takes
        # half of it instead of the cheap whole element.
        m = free(2)
        outcome = solve_rational_lp(m, {0: F(3), 1: F(1)}, {0: F(2), 1: F(1)}, F(1))
        assert lp_point(outcome)[0] == F(1, 2) and lp_point(outcome)[1] == 0
        assert outcome.objective == F(3, 2)
        assert outcome.fractional_support == (0,)

    def test_zero_budget_forces_zero(self):
        outcome = solve_rational_lp(free(2), {0: F(5), 1: F(5)}, {0: F(1), 1: F(1)}, F(0))
        assert outcome.objective == 0
        assert lp_point(outcome).support() == ()

    def test_empty_variable_set(self):
        m = construct(FamilySpec("uniform", rank=0), 0)
        outcome = solve_rational_lp(m, {}, {}, F(1))
        assert outcome.objective == 0

    def test_rank_constraint_binds(self):
        # Two free-profit elements but rank 1: mass is capped by the matroid,
        # not the budget.
        m = construct(FamilySpec("uniform", rank=1), 2)
        outcome = solve_rational_lp(m, {0: F(2), 1: F(2)}, {0: F(1), 1: F(1)}, F(10))
        assert outcome.objective == F(2)

    def test_stats_recorded(self):
        before = LP_STATS.solves
        solve_rational_lp(free(1), {0: F(1)}, {0: F(1)}, F(1))
        assert LP_STATS.solves == before + 1
        assert LP_STATS.max_fractional <= 2

    def test_newton_steps_are_bounded(self, monkeypatch):
        # A greedy that never settles: heavy {0}, then probes alternating
        # {1} and {0}.  The light side starts as the part of heavy that fits
        # the budget, here {}, with no greedy pass.  Both probes cost 2 >
        # budget 1, and their profit/cost ratios differ, so no probe's line
        # passes through the point where heavy's and light's lines meet.
        # The solve must raise once it has taken more steps than there are
        # greedy sets (2 items: 2^2 + 2 + 1 = 7) instead of looping forever.
        sets = itertools.chain(
            [frozenset({0})], itertools.cycle([frozenset({1}), frozenset({0})])
        )
        monkeypatch.setattr(lp, "greedy", lambda m, order, base=frozenset(): next(sets))
        with pytest.raises(InternalInvariantError, match="Newton steps"):
            solve_rational_lp(free(2), {0: F(3), 1: F(1)}, {0: F(2), 1: F(2)}, F(1))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_dense_formulation(self, seed):
        m, profits, costs, budget = dense_case(seed)
        elems = sorted(m.ground)
        outcome = solve_rational_lp(m, profits, costs, budget)
        x = lp_point(outcome)
        # Dense formulation: the budget row, the box, and every rank
        # constraint written out explicitly, checked row by row.
        assert sum((costs[e] * x[e] for e in elems), F(0)) <= budget
        assert all(0 <= x[e] <= 1 for e in elems)
        for size in range(1, len(elems) + 1):
            for combo in itertools.combinations(elems, size):
                assert x.mass(combo) <= rank(m, set(combo))
        assert outcome.objective == solve_polytope_lp_reference(m, profits, costs, budget)
        assert len(outcome.fractional_support) <= 2


def check_against_reference(m, profits, costs, budget):
    """The parametric-greedy solve against the pair-enumeration reference.

    The reference runs up to LP_REFERENCE_CAP elements.  Every case also
    checks a certificate that proves optimality on its own: x is feasible
    (budget and exhaustive separation), and the returned multiplier's
    Lagrangian bound, maximized over every independent set, equals the
    objective.
    """
    outcome = solve_rational_lp(m, profits, costs, budget)
    x = lp_point(outcome)
    if len(m.ground) <= LP_REFERENCE_CAP:
        assert outcome.objective == solve_polytope_lp_reference(m, profits, costs, budget)
    assert outcome.objective == sum((profits[e] * x[e] for e in x.domain), F(0))
    assert sum((costs[e] * x[e] for e in x.domain), F(0)) <= budget
    assert separate(m, x).inside
    assert outcome.fractional_support == tuple(e for e in x.domain if 0 < x[e] < 1)
    assert len(outcome.fractional_support) <= 2
    lam = outcome.multiplier
    assert lam >= 0
    inner = max(sum((profits[e] - lam * costs[e] for e in s), F(0)) for s in all_independent_sets(m))
    assert lam * budget + inner == outcome.objective
    return outcome


def solve_listed(m, items, budget):
    """check_against_reference with (profit, cost) listed per element id."""
    profits = {e: F(p) for e, (p, _) in enumerate(items)}
    costs = {e: F(c) for e, (_, c) in enumerate(items)}
    return check_against_reference(m, profits, costs, F(budget))


class TestAgainstReference:
    """solve_rational_lp against the reference and its optimality certificate."""

    @pytest.mark.parametrize("seed", range(40))
    def test_dense_formulation_cases(self, seed):
        check_against_reference(*dense_case(seed))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generated_instances(self, family):
        for n in (4, 7, 10 if family == "explicit" else 11):
            for seed in range(3):
                inst = generate_instance(GenSpec(family, n, seed))
                m = inst.matroid
                profits = {e: inst.profits[e] for e in m.ground}
                costs = {e: inst.costs[e] for e in m.ground}
                check_against_reference(m, profits, costs, inst.budget)
                # A residual LP: the cheapest element fixed, its cost spent.
                f = min(m.ground, key=lambda e: (costs[e], e))
                check_against_reference(
                    contract(m, {f}), profits, costs, inst.budget - costs[f]
                )

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**30),
        n=st.integers(0, 7),
        top=st.integers(1, 3),
        budget=st.integers(0, 8),
    )
    def test_small_integers_dense_ties(self, seed, n, top, budget):
        rng = random.Random(seed)
        m = random_matroid(rng, n)
        profits = {e: F(rng.randint(0, top)) for e in m.ground}
        costs = {e: F(rng.randint(0, top)) for e in m.ground}
        check_against_reference(m, profits, costs, F(budget))

    def test_tight_on_an_interval(self):
        # The greedy set {1, 2} costs exactly the budget for lambda in
        # (4/3, 3/2); the multiplier is the left end, where the walk starts.
        m = construct(FamilySpec("uniform", rank=3), 3)
        outcome = solve_listed(m, [(4, 3), (3, 2), (2, 1)], 3)
        assert outcome.multiplier == F(4, 3)
        assert outcome.objective == 5
        assert lp_point(outcome).support() == (1, 2)

    def test_tie_at_zero_broken_by_cost(self):
        # Equal profits: the cheaper element is the greedy set at lambda = 0.
        m = construct(FamilySpec("uniform", rank=1), 2)
        outcome = solve_listed(m, [(3, 2), (3, 1)], 5)
        assert outcome.multiplier == 0
        assert lp_point(outcome).support() == (1,)

    def test_several_pairs_cross_at_the_multiplier(self):
        # p = c + 1 for every element: all weights tie at lambda = 1, and the
        # greedy order reverses there.
        outcome = solve_listed(
            construct(FamilySpec("uniform", rank=2), 4), [(5, 4), (4, 3), (3, 2), (2, 1)], 4
        )
        assert outcome.multiplier == 1
        assert outcome.objective == 6

    def test_parallel_elements(self):
        m = construct(FamilySpec("uniform", rank=2), 5)
        solve_listed(m, [(3, 2), (3, 2), (3, 2), (1, 1), (1, 1)], 3)
        solve_listed(m, [(2, 1), (2, 1), (2, 1), (2, 1), (2, 1)], F(3, 2))

    def test_weight_reaches_zero_at_the_multiplier(self):
        # Elements 0 and 1 both have profit/cost 2 = lambda*.
        outcome = solve_listed(free(3), [(2, 1), (4, 2), (5, 1)], 2)
        assert outcome.multiplier == 2
        assert outcome.objective == 7

    def test_zero_cost_and_zero_profit_elements(self):
        m = construct(FamilySpec("uniform", rank=2), 4)
        solve_listed(m, [(0, 1), (3, 0), (2, 0), (4, 2)], 1)
        solve_listed(free(4), [(0, 1), (3, 0), (0, 0), (4, 2)], 1)
        outcome = solve_listed(free(2), [(0, 1), (0, 0)], 1)
        assert outcome.objective == 0 and lp_point(outcome).support() == ()

    def test_zero_budget(self):
        outcome = solve_listed(free(3), [(5, 1), (2, 0), (3, 2)], 0)
        assert outcome.objective == 2
        assert lp_point(outcome).support() == (1,)

    def test_slack_budget(self):
        m = construct(FamilySpec("uniform", rank=2), 4)
        outcome = solve_listed(m, [(5, 1), (2, 0), (3, 2), (4, 1)], 100)
        assert outcome.multiplier == 0
        assert outcome.objective == 9
        assert outcome.fractional_support == ()


class TestScaling:
    """The solve runs on costs and profits scaled to integers; results are
    the same as on the rationals."""

    @pytest.mark.parametrize("seed", range(12))
    def test_large_coprime_denominators(self, seed):
        # Denominators 10^40 + k: the common denominators have hundreds of digits.
        rng = random.Random(1300 + seed)
        m = random_matroid(rng, rng.randint(1, 6 if seed % 4 else LP_REFERENCE_CAP))
        big = lambda: 10**40 + rng.randrange(1, 10**6)
        profits = {e: F(rng.randint(0, 5) * 10**40 + rng.randint(0, 9), big()) for e in m.ground}
        costs = {e: F(rng.randint(0, 5) * 10**40 + rng.randint(0, 9), big()) for e in m.ground}
        budget = F(rng.randint(1, 12) * 10**40 + 1, big())
        check_against_reference(m, profits, costs, budget)

    @pytest.mark.parametrize("seed", range(40))
    def test_rational_rescaling(self, seed):
        # Costs and budget times q, profits times r: the same vertex, the
        # objective times r and the multiplier times r/q.
        m, profits, costs, budget = dense_case(seed)
        rng = random.Random(1400 + seed)
        q = F(rng.randint(1, 10**12), rng.randint(1, 10**12))
        r = F(rng.randint(1, 10**12), rng.randint(1, 10**12))
        a = solve_rational_lp(m, profits, costs, budget)
        b = solve_rational_lp(
            m, {e: r * p for e, p in profits.items()}, {e: q * c for e, c in costs.items()}, q * budget
        )
        assert lp_point(b) == lp_point(a)
        assert b.fractional_support == a.fractional_support
        assert b.objective == r * a.objective
        assert b.multiplier == r / q * a.multiplier


class TestPairReference:
    """The reference on LPs solved by hand."""

    def test_expensive_element_fractional_vertex(self):
        # Half of element 0 (profit 3, cost 2) fills the budget of 1.
        value = solve_polytope_lp_reference(free(2), {0: F(3), 1: F(1)}, {0: F(2), 1: F(1)}, F(1))
        assert value == F(3, 2)

    def test_swap_edge_two_fractional_entries(self):
        # Rank 1: the optimum x = (1/2, 1/2) lies on the edge from {0} to {1}.
        m = construct(FamilySpec("uniform", rank=1), 2)
        assert solve_polytope_lp_reference(m, {0: F(3), 1: F(1)}, {0: F(2), 1: F(0)}, F(1)) == 2

    def test_rank_constraint_binds(self):
        # The budget is slack; rank 2 keeps the two best of three elements.
        m = construct(FamilySpec("uniform", rank=2), 3)
        profits = {0: F(3), 1: F(2), 2: F(1)}
        assert solve_polytope_lp_reference(m, profits, {e: F(1) for e in m.ground}, F(10)) == 5

    def test_refuses_above_cap(self):
        m = free(LP_REFERENCE_CAP + 1)
        unit = {e: F(1) for e in m.ground}
        with pytest.raises(ScaleCapError):
            solve_polytope_lp_reference(m, unit, unit, F(1))

    def test_negative_budget_rejected(self):
        with pytest.raises(PreconditionError):
            solve_polytope_lp_reference(free(1), {0: F(1)}, {0: F(1)}, F(-1))


class TestSolveLpAndRounding:
    def _instance(self):
        return make_instance(
            F(4),
            [F(2), F(1), F(3), F(1)],
            [F(6), F(2), F(5), F(1)],
            FamilySpec("uniform", rank=2),
        )

    def test_preconditions(self):
        inst = self._instance()
        variables = lp_variables(inst, F(1, 3), F(10))
        with pytest.raises(PreconditionError, match="dependent"):
            solve_lp(inst, {0, 1, 3}, variables)  # cost 4, three elements over rank 2
        with pytest.raises(PreconditionError, match="budget"):
            solve_lp(inst, {0, 1, 2}, variables)  # cost 6 > budget 4
        with pytest.raises(PreconditionError, match="budget"):
            solve_lp(inst, {0, 2}, variables)  # cost 5 > budget 4
        # F is checked against the active set before any of its costs is read.
        for outside in ({inst.n}, {-1}, {0, inst.n}):
            with pytest.raises(PreconditionError, match="outside the active set"):
                solve_lp(inst, outside, variables)

    def test_residual_lp_contracts_and_filters(self):
        inst = self._instance()
        # alpha = 6, eps = 1/3: profit threshold 2*alpha*eps = 4, so elements
        # with profit {2, 1} stay and {6, 5} are filtered out.
        variables = lp_variables(inst, F(1, 3), F(6))
        outcome = self._matches_the_rational_solve(inst, frozenset({0}), variables)
        assert outcome.domain == (1, 3)
        # element 0 is contracted: rank 2 leaves room for only one more,
        # although the residual budget 2 pays for both.
        assert lp_point(outcome).mass({1, 3}) == 1
        assert outcome.objective == 2

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_rational_solve(self, family):
        # solve_lp solves on the integer view and scales back; the outcome is
        # the one solve_rational_lp gives on the instance's rationals.
        for seed in range(4):
            inst = generate_instance(GenSpec(family, 8, seed))
            m = inst.matroid
            f = frozenset({min(m.ground, key=lambda e: (inst.costs[e], e))})
            for fs in (frozenset(), f):
                self._matches_the_rational_solve(inst, fs, inst.active)

    def _matches_the_rational_solve(self, inst, fs, variables):
        # The residual matroid built by contraction and restriction, the
        # definition the base F of solve_lp's core stands for.
        residual = restrict(contract(inst.matroid, fs), variables - fs)
        expected = solve_rational_lp(
            residual, inst.profits, inst.costs, inst.budget - inst.cost(fs)
        )
        assert solve_lp(inst, fs, variables) == expected
        assert expected.domain == tuple(sorted(variables - fs))
        return expected

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_rational_solve_on_gap_instances(self, family):
        # Seed 0 has lambda* > 0 on every family, so the Newton steps and the
        # walk run; the profit scale dp is above 1.
        for seed in range(3):
            inst = gap_instance(family, 10, seed)
            outcome = self._matches_the_rational_solve(inst, frozenset(), inst.active)
            assert seed or (outcome.multiplier > 0 and inst.view.dp > 1)

    def test_matches_the_rational_solve_with_dropped_elements(self):
        # Edges 1 and 5 are loops: the active set is not the ground set, so
        # the bootstrap LP still restricts to the active elements.
        inst = make_instance(
            F(5),
            [F(3), F(1), F(2), F(4), F(2), F(1), F(3)],
            [F(5, 2), F(9), F(7, 3), F(4), F(3), F(9), F(2)],
            FamilySpec(
                "graphic",
                num_vertices=4,
                edges=((0, 1), (1, 1), (1, 2), (2, 3), (0, 2), (3, 3), (0, 3)),
            ),
        )
        assert inst.dropped == (1, 5)
        outcome = self._matches_the_rational_solve(inst, frozenset(), inst.active)
        assert outcome.domain == tuple(sorted(inst.active))
        assert outcome.multiplier > 0 and set(lp_point(outcome).support()) <= inst.active
        self._matches_the_rational_solve(inst, frozenset({4}), inst.active)
        # A dropped element is neither a fixed element nor an LP variable.
        for f, variables in (({1}, inst.active), ({4, 5}, inst.active), (set(), inst.active | {1})):
            with pytest.raises(PreconditionError, match="outside the active set"):
                solve_lp(inst, f, variables)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_rational_solve_on_a_variable_subset(self, family):
        eps = F(1, 3)
        for seed in range(3):
            for inst in (generate_instance(GenSpec(family, 8, seed)), gap_instance(family, 9, seed)):
                # The threshold 2*eps*alpha is the median profit.
                median = sorted(inst.profits[e] for e in inst.active)[len(inst.active) // 2]
                variables = lp_variables(inst, eps, median / (2 * eps))
                assert variables and variables < inst.active
                self._matches_the_rational_solve(inst, frozenset(), variables)
                f = frozenset({min(variables, key=lambda e: (inst.costs[e], e))})
                self._matches_the_rational_solve(inst, f, variables)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_rational_solve_with_two_fixed(self, family):
        # The first independent, affordable pair of each instance that has one.
        cases = 0
        for seed in range(4):
            for inst in (generate_instance(GenSpec(family, 8, seed)), gap_instance(family, 9, seed)):
                m = inst.matroid
                pairs = (
                    frozenset(pair)
                    for pair in itertools.combinations(sorted(m.ground), 2)
                    if m.is_independent(pair) and inst.cost(pair) <= inst.budget
                )
                f = next(pairs, None)
                if f is not None:
                    self._matches_the_rational_solve(inst, f, inst.active)
                    cases += 1
        assert cases >= 4

    def test_round_integral_feasible(self):
        inst = self._instance()
        outcome = solve_lp(inst, {1}, lp_variables(inst, F(1, 3), F(6)))
        chosen = round_integral(inst, outcome, {1})
        assert 1 in chosen
        assert inst.cost(chosen) <= inst.budget
        assert inst.matroid.is_independent(chosen)


class TestCoreSeam:
    """Every LP of the solve path is one call of the integer core.  The
    benchmark's trace counts the same calls by wrapping
    ``lp.solve_polytope_lp``."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_solve_path_calls_the_core_once_per_lp(self, family, monkeypatch):
        calls = [0]
        core = lp.solve_polytope_lp

        def counted(*args):
            calls[0] += 1
            return core(*args)

        monkeypatch.setattr(lp, "solve_polytope_lp", counted)
        inst = gap_instance(family, 8, 0)
        before = LP_STATS.solves
        report = approximate(inst, F(1, 2), certify=False)
        lp_upper_bound(inst)
        assert report.lp_calls > 0
        assert calls[0] == LP_STATS.solves - before == report.lp_calls + 2


class TestUpperBound:
    def test_bounds_bracket_the_optimum(self):
        rng = random.Random(77)
        for _ in range(30):
            inst = random_instance(rng, rng.choice(("uniform", "partition", "graphic")), rng.randint(1, 8))
            upper, lower = lp_upper_bound(inst)
            opt = brute_force_opt(inst).profit
            assert lower <= opt <= upper
            assert 3 * lower >= upper

    def test_bootstrap_candidates(self):
        # lp_upper_bound's bounds, and the winner behind lower: the better,
        # by profit and then by sorted ids, of the rounded bootstrap LP and
        # the best singleton, lowest id on ties.
        rng = random.Random(78)
        winners = set()
        for _ in range(30):
            inst = random_instance(rng, rng.choice(("uniform", "partition", "linear")), rng.randint(0, 8))
            upper, profit, best = lp.bootstrap(inst)
            lower = F(profit, inst.view.dp)
            assert (upper, lower) == lp_upper_bound(inst)
            assert profit == inst.view.profit(best)
            if not inst.active:
                assert best == frozenset() and lower == 0
                continue
            integral = round_integral(inst, solve_lp(inst, (), inst.active), ())
            top = max(inst.profits[e] for e in inst.active)
            singleton = frozenset({min(e for e in inst.active if inst.profits[e] == top)})
            if inst.profit(integral) != top:
                expected = max((integral, singleton), key=inst.profit)
            else:
                expected = min((integral, singleton), key=sorted)
            assert best == expected
            winners.add("singleton" if best == singleton != integral else "integral")
            assert lower == inst.profit(best) == max(inst.profit(integral), top)
            assert inst.matroid.is_independent(best)
            assert inst.cost(best) <= inst.budget
        assert winners == {"integral", "singleton"}


def complete_reference(inst, start):
    """``complete`` by rational ratios: zero-cost elements first, then by
    non-increasing profit/cost, ties by id, each tested on the rationals."""
    m = inst.matroid
    chosen = set(start)
    rest = [e for e in inst.active - chosen if inst.profits[e] > 0]
    rest.sort(key=lambda e: (inst.costs[e] > 0, -inst.profits[e] / inst.costs[e] if inst.costs[e] else 0, e))
    for e in rest:
        if inst.cost(chosen | {e}) <= inst.budget and m.is_independent(chosen | {e}):
            chosen.add(e)
    return frozenset(chosen)


def complete_corpus():
    """Generator instances of all five families at n <= 10 and gap instances
    at n 8 and 10, seeds 0-3 each."""
    for family in FAMILIES:
        for seed in range(4):
            for n in (4, 6, 8, 10):
                yield generate_instance(GenSpec(family, n, seed))
            for n in (8, 10):
                yield gap_instance(family, n, seed)


class TestComplete:
    @staticmethod
    def starts(inst):
        """The empty set, the bootstrap's winner and the cheapest singleton."""
        yield frozenset()
        yield lp.bootstrap(inst)[2]
        if inst.active:
            yield frozenset({min(inst.active, key=lambda e: (inst.costs[e], e))})

    def test_fills_the_start(self):
        grew = 0
        for inst in complete_corpus():
            m = inst.matroid
            for start in self.starts(inst):
                filled = complete(inst, start)
                assert filled == complete_reference(inst, start)
                assert start <= filled and m.is_independent(filled)
                assert inst.cost(filled) <= inst.budget
                assert inst.profit(filled) >= inst.profit(start)
                grew += filled != start
        assert grew > 0

    def test_maximal_start_is_unchanged(self):
        for inst in complete_corpus():
            m = inst.matroid
            for start in self.starts(inst):
                filled = complete(inst, start)
                # No element of positive profit fits on top of the result.
                for e in inst.active - filled:
                    assert inst.profits[e] == 0 or not (
                        inst.cost(filled | {e}) <= inst.budget and m.is_independent(filled | {e})
                    )
                assert complete(inst, filled) == filled

    def test_zero_cost_first_and_ties_by_id(self):
        # Ratios 2 (elements 1, 3), 3 (element 2) and zero cost (element 4);
        # element 0 has no profit.  Rank 3 keeps the first three scanned.
        inst = make_instance(
            F(10),
            [F(1), F(2), F(1), F(1, 2), F(0)],
            [F(0), F(4), F(3), F(1), F(1, 3)],
            FamilySpec("uniform", rank=3),
        )
        assert complete(inst, ()) == {4, 2, 1}
        assert complete(inst, {0}) == {0, 4, 2}


class TestFeasibilityAssertion:
    """``round_integral`` and ``complete`` assert their result independent
    and affordable; infeasible inputs make each message fire."""

    # Rank 2 over three elements of cost 2 under budget 3: all three are
    # dependent, and any two are independent but over budget.
    inst = make_instance(F(3), [F(2)] * 3, [F(1)] * 3, FamilySpec("uniform", rank=2))
    cases = [((0, 1, 2), "is dependent"), ((0, 1), "exceeds the budget")]

    @pytest.mark.parametrize("chosen, failure", cases)
    def test_round_integral(self, chosen, failure):
        outcome = LpOutcome((0, 1, 2), dict.fromkeys(chosen, 1), 1, (), (len(chosen), 1), (0, 1))
        with pytest.raises(InternalInvariantError, match=f"^rounded LP solution {failure}$"):
            round_integral(self.inst, outcome, ())

    @pytest.mark.parametrize("start, failure", cases)
    def test_complete(self, start, failure):
        with pytest.raises(InternalInvariantError, match=f"^completed solution {failure}$"):
            complete(self.inst, start)
