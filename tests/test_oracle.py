import itertools
import random
from fractions import Fraction as F

import pytest

from budgetmatroid import FamilySpec, ScaleCapError, ValidationError, make_instance
from budgetmatroid.oracle import brute_force_opt
from helpers import random_instance
from reference import knapsack_dp


def free_instance(budget, costs, profits):
    return make_instance(
        F(budget),
        [F(c) for c in costs],
        [F(p) for p in profits],
        FamilySpec("uniform", rank=len(costs)),
    )


class TestBruteForce:
    def test_simple_knapsack(self):
        inst = free_instance(5, [2, 3, 4], [3, 4, 5])
        result = brute_force_opt(inst)
        assert result.solution == {0, 1}
        assert result.profit == F(7)

    def test_tie_break_lex_smallest(self):
        inst = free_instance(1, [1, 1], [2, 2])
        assert brute_force_opt(inst).solution == {0}

    def test_zero_profit_keeps_empty_set(self):
        inst = free_instance(2, [1, 1], [0, 0])
        result = brute_force_opt(inst)
        assert result.solution == frozenset()
        assert result.profit == 0

    def test_matroid_constraint_respected(self):
        inst = make_instance(
            F(10),
            [F(1)] * 3,
            [F(5), F(4), F(3)],
            FamilySpec("partition", blocks=((0, 1), (2,)), capacities=(1, 1)),
        )
        assert brute_force_opt(inst).solution == {0, 2}

    def test_cap_enforced(self):
        inst = free_instance(30, [15] * 21, [1] * 21)
        with pytest.raises(ScaleCapError):
            brute_force_opt(inst)
        assert brute_force_opt(inst, cap=21).profit == F(2)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_full_enumeration(self, seed):
        rng = random.Random(seed)
        inst = random_instance(
            rng, rng.choice(("uniform", "partition", "graphic", "linear")), rng.randint(1, 8)
        )
        m = inst.matroid
        elems = sorted(inst.active)
        best, optimal = F(0), []
        for size in range(len(elems) + 1):
            for combo in itertools.combinations(elems, size):
                s = frozenset(combo)
                if inst.cost(s) <= inst.budget and m.is_independent(s):
                    if inst.profit(s) > best:
                        best, optimal = inst.profit(s), []
                    if inst.profit(s) == best:
                        optimal.append(combo)
        result = brute_force_opt(inst)
        assert result.profit == best
        # Ties go to the lexicographically smallest sorted optimal set.
        assert tuple(sorted(result.solution)) == min(optimal)


class TestKnapsackDp:
    def test_matches_brute_force_hand_case(self):
        inst = free_instance(7, ["3/2", "5/2", 3], [4, 5, 6])
        assert knapsack_dp(inst) == brute_force_opt(inst).profit

    def test_empty_instance(self):
        inst = make_instance(F(1, 2), [], [], FamilySpec("uniform", rank=0))
        assert knapsack_dp(inst) == 0 == brute_force_opt(inst).profit

    def test_requires_free_matroid(self):
        inst = make_instance(
            F(3), [F(1), F(1)], [F(1), F(1)], FamilySpec("uniform", rank=1)
        )
        with pytest.raises(ValidationError):
            knapsack_dp(inst)

    def test_cap_on_integerized_budget(self):
        inst = free_instance("100000000/7", [1], [1])
        with pytest.raises(ScaleCapError):
            knapsack_dp(inst)

    def test_cap_names_a_budget_beyond_digit_limit(self):
        inst = free_instance("1e4300", [1], [1])
        with pytest.raises(ScaleCapError, match="integerized budget 1" + "0" * 4300 + " exceeds"):
            knapsack_dp(inst)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_randomized(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 10)
        costs = [F(rng.randint(1, 9), rng.choice((1, 2, 4))) for _ in range(n)]
        profits = [F(rng.randint(0, 12), rng.choice((1, 3))) for _ in range(n)]
        budget = max(max(costs), sum(costs) * F(rng.randint(3, 8), 10))
        inst = free_instance(budget, costs, profits)
        assert knapsack_dp(inst) == brute_force_opt(inst).profit
