import ast
import collections
import dataclasses
import functools
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import budgetmatroid
from budgetmatroid import (
    EpsParam,
    FamilySpec,
    PreconditionError,
    ValidationError,
    approximate,
    construct,
    find_rep,
    lp_upper_bound,
    make_instance,
    parse_instance,
    run_for_alpha,
    serialize_instance,
)
from budgetmatroid.generate import GenSpec, generate_instance
from budgetmatroid.lp import LP_STATS, lp_variables, solve_lp
from budgetmatroid.matroid import Matroid, min_weight_basis, restrict, truncate
from budgetmatroid.oracle import brute_force_opt
from budgetmatroid.instance import BmiInstance, format_rational
from budgetmatroid.scheme import (
    RunReport,
    RunSession,
    _better,
    _certificate,
    alpha_grid,
    class_partition,
)
from budgetmatroid.verify import is_replacement, profitable_set, verify_representative
from helpers import (
    FAMILIES,
    class_partition_reference,
    gap_instance,
    lp_variables_reference,
    profit_class_reference,
    r_max_by_power_index,
    random_instance,
    reference_run_for_alpha,
)
from reference import union


def r_max_reference(k):
    # Independent computation of max{m : (1-eps)^m >= eps/2} + 1.
    eps = F(1, k)
    m = 0
    while (1 - eps) ** (m + 1) >= eps / 2:
        m += 1
    return m + 1


class TestEpsParam:
    def test_rejects_small_k(self):
        with pytest.raises(ValidationError):
            EpsParam(2)

    def test_from_target_ceiling(self):
        assert EpsParam.from_target(F(1, 3)).k == 21
        assert EpsParam.from_target(F(1, 2)).k == 14
        assert EpsParam.from_target(F(2, 5)).k == 18  # ceil(35/2)

    def test_from_target_range(self):
        for bad in (F(0), F(1), F(-1, 3), F(3, 2)):
            with pytest.raises(ValidationError):
                EpsParam.from_target(bad)

    @pytest.mark.parametrize("eps", [0.1, True, "1/3"])
    def test_from_target_takes_an_int_or_fraction(self, eps):
        with pytest.raises(ValidationError) as info:
            EpsParam.from_target(eps)
        assert info.value.path == "eps"

    def test_from_target_matches_the_fraction_ceiling(self):
        # k = ceil(7e/d) on the integers of eps = d/e is the rational ceiling.
        for e in range(2, 61):
            for d in range(1, e):
                assert EpsParam.from_target(F(d, e)).k == -((-7) // F(d, e))

    def test_internal_eps_small_enough(self):
        for target in (F(1, 3), F(1, 2), F(1, 7), F(9, 10)):
            assert EpsParam.from_target(target).eps <= target / 7

    def test_q_value(self):
        assert EpsParam(3).q == 27
        assert EpsParam(4).q == 256

    def test_q_is_kept(self):
        # k^k at k = 1,400 has about 4,400 digits: built once per EpsParam.
        eps = EpsParam(1400)
        assert eps.q is eps.q == 1400**1400

    @pytest.mark.parametrize("k", [3, 4, 7, 8, 15, 21, 22, 70, 100, 700])
    def test_r_max_matches_power_index(self, k):
        assert EpsParam(k).r_max == r_max_by_power_index(k)

    @pytest.mark.parametrize("k", [3, 4, 5, 7, 10, 14])
    def test_r_max_matches_reference(self, k):
        assert EpsParam(k).r_max == r_max_reference(k)

    def test_r_max_at_small_eps(self):
        eps = EpsParam(1400)
        one_minus = 1 - eps.eps
        assert one_minus ** (eps.r_max - 1) >= eps.eps / 2 > one_minus**eps.r_max

    def test_small_eps_memory(self):
        # eps target 1/200 gives k = 1400 and r_max = 11,109; class bounds
        # that deep have tens of thousands of digits each.
        inst = make_instance(
            F(5),
            [F(2), F(3), F(1), F(4), F(1), F(2)],
            [F(8), F(6), F(3), F(1), F(2), F(5)],
            FamilySpec("uniform", rank=3),
        )
        tracemalloc.start()
        try:
            approximate(inst, F(1, 200), certify=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def small_instance():
    # Partition matroid, two blocks of two, one pick each.
    return make_instance(
        F(5),
        [F(2), F(3), F(1), F(4)],
        [F(8), F(6), F(3), F(1)],
        FamilySpec("partition", blocks=((0, 1), (2, 3)), capacities=(1, 1)),
    )


def class_of(classes, e):
    """The index of the class that holds e in a ``class_partition``, or None."""
    return next((r for r, members in classes.items() if e in members), None)


def check_class(inst, eps, alpha, classes, e):
    """The class of e in ``classes``, the instance's ``class_partition`` at
    eps and alpha, against the interval definition."""
    ratio = inst.profits[e] / (2 * alpha)
    r = class_of(classes, e)
    if r is None:
        assert ratio > 1 or ratio <= (1 - eps.eps) ** eps.r_max
    else:
        assert (1 - eps.eps) ** r < ratio <= (1 - eps.eps) ** (r - 1)


class TestProfitClasses:
    def test_hand_computed_classes(self):
        inst = small_instance()
        eps = EpsParam(3)
        classes = class_partition(inst, eps, F(5))
        # Ratios p/(2 alpha) = p/10: 8/10 in (2/3, 1] -> class 1;
        # 6/10 in (4/9, 2/3] -> class 2; 3/10 in (8/27, 4/9] -> class 3;
        # 1/10 in (4/81*2/3, ...) -> between (2/3)^5 and (2/3)^6... check below.
        assert class_of(classes, 0) == 1
        assert class_of(classes, 1) == 2
        assert class_of(classes, 2) == 3
        # 1/10 = 0.1: (2/3)^5 = 32/243 ~ 0.1317 > 0.1 >= (2/3)^6 ~ 0.0878,
        # so class 6 if 6 <= r_max (= 5 for k = 3); otherwise unclassed.
        assert class_of(classes, 3) is None

    def test_ratio_above_one_unclassed(self):
        inst = small_instance()
        assert class_of(class_partition(inst, EpsParam(3), F(1)), 0) is None  # 8/2 > 1

    def test_matches_interval_definition(self):
        rng = random.Random(5)
        for _ in range(50):
            inst = random_instance(rng, "uniform", rng.randint(1, 8))
            eps = EpsParam(rng.choice((3, 4, 5)))
            alpha = F(rng.randint(1, 40), rng.choice((1, 2)))
            classes = class_partition(inst, eps, alpha)
            for e in sorted(inst.active):
                check_class(inst, eps, alpha, classes, e)

    @pytest.mark.parametrize("k", [3, 7, 21, 70])
    def test_matches_interval_definition_at_the_bounds(self, k):
        # Ratios on and just beside every bound (1-eps)^j, where the float
        # guess of the class can land on either side.
        eps = EpsParam(k)
        tiny = F(1, 10**30)
        ratios = [
            (1 - eps.eps) ** j * f for j in range(eps.r_max + 2) for f in (1 - tiny, 1, 1 + tiny)
        ]
        inst = make_instance(F(1), [F(0)] * len(ratios), ratios, FamilySpec("uniform", rank=1))
        classes = class_partition(inst, eps, F(1, 2))
        for e in range(len(ratios)):
            check_class(inst, eps, F(1, 2), classes, e)
            assert class_of(classes, e) == profit_class_reference(inst, eps, F(1, 2), e)
        assert classes == class_partition_reference(inst, eps, F(1, 2))

    def test_alpha_must_be_positive(self):
        inst = small_instance()
        with pytest.raises(PreconditionError):
            class_partition(inst, EpsParam(3), F(0))
        with pytest.raises(PreconditionError):
            run_for_alpha(RunSession(inst, EpsParam(3)), F(0))

    def test_session_runs_its_own_instance(self):
        # The instances differ only in element 2's profit, and each
        # session's run answers for its own: {0, 1} (9) for a, {0, 2} (11)
        # for b.
        costs, spec = [F(1)] * 3, FamilySpec("uniform", rank=2)
        a = make_instance(F(2), costs, [F(5), F(4), F(3)], spec)
        b = make_instance(F(2), costs, [F(5), F(4), F(6)], spec)
        assert run_for_alpha(RunSession(a, EpsParam(3)), F(6))[0] == {0, 1}
        assert run_for_alpha(RunSession(b, EpsParam(3)), F(6))[0] == {0, 2}

    def test_partition_covers_classed_elements(self):
        inst = small_instance()
        classes = class_partition(inst, EpsParam(3), F(5))
        assert classes == {1: (0,), 2: (1,), 3: (2,)}


def grid_instances():
    """The generator corpus and the gap-heavy corpus, on every family."""
    for family in FAMILIES:
        for n in (6, 8, 10):
            for seed in range(3):
                yield generate_instance(GenSpec(family, n, seed))
        for n in (8, 10):
            for seed in range(3):
                yield gap_instance(family, n, seed)


class TestIntegerGuessLayer:
    """The integer class index and LP variables against the Fraction
    references, on every alpha of the real guess grids: lower * ((k+1)/k)^j
    carries a power of k in its denominator."""

    @pytest.mark.parametrize("eps_target", [F(1, 2), F(1, 3), F(1, 10)])
    def test_matches_fraction_reference_on_real_grids(self, eps_target):
        eps = EpsParam.from_target(eps_target)
        alphas = 0
        for inst in grid_instances():
            upper, lower = lp_upper_bound(inst)
            if upper == 0:
                continue
            for alpha in alpha_grid(lower, upper, eps):
                alphas += 1
                classes = class_partition(inst, eps, alpha)
                assert classes == class_partition_reference(inst, eps, alpha)
                assert lp_variables(inst, eps.eps, alpha) == lp_variables_reference(
                    inst, eps.eps, alpha
                )
        assert alphas > 100

    def test_lp_variables_boundary(self):
        # p(e) = 2 eps alpha exactly is a variable; one part in 10^30 above
        # is not.  The profits' common denominator makes dp > 1.
        tiny = F(1, 10**30)
        eps, alpha = F(1, 3), F(9, 7)
        bound = 2 * eps * alpha
        inst = make_instance(
            F(1), [F(0)] * 3, [bound, bound + tiny, bound - tiny], FamilySpec("uniform", rank=1)
        )
        assert inst.view.dp > 1
        assert lp_variables(inst, eps, alpha) == {0, 2}
        assert lp_variables(inst, eps, alpha) == lp_variables_reference(inst, eps, alpha)


class TestFindRep:
    def test_slices_are_min_cost_bases(self):
        rng = random.Random(11)
        for _ in range(40):
            inst = random_instance(
                rng, rng.choice(("uniform", "partition", "graphic")), rng.randint(1, 8)
            )
            eps = EpsParam(3)
            alpha = F(rng.randint(1, 30))
            rep = find_rep(inst, eps, alpha)
            m = inst.matroid
            classes = class_partition(inst, eps, alpha)
            assert set(rep.slices) == set(classes)
            level = min(eps.q, len(inst.active))
            for r, members in classes.items():
                cm = truncate(restrict(m, members), level)
                basis = rep.slices[r]
                assert basis <= frozenset(members)
                assert len(basis) <= eps.q
                assert cm.is_independent(basis)
                # No independent set in the class is larger, and none of
                # equal size is cheaper.
                for size in range(len(basis) + 1, len(members) + 1):
                    for combo in itertools.combinations(members, size):
                        assert not cm.is_independent(frozenset(combo))
                cost = inst.cost(basis)
                for combo in itertools.combinations(members, len(basis)):
                    if cm.is_independent(frozenset(combo)):
                        assert inst.cost(combo) >= cost

    def test_union_matroid_equivalence(self):
        rng = random.Random(13)
        for _ in range(25):
            inst = random_instance(rng, "graphic", rng.randint(2, 8))
            eps = EpsParam(3)
            alpha = F(rng.randint(1, 25))
            rep = find_rep(inst, eps, alpha)
            classes = class_partition(inst, eps, alpha)
            if not classes:
                assert rep.elements == frozenset()
                continue
            m = inst.matroid
            level = min(eps.q, len(inst.active))
            parts = [
                truncate(restrict(m, members), level) for members in classes.values()
            ]
            u = union(parts)
            weights = {e: inst.costs[e] for e in u.ground}
            assert min_weight_basis(u, weights) == rep.elements


    def test_truncation_binds(self, monkeypatch):
        # q = 2 is below the size and the rank of some class, so the
        # truncated branch runs; no eps target below 1 reaches it below
        # 16.7 M elements.
        monkeypatch.setattr(EpsParam, "q", 2)
        rng = random.Random(17)
        binding = 0
        for _ in range(30):
            family = rng.choice(("uniform", "partition", "graphic", "linear"))
            inst = random_instance(rng, family, rng.randint(4, 9))
            eps = EpsParam(3)
            assert eps.q == 2
            upper, lower = lp_upper_bound(inst)
            if upper == 0:
                continue
            m = inst.matroid
            for alpha in alpha_grid(lower, upper, eps):
                rep = find_rep(inst, eps, alpha)
                classes = class_partition(inst, eps, alpha)
                assert set(rep.slices) == set(classes)
                for r, members in classes.items():
                    costs = {e: inst.costs[e] for e in members}
                    expected = min_weight_basis(truncate(restrict(m, members), 2), costs)
                    assert rep.slices[r] == expected
                    if len(expected) < len(min_weight_basis(restrict(m, members), costs)):
                        binding += 1
        assert binding > 0


class TestRepMemo:
    """One find_rep per class grouping in a run."""

    @staticmethod
    def groupings(inst, eps, grid):
        return {
            tuple(v for _, v in sorted(class_partition_reference(inst, eps, a).items()))
            for a in grid
        }

    def count_runs(self, monkeypatch, inst, eps_target):
        calls = []
        real = budgetmatroid.scheme.find_rep

        def counted(inst, eps, alpha, *classes):
            calls.append(alpha)
            return real(inst, eps, alpha, *classes)

        monkeypatch.setattr(budgetmatroid.scheme, "find_rep", counted)
        report = approximate(inst, eps_target, certify=False)
        eps = EpsParam.from_target(eps_target)
        assert len(calls) == len(self.groupings(inst, eps, report.alpha_grid))
        # Each reused R is the R of its own alpha.
        calls.clear()
        session = RunSession(inst, eps)
        for alpha in report.alpha_grid:
            run_for_alpha(session, alpha)
        assert len(calls) == len(session.reps)
        for alpha in report.alpha_grid:
            grouping = tuple(v for _, v in sorted(class_partition(inst, eps, alpha).items()))
            assert session.reps[grouping] == real(inst, eps, alpha).elements
        return report, len(session.reps)

    @pytest.mark.parametrize("family", ["partition", "explicit"])
    def test_one_find_rep_on_small_batch_paper_runs(self, monkeypatch, family):
        inst = generate_instance(GenSpec(family, 6, 4))
        report, groupings = self.count_runs(monkeypatch, inst, F(1, 3))
        assert len(report.alpha_grid) == 13 and groupings == 1
        # The bootstrap's winner alone misses the certificate; completed, it
        # certifies the default run.
        default = approximate(inst, F(1, 3))
        assert default.exit == "completion"
        assert default.alpha_grid == () and default.enum_counts == {} and default.lp_calls == 0
        assert default.certified_ratio >= F(2, 3)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_count_is_distinct_groupings(self, monkeypatch, family):
        many = 0
        for n, seed in GAP_CORPUS:
            for eps_target in (F(1, 2), F(1, 3)):
                inst = gap_instance(family, n, seed)
                _, groupings = self.count_runs(monkeypatch, inst, eps_target)
                many += groupings > 1
        assert many > 0


    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_class_partition_per_grid_point(self, monkeypatch, family):
        # run_for_alpha hands its partition to find_rep, so an uncertified
        # run partitions the elements once per alpha of its grid.
        alphas = []
        real = budgetmatroid.scheme.class_partition

        def counted(inst, eps, alpha):
            alphas.append(alpha)
            return real(inst, eps, alpha)

        monkeypatch.setattr(budgetmatroid.scheme, "class_partition", counted)
        report = approximate(gap_instance(family, 10, 0), F(1, 3), certify=False)
        assert len(report.alpha_grid) > 1
        assert alphas == list(report.alpha_grid)


class TestRunForAlpha:
    def test_single_element(self):
        inst = make_instance(F(1), [F(1)], [F(4)], FamilySpec("uniform", rank=1))
        sol, enum_count = run_for_alpha(RunSession(inst, EpsParam(3)), F(4))
        assert sol == {0}
        assert enum_count >= 1

    def test_enum_bound_holds(self):
        rng = random.Random(21)
        for _ in range(20):
            inst = random_instance(rng, "partition", rng.randint(1, 8))
            eps = EpsParam(3)
            opt = brute_force_opt(inst).profit
            if opt == 0:
                continue
            rep = find_rep(inst, eps, opt)
            _, enum_count = run_for_alpha(RunSession(inst, eps), opt)
            assert enum_count <= (len(rep.elements) + 1) ** eps.k

    def test_good_alpha_gives_good_profit(self):
        rng = random.Random(23)
        for _ in range(15):
            inst = random_instance(rng, "uniform", rng.randint(1, 7))
            eps = EpsParam(7)
            opt = brute_force_opt(inst).profit
            if opt == 0:
                continue
            sol, _ = run_for_alpha(RunSession(inst, eps), opt)
            assert inst.profit(sol) >= (1 - 7 * eps.eps) * opt


def check_dfs_against_reference(inst, eps, alpha):
    seen = []

    def recording(inst, f, variables):
        seen.append(f)
        return solve_lp(inst, f, variables)

    session = RunSession(inst, eps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(budgetmatroid.scheme, "solve_lp", recording)
        sol, enum_count = run_for_alpha(session, alpha)
    ref_sol, ref_sets, ref_calls = reference_run_for_alpha(inst, eps, alpha)
    assert sorted(map(sorted, seen)) == sorted(map(sorted, ref_sets))
    assert enum_count == len(ref_sets)
    assert sol == ref_sol
    assert session.oracle_calls <= ref_calls


def guess_grid(inst, eps):
    upper, lower = lp_upper_bound(inst)
    return alpha_grid(lower, upper, eps) if upper > 0 else (F(1),)


class TestEnumerationReference:
    """The pruned DFS of run_for_alpha against the unpruned combinations scan."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_reference_scan(self, family):
        rng = random.Random(61 + FAMILIES.index(family))
        for _ in range(6):
            inst = random_instance(rng, family, rng.randint(1, 9))
            for eps in (EpsParam(3), EpsParam(21)):
                grid = guess_grid(inst, eps)
                for alpha in {grid[0], grid[-1]}:
                    check_dfs_against_reference(inst, eps, alpha)

    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        n=st.integers(0, 8),
        seed=st.integers(0, 2**30),
        k=st.sampled_from((3, 4, 21)),
        pick=st.integers(0, 10),
    )
    def test_matches_reference_scan_hypothesis(self, family, n, seed, k, pick):
        inst = random_instance(random.Random(seed), family, n)
        eps = EpsParam(k)
        grid = guess_grid(inst, eps)
        check_dfs_against_reference(inst, eps, grid[pick % len(grid)])


class TestAlphaGrid:
    def test_geometric_step(self):
        eps = EpsParam(3)
        grid = alpha_grid(F(3), F(10), eps)
        assert grid[0] == F(3)
        for a, b in zip(grid, grid[1:]):
            assert b == a * (1 + eps.eps)
        assert grid[-1] <= F(10) < grid[-1] * (1 + eps.eps)

    def test_contains_half_open_cover(self):
        # Any v in [lower, upper] has a grid point in [v/2, v].
        rng = random.Random(3)
        eps = EpsParam(3)
        lower, upper = F(1), F(100)
        grid = alpha_grid(lower, upper, eps)
        for _ in range(50):
            v = F(rng.randint(1, 400), 4)
            if not lower <= v <= upper:
                continue
            assert any(v / 2 <= a <= v for a in grid)

    def test_bounds_out_of_order_are_refused(self):
        # bootstrap's lower bound is a feasible profit, at most OPT <= upper.
        with pytest.raises(PreconditionError):
            alpha_grid(F(2), F(1), EpsParam(3))
        with pytest.raises(PreconditionError):
            alpha_grid(F(0), F(1), EpsParam(3))
        assert alpha_grid(F(1), F(1), EpsParam(3)) == (F(1),)


class TestApproximate:
    def test_guarantee_small_corpus(self):
        rng = random.Random(31)
        for _ in range(12):
            inst = random_instance(
                rng, rng.choice(("uniform", "partition", "graphic", "linear")), rng.randint(1, 7)
            )
            report = approximate(inst, F(1, 3))
            assert report.profit >= F(2, 3) * brute_force_opt(inst).profit
            assert inst.matroid.is_independent(frozenset(report.solution))
            assert inst.cost(report.solution) <= inst.budget
            assert inst.profit(report.solution) == report.profit

    @pytest.mark.parametrize("eps", [0.1, True, "1/3"])
    def test_eps_must_be_an_int_or_fraction(self, eps):
        # A float would run on its binary value, and a string or a bool is
        # not a number here: each is rejected at eps, as make_instance does.
        inst = random_instance(random.Random(3), "uniform", 4)
        with pytest.raises(ValidationError) as info:
            approximate(inst, eps)
        assert info.value.path == "eps"

    def test_report_to_dict(self):
        # One entry per field, in field order; Fractions as literals, tuples
        # as lists, enum_counts keyed by alpha literals; JSON round trip.
        inst = gap_instance("partition", 8, 0)
        report = approximate(inst, F(1, 3), certify=False)
        report.exact_profit = brute_force_opt(inst).profit
        report.ratio = report.profit / report.exact_profit
        doc = report.to_dict()
        assert list(doc) == [f.name for f in dataclasses.fields(RunReport)]
        assert json.loads(json.dumps(doc)) == doc
        assert report.enum_counts and report.alpha_grid
        assert doc["enum_counts"] == {
            format_rational(a): c for a, c in report.enum_counts.items()
        }
        assert doc["alpha_grid"] == [format_rational(a) for a in report.alpha_grid]
        assert doc["solution"] == list(report.solution)
        for name in ("profit", "upper_bound", "certified_ratio", "exact_profit", "ratio"):
            assert doc[name] == format_rational(getattr(report, name))
        assert doc["lp_calls"] == report.lp_calls and doc["alpha_best"] is not None

    def test_zero_profit_instance(self):
        inst = make_instance(
            F(2), [F(1), F(1)], [F(0), F(0)], FamilySpec("uniform", rank=2)
        )
        report = approximate(inst, F(1, 3))
        assert report.profit == 0
        assert report.solution == ()

    def test_profit_scaling_invariance(self):
        rng = random.Random(41)
        for _ in range(8):
            inst = random_instance(rng, "uniform", rng.randint(1, 6))
            scaled = make_instance(
                inst.budget,
                inst.costs,
                [p * 7 for p in inst.profits],
                inst.matroid_spec,
            )
            a = approximate(inst, F(1, 3))
            b = approximate(scaled, F(1, 3))
            assert b.solution == a.solution
            assert b.profit == 7 * a.profit

    def test_one_integer_view_per_run(self, monkeypatch):
        # The bootstrap LP solves on the instance's view; no run builds a second.
        built = []

        class CountedView(budgetmatroid.instance.IntegerView):
            def __init__(self, inst):
                built.append(inst)
                super().__init__(inst)

        monkeypatch.setattr(budgetmatroid.instance, "IntegerView", CountedView)
        inst = generate_instance(GenSpec("graphic", 8, 0))
        approximate(inst, F(1, 3))
        assert built == [inst]

    def test_view_is_lazy_and_kept(self, monkeypatch):
        # Parsing builds no view; the first solve builds the one every later
        # solve on the instance reads.
        built = []

        class CountedView(budgetmatroid.instance.IntegerView):
            def __init__(self, inst):
                built.append(inst)
                super().__init__(inst)

        monkeypatch.setattr(budgetmatroid.instance, "IntegerView", CountedView)
        made = generate_instance(GenSpec("partition", 8, 1))
        inst = parse_instance(serialize_instance(made))
        assert "view" not in made.__dict__ and "view" not in inst.__dict__
        approximate(inst, F(1, 2))
        approximate(inst, F(1, 3))
        lp_upper_bound(inst)
        assert built == [inst]
        assert "view" not in made.__dict__

    def test_one_solve_and_one_rounding_per_distinct_lp(self, monkeypatch):
        # Two guesses of this run share an (F, variables - F) key: the
        # enumeration visits more F than there are distinct LPs.
        calls = {"solve_lp": 0, "round_integral": 0}
        for name in calls:
            def counted(*args, _fn=getattr(budgetmatroid.scheme, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(budgetmatroid.scheme, name, counted)
        report = approximate(generate_instance(GenSpec("uniform", 5, 0)), F(1, 2), certify=False)
        assert sum(report.enum_counts.values()) > report.lp_calls
        assert calls == {"solve_lp": report.lp_calls, "round_integral": report.lp_calls}

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rational_rescaling_invariance(self, family):
        # Costs and budget times 7/3, profits times 5/11: the integer view
        # of the copy has other common denominators, and nothing else moves.
        q, r = F(7, 3), F(5, 11)
        for n in (6, 9):
            for seed in range(2):
                inst = generate_instance(GenSpec(family, n, seed))
                scaled = make_instance(
                    q * inst.budget,
                    [q * c for c in inst.costs],
                    [r * p for p in inst.profits],
                    inst.matroid_spec,
                )
                a = approximate(inst, F(1, 3))
                b = approximate(scaled, F(1, 3))
                assert b.solution == a.solution
                assert b.profit == r * a.profit
                a = approximate(inst, F(1, 3), certify=False)
                b = approximate(scaled, F(1, 3), certify=False)
                assert b.solution == a.solution
                assert list(b.enum_counts.values()) == list(a.enum_counts.values())
                assert b.enum_counts == {r * alpha: c for alpha, c in a.enum_counts.items()}
                assert b.profit == r * a.profit


class TestGuessDedup:
    """approximate against run_for_alpha on every point of its guess grid."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_enumeration_per_distinct_guess(self, family):
        for seed in range(4):
            for n in (6, 8):
                inst = generate_instance(GenSpec(family, n, seed=seed))
                for eps_target in (F(1, 2), F(1, 3)):
                    check_against_every_guess(inst, eps_target)


def check_against_every_guess(inst, eps_target):
    """Guesses with the same R and LP variables give the same run; approximate
    runs the first of each and returns the best run over the whole grid."""
    report = approximate(inst, eps_target, certify=False)
    eps = EpsParam.from_target(eps_target)
    session = RunSession(inst, eps)
    first_of_guess, runs = {}, {}
    best = None
    for alpha in report.alpha_grid:
        guess = (find_rep(inst, eps, alpha).elements, lp_variables(inst, eps.eps, alpha))
        first_of_guess.setdefault(guess, alpha)
        sol, enum_count = run_for_alpha(session, alpha)
        assert runs.setdefault(guess, (sol, enum_count)) == (sol, enum_count)
        profit = inst.profit(sol)
        if best is None or _better(profit, sol, best[1], best[0]):
            best = (sol, profit, alpha)
    assert report.enum_counts == {a: runs[g][1] for g, a in first_of_guess.items()}
    if best is None:
        assert report.alpha_best is None and report.solution == ()
    else:
        assert report.solution == tuple(sorted(best[0]))
        assert (report.profit, report.alpha_best) == best[1:]


GAP_CORPUS = [(n, seed) for n in (8, 10) for seed in range(4)]
GAP_EPS = (F(1, 3), F(1, 10))
# (family, seed) of generator instances at n = 10 whose default run at
# eps 1/50 leaves by the scheme.
SCHEME_ROWS = (("uniform", 0), ("uniform", 6), ("partition", 0), ("partition", 6), ("partition", 7))


def without_time(report):
    doc = report.to_dict()
    del doc["wall_ms"]
    return doc


@functools.lru_cache(maxsize=None)
def gap_run(family, n, seed, eps_target):
    """(instance, OPT, default report) for a gap-heavy instance."""
    inst = gap_instance(family, n, seed)
    return inst, brute_force_opt(inst).profit, approximate(inst, eps_target)


class TestCertifiedExit:
    """The default path: the bootstrap certificate, then the completed
    winner's, else the paper's scheme."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gap_instances(self, family):
        for n, seed in GAP_CORPUS:
            for eps in GAP_EPS:
                inst, opt, report = gap_run(family, n, seed, eps)
                assert report.profit >= (1 - eps) * opt
                assert inst.profit(report.solution) == report.profit
                assert report.certified_ratio * report.upper_bound == report.profit
                if report.exit == "scheme":
                    # No certificate: the paper's scheme, report for report.
                    assert without_time(report) == without_time(
                        approximate(inst, eps, certify=False)
                    )
                else:
                    assert report.certified_ratio >= 1 - eps
                    assert report.enum_counts == {} and report.lp_calls == 0
                if opt < (1 - eps) * report.upper_bound:
                    # A real LP gap: nothing can certify.
                    assert report.exit == "scheme"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generated_instances(self, family):
        # The generator corpus at n <= 10, the benchmark's small-batch specs
        # among them: every default run certifies against U.
        for n in (4, 6, 8, 10):
            for seed in range(7):
                inst = generate_instance(GenSpec(family, n, seed))
                for eps in (F(1, 2), F(1, 3)):
                    report = approximate(inst, eps)
                    assert inst.profit(report.solution) == report.profit
                    assert inst.matroid.is_independent(report.solution)
                    assert inst.cost(report.solution) <= inst.budget
                    assert report.alpha_grid == () and report.enum_counts == {}
                    assert report.lp_calls == 0
                    assert report.profit >= (1 - eps) * report.upper_bound

    def test_gap_corpus_reaches_every_exit(self):
        # The gap corpus, grouped by exit, reaches all three, and a run
        # leaves by the scheme only on a real LP gap: none enumerates while
        # OPT could certify.  test_gap_instances checks each of these runs'
        # contract.  The generator rows at n = 10 and eps 1/50 reach no
        # certificate with the bootstrap bound, so the default path keeps
        # reaching the scheme outside the gap corpus too.
        by_exit = collections.defaultdict(list)
        for family in FAMILIES:
            for n, seed in GAP_CORPUS:
                for eps in GAP_EPS:
                    _, opt, report = gap_run(family, n, seed, eps)
                    by_exit[report.exit].append((opt, eps, report))
        assert set(by_exit) == {"bootstrap", "completion", "scheme"}
        for opt, eps, report in by_exit["scheme"]:
            assert opt < (1 - eps) * report.upper_bound
        for family, seed in SCHEME_ROWS:
            inst, eps = generate_instance(GenSpec(family, 10, seed)), F(1, 50)
            report = approximate(inst, eps)
            assert report.exit == "scheme", (family, seed)
            assert without_time(report) == without_time(approximate(inst, eps, certify=False))

    def test_only_the_scheme_builds_a_session(self, monkeypatch):
        # The runs of the exit table, and one with a zero bound, made afresh:
        # a certified exit builds no session and the scheme exactly one.
        # The ratio, built from integers, is profit / U, or 1 when U = 0.
        built = []

        class CountedSession(budgetmatroid.scheme.RunSession):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(budgetmatroid.scheme, "RunSession", CountedSession)
        runs = [
            (gap_instance(family, n, seed), eps)
            for family in FAMILIES
            for n, seed in GAP_CORPUS
            for eps in GAP_EPS
        ]
        runs += [(generate_instance(GenSpec(family, 10, seed)), F(1, 50)) for family, seed in SCHEME_ROWS]
        zero = make_instance(F(2), [F(1), F(1)], [F(0), F(0)], FamilySpec("uniform", rank=2))
        runs.append((zero, F(1, 3)))
        exits = collections.Counter()
        for inst, eps in runs:
            built.clear()
            report = approximate(inst, eps)
            exits[report.exit] += 1
            assert len(built) == (report.exit == "scheme")
            upper = report.upper_bound
            assert report.certified_ratio == (report.profit / upper if upper else 1)
        assert set(exits) == {"bootstrap", "completion", "scheme"}
        assert exits["scheme"] > len(SCHEME_ROWS)

    def test_certified_at_bootstrap_solves_one_lp(self):
        for inst in (generate_instance(GenSpec("graphic", 10, 7)), gap_instance("uniform", 10, 2)):
            before = LP_STATS.solves
            report = approximate(inst, F(1, 3))
            assert LP_STATS.solves - before == 1
            assert report.exit == "bootstrap"
            assert report.alpha_grid == () and report.enum_counts == {} and report.lp_calls == 0
            assert report.alpha_best is None and report.certified_ratio >= F(2, 3)

    def test_paper_path_fields(self):
        inst = generate_instance(GenSpec("graphic", 10, 7))
        report = approximate(inst, F(1, 3), certify=False)
        assert sum(report.enum_counts.values()) > 0
        assert report.upper_bound == lp_upper_bound(inst)[0]
        assert report.certified_ratio == report.profit / report.upper_bound

    def test_zero_bound(self):
        inst = make_instance(F(2), [F(1), F(1)], [F(0), F(0)], FamilySpec("uniform", rank=2))
        for certify in (True, False):
            report = approximate(inst, F(1, 3), certify=certify)
            assert report.upper_bound == 0 and report.certified_ratio == 1
            assert report.solution == ()
            # A zero bound certifies any profit, so the winner is returned.
            assert report.exit == ("bootstrap" if certify else "scheme")

    def test_certificate_boundary(self):
        # Profits 5/6, 2/3 and 1/3 scale by dp = 6 to 5, 4 and 2.  With
        # eps = 2/7 and U = 7/6, (1 - eps) * U = 5/6: profit 5 meets it
        # exactly, and profit 4, one scaled unit less, does not.
        inst = make_instance(
            F(3), [F(1), F(2), F(1, 2)], [F(5, 6), F(2, 3), F(1, 3)], FamilySpec("uniform", rank=2)
        )
        assert inst.view.dp == 6
        eps, upper = F(2, 7), F(7, 6)
        assert _certificate(inst, eps, upper, inst.view.profit({0})) is True
        assert _certificate(inst, eps, upper, inst.view.profit({1})) is False
        assert _certificate(inst, eps, upper, inst.view.profit({1, 2})) is True
        # A zero bound certifies any profit, even none.
        assert _certificate(inst, eps, F(0), 0) and _certificate(inst, eps, F(0), 2)


DROPPED_KINDS = ("graphic", "linear", "partition", "explicit")


def dropped_instance(kind, seed, n=10):
    """gap_instance's weights for the same seed on a family with two
    dependent singletons.

    The dropped elements are a graphic loop edge, a zero linear column, a
    capacity-0 partition block or explicit elements in no listed set.  Each
    costs 1 and has profit 100, so a solve that used one would show.
    """
    rng = random.Random(seed)
    dropped = set(rng.sample(range(n), 2))
    kept = [e for e in range(n) if e not in dropped]
    if kind == "graphic":
        edges = []
        for e in range(n):
            u = rng.randrange(4)
            edges.append((u, u) if e in dropped else (u, (u + rng.randint(1, 3)) % 4))
        spec = FamilySpec("graphic", num_vertices=4, edges=tuple(edges))
    elif kind == "linear":
        columns = []
        for e in range(n):
            col = [F(0)] * 3
            if e not in dropped:
                col = [F(rng.randint(-2, 2)) for _ in range(3)]
                col[rng.randrange(3)] = F(rng.randint(1, 2))
            columns.append(tuple(col))
        spec = FamilySpec("linear", columns=tuple(columns))
    elif kind == "partition":
        blocks = (tuple(sorted(dropped)), tuple(kept[:3]), tuple(kept[3:]))
        caps = (0, rng.randint(1, 3), rng.randint(1, 3))
        spec = FamilySpec("partition", blocks=blocks, capacities=caps)
    else:
        size = rng.randint(1, 4)
        spec = FamilySpec("explicit", maximal_sets=tuple(itertools.combinations(kept, size)))
    weights = gap_instance("uniform", n, seed)
    costs = [F(1) if e in dropped else c for e, c in enumerate(weights.costs)]
    profits = [F(100) if e in dropped else p for e, p in enumerate(weights.profits)]
    inst = make_instance(F(100), costs, profits, spec)
    assert inst.dropped == tuple(sorted(dropped)) and inst.active == frozenset(kept)
    return inst


class TestDroppedElements:
    """Instances whose active set is not the ground set, end to end."""

    @pytest.mark.parametrize("kind", DROPPED_KINDS)
    def test_both_paths_solve_on_the_active_elements(self, kind):
        uncertified = 0
        for seed in range(3):
            inst = dropped_instance(kind, seed)
            opt = brute_force_opt(inst).profit
            for eps in (F(1, 2), F(1, 3), F(1, 10)):
                for certify in (True, False):
                    report = approximate(inst, eps, certify=certify)
                    solution = frozenset(report.solution)
                    assert report.profit >= (1 - eps) * opt
                    assert report.upper_bound >= opt
                    assert solution <= inst.active
                    assert inst.matroid.is_independent(solution)
                    assert inst.cost(solution) <= inst.budget
                    assert inst.profit(solution) == report.profit
                    assert report.dropped == inst.dropped
                    uncertified += certify and report.exit == "scheme"
        # The default path also reaches the scheme, not only the bootstrap.
        assert uncertified

    def test_active_is_the_matroid_ground(self):
        assert "active" not in {f.name for f in dataclasses.fields(BmiInstance)}
        for seed in range(3):
            for inst in (
                *(generate_instance(GenSpec(family, 8, seed)) for family in FAMILIES),
                *(dropped_instance(kind, seed) for kind in DROPPED_KINDS),
            ):
                assert inst.active is inst.matroid.ground
                assert inst.active.isdisjoint(inst.dropped)
                assert inst.active.union(inst.dropped) == frozenset(range(inst.n))

    @pytest.mark.parametrize("kind", DROPPED_KINDS)
    def test_a_bootstrap_exit_builds_no_matroid(self, monkeypatch, kind):
        # The instance keeps its one handle on the active elements, so a run
        # certified at the bootstrap builds none.
        inst = dropped_instance(kind, 0)
        built = []
        init = Matroid.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Matroid, "__init__", counted)
        report = approximate(inst, F(1, 3))
        assert report.exit == "bootstrap"
        assert built == []

    @pytest.mark.parametrize(
        "kind", ("graphic", "linear", "partition", "gap", *(f"gap10-{f}" for f in FAMILIES))
    )
    def test_a_residual_lp_builds_no_matroid(self, monkeypatch, kind):
        # solve_lp hands the core the instance's matroid and its variables,
        # so the paper path's residual LPs build no handle of their own:
        # neither a restriction nor a contraction by their nonempty F.
        if kind == "gap":
            inst, eps = gap_instance("graphic", 12, 0), F(1, 10)
        elif kind.startswith("gap10-"):
            inst, eps = gap_instance(kind.removeprefix("gap10-"), 10, 0), F(1, 3)
        else:
            inst, eps = dropped_instance(kind, 0), F(1, 3)
        solving, built = [False], []
        init, solve = Matroid.__init__, budgetmatroid.scheme.solve_lp

        def counted(self, *args, **kwargs):
            if solving[0]:
                built.append(args)
            init(self, *args, **kwargs)

        def flagged(*args):
            solving[0] = True
            try:
                return solve(*args)
            finally:
                solving[0] = False

        monkeypatch.setattr(Matroid, "__init__", counted)
        monkeypatch.setattr(budgetmatroid.scheme, "solve_lp", flagged)
        report = approximate(inst, eps, certify=False)
        assert report.lp_calls > 0 and max(report.enum_counts.values()) > 1
        assert built == []

    @pytest.mark.parametrize("kind", ("plain", *DROPPED_KINDS))
    def test_a_counted_oracle_changes_no_report(self, kind):
        # A tracer counts the oracle by swapping in a handle on the same
        # ground whose test counts each call, with dataclasses.replace.
        inst = gap_instance("graphic", 10, 0) if kind == "plain" else dropped_instance(kind, 0)
        m, tests = inst.matroid, []

        def indep(s):
            tests.append(s)
            return m.indep_fn(s)

        counted = dataclasses.replace(inst, matroid=Matroid(m.ground, indep, m.label))
        assert counted.active == inst.active and counted.dropped == inst.dropped
        for certify in (True, False):
            tests.clear()
            report = approximate(counted, F(1, 3), certify=certify)
            assert without_time(report) == without_time(approximate(inst, F(1, 3), certify=certify))
        assert report.exit == "scheme"
        assert len(tests) >= report.oracle_calls > 0


class TestCheckers:
    def setup_method(self):
        self.inst = small_instance()
        self.eps = EpsParam(3)
        self.opt = brute_force_opt(self.inst).profit  # {0, 2}: profit 11, cost 3

    def test_oracle_optimum(self):
        assert self.opt == F(11)

    def test_profitable_set(self):
        # Threshold eps * OPT = 11/3: profits 8, 6 exceed it; 3 and 1 do not.
        assert profitable_set(self.inst, self.eps, self.opt) == {0, 1}

    def test_identity_replacement(self):
        g = frozenset({0, 2})
        h = profitable_set(self.inst, self.eps, self.opt)
        assert is_replacement(self.inst, self.eps, g, g & h, self.opt)

    def test_replacement_rejects_costlier(self):
        # Z = {1} for G = {0, 2}: cost 3 > cost(G n H) = 2.
        assert not is_replacement(self.inst, self.eps, {0, 2}, {1}, self.opt)

    def test_replacement_rejects_low_profit(self):
        # Z = {} drops the profitable element 0 entirely.
        assert not is_replacement(self.inst, self.eps, {0, 2}, set(), self.opt)


class TestVerifyRepresentative:
    def test_full_ground_is_representative(self):
        inst = small_instance()
        eps = EpsParam(3)
        opt = brute_force_opt(inst).profit
        ok, witness = verify_representative(inst, eps, inst.active, opt)
        assert ok and witness is None

    def test_empty_set_fails_with_witness(self):
        inst = small_instance()
        eps = EpsParam(3)
        opt = brute_force_opt(inst).profit
        ok, witness = verify_representative(inst, eps, frozenset(), opt)
        assert not ok
        assert witness & profitable_set(inst, eps, opt)

    def test_find_rep_output_verifies(self):
        rng = random.Random(53)
        for _ in range(15):
            inst = random_instance(rng, rng.choice(("uniform", "graphic")), rng.randint(1, 7))
            eps = EpsParam(3)
            opt = brute_force_opt(inst).profit
            if opt == 0:
                continue
            rep = find_rep(inst, eps, opt)
            ok, witness = verify_representative(inst, eps, rep.elements, opt)
            assert ok, (inst, sorted(rep.elements), witness)


def imported_modules(tree) -> set:
    """Every dotted component of every module a parsed source imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # `from . import x` names a module; `from .m import x` names m.
            modules = [node.module] if node.module else [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            names.update(module.split("."))
    return names


SOLVE_PATH_MODULES = ["lp", "scheme", "instance", "matroid", "families", "generate"]


@pytest.mark.parametrize("module", SOLVE_PATH_MODULES)
def test_solve_path_imports_no_verification_code(module):
    source = Path(budgetmatroid.__file__).with_name(f"{module}.py").read_text()
    assert not imported_modules(ast.parse(source)) & {"verify", "simplex", "oracle", "itertools"}


def test_every_package_definition_is_exported_or_named():
    # Each top-level def or class of the package is in __all__ or is named
    # somewhere in the package; code that only the tests reach lives in
    # tests/reference.py.
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(Path(budgetmatroid.__file__).parent.glob("*.py"))
    }
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unreached = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in named
        and node.name not in budgetmatroid.__all__
    ]
    assert unreached == []


def test_package_and_cli_imports_leave_verify_unloaded(tmp_path):
    # A fresh interpreter, since this one has loaded verify for the tests.
    # The imports and every command but verify leave verify unloaded; the
    # verify command, run last, loads it.  The commands print too, so the
    # findings come on the last line.
    src = str(Path(budgetmatroid.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    (tmp_path / "inst").mkdir()
    code = (
        "import sys\n"
        "loaded = lambda: 'budgetmatroid.verify' in sys.modules\n"
        "import budgetmatroid\n"
        "seen = [loaded()]\n"
        "from budgetmatroid.cli import main\n"
        "seen.append(loaded())\n"
        "inst = 'inst/a.json'\n"
        "for argv in (\n"
        "    ['gen', '--family', 'partition', '--n', '6', '--seed', '7', '-o', inst],\n"
        "    ['solve', '--instance', inst, '--eps', '1/3', '--exact', '--report', 'r.json'],\n"
        "    ['exact', '--instance', inst],\n"
        "    ['bench', '--dir', 'inst', '--eps', '1/3', '--csv', 'b.csv'],\n"
        "    ['verify', '--instance', inst, '--eps', '1/3'],\n"
        "):\n"
        "    assert main(argv) == 0, argv\n"
        "    seen.append(loaded())\n"
        "print(*seen)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        check=True,
    )
    assert proc.stdout.splitlines()[-1].split() == ["False"] * 6 + ["True"]
