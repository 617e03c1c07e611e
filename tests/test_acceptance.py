"""Acceptance suite: ten criteria, one printed PASS/FAIL line each.

Expected values come from independent oracles (exhaustive enumeration,
brute-force search, dense LP formulations); nothing is pinned to the code
under test.  All comparisons are exact rational comparisons.

The LP-structure criterion counts the LP solves of its own corpus and
reads the process-wide fractional maximum, so it runs last.
"""

import itertools
import random
from fractions import Fraction as F

import conftest

from budgetmatroid import (
    EpsParam,
    ScaleCapError,
    approximate,
    construct,
    find_rep,
    RunSession,
    restrict,
    run_for_alpha,
    truncate,
)
from budgetmatroid.generate import GenSpec, generate_instance
from budgetmatroid.lp import LP_STATS
from budgetmatroid.matroid import Matroid, min_weight_basis
from budgetmatroid.oracle import brute_force_opt
from budgetmatroid.scheme import alpha_grid, class_partition
from budgetmatroid.verify import check_axioms, verify_representative
from helpers import (
    all_bases,
    random_instance,
    random_matroid,
    skewed_size,
)
from reference import FractionalPoint, contract, knapsack_dp, rank, separate, union


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


def test_criterion_01_approximation_guarantee():
    rng = random.Random(101)
    families = ("uniform", "partition", "graphic", "linear")
    failures = 0
    runs = 0
    for family in families:
        for _ in range(200):
            inst = random_instance(rng, family, skewed_size(rng))
            opt = brute_force_opt(inst).profit
            for eps in (F(1, 2), F(1, 3)):
                for certify in (True, False):
                    profit = approximate(inst, eps, certify=certify).profit
                    runs += 1
                    if profit < (1 - eps) * opt:
                        failures += 1
    report(
        1,
        "approximation guarantee >= (1-eps)*OPT",
        failures == 0,
        f"{runs} runs over {len(families)} families, eps in {{1/2, 1/3}}, "
        f"certified and paper paths, {failures} failures",
    )


def test_criterion_02_inner_guarantee():
    rng = random.Random(102)
    hard_failures = 0
    empirical_misses = 0
    runs = 0

    def alpha_in_window(inst, eps, opt):
        # A grid point of the real guess grid falling in [OPT/2, OPT].
        grid = alpha_grid(opt / 2, opt, eps)
        return grid[-1]

    # eps = 1/7: the (1 - 7 eps) bound is trivial; assert non-negativity and
    # track the stronger empirical (1 - eps) bound.
    for _ in range(60):
        inst = random_instance(rng, rng.choice(("uniform", "partition", "graphic")), rng.randint(1, 12))
        opt = brute_force_opt(inst).profit
        if opt == 0:
            continue
        eps = EpsParam(7)
        sol, _ = run_for_alpha(RunSession(inst, eps), alpha_in_window(inst, eps, opt))
        runs += 1
        if inst.profit(sol) < 0:
            hard_failures += 1
        if inst.profit(sol) < (1 - eps.eps) * opt:
            empirical_misses += 1

    # eps = 1/14: the (1 - 7 eps) = 1/2 bound has teeth.
    for _ in range(60):
        inst = random_instance(rng, rng.choice(("uniform", "partition", "graphic")), rng.randint(1, 10))
        opt = brute_force_opt(inst).profit
        if opt == 0:
            continue
        eps = EpsParam(14)
        sol, _ = run_for_alpha(RunSession(inst, eps), alpha_in_window(inst, eps, opt))
        runs += 1
        if inst.profit(sol) < (1 - 7 * eps.eps) * opt:
            hard_failures += 1
        if inst.profit(sol) < (1 - eps.eps) * opt:
            empirical_misses += 1

    report(
        2,
        "inner guarantee for fixed alpha in [OPT/2, OPT]",
        hard_failures == 0,
        f"{runs} runs, {hard_failures} hard failures, "
        f"{empirical_misses} misses of the stronger (1-eps) bound (recorded only)",
    )


def test_criterion_04_representative_sets():
    rng = random.Random(104)
    eps = EpsParam(3)
    failures = 0
    checked = 0
    while checked < 100:
        inst = random_instance(
            rng, rng.choice(("uniform", "partition", "graphic", "linear")), rng.randint(1, 10)
        )
        opt = brute_force_opt(inst).profit
        if opt == 0:
            continue
        alpha = opt  # inside [OPT/2, OPT]
        classes = class_partition(inst, eps, alpha)
        rep = find_rep(inst, eps, classes)
        checked += 1
        for r, members in classes.items():
            if len(rep.elements & frozenset(members)) > eps.q:
                failures += 1
        ok, _witness = verify_representative(inst, eps, rep.elements, opt)
        if not ok:
            failures += 1
    report(
        4,
        "representative set: per-class bound and replacement property",
        failures == 0 and checked >= 100,
        f"{checked} instances, eps=1/3, alpha=OPT, {failures} failures",
    )


def test_criterion_05_enumeration_bound():
    rng = random.Random(105)
    eps = EpsParam(3)
    failures = 0
    runs = 0
    for _ in range(50):
        inst = random_instance(rng, rng.choice(("uniform", "partition", "graphic")), rng.randint(1, 9))
        upper = brute_force_opt(inst).profit
        if upper == 0:
            continue
        for alpha in alpha_grid(upper / 2, upper, eps):
            rep = find_rep(inst, eps, class_partition(inst, eps, alpha))
            _, enum_count = run_for_alpha(RunSession(inst, eps), alpha)
            runs += 1
            if enum_count > (len(rep.elements) + 1) ** eps.k:
                failures += 1
    report(
        5,
        "enumeration count <= (|R|+1)^(1/eps)",
        failures == 0 and runs >= 100,
        f"{runs} per-alpha runs, {failures} failures",
    )


def test_criterion_06_separation_oracle():
    rng = random.Random(106)
    failures = 0
    points = 0
    while points < 1000:
        n = rng.randint(1, 12) if rng.random() < 0.05 else rng.randint(1, 8)
        m = random_matroid(rng, n)
        elems = sorted(m.ground)
        values = {e: F(rng.randint(0, 5), 4) for e in elems if rng.random() < 0.85}
        x = FractionalPoint(tuple(elems), values)
        # Exhaustive reference over all 2^n rank constraints.
        violated_exists = False
        for size in range(1, len(elems) + 1):
            for combo in itertools.combinations(elems, size):
                if x.mass(combo) > rank(m, set(combo)):
                    violated_exists = True
                    break
            if violated_exists:
                break
        result = separate(m, x)
        points += 1
        if result.inside == violated_exists:
            failures += 1
        elif not result.inside:
            if result.violated_mass <= result.violated_rank:
                failures += 1
            if x.mass(result.violated) != result.violated_mass:
                failures += 1
            if rank(m, result.violated) != result.violated_rank:
                failures += 1
    report(
        6,
        "separation oracle matches exhaustive 2^n rank-constraint check",
        failures == 0,
        f"{points} random points, {failures} disagreements",
    )


def test_criterion_07_greedy_min_basis():
    rng = random.Random(107)
    failures = 0
    cases = 0
    for _ in range(150):
        m = random_matroid(rng, rng.randint(1, 9))
        w = {e: F(rng.randint(0, 9), rng.choice((1, 2, 3))) for e in m.ground}
        basis = min_weight_basis(m, w)
        bases = all_bases(m)
        cases += 1
        if basis not in bases:
            failures += 1
            continue
        if sum(w[e] for e in basis) != min(sum(w[e] for e in b) for b in bases):
            failures += 1
        for a in m.ground - basis:
            if m.is_independent({e for e in basis if w[e] <= w[a]} | {a}):
                failures += 1
    # Union split: a union-matroid minimum basis restricted to each part is
    # that part's minimum basis.
    for _ in range(60):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 5)
        m1 = random_matroid(rng, n1)
        m2 = random_matroid(rng, n2)
        shifted = Matroid(
            frozenset(e + n1 for e in m2.ground),
            lambda s, _m=m2, _k=n1: _m.indep_fn(frozenset(e - _k for e in s)),
            label="shifted",
        )
        w = {e: F(rng.randint(0, 9)) for e in range(n1 + n2)}
        basis = min_weight_basis(union([m1, shifted]), w)
        cases += 1
        if basis & m1.ground != min_weight_basis(m1, {e: w[e] for e in m1.ground}):
            failures += 1
        if basis & shifted.ground != min_weight_basis(
            shifted, {e: w[e] for e in shifted.ground}
        ):
            failures += 1
    report(
        7,
        "greedy minimum basis: optimality, blocking, union split",
        failures == 0,
        f"{cases} matroids up to 9 elements, {failures} failures",
    )


def test_criterion_08_operation_closure():
    rng = random.Random(108)
    failures = 0
    counts = {"restrict": 0, "contract": 0, "truncate": 0, "union": 0}
    while min(counts.values()) < 200:
        m = random_matroid(rng, rng.randint(1, 7))
        op = rng.choice(tuple(counts))
        if op == "restrict":
            keep = frozenset(e for e in m.ground if rng.random() < 0.6)
            derived = restrict(m, keep)
        elif op == "contract":
            pool = sorted(m.ground)
            rng.shuffle(pool)
            f = set()
            for e in pool[: rng.randint(0, 2)]:
                if m.is_independent(f | {e}):
                    f.add(e)
            derived = contract(m, frozenset(f))
        elif op == "truncate":
            derived = truncate(m, rng.randint(0, len(m.ground)))
        else:
            other = random_matroid(rng, rng.randint(1, 2))
            shifted = Matroid(
                frozenset(e + len(m.ground) for e in other.ground),
                lambda s, _m=other, _k=len(m.ground): _m.indep_fn(
                    frozenset(e - _k for e in s)
                ),
                label="shifted",
            )
            derived = union([m, shifted])
        if len(derived.ground) > 9:
            continue
        counts[op] += 1
        if not check_axioms(derived).ok:
            failures += 1
    report(
        8,
        "operations preserve the matroid axioms",
        failures == 0,
        f"cases per operation {counts}, {failures} failures",
    )


def test_criterion_09_knapsack_regression():
    rng = random.Random(109)
    failures = 0
    cases = 0
    while cases < 100:
        inst = random_instance(rng, "uniform", rng.randint(1, 12))
        if inst.matroid_spec.rank < inst.n:
            continue  # only the free-matroid special case
        try:
            dp = knapsack_dp(inst)
        except ScaleCapError:
            continue
        cases += 1
        if dp != brute_force_opt(inst).profit:
            failures += 1
        for certify in (True, False):
            if approximate(inst, F(1, 3), certify=certify).profit < F(2, 3) * dp:
                failures += 1
    report(
        9,
        "knapsack DP equals brute force; scheme within 2/3 of it",
        failures == 0,
        f"{cases} free-matroid instances, certified and paper paths, {failures} failures",
    )


def test_criterion_10_determinism():
    rng = random.Random(110)
    failures = 0
    cases = 0
    for _ in range(10):
        inst = random_instance(
            rng, rng.choice(("uniform", "partition", "graphic", "linear")), rng.randint(2, 9)
        )
        for certify in (True, False):
            reference = None
            for _ in range(4):
                doc = approximate(inst, F(1, 3), certify=certify).to_dict()
                doc.pop("wall_ms")
                if reference is None:
                    reference = doc
                elif doc != reference:
                    failures += 1
            cases += 1
    report(
        10,
        "byte-identical reports across repeats (modulo timing)",
        failures == 0,
        f"{cases} instance-path pairs x 4 runs, {failures} mismatches",
    )


def test_criterion_03_lp_structure_runs_last():
    # Its own paper-path corpus supplies the solves it counts, so it passes
    # alone too.  The fractional maximum is process-wide and so covers
    # every LP of the session; running last, it sees all of them.
    before = LP_STATS.solves
    for family in ("uniform", "partition", "graphic", "linear"):
        for n in (12, 14):
            for seed in range(4):
                approximate(generate_instance(GenSpec(family, n, seed)), F(1, 10), certify=False)
    solves = LP_STATS.solves - before
    ok = solves >= 10_000 and LP_STATS.max_fractional <= 2
    report(
        3,
        "every LP basic solution has <= 2 fractional entries",
        ok,
        f"{solves} LP solves, max fractional entries {LP_STATS.max_fractional}",
    )
