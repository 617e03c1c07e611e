"""The integer LP core against its earlier form, and the walk's one-test steps.

``lp.solve_polytope_lp`` starts Newton's affordable side from the part of
the lambda = 0+ greedy set that fits the budget, reuses the probe that
stops the loop as the walk's first greedy set and updates that set at no
more than one oracle test per walk step.  ``helpers.newton_lp_reference``
is the core before those changes; every outcome, and every raised error
class, must be the same.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from budgetmatroid import lp
from budgetmatroid.generate import GenSpec, generate_instance
from budgetmatroid.lp import lp_upper_bound, lp_variables
from budgetmatroid.matroid import Matroid, greedy, restrict, truncate
from budgetmatroid.scheme import EpsParam

import helpers
from helpers import FAMILIES, gap_instance, newton_lp_reference, random_matroid
from reference import contract

# The benchmark's lp-bound corpus: (family, n, generator seed).
LP_BOUND_SPECS = [(f, 11, s) for s in range(46) for f in FAMILIES[:4]]


def solved(core, *args):
    """Every field of the core's outcome, or the class of the error it raised."""
    try:
        o = core(*args)
    except Exception as exc:
        return type(exc)
    return o.domain, dict(o.xu), o.u, o.fractional_support, o.objective_pair, o.multiplier_pair


def same_as_reference(m, P, C, B, dp=1, dc=1):
    outcome = solved(lp.solve_polytope_lp, m, m.ground, P, C, B, dp, dc)
    assert outcome == solved(newton_lp_reference, m, P, C, B, dp, dc)
    return outcome


def dense_tie_case(rng, family, n, top, budget):
    """Small integer profits and costs, zeros included, on a random family;
    as a dict or, half the time, as a list indexed by element."""
    m = random_matroid(rng, n, family)
    P = [rng.randint(0, top) for _ in range(n)]
    C = [rng.randint(0, top) for _ in range(n)]
    if rng.random() < 0.5:
        P, C = dict(enumerate(P)), dict(enumerate(C))
    return m, P, C, budget


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**30),
        n=st.integers(0, 9),
        top=st.integers(1, 3),
        budget=st.integers(0, 9),
    )
    def test_dense_ties(self, family, seed, n, top, budget):
        same_as_reference(*dense_tie_case(random.Random(seed), family, n, top, budget))

    def test_dense_ties_reach_every_branch(self):
        # Seeded cases with the same draws, counted by how they end: in the
        # Newton branch (lambda* > 0) of each family, with two fractional
        # entries, and in the slack branch (lambda* = 0).
        ends = dict.fromkeys(FAMILIES, 0)
        ends.update({"two fractional": 0, "slack": 0})
        for family in FAMILIES:
            rng = random.Random(family)
            for _ in range(300):
                n, top, budget = rng.randint(0, 9), rng.randint(1, 3), rng.randint(0, 9)
                case = dense_tie_case(rng, family, n, top, budget)
                _, _, _, fractional, _, multiplier = same_as_reference(*case)
                ends[family if multiplier[0] else "slack"] += 1
                ends["two fractional"] += len(fractional) == 2
        assert min(ends.values()) > 0, ends

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generated_instances(self, family):
        for n in range(11 if family == "explicit" else 13):
            for seed in range(8):
                inst = generate_instance(GenSpec(family, n, seed))
                view = inst.view
                same_as_reference(
                    inst.matroid, view.profits, view.costs, view.budget, view.dp, view.dc
                )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_residual_lps_of_gap_instances(self, family):
        # Every independent, affordable F of at most two elements, over all
        # active elements and over the LP variables of one guess: solve_lp,
        # which runs the core from base F, against the reference on the
        # contracted and restricted handle.  Once with the family's scans
        # and once through a plain oracle without one, which takes the
        # generic greedy loop from F; every set that oracle is asked about
        # contains F.  The LPs with nonempty F are counted by how they end:
        # at lambda* = 0, where the core returns the greedy set at once, and
        # at lambda* > 0.
        eps = EpsParam(3)
        ends = {"zero": 0, "positive": 0}
        for seed in range(3):
            inst = gap_instance(family, 9, seed)
            plain, asked = counted(inst.matroid)
            for inst in (inst, dataclasses.replace(inst, matroid=plain)):
                view, m = inst.view, inst.matroid
                guess = lp_variables(inst, eps.eps, lp_upper_bound(inst)[1])
                for size in range(3):
                    for f in map(frozenset, itertools.combinations(sorted(inst.active), size)):
                        spent = view.cost(f)
                        if spent > view.budget or not m.is_independent(f):
                            continue
                        for variables in (inst.active, guess):
                            residual = restrict(contract(m, f), variables - f)
                            mark = len(asked)
                            outcome = solved(lp.solve_lp, inst, f, variables)
                            assert all(f <= s for s in asked[mark:])
                            if f and isinstance(outcome, tuple):
                                ends["positive" if outcome[5][0] else "zero"] += 1
                            assert outcome == solved(
                                newton_lp_reference,
                                residual,
                                view.profits,
                                view.costs,
                                view.budget - spent,
                                view.dp,
                                view.dc,
                            )
            assert asked
        assert min(ends.values()) > 0, ends


def handles(rng, family, n):
    """(handle, base) pairs: a random family's matroid, a truncation of it
    and a contraction of it by an independent set F of up to two elements,
    each with an empty base, and the matroid itself with base F."""
    m = random_matroid(rng, n, family)
    f = frozenset(list(greedy(m, rng.sample(range(n), n)))[: rng.randint(0, 2)])
    none = frozenset()
    return [(m, none), (truncate(m, rng.randint(0, n)), none), (contract(m, f), none), (m, f)]


def counted(m):
    """``m`` with a plain oracle that records each set it is asked about."""
    asked = []

    def indep(s):
        asked.append(s)
        return m.indep_fn(s)

    return Matroid(m.ground, indep, m.label), asked


def walked(m, seq, w, costs, base):
    """The walk's greedy set at the end and the oracle tests it made."""
    handle, asked = counted(m)
    kept = set(greedy(m, seq, base))
    for _ in lp._walk(handle, list(seq), w, costs, kept, base):
        pass
    return kept, asked


class TestWalkLemma:
    """Each walk step changes the greedy set as ``matroid.greedy`` does; a
    walk from base F on m as the walk on ``contract(m, F)``."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_adjacent_swap(self, family):
        # Equal weights and costs that rank ``target`` first make the walk
        # swap exactly seq[i] and seq[i + 1].
        rng = random.Random(family)
        for _ in range(25):
            n = rng.randint(2, 9)
            for m, base in handles(rng, family, n):
                ground = m.ground - base
                if len(ground) < 2:
                    continue
                seq = rng.sample(sorted(ground), rng.randint(2, len(ground)))
                for i in range(len(seq) - 1):
                    target = seq[:i] + [seq[i + 1], seq[i]] + seq[i + 2 :]
                    costs = {e: k for k, e in enumerate(target)}
                    kept, asked = walked(m, seq, dict.fromkeys(seq, 1), costs, base)
                    assert kept == greedy(contract(m, base), target)
                    assert len(asked) <= 1

    @pytest.mark.parametrize("family", FAMILIES)
    def test_trailing_zero_pop(self, family):
        rng = random.Random(family)
        for _ in range(25):
            for m, base in handles(rng, family, rng.randint(1, 9)):
                ground = m.ground - base
                if not ground:
                    continue
                seq = rng.sample(sorted(ground), len(ground))
                w = dict.fromkeys(seq, 1)
                w[seq[-1]] = 0
                kept, asked = walked(m, seq, w, {e: k for k, e in enumerate(seq)}, base)
                contracted = contract(m, base)
                assert kept == greedy(contracted, seq[:-1]) == greedy(contracted, seq) - {seq[-1]}
                assert asked == []

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_change_matches_greedy(self, family):
        # A whole walk: a zero-weight tail, then bubble passes into cost
        # order.  After each change and at the end, the set is the greedy
        # set of the order as it then stands.
        rng = random.Random(family)
        changes = 0
        for _ in range(25):
            for m, base in handles(rng, family, rng.randint(1, 9)):
                contracted = contract(m, base)
                seq = rng.sample(sorted(contracted.ground), len(contracted.ground))
                zeros = rng.randint(0, len(seq))
                w = {e: int(k < len(seq) - zeros) for k, e in enumerate(seq)}
                costs = {e: rng.randint(0, 3) for e in seq}
                kept = set(greedy(m, seq, base))
                for _ in lp._walk(m, seq, w, costs, kept, base):
                    changes += 1
                    assert kept == greedy(contracted, seq)
                assert kept == greedy(contracted, seq)
        assert changes > 0


def test_greedy_passes_on_the_lp_bound_corpus(monkeypatch):
    # The benchmark's lp-bound corpus without relabelling: one bootstrap LP
    # per instance.  The reference makes 815 greedy passes; the core makes
    # 487 and none of them in the walk.
    passes = {"core": 0, "walk": 0, "reference": 0, "walks": 0}
    walking = [False]
    real_walk = lp._walk

    def core_greedy(m, order, base=frozenset()):
        passes["walk" if walking[0] else "core"] += 1
        return greedy(m, order, base)

    def reference_greedy(m, order):
        passes["reference"] += 1
        return greedy(m, order)

    def watched_walk(*args):
        passes["walks"] += 1
        walking[0] = True
        try:
            yield from real_walk(*args)
        finally:
            walking[0] = False

    monkeypatch.setattr(lp, "greedy", core_greedy)
    monkeypatch.setattr(lp, "_walk", watched_walk)
    monkeypatch.setattr(helpers, "greedy", reference_greedy)
    for spec in LP_BOUND_SPECS:
        inst = generate_instance(GenSpec(*spec))
        lp_upper_bound(inst)
        view = inst.view
        newton_lp_reference(
            inst.matroid, view.profits, view.costs, view.budget, view.dp, view.dc
        )
    assert passes["walks"] > 0
    assert passes == {"core": 487, "walk": 0, "reference": 815, "walks": passes["walks"]}
