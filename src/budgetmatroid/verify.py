"""Verification-only code: the exhaustive axiom checker, rank,
contraction, points of the matroid polytope and their separation, the
reference LP value, the knapsack DP and the rational linear-independence
test.

Nothing on the solve path imports this module, the package root does not
re-export it, and the CLI loads it only for its ``verify`` command, so
``import budgetmatroid`` and ``budgetmatroid solve`` never run it.  The
matroid helpers (rank, contraction, disjoint union, axiom checker) work
directly from the oracle; the scheme checkers (replacement, representative
set) take the exact optimum as an argument because the profitable-element
threshold depends on it, which only a verification oracle knows.  The
parametric-greedy LP is
tested against ``solve_polytope_lp_reference``, which lists the independent
sets of a small matroid: the LP optimum lies on a vertex or an edge of the
matroid polytope, so it is the best affordable set or the best budget-tight
mix of two independent sets.  ``knapsack_dp`` gives the exact optimum of
the free-matroid special case, against which brute force and the scheme
are checked.  The fraction-free linear oracle that ``families.construct``
builds is tested against ``columns_independent_reference``, Gaussian
elimination over Fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import PreconditionError, ScaleCapError, ValidationError
from .instance import BmiInstance, format_rational
from .matroid import Matroid, greedy
from .scheme import EpsParam

ZERO = Fraction(0)
# Largest ground set solve_polytope_lp_reference enumerates: on generated
# instances the pair scan took 0.3 s per LP at 9 elements and 1 s at 10
# (means on 2 vCPUs, Python 3.11).
LP_REFERENCE_CAP = 9
# Largest ground set check_axioms tabulates: the exchange scan is 3^n.
AXIOM_CHECK_CAP = 10
# Largest integer budget, in the instance's IntegerView, knapsack_dp fills.
KNAPSACK_DP_CAP = 100_000


@dataclass(frozen=True)
class FractionalPoint:
    domain: tuple[int, ...]
    values: Mapping[int, Fraction] = field(repr=False)

    def __getitem__(self, e: int) -> Fraction:
        return self.values.get(e, ZERO)

    def mass(self, subset: Iterable[int]) -> Fraction:
        return sum((self.values.get(e, ZERO) for e in subset), ZERO)

    def support(self) -> tuple[int, ...]:
        return tuple(e for e in self.domain if self.values.get(e, ZERO) > 0)


def rank(m: Matroid, subset: Iterable[int]) -> int:
    """Greedy rank computation; correct for matroids by the exchange axiom."""
    s = frozenset(subset)
    if not s <= m.ground:
        raise PreconditionError(f"elements {sorted(s - m.ground)} outside ground set")
    return len(greedy(m, sorted(s)))


@dataclass(frozen=True)
class SeparationResult:
    inside: bool
    violated: frozenset | None = None
    violated_rank: int | None = None
    violated_mass: Fraction | None = None


def separate(m: Matroid, x: FractionalPoint) -> SeparationResult:
    """Membership test for the matroid polytope, or a violated rank set.

    Reference implementation: exhaustive minimization of rank(S) - x(S).
    The scan is restricted to the support of x, which is exact: dropping
    zero-mass elements from S never increases rank(S) - x(S), and a
    violation-free support implies membership.
    """
    dom = set(x.domain)
    if not dom <= m.ground:
        raise PreconditionError("point domain not contained in matroid ground")
    for e in x.domain:
        if x[e] < 0:
            raise PreconditionError(f"negative entry for element {e}")
    supp = sorted(x.support())
    rank_cache: dict[frozenset, int] = {}

    def cached_rank(s: frozenset) -> int:
        r = rank_cache.get(s)
        if r is None:
            r = rank(m, s)
            rank_cache[s] = r
        return r

    best_margin = ZERO
    best_set: frozenset | None = None
    for size in range(1, len(supp) + 1):
        for combo in itertools.combinations(supp, size):
            s = frozenset(combo)
            margin = cached_rank(s) - x.mass(s)
            if margin < best_margin:
                best_margin = margin
                best_set = s
    if best_set is None:
        return SeparationResult(True)
    return SeparationResult(
        False,
        violated=best_set,
        violated_rank=cached_rank(best_set),
        violated_mass=x.mass(best_set),
    )


def solve_polytope_lp_reference(
    m: Matroid,
    profits: Mapping[int, Fraction],
    costs: Mapping[int, Fraction],
    budget: Fraction,
) -> Fraction:
    """Optimum of max{p.x : c.x <= budget, x in P_M} by enumerating pairs.

    A vertex of P_M n {c.x <= budget} is a vertex of P_M or the point where
    an edge of P_M crosses the budget hyperplane, and an edge of P_M joins
    two independent sets.  So the optimum is the best affordable set or the
    best budget-tight point theta*chi_I + (1-theta)*chi_J with
    c(I) > budget >= c(J); every such point lies in P_M, which is convex.
    Refuses above ``LP_REFERENCE_CAP`` ground elements: the pair scan is
    quadratic in the number of independent sets.
    """
    n = len(m.ground)
    if n > LP_REFERENCE_CAP:
        raise ScaleCapError(f"ground size {n} exceeds LP-reference cap {LP_REFERENCE_CAP}")
    if budget < 0:
        raise PreconditionError("negative residual budget")
    sets = [
        (sum((profits[e] for e in s), ZERO), sum((costs[e] for e in s), ZERO))
        for s in _independent_subsets(m, n)
    ]
    affordable = [(p, c) for p, c in sets if c <= budget]
    best = max(p for p, _ in affordable)
    for p_i, c_i in sets:
        if c_i > budget:
            for p_j, c_j in affordable:
                theta = (budget - c_j) / (c_i - c_j)
                best = max(best, theta * p_i + (1 - theta) * p_j)
    return best


def knapsack_dp(inst: BmiInstance) -> Fraction:
    """Exact 0/1-knapsack optimum for the free-matroid special case.

    The DP runs over the ``IntegerView``'s integer costs and budget, the
    budget at most ``KNAPSACK_DP_CAP``; profits stay exact rationals.
    """
    spec = inst.matroid_spec
    if spec.kind != "uniform" or spec.rank < inst.n:
        raise ValidationError("knapsack DP requires a free matroid (uniform rank >= n)")
    view = inst.view
    if view.budget > KNAPSACK_DP_CAP:
        raise ScaleCapError(
            f"integerized budget {format_rational(view.budget)} exceeds DP cap {KNAPSACK_DP_CAP}"
        )
    dp: list[Fraction | None] = [None] * (view.budget + 1)
    dp[0] = ZERO
    for e in sorted(inst.active):
        w = view.costs[e]
        p = inst.profits[e]
        for c in range(view.budget, w - 1, -1):
            prev = dp[c - w]
            if prev is not None and (dp[c] is None or prev + p > dp[c]):
                dp[c] = prev + p
    return max(v for v in dp if v is not None)


def columns_independent_reference(cols: Sequence[Sequence[Fraction]]) -> bool:
    """Gaussian elimination over rationals; True iff the columns are linearly
    independent.  The linear family's oracle is tested against it."""
    if not cols:
        return True
    dim = len(cols[0])
    if len(cols) > dim:
        return False
    mat = [list(col) for col in cols]
    used_rows: set[int] = set()
    for vec in mat:
        pivot_row = None
        for r in range(dim):
            if r not in used_rows and vec[r] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return False
        used_rows.add(pivot_row)
        inv = 1 / vec[pivot_row]
        for other in mat:
            if other is vec or other[pivot_row] == 0:
                continue
            factor = other[pivot_row] * inv
            for r in range(dim):
                other[r] -= factor * vec[r]
    return True


def contract(m: Matroid, f: Iterable[int]) -> Matroid:
    """M/F for independent F: A is independent iff A u F is in M."""
    fs = frozenset(f)
    if not m.is_independent(fs):
        raise PreconditionError("contraction set must be independent")
    parent = m.indep_fn
    return Matroid(m.ground - fs, lambda s: parent(s | fs), label=f"contract({m.label})")


def union(ms: list[Matroid]) -> Matroid:
    """Disjoint-ground union; A is independent iff each slice A n E_i is."""
    grounds = [m.ground for m in ms]
    for i, j in itertools.combinations(range(len(ms)), 2):
        if grounds[i] & grounds[j]:
            raise PreconditionError(
                f"union requires pairwise disjoint grounds; parts {i} and {j} overlap"
            )
    parts = tuple((m.ground, m.indep_fn) for m in ms)
    full = frozenset().union(*grounds) if grounds else frozenset()
    return Matroid(
        full,
        lambda s, _parts=parts: all(fn(s & g) for g, fn in _parts),
        label=f"union[{len(ms)}]",
    )


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    violation: str | None = None
    witness: tuple | None = None


def check_axioms(m: Matroid) -> AxiomReport:
    """Exhaustively verify non-emptiness, hereditary and exchange axioms.

    Refuses above ``AXIOM_CHECK_CAP`` ground elements: the pairwise
    exchange scan is a 3^n blowup.
    """
    elems = sorted(m.ground)
    n = len(elems)
    if n > AXIOM_CHECK_CAP:
        raise ScaleCapError(f"ground size {n} exceeds axiom-check cap {AXIOM_CHECK_CAP}")
    # Independence table over bitmasks of `elems`.
    table = []
    for mask in range(1 << n):
        s = frozenset(elems[i] for i in range(n) if mask >> i & 1)
        table.append(m.indep_fn(s))

    def to_set(mask):
        return tuple(elems[i] for i in range(n) if mask >> i & 1)

    if not table[0]:
        return AxiomReport(False, "empty set is dependent", ())
    for mask in range(1 << n):
        if not table[mask]:
            continue
        for i in range(n):
            if mask >> i & 1 and not table[mask ^ (1 << i)]:
                return AxiomReport(
                    False, "hereditary violation", (to_set(mask), to_set(mask ^ (1 << i)))
                )
    indep_masks = [mask for mask in range(1 << n) if table[mask]]
    by_size: dict[int, list[int]] = {}
    for mask in indep_masks:
        by_size.setdefault(bin(mask).count("1"), []).append(mask)
    for size_a in sorted(by_size):
        for size_b in sorted(by_size):
            if size_a <= size_b:
                continue
            for a_mask in by_size[size_a]:
                for b_mask in by_size[size_b]:
                    diff = a_mask & ~b_mask
                    found = False
                    while diff:
                        bit = diff & -diff
                        if table[b_mask | bit]:
                            found = True
                            break
                        diff ^= bit
                    if not found:
                        return AxiomReport(
                            False, "exchange violation", (to_set(a_mask), to_set(b_mask))
                        )
    return AxiomReport(True)


def profitable_set(inst: BmiInstance, eps: EpsParam, opt_value: Fraction) -> frozenset:
    return frozenset(e for e in inst.active if inst.profits[e] > eps.eps * opt_value)


def is_replacement(
    inst: BmiInstance,
    eps: EpsParam,
    g: Iterable[int],
    z: Iterable[int],
    opt_value: Fraction,
) -> bool:
    """The four replacement properties of Z for G, decided directly."""
    gs, zs = frozenset(g), frozenset(z)
    m = inst.matroid
    if not m.is_independent(gs) or len(gs) > eps.q:
        raise PreconditionError("G must be independent with |G| <= q(eps)")
    h = profitable_set(inst, eps, opt_value)
    merged = (gs - h) | zs
    if len(merged) > eps.q or not m.is_independent(merged):
        return False
    if inst.cost(zs) > inst.cost(gs & h):
        return False
    if inst.profit(merged) < (1 - eps.eps) * inst.profit(gs):
        return False
    if len(zs) > len(gs & h):
        return False
    return True


def _independent_subsets(m: Matroid, max_size: int):
    """All independent subsets up to max_size, by size then lexicographic.

    Each set is built once, from its only prefix: the set minus its largest
    element."""
    elems = sorted(m.ground)
    frontier = [frozenset()]
    yield frozenset()
    for _ in range(max_size):
        next_frontier = []
        for base in frontier:
            start = max(base) + 1 if base else 0
            for e in elems:
                if e < start:
                    continue
                ext = base | {e}
                if m.indep_fn(ext):
                    next_frontier.append(ext)
                    yield ext
        frontier = next_frontier
        if not frontier:
            return


def verify_representative(
    inst: BmiInstance,
    eps: EpsParam,
    rep: Iterable[int],
    opt_value: Fraction,
    cap: int = 12,
) -> tuple[bool, frozenset | None]:
    """Exhaustive check of the representative-set property.

    Returns (True, None) or (False, witness G).  Refuses above the scale cap
    since the search enumerates independent sets and subsets of R.
    """
    if len(inst.active) > cap:
        raise ScaleCapError(
            f"{len(inst.active)} active elements exceed representative-check cap {cap}"
        )
    rs = sorted(frozenset(rep))
    m = inst.matroid
    h = profitable_set(inst, eps, opt_value)
    max_size = min(eps.q, len(inst.active))
    for gs in _independent_subsets(m, max_size):
        gh = gs & h
        if gh <= frozenset(rs):
            continue  # identity replacement Z = G n H works
        found = False
        for size in range(0, len(gh) + 1):
            for combo in itertools.combinations(rs, size):
                if is_replacement(inst, eps, gs, combo, opt_value):
                    found = True
                    break
            if found:
                break
        if not found:
            return False, gs
    return True, None
