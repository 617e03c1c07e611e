"""The approximation scheme: profit classes, representative sets, the
per-guess enumeration of F within the representative set, and the top-level
wrapper with geometric guessing of the optimum scale.

The solve path is: bootstrap LP -> the first certified candidate of
``_certified_exits``, its winner or that winner completed by
``lp.complete``, else guess grid -> ``run_for_alpha`` per guess on one
``RunSession``: profit classes and LP variables on the integer view, R once
per distinct class grouping, then, once per distinct R and LP variables,
enumerate independent, affordable F within R -> residual LP for each F and
its rounding, once per distinct LP -> the best answer returned.  The
report's ``exit`` names the way out: "bootstrap", "completion" or "scheme".
Checkers live in ``verify``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cached_property
from math import floor, inf, log, log1p
from typing import NamedTuple

from .errors import InternalInvariantError, PreconditionError, ValidationError
from .instance import BmiInstance, _exact, format_rational
from .lp import _better, bootstrap, complete, lp_variables, round_integral, solve_lp
from .matroid import greedy, truncate


@dataclass(frozen=True)
class EpsParam:
    """Accuracy parameter limited to integer reciprocals 1/k, k >= 3.

    The limit keeps 1/eps, the truncation level k^k and every class
    bound (1-eps)^r = (k-1)^r / k^r exact: a ratio num/den lies below the
    bound exactly when num * k^r <= den * (k-1)^r, one integer comparison.
    The bounds are compared where a class index is looked up and never
    tabulated: there are about k ln(2k) of them, and k^r has about
    r log10(k) digits.
    """

    k: int

    def __post_init__(self):
        if self.k < 3:
            raise ValidationError("eps must be 1/k with integer k >= 3", "eps")

    @classmethod
    def from_target(cls, eps_target: Fraction) -> "EpsParam":
        """Internal parameter k = ceil(7e/d) for eps_target = d/e in lowest
        terms, an int or a Fraction in (0, 1), so eps_internal <= eps_target / 7;
        any other value, a float included, raises ``ValidationError`` at ``eps``."""
        d, e = _exact(eps_target, "eps").as_integer_ratio()
        if not 0 < d < e:
            raise ValidationError("eps target must lie in (0, 1)", "eps")
        return cls(-(-7 * e // d))

    @property
    def eps(self) -> Fraction:
        return Fraction(1, self.k)

    @cached_property
    def q(self) -> int:
        """Cardinality level k^k, built once: it has about k log10(k) digits."""
        return self.k**self.k

    @cached_property
    def r_max(self) -> int:
        """Largest class index, the class of eps/2: (1-eps)^(r_max-1) >= eps/2 > (1-eps)^r_max."""
        return _class_index(1, 2 * self.k, self.k, inf)


def _class_index(num: int, den: int, k: int, cap: float) -> int:
    """min(cap, the r >= 1 with num/den in ((1-1/k)^r, (1-1/k)^(r-1)]) for
    positive integers num <= den.

    The logarithms of num and den, taken apart because num/den may be too
    small for a float, guess r; exact tests settle it: num/den <= (1-1/k)^j
    exactly when num * k^j <= den * (k-1)^j.  The guess costs one pair of
    powers, and each correction one multiplication or division of the pair.
    """
    r = min(max(1, floor((log(num) - log(den)) / log1p(-1 / k)) + 1), cap)
    hi, lo = k ** (r - 1), (k - 1) ** (r - 1)  # (1-1/k)^(r-1) = lo/hi
    while r > 1 and num * hi > den * lo:
        r, hi, lo = r - 1, hi // k, lo // (k - 1)
    while r < cap and num * hi * k <= den * lo * (k - 1):
        r, hi, lo = r + 1, hi * k, lo * (k - 1)
    return r


@dataclass(frozen=True)
class RepresentativeSet:
    elements: frozenset
    slices: dict = field(repr=False)  # class index -> frozenset


@dataclass
class RunReport:
    solution: tuple[int, ...]
    profit: Fraction
    eps_target: Fraction
    eps_internal: Fraction
    exit: str
    alpha_grid: tuple[Fraction, ...]
    alpha_best: Fraction | None
    enum_counts: dict
    lp_calls: int
    oracle_calls: int
    wall_ms: float
    dropped: tuple[int, ...]
    upper_bound: Fraction
    certified_ratio: Fraction
    exact_profit: Fraction | None = None
    ratio: Fraction | None = None

    def to_dict(self) -> dict:
        """The report as JSON values, one entry per field in field order."""
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}


def _encode(x):
    """A report value as JSON: a Fraction as its literal, a tuple as a list,
    a dict with its keys and values encoded; anything else as it is."""
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, tuple):
        return [_encode(v) for v in x]
    if isinstance(x, dict):
        return {_encode(k): _encode(v) for k, v in x.items()}
    return x


def class_partition(inst: BmiInstance, eps: EpsParam, alpha: Fraction) -> dict:
    """Map class index -> sorted tuple of active elements in that class.

    Element e is in class r <= r_max when p(e)/(2 alpha) lies in
    ((1-eps)^r, (1-eps)^(r-1)], and in no class otherwise.  In the
    instance's ``IntegerView`` the ratio is P_e * den(alpha) over
    2 * num(alpha) * dp, and ``_class_index`` places it with integer tests.
    """
    if alpha <= 0:
        raise PreconditionError("alpha must be positive")
    view = inst.view
    scale, den = alpha.denominator, 2 * alpha.numerator * view.dp
    k, cap = eps.k, eps.r_max + 1
    classes: dict[int, list[int]] = {}
    for e in sorted(inst.active):
        num = view.profits[e] * scale
        if 0 < num <= den:
            r = _class_index(num, den, k, cap)
            if r < cap:
                classes.setdefault(r, []).append(e)
    return {r: tuple(v) for r, v in classes.items()}


def find_rep(inst: BmiInstance, eps: EpsParam, classes: dict) -> RepresentativeSet:
    """Per-class minimum-cost bases of the class matroids truncated at k^k,
    for the ``class_partition`` ``classes`` of the instance at eps.

    Equivalent to one minimum basis of the disjoint-ground union matroid:
    a union basis splits into per-part minimum bases.  Each basis is one
    greedy pass of the instance's oracle over the class's members by
    ascending (cost, id), costs in the instance's ``IntegerView``.
    Truncation at k^k changes a class only if the class has more elements
    than that, so only then does the pass test through ``truncate``; for
    k >= 8, every eps target below 1, that takes more than 16.7 million
    elements.
    """
    costs = inst.view.costs
    slices: dict[int, frozenset] = {}
    for r, members in sorted(classes.items()):
        m = truncate(inst.matroid, eps.q) if eps.q < len(members) else inst.matroid
        slices[r] = greedy(m, sorted(members, key=lambda e: (costs[e], e)))
    return RepresentativeSet(frozenset().union(*slices.values()), slices)


class RunSession:
    """One scheme run on one instance at one eps: its representative sets,
    LP memo, recorded guesses and oracle count.

    ``find_rep`` reads only the class partition, and R's elements only its
    grouping, the member tuples of the classes in class order, so ``reps``
    maps each grouping met in the run to its R and ``find_rep`` runs once
    per grouping.  The rounded LP candidate depends only on (F, variable
    set), so each residual LP is solved and rounded once per run: ``memo``
    maps (F, variables - F) to the candidate and its profit in the
    instance's ``IntegerView``.
    ``runs`` maps each distinct guess (R, LP variables) to the ``GuessRun``
    of its first alpha.  ``oracle_calls`` is the number of independence
    tests the enumeration made.
    """

    def __init__(self, inst: BmiInstance, eps: EpsParam):
        self.inst = inst
        self.eps = eps
        self.reps: dict = {}
        self.memo: dict = {}
        self.runs: dict = {}
        self.oracle_calls = 0


class GuessRun(NamedTuple):
    """A guess's first alpha, best rounded solution and number of F enumerated."""

    alpha: Fraction
    solution: frozenset
    enum_count: int


def run_for_alpha(session: RunSession, alpha: Fraction) -> tuple[frozenset, int]:
    """One pass of the enumeration scheme on the session's instance and eps
    for a fixed guess alpha: (best rounded solution, number of F enumerated).

    Every independent, affordable F within the representative set R with
    |F| <= 1/eps is extended by the residual LP over the guess's LP
    variables and rounded.  The enumeration is a depth-first search that
    extends F only by elements above max(F) and cuts a branch at the first
    set that is over budget or dependent: both properties are inherited by
    supersets, so no set of the family is missed.  Costs and profits are
    summed and compared in the instance's integer view, and each
    independence test of the instance's oracle adds one to the session's
    ``oracle_calls``.  The session computes R once per class grouping.  The
    run reads only R and the LP variables, so the session records it under
    the first alpha that gives both, and a later guess that repeats them
    returns the recorded run.  Alone: ``run_for_alpha(RunSession(inst, eps), alpha)``.
    """
    inst, eps = session.inst, session.eps
    classes = class_partition(inst, eps, alpha)
    grouping = tuple(members for _, members in sorted(classes.items()))
    rep = session.reps.get(grouping)
    if rep is None:
        rep = session.reps[grouping] = find_rep(inst, eps, classes).elements
    variables = lp_variables(inst, eps.eps, alpha)
    run = session.runs.get((rep, variables))
    if run is not None:
        return run.solution, run.enum_count

    r_sorted = sorted(rep)
    indep = inst.matroid.indep_fn
    view = inst.view
    memo = session.memo
    enum_count = tests = 0
    best_set: frozenset | None = None
    best_profit = 0
    # (F, cost(F), index in r_sorted of the first element that may extend F)
    stack = [(frozenset(), 0, 0)]
    while stack:
        fs, cost, start = stack.pop()
        enum_count += 1
        key = (fs, variables - fs)
        rounded = memo.get(key)
        if rounded is None:
            candidate = round_integral(inst, solve_lp(inst, fs, variables), fs)
            rounded = memo[key] = (candidate, view.profit(candidate))
        candidate, profit = rounded
        if best_set is None or _better(profit, candidate, best_profit, best_set):
            best_set, best_profit = candidate, profit
        if len(fs) == eps.k:
            continue
        for i in range(start, len(r_sorted)):
            ext_cost = cost + view.costs[r_sorted[i]]
            if ext_cost > view.budget:
                continue
            ext = fs | {r_sorted[i]}
            tests += 1
            if indep(ext):
                stack.append((ext, ext_cost, i + 1))
    session.oracle_calls += tests
    bound = (len(r_sorted) + 1) ** eps.k
    if enum_count > bound:
        raise InternalInvariantError(
            f"enumeration count {enum_count} exceeds (|R|+1)^(1/eps) = {bound}"
        )
    session.runs[rep, variables] = GuessRun(alpha, best_set, enum_count)
    return best_set, enum_count


def alpha_grid(lower: Fraction, upper: Fraction, eps: EpsParam) -> tuple[Fraction, ...]:
    """Geometric grid {lower * (1+eps)^j} clipped to [lower, upper].

    The ratio 1+eps < 2 guarantees a grid point in [OPT/2, OPT] whenever
    OPT lies in [lower, upper].
    """
    if not 0 < lower <= upper:
        raise PreconditionError("grid bounds must satisfy 0 < lower <= upper")
    grid = []
    point = lower
    step = 1 + eps.eps
    while point <= upper:
        grid.append(point)
        point *= step
    return tuple(grid)


def _certificate(inst: BmiInstance, eps_target: Fraction, upper: Fraction, profit: int) -> bool:
    """True if profit is at least (1 - eps_target) * upper.  The profit is in
    the ``IntegerView`` and stands for profit/dp, so the test cross-multiplies
    with eps_target = d/e and the positive denominators of upper and dp."""
    d, e = eps_target.numerator, eps_target.denominator
    return profit * e * upper.denominator >= (e - d) * upper.numerator * inst.view.dp


def _certified_exits(inst: BmiInstance, winner: frozenset, profit: int):
    """The candidates of the certified exits, in order, as (exit, candidate,
    profit in the ``IntegerView``): the bootstrap's winner and its profit,
    then that winner filled greedily by profit/cost ratio.  A generator, so
    ``complete`` runs only after the winner misses."""
    yield "bootstrap", winner, profit
    filled = complete(inst, winner)
    yield "completion", filled, inst.view.profit(filled)


def approximate(inst: BmiInstance, eps_target: Fraction, certify: bool = True) -> RunReport:
    """Full scheme with certified early exits: guess the optimum scale
    geometrically, run the enumeration for every guess, return the best.
    ``eps_target`` is an int or a Fraction in (0, 1); any other value, a
    float included, raises ``ValidationError`` at ``eps``.

    The bootstrap LP bound U is at least OPT, so a solution with profit at
    least (1 - eps_target) * U meets the guarantee, whatever produced it.
    The run tests the candidates of ``_certified_exits`` against that bound
    and returns the first that reaches it, with an empty grid: the
    bootstrap's winner, the better of the rounded LP and the best
    singleton, then that winner completed.  When both miss, and always with
    ``certify=False``, the paper's scheme runs, and its report is the same
    on both paths.  The report's ``exit`` is "bootstrap", "completion" or
    "scheme"; a zero bound certifies any profit, so a certified run with
    U = 0 reads "bootstrap".

    Only the scheme builds a session, and every grid point goes through
    ``run_for_alpha`` on it, which runs each distinct guess once; the best
    answer returned is kept, under the first grid point that returns it.
    The report's enumeration counts come from the session's recorded runs,
    in grid order.  A zero LP bound leaves the grid empty and the answer empty.
    """
    # No int lies in (0, 1), so an eps_target that passes is a Fraction.
    eps = EpsParam.from_target(eps_target)
    start = time.perf_counter()
    view = inst.view
    upper, winner_profit, winner = bootstrap(inst)
    grid, alpha_best, enum_counts, lp_calls, oracle_calls = (), None, {}, 0, 0
    exits = _certified_exits(inst, winner, winner_profit) if certify else ()
    for exit_name, best, best_profit in exits:
        if _certificate(inst, eps_target, upper, best_profit):
            break
    else:
        exit_name, session = "scheme", RunSession(inst, eps)
        grid = alpha_grid(Fraction(winner_profit, view.dp), upper, eps) if upper > 0 else ()
        best, best_profit = frozenset(), 0
        for alpha in grid:
            solution, _ = run_for_alpha(session, alpha)
            profit = view.profit(solution)
            if alpha_best is None or _better(profit, solution, best_profit, best):
                best, best_profit, alpha_best = solution, profit, alpha
        enum_counts = {run.alpha: run.enum_count for run in session.runs.values()}
        lp_calls, oracle_calls = len(session.memo), session.oracle_calls

    num, den = best_profit * upper.denominator, view.dp * upper.numerator  # profit / upper
    return RunReport(
        solution=tuple(sorted(best)),
        profit=Fraction(best_profit, view.dp),
        eps_target=eps_target,
        eps_internal=eps.eps,
        exit=exit_name,
        alpha_grid=grid,
        alpha_best=alpha_best,
        enum_counts=enum_counts,
        lp_calls=lp_calls,
        oracle_calls=oracle_calls,
        wall_ms=(time.perf_counter() - start) * 1000,
        dropped=inst.dropped,
        upper_bound=upper,
        certified_ratio=Fraction(num, den) if den else Fraction(1),
    )
