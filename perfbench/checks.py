"""Per-solve correctness checks against an independent reference.

The reference optimum comes from ``brute_force_opt``, computed once per
instance outside every timed region.  A solution is tested for independence
under a fresh oracle built from the instance's family spec, never under the
handle the solver used, so a wrapped or corrupted handle cannot vouch for
its own answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class Reference:
    opt: Fraction
    fresh: object  # Matroid built independently of the instance's handle


def build_references(bm, instances) -> tuple[list[Reference], float]:
    """Reference optimum and fresh oracle per instance, plus brute-force seconds."""
    refs = []
    spent = 0.0
    for inst in instances:
        t0 = time.perf_counter()
        opt = bm.brute_force_opt(inst).profit
        spent += time.perf_counter() - t0
        refs.append(Reference(opt, bm.construct(inst.matroid_spec, inst.n)))
    return refs, spent


def check_approximate(inst, ref: Reference, eps: Fraction, report) -> str | None:
    """Why a RunReport is wrong, or None when it meets the guarantee."""
    sol = frozenset(report.solution)
    if not sol <= inst.active:
        return f"solution {sorted(sol)} uses inactive elements"
    if not ref.fresh.indep_fn(sol):
        return f"solution {sorted(sol)} is dependent"
    if inst.cost(sol) > inst.budget:
        return f"solution cost {inst.cost(sol)} exceeds budget {inst.budget}"
    if inst.profit(sol) != report.profit:
        return f"reported profit {report.profit} != solution profit {inst.profit(sol)}"
    if report.profit < (1 - eps) * ref.opt:
        return f"profit {report.profit} < (1-{eps})*OPT with OPT={ref.opt}"
    return None


def check_bounds(ref: Reference, bounds) -> str | None:
    """Why lp_upper_bound's (upper, lower) is wrong, or None when U >= OPT >= lower."""
    upper, lower = bounds
    if not upper >= ref.opt >= lower:
        return f"bounds (U={upper}, lower={lower}) do not bracket OPT={ref.opt}"
    return None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(problem)
