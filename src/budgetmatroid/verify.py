"""Verification-only code that ``budgetmatroid verify`` runs: the
exhaustive axiom checker and the replacement and representative-set
property checkers.

Nothing on the solve path imports this module, the package root does not
re-export it, and the CLI loads it only for its ``verify`` command, so
``import budgetmatroid`` and ``budgetmatroid solve`` never run it.  The
axiom checker works directly from the oracle; the scheme checkers take the
exact optimum as an argument because the profitable-element threshold
depends on it, which only a verification oracle knows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import PreconditionError, ScaleCapError
from .instance import BmiInstance
from .matroid import Matroid
from .scheme import EpsParam

# Largest ground set check_axioms tabulates: the exchange scan is 3^n.
AXIOM_CHECK_CAP = 10


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
