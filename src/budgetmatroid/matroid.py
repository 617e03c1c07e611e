"""Matroid oracle abstraction and the operations derived from it.

A matroid is represented by its ground set and a pure independence test.
All derived handles (restriction, contraction, truncation) answer through
closures over their parents, so the oracle semantics are exactly the
set-theoretic definitions.  Handles are immutable.  Helpers used only to
verify matroids (axiom checker, exchange witnesses, disjoint union) live in
``verify``.

Every routine that scans elements does so in ascending element id, which
makes all outputs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import PreconditionError


@dataclass(frozen=True)
class Matroid:
    """Independence-oracle view of a matroid.

    ``indep_fn`` must be a pure deterministic function of the subset; it is
    only ever called with subsets of ``ground``.
    """

    ground: frozenset
    indep_fn: Callable[[frozenset], bool] = field(repr=False)
    label: str = "matroid"

    def is_independent(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        if not s <= self.ground:
            raise PreconditionError(
                f"elements {sorted(s - self.ground)} outside ground set of {self.label}"
            )
        return bool(self.indep_fn(s))


def greedy(m: Matroid, order: Iterable[int]) -> frozenset:
    """The greedy set of ``order``: scan it and keep each element that leaves
    the kept set independent.

    ``order`` lists elements of ``m.ground``.  Scanned by non-increasing
    weight, the result is a maximum-weight independent set, and any prefix
    of ``order`` yields the result's intersection with that prefix.
    """
    kept: frozenset = frozenset()
    for e in order:
        ext = kept | {e}
        if m.indep_fn(ext):
            kept = ext
    return kept


def rank(m: Matroid, subset: Iterable[int]) -> int:
    """Greedy rank computation; correct for matroids by the exchange axiom."""
    s = frozenset(subset)
    if not s <= m.ground:
        raise PreconditionError(f"elements {sorted(s - m.ground)} outside ground set")
    return len(greedy(m, sorted(s)))


def _check_weights(m: Matroid, w: Mapping[int, Fraction]) -> None:
    for e in m.ground:
        if e not in w:
            raise PreconditionError(f"weight undefined for element {e}")
        if w[e] < 0:
            raise PreconditionError(f"negative weight for element {e}")


def min_weight_basis(m: Matroid, w: Mapping[int, Fraction]) -> frozenset:
    """Minimum-weight basis via the greedy algorithm.

    Elements are scanned by ascending (weight, id), so the result is the
    unique greedy basis under that order.
    """
    _check_weights(m, w)
    return greedy(m, sorted(m.ground, key=lambda e: (w[e], e)))


def restrict(m: Matroid, f: Iterable[int]) -> Matroid:
    fs = frozenset(f)
    if not fs <= m.ground:
        raise PreconditionError("restriction set not contained in ground")
    return Matroid(fs, m.indep_fn, label=f"restrict({m.label})")


def contract(m: Matroid, f: Iterable[int]) -> Matroid:
    fs = frozenset(f)
    if not m.is_independent(fs):
        raise PreconditionError("contraction set must be independent")
    parent = m.indep_fn
    return Matroid(
        m.ground - fs,
        lambda s, _fs=fs, _p=parent: _p(s | _fs),
        label=f"contract({m.label})",
    )


def truncate(m: Matroid, q: int) -> Matroid:
    if q < 0:
        raise PreconditionError("truncation level must be non-negative")
    parent = m.indep_fn
    return Matroid(
        m.ground,
        lambda s, _q=q, _p=parent: len(s) <= _q and _p(s),
        label=f"truncate({m.label},{q})",
    )


def counting_view(m: Matroid) -> tuple[Matroid, list[int]]:
    """Wrap a handle so independence-oracle calls are counted.

    Returns the wrapped handle and a one-cell counter list.  Counting is the
    only mutation, and the count is reporting-only.
    """
    counter = [0]
    inner = m.indep_fn

    def counted(s, _inner=inner, _c=counter):
        _c[0] += 1
        return _inner(s)

    return Matroid(m.ground, counted, label=m.label), counter
