"""Matroid oracle abstraction and the operations derived from it.

A matroid is represented by its ground set and a pure independence test.
The derived handles (restriction, truncation) answer through their
parents, so the oracle semantics are exactly the set-theoretic
definitions.  Handles are immutable.

An oracle may also carry an incremental greedy ``scan(order)``: the
elements of ``order`` that the greedy loop keeps from the empty set, with
state kept across the scan instead of one independence test per element.
The family oracles carry one, ``greedy`` uses it when present and
restriction keeps it; truncation answers through a plain function, so
greedy on it takes the one-test-per-element loop.  ``greedy`` alone takes
a base: it scans the base ahead of the order and rejects a dependent one,
so residual LPs need no contraction handle, and the scheme truncates a
class matroid only above k^k elements.  A handle carries no counter: the
scheme counts the independence tests of its enumeration where it makes
them.  The axiom checker lives in ``verify``; rank, contraction and
disjoint union, which no solve uses, are left to the tests.

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
    only ever called with subsets of ``ground``.  It may carry a ``scan``
    method (see the module docstring).
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


def greedy(m: Matroid, order: Iterable[int], base: frozenset = frozenset()) -> frozenset:
    """The elements of ``order`` that greedy keeps on top of the independent
    set ``base``: each that leaves base plus the kept set independent.

    ``order`` lists elements of ``m.ground`` outside ``base``.  Scanned by
    non-increasing weight, the result is a maximum-weight independent set
    of the contraction by ``base``, and any prefix of ``order`` yields its
    intersection with that prefix.  The oracle's incremental ``scan``
    computes the set when it has one: on ``order`` alone with no base, else
    on ``base`` then ``order``, where an independent base is kept whole.
    Otherwise the loop below, the reference the scans are tested against,
    tests one set per element.  Both raise ``PreconditionError`` on a
    dependent base.
    """
    scan = getattr(m.indep_fn, "scan", None)
    if scan is not None:
        if not base:
            return scan(order)
        kept = scan([*base, *order])
        if not base <= kept:
            raise PreconditionError("greedy base is dependent")
        return kept - base
    if base and not m.indep_fn(base):
        raise PreconditionError("greedy base is dependent")
    kept = base
    for e in order:
        ext = kept | {e}
        if m.indep_fn(ext):
            kept = ext
    return kept - base if base else kept


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


def truncate(m: Matroid, q: int) -> Matroid:
    if q < 0:
        raise PreconditionError("truncation level must be non-negative")
    parent = m.indep_fn
    return Matroid(m.ground, lambda s: len(s) <= q and parent(s), label=f"truncate({m.label},{q})")
