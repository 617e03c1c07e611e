"""Concrete matroid families backing the independence oracle.

Supported kinds: uniform, partition, graphic, linear (exact rationals),
explicit (listed maximal independent sets).  Element ids are indices into
the instance ground set; for graphic matroids element i is edge i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ValidationError
from .matroid import Matroid

KINDS = ("uniform", "partition", "graphic", "linear", "explicit")


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    rank: int | None = None
    blocks: tuple[tuple[int, ...], ...] | None = None
    capacities: tuple[int, ...] | None = None
    num_vertices: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None
    columns: tuple[tuple[Fraction, ...], ...] | None = None
    maximal_sets: tuple[tuple[int, ...], ...] | None = None


def _integer_column(col: Sequence[Fraction]) -> tuple[int, ...]:
    """The column times the lcm of its denominators: the same span, integer entries."""
    d = 1
    for x in col:
        d = lcm(d, x.denominator)
    return tuple([x.numerator * (d // x.denominator) for x in col])


def _integer_columns_independent(cols: Sequence[Sequence[int]]) -> bool:
    """Fraction-free elimination (Bareiss, Math. Comp. 1968) on integer columns.

    Each column in turn takes its first nonzero entry as pivot and clears
    that row from the later columns.  Each update is a 2x2 cross product
    divided exactly by the previous pivot, so every entry stays an integer
    minor of the input.  A column that is zero when its turn comes lies in
    the span of the earlier ones.
    """
    if not cols:
        return True
    dim = len(cols[0])
    if len(cols) > dim:
        return False
    mat = [list(col) for col in cols]
    prev = 1
    for i, vec in enumerate(mat):
        row = next((r for r in range(dim) if vec[r] != 0), None)
        if row is None:
            return False
        pivot = vec[row]
        for other in mat[i + 1 :]:
            factor = other[row]
            for r in range(dim):
                other[r] = (pivot * other[r] - factor * vec[r]) // prev
        prev = pivot
    return True


def columns_independent(cols: Sequence[Sequence[Fraction]]) -> bool:
    """True iff the rational columns are linearly independent.

    Each column is scaled to integers, which keeps its span, and the
    integer columns go through fraction-free elimination.
    """
    return _integer_columns_independent([_integer_column(col) for col in cols])


def column_rank(cols: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational column collection, by greedy exact elimination."""
    picked: list[Sequence[Fraction]] = []
    for col in cols:
        if columns_independent(picked + [col]):
            picked.append(col)
    return len(picked)


def _validate_uniform(spec: FamilySpec, n: int) -> None:
    if spec.rank is None or spec.rank < 0:
        raise ValidationError("uniform matroid needs a non-negative rank", "matroid.rank")


def _validate_partition(spec: FamilySpec, n: int) -> None:
    if spec.blocks is None or spec.capacities is None:
        raise ValidationError("partition matroid needs blocks and capacities", "matroid.blocks")
    if len(spec.blocks) != len(spec.capacities):
        raise ValidationError(
            "blocks and capacities must have equal length", "matroid.capacities"
        )
    seen: set[int] = set()
    for i, block in enumerate(spec.blocks):
        for e in block:
            if not 0 <= e < n:
                raise ValidationError(f"element {e} out of range", f"matroid.blocks[{i}]")
            if e in seen:
                raise ValidationError(f"element {e} in two blocks", f"matroid.blocks[{i}]")
            seen.add(e)
    if seen != set(range(n)):
        missing = sorted(set(range(n)) - seen)
        raise ValidationError(f"blocks do not cover elements {missing}", "matroid.blocks")
    for i, cap in enumerate(spec.capacities):
        if cap < 0:
            raise ValidationError("capacity must be >= 0", f"matroid.capacities[{i}]")


def _validate_graphic(spec: FamilySpec, n: int) -> None:
    if spec.num_vertices is None or spec.num_vertices < 0:
        raise ValidationError("graphic matroid needs num_vertices", "matroid.num_vertices")
    if spec.edges is None or len(spec.edges) != n:
        raise ValidationError(
            f"graphic matroid needs exactly {n} edges (one per element)", "matroid.edges"
        )
    for i, (u, v) in enumerate(spec.edges):
        if not (0 <= u < spec.num_vertices and 0 <= v < spec.num_vertices):
            raise ValidationError(f"edge ({u},{v}) references invalid vertex", f"matroid.edges[{i}]")


def _validate_linear(spec: FamilySpec, n: int) -> None:
    if spec.columns is None or len(spec.columns) != n:
        raise ValidationError(
            f"linear matroid needs exactly {n} columns (one per element)", "matroid.columns"
        )
    if n and len({len(c) for c in spec.columns}) > 1:
        raise ValidationError("columns must share one dimension", "matroid.columns")


def _validate_explicit(spec: FamilySpec, n: int) -> None:
    if spec.maximal_sets is None:
        raise ValidationError("explicit matroid needs maximal_sets", "matroid.maximal_sets")
    sets = [frozenset(s) for s in spec.maximal_sets]
    for i, s in enumerate(sets):
        for e in s:
            if not 0 <= e < n:
                raise ValidationError(f"element {e} out of range", f"matroid.maximal_sets[{i}]")
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if i != j and a <= b:
                raise ValidationError(
                    "maximal_sets must be an antichain", f"matroid.maximal_sets[{i}]"
                )


def check_basis_exchange(maximal_sets: Sequence[Sequence[int]]) -> None:
    """Raise ValidationError unless the listed sets are the bases of a matroid.

    For all listed B1, B2 and every x in B1 - B2, some y in B2 - B1 must
    make B1 - x + y listed; sets of unequal size always fail this.  Sets
    are bit masks, and ``partners[B - x]`` holds every y with B - x + y
    listed, so each (B1, x, B2) costs one AND.  Runs at parse time, after
    the ranges and the antichain property are checked.
    """
    masks = [sum(1 << e for e in set(s)) for s in maximal_sets]
    partners: dict[int, int] = {}
    for b in masks:
        rest = b
        while rest:
            x = rest & -rest
            partners[b ^ x] = partners.get(b ^ x, 0) | x
            rest ^= x
    for i, b1 in enumerate(masks):
        rest = b1
        while rest:
            x = rest & -rest
            rest ^= x
            # partners[b1 - x] holds x itself, so a listed b2 that meets none
            # of it lacks x and has no exchange partner for it.
            reach = partners[b1 ^ x]
            for j, b2 in enumerate(masks):
                if not b2 & reach:
                    raise ValidationError(
                        f"maximal_sets[{i}] minus element {x.bit_length() - 1} has no "
                        f"exchange partner in maximal_sets[{j}] (not a matroid)",
                        "matroid.maximal_sets",
                    )


_VALIDATORS = {
    "uniform": _validate_uniform,
    "partition": _validate_partition,
    "graphic": _validate_graphic,
    "linear": _validate_linear,
    "explicit": _validate_explicit,
}


def validate_spec(spec: FamilySpec, n: int) -> None:
    if spec.kind not in KINDS:
        raise ValidationError(f"unknown matroid kind {spec.kind!r}", "matroid.kind")
    _VALIDATORS[spec.kind](spec, n)


def construct(spec: FamilySpec, n: int) -> Matroid:
    """Build the independence oracle for a validated family spec over n elements."""
    validate_spec(spec, n)
    ground = frozenset(range(n))
    if spec.kind == "uniform":
        r = spec.rank

        def indep(s, _r=r):
            return len(s) <= _r

    elif spec.kind == "partition":
        pairs = tuple(
            (frozenset(block), cap) for block, cap in zip(spec.blocks, spec.capacities)
        )

        def indep(s, _pairs=pairs):
            return all(len(s & block) <= cap for block, cap in _pairs)

    elif spec.kind == "graphic":
        edges = spec.edges

        def indep(s, _edges=edges):
            # Acyclicity via union-find; loops are dependent singletons.
            parent: dict[int, int] = {}

            def find(x):
                root = x
                while parent.get(root, root) != root:
                    root = parent[root]
                while parent.get(x, x) != x:
                    parent[x], x = root, parent[x]
                return root

            for e in s:
                u, v = _edges[e]
                ru, rv = find(u), find(v)
                if ru == rv:
                    return False
                parent[ru] = rv
            return True

    elif spec.kind == "linear":
        cols = tuple(_integer_column(col) for col in spec.columns)

        def indep(s, _cols=cols):
            return _integer_columns_independent([_cols[e] for e in sorted(s)])

    else:  # explicit
        sets = tuple(frozenset(ms) for ms in spec.maximal_sets)

        def indep(s, _sets=sets):
            if not s:
                return True
            return any(s <= mx for mx in _sets)

    return Matroid(ground, indep, label=spec.kind)
