"""Concrete matroid families backing the independence oracle.

Supported kinds: uniform, partition, graphic, linear (exact rationals),
explicit (listed maximal independent sets).  Element ids are indices into
the instance ground set; for graphic matroids element i is edge i.  Each
family's oracle is a small callable object that also carries
``scan(order)``, an incremental greedy pass from the empty set (see
``matroid``: ``greedy`` puts a base in front and checks it), and lists the
``FamilySpec`` fields of its kind in ``fields``.  Its constructor takes
the spec and n, checks the spec and builds the oracle's data in the same
pass, and raises ``ValidationError`` with the offending field's path; for
an explicit family that includes ``check_basis_exchange``, so every oracle
``construct`` returns is a matroid's.  ``construct`` picks the class by
kind, and ``FIELDS`` maps each kind to its fields for the file format.

Each test is one pass over the set it is given.  The explicit oracle keeps,
per element, an int bit mask of the listed sets that hold it and ANDs the
masks of the set's elements; the partition oracle counts down the room of
each element's block and stops at the first full block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ValidationError
from .matroid import Matroid


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
    d = lcm(*(x.denominator for x in col))
    return tuple([x.numerator * (d // x.denominator) for x in col])


def _reduce_into(basis: list, col: Sequence[int]) -> bool:
    """Reduce the integer column against ``basis`` and append it if it is
    outside their span.

    ``basis`` holds (pivot row, primitive integer vector) pairs in the
    order they were added; each vector is zero at the pivot rows of the
    earlier ones.  Clearing the pivot rows in that order by integer cross
    multiplication keeps them cleared, and a nonzero remainder is outside
    the span: any nonzero combination of the basis is nonzero at the pivot
    row of its first vector.
    """
    vec = col
    for row, piv in basis:
        factor = vec[row]
        if factor:
            p = piv[row]
            vec = [p * x - factor * y for x, y in zip(vec, piv)]
    for row, x in enumerate(vec):
        if x:
            g = gcd(*vec)
            basis.append((row, vec if g == 1 else [x // g for x in vec]))
            return True
    return False


def check_basis_exchange(maximal_sets: Sequence[Sequence[int]]) -> None:
    """Raise ValidationError unless the listed sets are the bases of a matroid.

    For all listed B1, B2 and every x in B1 - B2, some y in B2 - B1 must
    make B1 - x + y listed; sets of unequal size always fail this.  Sets
    are bit masks, and ``partners[B - x]`` holds every y with B - x + y
    listed.  The test depends only on B1 - x, so each (|B1| - 1)-set is
    tested once, at one AND per listed B2.  Runs in the explicit oracle's
    constructor, after the range and antichain checks.
    """
    masks = [sum(1 << e for e in set(s)) for s in maximal_sets]
    partners: dict[int, int] = {}
    first: dict[int, tuple[int, int]] = {}  # B - x -> the first (i, x) giving it
    for i, b in enumerate(masks):
        rest = b
        while rest:
            x = rest & -rest
            partners[b ^ x] = partners.get(b ^ x, 0) | x
            first.setdefault(b ^ x, (i, x))
            rest ^= x
    # partners[b1 - x] holds x itself, so a listed b2 that meets none of it
    # lacks x and has no partner for it.  Keys come in order of first (i, x).
    for key, reach in partners.items():
        for j, b2 in enumerate(masks):
            if not b2 & reach:
                i, x = first[key]
                raise ValidationError(
                    f"maximal_sets[{i}] minus element {x.bit_length() - 1} has no "
                    f"exchange partner in maximal_sets[{j}] (not a matroid)",
                    "matroid.maximal_sets",
                )


class _Uniform:
    """Sets of at most ``rank`` elements; the scan counts the room left."""

    __slots__ = ("rank",)
    fields = ("rank",)

    def __init__(self, spec: FamilySpec, n: int):
        if spec.rank is None or spec.rank < 0:
            raise ValidationError("uniform matroid needs a non-negative rank", "matroid.rank")
        self.rank = spec.rank

    def __call__(self, s: frozenset) -> bool:
        return len(s) <= self.rank

    def scan(self, order: Iterable[int]) -> frozenset:
        room = self.rank
        kept = set()
        for e in order:
            if not room:
                break
            if e not in kept:
                kept.add(e)
                room -= 1
        return frozenset(kept)


class _Partition:
    """At most ``cap`` elements of each block.  ``block_of`` gives each
    element its block index; the test and the scan count down the room
    left in each block, and the test fails at the first full block."""

    __slots__ = ("caps", "block_of")
    fields = ("blocks", "capacities")

    def __init__(self, spec: FamilySpec, n: int):
        if spec.blocks is None or spec.capacities is None:
            raise ValidationError("partition matroid needs blocks and capacities", "matroid.blocks")
        if len(spec.blocks) != len(spec.capacities):
            raise ValidationError(
                "blocks and capacities must have equal length", "matroid.capacities"
            )
        block_of: dict[int, int] = {}  # element -> block index
        for i, block in enumerate(spec.blocks):
            for e in block:
                if not 0 <= e < n:
                    raise ValidationError(f"element {e} out of range", f"matroid.blocks[{i}]")
                if e in block_of:
                    raise ValidationError(f"element {e} in two blocks", f"matroid.blocks[{i}]")
                block_of[e] = i
        if len(block_of) != n:
            missing = [e for e in range(n) if e not in block_of]
            raise ValidationError(f"blocks do not cover elements {missing}", "matroid.blocks")
        for i, cap in enumerate(spec.capacities):
            if cap < 0:
                raise ValidationError("capacity must be >= 0", f"matroid.capacities[{i}]")
        self.caps = tuple(spec.capacities)
        self.block_of = tuple(block_of[e] for e in range(n))

    def __call__(self, s: frozenset) -> bool:
        block_of = self.block_of
        room = list(self.caps)
        for e in s:
            i = block_of[e]
            if not room[i]:
                return False
            room[i] -= 1
        return True

    def scan(self, order: Iterable[int]) -> frozenset:
        block_of = self.block_of
        room = list(self.caps)
        kept = set()
        for e in order:
            i = block_of[e]
            if room[i] and e not in kept:
                kept.add(e)
                room[i] -= 1
        return frozenset(kept)


def _join(parent: dict, u: int, v: int) -> bool:
    """Merge the union-find trees of u and v, or return False if they already
    share one.  Roots are absent from ``parent``; each root search points
    the nodes it passes at their grandparents (path splitting)."""
    while u in parent:
        up = parent[u]
        parent[u] = parent.get(up, up)
        u = up
    while v in parent:
        vp = parent[v]
        parent[v] = parent.get(vp, vp)
        v = vp
    if u == v:
        return False
    parent[u] = v
    return True


class _Graphic:
    """Acyclic edge sets; loops are dependent singletons.  The scan keeps one
    union-find across the order."""

    __slots__ = ("edges",)
    fields = ("edges", "num_vertices")

    def __init__(self, spec: FamilySpec, n: int):
        if spec.num_vertices is None or spec.num_vertices < 0:
            raise ValidationError("graphic matroid needs num_vertices", "matroid.num_vertices")
        if spec.edges is None or len(spec.edges) != n:
            raise ValidationError(
                f"graphic matroid needs exactly {n} edges (one per element)", "matroid.edges"
            )
        for i, (u, v) in enumerate(spec.edges):
            if not (0 <= u < spec.num_vertices and 0 <= v < spec.num_vertices):
                raise ValidationError(
                    f"edge ({u},{v}) references invalid vertex", f"matroid.edges[{i}]"
                )
        self.edges = spec.edges

    def __call__(self, s: frozenset) -> bool:
        parent: dict[int, int] = {}
        edges = self.edges
        for e in s:
            u, v = edges[e]
            if not _join(parent, u, v):
                return False
        return True

    def scan(self, order: Iterable[int]) -> frozenset:
        parent: dict[int, int] = {}
        edges = self.edges
        kept = set()
        for e in order:
            u, v = edges[e]
            if _join(parent, u, v):
                kept.add(e)
        return frozenset(kept)


class _Linear:
    """Linearly independent columns, each scaled to integers once.  The scan
    keeps an incrementally reduced integer basis across the order."""

    __slots__ = ("cols",)
    fields = ("columns",)

    def __init__(self, spec: FamilySpec, n: int):
        if spec.columns is None or len(spec.columns) != n:
            raise ValidationError(
                f"linear matroid needs exactly {n} columns (one per element)", "matroid.columns"
            )
        if n and len({len(c) for c in spec.columns}) > 1:
            raise ValidationError("columns must share one dimension", "matroid.columns")
        self.cols = tuple(_integer_column(col) for col in spec.columns)

    def __call__(self, s: frozenset) -> bool:
        cols = self.cols
        if cols and len(s) > len(cols[0]):
            return False
        basis: list = []
        for e in s:
            if not _reduce_into(basis, cols[e]):
                return False
        return True

    def scan(self, order: Iterable[int]) -> frozenset:
        cols = self.cols
        basis: list = []
        dim = len(cols[0]) if cols else 0
        kept = set()
        for e in order:
            if len(basis) == dim:
                break
            if _reduce_into(basis, cols[e]):
                kept.add(e)
        return frozenset(kept)


class _Explicit:
    """Subsets of the listed maximal sets.  ``masks[e]`` has bit i set when
    listed set i holds e, so a nonempty set is independent exactly when the
    AND of its elements' masks is nonzero: the listed sets that hold it.
    The scan narrows one such mask across the order."""

    __slots__ = ("masks", "full")
    fields = ("maximal_sets",)

    def __init__(self, spec: FamilySpec, n: int):
        if spec.maximal_sets is None:
            raise ValidationError("explicit matroid needs maximal_sets", "matroid.maximal_sets")
        sets = tuple(frozenset(s) for s in spec.maximal_sets)
        masks = [0] * n
        for i, s in enumerate(sets):
            for e in s:
                if not 0 <= e < n:
                    raise ValidationError(f"element {e} out of range", f"matroid.maximal_sets[{i}]")
                masks[e] |= 1 << i
        # Distinct sets of one size are an antichain; only unequal sizes or
        # a repeat can put one listed set inside another.
        if len(set(map(len, sets))) > 1 or len(set(sets)) < len(sets):
            for i, a in enumerate(sets):
                for j, b in enumerate(sets):
                    if i != j and a <= b:
                        raise ValidationError(
                            "maximal_sets must be an antichain", f"matroid.maximal_sets[{i}]"
                        )
        check_basis_exchange(sets)
        self.masks = tuple(masks)
        self.full = (1 << len(sets)) - 1

    def __call__(self, s: frozenset) -> bool:
        masks = self.masks
        live = self.full
        for e in s:
            live &= masks[e]
            if not live:
                return False
        return True

    def scan(self, order: Iterable[int]) -> frozenset:
        masks = self.masks
        live = self.full
        kept = set()
        for e in order:
            narrowed = live & masks[e]
            if narrowed:
                kept.add(e)
                live = narrowed
        return frozenset(kept)


# The oracle class of each kind; its constructor validates the spec.
_ORACLES = {
    "uniform": _Uniform,
    "partition": _Partition,
    "graphic": _Graphic,
    "linear": _Linear,
    "explicit": _Explicit,
}
KINDS = tuple(_ORACLES)
# The spec fields of each kind, in the order a file's stanza is read.
FIELDS = {kind: cls.fields for kind, cls in _ORACLES.items()}


def construct(spec: FamilySpec, n: int) -> Matroid:
    """Build the independence oracle of a family spec over n elements.

    Raises ``ValidationError`` on an unknown kind or a spec that does not
    describe a family over n elements.
    """
    if spec.kind not in KINDS:
        raise ValidationError(f"unknown matroid kind {spec.kind!r}", "matroid.kind")
    return Matroid(frozenset(range(n)), _ORACLES[spec.kind](spec, n), label=spec.kind)
