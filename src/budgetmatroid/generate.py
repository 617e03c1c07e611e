"""Deterministic random instance generation.

Generator id "mt19937-v1": a seeded ``random.Random`` with a fixed call
sequence, so identical (spec, seed) pairs produce byte-identical serialized
instances.  Costs and profits are drawn from uniform rational grids.  An
"explicit" family is a random partition matroid written out as its list of
bases: every choice of ``cap`` elements from each block.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ScaleCapError, ValidationError
from .families import KINDS, FamilySpec
from .instance import BmiInstance, make_instance

GENERATOR_VERSION = "mt19937-v1"

_DENOMINATORS = (1, 2, 3, 4)
_COST_MAX = 20
_PROFIT_MAX = 40
# The explicit oracle checks the exchange axiom over pairs of listed bases,
# quadratic in their number; n = 10 allows up to C(10, 5) = 252 bases.
_EXPLICIT_GEN_CAP = 10


@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int
    seed: int


def _random_family(rng: random.Random, family: str, n: int) -> FamilySpec:
    if family == "uniform":
        return FamilySpec("uniform", rank=rng.randint(1, max(1, n)))
    if family == "partition":
        block_count = rng.randint(1, max(1, n))
        blocks: list[list[int]] = [[] for _ in range(block_count)]
        for e in range(n):
            blocks[rng.randrange(block_count)].append(e)
        blocks = [b for b in blocks if b]
        caps = tuple(rng.randint(1, len(b)) for b in blocks)
        return FamilySpec("partition", blocks=tuple(tuple(b) for b in blocks), capacities=caps)
    if family == "graphic":
        v = rng.randint(2, max(2, (n + 2) // 2 + 1))
        edges = []
        for _ in range(n):
            u = rng.randrange(v)
            w = rng.randrange(v - 1)
            if w >= u:
                w += 1
            edges.append((u, w))
        return FamilySpec("graphic", num_vertices=v, edges=tuple(edges))
    if family == "linear":
        dim = rng.randint(1, max(1, min(n, 4)))
        cols = []
        for _ in range(n):
            col = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
            if all(x == 0 for x in col):
                col[rng.randrange(dim)] = Fraction(1)
            cols.append(tuple(col))
        return FamilySpec("linear", columns=tuple(cols))
    if n > _EXPLICIT_GEN_CAP:
        raise ScaleCapError(
            f"explicit generation enumerates bases; n={n} exceeds cap {_EXPLICIT_GEN_CAP}"
        )
    part = _random_family(rng, "partition", n)
    bases: list[tuple[int, ...]] = [()]
    for block, cap in zip(part.blocks, part.capacities):
        subs = [tuple(x for i, x in enumerate(block) if m >> i & 1) for m in range(2 ** len(block))]
        bases = [b + c for b in bases for c in subs if len(c) == cap]
    return FamilySpec("explicit", maximal_sets=tuple(sorted(tuple(sorted(b)) for b in bases)))


def generate_instance(spec: GenSpec) -> BmiInstance:
    if spec.family not in KINDS:
        raise ValidationError(f"unknown family {spec.family!r}", "family")
    if spec.n < 0:
        raise ValidationError("n must be >= 0", "n")
    rng = random.Random(spec.seed)
    family = _random_family(rng, spec.family, spec.n)
    costs = [
        Fraction(rng.randint(1, _COST_MAX), rng.choice(_DENOMINATORS))
        for _ in range(spec.n)
    ]
    profits = [
        Fraction(rng.randint(0, _PROFIT_MAX), rng.choice(_DENOMINATORS))
        for _ in range(spec.n)
    ]
    if spec.n == 0:
        budget = Fraction(1)
    else:
        total = sum(costs)
        budget = max(max(costs), total * Fraction(rng.randint(30, 70), 100))
    return make_instance(budget, costs, profits, family)
