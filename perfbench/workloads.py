"""Workload corpora and the seeded set-up that turns them into instances.

A workload is a fixed corpus of generator specs (family, n, generator seed),
each solved once per accuracy in the workload's eps list.  The benchmark
seed relabels the ground set of every instance with a seeded permutation
between serialization and parsing.  Different seeds therefore give
different input files, but every seed asks for about the same work:
relabelling leaves the enumeration counts unchanged and moves the LP
counts only through tie-breaking order.  Drawing fresh generator
seeds per benchmark seed instead makes a run's cost swing by a factor of
two and more, because solve time is heavy-tailed in the drawn structure
(a uniform matroid's rank, a budget's tightness).

Tasks are ordered round-robin over the families so that every stretch of a
pass mixes them.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

FOUR_FAMILIES = ("uniform", "partition", "graphic", "linear")
FIVE_FAMILIES = FOUR_FAMILIES + ("explicit",)


@dataclass(frozen=True)
class Workload:
    name: str
    call: str  # "approximate" or "lp_upper_bound"
    specs: tuple[tuple[str, int, int], ...]  # (family, n, generator seed)
    eps: tuple[Fraction, ...]

    def tasks(self) -> list[tuple[int, Fraction]]:
        """(spec index, eps) pairs in solve order."""
        return [(i, eps) for i in range(len(self.specs)) for eps in self.eps]


WORKLOADS = {
    w.name: w
    for w in (
        # Enumeration of F within the representative set dominates: tens to
        # about a thousand residual LPs per solve.
        Workload(
            "enum-mid",
            "approximate",
            tuple((f, n, s) for s in range(14) for n in (9, 10) for f in FOUR_FAMILIES),
            (Fraction(1, 3),),
        ),
        # One uncapped cutting-plane LP per solve, no enumeration; the eps
        # only sets the threshold of lp.bootstrap_certified_frac.
        Workload(
            "lp-bound",
            "lp_upper_bound",
            tuple((f, 11, s) for s in range(46) for f in FOUR_FAMILIES),
            (Fraction(1, 3),),
        ),
        # Many cheap solves, so per-solve fixed cost and set-up weigh most.
        Workload(
            "small-batch",
            "approximate",
            tuple(
                (f, n, s) for s in range(7) for n in (6, 8, 10) for f in FIVE_FAMILIES
            ),
            (Fraction(1, 2), Fraction(1, 3)),
        ),
    )
}


def relabel(text: str, rng: random.Random) -> str:
    """Serialized instance with its elements renumbered by a random permutation."""
    obj = json.loads(text)
    n = len(obj["elements"])
    perm = list(range(n))
    rng.shuffle(perm)

    def permuted(items):
        out = [None] * n
        for old, item in enumerate(items):
            out[perm[old]] = item
        return out

    obj["elements"] = permuted(obj["elements"])
    m = obj["matroid"]
    kind = m["kind"]
    if kind == "partition":
        m["blocks"] = [sorted(perm[e] for e in block) for block in m["blocks"]]
    elif kind == "graphic":
        m["edges"] = permuted(m["edges"])
    elif kind == "linear":
        m["columns"] = permuted(m["columns"])
    elif kind == "explicit":
        m["maximal_sets"] = sorted(sorted(perm[e] for e in s) for s in m["maximal_sets"])
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@dataclass
class SetupTimes:
    generate_s: float = 0.0
    parse_s: float = 0.0


def build_instances(bm, workload: Workload, seed: int) -> tuple[list, SetupTimes]:
    """Generate, serialize, relabel and parse every instance of the corpus."""
    rng = random.Random(seed)
    times = SetupTimes()
    instances = []
    for family, n, gen_seed in workload.specs:
        t0 = time.perf_counter()
        inst = bm.generate_instance(bm.GenSpec(family, n, gen_seed))
        t1 = time.perf_counter()
        text = relabel(bm.serialize_instance(inst), rng)
        t2 = time.perf_counter()
        instances.append(bm.parse_instance(text))
        t3 = time.perf_counter()
        times.generate_s += t1 - t0
        times.parse_s += t3 - t2
    return instances, times
