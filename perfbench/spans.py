"""In-memory span tracing installed from outside the package.

Wrappers replace module attributes at the point where callers look them
up (``lp.separate``, ``scheme.solve_lp``, ...), so the package itself is not
modified.  Each wrapped call records a span: name, start, end, parent span
and the id of the solve it belongs to.  Two call sites are too frequent to
store one span per call — ``lp.rank`` (one call per subset the separation
scans) and the instance's independence oracle — so they are leaf
aggregates: their count and time are charged to the enclosing span, which
is all that self-time derivation needs.

A span's self time is its duration minus its child spans and its leaf
aggregates.  Within one solve, the self times of all its spans plus its
leaf aggregates add up to the solve span; ``per_solve_error`` measures how
far that holds.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from array import array
from collections import defaultdict
from time import perf_counter

# (module attribute of the package, function name, span name)
SPAN_TARGETS = (
    ("scheme", "lp_upper_bound", "lp.upper_bound"),
    ("lp", "lp_upper_bound", "lp.upper_bound"),
    ("scheme", "solve_lp", "lp.solve_lp"),
    ("lp", "solve_polytope_lp", "lp.polytope"),
    ("scheme", "round_integral", "lp.round_integral"),
    ("lp", "round_integral", "lp.round_integral"),
    ("lp", "separate", "lp.separate"),
    ("lp", "simplex_max", "simplex"),
    ("scheme", "find_rep", "scheme.find_rep"),
    ("scheme", "run_for_alpha", "scheme.run_for_alpha"),
    ("scheme", "class_partition", "scheme.class_partition"),
    ("scheme", "min_weight_basis", "matroid.min_weight_basis"),
)
RANK_TARGET = ("lp", "rank")
ROOT_SPAN = "solve"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rank_s = array("d")  # time in lp.rank calls made directly by this span
        self.rank_indep_s = array("d")  # oracle time inside those rank calls
        self.indep_s = array("d")  # oracle time of calls made directly by this span
        self.stack: list[int] = []
        self.solve_id = -1
        self.rank_calls = 0
        self.indep_calls = 0
        self._in_rank = False
        self._rank_indep = 0.0
        self.tableau_cells = 0  # computed from simplex argument sizes
        self.separate_subsets = 0  # computed from separation point supports
        self.bootstrap: dict[int, tuple] = {}
        self.rep_sizes: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self.rank_s.append(0.0)
        self.rank_indep_s.append(0.0)
        self.indep_s.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def rank_leaf(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._in_rank, self._rank_indep = True, 0.0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._in_rank = False
                p = self.stack[-1]
                self.rank_s[p] += dur
                self.rank_indep_s[p] += self._rank_indep
                self.rank_calls += 1

        return wrapper

    def indep_leaf(self, fn):
        def wrapper(s):
            t0 = perf_counter()
            try:
                return fn(s)
            finally:
                dur = perf_counter() - t0
                self.indep_calls += 1
                if self._in_rank:
                    self._rank_indep += dur
                else:
                    self.indep_s[self.stack[-1]] += dur

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, bm) -> None:
        """Wrap every target that exists; a missing one is listed and reports zero."""
        for mod_name, attr, name in SPAN_TARGETS:
            self._patch(bm, mod_name, attr, lambda fn, name=name: self.span(name, fn, HOOKS.get(name)))
        self._patch(bm, *RANK_TARGET, self.rank_leaf)

    def _patch(self, bm, mod_name, attr, make):
        module = getattr(bm, mod_name, None)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{mod_name}.{attr}")
            return
        self._restore.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def wrap_instance(self, bm, inst):
        """The instance with its base oracle counted; every derived handle goes through it."""
        m = inst.matroid
        handle = bm.matroid.Matroid(m.ground, self.indep_leaf(m.indep_fn), m.label)
        return dataclasses.replace(inst, matroid=handle)

    # -- derivation ----------------------------------------------------

    def self_times(self) -> array:
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return array(
            "d",
            (
                self.end[i] - self.start[i] - child[i] - self.rank_s[i] - self.indep_s[i]
                for i in range(n)
            ),
        )

    def totals(self, self_t: array) -> dict[str, list]:
        """span name -> [calls, inclusive seconds, self seconds]."""
        out: dict[str, list] = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(len(self.start)):
            row = out[self.names[self.name_id[i]]]
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += self_t[i]
        return out

    def per_solve_error(self, self_t: array) -> float:
        """Largest |sum of self times and leaf times - solve span| over solves."""
        accounted: dict[int, float] = defaultdict(float)
        root_dur: dict[int, float] = {}
        root = self._ids.get(ROOT_SPAN)
        for i in range(len(self.start)):
            accounted[self.solve[i]] += self_t[i] + self.rank_s[i] + self.indep_s[i]
            if self.name_id[i] == root and self.parent[i] < 0:
                root_dur[self.solve[i]] = self.end[i] - self.start[i]
        return max((abs(accounted[s] - d) for s, d in root_dur.items()), default=0.0)

    def write(self, path: str, self_t: array) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            out.write("id\tname\tstart\tend\tparent\tsolve\tself_s\trank_s\tindep_s\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                    f"{self.parent[i]}\t{self.solve[i]}\t{self_t[i]!r}\t"
                    f"{self.rank_s[i]!r}\t{self.indep_s[i]!r}\n"
                )


def _simplex_cells(tr: Tracer, args, result) -> None:
    # Tableau of simplex_max(objective, rows, rhs): (m + 1) x (n + m + 1).
    n, m = len(args[0]), len(args[1])
    tr.tableau_cells += (m + 1) * (n + m + 1)


def _separate_subsets(tr: Tracer, args, result) -> None:
    tr.separate_subsets += 2 ** len(args[1].support()) - 1


def _bootstrap(tr: Tracer, args, result) -> None:
    tr.bootstrap.setdefault(tr.solve_id, result)


def _rep_size(tr: Tracer, args, result) -> None:
    tr.rep_sizes.append(len(result.elements))


HOOKS = {
    "simplex": _simplex_cells,
    "lp.separate": _separate_subsets,
    "lp.upper_bound": _bootstrap,
    "scheme.find_rep": _rep_size,
}
