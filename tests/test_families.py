import dataclasses
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from budgetmatroid import (
    FamilySpec,
    Matroid,
    PreconditionError,
    ValidationError,
    construct,
)
from budgetmatroid.families import FIELDS, check_basis_exchange
from budgetmatroid.generate import _random_family
from budgetmatroid.instance import parse_instance
from budgetmatroid.matroid import greedy
from budgetmatroid.verify import check_axioms
from helpers import FAMILIES, all_bases, listed_sets_matroid, loop_greedy, random_matroid
from reference import columns_independent_reference, rank

# Denominators of the random column entries, by kind.
COLUMN_DENOMINATORS = {
    "integer": (1,),
    "non-integer": (2, 3, 7),
    "mixed": (1, 2, 3, 5, 10**12 + 39, 10**15 + 37),
}


def linear_oracle(cols):
    """The independence oracle ``construct`` builds for these columns."""
    return construct(FamilySpec("linear", columns=tuple(cols)), len(cols)).indep_fn


def columns_independent(cols):
    return linear_oracle(cols)(frozenset(range(len(cols))))


def random_columns(rng, kind):
    """Up to dim + 1 columns of dimension 1-5: random ones, zero columns,
    columns parallel to an earlier one and sums of two earlier ones."""
    dens = COLUMN_DENOMINATORS[kind]
    entry = lambda: F(rng.randint(-3, 3), rng.choice(dens))
    dim = rng.randint(1, 5)
    cols = []
    for _ in range(rng.randint(1, dim + 1)):
        shape = rng.choice(("random", "random", "zero", "parallel", "sum"))
        if shape == "zero":
            col = (F(0),) * dim
        elif shape == "parallel" and cols:
            base, scale = rng.choice(cols), entry() or F(1)
            col = tuple(scale * x for x in base)
        elif shape == "sum" and len(cols) >= 2:
            u, v = rng.sample(cols, 2)
            a, b = entry(), entry()
            col = tuple(a * x + b * y for x, y in zip(u, v))
        else:
            col = tuple(entry() for _ in range(dim))
        cols.append(col)
    return cols


class TestConstruct:
    def test_uniform_rank_zero(self):
        m = construct(FamilySpec("uniform", rank=0), 3)
        assert m.is_independent(set())
        assert not m.is_independent({0})

    def test_linear_plane(self):
        cols = ((F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
        m = construct(FamilySpec("linear", columns=cols), 3)
        assert not m.is_independent({0, 1, 2})
        for pair in ({0, 1}, {0, 2}, {1, 2}):
            assert m.is_independent(pair)

    def test_graphic_four_cycle(self):
        m = construct(
            FamilySpec("graphic", num_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))), 4
        )
        assert m.is_independent({0, 1, 2})
        assert not m.is_independent({0, 1, 2, 3})

    def test_graphic_loop_is_dependent_singleton(self):
        m = construct(FamilySpec("graphic", num_vertices=2, edges=((0, 0), (0, 1))), 2)
        assert not m.is_independent({0})
        assert m.is_independent({1})

    def test_partition_blocks_must_cover(self):
        with pytest.raises(ValidationError) as err:
            construct(FamilySpec("partition", blocks=((0,),), capacities=(1,)), 2)
        assert "matroid.blocks" in str(err.value)

    def test_explicit_antichain_enforced(self):
        with pytest.raises(ValidationError) as err:
            construct(FamilySpec("explicit", maximal_sets=((0,), (0, 1))), 2)
        assert "maximal_sets" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            construct(FamilySpec("transversal"), 2)


# Every verdict a family spec can get: (spec, n, message, path).  Faults
# that several checks would catch pin the order of the checks.
VERDICTS = {
    "unknown kind": (
        FamilySpec("transversal"), 2, "unknown matroid kind 'transversal'", "matroid.kind"
    ),
    "uniform without rank": (
        FamilySpec("uniform"), 2, "uniform matroid needs a non-negative rank", "matroid.rank"
    ),
    "uniform negative rank": (
        FamilySpec("uniform", rank=-1), 2, "uniform matroid needs a non-negative rank", "matroid.rank"
    ),
    "partition without blocks": (
        FamilySpec("partition", capacities=(1,)),
        2,
        "partition matroid needs blocks and capacities",
        "matroid.blocks",
    ),
    "partition without capacities": (
        FamilySpec("partition", blocks=((0, 1),)),
        2,
        "partition matroid needs blocks and capacities",
        "matroid.blocks",
    ),
    "partition lengths differ, before ranges": (
        FamilySpec("partition", blocks=((0, 7),), capacities=(1, 1)),
        2,
        "blocks and capacities must have equal length",
        "matroid.capacities",
    ),
    "partition element above range": (
        FamilySpec("partition", blocks=((0,), (1, 2)), capacities=(1, 1)),
        2,
        "element 2 out of range",
        "matroid.blocks[1]",
    ),
    "partition element below range, before a repeat": (
        FamilySpec("partition", blocks=((-1, 0, 0), (1,)), capacities=(1, 1)),
        2,
        "element -1 out of range",
        "matroid.blocks[0]",
    ),
    "partition element in two blocks, before a range": (
        FamilySpec("partition", blocks=((0, 1), (1, 5)), capacities=(1, 1)),
        2,
        "element 1 in two blocks",
        "matroid.blocks[1]",
    ),
    "partition blocks do not cover, before capacities": (
        FamilySpec("partition", blocks=((0,),), capacities=(-1,)),
        3,
        "blocks do not cover elements [1, 2]",
        "matroid.blocks",
    ),
    "partition negative capacity": (
        FamilySpec("partition", blocks=((0,), (1,)), capacities=(1, -1)),
        2,
        "capacity must be >= 0",
        "matroid.capacities[1]",
    ),
    "graphic without num_vertices": (
        FamilySpec("graphic", edges=((0, 1),)),
        1,
        "graphic matroid needs num_vertices",
        "matroid.num_vertices",
    ),
    "graphic negative num_vertices, before edges": (
        FamilySpec("graphic", num_vertices=-1, edges=()),
        1,
        "graphic matroid needs num_vertices",
        "matroid.num_vertices",
    ),
    "graphic without edges": (
        FamilySpec("graphic", num_vertices=2),
        1,
        "graphic matroid needs exactly 1 edges (one per element)",
        "matroid.edges",
    ),
    "graphic edge count, before vertices": (
        FamilySpec("graphic", num_vertices=2, edges=((0, 9),)),
        2,
        "graphic matroid needs exactly 2 edges (one per element)",
        "matroid.edges",
    ),
    "graphic vertex above range": (
        FamilySpec("graphic", num_vertices=2, edges=((0, 1), (1, 2))),
        2,
        "edge (1,2) references invalid vertex",
        "matroid.edges[1]",
    ),
    "graphic vertex below range": (
        FamilySpec("graphic", num_vertices=2, edges=((-1, 0),)),
        1,
        "edge (-1,0) references invalid vertex",
        "matroid.edges[0]",
    ),
    "linear without columns": (
        FamilySpec("linear"),
        1,
        "linear matroid needs exactly 1 columns (one per element)",
        "matroid.columns",
    ),
    "linear column count, before dimensions": (
        FamilySpec("linear", columns=((F(1),), (F(1), F(0)))),
        3,
        "linear matroid needs exactly 3 columns (one per element)",
        "matroid.columns",
    ),
    "linear ragged columns": (
        FamilySpec("linear", columns=((F(1),), (F(1, 2), F(0)))),
        2,
        "columns must share one dimension",
        "matroid.columns",
    ),
    "explicit without maximal_sets": (
        FamilySpec("explicit"), 2, "explicit matroid needs maximal_sets", "matroid.maximal_sets"
    ),
    "explicit element above range, before the antichain": (
        FamilySpec("explicit", maximal_sets=((0,), (0,), (1, 2))),
        2,
        "element 2 out of range",
        "matroid.maximal_sets[2]",
    ),
    "explicit element below range": (
        FamilySpec("explicit", maximal_sets=((0,), (-1,))),
        2,
        "element -1 out of range",
        "matroid.maximal_sets[1]",
    ),
    "explicit set inside a later one": (
        FamilySpec("explicit", maximal_sets=((1,), (0, 1))),
        2,
        "maximal_sets must be an antichain",
        "matroid.maximal_sets[0]",
    ),
    "explicit set inside an earlier one": (
        FamilySpec("explicit", maximal_sets=((0, 1), (0,))),
        2,
        "maximal_sets must be an antichain",
        "matroid.maximal_sets[1]",
    ),
    "explicit repeated set": (
        FamilySpec("explicit", maximal_sets=((1,), (0,), (1,))),
        2,
        "maximal_sets must be an antichain",
        "matroid.maximal_sets[0]",
    ),
    "explicit empty set beside another": (
        FamilySpec("explicit", maximal_sets=((), (1,))),
        2,
        "maximal_sets must be an antichain",
        "matroid.maximal_sets[0]",
    ),
}


def stanza(spec):
    """The JSON matroid stanza of a spec, or None when a field it needs is
    missing, which the JSON format reports as a missing field instead."""
    fields = {k: v for k, v in dataclasses.asdict(spec).items() if v is not None}
    if not all(k in fields for k in FIELDS.get(spec.kind, ())):
        return None
    return json.loads(json.dumps(fields, default=str))


class TestVerdicts:
    @pytest.mark.parametrize("case", list(VERDICTS))
    def test_construct(self, case):
        spec, n, message, path = VERDICTS[case]
        with pytest.raises(ValidationError) as err:
            construct(spec, n)
        assert (str(err.value), err.value.path) == (f"{path}: {message}", path)

    @pytest.mark.parametrize(
        "case", [case for case, (spec, *_) in VERDICTS.items() if stanza(spec) is not None]
    )
    def test_parse_instance(self, case):
        spec, n, message, path = VERDICTS[case]
        doc = {
            "budget": "1",
            "elements": [{"cost": "1", "profit": "1"}] * n,
            "matroid": stanza(spec),
        }
        with pytest.raises(ValidationError) as err:
            parse_instance(json.dumps(doc))
        assert (str(err.value), err.value.path) == (f"{path}: {message}", path)


class TestLinearAlgebra:
    def test_columns_independent_exact(self):
        # (1, 3) is exactly 3x (1/3, 1): dependent only under exact arithmetic.
        assert columns_independent([(F(1, 3), F(2)), (F(1), F(6, 1) + F(1))])
        assert not columns_independent([(F(1, 3), F(1)), (F(1), F(3))])

    @pytest.mark.parametrize("kind", sorted(COLUMN_DENOMINATORS))
    def test_matches_rational_reference(self, kind):
        rng = random.Random(f"columns-{kind}")
        answers = set()
        for _ in range(400):
            cols = random_columns(rng, kind)
            indep = linear_oracle(cols)
            for size in range(len(cols) + 1):
                expected = columns_independent_reference(cols[:size])
                assert indep(frozenset(range(size))) == expected, cols[:size]
                answers.add((expected, size > len(cols[0])))
        # Both answers occur, and so do more columns than rows.
        assert answers >= {(True, False), (False, False), (False, True)}

    def test_zero_parallel_and_surplus_columns(self):
        assert not columns_independent([(F(0), F(0))])
        assert not columns_independent([(F(1, 2), F(-3)), (F(-1, 6), F(1))])
        assert not columns_independent([(F(1),), (F(2),)])
        assert columns_independent([(F(0), F(1, 10**30 + 1)), (F(1, 3), F(0))])

    @pytest.mark.parametrize("seed", range(20))
    def test_linear_oracle_matches_reference(self, seed):
        # The oracle scales each column to integers once, at construction.
        rng = random.Random(700 + seed)
        cols = random_columns(rng, rng.choice(sorted(COLUMN_DENOMINATORS)))
        m = construct(FamilySpec("linear", columns=tuple(cols)), len(cols))
        for mask in range(1 << len(cols)):
            s = frozenset(e for e in range(len(cols)) if mask >> e & 1)
            expected = columns_independent_reference([cols[e] for e in sorted(s)])
            assert m.is_independent(s) == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_matroid_rank_equals_matrix_rank(self, seed):
        rng = random.Random(seed)
        n, dim = rng.randint(1, 6), rng.randint(1, 4)
        cols = tuple(
            tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim))
            for _ in range(n)
        )
        m = construct(FamilySpec("linear", columns=cols), n)
        # The largest independent subset, by the rational reference.
        expected = max(
            size
            for size in range(n + 1)
            for sub in itertools.combinations(cols, size)
            if columns_independent_reference(sub)
        )
        assert rank(m, m.ground) == expected


def _forest_components(num_vertices, edges, subset):
    parent = list(range(num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in subset:
        u, v = edges[e]
        parent[find(u)] = find(v)
    return len({find(v) for v in range(num_vertices)})


class TestGraphicBases:
    @pytest.mark.parametrize("seed", range(25))
    def test_bases_are_spanning_forests(self, seed):
        rng = random.Random(400 + seed)
        v = rng.randint(2, 8)
        n = rng.randint(1, min(8, 2 * v))
        edges = tuple(
            (rng.randrange(v), rng.randrange(v)) for _ in range(n)
        )
        m = construct(FamilySpec("graphic", num_vertices=v, edges=edges), n)
        components = _forest_components(v, edges, range(n))
        for basis in all_bases(m):
            assert len(basis) == v - components
            assert _forest_components(v, edges, basis) == components


class TestRandomFamiliesAreMatroids:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_axioms_hold(self, family):
        rng = random.Random(FAMILIES.index(family))
        for i in range(200):
            n = rng.randint(1, 7)
            m = random_matroid(rng, n, kind=family)
            report = check_axioms(m)
            assert report.ok, (family, i, report)


def random_antichain(seed):
    """A random antichain of subsets of 5 elements: the maximal members of
    a few random sets, of one size or of mixed sizes."""
    rng = random.Random(seed)
    size = rng.randint(0, 5) if seed % 2 else None
    drawn = set()
    for _ in range(rng.randint(1, 8)):
        k = size if size is not None else rng.randint(0, 5)
        drawn.add(frozenset(rng.sample(range(5), k)))
    return tuple(sorted(tuple(sorted(s)) for s in drawn if not any(s < t for t in drawn)))


def perturbed_bases(seed):
    """The bases of a random matroid on 2-7 elements with one element of one
    base swapped for another, so that the changed set is not a base; None
    when the matroid has a single base or every swap gives a base."""
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    bases = sorted(tuple(sorted(b)) for b in all_bases(random_matroid(rng, n, rng.choice(FAMILIES))))
    i = rng.randrange(len(bases))
    swaps = [
        tuple(sorted(set(bases[i]) - {x} | {y}))
        for x in bases[i]
        for y in range(n)
        if y not in bases[i]
    ]
    swaps = [b for b in swaps if b not in bases]
    if len(bases) < 2 or not swaps:
        return None
    bases[i] = rng.choice(swaps)
    return tuple(bases)


def check_basis_exchange_reference(maximal_sets):
    """The exchange test over every (B1, x, B2), with no B1 - x skipped."""
    masks = [sum(1 << e for e in set(s)) for s in maximal_sets]
    partners = {}
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
            reach = partners[b1 ^ x]
            for j, b2 in enumerate(masks):
                if not b2 & reach:
                    raise ValidationError(
                        f"maximal_sets[{i}] minus element {x.bit_length() - 1} has no "
                        f"exchange partner in maximal_sets[{j}] (not a matroid)",
                        "matroid.maximal_sets",
                    )


def exchange_verdict(check, sets):
    try:
        check(sets)
    except ValidationError as exc:
        return str(exc), exc.path
    return None


class TestBasisExchange:
    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_axiom_checker(self, seed):
        sets = random_antichain(seed)
        is_matroid = check_axioms(listed_sets_matroid(sets, 5)).ok
        try:
            check_basis_exchange(sets)
        except ValidationError:
            assert not is_matroid
        else:
            assert is_matroid

    @pytest.mark.parametrize("seed", range(30))
    def test_random_antichain_verdict_matches_reference(self, seed):
        sets = random_antichain(seed)
        expected = exchange_verdict(check_basis_exchange_reference, sets)
        assert exchange_verdict(check_basis_exchange, sets) == expected

    def test_perturbed_bases_verdicts_match_reference(self):
        rejected = 0
        for seed in range(400):
            sets = perturbed_bases(seed)
            if sets is None:
                continue
            expected = exchange_verdict(check_basis_exchange_reference, sets)
            assert exchange_verdict(check_basis_exchange, sets) == expected, sets
            rejected += expected is not None
        assert rejected >= 40


def random_independent(rng, m):
    """A random subset of the greedy set of a random order: independent."""
    order = sorted(m.ground)
    rng.shuffle(order)
    greedy_set = loop_greedy(m.indep_fn, (), order)
    return frozenset(e for e in greedy_set if rng.random() < 0.5)


def random_order(rng, m):
    """A random permutation of a random part of the ground set."""
    order = [e for e in m.ground if rng.random() < 0.8]
    rng.shuffle(order)
    return order


def assert_scan_matches_loop(m, base, order):
    """The scan of base followed by order: the loop's set from the base."""
    assert m.indep_fn.scan([*base, *order]) == loop_greedy(m.indep_fn, base, order), (base, order)


DEGENERATE = {
    "graphic loops and parallel edges": FamilySpec(
        "graphic", num_vertices=3, edges=((0, 0), (0, 1), (1, 0), (0, 1), (1, 2), (2, 2), (2, 0))
    ),
    "linear zero and parallel non-integer columns": FamilySpec(
        "linear",
        columns=(
            (F(0), F(0), F(0)),
            (F(1, 2), F(-1, 3), F(0)),
            (F(3, 2), F(-1), F(0)),
            (F(0), F(0), F(0)),
            (F(2, 7), F(1, 5), F(1, 3)),
            (F(-1, 7), F(-1, 10), F(-1, 6)),
            (F(1, 2), F(-1, 3), F(1, 3)),
        ),
    ),
    "uniform rank 0": FamilySpec("uniform", rank=0),
    "partition with capacity-0 blocks": FamilySpec(
        "partition", blocks=((0, 3), (1, 4, 5), (2, 6)), capacities=(0, 2, 0)
    ),
    "explicit, only the empty basis": FamilySpec("explicit", maximal_sets=((),)),
    "explicit, no listed set": FamilySpec("explicit", maximal_sets=()),
}


class TestScans:
    """Each family's incremental scan against the generic greedy loop."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_loop_on_random_orders_and_bases(self, family):
        rng = random.Random(f"scan-{family}")
        for _ in range(150):
            m = random_matroid(rng, rng.randint(0, 9), kind=family)
            for _ in range(4):
                assert_scan_matches_loop(m, frozenset(), random_order(rng, m))
                assert_scan_matches_loop(m, random_independent(rng, m), random_order(rng, m))

    @pytest.mark.parametrize("kind", sorted(COLUMN_DENOMINATORS))
    def test_linear_scan_on_random_columns(self, kind):
        # Zero, parallel and sum-of-two columns with non-integer entries.
        rng = random.Random(f"scan-columns-{kind}")
        for _ in range(200):
            cols = random_columns(rng, kind)
            m = construct(FamilySpec("linear", columns=tuple(cols)), len(cols))
            for _ in range(3):
                assert_scan_matches_loop(m, random_independent(rng, m), random_order(rng, m))

    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_degenerate_families(self, case):
        spec = DEGENERATE[case]
        n = 7
        m = construct(spec, n)
        rng = random.Random(case)
        bases = [
            frozenset(e for e in range(n) if mask >> e & 1)
            for mask in range(1 << n)
            if m.indep_fn(frozenset(e for e in range(n) if mask >> e & 1))
        ]
        for base in bases:
            assert_scan_matches_loop(m, base, list(range(n)))
            for _ in range(3):
                assert_scan_matches_loop(m, base, random_order(rng, m))

    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_dependent_base_rejected(self, case):
        m = construct(DEGENERATE[case], 7)
        dependent = next(
            frozenset(c)
            for size in range(1, 8)
            for c in itertools.combinations(range(7), size)
            if not m.indep_fn(frozenset(c))
        )
        # greedy from a dependent base raises through the scan and through
        # the generic loop of a plain oracle, with or without an order.
        plain = Matroid(m.ground, lambda s: m.indep_fn(s))
        rest = [e for e in range(7) if e not in dependent]
        for handle in (m, plain):
            for order in ([], rest):
                with pytest.raises(PreconditionError):
                    greedy(handle, order, dependent)


def partition_by_count(spec):
    """Independence in a partition spec by its definition: at most the
    block's capacity of elements in each block."""
    pairs = [(frozenset(block), cap) for block, cap in zip(spec.blocks, spec.capacities)]
    return lambda s: all(len(s & block) <= cap for block, cap in pairs)


def definition(spec, n):
    """The independence test of an explicit or partition spec, written from
    its definition and not through ``construct``."""
    if spec.kind == "explicit":
        return listed_sets_matroid(spec.maximal_sets, n).indep_fn
    return partition_by_count(spec)


def assert_oracle_is_definition(spec, n):
    oracle = construct(spec, n).indep_fn
    indep = definition(spec, n)
    for mask in range(1 << n):
        s = frozenset(e for e in range(n) if mask >> e & 1)
        assert oracle(s) == indep(s), (spec, sorted(s))


class TestDefinitions:
    """The explicit and partition oracles against their definitions on every
    subset.  ``TestScans`` diffs each scan against a loop over the oracle's
    own test, so a wrong test shows only here."""

    @pytest.mark.parametrize("family", ["explicit", "partition"])
    def test_random_specs(self, family):
        rng = random.Random(f"definition-{family}")
        for _ in range(100):
            n = rng.randint(0, 10)
            assert_oracle_is_definition(_random_family(rng, family, n), n)

    @pytest.mark.parametrize(
        "case", [case for case, spec in DEGENERATE.items() if spec.kind in ("explicit", "partition")]
    )
    def test_degenerate_families(self, case):
        assert_oracle_is_definition(DEGENERATE[case], 7)

    def test_explicit_past_a_machine_word(self):
        # One block of 10 elements with capacity 5: 252 listed sets, so the
        # masks run past 64 bits.  The scan is diffed against greedy on the
        # definition as well.
        n = 10
        spec = FamilySpec("explicit", maximal_sets=tuple(itertools.combinations(range(n), 5)))
        assert len(spec.maximal_sets) > 64
        assert_oracle_is_definition(spec, n)
        scan, indep = construct(spec, n).indep_fn.scan, definition(spec, n)
        rng = random.Random("definition-wide")
        for _ in range(50):
            order = rng.sample(range(n), rng.randint(0, n))
            assert scan(order) == loop_greedy(indep, (), order), order
