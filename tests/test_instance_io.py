import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from budgetmatroid import FamilySpec, ValidationError, construct, make_instance
from budgetmatroid.cli import main
from budgetmatroid.generate import GENERATOR_VERSION, GenSpec, _random_family, generate_instance
from budgetmatroid.instance import (
    MAX_DIGITS,
    MAX_LITERAL,
    format_rational,
    parse_instance,
    parse_rational,
    serialize_instance,
)
from helpers import FAMILIES, maximal_sets_reference


def minimal_doc(**overrides):
    doc = {
        "budget": "3",
        "elements": [
            {"cost": "1", "profit": "2"},
            {"cost": "1/2", "profit": "0.25"},
        ],
        "matroid": {"kind": "uniform", "rank": 2},
    }
    doc.update(overrides)
    return doc


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("1/3", "x") == F(1, 3)
        assert parse_rational("0.25", "x") == F(1, 4)
        assert parse_rational("-2", "x") == F(-2)

    def test_floats_forbidden(self):
        with pytest.raises(ValidationError) as err:
            parse_rational(0.25, "budget")
        assert "budget" in str(err.value)

    def test_garbage_rejected(self):
        for bad in ("1/0", "abc", ""):
            with pytest.raises(ValidationError):
                parse_rational(bad, "x")

    @pytest.mark.parametrize("literal", ["1e1000000", "1e-1000000", "2.5E+4301", "1e" + "9" * 5000])
    def test_exponent_above_cap_rejected(self, literal):
        with pytest.raises(ValidationError) as err:
            parse_rational(literal, "budget")
        assert err.value.path == "budget"

    def test_exponent_at_cap_accepted(self):
        assert parse_rational("1e4300", "x") == 10**4300
        assert parse_rational("1e-4300", "x") == F(1, 10**4300)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789./eE+-", max_size=7))
    def test_grammar_matches_fraction(self, text):
        try:
            expected = F(text)
        except (ValueError, ZeroDivisionError):
            expected = None
        try:
            assert parse_rational(text, "x") == expected
        except ValidationError as err:
            assert expected is None or "exponent exceeds" in str(err)

    def test_underscores_between_digits(self):
        assert parse_rational("+1_000/3_0", "x") == F(100, 3)
        assert parse_rational("1_0.2_5e0_1", "x") == F(205, 2)
        for bad in ("1_", "_1", "1__0", "1/_2"):
            with pytest.raises(ValidationError):
                parse_rational(bad, "x")

    def test_digit_and_length_caps(self):
        longest = "9" * MAX_DIGITS
        assert parse_rational(longest, "x") == 10**MAX_DIGITS - 1
        assert parse_rational("-1/" + longest, "x") == F(-1, 10**MAX_DIGITS - 1)
        # Leading zeros count toward the length cap only.
        assert parse_rational("1e-" + "0" * 5000 + "3", "x") == F(1, 1000)
        assert parse_rational("0" * (MAX_LITERAL - 1) + "7", "x") == 7
        for bad in ("9" + longest, "1/9" + longest, "10e4300", "0" * MAX_LITERAL + "7"):
            with pytest.raises(ValidationError):
                parse_rational(bad, "x")

    @pytest.mark.parametrize(
        "literal",
        ["1e4300", "-1e-4300", "9" * MAX_DIGITS, "1/" + "9" * MAX_DIGITS, "0.5e4300"],
        ids=["1e4300", "-1e-4300", "longest-integer", "longest-denominator", "0.5e4300"],
    )
    def test_round_trip_at_the_caps(self, literal):
        x = parse_rational(literal, "x")
        assert parse_rational(format_rational(x), "x") == x

    def test_format_beyond_digit_limit(self):
        assert format_rational(F(10**4300)) == "1" + "0" * 4300
        assert format_rational(F(-1, 10**5000)) == "-1/1" + "0" * 5000

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_round_trip(self, num, den):
        x = F(num, den)
        assert parse_rational(format_rational(x), "x") == x


class TestParse:
    def test_minimal_document(self):
        inst = parse_instance(json.dumps(minimal_doc()))
        assert inst.budget == F(3)
        assert inst.costs == (F(1), F(1, 2))
        assert inst.profits == (F(2), F(1, 4))
        assert inst.active == {0, 1}

    def test_missing_field(self):
        doc = minimal_doc()
        del doc["budget"]
        with pytest.raises(ValidationError):
            parse_instance(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ValidationError):
            parse_instance("{nope")

    def test_deep_nesting_is_validation_error(self):
        with pytest.raises(ValidationError) as err:
            parse_instance("[" * 100000)
        assert err.value.path == "$"

    def test_integer_over_digit_limit_is_validation_error(self):
        text = json.dumps(minimal_doc()).replace('"rank": 2', '"rank": ' + "9" * 5000)
        with pytest.raises(ValidationError) as err:
            parse_instance(text)
        assert err.value.path == "$"

    @pytest.mark.parametrize("text", ["[" * 100000, json.dumps(minimal_doc(budget="1e1000000"))])
    def test_solve_exits_2(self, text, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(text)
        assert main(["solve", "--instance", str(inst), "--eps", "1/3"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sets", [[[0, 1], [2]], [[0, 1], [2, 3]]])
    def test_non_matroid_explicit_family_rejected(self, sets, tmp_path, capsys):
        doc = minimal_doc(
            elements=[{"cost": "1", "profit": "1"}] * 4,
            matroid={"kind": "explicit", "maximal_sets": sets},
        )
        with pytest.raises(ValidationError) as err:
            parse_instance(json.dumps(doc))
        assert err.value.path == "matroid.maximal_sets"
        # make_instance, which generate_instance also calls, gives the same verdict.
        spec = FamilySpec("explicit", maximal_sets=tuple(map(tuple, sets)))
        with pytest.raises(ValidationError) as made:
            make_instance(F(3), [F(1)] * 4, [F(1)] * 4, spec)
        assert (str(made.value), made.value.path) == (str(err.value), err.value.path)
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        assert main(["solve", "--instance", str(inst), "--eps", "1/3"]) == 2
        assert "maximal_sets" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_generated_explicit_families_parse(self, n):
        for seed in range(7):
            inst = generate_instance(GenSpec("explicit", n, seed))
            assert parse_instance(serialize_instance(inst)).matroid_spec == inst.matroid_spec

    def test_numeric_cost_rejected_with_path(self):
        doc = minimal_doc()
        doc["elements"][1]["cost"] = 0.5
        with pytest.raises(ValidationError) as err:
            parse_instance(json.dumps(doc))
        assert "elements[1].cost" in str(err.value)

    def test_cost_above_budget_names_element(self):
        doc = minimal_doc()
        doc["elements"][0]["cost"] = "4"
        with pytest.raises(ValidationError) as err:
            parse_instance(json.dumps(doc))
        assert "elements[0].cost" in str(err.value)

    def test_negative_profit_rejected(self):
        doc = minimal_doc()
        doc["elements"][0]["profit"] = "-1"
        with pytest.raises(ValidationError):
            parse_instance(json.dumps(doc))

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValidationError):
            parse_instance(json.dumps(minimal_doc(budget="0")))

    def test_dropped_singletons_recorded_not_removed(self):
        doc = minimal_doc(
            matroid={"kind": "graphic", "num_vertices": 2, "edges": [[0, 0], [0, 1]]}
        )
        inst = parse_instance(json.dumps(doc))
        assert inst.n == 2
        assert inst.dropped == (0,)
        assert inst.active == {1}
        # Serialization keeps the original element list and ids.
        again = parse_instance(serialize_instance(inst))
        assert again.n == 2 and again.dropped == (0,)


NON_INTEGER_FIELDS = {
    "rank-float": ({"kind": "uniform", "rank": 1.9}, "matroid.rank"),
    "rank-bool": ({"kind": "uniform", "rank": True}, "matroid.rank"),
    "rank-string": ({"kind": "uniform", "rank": "2"}, "matroid.rank"),
    "blocks-float": (
        {"kind": "partition", "blocks": [[0, 1.0]], "capacities": [1]},
        "matroid.blocks[0][1]",
    ),
    "capacities-bool": (
        {"kind": "partition", "blocks": [[0, 1]], "capacities": [False]},
        "matroid.capacities[0]",
    ),
    "num_vertices-float": (
        {"kind": "graphic", "num_vertices": 2.5, "edges": [[0, 1], [1, 0]]},
        "matroid.num_vertices",
    ),
    "edges-float": (
        {"kind": "graphic", "num_vertices": 2, "edges": [[0, 1], [1, 0.0]]},
        "matroid.edges[1][1]",
    ),
    "maximal_sets-bool": (
        {"kind": "explicit", "maximal_sets": [[0, True]]},
        "matroid.maximal_sets[0][1]",
    ),
}


class TestIntegerFields:
    @pytest.mark.parametrize(
        "matroid,path", list(NON_INTEGER_FIELDS.values()), ids=list(NON_INTEGER_FIELDS)
    )
    def test_non_integer_rejected_at_path(self, matroid, path, tmp_path, capsys):
        text = json.dumps(minimal_doc(matroid=matroid))
        with pytest.raises(ValidationError) as err:
            parse_instance(text)
        assert err.value.path == path
        inst = tmp_path / "inst.json"
        inst.write_text(text)
        assert main(["solve", "--instance", str(inst), "--eps", "1/3"]) == 2
        assert path in capsys.readouterr().err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def json_paths(node, path=()):
    """Every path into a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, path + (key,))


def parse_or_reject(text):
    try:
        parse_instance(text)
    except ValidationError:
        pass


class TestParseFuzz:
    """parse_instance raises nothing but ValidationError."""

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, text):
        parse_or_reject(text)

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 20), data=st.data())
    def test_mutated_instances(self, family, seed, data):
        doc = json.loads(serialize_instance(generate_instance(GenSpec(family, 5, seed=seed))))
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(json_paths(doc))))
            if not path:
                doc = data.draw(JSON_VALUES)
                continue
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(JSON_VALUES)
        parse_or_reject(json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(FAMILIES), seed=st.integers(0, 20), data=st.data())
    def test_mutated_text(self, family, seed, data):
        text = serialize_instance(generate_instance(GenSpec(family, 5, seed=seed)))
        for _ in range(data.draw(st.integers(1, 4))):
            i = data.draw(st.integers(0, len(text)))
            j = data.draw(st.integers(i, min(len(text), i + 4)))
            text = text[:i] + data.draw(st.text(max_size=4)) + text[j:]
        parse_or_reject(text)


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        inst = parse_instance(json.dumps(minimal_doc()))
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again.budget == inst.budget
        assert again.costs == inst.costs
        assert again.profits == inst.profits
        assert again.matroid_spec == inst.matroid_spec
        assert serialize_instance(again) == text

    def test_profit_beyond_digit_limit_round_trips(self):
        inst = parse_instance(json.dumps(minimal_doc(elements=[{"cost": "1", "profit": "1e4300"}])))
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again.profits == (F(10**4300),)
        assert serialize_instance(again) == text

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generated_instances_round_trip(self, family):
        rng = random.Random(FAMILIES.index(family) + 60)
        for _ in range(20):
            inst = generate_instance(GenSpec(family, rng.randint(0, 9), seed=rng.randrange(1 << 30)))
            text = serialize_instance(inst)
            again = parse_instance(text)
            assert serialize_instance(again) == text
            assert again.costs == inst.costs and again.profits == inst.profits


class TestGenerator:
    def test_version_tag(self):
        assert GENERATOR_VERSION == "mt19937-v1"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_deterministic_byte_identical(self, family):
        a = serialize_instance(generate_instance(GenSpec(family, 8, seed=42)))
        b = serialize_instance(generate_instance(GenSpec(family, 8, seed=42)))
        assert a == b

    def test_different_seeds_differ(self):
        a = serialize_instance(generate_instance(GenSpec("uniform", 8, seed=1)))
        b = serialize_instance(generate_instance(GenSpec("uniform", 8, seed=2)))
        assert a != b

    @pytest.mark.parametrize("family", FAMILIES)
    def test_output_satisfies_invariants(self, family):
        rng = random.Random(90 + FAMILIES.index(family))
        for _ in range(25):
            inst = generate_instance(GenSpec(family, rng.randint(0, 10), seed=rng.randrange(1 << 30)))
            assert inst.budget > 0
            assert all(0 <= c <= inst.budget for c in inst.costs)
            assert all(p >= 0 for p in inst.profits)

    def test_zero_elements(self):
        inst = generate_instance(GenSpec("uniform", 0, seed=5))
        assert inst.n == 0 and inst.budget == 1

    @pytest.mark.parametrize("n", range(11))
    def test_explicit_lists_the_maximal_sets_of_its_partition(self, n):
        # The generator lists the bases of the partition matroid it draws;
        # the reference finds that matroid's maximal sets by scanning subsets.
        for seed in range(20):
            inst = generate_instance(GenSpec("explicit", n, seed))
            m = construct(_random_family(random.Random(seed), "partition", n), n)
            assert inst.matroid_spec.maximal_sets == maximal_sets_reference(m), seed


class TestMakeInstance:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            make_instance(F(1), [F(1)], [], FamilySpec("uniform", rank=1))

    def test_negative_cost(self):
        with pytest.raises(ValidationError):
            make_instance(F(1), [F(-1)], [F(1)], FamilySpec("uniform", rank=1))
