"""Instance model plus the JSON file format.

All money-like quantities (budget, costs, profits) are exact rationals and
are encoded as strings in the file format; raw JSON numbers are rejected so
no value ever passes through floating point, and ``make_instance`` takes
only ``int`` and ``Fraction``.  A matroid stanza holds its kind's
``families.FIELDS``, each coded by ``_CODEC``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable

from .errors import ValidationError
from .families import FIELDS, KINDS, FamilySpec, construct
from .matroid import Matroid, restrict


# Largest decimal exponent accepted in a rational literal.
MAX_EXPONENT = 4300
# Most digits in the numerator or the denominator of a parsed rational, so
# that 10**MAX_EXPONENT fits.
MAX_DIGITS = MAX_EXPONENT + 1
_BOUND = 10**MAX_DIGITS
# Longest literal accepted: "-n/d" with MAX_DIGITS digits each, so every
# accepted value prints (format_rational) as a literal that parses back.
MAX_LITERAL = 2 * MAX_DIGITS + 2
# Fraction's string grammar: "n", "n/d", or a decimal with an optional exponent.
_RATIONAL = re.compile(
    r"\s*([-+]?)(?=\d|\.\d)(\d+(?:_\d+)*)?"
    r"(?:/(\d+(?:_\d+)*)|(?:\.(\d+(?:_\d+)*)?)?(?:[eE]([-+]?\d+(?:_\d+)*))?)\s*"
)


def _integer(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter's int-string limit
        return int(Decimal(digits))


def parse_rational(value, path: str) -> Fraction:
    if not isinstance(value, str):
        raise ValidationError(
            "rationals must be strings like \"1/3\" or \"0.25\" (JSON numbers are forbidden)",
            path,
        )
    if len(value) > MAX_LITERAL:
        raise ValidationError(f"rational literal longer than {MAX_LITERAL} characters", path)
    match = _RATIONAL.fullmatch(value)
    if match is None:
        raise ValidationError(f"not a rational literal: {value!r}", path)
    sign, num, den, dec, exp = match.groups()
    n = _integer(num) if num else 0
    d = _integer(den) if den else 1
    if d == 0:
        raise ValidationError(f"zero denominator in {value!r}", path)
    if dec:
        scale = 10 ** len(dec.replace("_", ""))
        n, d = n * scale + _integer(dec), scale
    if exp:
        e = _integer(exp)
        # 10**e costs time before the digit bound below could reject it.
        if abs(e) > MAX_EXPONENT:
            raise ValidationError(f"decimal exponent exceeds {MAX_EXPONENT} in {value!r}", path)
        n, d = (n * 10**e, d) if e >= 0 else (n, d * 10**-e)
    x = Fraction(-n if sign == "-" else n, d)
    if abs(x.numerator) >= _BOUND or x.denominator >= _BOUND:
        raise ValidationError(f"{value!r} has more than {MAX_DIGITS} digits in lowest terms", path)
    return x


def format_rational(x: Fraction) -> str:
    """``str(Fraction(x))`` for numerators and denominators of any size."""
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:  # more digits than the interpreter's int-string limit
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


@dataclass(frozen=True)
class BmiInstance:
    """A budgeted matroid independent-set instance.

    ``matroid`` is the independence oracle over the active elements, those
    whose singleton is independent: ``make_instance`` restricts the family's
    matroid to them, and ``active`` is its ground.  No solution and no
    computation uses another element; ``dropped`` lists them for reports.
    The full matroid, over all n elements, is ``construct(matroid_spec, n)``.
    """

    budget: Fraction
    costs: tuple[Fraction, ...]
    profits: tuple[Fraction, ...]
    matroid_spec: FamilySpec
    matroid: Matroid = field(repr=False)
    dropped: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def active(self) -> frozenset:
        return self.matroid.ground

    def cost(self, elements: Iterable[int]) -> Fraction:
        return sum((self.costs[e] for e in elements), Fraction(0))

    def profit(self, elements: Iterable[int]) -> Fraction:
        return sum((self.profits[e] for e in elements), Fraction(0))

    @cached_property
    def view(self) -> IntegerView:
        """The instance's ``IntegerView``, built at first use and kept."""
        return IntegerView(self)


def _scaled(values, d: int) -> list[int]:
    """The rationals ``values`` times ``d``, a common multiple of their denominators."""
    return [v.numerator * (d // v.denominator) for v in values]


class IntegerView:
    """An instance's profits times ``dp``, the lcm of their denominators, and
    its costs and budget times ``dc``, the lcm of theirs.

    Positive scaling keeps every comparison of sums, so the solve path
    compares costs, profits and LP weights as integers.  Read it as
    ``BmiInstance.view``: the instance builds it at the first solve, not at
    parse time, and keeps it.
    """

    __slots__ = ("profits", "costs", "budget", "dp", "dc")

    def __init__(self, inst: BmiInstance):
        self.dp = lcm(*(p.denominator for p in inst.profits))
        self.dc = lcm(inst.budget.denominator, *(c.denominator for c in inst.costs))
        self.profits = tuple(_scaled(inst.profits, self.dp))
        self.costs = tuple(_scaled(inst.costs, self.dc))
        self.budget = inst.budget.numerator * (self.dc // inst.budget.denominator)

    def cost(self, elements: Iterable[int]) -> int:
        return sum(map(self.costs.__getitem__, elements))

    def profit(self, elements: Iterable[int]) -> int:
        return sum(map(self.profits.__getitem__, elements))


def _exact(value, path: str) -> Fraction:
    # A float would bring in its binary value silently, and bool is an int.
    if type(value) is Fraction:  # immutable, so returned as it is
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValidationError(f"expected an int or a Fraction, got {value!r}", path)
    return Fraction(value)


def make_instance(
    budget: Fraction,
    costs: Iterable[Fraction],
    profits: Iterable[Fraction],
    spec: FamilySpec,
) -> BmiInstance:
    costs = tuple(_exact(c, f"elements[{i}].cost") for i, c in enumerate(costs))
    profits = tuple(_exact(p, f"elements[{i}].profit") for i, p in enumerate(profits))
    n = len(costs)
    if len(profits) != n:
        raise ValidationError("costs and profits must have equal length", "elements")
    budget = _exact(budget, "budget")
    if budget <= 0:
        raise ValidationError("budget must be a positive rational", "budget")
    for i, c in enumerate(costs):
        if c < 0:
            raise ValidationError("cost must be >= 0", f"elements[{i}].cost")
        if c > budget:
            raise ValidationError(
                f"cost {format_rational(c)} of element {i} exceeds budget "
                f"{format_rational(budget)}",
                f"elements[{i}].cost",
            )
    for i, p in enumerate(profits):
        if p < 0:
            raise ValidationError("profit must be >= 0", f"elements[{i}].profit")
    matroid = construct(spec, n)
    dropped = tuple(e for e in range(n) if not matroid.indep_fn(frozenset({e})))
    if dropped:
        matroid = restrict(matroid, matroid.ground.difference(dropped))
    return BmiInstance(budget, costs, profits, spec, matroid, dropped)


def _int(value, path: str) -> int:
    # bool is a subclass of int, but true/false are not integers in the format.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"expected an integer, got {value!r}", path)
    return value


def _each(read):
    """The reader of a JSON array that reads each entry with ``read``."""
    return lambda values, path: tuple(read(x, f"{path}[{i}]") for i, x in enumerate(values))


_int_rows = _each(_each(_int))


def _same(value):
    return value


def _rows(write=_same):
    """The writer of a spec's rows that writes each entry with ``write``."""
    return lambda rows: [[write(x) for x in row] for row in rows]


# Each FamilySpec field's (reader, writer): the reader takes the stanza's
# value and its path, the writer takes the spec's value.
_CODEC = {
    "rank": (_int, _same),
    "blocks": (_int_rows, _rows()),
    "capacities": (_each(_int), list),
    "edges": (lambda rows, path: tuple((u, v) for u, v in _int_rows(rows, path)), _rows()),
    "num_vertices": (_int, _same),
    "columns": (_each(_each(parse_rational)), _rows(format_rational)),
    "maximal_sets": (_int_rows, lambda sets: [sorted(s) for s in sets]),
}


def _spec_from_json(obj) -> FamilySpec:
    if not isinstance(obj, dict):
        raise ValidationError("matroid stanza must be an object", "matroid")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"unknown matroid kind {kind!r}", "matroid.kind")
    try:
        return FamilySpec(kind, **{f: _CODEC[f][0](obj[f], f"matroid.{f}") for f in FIELDS[kind]})
    except KeyError as exc:
        raise ValidationError(f"missing field {exc.args[0]!r}", "matroid") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matroid payload ({exc})", "matroid") from exc


def _spec_to_json(spec: FamilySpec) -> dict:
    return {"kind": spec.kind, **{f: _CODEC[f][1](getattr(spec, f)) for f in FIELDS[spec.kind]}}


def parse_instance(text: str) -> BmiInstance:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers longer than Python's
        # int-string digit limit; RecursionError covers deep nesting.
        raise ValidationError(f"invalid JSON: {exc}", "$") from exc
    if not isinstance(obj, dict):
        raise ValidationError("instance must be a JSON object", "$")
    for key in ("budget", "elements", "matroid"):
        if key not in obj:
            raise ValidationError(f"missing field {key!r}", "$")
    budget = parse_rational(obj["budget"], "budget")
    elements = obj["elements"]
    if not isinstance(elements, list):
        raise ValidationError("elements must be an array", "elements")
    costs, profits = [], []
    for i, el in enumerate(elements):
        if not isinstance(el, dict):
            raise ValidationError("element must be an object", f"elements[{i}]")
        costs.append(parse_rational(el.get("cost"), f"elements[{i}].cost"))
        profits.append(parse_rational(el.get("profit"), f"elements[{i}].profit"))
    return make_instance(budget, costs, profits, _spec_from_json(obj["matroid"]))


def serialize_instance(inst: BmiInstance) -> str:
    obj = {
        "budget": format_rational(inst.budget),
        "elements": [
            {"cost": format_rational(c), "profit": format_rational(p)}
            for c, p in zip(inst.costs, inst.profits)
        ],
        "matroid": _spec_to_json(inst.matroid_spec),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
