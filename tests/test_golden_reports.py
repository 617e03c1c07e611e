"""Reports of a fixed corpus against the committed tests/data/golden_reports.json.

The corpus is five families x n in {6, 8} x generator seeds 0-1: for each
instance the bootstrap bounds of ``lp_upper_bound`` and, at eps 1/2 and
1/3, ``RunReport.to_dict()`` without ``wall_ms`` of ``approximate`` on
both paths: the paper's scheme (``certify=False``, keys "approximate
eps=...") and the default path with its certified early exit (keys
"approximate certified eps=...").  Any change to a solution, a count or a
bound fails the test.  A change that alters reports on purpose regenerates
the file with

    PYTHONPATH=src python tests/test_golden_reports.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from budgetmatroid import GenSpec, approximate, generate_instance, lp_upper_bound
from budgetmatroid.instance import format_rational

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
FAMILIES = ("uniform", "partition", "graphic", "linear", "explicit")
CASES = [(family, n, seed) for family in FAMILIES for n in (6, 8) for seed in (0, 1)]
EPSILONS = (Fraction(1, 2), Fraction(1, 3))


def case_key(family: str, n: int, seed: int) -> str:
    return f"{family} n={n} seed={seed}"


def reports(family: str, n: int, seed: int) -> dict:
    inst = generate_instance(GenSpec(family, n, seed))
    out = {"lp_upper_bound": [format_rational(x) for x in lp_upper_bound(inst)]}
    for eps in EPSILONS:
        for certify, label in ((False, "approximate"), (True, "approximate certified")):
            report = approximate(inst, eps, certify=certify).to_dict()
            del report["wall_ms"]
            out[f"{label} eps={format_rational(eps)}"] = report
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_corpus(golden):
    assert sorted(golden) == sorted(case_key(*case) for case in CASES)


def test_golden_exits(golden):
    # The file's own meaning, whatever a regeneration writes: the paper's
    # path always leaves by the scheme, and a certified exit runs no guess.
    for case in golden.values():
        for key, report in case.items():
            if key.startswith("approximate eps="):
                assert report["exit"] == "scheme"
            elif key.startswith("approximate certified") and report["exit"] != "scheme":
                assert report["alpha_grid"] == [] and report["lp_calls"] == 0


@pytest.mark.parametrize("case", CASES, ids=lambda case: case_key(*case))
def test_reports_match_golden(golden, case):
    assert reports(*case) == golden[case_key(*case)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {case_key(*case): reports(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
