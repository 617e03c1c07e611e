import csv
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from budgetmatroid import cli
from budgetmatroid.cli import main

BENCH_COLUMNS = [
    "instance",
    "n",
    "eps",
    "profit",
    "opt",
    "ratio",
    "lp_calls",
    "enum_count",
    "oracle_calls",
    "wall_ms",
]


def gen(tmp_path, family="partition", n=6, seed=7, name="inst.json"):
    path = tmp_path / name
    assert main(["gen", "--family", family, "--n", str(n), "--seed", str(seed), "-o", str(path)]) == 0
    return path


class TestSolve:
    def test_solve_with_report(self, tmp_path, capsys):
        inst = gen(tmp_path)
        report = tmp_path / "report.json"
        code = main(
            ["solve", "--instance", str(inst), "--eps", "1/3", "--exact", "--report", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profit:" in out and "ratio:" in out
        doc = json.loads(report.read_text())
        for key in (
            "solution",
            "profit",
            "eps_target",
            "eps_internal",
            "alpha_grid",
            "alpha_best",
            "enum_counts",
            "lp_calls",
            "oracle_calls",
            "wall_ms",
            "dropped",
            "exact_profit",
            "ratio",
        ):
            assert key in doc
        assert doc["eps_target"] == "1/3"

    def test_repeat_reports_identical_modulo_timing(self, tmp_path):
        inst = gen(tmp_path, family="graphic", n=8, seed=11)
        docs = []
        for run in ("1", "2"):
            report = tmp_path / f"report-{run}.json"
            assert main(
                ["solve", "--instance", str(inst), "--eps", "1/3", "--report", str(report)]
            ) == 0
            doc = json.loads(report.read_text())
            doc.pop("wall_ms")
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_rationals_beyond_digit_limit_print_and_report(self, tmp_path, capsys):
        # 10**4300 has 4,301 digits, one more than str(int) prints by default.
        doc = {
            "budget": "1e4300",
            "elements": [{"cost": "1", "profit": "1e4300"}, {"cost": "2", "profit": "3"}],
            "matroid": {"kind": "uniform", "rank": 1},
        }
        inst = tmp_path / "huge.json"
        inst.write_text(json.dumps(doc))
        report = tmp_path / "report.json"
        code = main(["solve", "--instance", str(inst), "--eps", "1/2", "--report", str(report)])
        assert code == 0
        huge = "1" + "0" * 4300
        assert f"profit:   {huge}\n" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["solution"] == [0] and doc["profit"] == huge

    def test_cost_beyond_digit_limit_is_validation_error(self, tmp_path, capsys):
        doc = {
            "budget": "1",
            "elements": [{"cost": "1e4300", "profit": "1"}],
            "matroid": {"kind": "uniform", "rank": 1},
        }
        inst = tmp_path / "huge.json"
        inst.write_text(json.dumps(doc))
        assert main(["solve", "--instance", str(inst), "--eps", "1/2"]) == 2
        assert "elements[0].cost: cost 1" + "0" * 4300 + " of element 0" in capsys.readouterr().err

    def test_eps_goes_through_the_rational_parser(self, tmp_path, capsys):
        # Rejected before 10**exponent is computed, which would take minutes.
        inst = gen(tmp_path)
        assert main(["solve", "--instance", str(inst), "--eps", "1e-99999999"]) == 2
        assert "eps: decimal exponent exceeds 4300" in capsys.readouterr().err

    def test_bad_eps_is_validation_error(self, tmp_path):
        inst = gen(tmp_path)
        assert main(["solve", "--instance", str(inst), "--eps", "zero"]) == 2
        assert main(["solve", "--instance", str(inst), "--eps", "3/2"]) == 2


class TestExact:
    def test_exact_prints_profit(self, tmp_path, capsys):
        inst = gen(tmp_path, family="uniform", n=5, seed=3)
        assert main(["exact", "--instance", str(inst)]) == 0
        out = capsys.readouterr().out
        assert "profit:" in out and "nodes:" in out

    def test_scale_cap_exit_code(self, tmp_path, capsys):
        inst = gen(tmp_path, family="uniform", n=25, seed=3)
        assert main(["exact", "--instance", str(inst)]) == 3


class TestVerify:
    def test_verify_generated_instance(self, tmp_path, capsys):
        inst = gen(tmp_path, family="partition", n=7, seed=19)
        assert main(["verify", "--instance", str(inst), "--eps", "1/3"]) == 0
        out = capsys.readouterr().out
        assert "PASS matroid axioms" in out
        assert "FAIL" not in out

    def test_representative_check_eps_is_monotone(self, tmp_path, monkeypatch, capsys):
        # The representative-set check runs at 1/k, k = max(3, ceil(1/eps)).
        inst = gen(tmp_path, family="partition", n=7, seed=19)
        seen = []
        real = cli.find_rep

        def recording_find_rep(inst, eps, alpha):
            seen.append(eps.k)
            return real(inst, eps, alpha)

        monkeypatch.setattr(cli, "find_rep", recording_find_rep)
        for eps in ("1/2", "1/3", "2/7"):
            assert main(["verify", "--instance", str(inst), "--eps", eps]) == 0
        assert seen == [3, 3, 4]
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("eps", ["0", "1", "3/2", "-1/3"])
    def test_eps_outside_unit_interval_exits_before_any_check(self, tmp_path, capsys, eps):
        inst = gen(tmp_path, family="partition", n=7, seed=19)
        capsys.readouterr()
        assert main(["verify", "--instance", str(inst), f"--eps={eps}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "eps target must lie in (0, 1)" in err


class TestGenAndValidation:
    def test_gen_deterministic_files(self, tmp_path):
        a = gen(tmp_path, seed=5, name="a.json")
        b = gen(tmp_path, seed=5, name="b.json")
        assert a.read_text() == b.read_text()

    def test_invalid_instance_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"budget": 3}')
        assert main(["solve", "--instance", str(bad), "--eps", "1/3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_family_exit_code(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["gen", "--family", "mystery", "--n", "4", "--seed", "1", "-o", str(out)]) == 2

    def test_dropped_singleton_warning(self, tmp_path, capsys):
        doc = {
            "budget": "3",
            "elements": [
                {"cost": "1", "profit": "2"},
                {"cost": "1", "profit": "1"},
            ],
            "matroid": {"kind": "graphic", "num_vertices": 2, "edges": [[0, 0], [0, 1]]},
        }
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--instance", str(path), "--eps", "1/3"]) == 0
        assert "dropped dependent singleton" in capsys.readouterr().err


class TestBench:
    def test_bench_writes_expected_columns(self, tmp_path, capsys):
        for i, family in enumerate(("uniform", "graphic", "partition")):
            gen(tmp_path, family=family, n=5 + i, seed=i, name=f"{family}.json")
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", "--dir", str(tmp_path), "--eps", "1/3", "--csv", str(out_csv)]) == 0
        with open(out_csv, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert list(rows[0].keys()) == BENCH_COLUMNS
        for row in rows:
            assert row["eps"] == "1/3"
            # A run certified by the bootstrap LP enumerates nothing and
            # solves no residual LP.
            assert (int(row["lp_calls"]) == 0) == (int(row["enum_count"]) == 0)
            assert Fraction(row["ratio"]) >= Fraction(2, 3)

    def test_bench_wall_ms_excludes_brute_force(self, tmp_path, monkeypatch):
        real = cli.brute_force_opt

        def slow_brute_force(inst, *args, **kwargs):
            time.sleep(0.5)
            return real(inst, *args, **kwargs)

        monkeypatch.setattr(cli, "brute_force_opt", slow_brute_force)
        for i, family in enumerate(("uniform", "partition")):
            gen(tmp_path, family=family, n=5, seed=i, name=f"{family}.json")
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", "--dir", str(tmp_path), "--eps", "1/3", "--csv", str(out_csv)]) == 0
        with open(out_csv, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        for row in rows:
            assert float(row["wall_ms"]) < 500

    @pytest.mark.parametrize("eps", ["2", "0", "-1/3"])
    def test_bench_rejects_eps_before_any_solve(self, eps, tmp_path, monkeypatch, capsys):
        def no_brute_force(*args, **kwargs):
            raise AssertionError("brute force ran before --eps was checked")

        monkeypatch.setattr(cli, "brute_force_opt", no_brute_force)
        gen(tmp_path, family="uniform", n=5)
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", "--dir", str(tmp_path), f"--eps={eps}", "--csv", str(out_csv)]) == 2
        assert "eps: eps target must lie in (0, 1)" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_bench_empty_dir_is_validation_error(self, tmp_path):
        assert main(["bench", "--dir", str(tmp_path), "--eps", "1/3", "--csv", str(tmp_path / "o.csv")]) == 2


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path):
        inst = gen(tmp_path)
        # pytest's pythonpath setting does not reach a child interpreter.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "budgetmatroid.cli", "solve", "--instance", str(inst), "--eps", "1/3"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "profit:" in proc.stdout
