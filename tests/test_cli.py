import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from landscape_lab import (
    BasinRun,
    BoundaryTrapInstance,
    ControlGrid,
    analytic2d_trap_free_scan,
    basin_census,
    build_su_basis,
    corner_escape_analysis,
    critical_value_census_1d,
    gradient,
    kappa_threshold,
    landscape,
    objective,
    propagate,
)
from landscape_lab import cli, qdyn
from landscape_lab.cli import _make_grid, main
from landscape_lab.counterexamples import DEFAULT_MARGIN, _trap_qubit
from landscape_lab.traps import GRAD_TOL, MAX_ITERS, MERGE_TOL, ROOT_TOL

KAPPA_AUTO = np.pi / np.sqrt(3.0)
BASIS2 = build_su_basis(2)


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_text(encoding="utf-8")


def run_json(tmp_path, name, argv):
    code, text = run_to_file(tmp_path, name, argv)
    return code, json.loads(text)


class TestPayloadShape:
    def test_json_report_sections(self, tmp_path):
        code, payload = run_json(
            tmp_path, "p.json", ["propagate", "--N", "2", "--Z", "4"]
        )
        assert code == 0
        assert set(payload) == {
            "config",
            "results",
            "results_hex",
            "versions",
            "wall_time_s",
        }
        assert payload["config"]["command"] == "propagate"
        assert payload["config"]["Z"] == 4
        assert "landscape_lab" in payload["versions"]

    def test_hex_mirror_round_trips(self, tmp_path):
        code, payload = run_json(tmp_path, "k.json", ["kappa-thr", "--N", "2"])
        assert code == 0
        thr = payload["results"]["kappa_thr"]
        assert float.fromhex(payload["results_hex"]["kappa_thr"]) == thr

    def test_basis_reconstructs_pauli_x(self, tmp_path):
        code, payload = run_json(tmp_path, "b.json", ["basis", "--N", "2"])
        assert code == 0
        assert payload["results"]["dim"] == 2
        assert payload["results"]["size"] == 3
        flat = payload["results"]["elements"][0]
        M = np.array(flat[0::2]) + 1j * np.array(flat[1::2])
        np.testing.assert_array_equal(M.reshape(2, 2), [[0, 1], [1, 0]])

    def test_kappa_thr_matches_library(self, tmp_path):
        code, payload = run_json(
            tmp_path, "k2.json", ["kappa-thr", "--N", "2", "--T", "1.0", "--Z", "4"]
        )
        assert code == 0
        assert payload["results"]["kappa_thr"] == kappa_threshold(
            build_su_basis(2), 1.0, 4
        )
        assert payload["results"]["conservative"] is False

    def test_scan_row_grid(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "s.json",
            ["scan", "--steps", "5", "--coord1", "1,1", "--coord2", "2,1"],
        )
        assert code == 0
        assert payload["results"]["columns"] == ["c1", "c2", "J", "g1", "g2"]
        assert len(payload["results"]["rows"]) == 25
        assert all(len(row) == 5 for row in payload["results"]["rows"])


def assert_results_are_the_record(results, record, own):
    """results holds exactly the record's fields and the command's own keys,
    each with its value (own before the record's) through a JSON round trip."""
    names = [f.name for f in dataclasses.fields(record)]
    assert set(results) == set(names) | set(own)
    expected = {name: getattr(record, name) for name in names} | own
    assert results == json.loads(json.dumps(expected))


class TestPayloadsAreTheirRecords:
    @pytest.mark.parametrize("argv,kappa", [([], math.pi / math.sqrt(3.0)), (["--kappa", "1.0"], 1.0)])
    def test_ce_boundary(self, tmp_path, argv, kappa):
        code, payload = run_json(tmp_path, "ce.json", ["ce-boundary", *argv])
        inst = BoundaryTrapInstance(1.0, 4, kappa)
        ver = corner_escape_analysis(inst.system, inst.grid, BASIS2, 1000, 1e-3 * kappa, 0)
        own = {"alpha": inst.alpha, "kappa": kappa, "radius": 1e-3 * kappa,
               "corner_unitary": cli._interleave(ver.corner_unitary)}
        assert code == 0
        assert_results_are_the_record(payload["results"], ver, own)

    def test_basins(self, tmp_path):
        code, payload = run_json(tmp_path, "b.json", ["basins", "--count", "3"])
        system, alpha = _trap_qubit(1.0, KAPPA_AUTO)
        census = basin_census(system, BASIS2, count=3, seed=0, kappa=KAPPA_AUTO,
                              segments=4, horizon=1.0)
        runs = [
            {f.name: getattr(r, f.name) for f in dataclasses.fields(BasinRun)}
            for r in census.runs
        ]
        assert code == 0
        for entry in payload["results"]["runs"]:
            assert set(entry) == {f.name for f in dataclasses.fields(BasinRun)}
        assert_results_are_the_record(
            payload["results"], census, {"alpha": alpha, "kappa": KAPPA_AUTO, "runs": runs}
        )

    def test_ce_scan2d(self, tmp_path):
        code, payload = run_json(tmp_path, "s.json", ["ce-scan2d", "--steps", "50"])
        scan = analytic2d_trap_free_scan(50)
        assert code == 0
        assert_results_are_the_record(
            payload["results"], scan, {"grid_steps": 50, "margin": DEFAULT_MARGIN}
        )

    def test_census1d(self, tmp_path):
        code, payload = run_json(
            tmp_path, "c.json", ["census1d", "--fn", "sin", "--a", "0", "--b", "10"]
        )
        census = critical_value_census_1d(np.sin, np.cos, (0.0, 10.0), 2001)
        own = {"fn": "sin", "num_critical_points": len(census.critical_points),
               "num_distinct_values": len(census.distinct_values)}
        assert code == 0
        assert_results_are_the_record(payload["results"], census, own)


class TestScan:
    def test_rows_match_one_grid_at_a_time(self, tmp_path):
        argv = ["scan", "--base", "random", "--seed", "3", "--steps", "4",
                "--coord1", "1,2", "--coord2", "3,4"]
        code, payload = run_json(tmp_path, "s.json", argv)
        assert code == 0
        system, _ = _trap_qubit(1.0, KAPPA_AUTO)
        grid = _make_grid("random", 1.0, KAPPA_AUTO, 3, 4, 3, 0.0)
        rows = payload["results"]["rows"]
        assert len(rows) == 16
        for c1, c2, J, g1, g2 in rows:
            vals = np.array(grid.values)
            vals[0, 1], vals[2, 3] = c1, c2
            point = grid.with_values(vals)
            assert J == objective(system, propagate(point, BASIS2).total)
            g = gradient(system, point, BASIS2).values
            assert (g1, g2) == (g[0, 1], g[2, 3])


class TestImportCost:
    @staticmethod
    def _lp_solver_loaded_after(commands, out):
        """'True' or 'False': whether scipy.optimize is loaded in a fresh
        process that imports the CLI and runs each of `commands` through
        cli.main."""
        src = os.path.dirname(os.path.dirname(landscape.__file__))
        code = (
            "import sys, landscape_lab.cli as cli\n"
            f"for argv in {commands!r}:\n"
            f"    assert cli.main(argv + ['--output', {os.fspath(out)!r}]) == 0\n"
            "print('scipy.optimize' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        return proc.stdout.strip()

    def test_cli_import_leaves_the_lp_solver_unloaded(self, tmp_path):
        assert self._lp_solver_loaded_after([], tmp_path / "out.json") == "False"

    def test_the_paper_path_leaves_the_lp_solver_unloaded(self, tmp_path):
        commands = [
            ["ce-boundary", "--samples", "50"],
            ["rank", "--N", "3", "--grid-kind", "corner", "--kappa", "auto"],
        ]
        assert self._lp_solver_loaded_after(commands, tmp_path / "out.json") == "False"


class TestPaperPathSkipsTheLP:
    # Every corner on the paper's path is settled by rank or by the
    # least-squares certificate; the LP of the cone test must not run.
    NEG = repr(-float(KAPPA_AUTO))

    @pytest.mark.parametrize(
        "argv,rank,side",
        [
            (["ce-boundary"], None, -1.0),
            (["rank", "--N", "2", "--grid-kind", "corner", "--kappa", "auto"], 3, -1.0),
            (["rank", "--N", "3", "--grid-kind", "corner", "--kappa", "auto"], 8, -1.0),
            (["rank", "--N", "4", "--grid-kind", "corner", "--kappa", "auto"], 15, -1.0),
            (["rank", "--N", "2", "--grid-kind", "constant", "--fill", NEG, "--kappa", "auto"], 3, 1.0),
            (["rank", "--N", "3", "--grid-kind", "constant", "--fill", NEG, "--kappa", "auto"], 8, 1.0),
            (["rank", "--N", "4", "--grid-kind", "constant", "--fill", NEG, "--kappa", "auto"], 15, 1.0),
        ],
    )
    def test_corners_are_certified_without_an_lp(self, tmp_path, monkeypatch, argv, rank, side):
        monkeypatch.setattr(landscape, "linprog", self._no_lp)
        code, payload = run_json(tmp_path, "c.json", argv)
        assert code == 0
        res = payload["results"]
        assert res["cone_surjective"] is False
        assert res.get("rank") == rank
        assert res.get("full_rank") == (None if rank is None else True)
        # At a constant corner every tangent row has the same component along
        # the all-ones direction h, so the certificate is -h / |h| at +kappa
        # and h / |h| at -kappa.
        w = np.array(res["witness"])
        assert np.allclose(w, side / np.sqrt(w.size), atol=1e-12)

    def test_full_rank_random_grid_needs_no_lp(self, monkeypatch, capsys):
        monkeypatch.setattr(landscape, "linprog", self._no_lp)
        argv = ["rank", "--N", "8", "--Z", "20", "--grid-kind", "random"]
        times = []
        for _ in range(3):
            started = time.perf_counter()
            code = main(argv)
            times.append(time.perf_counter() - started)
            assert code == 0
            res = json.loads(capsys.readouterr().out)["results"]
            assert (res["rank"], res["full_rank"], res["cone_surjective"]) == (63, True, True)
            assert res["witness"] is None
        assert min(times) < 0.05

    def test_full_rank_random_grid_needs_no_svd(self, tmp_path, monkeypatch):
        # The Gram certificate settles both the rank and the cone test's
        # first step; the payload is the one the SVD gave.
        def no_svd(*args, **kwargs):
            raise AssertionError("rank took an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        argv = ["rank", "--N", "8", "--Z", "20", "--grid-kind", "random"]
        code, payload = run_json(tmp_path, "r8.json", argv)
        assert code == 0
        verdict = {"cone_surjective": True, "full_rank": True, "rank": 63, "witness": None}
        assert payload["config"] == {
            "N": 8, "T": 1.0, "Z": 20, "command": "rank", "fill": 0.0,
            "grid_kind": "random", "kappa": "1.0", "seed": 0,
        }
        assert payload["results"] == dict(verdict, kappa=1.0)
        assert payload["results_hex"] == dict(verdict, kappa="0x1.0000000000000p+0")

    @staticmethod
    def _no_lp(*args, **kwargs):
        raise AssertionError("the cone test ran an LP")


class TestDeterminism:
    def test_json_identical_modulo_wall_time(self, tmp_path):
        argv = ["ce-boundary", "--samples", "200", "--seed", "11"]
        _, a = run_json(tmp_path, "a.json", argv)
        _, b = run_json(tmp_path, "b.json", argv)
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_csv_byte_identical(self, tmp_path):
        argv = [
            "census1d", "--fn", "sin", "--a", "-20", "--b", "20",
            "--format", "csv",
        ]
        _, a = run_to_file(tmp_path, "a.csv", argv)
        _, b = run_to_file(tmp_path, "b.csv", argv)
        assert a == b

    def test_seed_changes_random_grid_results(self, tmp_path):
        base = ["propagate", "--grid-kind", "random"]
        _, a = run_json(tmp_path, "s1.json", base + ["--seed", "1"])
        _, b = run_json(tmp_path, "s2.json", base + ["--seed", "2"])
        assert a["results"]["total"] != b["results"]["total"]


class TestExitCodes:
    def test_success(self, tmp_path):
        code, _ = run_to_file(tmp_path, "ok.json", ["kappa-thr"])
        assert code == 0

    def test_expectation_failure(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "e.json",
            ["ce-scan2d", "--steps", "50", "--expect-min-grad", "0.9"],
        )
        assert code == 1
        # the report is still written for post-mortem use
        assert payload["results"]["min_grad_norm"] < 0.9

    def test_config_error(self, tmp_path):
        code = main(["propagate", "--kappa", "-3"])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as se:
            main(["no-such-command"])
        assert se.value.code == 2

    def test_bad_coordinate_rejected(self, tmp_path):
        code = main(["scan", "--steps", "3", "--coord1", "9,9"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--samples", "64"],
            ["ce-boundary", "--cone-samples", "64"],
            ["basis", "--seed", "1"],
            ["propagate", "--tol-grad", "1e-8"],
            ["census1d", "--fn", "sin", "--a", "0", "--b", "1", "--active-tol", "1e-9"],
            ["ascent", "--gtol", "1e-4"],
            ["basins", "--gtol", "1e-4"],
            ["ascent", "--armijo", "1e-4"],
            ["basins", "--armijo", "1e-4"],
            ["rank", "--active-tol", "1e-9"],
            ["ce-boundary", "--active-tol", "1e-9"],
            ["ascent", "--active-tol", "1e-9"],
            ["basins", "--active-tol", "1e-9"],
            ["rank", "--rank-tol", "1e-8"],
        ],
    )
    def test_flags_no_command_reads_are_rejected(self, argv):
        with pytest.raises(SystemExit) as se:
            main(argv)
        assert se.value.code == 2

    @pytest.mark.parametrize(
        "answer",
        [
            SimpleNamespace(status=4, message="numerical difficulties", x=None),
            SimpleNamespace(status=0, message="optimal", x=np.zeros(12)),
        ],
    )
    def test_cone_solver_fault_is_numerical(self, monkeypatch, answer):
        # Every control at a bound, one of them at +kappa and the rest at
        # -kappa: the cone is all of su(2), so no certificate settles it and
        # each of its 12 controls is a variable of the quotient LP.
        signs = -np.ones((3, 4))
        signs[0, 1] = 1.0
        corner = ControlGrid(1.0, KAPPA_AUTO, KAPPA_AUTO * signs)
        monkeypatch.setattr(cli, "_make_grid", lambda *a: corner)
        monkeypatch.setattr(landscape, "linprog", lambda *a, **k: answer)
        assert main(["rank", "--kappa", "auto"]) == 3

    @pytest.mark.usefixtures("non_unitary_trial_segment")
    def test_non_unitary_line_search_segment_is_numerical(self):
        assert main(["ascent", "--start", "random", "--seed", "3"]) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--output", "."],
            ["basis", "--output", "no/such/dir/x.json"],
            # The threshold overflows, in every output format and at any N.
            ["kappa-thr", "--T", "1e-320"],
            ["kappa-thr", "--T", "1e-320", "--format", "csv"],
            ["kappa-thr", "--T", "1e-320", "--N", "3"],
            ["kappa-thr", "--T", "1e-320", "--N", "3", "--format", "csv"],
            # alpha = 2 sqrt(3) T kappa overflows, and a random grid cannot
            # sample (-kappa, kappa) when 2 kappa overflows.
            ["ascent", "--kappa", "1e308", "--start", "zeros"],
            ["ascent", "--kappa", "1e308"],
            ["scan", "--kappa", "1e308"],
            ["rank", "--kappa", "1e308", "--grid-kind", "random"],
            ["propagate", "--kappa", "1e308", "--grid-kind", "random"],
        ],
    )
    def test_a_report_that_cannot_be_built_or_written_is_a_config_error(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            # Slices past the pole of tan.
            ["ce-slice", "--margin", "-0.2", "--c-max", "1.7"],
            ["ce-slice", "--margin", "nan"],
            # A square holding the poles, and one collapsed to a point.
            ["ce-scan2d", "--margin", "-1"],
            ["ce-scan2d", "--margin", "0"],
            ["ce-scan2d", "--margin", "1.5707963267948966"],
        ],
    )
    def test_a_margin_outside_the_open_quarter_turn_is_a_config_error(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: margin must lie in (0, pi/2), got {float(argv[2])}\n"
        )

    @pytest.mark.parametrize(
        "argv,name",
        [
            # NaN passes no comparison: it would merge J = 1 and J = -1.
            (["census1d", "--tol-merge", "nan", "--format", "csv"], "merge_tol"),
            (["census1d", "--tol-merge=-1e-6"], "merge_tol"),
            (["census1d", "--tol-root", "-1"], "root_tol"),
            (["census1d", "--tol-root", "nan"], "root_tol"),
            (["census1d", "--tol-root", "0"], "root_tol"),
            (["ascent", "--tol-grad", "nan", "--format", "csv"], "tol_grad"),
            (["ascent", "--tol-grad", "inf"], "tol_grad"),
            (["basins", "--count", "3", "--tol-grad", "nan", "--format", "csv"], "tol_grad"),
            (["basins", "--count", "3", "--tol-grad=-1e-9"], "tol_grad"),
            (["scan", "--steps", "0"], "step"),
            (["ce-scan2d", "--expect-min-grad", "nan", "--format", "csv"], "--expect-min-grad"),
            (["ce-scan2d", "--expect-min-grad", "inf"], "--expect-min-grad"),
            (["ascent", "--max-iters", "-1", "--start", "corner"], "max_iters"),
            (["basins", "--count", "2", "--max-iters", "-5"], "max_iters"),
            (["ce-boundary", "--kappa", "abc"], "--kappa must be 'auto' or a number"),
            (["ce-boundary", "--radius", "abc"], "--radius must be 'auto' or a number"),
            # --radius auto is 1e-3 kappa, so it is 0 at kappa = 0.
            (["ce-boundary", "--kappa", "0"], "--radius must be finite and positive, got auto"),
            # The c2 write would overwrite c1, so c1 would never be applied.
            (["scan", "--steps", "3", "--coord1", "1,1", "--coord2", "1,1", "--format", "csv"],
             "--coord1 and --coord2 must differ"),
        ],
    )
    def test_a_bad_tolerance_or_step_count_fails_before_any_work(
        self, monkeypatch, capsys, argv, name
    ):
        if argv[0] == "census1d":
            argv = argv[:1] + ["--fn", "sin", "--a", "0", "--b", "10"] + argv[1:]
        calls = []

        def refuse(*args):
            calls.append(args)
            raise AssertionError("work done before the check")

        monkeypatch.setattr(qdyn, "_segment_kernel", refuse)
        monkeypatch.setattr(cli, "analytic2d_trap_free_scan", refuse)
        monkeypatch.setitem(cli.CENSUS_FUNCTIONS, "sin", (refuse, refuse))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and calls == []
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and name in lines[0]

    @pytest.mark.parametrize("flag,value", [("--T", "inf"), ("--kappa", "1e308")])
    def test_a_bad_instance_input_is_one_error_line(self, flag, value):
        # In a fresh process, so that a numpy warning would reach stderr.
        src = os.path.dirname(os.path.dirname(landscape.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "landscape_lab", "ce-boundary", flag, value],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestZeroGtol:
    def test_exactly_critical_corner_converges_without_warnings(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, zero = run_json(
                tmp_path, "z.json", ["ascent", "--start", "corner", "--tol-grad", "0"]
            )
        assert [str(w.message) for w in caught] == []
        assert code == 0
        assert zero["results"]["converged"] is True
        _, ref = run_json(
            tmp_path, "r.json", ["ascent", "--start", "corner", "--tol-grad", "1e-8"]
        )
        assert zero["results"] == ref["results"]
        assert zero["results_hex"] == ref["results_hex"]


class TestGradientTolerance:
    def test_a_run_converged_at_the_tolerance_is_critical(self, tmp_path):
        # --tol-grad both stops the ascent and judges criticality.
        code, payload = run_json(
            tmp_path, "a.json", ["ascent", "--seed", "3", "--tol-grad", "1e-4"]
        )
        assert code == 0
        results = payload["results"]
        assert results["converged"] is True
        assert results["terminal"]["classification"] != "regular"
        assert results["terminal"]["grad_norm_projected"] < 1e-4
        assert "gtol" not in payload["config"]
        assert payload["config"]["tol_grad"] == 1e-4


class TestExpectations:
    def test_corner_with_an_inward_escape_reports_no_trap(self, tmp_path):
        argv = ["ce-boundary", "--kappa", "0.5", "--samples", "200", "--seed", "3"]
        code, payload = run_json(tmp_path, "t.json", argv)
        assert code == 0
        assert payload["results"]["is_trap"] is False
        assert payload["results"]["max_inward_gain"] > 1e-10
        code, text = run_to_file(tmp_path, "t.csv", argv + ["--format", "csv"])
        assert code == 0
        assert "is_trap,false" in text.split("\n")

    def test_expect_trap_passes_on_reference_instance(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "t.json",
            ["ce-boundary", "--expect-trap", "--samples", "300", "--seed", "3"],
        )
        assert code == 0
        res = payload["results"]
        assert res["is_trap"] is True
        assert res["trap_order"] == 1
        assert res["cone_surjective"] is False
        assert res["witness"] is not None
        assert abs(res["j_at_corner"]) < 1e-10
        assert res["j_global_max"] == pytest.approx(np.sqrt(1.5), abs=1e-12)
        U = np.array(res["corner_unitary"][0::2]) + 1j * np.array(
            res["corner_unitary"][1::2]
        )
        assert np.max(np.abs(U.reshape(2, 2) + np.eye(2))) < 1e-10

    def test_expect_trap_fails_where_an_inward_ray_ascends(self, tmp_path):
        # Every sampled probe loses J at this corner, yet moving one control
        # inward alone gains: the projected gradient is nonzero.
        code, payload = run_json(
            tmp_path, "t.json", ["ce-boundary", "--kappa", "1.0", "--expect-trap"]
        )
        assert code == 1
        res = payload["results"]
        assert res["is_trap"] is False
        assert res["trap_order"] is None
        assert res["max_inward_gain"] < 0.0
        assert res["kkt_margin"] < 0.0

    def test_expect_min_grad_passes_at_documented_floor(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "m.json",
            ["ce-scan2d", "--steps", "400", "--expect-min-grad", "0.05"],
        )
        assert code == 0
        assert payload["results"]["min_grad_norm"] > 0.05


# Every subcommand also takes -h/--help, --output, --format and --config.
OPTIONS = {
    "basis": ["--N"],
    "kappa-thr": ["--N", "--T", "--Z"],
    "propagate": ["--N", "--T", "--Z", "--kappa", "--grid-kind", "--fill", "--seed"],
    "rank": ["--N", "--T", "--Z", "--kappa", "--grid-kind", "--fill", "--seed"],
    "scan": ["--T", "--Z", "--kappa", "--steps", "--coord1", "--coord2", "--base",
             "--fill", "--seed"],
    "ascent": ["--T", "--Z", "--kappa", "--start", "--fill", "--seed", "--max-iters",
               "--tol-grad"],
    "basins": ["--T", "--Z", "--kappa", "--count", "--seed", "--max-iters", "--tol-grad"],
    "ce-boundary": ["--T", "--Z", "--kappa", "--samples", "--radius", "--expect-trap",
                    "--seed"],
    "ce-slice": ["--c-min", "--c-max", "--steps", "--margin", "--verify"],
    "ce-scan2d": ["--steps", "--margin", "--expect-min-grad"],
    "census1d": ["--fn", "--a", "--b", "--grid-points", "--tol-root", "--tol-merge"],
}


# The default of each option, in the order of the options; every subcommand
# then ends with --output, --format and --config.
DEFAULTS = {
    "basis": {"--N": 2},
    "kappa-thr": {"--N": 2, "--T": 1.0, "--Z": 4},
    "propagate": {"--N": 2, "--T": 1.0, "--Z": 4, "--kappa": "1.0", "--grid-kind": "zeros",
                  "--fill": 0.0, "--seed": 0},
    "rank": {"--N": 2, "--T": 1.0, "--Z": 4, "--kappa": "1.0", "--grid-kind": "zeros",
             "--fill": 0.0, "--seed": 0},
    "scan": {"--T": 1.0, "--Z": 4, "--kappa": "auto", "--steps": 41, "--coord1": (1, 1),
             "--coord2": (2, 1), "--base": "corner", "--fill": 0.0, "--seed": 0},
    "ascent": {"--T": 1.0, "--Z": 4, "--kappa": "auto", "--start": "random", "--fill": 0.0,
               "--seed": 0, "--max-iters": MAX_ITERS, "--tol-grad": GRAD_TOL},
    "basins": {"--T": 1.0, "--Z": 4, "--kappa": "auto", "--count": 50, "--seed": 0,
               "--max-iters": MAX_ITERS, "--tol-grad": GRAD_TOL},
    "ce-boundary": {"--T": 1.0, "--Z": 4, "--kappa": "auto", "--samples": 1000,
                    "--radius": "auto", "--expect-trap": False, "--seed": 0},
    "ce-slice": {"--c-min": -1.4, "--c-max": 1.4, "--steps": 101,
                 "--margin": DEFAULT_MARGIN, "--verify": False},
    "ce-scan2d": {"--steps": 400, "--margin": DEFAULT_MARGIN, "--expect-min-grad": None},
    "census1d": {"--fn": None, "--a": None, "--b": None, "--grid-points": 2001,
                 "--tol-root": ROOT_TOL, "--tol-merge": MERGE_TOL},
}


class TestSurface:
    def test_each_option_has_its_default_and_the_common_flags_come_last(self):
        (sub,) = [
            a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        common = {"--output": None, "--format": "json", "--config": None}
        # repr tells 1.0 from 1 and "1.0" from 1.0.
        found = {
            name: [(a.option_strings[-1], repr(a.default)) for a in p._actions
                   if a.dest != "help"]
            for name, p in sub.choices.items()
        }
        assert found == {
            name: [(s, repr(d)) for s, d in {**table, **common}.items()]
            for name, table in DEFAULTS.items()
        }

    def test_each_subcommand_takes_exactly_its_options(self):
        (sub,) = [
            a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        common = ["-h", "--help", "--output", "--format", "--config"]
        found = {
            name: [s for a in p._actions for s in a.option_strings if s not in common]
            for name, p in sub.choices.items()
        }
        assert found == OPTIONS
        for p in sub.choices.values():
            assert sorted(s for a in p._actions for s in a.option_strings
                          if s in common) == sorted(common)


def config_run(tmp_path, argv, entries):
    """Exit code of argv run with a config file holding entries."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries), encoding="utf-8")
    return main(argv + ["--config", str(cfg), "--output", str(tmp_path / "out.json")])


class TestConfigFile:
    @pytest.mark.parametrize(
        "argv,entries",
        [
            (["ce-scan2d"], {"steps": "abc"}),
            (["ce-scan2d"], {"steps": 20.5}),
            (["ce-scan2d"], {"margin": "x"}),
            (["ce-scan2d"], {"steps": True}),
            (["rank"], {"grid_kind": "edge"}),
            (["ce-scan2d"], {"format": "xml"}),
            (["ce-slice"], {"verify": "yes"}),
        ],
    )
    def test_a_value_its_flag_rejects_is_a_config_error(self, tmp_path, capsys, argv, entries):
        assert config_run(tmp_path, argv, entries) == 2
        assert capsys.readouterr().err.startswith("error: config key")

    @pytest.mark.parametrize(
        "argv,entries,name",
        [
            (["basins", "--count", "3"], {"tol_grad": -1}, "tol_grad"),
            (["census1d", "--fn", "sin", "--a", "0", "--b", "10"], {"tol_root": 0}, "root_tol"),
            (["ce-scan2d"], {"expect_min_grad": "nan"}, "--expect-min-grad"),
            (["basins", "--count", "2"], {"max_iters": -3}, "max_iters"),
        ],
    )
    def test_a_configured_tolerance_meets_the_flags_rule(self, tmp_path, capsys, argv, entries, name):
        assert config_run(tmp_path, argv, entries) == 2
        rule = "an integer >= 0" if name == "max_iters" else "finite"
        assert capsys.readouterr().err.startswith(f"error: {name} must be {rule}")

    def test_command_key_rejected(self, tmp_path, capsys):
        assert config_run(tmp_path, ["ce-scan2d"], {"command": "basis"}) == 2
        assert "unknown config key 'command'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,key,value",
        [
            (["ascent"], "armijo", 1e-4),
            (["basins"], "armijo", 1e-4),
            (["rank"], "active_tol", 1e-9),
            (["ce-boundary"], "active_tol", 1e-9),
            (["ascent"], "active-tol", 1e-9),
            (["rank"], "rank_tol", 1e-8),
        ],
    )
    def test_removed_setting_keys_rejected(self, tmp_path, argv, key, value):
        assert config_run(tmp_path, argv, {key: value}) == 2

    def test_config_values_give_the_flags_payload(self, tmp_path):
        # A JSON number for an untyped flag such as --kappa is read as its
        # text, as the flag reads it, so even the config echo matches.
        argv = ["ce-boundary", "--samples", "200"]
        entries = {"kappa": 0.5, "seed": 3, "radius": "auto", "expect_trap": False}
        assert config_run(tmp_path, argv, entries) == 0
        by_config = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
        code, by_flags = run_json(
            tmp_path, "f.json", argv + ["--kappa", "0.5", "--seed", "3", "--radius", "auto"]
        )
        assert code == 0
        del by_config["wall_time_s"], by_flags["wall_time_s"]
        assert by_config == by_flags

    def test_config_overrides_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 20}), encoding="utf-8")
        code, payload = run_json(
            tmp_path,
            "c.json",
            ["ce-scan2d", "--steps", "400", "--config", str(cfg)],
        )
        assert code == 0
        assert payload["config"]["steps"] == 20
        assert payload["results"]["grid_steps"] == 20

    def test_config_supplies_the_required_flags(self, tmp_path):
        entries = {"fn": "sin", "a": -20, "b": 20}
        assert config_run(tmp_path, ["census1d"], entries) == 0
        by_config = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
        code, by_flags = run_json(
            tmp_path, "f.json", ["census1d", "--fn", "sin", "--a", "-20", "--b", "20"]
        )
        assert code == 0
        assert by_config["results"] == by_flags["results"]
        assert by_config["results_hex"] == by_flags["results_hex"]

    def test_a_required_flag_neither_given_nor_configured(self, tmp_path, capsys):
        assert config_run(tmp_path, ["census1d"], {"fn": "sin", "a": -20}) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--b" in err
        assert "--a" not in err and "--fn" not in err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert main(["ce-scan2d", "--config", str(cfg)]) == 2

    def test_removed_gtol_key_rejected(self, tmp_path):
        cfg = tmp_path / "gtol.json"
        cfg.write_text(json.dumps({"gtol": 1e-4}), encoding="utf-8")
        assert main(["ascent", "--config", str(cfg)]) == 2

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["ce-scan2d", "--config", str(cfg)]) == 2

    def test_a_config_that_is_not_an_object_is_one_error_line(self, tmp_path, capsys):
        assert config_run(tmp_path, ["ce-scan2d"], [1, 2]) == 2
        assert capsys.readouterr().err == "error: config file must hold a JSON object\n"

    def test_missing_config_file_rejected(self, tmp_path):
        assert main(["ce-scan2d", "--config", str(tmp_path / "absent.json")]) == 2


class TestParserReuse:
    def test_calls_in_one_process_share_no_state(self, tmp_path):
        def payload(name, argv):
            code, out = run_json(tmp_path, name, argv)
            assert code == 0
            del out["wall_time_s"]
            return out

        first = payload("r1.json", ["rank", "--N", "3"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 20}), encoding="utf-8")
        assert payload("s1.json", ["ce-scan2d", "--config", str(cfg)])[
            "results"]["grid_steps"] == 20
        plain = payload("s2.json", ["ce-scan2d"])
        assert plain["results"]["grid_steps"] == 400
        assert plain["config"]["steps"] == 400
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--no-such-flag"])
        assert exc.value.code == 2
        assert payload("r2.json", ["rank", "--N", "3"]) == first
        assert cli._parser() is cli._parser()

    def test_scan_reports_the_closed_form_floor(self, tmp_path):
        code, out = run_json(tmp_path, "f.json", ["ce-scan2d", "--steps", "10"])
        assert code == 0
        floor = analytic2d_trap_free_scan(10).d2_floor_on_d1_zeros
        assert out["results"]["d2_floor_on_d1_zeros"] == floor
        assert float.fromhex(out["results_hex"]["d2_floor_on_d1_zeros"]) == floor


class TestCsvFormat:
    def test_tabular_slice_output(self, tmp_path):
        code, text = run_to_file(
            tmp_path,
            "slice.csv",
            ["ce-slice", "--steps", "101", "--format", "csv"],
        )
        assert code == 0
        assert "\r" not in text
        lines = text.split("\n")
        assert lines[0] == "c,max_loc,max_val,min_loc,min_val"
        assert len([ln for ln in lines if ln]) == 102
        middle = lines[1 + 50].split(",")
        assert float(middle[0]) == pytest.approx(0.0, abs=1e-15)
        assert float(middle[2]) == pytest.approx(0.24503506463190758, abs=1e-12)

    def test_key_value_output_parses_back(self, tmp_path):
        code, text = run_to_file(
            tmp_path, "kv.csv", ["kappa-thr", "--format", "csv"]
        )
        assert code == 0
        lines = [ln for ln in text.split("\n") if ln]
        assert lines[0] == "key,value"
        table = dict(ln.split(",", 1) for ln in lines[1:])
        assert float(table["kappa_thr"]) == kappa_threshold(build_su_basis(2), 1.0, 4)
        assert table["conservative"] == "false"

    def test_seventeen_digit_round_trip(self, tmp_path):
        _, text = run_to_file(
            tmp_path,
            "c.csv",
            ["census1d", "--fn", "cubic", "--a", "-2", "--b", "2", "--format", "csv"],
        )
        _, payload = run_json(
            tmp_path,
            "c.json",
            ["census1d", "--fn", "cubic", "--a", "-2", "--b", "2"],
        )
        table = dict(
            ln.split(",", 1) for ln in text.split("\n")[1:] if ln
        )
        csv_points = [float(v) for v in table["critical_points"].split(";")]
        assert csv_points == payload["results"]["critical_points"]


class TestRankCommand:
    def test_interior_grid_fully_reachable(self, tmp_path):
        code, payload = run_json(
            tmp_path, "rz.json", ["rank", "--grid-kind", "zeros", "--kappa", "1.0"]
        )
        assert code == 0
        res = payload["results"]
        assert res["rank"] == 3
        assert res["full_rank"] is True
        assert res["cone_surjective"] is True
        assert res["witness"] is None

    def test_corner_grid_cone_obstructed(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "rc.json",
            ["rank", "--grid-kind", "corner", "--kappa", "auto"],
        )
        assert code == 0
        res = payload["results"]
        assert res["kappa"] == pytest.approx(KAPPA_AUTO)
        assert res["cone_surjective"] is False
        assert res["witness"] is not None
        assert np.linalg.norm(res["witness"]) == pytest.approx(1.0)

    def test_corner_verdict_does_not_depend_on_seed(self, tmp_path):
        argv = ["rank", "--grid-kind", "corner", "--kappa", "auto", "--seed"]
        _, a = run_json(tmp_path, "s1.json", argv + ["1"])
        _, b = run_json(tmp_path, "s2.json", argv + ["2"])
        assert a["results"]["cone_surjective"] is False
        assert a["results"]["witness"] == b["results"]["witness"]


class TestStdout:
    def test_default_output_is_stdout(self, capsys):
        code = main(["kappa-thr"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["kappa_thr"] == pytest.approx(
            4.0 * np.pi / np.sqrt(3.0)
        )

    def test_sinc_over_zero_takes_its_limits(self):
        # In a fresh process, so that a numpy warning would reach stderr.
        src = os.path.dirname(os.path.dirname(landscape.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "landscape_lab", "census1d", "--fn", "sinc",
             "--a", "-20", "--b", "20"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        res = json.loads(proc.stdout)["results"]
        points, values = res["critical_points"], res["critical_values"]
        assert res["num_critical_points"] == 11
        assert points == [-p for p in reversed(points)]
        assert values == list(reversed(values))
        assert (points[5], values[5]) == (0.0, 1.0)

    def test_census_counts_on_stdout(self, capsys):
        code = main(["census1d", "--fn", "sin", "--a", "-20", "--b", "20"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["num_critical_points"] == 12
        assert payload["results"]["num_distinct_values"] == 2
