import json
from types import SimpleNamespace

import numpy as np
import pytest

from landscape_lab import build_su_basis, kappa_threshold, landscape
from landscape_lab.cli import main

KAPPA_AUTO = np.pi / np.sqrt(3.0)


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
        monkeypatch.setattr(landscape, "linprog", lambda *a, **k: answer)
        assert main(["rank", "--grid-kind", "corner", "--kappa", "auto"]) == 3


class TestExpectations:
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

    def test_expect_min_grad_passes_at_documented_floor(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "m.json",
            ["ce-scan2d", "--steps", "400", "--expect-min-grad", "0.05"],
        )
        assert code == 0
        assert payload["results"]["min_grad_norm"] > 0.05


class TestConfigFile:
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

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert main(["ce-scan2d", "--config", str(cfg)]) == 2

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["ce-scan2d", "--config", str(cfg)]) == 2

    def test_missing_config_file_rejected(self, tmp_path):
        assert main(["ce-scan2d", "--config", str(tmp_path / "absent.json")]) == 2


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

    def test_census_counts_on_stdout(self, capsys):
        code = main(["census1d", "--fn", "sin", "--a", "-20", "--b", "20"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["num_critical_points"] == 12
        assert payload["results"]["num_distinct_values"] == 2
