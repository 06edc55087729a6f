"""CLI contract: flags, exit codes, JSON schemas, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from psdbound.cli import main
from psdbound.pencil import save_pencil
from psdbound.polar import disk_fixture, pentagon_fixture, segment_fixture

GOLDEN = Path(__file__).parent / "golden"


def extract_schema(value):
    """Recursive key structure of a JSON document, values replaced by types."""
    if isinstance(value, dict):
        return {key: extract_schema(val) for key, val in sorted(value.items())}
    if isinstance(value, list):
        return [extract_schema(value[0])] if value else []
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if value is None:
        return "null"
    return "string"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def assert_golden_schema(name, payload):
    path = GOLDEN / f"{name}.schema.json"
    want = json.loads(path.read_text())
    assert extract_schema(payload) == want, f"schema drift for {name}"


@pytest.fixture()
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    save_pencil(pentagon_fixture(), path)
    return str(path)


@pytest.fixture()
def segment_file(tmp_path):
    path = tmp_path / "segment.json"
    save_pencil(segment_fixture(), path)
    return str(path)


class TestPsi:
    def test_singleton(self, capsys):
        code, data = run_json(capsys, "psi", "--set", "5")
        assert code == 0
        assert data["psi"] == "16"
        assert_golden_schema("psi_set", data)

    def test_empty_set(self, capsys):
        code, data = run_json(capsys, "psi", "--set")
        assert code == 0
        assert data["psi"] == "1"

    def test_interval_cross_check(self, capsys):
        code, data = run_json(capsys, "psi", "--interval", "1", "4")
        assert code == 0
        assert data["psi"] == "4"
        assert data["all_formulas_agree"] is True
        assert_golden_schema("psi_interval", data)

    def test_requires_one_mode(self, capsys):
        assert run_cli(capsys, "psi")[0] == 2
        assert run_cli(capsys, "psi", "--set", "3", "--interval", "1", "2")[0] == 2

    @pytest.mark.parametrize("elements", ["0,1", "2,2"])
    def test_invalid_set_exit_2(self, capsys, elements):
        assert run_cli(capsys, "psi", "--set", elements)[0] == 2


class TestDegree:
    def test_basic(self, capsys):
        code, data = run_json(capsys, "degree", "--n", "1", "--m", "2", "--r", "1")
        assert code == 0
        assert data["delta"] == "2"
        assert_golden_schema("degree", data)

    def test_pataki_violation_exit_2(self, capsys):
        code, _ = run_cli(capsys, "degree", "--n", "3", "--m", "3", "--r", "3")
        assert code == 2

    def test_force_overrides(self, capsys):
        code, data = run_json(capsys, "degree", "--n", "3", "--m", "3", "--r", "3", "--force")
        assert code == 0
        assert data["delta"] == "0"

    def test_all_ranks_table(self, capsys):
        code, data = run_json(capsys, "degree", "--n", "6", "--m", "4", "--all-ranks")
        assert code == 0
        rows = {row["r"]: int(row["delta"]) for row in data["ranks"]}
        assert set(rows) == {1, 2}
        assert int(data["sum_over_range"]) == sum(rows.values())
        assert_golden_schema("degree_all_ranks", data)


class TestPatakiBound:
    def test_pataki(self, capsys):
        code, data = run_json(capsys, "pataki", "--m", "3", "--n", "3")
        assert code == 0
        assert data["ranks"] == [1, 2]
        assert_golden_schema("pataki", data)

    def test_bound(self, capsys):
        code, data = run_json(capsys, "bound", "--d", "5")
        assert code == 0
        assert data["psd_bound_ceil"] == 2
        assert data["psd_bound"] == pytest.approx(1.523787, abs=1e-5)
        assert_golden_schema("bound", data)

    def test_bound_big_integer(self, capsys):
        code, data = run_json(capsys, "bound", "--d", str(1 << 400))
        assert code == 0
        assert data["psd_bound_ceil"] == 20

    def test_bound_invalid(self, capsys):
        assert run_cli(capsys, "bound", "--d", "0")[0] == 2


class TestKktExport:
    def test_plain_text(self, capsys, segment_file):
        code, out = run_cli(
            capsys,
            "kkt-export",
            "--pencil",
            segment_file,
            "--variant",
            "plain",
            "--c",
            "1",
            "--format",
            "plain_text",
        )
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith(("vars:", "#"))]
        assert len(lines) == 8

    def test_rank_variant_json(self, capsys, segment_file):
        code, out = run_cli(
            capsys,
            "kkt-export",
            "--pencil",
            segment_file,
            "--variant",
            "rank",
            "--rank",
            "1",
            "--format",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["metadata"]["variant"] == "rank"

    def test_rank_violation_exit_2(self, capsys, segment_file):
        code, _ = run_cli(
            capsys, "kkt-export", "--pencil", segment_file, "--variant", "rank", "--rank", "2"
        )
        assert code == 2

    @pytest.mark.parametrize("rank", ["-1", "3"])
    def test_rank_outside_matrix_size_exit_2(self, capsys, segment_file, rank):
        code, out = run_cli(
            capsys,
            "kkt-export",
            "--pencil",
            segment_file,
            "--variant",
            "rank",
            "--rank",
            rank,
            "--force",
        )
        assert code == 2 and out == ""

    def test_plain_needs_c(self, capsys, segment_file):
        assert run_cli(capsys, "kkt-export", "--pencil", segment_file)[0] == 2


class TestSamplingCommands:
    def test_sample_fit_pipe(self, capsys, tmp_path):
        disk = tmp_path / "disk.json"
        save_pencil(disk_fixture(), disk)
        cloud_file = tmp_path / "cloud.json"
        code, _ = run_cli(
            capsys,
            "sample-polar",
            "--pencil",
            str(disk),
            "--num-dirs",
            "80",
            "--seed",
            "11",
            "--out",
            str(cloud_file),
        )
        assert code == 0
        data = json.loads(cloud_file.read_text())
        assert_golden_schema("sample_polar", data)
        code, fit = run_json(
            capsys, "fit-degree", "--cloud", str(cloud_file), "--max-degree", "4"
        )
        assert code == 0
        assert fit["report"]["fitted_degree"] == 2
        assert_golden_schema("fit_degree", fit)

    def test_sample_csv(self, capsys, tmp_path):
        disk = tmp_path / "disk.json"
        save_pencil(disk_fixture(), disk)
        code, out = run_cli(
            capsys, "sample-polar", "--pencil", str(disk), "--num-dirs", "10",
            "--seed", "3", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "x1,x2"

    def test_pipeline(self, capsys, pentagon_file):
        code, data = run_json(
            capsys,
            "pipeline",
            "--pencil",
            pentagon_file,
            "--num-dirs",
            "320",
            "--max-degree",
            "5",
            "--seed",
            "7",
        )
        assert code == 0
        assert data["pipeline"]["d_est"] == 5
        assert_golden_schema("pipeline", data)

    def test_non_finite_pencil_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        save_pencil(disk_fixture(), bad)
        data = json.loads(bad.read_text())
        data["mats"][1][0] = float("nan")
        bad.write_text(json.dumps(data))
        assert "NaN" in bad.read_text()
        code, _ = run_cli(
            capsys, "sample-polar", "--pencil", str(bad), "--num-dirs", "5", "--seed", "1"
        )
        assert code == 2

    def test_empty_pencil_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({"m": 0, "n": 0, "mats": [[]]}))
        code, _ = run_cli(
            capsys, "sample-polar", "--pencil", str(bad), "--num-dirs", "5", "--seed", "1"
        )
        assert code == 2

    def test_non_finite_cloud_exit_2(self, capsys, tmp_path):
        ang = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
        directions = np.column_stack([np.cos(ang), np.sin(ang)])
        points = directions.tolist()
        points[17][0] = float("nan")
        cloud = {"ambient_dim": 2, "points": points, "directions": directions.tolist(),
                 "values": [1.0] * 60, "skipped": [], "seed": None}
        bad = tmp_path / "cloud.json"
        bad.write_text(json.dumps(cloud))
        assert "NaN" in bad.read_text()
        code, _ = run_cli(capsys, "fit-degree", "--cloud", str(bad), "--max-degree", "2")
        assert code == 2

    def test_truncated_cloud_exit_2(self, capsys, tmp_path):
        ang = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
        circle = np.column_stack([np.cos(ang), np.sin(ang)])
        cloud = {"ambient_dim": 2, "points": circle.tolist(), "directions": circle[:5].tolist(),
                 "values": [2.0], "skipped": [], "seed": None}
        bad = tmp_path / "cloud.json"
        bad.write_text(json.dumps(cloud))
        code, _ = run_cli(capsys, "fit-degree", "--cloud", str(bad), "--max-degree", "2")
        assert code == 2

    def test_degenerate_input_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        save_pencil(
            disk_fixture(), bad
        )
        data = json.loads(bad.read_text())
        data["mats"][0] = [1.0, 0.0, 0.0, -1.0]  # indefinite A0
        bad.write_text(json.dumps(data))
        code, _ = run_cli(
            capsys, "sample-polar", "--pencil", str(bad), "--num-dirs", "5", "--seed", "1"
        )
        assert code == 3


class TestExperimentCommands:
    def test_rank_freq(self, capsys):
        code, data = run_json(
            capsys, "rank-freq", "--m", "2", "--n", "1", "--trials", "40", "--seed", "5"
        )
        assert code == 0
        assert data["table"]["pataki_ranks"] == [1]
        assert_golden_schema("rank_freq", data)

    def test_rank_freq_deterministic(self, capsys):
        _, a = run_json(capsys, "rank-freq", "--m", "2", "--n", "1", "--trials", "30", "--seed", "5")
        _, b = run_json(capsys, "rank-freq", "--m", "2", "--n", "1", "--trials", "30", "--seed", "5")
        a.pop("manifest")
        b.pop("manifest")
        assert a == b

    def test_tightness(self, capsys):
        code, data = run_json(capsys, "tightness", "--m", "4", "--trials", "30", "--seed", "3")
        assert code == 0
        assert data["tightness"]["delta"] == "8"
        assert_golden_schema("tightness", data)

    def test_check_growth(self, capsys):
        code, data = run_json(capsys, "check-growth", "--m", "6")
        assert code == 0
        assert data["holds"] is True


class TestPentagon:
    def test_demo_asserts_degree_five(self, capsys):
        code, data = run_json(
            capsys, "pentagon", "--num-dirs", "320", "--max-degree", "5", "--seed", "7"
        )
        assert code == 0
        assert data["pipeline"]["d_est"] == 5
        assert data["pipeline"]["psd_bound_ceil"] == 2
        assert_golden_schema("pentagon", data)


class TestManifest:
    def test_embedded_everywhere(self, capsys):
        _, data = run_json(capsys, "pataki", "--m", "2", "--n", "1")
        manifest = data["manifest"]
        assert manifest["subcommand"] == "pataki"
        assert manifest["version"]
        assert "timestamp" in manifest
        assert manifest["args"]["m"] == 2

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["degree", "--n", "oops", "--m", "2", "--r", "1"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["not-a-command"])
        assert err.value.code == 2
