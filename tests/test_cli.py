"""CLI contract: flags, exit codes, JSON schemas, determinism."""

import argparse
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from psdbound import combinatorics
from psdbound.bounds import PatakiViolationError
from psdbound.cli import main
from psdbound.kkt import build_kkt_normalized, build_kkt_rank, parse_system
from psdbound.pencil import Pencil, load_pencil, save_pencil
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


def refuse(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def loads(text):
    """json.loads that refuses NaN and Infinity, as RFC 8259 does."""
    return json.loads(text, parse_constant=refuse)


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, loads(out)


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

    def test_requires_one_mode(self):
        # argparse refuses the flag combination
        for argv in (["psi"], ["psi", "--set", "3", "--interval", "1", "2"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2

    @pytest.mark.parametrize("elements", ["0,1", "2,2", "1,,2", ",", "2,3,"])
    def test_invalid_set_exit_2(self, capsys, elements):
        assert run_cli(capsys, "psi", "--set", elements)[0] == 2

    def test_non_positive_pivot_exit_1(self, capsys, monkeypatch):
        # a zero pair value makes the first Pfaffian pivot 0 (ArithmeticError)
        monkeypatch.setattr(combinatorics, "_pair", lambda x, y: 0)
        assert main(["psi", "--set", "1,2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Pfaffian pivot" in err


class TestDegree:
    def test_basic(self, capsys):
        code, data = run_json(capsys, "degree", "--n", "1", "--m", "2", "--r", "1")
        assert code == 0
        assert data["delta"] == "2"
        assert_golden_schema("degree", data)

    def test_pataki_violation_exit_2(self, capsys):
        code, _ = run_cli(capsys, "degree", "--n", "3", "--m", "3", "--r", "3")
        assert code == 2

    def test_pataki_message_shared_with_kkt(self, capsys, tmp_path):
        # one check refuses rank 3 on (m, n) = (3, 3) for degree and kkt-export
        pencil = Pencil(mats=tuple(np.eye(3) for _ in range(4)))
        save_pencil(pencil, tmp_path / "pencil.json")
        with pytest.raises(PatakiViolationError) as err:
            build_kkt_rank(pencil, 3)
        want = f"psdbound: {err.value}\n"
        assert main(["degree", "--n", "3", "--m", "3", "--r", "3"]) == 2
        assert capsys.readouterr() == ("", want)
        pencil_file = str(tmp_path / "pencil.json")
        assert main(["kkt-export", "--pencil", pencil_file, "--variant", "rank", "--rank", "3"]) == 2
        assert capsys.readouterr() == ("", want)

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

    def test_all_ranks_at_t_m_skips_rank_0(self, capsys):
        # n = t_3: the Pataki range is {0}, and rank 0 adds no degree
        code, data = run_json(capsys, "degree", "--n", "6", "--m", "3", "--all-ranks")
        assert code == 0
        assert (data["ranks"], data["sum_over_range"]) == ([], "0")


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
        data = loads(out)
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

    @pytest.mark.parametrize("fmt", ["plain_text", "json"])
    def test_forced_rank_without_pataki_range(self, capsys, tmp_path, fmt):
        # n = 2 > t(1) = 1: there is no Pataki range, and --force builds anyway
        path = tmp_path / "line.json"
        save_pencil(Pencil(mats=(np.eye(1), np.eye(1), 2.0 * np.eye(1))), path)
        argv = ["kkt-export", "--pencil", str(path), "--variant", "rank", "--rank", "0"]
        assert run_cli(capsys, *argv)[0] == 2
        code, out = run_cli(capsys, *argv, "--force", "--format", fmt)
        assert code == 0
        system = parse_system(out, fmt)
        assert system == build_kkt_rank(load_pencil(path), 0, force=True)
        assert system.metadata.rank == 0

    def test_normalized_variant(self, capsys, segment_file):
        argv = ["kkt-export", "--pencil", segment_file, "--variant", "normalized"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert parse_system(out, "plain_text") == build_kkt_normalized(load_pencil(segment_file))

    def test_plain_needs_c(self, capsys, segment_file):
        assert run_cli(capsys, "kkt-export", "--pencil", segment_file)[0] == 2

    @pytest.mark.parametrize("c", ["inf", "-inf", "1e400"])
    def test_non_finite_c_exit_2(self, capsys, segment_file, c):
        argv = ["kkt-export", "--pencil", segment_file, "--variant", "plain", f"--c={c}"]
        assert run_cli(capsys, *argv) == (2, "")


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
        data = loads(cloud_file.read_text())
        assert_golden_schema("sample_polar", data)
        code, fit = run_json(
            capsys, "fit-degree", "--cloud", str(cloud_file), "--max-degree", "4"
        )
        assert code == 0
        assert fit["report"]["fitted_degree"] == 2
        assert_golden_schema("fit_degree", fit)

    def test_exact_kernel_gap_is_null(self, capsys, tmp_path):
        # on the line y = 0 the monomials with a factor y vanish exactly, so
        # the largest kernel singular value is 0 and the gap has no value
        line = [[t, 0.0] for t in np.linspace(-1.0, 1.0, 40).tolist()]
        cloud = tmp_path / "line.json"
        cloud.write_text(json.dumps(
            {"ambient_dim": 2, "points": line, "directions": line, "values": [1.0] * 40}
        ))
        code, out = run_cli(capsys, "fit-degree", "--cloud", str(cloud))
        assert code == 0
        # a singular value of exactly 0 is printed 0.0, never -0.0
        assert "-0.0" not in out
        report = loads(out)["report"]
        assert report["fitted_degree"] == 1
        # degree 5 needs 42 points: the search stops after degree 4
        assert [(f["kernel_dim"], f["gap"]) for f in report["per_degree"]] == [
            (1, None), (3, None), (6, None), (10, None)
        ]

    def test_sample_csv(self, capsys, tmp_path):
        disk = tmp_path / "disk.json"
        save_pencil(disk_fixture(), disk)
        argv = ["sample-polar", "--pencil", str(disk), "--num-dirs", "10", "--seed", "3"]
        _, data = run_json(capsys, *argv)
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out, newline=""))
        assert header == ["x1", "x2"]
        # every row parses back exactly to the JSON cloud's point
        assert [[float(v) for v in row] for row in rows] == data["cloud"]["points"]
        assert out.count("\r\n") == len(rows) + 1

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

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"m": 2, "n": 1}, "has no 'mats'"),
            ({"m": 2, "n": 1, "mats": [[1, 0, 0, 1], 5]}, "wrong type"),
            ([1], "must be an object, got list"),
        ],
    )
    def test_malformed_pencil_exit_2(self, capsys, tmp_path, doc, message):
        bad = tmp_path / "pencil.json"
        bad.write_text(json.dumps(doc))
        assert main(["sample-polar", "--pencil", str(bad), "--num-dirs", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"ambient_dim": 1, "points": [[1.0]], "directions": [[1.0]]}, "has no 'values'"),
            (segment_fixture().to_dict(), "has no 'ambient_dim'"),
            ([[1.0, 0.0]], "must be an object, got list"),
            ({"ambient_dim": 1, "points": [{}], "directions": [[1.0]], "values": [1.0]}, "wrong type"),
        ],
    )
    def test_malformed_cloud_exit_2(self, capsys, tmp_path, doc, message):
        bad = tmp_path / "cloud.json"
        bad.write_text(json.dumps(doc))
        assert main(["fit-degree", "--cloud", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"m": 2.9, "n": 1.5}, "'m' must be an integer, got 2.9"),
            ({"m": "2", "n": 1}, "'m' must be an integer, got '2'"),
            ({"m": 2, "n": True}, "'n' must be an integer, got True"),
        ],
    )
    def test_non_integer_pencil_size_exit_2(self, capsys, tmp_path, sizes, message):
        bad = tmp_path / "pencil.json"
        bad.write_text(json.dumps({**sizes, "mats": [[1, 0, 0, 1], [1, 0, 0, -1]]}))
        assert main(["sample-polar", "--pencil", str(bad), "--num-dirs", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            # numpy's reshape once refused it: "can only specify one unknown dimension"
            ({"m": -1, "n": 0, "mats": [[1]]}, "'m' must be non-negative, got -1"),
            ({"m": 1, "n": -1, "mats": []}, "'n' must be non-negative, got -1"),
        ],
    )
    def test_negative_pencil_size_exit_2(self, capsys, tmp_path, doc, message):
        bad = tmp_path / "pencil.json"
        bad.write_text(json.dumps(doc))
        assert main(["sample-polar", "--pencil", str(bad), "--num-dirs", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize("dim", [1.7, 2.0, "2", True])
    def test_non_integer_cloud_dim_exit_2(self, capsys, tmp_path, dim):
        bad = tmp_path / "cloud.json"
        circle = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        cloud = {"ambient_dim": dim, "points": circle, "directions": circle, "values": [1.0] * 4}
        bad.write_text(json.dumps(cloud))
        assert main(["fit-degree", "--cloud", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "'ambient_dim' must be an integer" in err

    @pytest.mark.parametrize("dim", [0, -1])
    def test_cloud_dim_below_1_exit_2(self, capsys, tmp_path, dim):
        # numpy's reshape once refused it: "cannot reshape array of size 0 into
        # shape (0)" or "can only specify one unknown dimension"
        bad = tmp_path / "cloud.json"
        bad.write_text(json.dumps({"ambient_dim": dim, "points": [], "directions": [], "values": []}))
        assert main(["fit-degree", "--cloud", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"'ambient_dim' must be at least 1, got {dim}" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"skipped": "ab"}, "'skipped' must be a list, got 'ab'"),
            ({"skipped": {"index": 0, "reason": "x"}}, "'skipped' must be a list"),
            ({"skipped": [1]}, "skipped entry must be an object, got int"),
            ({"skipped": [{"index": 1}]}, "skipped entry has no 'reason'"),
            ({"skipped": [{"index": 1.0, "reason": "x"}]}, "'index' must be an integer, got 1.0"),
            ({"skipped": [{"index": True, "reason": "x"}]}, "'index' must be an integer, got True"),
            ({"skipped": [{"index": 1, "reason": 7}]}, "'reason' must be a string, got 7"),
            ({"seed": "x"}, "'seed' must be an integer, got 'x'"),
            ({"seed": 1.5}, "'seed' must be an integer, got 1.5"),
            ({"seed": False}, "'seed' must be an integer, got False"),
        ],
    )
    def test_malformed_cloud_skipped_or_seed_exit_2(self, capsys, tmp_path, extra, message):
        bad = tmp_path / "cloud.json"
        circle = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        cloud = {"ambient_dim": 2, "points": circle, "directions": circle, "values": [1.0] * 4}
        bad.write_text(json.dumps({**cloud, **extra}))
        assert main(["fit-degree", "--cloud", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize("seed", [None, 0, 7])
    def test_cloud_skipped_and_seed_accepted(self, capsys, tmp_path, seed):
        ang = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        circle = np.column_stack([np.cos(ang), np.sin(ang)]).tolist()
        cloud = tmp_path / "cloud.json"
        cloud.write_text(json.dumps({
            "ambient_dim": 2, "points": circle, "directions": circle, "values": [1.0] * 12,
            "skipped": [{"index": 12, "reason": "unbounded"}], "seed": seed,
        }))
        code, data = run_json(capsys, "fit-degree", "--cloud", str(cloud), "--max-degree", "2")
        assert code == 0
        assert (data["report"]["fitted_degree"], data["report"]["seed"]) == (2, seed)

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

    def test_tightness_without_solved_trial(self, capsys):
        # all three (6, 7) trials at seed 2 end infeasible, each with a checked
        # Farkas certificate (they once ended numerical_failure)
        code, data = run_json(capsys, "tightness", "--m", "6", "--trials", "3", "--seed", "2")
        assert code == 0
        table = data["tightness"]["frequency"]
        assert (table["skipped"], table["in_range_fraction"]) == (3, None)

    def test_tightness_without_trials(self, capsys):
        code, data = run_json(capsys, "tightness", "--m", "4", "--trials", "0")
        assert code == 0
        report = data["tightness"]
        assert (report["delta"], report["trials"]) == ("8", 0)
        assert report["frequency"] is None and report["target_rank_count"] is None

    def test_rank_freq_csv(self, capsys):
        argv = ["rank-freq", "--m", "2", "--n", "1", "--trials", "30", "--seed", "5"]
        _, data = run_json(capsys, *argv)
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        table = data["table"]
        assert out.splitlines() == [
            "rank,count",
            *(f"{rank},{count}" for rank, count in table["counts"].items()),
            f"skipped,{table['skipped']}",
        ]

    def test_tightness_negative_trials_exit_2(self, capsys):
        assert run_cli(capsys, "tightness", "--m", "4", "--trials", "-3") == (2, "")

    @pytest.mark.parametrize("trials", [0, 5])
    def test_tightness_m14(self, capsys, trials):
        # every even m runs its trials; each (14, 29) trial ends certified
        code, data = run_json(capsys, "tightness", "--m", "14", "--trials", str(trials), "--seed", "0")
        assert code == 0
        report = data["tightness"]
        assert report["trials"] == trials
        if trials == 0:
            assert report["frequency"] is None
        else:
            statuses = report["frequency"]["statuses"]
            assert sum(statuses.values()) == trials
            assert statuses["numerical_failure"] == 0

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

    def test_no_kernel_up_to_max_degree_exit_1(self, capsys):
        code, data = run_json(capsys, "pentagon", "--num-dirs", "150", "--max-degree", "4")
        assert code == 1
        assert (data["pipeline"]["d_est"], data["pipeline"]["conclusive"]) == (None, False)
        assert data["error"] == "expected boundary degree 5, fitted None"


class TestManifest:
    def test_embedded_everywhere(self, capsys):
        _, data = run_json(capsys, "pataki", "--m", "2", "--n", "1")
        manifest = data["manifest"]
        assert manifest["subcommand"] == "pataki"
        assert manifest["version"]
        assert "timestamp" in manifest
        assert manifest["args"]["m"] == 2

    def test_big_seed_written_one_way(self, capsys):
        seed = 2**60
        argv = ["rank-freq", "--m", "2", "--n", "1", "--trials", "2", "--seed", str(seed)]
        _, data = run_json(capsys, *argv)
        manifest = data["manifest"]
        assert manifest["seed"] == manifest["args"]["seed"] == str(seed)
        # a report's seed stays a JSON integer
        assert data["table"]["seed"] == seed

    def test_key_order(self, capsys, pentagon_file):
        # extract_schema sorts keys; the printed order is the report's field order
        _, table = run_json(
            capsys, "rank-freq", "--m", "2", "--n", "1", "--trials", "5", "--seed", "4"
        )
        _, tight = run_json(capsys, "tightness", "--m", "4", "--trials", "5", "--seed", "3")
        _, pipe = run_json(
            capsys, "pipeline", "--pencil", pentagon_file, "--num-dirs", "150",
            "--max-degree", "5", "--seed", "7",
        )
        table_keys = [
            "m", "n", "trials", "counts", "skipped", "seed", "pataki_ranks",
            "pataki_strict_ranks", "statuses", "in_range_fraction",
        ]
        assert list(table["table"]) == table_keys
        assert list(tight["tightness"]) == [
            "m", "n", "r", "delta", "log2_delta", "threshold", "bound_holds", "sqrt20_bound",
            "rank_bound", "trials", "seed", "frequency", "target_rank_count",
        ]
        assert list(tight["tightness"]["frequency"]) == table_keys
        assert list(pipe["pipeline"]) == [
            "d_est", "conclusive", "d_used", "psd_bound", "psd_bound_ceil", "cloud_size",
            "skipped", "report",
        ]

    def test_usage_errors_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["degree", "--n", "oops", "--m", "2", "--r", "1"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["not-a-command"])
        assert err.value.code == 2


def split_manifest(text, kind):
    """A document's body and its manifest (None for the CSV and JSON KKT
    exports, which carry none): a JSON document is parsed, the plain-text
    KKT export keeps its text and parses its trailing manifest comment."""
    if kind == "json":
        doc = loads(text)
        return doc, doc.pop("manifest")
    if kind == "kkt-text":
        body, manifest = text.split("# manifest: ")
        return body, loads(manifest)
    return text, None


# every subcommand, and each of its CSV or KKT formats
OUT_CASES = [
    ("json", ["psi", "--set", "2,3,4"]),
    ("json", ["degree", "--n", "6", "--m", "4", "--all-ranks"]),
    ("json", ["pataki", "--m", "3", "--n", "3"]),
    ("json", ["bound", "--d", "5"]),
    ("kkt-text", ["kkt-export", "--pencil", "disk.json", "--variant", "normalized"]),
    ("raw", ["kkt-export", "--pencil", "disk.json", "--variant", "rank", "--rank", "1",
             "--format", "json"]),
    ("json", ["sample-polar", "--pencil", "disk.json", "--num-dirs", "10", "--seed", "3"]),
    ("raw", ["sample-polar", "--pencil", "disk.json", "--num-dirs", "10", "--seed", "3",
             "--format", "csv"]),
    ("json", ["fit-degree", "--cloud", "circle.json", "--max-degree", "3"]),
    ("json", ["pipeline", "--pencil", "disk.json", "--num-dirs", "40", "--max-degree", "3"]),
    ("json", ["rank-freq", "--m", "2", "--n", "1", "--trials", "10", "--seed", "5"]),
    ("raw", ["rank-freq", "--m", "2", "--n", "1", "--trials", "10", "--seed", "5",
             "--format", "csv"]),
    ("json", ["tightness", "--m", "4", "--trials", "5", "--seed", "3"]),
    ("json", ["check-growth", "--m", "6"]),
    ("json", ["pentagon", "--num-dirs", "150", "--max-degree", "5"]),
]


class TestOut:
    @pytest.mark.parametrize(
        "kind, argv", OUT_CASES, ids=[f"{argv[0]}-{kind}" for kind, argv in OUT_CASES]
    )
    def test_out_file_is_what_stdout_prints(self, capsys, tmp_path, monkeypatch, kind, argv):
        monkeypatch.chdir(tmp_path)
        save_pencil(disk_fixture(), "disk.json")
        circle = [[np.cos(t), np.sin(t)] for t in np.linspace(0.0, 6.0, 20).tolist()]
        Path("circle.json").write_text(json.dumps(
            {"ambient_dim": 2, "points": circle, "directions": circle, "values": [1.0] * 20}
        ))
        code, out = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--out", "doc") == (code, "")
        printed, printed_manifest = split_manifest(out, kind)
        # bytes, so the CSV's CRLF line ends are compared as written
        written, written_manifest = split_manifest(Path("doc").read_bytes().decode(), kind)
        assert written == printed
        if printed_manifest is not None:
            # the manifest records --out, the last flag, like any other that is set
            assert written_manifest["args"].popitem() == ("out", "doc")
            del written_manifest["timestamp"], printed_manifest["timestamp"]
            assert written_manifest == printed_manifest

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        # the grammar is built once, at import; main only parses with it
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run_cli(capsys, "pataki", "--m", "3", "--n", "3")[0] == 0
        assert run_cli(capsys, "bound", "--d", "5")[0] == 0
        assert built == []


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["psi", "--interval", "3", "1"], 2, "need p <= q"),
        (["degree", "--n", "7", "--m", "3", "--all-ranks"], 2, "need 1 <= n <= t_m"),
        (["degree", "--n", "3", "--m", "3"], 2, "one of the arguments --r --all-ranks"),
        (["kkt-export", "--pencil", "segment.json", "--variant", "rank"], 2, "needs --rank"),
        (["sample-polar", "--pencil", "segment.json", "--num-dirs", "0"], 2, "at least one direction"),
        (["fit-degree", "--cloud", "empty.json"], 3, "empty cloud"),
        (["fit-degree", "--cloud", "empty.json", "--max-degree", "0"], 2, "need max_degree >= 1"),
        (["degree", "--n", "3", "--m", "3", "--r", "1", "--all-ranks"], 2, "not allowed with"),
        (["psi", "--interval", "-1", "3"], 2, "need p >= 0"),
        # a flag the chosen mode would ignore
        (["degree", "--n", "3", "--m", "3", "--all-ranks", "--force"], 2,
         "--all-ranks does not take --force"),
        (["kkt-export", "--pencil", "segment.json", "--variant", "normalized", "--rank", "2",
          "--c", "1", "--force"], 2, "--variant normalized does not take --c --rank --force"),
        (["kkt-export", "--pencil", "segment.json", "--variant", "plain", "--rank", "1"], 2,
         "--variant plain does not take --rank"),
        (["kkt-export", "--pencil", "segment.json", "--c", "1", "--force"], 2,
         "--variant plain does not take --force"),
        (["kkt-export", "--pencil", "segment.json", "--variant", "rank", "--rank", "1",
          "--c", "1,2"], 2, "--variant rank does not take --c"),
        (["sample-polar", "--pencil", "few_mats.json"], 2, "expected 2 matrices, got 1"),
        (["sample-polar", "--pencil", "short_matrix.json"], 2,
         "matrix data has 3 entries, expected 4"),
    ],
)
def test_refused_input(capsys, tmp_path, monkeypatch, argv, code, message):
    monkeypatch.chdir(tmp_path)
    save_pencil(segment_fixture(), "segment.json")
    Path("empty.json").write_text(
        json.dumps({"ambient_dim": 2, "points": [], "directions": [], "values": []})
    )
    Path("few_mats.json").write_text(json.dumps({"m": 2, "n": 1, "mats": [[1, 0, 0, 1]]}))
    Path("short_matrix.json").write_text(
        json.dumps({"m": 2, "n": 1, "mats": [[1, 0, 0, 1], [1, 0, 0]]})
    )
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse refuses a flag combination
        got = exc.code
    assert got == code
    out, err = capsys.readouterr()
    assert out == "" and message in err
