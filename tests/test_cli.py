"""Tests for the CLI entry point."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        arguments = build_parser().parse_args(["list"])
        assert arguments.command == "list"

    def test_run_command_options(self):
        arguments = build_parser().parse_args(
            ["run", "fig2", "--seed", "7", "--fast"]
        )
        assert arguments.experiment == "fig2"
        assert arguments.seed == 7
        assert arguments.fast is True

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_ablate_command_options(self):
        arguments = build_parser().parse_args(
            [
                "ablate", "--fast", "--jobs", "2",
                "--axis", "solver=svd,nmf",
                "--output", "report.json", "--allow-failures",
            ]
        )
        assert arguments.command == "ablate"
        assert arguments.fast is True
        assert arguments.jobs == 2
        assert arguments.axis == ["solver=svd,nmf"]
        assert arguments.allow_failures is True

    def test_ablate_defaults(self):
        arguments = build_parser().parse_args(["ablate"])
        assert arguments.jobs == 1
        assert arguments.timeout == 300.0
        assert arguments.resume is False
        assert arguments.in_process is False


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig2" in output
        assert "table1" in output
        assert "ablate-rank" in output

    def test_list_prints_ablation_axes_and_presets(self, capsys):
        from repro.evaluation.ablation import AXES, PRESETS

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "ides-experiment ablate" in output
        for axis in AXES:
            assert f"  {axis}:" in output
        for preset in PRESETS:
            assert f"  {preset}:" in output

    def test_run_quick_experiment(self, capsys):
        assert main(["run", "ablate-rank", "--fast"]) == 0
        output = capsys.readouterr().out
        assert "ablate-rank" in output
        assert "completed in" in output

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestPlotFlag:
    def test_run_with_plot_renders_chart(self, capsys):
        assert main(["run", "ablate-dimension", "--fast", "--plot"]) == 0
        output = capsys.readouterr().out
        assert "legend:" in output


class TestServe:
    @pytest.fixture
    def snapshot_path(self, tmp_path, capsys):
        path = tmp_path / "service.npz"
        assert (
            main(
                [
                    "serve", "build", str(path),
                    "--dataset", "nlanr", "--landmarks", "15",
                    "--dimension", "8", "--seed", "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "wrote" in output and "health:" in output
        return path

    def test_build_creates_snapshot(self, snapshot_path):
        assert snapshot_path.exists()

    def test_query_single_and_batch(self, snapshot_path, capsys):
        assert (
            main(["serve", "query", str(snapshot_path), "--source", "3", "--dest", "5"])
            == 0
        )
        single = capsys.readouterr().out
        assert "3 -> 5:" in single

        assert (
            main(
                [
                    "serve", "query", str(snapshot_path),
                    "--source", "3", "--dest", "5", "7", "9",
                ]
            )
            == 0
        )
        batched = capsys.readouterr().out
        assert batched.count("3 ->") == 3
        # the same pair predicts the same value on both paths
        line = next(row for row in batched.splitlines() if row.startswith("3 -> 5:"))
        assert line in single

    def test_nearest(self, snapshot_path, capsys):
        assert main(["serve", "nearest", str(snapshot_path), "--source", "3", "-k", "4"]) == 0
        output = capsys.readouterr().out
        assert output.count("3 ->") == 4
        assert "health:" in output

    def test_health(self, snapshot_path, capsys):
        assert main(["serve", "health", str(snapshot_path)]) == 0
        output = capsys.readouterr().out
        assert "hosts=110" in output and "shards=" not in output

    def test_missing_snapshot_fails(self, tmp_path, capsys):
        assert main(["serve", "health", str(tmp_path / "absent.npz")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_host_fails(self, snapshot_path, capsys):
        assert (
            main(["serve", "query", str(snapshot_path), "--source", "9999", "--dest", "5"])
            == 2
        )
        assert "unknown host" in capsys.readouterr().err


class TestServeRefresh:
    @pytest.fixture
    def snapshot_path(self, tmp_path, capsys):
        path = tmp_path / "refresh-service.npz"
        assert (
            main(
                [
                    "serve", "build", str(path),
                    "--dataset", "nlanr",
                    "--landmarks", "12",
                    "--dimension", "6",
                ]
            )
            == 0
        )
        capsys.readouterr()
        return path

    def test_refresh_reports_convergence(self, snapshot_path, capsys):
        assert (
            main(
                [
                    "serve", "refresh", str(snapshot_path),
                    "--samples", "600",
                    "--drift", "0.2",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "residual ewma" in output
        assert "refreshed=" in output

    def test_refresh_can_save_updated_snapshot(
        self, snapshot_path, tmp_path, capsys
    ):
        refreshed = tmp_path / "refreshed.npz"
        assert (
            main(
                [
                    "serve", "refresh", str(snapshot_path),
                    "--samples", "200",
                    "--save", str(refreshed),
                ]
            )
            == 0
        )
        assert refreshed.exists()
        capsys.readouterr()
        assert main(["serve", "health", str(refreshed)]) == 0
