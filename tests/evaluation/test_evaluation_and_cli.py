"""Tests for the evaluation helpers (error CDFs, reports) and the CLI."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.evaluation import ErrorCDF, compare_cdfs, format_cdf_table, format_metrics_table


class TestErrorCDF:
    def test_evaluate_monotone(self):
        cdf = ErrorCDF("test", np.array([-0.2, -0.1, 0.0, 0.1, 0.4]))
        assert cdf.evaluate(-1.0) == 0.0
        assert cdf.evaluate(0.0) == pytest.approx(0.6)
        assert cdf.evaluate(1.0) == 1.0

    def test_quantiles(self):
        cdf = ErrorCDF("test", np.linspace(-1, 1, 101))
        assert cdf.quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert cdf.absolute_quantile(1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_fraction_within(self):
        cdf = ErrorCDF("test", np.array([-0.3, -0.05, 0.02, 0.5]))
        assert cdf.fraction_within(0.1) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            cdf.fraction_within(-0.1)

    def test_mean_absolute_error(self):
        cdf = ErrorCDF("test", np.array([-0.2, 0.2]))
        assert cdf.mean_absolute_error() == pytest.approx(0.2)

    def test_curve_shape(self):
        cdf = ErrorCDF("test", np.random.default_rng(0).normal(size=200))
        curve = cdf.curve(num_points=50)
        assert curve["x"].shape == (50,)
        assert np.all(np.diff(curve["cdf"]) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ErrorCDF("empty", np.array([]))

    def test_compare_cdfs(self):
        good = ErrorCDF("good", np.array([-0.01, 0.02, 0.01]))
        bad = ErrorCDF("bad", np.array([-0.5, 0.4, 0.6]))
        rows = compare_cdfs([good, bad])
        assert rows[0]["label"] == "good"
        assert rows[0]["mean_abs_error"] < rows[1]["mean_abs_error"]
        assert rows[0]["within_10pct"] == 1.0
        with pytest.raises(ValueError):
            compare_cdfs([])


class TestReportFormatting:
    def test_metrics_table_alignment(self):
        rows = [{"label": "a", "value": 1.0}, {"label": "longer-name", "value": 0.25}]
        table = format_metrics_table(rows)
        lines = table.splitlines()
        assert lines[0].startswith("label")
        assert len(lines) == 4
        assert "longer-name" in lines[3]

    def test_metrics_table_empty_raises(self):
        with pytest.raises(ValueError):
            format_metrics_table([])

    def test_cdf_table_contains_labels_and_summary(self):
        cdf_a = ErrorCDF("model-A", np.random.default_rng(0).normal(0, 0.05, 100))
        cdf_b = ErrorCDF("model-B", np.random.default_rng(1).normal(0, 0.2, 100))
        table = format_cdf_table([cdf_a, cdf_b])
        assert "model-A" in table and "model-B" in table
        assert "Summary:" in table

    def test_cdf_table_empty_raises(self):
        with pytest.raises(ValueError):
            format_cdf_table([])


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["generate", "--output", "x", "--samples", "5"])
        assert args.command == "generate"
        assert args.samples == 5
        # The path scan and the data-parallel step each have one executor,
        # and generate writes one dataset format.
        for argv in (["train", "--dataset", "d", "--output", "o", "--scan-mode", "stream"],
                     ["evaluate", "--dataset", "d", "--weights", "w", "--scan-mode", "stream"],
                     ["fig2", "--scan-mode", "stream"],
                     ["train", "--dataset", "d", "--output", "o", "--overlap"],
                     ["fig2", "--overlap"],
                     ["generate", "--output", "x", "--dataset-shards", "2"],
                     ["generate", "--output", "x", "--shard-payload", "jsonl"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_train_evaluate_round_trip(self, tmp_path):
        dataset_path = str(tmp_path / "dataset")
        checkpoint_path = str(tmp_path / "model")
        assert main(["generate", "--topology", "nsfnet", "--samples", "6",
                     "--seed", "1", "--output", dataset_path]) == 0
        assert main(["train", "--dataset", dataset_path, "--model", "extended",
                     "--epochs", "2", "--state-dim", "6", "--iterations", "2",
                     "--output", checkpoint_path]) == 0
        assert main(["evaluate", "--dataset", dataset_path, "--model", "extended",
                     "--state-dim", "6", "--iterations", "2",
                     "--weights", checkpoint_path]) == 0

    def test_generate_random_topology(self, tmp_path):
        dataset_path = str(tmp_path / "random-dataset")
        assert main(["generate", "--topology", "random", "--random-nodes", "8",
                     "--samples", "2", "--output", dataset_path]) == 0
