"""Tests for the experiment reporting containers and the cell runner."""

import json

import numpy as np
import pytest

from oracles import reference_similarity
from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    ExperimentScale,
    QUICK_SCALE,
    build_task,
    format_metrics,
    format_table,
    list_experiments,
    run_cell,
    train_model,
)
from repro.eval import AlignmentMetrics


class TestFormatting:
    def test_format_metrics_scales_to_percentages(self):
        metrics = AlignmentMetrics(hits_at_1=0.512, hits_at_10=0.93, mrr=0.644)
        formatted = format_metrics(metrics)
        assert formatted == {"H@1": 51.2, "H@10": 93.0, "MRR": 64.4}

    def test_format_metrics_accepts_plain_dict(self):
        assert format_metrics({"H@1": 0.5}) == {"H@1": 50.0}

    def test_format_table_alignment_and_columns(self):
        rows = [{"model": "EVA", "H@1": 12.345}, {"model": "DESAlign", "H@1": 50.0}]
        table = format_table(rows)
        lines = table.splitlines()
        assert lines[0].startswith("model")
        assert "12.3" in table and "DESAlign" in table

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_table_with_explicit_columns(self):
        rows = [{"a": 1, "b": 2}]
        table = format_table(rows, columns=["b"])
        assert "a" not in table.splitlines()[0]


class TestExperimentResult:
    def _result(self):
        result = ExperimentResult(experiment="demo", description="demo experiment")
        result.add_row(model="EVA", dataset="FBDB15K", MRR=30.0)
        result.add_row(model="DESAlign", dataset="FBDB15K", MRR=40.0)
        result.add_row(model="DESAlign", dataset="FBYG15K", MRR=35.0)
        return result

    def test_filter_and_column(self):
        result = self._result()
        assert len(result.filter(model="DESAlign")) == 2
        assert result.column("MRR", dataset="FBDB15K") == [30.0, 40.0]

    def test_best_row(self):
        result = self._result()
        assert result.best_row("MRR")["model"] == "DESAlign"
        assert result.best_row("MRR", dataset="FBYG15K")["MRR"] == 35.0

    def test_best_row_without_match_raises(self):
        with pytest.raises(ValueError):
            self._result().best_row("MRR", dataset="missing")

    def test_to_table_contains_header(self):
        table = self._result().to_table()
        assert table.startswith("== demo:")

    def test_to_json_roundtrip(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        payload = result.to_json(path)
        on_disk = json.loads(path.read_text())
        assert json.loads(payload) == on_disk
        assert on_disk["experiment"] == "demo"
        assert len(on_disk["rows"]) == 3


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {"table2", "table3", "table4", "table5", "table6_efficiency",
                    "fig3_left", "fig3_right", "fig4", "fig_energy",
                    "robustness"}
        assert set(EXPERIMENTS) == expected

    def test_list_experiments_descriptions(self):
        listing = dict(list_experiments())
        assert "Table II" in listing["table2"]
        assert "Fig. 4" in listing["fig4"]

    def test_run_experiment_unknown_id(self):
        from repro.experiments import run_experiment
        with pytest.raises(KeyError):
            run_experiment("table99")


class TestRunner:
    def test_scale_overrides(self):
        scale = QUICK_SCALE.with_overrides(num_entities=33, epochs=2)
        assert scale.num_entities == 33
        assert scale.epochs == 2
        assert QUICK_SCALE.num_entities != 33

    def test_build_task_applies_split_parameters(self):
        scale = ExperimentScale(num_entities=40, epochs=1)
        task = build_task("FBDB15K", scale, seed_ratio=0.5, image_ratio=0.3)
        assert task.source.num_entities == 40
        ratio = len(task.train_pairs) / (len(task.train_pairs) + len(task.test_pairs))
        assert abs(ratio - 0.5) < 0.05
        assert task.pair.source.image_coverage() <= 0.35

    def test_run_cell_returns_metrics(self):
        scale = ExperimentScale(num_entities=40, epochs=3)
        task = build_task("FBDB15K", scale, seed_ratio=0.3)
        result = run_cell("EVA", task, scale)
        assert 0.0 <= result.metrics.mrr <= 1.0
        assert result.train_seconds > 0

    def test_train_model_returns_model_and_result(self):
        scale = ExperimentScale(num_entities=40, epochs=2)
        task = build_task("FBDB15K", scale, seed_ratio=0.3)
        model, result = train_model("DESAlign", task, scale)
        similarity = reference_similarity(*model.decode_states())
        assert similarity.shape == (40, 40)
        assert np.isfinite(similarity).all()
        assert result.num_parameters == model.num_parameters()

    def test_run_cell_iterative_flag(self):
        scale = ExperimentScale(num_entities=40, epochs=2, iterative_epochs=2,
                                iterative_rounds=1)
        task = build_task("FBDB15K", scale, seed_ratio=0.3)
        result = run_cell("EVA", task, scale, iterative=True)
        assert len(result.history.pseudo_pairs) == 1
