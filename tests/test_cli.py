"""Tests for the command-line interface."""

import functools
import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import list_experiments, registry


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "DESAlign"
        assert args.dataset == "FBDB15K"
        assert not args.iterative

    def test_train_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "NotAModel"])

    def test_experiment_rejects_unknown_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "FBDB15K" in output
        assert "DBP15K_FR_EN" in output
        assert "60 splits" in output

    def test_train_command_prints_metrics(self, capsys):
        exit_code = main(["train", "--model", "EVA", "--dataset", "FBYG15K",
                          "--entities", "40", "--epochs", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "model=EVA" in output
        assert "H@1=" in output

    def test_experiment_command_writes_json(self, capsys, tmp_path):
        output_path = tmp_path / "fig4.json"
        exit_code = main(["experiment", "fig4", "--entities", "40", "--epochs", "2",
                          "--output", str(output_path)])
        assert exit_code == 0
        assert "fig4" in capsys.readouterr().out
        payload = json.loads(output_path.read_text())
        assert payload["experiment"] == "fig4"
        assert payload["rows"]

    def test_train_command_with_ivf_candidates(self, capsys):
        exit_code = main(["train", "--model", "DESAlign", "--dataset", "FBDB15K",
                          "--entities", "40", "--epochs", "2",
                          "--candidates", "ivf"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "model=DESAlign" in output
        assert "H@1=" in output

    def test_train_rejects_unknown_candidates(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--candidates", "faiss"])


def write_spec(tmp_path, **overrides):
    """A tiny runnable spec JSON; overrides replace whole sections."""
    payload = {
        "data": {"dataset": "FBDB15K", "num_entities": 36, "seed_ratio": 0.3},
        "model": {"name": "DESAlign", "hidden_dim": 16},
        "training": {"epochs": 2, "eval_every": 0, "seed": 0},
        "decode": {"k": 4},
    }
    payload.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return path


class TestRunCommand:
    def test_run_prints_metrics_and_saves_artifact(self, capsys, tmp_path):
        spec_path = write_spec(tmp_path)
        artifact = tmp_path / "artifact"
        metrics_path = tmp_path / "metrics.json"
        exit_code = main(["run", "--config", str(spec_path),
                          "--save", str(artifact),
                          "--output", str(metrics_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "model=DESAlign" in output
        assert "H@1=" in output
        for filename in ("spec.json", "params.npz", "store/store.json"):
            assert (artifact / filename).exists(), filename
        payload = json.loads(metrics_path.read_text())
        assert payload["spec"]["model"]["name"] == "DESAlign"
        assert 0.0 <= payload["metrics"]["H@1"] <= 1.0
        assert "train_seconds" in payload["metrics"]

    def test_run_rejects_illegal_spec(self, tmp_path):
        spec_path = write_spec(
            tmp_path, decode={"ranking": "csls", "candidates": "ivf"})
        with pytest.raises(ValueError, match="CSLS"):
            main(["run", "--config", str(spec_path)])

    def test_run_rejects_unknown_keys(self, tmp_path):
        spec_path = write_spec(tmp_path, optimiser={"lr": 0.1})
        with pytest.raises(ValueError, match="unknown top-level key"):
            main(["run", "--config", str(spec_path)])

    def test_run_matches_equivalent_legacy_train_invocation(self, capsys, tmp_path):
        """Acceptance: spec-driven run == direct Trainer path on H@1/H@10/MRR."""
        from repro.core.config import DESAlignConfig, TrainingConfig
        from repro.core.model import DESAlign
        from repro.core.task import prepare_task
        from repro.core.trainer import Trainer
        from repro.data.benchmarks import load_benchmark

        spec_path = write_spec(tmp_path)
        assert main(["run", "--config", str(spec_path)]) == 0
        run_metrics_line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("metrics:"))

        pair = load_benchmark("FBDB15K", seed_ratio=0.3, num_entities=36)
        task = prepare_task(pair, structure_dim=16, seed=0)
        model = DESAlign(task, DESAlignConfig(hidden_dim=16, seed=0))
        legacy = Trainer(model, task,
                         TrainingConfig(epochs=2, eval_every=0, seed=0)).fit()
        assert run_metrics_line == f"metrics: {legacy.metrics}"


class TestAlignCommand:
    @pytest.fixture()
    def artifact(self, tmp_path):
        spec_path = write_spec(tmp_path)
        directory = tmp_path / "artifact"
        assert main(["run", "--config", str(spec_path),
                     "--save", str(directory)]) == 0
        return directory

    def test_align_emits_json(self, artifact, capsys):
        assert main(["align", "--artifact", str(artifact), "--k", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 3
        assert payload["approximate"] is False
        assert len(payload["alignments"]) == 36
        assert len(payload["alignments"][0]["targets"]) == 3

    def test_align_emits_tsv_for_selected_entities(self, artifact, capsys, tmp_path):
        output = tmp_path / "pairs.tsv"
        assert main(["align", "--artifact", str(artifact), "--k", "2",
                     "--entities", "0,5", "--format", "tsv",
                     "--output", str(output)]) == 0
        lines = output.read_text().strip().splitlines()
        assert lines[0] == "source\trank\ttarget\tscore"
        assert len(lines) == 1 + 2 * 2
        assert lines[1].split("\t")[0] == "0"

    def test_align_missing_artifact_fails(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["align", "--artifact", str(tmp_path / "nope")])

    def test_train_save_then_align(self, capsys, tmp_path):
        directory = tmp_path / "trained"
        assert main(["train", "--model", "DESAlign", "--dataset", "FBDB15K",
                     "--entities", "36", "--epochs", "2",
                     "--save", str(directory)]) == 0
        assert main(["align", "--artifact", str(directory), "--k", "2"]) == 0
        output = capsys.readouterr().out
        assert '"alignments"' in output

    def test_align_with_num_workers_matches_default(self, artifact, capsys):
        assert main(["align", "--artifact", str(artifact), "--k", "3"]) == 0
        baseline = json.loads(capsys.readouterr().out)
        assert main(["align", "--artifact", str(artifact), "--k", "3",
                     "--num-workers", "2"]) == 0
        assert json.loads(capsys.readouterr().out) == baseline


class TestIngestCommand:
    @pytest.fixture()
    def ivf_artifact(self, tmp_path):
        spec_path = write_spec(tmp_path, decode={
            "k": 4, "candidates": "ivf",
            "ann": {"n_clusters": 4, "nprobe": 2}})
        directory = tmp_path / "artifact"
        assert main(["run", "--config", str(spec_path),
                     "--save", str(directory)]) == 0
        return directory

    def test_ingest_folds_a_delta_and_saves(self, ivf_artifact, capsys,
                                            tmp_path):
        from repro.pipeline import Aligner

        n_source, _ = Aligner.load(ivf_artifact).topk(4).shape
        delta_path = tmp_path / "delta.json"
        delta_path.write_text(json.dumps({
            "source": {"entity_names": ["cli-new"],
                       "relation_triples": [[n_source, 0, 1]]}}))
        updated = tmp_path / "updated"
        assert main(["ingest", "--artifact", str(ivf_artifact),
                     "--delta", str(delta_path),
                     "--out", str(updated)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["generation"] == 1
        assert payload["num_new_source"] == 1
        assert payload["num_new_target"] == 0
        assert payload["rows_decoded"] > 0
        assert payload["artifact"] == str(updated)
        # the promoted artifact serves the extended id range
        loaded = Aligner.load(updated)
        assert loaded.rank([n_source], 4).target_ids.shape == (1, 4)

    def test_ingest_default_out_is_artifact_updated(self, ivf_artifact,
                                                    capsys, tmp_path):
        delta_path = tmp_path / "empty.json"
        delta_path.write_text(json.dumps({}))
        assert main(["ingest", "--artifact", str(ivf_artifact),
                     "--delta", str(delta_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["noop"] is True
        assert payload["artifact"] == str(ivf_artifact) + "-updated"


#: Per-experiment grid reductions for the CLI smoke run: same runners, same
#: code paths, but one dataset / ratio / model row each so the whole registry
#: smokes in seconds.  Keys must cover the registry exactly (guard below).
SMOKE_KWARGS = {
    "table2": dict(datasets=("FBDB15K",), text_ratios=(0.4,),
                   models=("EVA", "DESAlign")),
    "table3": dict(datasets=("DBP15K_FR_EN",), image_ratios=(0.2,),
                   models=("DESAlign",)),
    "table4": dict(datasets=("FBDB15K",), seed_ratios=(0.3,),
                   basic_models=("GCN-align", "DESAlign"),
                   include_iterative=False),
    "table5": dict(datasets=("DBP15K_JA_EN",), non_iterative_models=("EVA",),
                   include_iterative=False),
    "table6_efficiency": dict(models=("DESAlign",), decode_scales=(120,),
                              train_entities=60),
    "fig3_left": dict(variants=("full", "w/o PP")),
    "fig3_right": dict(datasets=("FBDB15K",), seed_ratios=(0.2,),
                       models=("DESAlign",)),
    "fig4": dict(settings=(("FBDB15K", 0.3, None),), iteration_grid=(0, 1)),
    "fig_energy": dict(),
    "robustness": dict(corruptions=("modality_dropout",),
                       severities=(0.0, 0.5), models=("DESAlign",)),
}


class TestExperimentRegistrySmoke:
    def test_smoke_grid_covers_the_whole_registry(self):
        assert set(SMOKE_KWARGS) == set(registry.EXPERIMENTS)

    def test_every_registry_entry_is_well_formed(self):
        for experiment_id, (runner, description) in registry.EXPERIMENTS.items():
            assert callable(runner), experiment_id
            assert isinstance(description, str) and description, experiment_id
        listed = dict(list_experiments())
        assert set(listed) == set(registry.EXPERIMENTS)

    @pytest.mark.parametrize("experiment_id",
                             [key for key, _ in list_experiments()])
    def test_cli_smoke_runs_every_registered_experiment(
            self, experiment_id, capsys, tmp_path, monkeypatch):
        runner, description = registry.EXPERIMENTS[experiment_id]
        reduced = functools.partial(runner, **SMOKE_KWARGS[experiment_id])
        monkeypatch.setitem(registry.EXPERIMENTS, experiment_id,
                            (reduced, description))
        output_path = tmp_path / f"{experiment_id}.json"
        exit_code = main(["experiment", experiment_id,
                          "--entities", "32", "--epochs", "1",
                          "--output", str(output_path)])
        assert exit_code == 0
        assert capsys.readouterr().out.strip()
        payload = json.loads(output_path.read_text())
        assert payload["rows"], experiment_id
        for row in payload["rows"]:
            for key in ("H@1", "H@10", "MRR"):
                if key in row:
                    assert 0.0 <= row[key] <= 100.0
