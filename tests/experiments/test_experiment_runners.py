"""Smoke tests for every table/figure experiment runner at a tiny scale.

These tests verify that each runner produces the row/column structure the
paper's artefact requires (datasets × ratios × models, ablation variants,
iteration grids) and that the values are well-formed percentages.  They use
a deliberately tiny scale so the whole module runs in well under a minute;
the benchmarks directory runs the same runners at a larger scale.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentScale,
    ablation_variants,
    run_efficiency,
    run_energy_analysis,
    run_fig3_ablation,
    run_fig3_weak_supervision,
    run_fig4_propagation,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)

TINY = ExperimentScale(num_entities=40, epochs=4, iterative_epochs=2, iterative_rounds=1)


def _assert_percentage_columns(rows):
    for row in rows:
        for key in ("H@1", "H@10", "MRR"):
            if key in row:
                assert 0.0 <= row[key] <= 100.0


class TestTable2:
    def test_structure(self):
        result = run_table2(scale=TINY, datasets=("FBDB15K",), text_ratios=(0.2, 0.6),
                            models=("EVA", "DESAlign"))
        assert len(result.rows) == 4
        assert {row["text_ratio"] for row in result.rows} == {0.2, 0.6}
        assert {row["model"] for row in result.rows} == {"EVA", "DESAlign"}
        _assert_percentage_columns(result.rows)


class TestTable3:
    def test_structure(self):
        result = run_table3(scale=TINY, datasets=("DBP15K_FR_EN",), image_ratios=(0.05,),
                            models=("MEAformer", "DESAlign"))
        assert len(result.rows) == 2
        assert all(row["dataset"] == "DBP15K_FR_EN" for row in result.rows)
        _assert_percentage_columns(result.rows)


class TestTable4:
    def test_basic_and_iterative_blocks(self):
        result = run_table4(scale=TINY, datasets=("FBDB15K",), seed_ratios=(0.5,),
                            basic_models=("GCN-align", "DESAlign"),
                            iterative_models=("DESAlign",), include_iterative=True)
        strategies = {row["strategy"] for row in result.rows}
        assert strategies == {"basic", "iterative"}
        assert len(result.filter(strategy="basic")) == 2
        assert len(result.filter(strategy="iterative")) == 1

    def test_iterative_block_can_be_skipped(self):
        result = run_table4(scale=TINY, datasets=("FBYG15K",), seed_ratios=(0.2,),
                            basic_models=("EVA",), include_iterative=False)
        assert {row["strategy"] for row in result.rows} == {"basic"}


class TestTable5:
    def test_structure(self):
        result = run_table5(scale=TINY, datasets=("DBP15K_JA_EN",),
                            non_iterative_models=("EVA", "DESAlign"),
                            iterative_models=("DESAlign",), include_iterative=True)
        assert len(result.filter(strategy="non-iterative")) == 2
        assert len(result.filter(strategy="iterative")) == 1
        _assert_percentage_columns(result.rows)


class TestEfficiency:
    def test_rows_include_propagation_cost(self):
        result = run_efficiency(scale=TINY, models=("EVA", "DESAlign"))
        models = [row["model"] for row in result.rows]
        assert "SemanticPropagation (decode only)" in models
        trained = [row for row in result.rows if row["model"] in ("EVA", "DESAlign")]
        assert all(row["train_seconds"] > 0 for row in trained)
        propagation_row = result.filter(model="SemanticPropagation (decode only)")[0]
        desalign_row = result.filter(model="DESAlign")[0]
        assert propagation_row["decode_seconds"] < desalign_row["train_seconds"]


class TestFig3Ablation:
    def test_variants_cover_modalities_losses_and_propagation(self):
        variants = ablation_variants()
        assert "full" in variants
        assert "w/o image" in variants and "w/o PP" in variants
        assert variants["w/o PP"].propagation_iters == 0
        assert variants["w/o image"].modalities == ("graph", "relation", "attribute")

    def test_runner_structure(self):
        result = run_fig3_ablation(scale=TINY, dataset="DBP15K_FR_EN",
                                   variants=("full", "w/o PP", "w/o image"))
        assert {row["variant"] for row in result.rows} == {"full", "w/o PP", "w/o image"}
        _assert_percentage_columns(result.rows)


class TestFig3WeakSupervision:
    def test_structure(self):
        result = run_fig3_weak_supervision(scale=TINY, datasets=("FBDB15K",),
                                           seed_ratios=(0.05, 0.23),
                                           models=("EVA", "DESAlign"))
        assert len(result.rows) == 4
        assert {row["seed_ratio"] for row in result.rows} == {0.05, 0.23}


class TestFig4:
    def test_iteration_grid_is_swept_without_retraining(self):
        result = run_fig4_propagation(scale=TINY,
                                      settings=(("FBDB15K", 0.3, 0.3),),
                                      iteration_grid=(0, 1, 3))
        assert [row["iterations"] for row in result.rows] == [0, 1, 3]
        _assert_percentage_columns(result.rows)


class TestEnergyAnalysis:
    def test_variants_and_monotone_propagation_decay(self):
        result = run_energy_analysis(scale=TINY, dataset="FBDB15K",
                                     image_ratio=0.3, text_ratio=0.3)
        variants = {row["variant"] for row in result.rows}
        assert "MMSL (full objective)" in variants
        assert "naive (final task loss only)" in variants
        decay = [row["energy_final"] for row in result.rows
                 if row["variant"] == "propagation energy decay"]
        assert len(decay) == 6
        assert all(decay[i + 1] <= decay[i] + 1e-9 for i in range(len(decay) - 1))
        ratios = [row["retention_ratio"] for row in result.rows
                  if row["variant"] != "propagation energy decay"]
        assert all(np.isfinite(ratios))
