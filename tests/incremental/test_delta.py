"""DeltaBatch serialisation and place-preserving task extension."""

import numpy as np
import pytest

from repro.core.task import prepare_task
from repro.data.synthetic import SyntheticPairConfig, generate_pair
from repro.incremental import DeltaBatch, SideDelta, apply_delta


def _growth_delta(task, num_source=2, num_target=1):
    """A small delta touching both sides of ``task``."""
    n_s = task.source.num_entities
    n_t = task.target.num_entities
    return DeltaBatch(
        source=SideDelta(
            entity_names=[f"src-new-{i}" for i in range(num_source)],
            relation_triples=[(n_s, 0, 1), (n_s + num_source - 1, 1, 3)],
            attribute_triples=[(n_s, 0, "fresh")],
        ),
        target=SideDelta(
            entity_names=[f"tgt-new-{i}" for i in range(num_target)],
            relation_triples=[(n_t, 0, 2)],
        ),
        seed_pairs=[(n_s, n_t)],
    )


class TestSerialisation:
    def test_round_trip_preserves_everything(self, tiny_task, tmp_path):
        delta = _growth_delta(tiny_task)
        delta.source.image_features[0] = np.arange(4, dtype=np.float64)
        loaded = DeltaBatch.load(delta.save(tmp_path / "delta.json"))
        assert loaded.source.entity_names == delta.source.entity_names
        assert loaded.source.relation_triples == delta.source.relation_triples
        assert loaded.source.attribute_triples == delta.source.attribute_triples
        assert set(loaded.source.image_features) == {0}
        assert np.array_equal(loaded.source.image_features[0],
                              delta.source.image_features[0])
        assert loaded.target.entity_names == delta.target.entity_names
        assert loaded.seed_pairs == delta.seed_pairs

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            DeltaBatch.from_dict({"source": {}, "extra": 1})
        with pytest.raises(ValueError, match="unknown key"):
            SideDelta.from_dict({"entity_name": ["typo"]})

    def test_invalid_json_is_actionable(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            DeltaBatch.load(path)

    def test_is_empty(self):
        assert DeltaBatch().is_empty()
        assert not DeltaBatch(seed_pairs=[(0, 0)]).is_empty()
        assert not DeltaBatch(
            source=SideDelta(entity_names=["x"])).is_empty()


class TestApplyDelta:
    def test_place_preserving_extension(self, tiny_task):
        delta = _growth_delta(tiny_task, num_source=2, num_target=1)
        app = apply_delta(tiny_task, delta, seed=5)
        task = app.task
        n_s, n_t = app.num_source_before, app.num_target_before
        assert task.source.num_entities == n_s + 2
        assert task.target.num_entities == n_t + 1
        assert np.array_equal(app.new_source_ids, [n_s, n_s + 1])
        assert np.array_equal(app.new_target_ids, [n_t])
        # existing entity ids/names are untouched; new ones append
        assert task.pair.source.entity_names[:n_s] == \
            tiny_task.pair.source.entity_names
        assert task.pair.source.entity_names[n_s:] == ["src-new-0",
                                                       "src-new-1"]
        # the input task itself is never mutated
        assert tiny_task.source.num_entities == n_s
        assert len(tiny_task.pair.source.relation_triples) < \
            len(task.pair.source.relation_triples)

    def test_untouched_feature_rows_bit_identical(self, tiny_task):
        delta = _growth_delta(tiny_task)
        app = apply_delta(tiny_task, delta, seed=5)
        n_s = app.num_source_before
        touched = set(app.touched_source.tolist())
        untouched = [row for row in range(n_s) if row not in touched]
        assert untouched, "delta should leave most rows untouched"
        for modality in ("graph", "relation", "attribute", "vision"):
            old = tiny_task.source.features.features[modality]
            new = app.task.source.features.features[modality]
            assert np.array_equal(old[untouched], new[untouched]), modality

    def test_still_imputed_rows_keep_their_values(self):
        pair = generate_pair(SyntheticPairConfig(
            num_entities=30, num_communities=3, seed=11,
            image_coverage_source=0.3, image_coverage_target=0.3,
            seed_ratio=0.3, name="missing"))
        task = prepare_task(pair, relation_dim=8, attribute_dim=8,
                            structure_dim=8, seed=3)
        imputed = np.flatnonzero(~task.source.features.masks["vision"])
        assert len(imputed), "fixture must have imputed vision rows"
        app = apply_delta(task, _growth_delta(task), seed=5)
        old = task.source.features.features["vision"][imputed]
        new = app.task.source.features.features["vision"][imputed]
        assert np.array_equal(old, new)

    def test_split_stability_and_seed_pairs_extend_train_only(self, tiny_task):
        delta = _growth_delta(tiny_task)
        app = apply_delta(tiny_task, delta, seed=5)
        n_s = app.num_source_before
        n_t = app.num_target_before
        assert np.array_equal(app.task.test_pairs, tiny_task.test_pairs)
        assert np.array_equal(app.task.train_pairs[:-1], tiny_task.train_pairs)
        assert tuple(app.task.train_pairs[-1]) == (n_s, n_t)
        # the extended pair's cached split is carried over, not re-drawn
        train, test = app.task.pair.split()
        assert [(p.source, p.target) for p in test] == \
            [(p.source, p.target) for p in tiny_task.pair.split()[1]]
        assert (train[-1].source, train[-1].target) == (n_s, n_t)

    def test_touched_rows_cover_new_edges_endpoints(self, tiny_task):
        delta = _growth_delta(tiny_task)
        app = apply_delta(tiny_task, delta, seed=5)
        # triples (n_s, 0, 1) and (n_s+1, 1, 3) touch old entities 1 and 3
        assert {1, 3} <= set(app.touched_source.tolist())
        assert 2 in set(app.touched_target.tolist())
        seed_rows = app.seed_rows("source")
        assert set(app.new_source_ids.tolist()) <= set(seed_rows.tolist())
        assert set(app.touched_source.tolist()) <= set(seed_rows.tolist())

    def test_empty_delta_reproduces_task_bit_for_bit(self, tiny_task):
        app = apply_delta(tiny_task, DeltaBatch(), seed=99)
        assert app.task.source.num_entities == tiny_task.source.num_entities
        assert len(app.seed_rows("source")) == 0
        assert len(app.seed_rows("target")) == 0
        for side in ("source", "target"):
            old_side = getattr(tiny_task, side)
            new_side = getattr(app.task, side)
            for modality, values in old_side.features.features.items():
                assert np.array_equal(values,
                                      new_side.features.features[modality])
            assert np.array_equal(old_side.adjacency.toarray(),
                                  new_side.adjacency.toarray())

    def test_out_of_range_references_rejected(self, tiny_task):
        n_s = tiny_task.source.num_entities
        bad = DeltaBatch(source=SideDelta(
            relation_triples=[(n_s + 5, 0, 0)]))
        with pytest.raises(ValueError, match="outside the extended range"):
            apply_delta(tiny_task, bad)
        bad = DeltaBatch(source=SideDelta(
            attribute_triples=[(n_s, 0, "v")]))
        with pytest.raises(ValueError, match="outside the extended range"):
            apply_delta(tiny_task, bad)
        bad = DeltaBatch(target=SideDelta(
            image_features={tiny_task.target.num_entities: np.ones(4)}))
        with pytest.raises(ValueError, match="outside the extended range"):
            apply_delta(tiny_task, bad)

    def test_vocabulary_growth(self, tiny_task):
        n_r = tiny_task.pair.source.num_relations
        delta = DeltaBatch(source=SideDelta(
            entity_names=["n"],
            relation_triples=[(tiny_task.source.num_entities, n_r + 2, 0)]))
        app = apply_delta(tiny_task, delta)
        assert app.task.pair.source.num_relations == n_r + 3
