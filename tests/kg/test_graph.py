"""Tests for the MultiModalKG data structure."""

import numpy as np
import pytest

from repro.kg import AttributeTriple, MultiModalKG, RelationTriple


@pytest.fixture
def small_graph():
    return MultiModalKG.from_triples(
        num_entities=5,
        relation_triples=[(0, 0, 1), (1, 1, 2), (2, 0, 3), (0, 2, 4), (1, 1, 2)],
        attribute_triples=[(0, 0, "a"), (0, 1, "b"), (2, 1, "c")],
        image_features={0: [1.0, 0.0], 3: [0.5, 0.5]},
        name="toy",
    )


class TestConstruction:
    def test_counts(self, small_graph):
        assert small_graph.num_entities == 5
        assert small_graph.num_relation_triples == 5
        assert small_graph.num_attribute_triples == 3
        assert small_graph.num_images == 2
        assert small_graph.num_relations == 3
        assert small_graph.num_attributes == 2

    def test_rejects_unknown_entity_in_relation(self):
        with pytest.raises(ValueError):
            MultiModalKG.from_triples(num_entities=2, relation_triples=[(0, 0, 7)])

    def test_rejects_unknown_entity_in_attribute(self):
        with pytest.raises(ValueError):
            MultiModalKG.from_triples(num_entities=2, relation_triples=[],
                                      attribute_triples=[(5, 0, "x")])

    def test_rejects_unknown_image_entity(self):
        with pytest.raises(ValueError):
            MultiModalKG.from_triples(num_entities=2, relation_triples=[],
                                      image_features={9: [1.0]})

    def test_from_triples_infers_vocabularies(self, small_graph):
        assert small_graph.num_relations == 1 + max(t.relation
                                                    for t in small_graph.relation_triples)


class TestStructure:
    def test_adjacency_is_symmetric_binary(self, small_graph):
        adjacency = small_graph.adjacency_matrix().toarray()
        assert np.allclose(adjacency, adjacency.T)
        assert set(np.unique(adjacency)) <= {0.0, 1.0}
        assert np.all(np.diag(adjacency) == 0)

    def test_weighted_adjacency_counts_parallel_edges(self, small_graph):
        weighted = small_graph.adjacency_matrix(weighted=True)
        assert weighted[1, 2] == 2.0

    def test_neighbours(self, small_graph):
        assert small_graph.neighbours(0) == {1, 4}
        assert small_graph.neighbours(2) == {1, 3}

    def test_degree_matches_adjacency(self, small_graph):
        assert np.allclose(small_graph.degree(),
                           small_graph.adjacency_matrix().toarray().sum(axis=1))

    def test_self_loops_are_dropped(self):
        graph = MultiModalKG.from_triples(num_entities=2, relation_triples=[(0, 0, 0)])
        assert graph.adjacency_matrix().sum() == 0


class TestCoverageAndMasks:
    def test_coverage_fractions(self, small_graph):
        assert small_graph.image_coverage() == pytest.approx(2 / 5)
        assert small_graph.attribute_coverage() == pytest.approx(2 / 5)

    def test_statistics_keys_match_table1(self, small_graph):
        stats = small_graph.statistics()
        for key in ("entities", "relations", "attributes", "relation_triples",
                    "attribute_triples", "images"):
            assert key in stats

    def test_modality_mask_shapes_and_content(self, small_graph):
        masks = small_graph.modality_mask()
        assert masks["graph"].all()
        assert masks["attribute"].tolist() == [True, False, True, False, False]
        assert masks["vision"].tolist() == [True, False, False, True, False]


class TestInconsistencyManipulation:
    def test_with_image_ratio_keeps_requested_fraction(self, small_graph):
        rng = np.random.default_rng(0)
        reduced = small_graph.with_image_ratio(0.2, rng)
        assert reduced.num_images == 1
        # The original graph is untouched.
        assert small_graph.num_images == 2

    def test_with_image_ratio_one_keeps_all(self, small_graph):
        reduced = small_graph.with_image_ratio(1.0, np.random.default_rng(0))
        assert reduced.num_images == small_graph.num_images

    def test_with_image_ratio_validates_range(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.with_image_ratio(1.5, np.random.default_rng(0))

    def test_with_attribute_ratio_drops_whole_entities(self, small_graph):
        reduced = small_graph.with_attribute_ratio(0.2, np.random.default_rng(0))
        remaining = reduced.entities_with_attributes()
        assert len(remaining) <= 1
        # Triples for dropped entities disappear entirely.
        for triple in reduced.attribute_triples:
            assert triple.entity in remaining

    def test_manipulations_preserve_structure(self, small_graph):
        reduced = small_graph.with_attribute_ratio(0.0, np.random.default_rng(0))
        assert np.allclose(reduced.adjacency_matrix().toarray(),
                           small_graph.adjacency_matrix().toarray())


class TestTripleTypes:
    def test_relation_triple_is_frozen(self):
        triple = RelationTriple(0, 1, 2)
        with pytest.raises(AttributeError):
            triple.head = 5

    def test_attribute_triple_fields(self):
        triple = AttributeTriple(1, 2, "value")
        assert (triple.entity, triple.attribute, triple.value) == (1, 2, "value")
