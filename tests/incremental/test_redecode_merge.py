"""The ingest re-decode step on hand-built tables, against a full decode.

``IncrementalAligner._selective_redecode`` takes the old table and
candidates, the new candidates and normalised states, and which old rows
and targets moved.  These cases pin the two rules its merge rests on: the
padding a decode adds to a short candidate row is scored like any other
cell, and a merged row stands only when its k-th entry ranks at or above
the stored k-th entry.
"""

import numpy as np

from repro.core.ann import RowCandidates, _normalize_rows, flops_counter
from repro.core.similarity import blockwise_topk
from repro.incremental.aligner import IncrementalAligner


def _redecode(old_table, candidates, src, tgt, moved_targets, k):
    changed_tgt = np.zeros(len(tgt), dtype=bool)
    changed_tgt[moved_targets] = True
    with flops_counter() as counter:
        table, rows_decoded = IncrementalAligner._selective_redecode(
            old_table, candidates, candidates, [_normalize_rows(src)],
            [_normalize_rows(tgt)], np.zeros(len(src), dtype=bool),
            changed_tgt, k, full=False)
    return table, rows_decoded, counter.cells


class TestPaddedCellsAreCells:
    def test_a_moved_padding_target_is_rescored(self):
        """Candidates ``[3, 13, 14]`` pad to ``[0, 1, 2, 3, 4, 13, 14]`` at k=7.

        Targets 0 and 4 are padding, so their cells are in the stored row.
        When they move, both cells are dirty: recomputed and merged, not
        left with their old scores.
        """
        rng = np.random.default_rng(0)
        src = rng.normal(size=(1, 4))
        old_tgt = rng.normal(size=(16, 4))
        new_tgt = old_tgt.copy()
        new_tgt[[0, 4]] = rng.normal(size=(2, 4))
        candidates = RowCandidates.from_pairs([0, 0, 0], [3, 13, 14], 1, 16)
        old_table = blockwise_topk(src, old_tgt, k=7,
                                   row_candidates=candidates)
        full = blockwise_topk(src, new_tgt, k=7, row_candidates=candidates)
        assert not np.array_equal(old_table.indices, full.indices)

        table, rows_decoded, cells = _redecode(old_table, candidates, src,
                                               new_tgt, [0, 4], k=7)
        assert np.array_equal(table.indices, full.indices)
        assert np.array_equal(table.scores, full.scores)
        # The row merged: only the two moved cells were computed.
        assert rows_decoded == 0
        assert cells == 2


class TestBoundaryRule:
    def test_a_stored_entry_scoring_lower_forces_a_full_redecode(self):
        """Row 0's best target moves to the bottom; row 1 never stored it.

        Row 0's merge would rank the moved cell second, behind target 1,
        but target 2 (an old cell outside the stored top-2) beats it: the
        merged k-th entry ranks below the stored one, so the row is
        re-decoded in full.  Row 1's merge keeps its stored k-th entry and
        stands.
        """
        src = np.array([[1.0, 0.0], [0.0, 1.0]])
        old_tgt = np.array([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8], [0.4, 0.9],
                            [-0.5, -0.5]])
        new_tgt = old_tgt.copy()
        new_tgt[0] = [-1.0, 0.0]
        candidates = RowCandidates.from_pairs([0, 0, 0, 0, 1, 1, 1, 1],
                                              [0, 1, 2, 3, 0, 1, 2, 3], 2, 5)
        old_table = blockwise_topk(src, old_tgt, k=2,
                                   row_candidates=candidates)
        assert old_table.indices.tolist() == [[0, 1], [3, 2]]

        table, rows_decoded, cells = _redecode(old_table, candidates, src,
                                               new_tgt, [0], k=2)
        full = blockwise_topk(src, new_tgt, k=2, row_candidates=candidates)
        assert table.indices.tolist() == full.indices.tolist() == [[1, 2],
                                                                   [3, 2]]
        assert np.array_equal(table.scores, full.scores)
        assert rows_decoded == 1
        # One dirty cell per row, then row 0's four cells in full.
        assert cells == 2 + 4
