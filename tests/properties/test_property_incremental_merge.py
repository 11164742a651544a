"""Property: the ingest re-decode equals a full decode, bit for bit.

``IncrementalAligner._selective_redecode`` keeps the stored top-k of every
old row whose states did not move and computes only its dirty cells: new
or moved targets, and targets that entered its candidate set, padding
included.  It merges them with the stored entries that are still
candidates, by (score desc, id asc), and keeps the merge when its k-th
entry ranks at or above the stored k-th entry.  Every other row is
re-decoded in full.

Over chains of 1–3 ingests of quantised states (1–3 propagation rounds of
entries in {-1, 0, 1}, so rows tie exactly, and all-zero rows tie every
cell at 0.0), with sources and targets arriving and moving, candidate
entries entering and leaving, and rows holding fewer than ``k``
candidates, each step's table must equal ``blockwise_topk`` over that
step's states and candidates: ``indices`` exactly and ``scores`` as
uint64 views.

Each of these mutants fails it:

* top-k kernels that keep ``np.argpartition``'s tied cells at the k-th
  place (a stored row is then not the canonical top-k the merge assumes);
* dirty cells taken over the unpadded candidate sets (a moved padding
  target keeps its stale score);
* a merge without the boundary rule (a stored entry that left or scored
  lower lets an unstored old cell belong to the new top-k).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.ann import RowCandidates, _normalize_rows
from repro.core.similarity import blockwise_topk
from repro.incremental.aligner import IncrementalAligner

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def ingest_chain(draw):
    return dict(
        rounds=draw(st.integers(min_value=1, max_value=3)),
        dim=draw(st.integers(min_value=1, max_value=4)),
        k=draw(st.integers(min_value=1, max_value=6)),
        steps=draw(st.integers(min_value=1, max_value=3)),
        num_source=draw(st.integers(min_value=1, max_value=12)),
        num_target=draw(st.integers(min_value=1, max_value=14)),
        density=draw(st.floats(min_value=0.05, max_value=0.9)),
        churn=draw(st.floats(min_value=0.0, max_value=0.5)),
        seed=draw(st.integers(min_value=0, max_value=2 ** 31 - 1)),
    )


def _states(rng, rows: int, dim: int, rounds: int) -> list[np.ndarray]:
    return [rng.integers(-1, 2, size=(rows, dim)).astype(np.float64)
            for _ in range(rounds)]


def _grow(rng, states, added: int, churn: float):
    """Append ``added`` rows and redraw a ``churn`` share of the old ones."""
    rows, dim = states[0].shape
    moved = rng.random(rows) < churn
    grown = []
    for state, fresh in zip(states, _states(rng, rows + added, dim,
                                            len(states))):
        state = np.concatenate([state, fresh[rows:]])
        state[:rows][moved] = fresh[:rows][moved]
        grown.append(state)
    return grown


def _changed(new, old) -> np.ndarray:
    """Old rows whose states moved in any round (what ingest computes)."""
    changed = np.zeros(len(old[0]), dtype=bool)
    for new_state, old_state in zip(new, old):
        changed |= np.any(new_state[:len(old_state)] != old_state, axis=1)
    return changed


def _candidates(mask: np.ndarray) -> RowCandidates:
    rows, cols = np.nonzero(mask)
    return RowCandidates.from_pairs(rows, cols, *mask.shape)


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


class TestMergedRedecodeMatchesFullDecode:
    @SETTINGS
    @given(ingest_chain())
    def test_every_step_equals_a_full_decode(self, case):
        rng = np.random.default_rng(case["seed"])
        k, churn = case["k"], case["churn"]
        src = _states(rng, case["num_source"], case["dim"], case["rounds"])
        tgt = _states(rng, case["num_target"], case["dim"], case["rounds"])
        mask = rng.random((case["num_source"], case["num_target"])) \
            < case["density"]
        candidates = _candidates(mask)
        table = blockwise_topk(src, tgt, k=k, row_candidates=candidates)

        for _ in range(case["steps"]):
            new_src = _grow(rng, src, int(rng.integers(0, 4)), churn)
            new_tgt = _grow(rng, tgt, int(rng.integers(0, 4)), churn)
            grown = rng.random((len(new_src[0]), len(new_tgt[0]))) \
                < case["density"]
            keep = rng.random(mask.shape) >= churn
            grown[:mask.shape[0], :mask.shape[1]][keep] = mask[keep]
            new_candidates = _candidates(grown)

            table, rows_decoded = IncrementalAligner._selective_redecode(
                table, candidates, new_candidates,
                [_normalize_rows(s) for s in new_src],
                [_normalize_rows(s) for s in new_tgt],
                _changed(new_src, src), _changed(new_tgt, tgt), k,
                full=False)
            full = blockwise_topk(new_src, new_tgt, k=k,
                                  row_candidates=new_candidates)

            assert np.array_equal(table.indices, full.indices)
            assert np.array_equal(_bits(table.scores), _bits(full.scores))
            assert 0 <= rows_decoded <= len(new_src[0])
            src, tgt, mask, candidates = new_src, new_tgt, grown, \
                new_candidates
