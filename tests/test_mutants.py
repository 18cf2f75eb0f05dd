"""Checks that prove they bite: each row plants one fault in the package
with monkeypatch and asserts that the named `olfl verify` check, at its
desk scale, fails on it."""
import numpy as np
import pytest

from olfl import sampler
from olfl.adversaries import KillerSource, killer_rows
from olfl.game import ActionRows
from olfl.learners import LearnerBatch
from olfl.sampler import PREFETCH_TRIALS, RecordedRows, UniformStreams
from olfl.surrogate import Workspace
from olfl.verify import (
    check_doubling_mechanics,
    check_killer_regression,
    check_learner_dominance,
    check_sampler_distribution,
)


def _realized_always_shifted(self, actions):
    """KillerSource.realized shifting the history by one trial even when the
    adversary moves second, as it does only when it moves first."""
    ptr = actions.ptr
    return killer_rows(self.n_sites, ActionRows(np.append(0, ptr[:-1]), actions.sites[: ptr[-2]]))


class _NumpyWith:
    """numpy as a module sees it through its `np` name, with some of its
    functions swapped."""

    def __init__(self, **swaps):
        self.__dict__.update(swaps)

    def __getattr__(self, name):
        return getattr(np, name)


class _LeftSearch(np.ndarray):
    """Keys whose search puts a needle before the keys equal to it."""

    def searchsorted(self, v, side="left", sorter=None):
        return np.asarray(self).searchsorted(v, side="left", sorter=sorter)


_init = RecordedRows.__init__


def _keys_searched_left(self, n, rows=None):
    """RecordedRows whose key search takes side="left" for side="right"."""
    _init(self, n, rows)
    self._flat = self._flat.view(_LeftSearch)


_take = UniformStreams.take


def _padding_zeroed(self, counts, ahead=PREFETCH_TRIALS):
    """UniformStreams.take with each row's padding, past its counts[r]
    uniforms, zeroed instead of repeating its last uniform."""
    u = _take(self, counts, ahead)
    return u * (np.arange(u.shape[1]) < np.broadcast_to(counts, len(u))[:, None])


_advance = LearnerBatch._advance_segments


def _segment_plus_two(self, values):
    """Doubling restarts that count two segments each."""
    before = self.segment.copy()
    _advance(self, values)
    self.segment += self.segment - before


def _restart_scale_x4(self, values):
    """Doubling restarts that multiply the scale guess by 4, with the budget
    and tuning of that scale."""
    before = self.scale.copy()
    _advance(self, values)
    self.scale[self.scale != before] *= 2
    self.cardinality[:] = self.budget_for(self.scale)
    self._tune()


def _no_weight_reset(self, values):
    """Doubling restarts that keep the weights they crossed at."""
    kept = self.w.copy()
    _advance(self, values)
    self.w[:] = kept


_workspace_init = Workspace.__init__


def _row_offsets_zero(self, shape, dummy=None):
    """A Workspace whose S-row offsets are zero, so every row gathers row 0's
    permutation."""
    _workspace_init(self, shape, dummy)
    if self.offsets is not None:
        self.offsets = np.zeros_like(self.offsets)


# (mutant, the object it patches, the attribute it replaces, its replacement, the check that must fail)
MUTANTS = [
    ("killer-realized-shifted", KillerSource, "realized", _realized_always_shifted, check_killer_regression),
    ("counted-draw-less", sampler, "np", _NumpyWith(less_equal=np.less), check_sampler_distribution),
    ("key-search-left", RecordedRows, "__init__", _keys_searched_left, check_sampler_distribution),
    ("padding-zeroed", UniformStreams, "take", _padding_zeroed, check_sampler_distribution),
    ("segment-plus-two", LearnerBatch, "_advance_segments", _segment_plus_two, check_doubling_mechanics),
    ("restart-scale-x4", LearnerBatch, "_advance_segments", _restart_scale_x4, check_doubling_mechanics),
    ("no-weight-reset", LearnerBatch, "_advance_segments", _no_weight_reset, check_doubling_mechanics),
    ("row-offsets-zero", Workspace, "__init__", _row_offsets_zero, check_learner_dominance),
]


@pytest.mark.parametrize(
    "owner, name, replacement, check", [row[1:] for row in MUTANTS], ids=[row[0] for row in MUTANTS]
)
def test_verify_check_fails_on_its_mutant(owner, name, replacement, check, monkeypatch):
    monkeypatch.setattr(owner, name, replacement)
    result = check()
    assert not result.passed, result.detail
