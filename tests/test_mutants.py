"""Checks that prove they bite: each row plants one fault in the package
with monkeypatch and asserts that the named `olfl verify` check, at its
desk scale, fails on it."""
import numpy as np
import pytest

from olfl import sampler
from olfl.adversaries import KillerSource, killer_rows
from olfl.game import ActionRows
from olfl.sampler import RecordedRows
from olfl.verify import check_killer_regression, check_sampler_distribution


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


# (mutant, the object it patches, the attribute it replaces, its replacement, the check that must fail)
MUTANTS = [
    ("killer-realized-shifted", KillerSource, "realized", _realized_always_shifted, check_killer_regression),
    ("counted-draw-less", sampler, "np", _NumpyWith(less_equal=np.less), check_sampler_distribution),
    ("key-search-left", RecordedRows, "__init__", _keys_searched_left, check_sampler_distribution),
]


@pytest.mark.parametrize(
    "owner, name, replacement, check", [row[1:] for row in MUTANTS], ids=[row[0] for row in MUTANTS]
)
def test_verify_check_fails_on_its_mutant(owner, name, replacement, check, monkeypatch):
    monkeypatch.setattr(owner, name, replacement)
    result = check()
    assert not result.passed, result.detail
