"""Checks that prove they bite: each row plants one fault in the package
with monkeypatch and asserts that the named `olfl verify` check, at its
desk scale, fails on it."""
import numpy as np
import pytest

from olfl.adversaries import KillerSource, killer_rows
from olfl.game import ActionRows
from olfl.verify import check_killer_regression


def _realized_always_shifted(self, actions):
    """KillerSource.realized shifting the history by one trial even when the
    adversary moves second, as it does only when it moves first."""
    ptr = actions.ptr
    return killer_rows(self.n_sites, ActionRows(np.append(0, ptr[:-1]), actions.sites[: ptr[-2]]))


# (mutant, the class it patches, the attribute it replaces, its replacement, the check that must fail)
MUTANTS = [
    ("killer-realized-shifted", KillerSource, "realized", _realized_always_shifted, check_killer_regression),
]


@pytest.mark.parametrize(
    "owner, name, replacement, check", [row[1:] for row in MUTANTS], ids=[row[0] for row in MUTANTS]
)
def test_verify_check_fails_on_its_mutant(owner, name, replacement, check, monkeypatch):
    monkeypatch.setattr(owner, name, replacement)
    result = check()
    assert not result.passed, result.detail
