"""Shared helpers: the benchmark modules on the path and small-size runs."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import workloads  # noqa: E402

# Small enough for a unit test, large enough that every check is meaningful:
# killer keeps N <= 16 so its comparator stays exact.
SMALL = {
    "wide": workloads.WideSizes(n_sites=64, horizon=50, block=10),
    "seeds": workloads.RunSizes(6, 50, 5, "fl-bounded", 2, "iid"),
    "killer": workloads.RunSizes(9, 200, 2, "fl", None, "killer"),
}


@pytest.fixture
def small_run(tmp_path):
    """small_run(name, seed, tracer=None) -> Outcome of a zero-second run,
    which still completes each workload's minimum number of units."""

    def run(name, seed, tracer=None):
        out = workloads.Outcome()
        workloads.build(name, seed, tmp_path, SMALL[name]).run(0.0, tracer, out)
        return out

    return run
