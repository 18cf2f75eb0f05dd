"""Tracing arithmetic and patch hygiene of the benchmark's span tracer.

Run with `python -m pytest benchmark/tests` from the repository root.
"""
import sys

import olfl  # conftest puts src/ and the benchmark modules on the path
import spans


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self):
        return next(self.instants)


def test_self_time_is_duration_minus_child_spans():
    # outer [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    tracer.open("outer")
    tracer.open("a")
    tracer.open("g")
    tracer.close()
    tracer.close()
    tracer.open("b")
    tracer.close()
    tracer.close()
    assert tracer.self_s == {"g": 1.0, "a": 2.0, "b": 4.0, "outer": 3.0}
    assert tracer.calls == {"g": 1, "a": 1, "b": 1, "outer": 1}
    assert sum(tracer.self_s.values()) == 10.0  # self times account for the root span


def test_outermost_span_absorbs_nested_calls_of_the_same_layer():
    tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 6.0]))
    tracer.enabled = True
    child = tracer.wrap("child", lambda: None)
    inner = tracer.wrap("layer", lambda: child(), outermost=True)
    outer = tracer.wrap("layer", lambda: inner(), outermost=True)
    outer()
    assert tracer.calls == {"child": 1, "layer": 1}
    assert tracer.self_s == {"child": 1.0, "layer": 5.0}


def test_disabled_tracer_records_nothing():
    tracer = spans.Tracer()
    assert tracer.wrap("f", lambda x: x + 1)(1) == 2
    assert tracer.calls == {}


def _namespace_snapshot():
    """Every attribute of every olfl module and olfl class, by identity."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "olfl" or name.startswith("olfl."):
            for key, value in vars(module).items():
                snap[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("olfl"):
                    for attr, member in vars(value).items():
                        snap[(value.__module__, value.__qualname__, attr)] = member
    return snap


def test_every_wrapped_name_is_restored_after_traced_runs(small_run):
    before = _namespace_snapshot()
    for name in ("wide", "seeds", "killer"):
        out = small_run(name, 5, spans.Tracer())
        assert out.traced.units >= 1 and out.checks.failed == 0
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_install_patches_each_name_where_it_is_looked_up():
    tracer = spans.Tracer()
    original = olfl.sampler.sample_site_multiset
    inst = spans.install(tracer)
    try:
        assert olfl.learners.sample_site_multiset is not original
        assert olfl.sampler.sample_site_multiset is olfl.learners.sample_site_multiset
        assert inst.missing == []
    finally:
        inst.restore()
    assert olfl.learners.sample_site_multiset is original


def test_removed_targets_are_reported_missing_by_name():
    targets = spans.TARGETS + (
        ("gone.module", "no_such_module", "f"),
        ("game.no_such_function", "game", "no_such_function"),
        ("eg.ExponentiatedGradient.no_such_method", "eg", "ExponentiatedGradient.no_such_method"),
        ("eg.NoSuchClass.update", "eg", "NoSuchClass.update"),
    )
    before = _namespace_snapshot()
    inst = spans.install(spans.Tracer(), targets)
    inst.restore()
    assert inst.missing == [name for name, _, _ in targets[-4:]]
    assert _namespace_snapshot().keys() == before.keys()
