"""Per-layer tracing for the benchmark, installed from outside the package.

A traced unit wraps olfl's public functions and methods where they are
looked up, records one span per call, and folds each finished span into
per-layer totals: `calls`, and `self_s`, the span's duration minus the time
its child spans cover. Spans nest strictly because every workload runs on
one thread, so the children of a span never overlap and their summed
durations are the covered time. Only the open spans are held in memory,
which keeps a traced unit of tens of thousands of trials small.

Layers are the `src/olfl/` modules. A target that a later refactor removes
is reported missing by name; its metrics then read null, never zero.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module under olfl, attribute path). A module-level function is
# patched in every olfl module that holds a reference to it; a method is
# patched on its class.
TARGETS = (
    ("game.sort_by_connection_desc", "game", "sort_by_connection_desc"),
    ("surrogate.SurrogateInstance.from_costs", "surrogate", "SurrogateInstance.from_costs"),
    ("surrogate.value_and_gradient", "surrogate", "value_and_gradient"),
    ("eg.ExponentiatedGradient.update", "eg", "ExponentiatedGradient.update"),
    ("sampler.sample_site_multiset", "sampler", "sample_site_multiset"),
    ("oracles.best_fixed_subset", "oracles", "best_fixed_subset"),
    ("oracles.ftl_greedy_play", "oracles", "ftl_greedy_play"),
    ("adversaries.KillerSource.costs_for", "adversaries", "KillerSource.costs_for"),
    ("adversaries.generate_scenario", "adversaries", "generate_scenario"),
    ("game.facility_loss", "game", "facility_loss"),
    ("experiment.run_experiment", "experiment", "run_experiment"),
    ("experiment.emit_results", "experiment", "emit_results"),
)
# Every learner class's play/update is one layer; only the outermost call of
# a nested learner stack (doubling -> bounded -> fixed) opens a span, so the
# learner layer's self time is the wrapper overhead of the whole stack.
LEARNER_METHODS = ("play", "update")
SPAN_NAMES = tuple(name for name, _, _ in TARGETS) + tuple(
    f"learners.{method}" for method in LEARNER_METHODS
)
SAMPLER_SPAN = "sampler.sample_site_multiset"


class Tracer:
    """Span recorder with per-name `calls` and `self_s` totals.

    Spans are recorded only while `enabled` is set, so a workload turns the
    tracer on around its timed calls and leaves the untimed checks out.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.draws_requested = 0
        self.draws_distinct = 0
        self._stack: list[list] = []  # running spans: [name, start, child time]

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        end = self.clock()
        name, start, child = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (duration - child)
        if self._stack:
            self._stack[-1][2] += duration

    def is_open(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name: str, fn, outermost: bool = False):
        """`fn` recording a span `name` per call while enabled. With
        `outermost`, a call made inside an open span of the same name
        records nothing of its own."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (outermost and self.is_open(name)):
                return fn(*args, **kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if name == SAMPLER_SPAN:
                self.draws_requested += args[1] if len(args) > 1 else kwargs["count"]
                self.draws_distinct += len(result)
            return result

        return traced


_ABSENT = object()


def _olfl_modules() -> list:
    return [m for key, m in list(sys.modules.items()) if key == "olfl" or key.startswith("olfl.")]


def _wrap_descriptor(tracer: Tracer, name: str, descriptor, outermost: bool = False):
    if isinstance(descriptor, (classmethod, staticmethod)):
        return type(descriptor)(tracer.wrap(name, descriptor.__func__, outermost))
    return tracer.wrap(name, descriptor, outermost)


class Installation:
    """The patches of one traced unit; `restore()` puts every name back."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self.missing: list[str] = []

    def set(self, owner, attribute: str, value) -> None:
        original = owner.__dict__.get(attribute, _ABSENT) if isinstance(owner, type) else getattr(owner, attribute)
        self.patched.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self.patched):
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self.patched.clear()


def install(tracer: Tracer, targets=TARGETS) -> Installation:
    """Wrap every target and learner method; missing ones are listed by name."""
    inst = Installation()
    modules = _olfl_modules()
    for span_name, module_name, path in targets:
        try:
            module = importlib.import_module(f"olfl.{module_name}")
        except ImportError:
            inst.missing.append(span_name)
            continue
        owner_name, _, attribute = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            descriptor = _class_attribute(owner, attribute) if isinstance(owner, type) else None
            if descriptor is None:
                inst.missing.append(span_name)
                continue
            inst.set(owner, attribute, _wrap_descriptor(tracer, span_name, descriptor))
            continue
        original = getattr(module, attribute, None)
        if original is None:
            inst.missing.append(span_name)
            continue
        wrapped = tracer.wrap(span_name, original)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    inst.set(holder, key, wrapped)
    _install_learners(tracer, inst)
    return inst


def _class_attribute(cls, attribute: str):
    for klass in cls.__mro__:
        if attribute in klass.__dict__:
            return klass.__dict__[attribute]
    return None


def _install_learners(tracer: Tracer, inst: Installation) -> None:
    try:
        learners = importlib.import_module("olfl.learners")
    except ImportError:
        inst.missing.extend(f"learners.{m}" for m in LEARNER_METHODS)
        return
    classes = [
        value
        for value in vars(learners).values()
        if isinstance(value, type) and value.__module__ == learners.__name__
    ]
    for method in LEARNER_METHODS:
        span_name = f"learners.{method}"
        owners = [cls for cls in classes if method in cls.__dict__]
        if not owners:
            inst.missing.append(span_name)
        for cls in owners:
            inst.set(cls, method, _wrap_descriptor(tracer, span_name, cls.__dict__[method], outermost=True))
