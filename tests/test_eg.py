import math

import numpy as np
import pytest

from olfl import ConfigError, ContractViolationError, ExponentiatedGradient, NumericError
from olfl.eg import Step


def test_init_examples():
    eg = ExponentiatedGradient(4, 1.0, 100)
    assert np.allclose(eg.w, 0.25)
    assert eg.lr == pytest.approx(math.sqrt(math.log(4) / 100), rel=1e-15)

    single = ExponentiatedGradient(1, 1.0, 1)
    assert single.w.tolist() == [1.0]
    assert single.lr == 0.0

    eg2 = ExponentiatedGradient(2, 10.0, 4)
    assert eg2.lr == pytest.approx(0.1 * math.sqrt(math.log(2) / 4), rel=1e-15)

    # weights start proportional to the multiplicity; the rate counts experts
    grouped = ExponentiatedGradient(3, 1.0, 100, multiplicity=[1, 1, 4])
    assert np.allclose(grouped.w, [1 / 6, 1 / 6, 4 / 6])
    assert grouped.lr == pytest.approx(math.sqrt(math.log(6) / 100), rel=1e-15)


def test_init_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        ExponentiatedGradient(0, 1.0, 10)
    with pytest.raises(ConfigError):
        ExponentiatedGradient(2, 0.0, 10)
    with pytest.raises(ConfigError):
        ExponentiatedGradient(2, -1.0, 10)
    with pytest.raises(ConfigError):
        ExponentiatedGradient(2, 1.0, 0)
    for bad in ([1.0], [1.0, 0.5], [1.0, np.inf], [1.0, np.nan]):
        with pytest.raises(ConfigError):
            ExponentiatedGradient(2, 1.0, 10, multiplicity=bad)


def test_play_returns_current_weights():
    eg = ExponentiatedGradient(3, 1.0, 50)
    assert np.allclose(eg.play(), 1.0 / 3.0)
    eg.update(0.0, np.zeros(3))
    assert np.allclose(eg.play(), 1.0 / 3.0)  # zero gradient is a no-op


def test_update_echoes_value():
    eg = ExponentiatedGradient(2, 1.0, 10)
    assert eg.update(0.375, np.array([0.5, 0.25])) == 0.375


def test_hand_worked_update():
    # w=[0.5,0.5], lr=1, g=[ln2,0]: u=(0.25,0.5), Z=0.75 -> (1/3, 2/3)
    eg = ExponentiatedGradient(2, 1.0, 100)
    eg.lr = 1.0
    eg.w = np.array([0.5, 0.5])
    eg.update(0.0, np.array([math.log(2.0), 0.0]))
    assert np.abs(eg.w - np.array([1.0 / 3.0, 2.0 / 3.0])).max() <= 1e-15


def test_uniform_gradient_is_a_no_op():
    eg = ExponentiatedGradient(4, 3.0, 20)
    eg.update(1.0, np.full(4, 3.0))
    assert np.abs(eg.w - 0.25).max() <= 1e-15


def test_gradient_contract():
    eg = ExponentiatedGradient(2, 1.0, 10)
    with pytest.raises(ContractViolationError):
        eg.update(0.0, np.array([1.1, 0.0]))
    with pytest.raises(ContractViolationError):
        eg.update(0.0, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ContractViolationError):
        eg.update(0.0, np.array([np.nan, 0.0]))
    # slightly over the bound but inside the float-slack tolerance
    eg.update(0.0, np.array([1.0 + 1e-12, 0.0]))


def test_simplex_preserved_under_random_updates():
    rng = np.random.default_rng(2)
    eg = ExponentiatedGradient(6, 2.0, 300)
    for _ in range(300):
        eg.update(0.0, rng.uniform(-2.0, 2.0, 6))
        assert abs(float(eg.w.sum()) - 1.0) <= 1e-12
        assert float(eg.w.min()) >= 0.0


def test_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.uniform(0.0, 1.0, 5)
        shift = rng.uniform(0.0, 1.0)
        a = ExponentiatedGradient(5, 4.0, 50)  # headroom so g + shift stays in range
        b = ExponentiatedGradient(5, 4.0, 50)
        a.update(0.0, g)
        b.update(0.0, g + shift)
        assert np.abs(a.w - b.w).max() <= 1e-12


def test_no_underflow_at_large_exponents():
    # lr * g spans hundreds of nats; the max-shift keeps Z finite
    eg = ExponentiatedGradient(3, 1.0, 1)
    eg.lr = 500.0
    eg.update(0.0, np.array([1.0, 0.0, 1.0]))
    assert abs(float(eg.w.sum()) - 1.0) <= 1e-12
    assert eg.w[1] == pytest.approx(1.0, abs=1e-12)


def test_state_nbytes_tracks_dimension():
    assert ExponentiatedGradient(64, 1.0, 10).state_nbytes == 64 * 8


def _step(w, g, lr=0.1, bound=1.0):
    rows = len(w)
    return Step(np.full(rows, lr), np.full(rows, bound))(np.array(w, dtype=float), np.array(g, dtype=float))


@pytest.mark.parametrize(
    "g, message",
    [
        ([[0.5, 0.0], [np.nan, 0.0]], "gradient must be finite"),
        ([[0.5, np.inf], [0.0, 0.0]], "gradient must be finite"),
        ([[0.5, 0.0], [0.0, -np.inf]], "gradient must be finite"),
        # the finite check comes first, whichever row is over the bound
        ([[0.0, -1.5], [np.nan, 0.0]], "gradient must be finite"),
        ([[0.5, 0.0], [0.0, -1.5], [2.0, 0.0]], "gradient magnitude 1.5 exceeds bound 1.0"),
    ],
)
def test_a_refused_gradient_names_its_first_fault(g, message):
    with pytest.raises(ContractViolationError) as caught:
        _step(np.full((len(g), 2), 0.5), g)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "w, lr, z",
    [
        # the only weighted coordinate steps exp(-1e4) below the shifted one: Z underflows to 0
        ([[0.5, 0.5], [1.0, 0.0]], 1e4, 0.0),
        ([[0.5, 0.5], [np.nan, 0.5]], 0.1, np.nan),
        ([[0.5, 0.5], [np.inf, 0.5]], 0.1, np.inf),
    ],
)
def test_a_degenerate_normalizer_is_a_numeric_error(w, lr, z):
    with pytest.raises(NumericError) as caught:
        _step(w, [[0.0, 0.0], [1.0, 0.0]], lr=lr)
    assert str(caught.value) == f"weight normalizer degenerate: {np.float64(z)!r}"


def test_eg_arithmetic_check_steps_through_the_learners_step(monkeypatch):
    # the check drives `Step`, the step every learner takes: a step that
    # climbs the gradient instead of descending it must fail the check
    import olfl.verify as verify_mod

    assert verify_mod.check_eg_update_arithmetic().passed
    monkeypatch.setattr(verify_mod, "Step", lambda lr, grad_bound: Step(-lr, grad_bound))
    result = verify_mod.check_eg_update_arithmetic()
    assert not result.passed
    assert "hand example err 3.3e-01" in result.detail
