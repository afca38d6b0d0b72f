"""Adam optimizer behavior against an independent textbook reference."""

import numpy as np
import pytest

from depthnav.errors import TrainingError
from depthnav.nn import AdamState, adam_step


def reference_adam(w0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Plain scalar Adam, written independently of the library code."""
    w, m, v = w0, 0.0, 0.0
    history = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append(w)
    return w, history


def test_zero_gradient_is_a_fixed_point():
    params = {"w": np.array([1.0, -2.0, 3.0], np.float64)}
    grads = {"w": np.zeros(3)}
    state = AdamState(lr=0.1)
    before = params["w"].copy()
    for _ in range(5):
        adam_step(params, grads, state)
    assert np.array_equal(params["w"], before)


def test_first_step_moves_by_about_lr_against_gradient_sign():
    for g in (0.3, -7.0, 1e-3):
        params = {"w": np.array([0.0])}
        state = AdamState(lr=0.01)
        adam_step(params, {"w": np.array([g])}, state)
        step = float(params["w"][0])
        assert np.sign(step) == -np.sign(g)
        assert abs(abs(step) - 0.01) < 1e-4


def test_scalar_quadratic_converges_and_matches_reference_trajectory():
    # minimize (w - 3)^2 from w = 0 with lr 0.1
    grad_fn = lambda w: 2.0 * (w - 3.0)
    w_ref, hist_ref = reference_adam(0.0, grad_fn, lr=0.1, steps=200)
    assert abs(w_ref - 3.0) < 0.05  # independent oracle establishes the claim

    params = {"w": np.array([0.0], np.float64)}
    state = AdamState(lr=0.1)
    hist = []
    for _ in range(200):
        adam_step(params, {"w": 2.0 * (params["w"] - 3.0)}, state)
        hist.append(float(params["w"][0]))
    assert abs(hist[-1] - 3.0) < 0.05
    assert np.allclose(hist, hist_ref, atol=1e-12)


def test_non_finite_gradient_rejected_with_layer_name():
    params = {"enc0.weight": np.zeros(3)}
    state = AdamState()
    with pytest.raises(TrainingError, match="enc0.weight"):
        adam_step(params, {"enc0.weight": np.array([1.0, np.nan, 0.0])}, state)


def test_step_counter_and_moment_shapes():
    params = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
    grads = {"a": np.ones((2, 3)), "b": np.ones(4)}
    state = AdamState(lr=1e-3)
    adam_step(params, grads, state)
    adam_step(params, grads, state)
    assert state.step == 2
    assert state.m["a"].shape == (2, 3) and state.v["b"].shape == (4,)


def _temporaries_adam(params, grads, state):
    """The textbook expressions with a fresh temporary per operation."""
    state.step += 1
    t, b1, b2 = state.step, state.beta1, state.beta2
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.dtype, copy=False)


@pytest.mark.parametrize("dtype,grad_dtype", [(np.float32, np.float32), (np.float64, np.float64),
                                              (np.float32, np.float64), (np.float64, np.float32)])
def test_update_bit_identical_to_temporaries_form(dtype, grad_dtype):
    rng = np.random.default_rng(3)
    shapes = {"conv.weight": (8, 4, 3, 3), "conv.bias": (8,), "dense.weight": (33, 17),
              "gru.uz": (1,)}
    params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
    ref_params = {k: v.copy() for k, v in params.items()}
    state, ref_state = AdamState(lr=3e-3), AdamState(lr=3e-3)
    for step in range(6):
        grads = {k: (rng.normal(size=s) * 10.0 ** rng.integers(-6, 3)).astype(grad_dtype)
                 for k, s in shapes.items()}
        grads["conv.bias"][:2] = [0.0, -0.0]
        adam_step(params, grads, state)
        _temporaries_adam(ref_params, grads, ref_state)
        assert state.step == ref_state.step == step + 1
        for k in shapes:
            assert params[k].dtype == dtype
            assert params[k].tobytes() == ref_params[k].tobytes(), k
            assert state.m[k].tobytes() == ref_state.m[k].tobytes(), k
            assert state.v[k].tobytes() == ref_state.v[k].tobytes(), k


@pytest.mark.parametrize("grads,name", [
    ({"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)}, "'c'"),  # gradient without parameter
    ({"a": np.ones(2)}, "'b'"),                                    # parameter without gradient
])
def test_mismatched_names_rejected_before_any_update(grads, name):
    params = {"a": np.zeros(2), "b": np.zeros(3)}
    state = AdamState(lr=0.1)
    adam_step(params, {"a": np.ones(2), "b": np.ones(3)}, state)
    before = {k: v.copy() for k, v in params.items()}
    moments = {k: (state.m[k].copy(), state.v[k].copy()) for k in params}
    with pytest.raises(TrainingError, match=name):
        adam_step(params, grads, state)
    assert state.step == 1
    for k in params:
        assert np.array_equal(params[k], before[k])
        assert np.array_equal(state.m[k], moments[k][0]) and np.array_equal(state.v[k], moments[k][1])
