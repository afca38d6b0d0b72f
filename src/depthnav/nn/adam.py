"""Adam optimizer with bias correction, keyed by parameter name."""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One in-place Adam update over every named parameter.

    Rejects non-finite gradients and a gradient or parameter without its
    partner, reporting the offending entry before anything is updated.
    """
    for name, g in grads.items():
        if name not in params:
            raise TrainingError(f"gradient {name!r} has no parameter")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name!r}")
        if g.shape != params[name].shape:
            raise TrainingError(
                f"gradient shape {g.shape} != parameter shape {params[name].shape} for {name!r}"
            )
    for name in params:
        if name not in grads:
            raise TrainingError(f"parameter {name!r} has no gradient")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        # The operations of m += (1-b1)*g, v += (1-b2)*g*g and
        # p -= lr*m_hat / (sqrt(v_hat) + eps) in their order, written into two
        # scratch buffers instead of a fresh temporary each; dtype-typed
        # scalars round alike under numpy 1.x and 2.x promotion.
        gt, pt = g.dtype.type, p.dtype.type
        a = np.multiply(g, gt(1.0 - b1), out=np.empty_like(g))
        m *= pt(b1)
        m += a
        np.multiply(g, gt(1.0 - b2), out=a)
        a *= g
        v *= pt(b2)
        v += a
        if a.dtype != p.dtype:  # from m_hat on, temporaries take p's dtype
            a = np.empty_like(p)
        np.divide(m, pt(1.0 - b1**t), out=a)
        a *= pt(state.lr)
        d = np.divide(v, pt(1.0 - b2**t), out=np.empty_like(p))
        np.sqrt(d, out=d)
        d += pt(state.eps)
        a /= d
        p -= a
