"""Central finite-difference verification of analytic gradients.

Checks run in float64 (shadow mode) with step 1e-3 and one Richardson
extrapolation step; training itself stays in float32.  The convention for
the error of an analytic/numeric pair (a, f) is |a - f| / (|a| + |f| + 1e-8),
so near-zero gradients do not blow up the ratio.
"""

from __future__ import annotations

import numpy as np


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    return np.abs(a - f) / (np.abs(a) + np.abs(f) + 1e-8)


def numeric_gradient(loss_fn, array: np.ndarray, h: float = 1e-3, coords=None,
                     fingerprint_fn=None) -> np.ndarray:
    """Richardson-extrapolated central differences of loss_fn() w.r.t.
    entries of `array` (in place).

    The central difference D(h) carries an O(h^2) truncation error, enough to
    exceed a 1e-4 relative-error bound on smooth but curved losses;
    (4 D(h/2) - D(h)) / 3 cancels that term, leaving O(h^4).

    `coords` restricts the check to a subset of flat indices; unchecked
    entries come back as nan so callers can mask them.

    `fingerprint_fn`, if given, is evaluated after each loss call; when the
    fingerprints of the four evaluations (+-h, +-h/2) differ the coordinate
    is masked out.  This skips exactly the points where a piecewise-linear
    activation changed branch inside the difference interval, where central
    differences are not a valid derivative oracle.
    """
    flat = array.reshape(-1)
    grad = np.full(flat.shape, np.nan)
    idx = range(flat.size) if coords is None else coords
    for i in idx:
        orig = flat[i]
        losses, prints = [], []
        for step in (h, -h, h / 2.0, -h / 2.0):
            flat[i] = orig + step
            losses.append(loss_fn())
            if fingerprint_fn:
                prints.append(fingerprint_fn())
        flat[i] = orig
        if any(not np.array_equal(prints[0], fp) for fp in prints[1:]):
            continue
        lp, lm, lp_half, lm_half = losses
        grad[i] = (4.0 * (lp_half - lm_half) / h - (lp - lm) / (2.0 * h)) / 3.0
    return grad.reshape(array.shape)


def max_param_error(loss_and_grads_fn, arrays: dict[str, np.ndarray], h: float = 1e-3,
                    max_coords: int | None = None, rng=None, fingerprint_fn=None) -> float:
    """Worst relative error over all (sampled) parameter coordinates.

    loss_and_grads_fn() must run forward+backward and return
    (scalar_loss, {name: analytic_grad}) for the current parameter values.
    """
    _, analytic = loss_and_grads_fn()
    worst = 0.0
    checked = 0
    for name, arr in arrays.items():
        coords = None
        if max_coords is not None and arr.size > max_coords:
            rng = rng or np.random.default_rng(0)
            coords = rng.choice(arr.size, size=max_coords, replace=False)
        numeric = numeric_gradient(lambda: loss_and_grads_fn()[0], arr, h=h, coords=coords,
                                   fingerprint_fn=fingerprint_fn)
        mask = ~np.isnan(numeric)
        err = relative_errors(analytic[name][mask], numeric[mask])
        if err.size:
            checked += int(err.size)
            worst = max(worst, float(err.max()))
    if checked == 0:
        raise ValueError("gradient check masked out every coordinate")
    return worst
