"""Dense-tensor layer library with analytically derived gradients.

Tensors are C-contiguous numpy arrays, float32 by default (float64 is used
by the gradient checker as a shadow mode).  forward(x, keep=True) caches
the intermediates that ``backward`` consumes only under ``keep``: a pass
that no backward follows (keep=False) leaves no cache, and ``backward``
after it raises ShapeError.  Parameter gradients accumulate in
``layer.grads`` until ``zero_grad`` is called.  There is no general
autodiff tape: every backward pass below is hand-derived.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import ShapeError

DTYPE = np.float32

LOGVAR_CLAMP = 10.0  # log-variance is clamped to [-10, 10] before exp


def _check_lrelu_slope(slope: float) -> None:
    if not 0.0 <= slope <= 1.0:  # also false for NaN
        raise ShapeError(f"lrelu slope {slope!r} is not a finite value in [0, 1]")


def _lrelu_factor(x: np.ndarray, slope: float, dtype: np.dtype) -> np.ndarray:
    # 1 where x >= 0, else slope: for a slope in [0, 1] that is max(x >= 0, slope),
    # which avoids np.where's slow select and its float64 mask.
    return np.maximum(x >= 0, dtype.type(slope), dtype=dtype)


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    """np.where(x >= 0, x, slope * x), bit for bit.  Multiplying by the factor
    rather than taking max(slope * x, x) keeps +inf at slope 0 (inf * 0 is NaN)."""
    _check_lrelu_slope(slope)
    return x * _lrelu_factor(x, slope, x.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows and equals exp(x) exactly for x < 0, so
    # 1 / (1 + e) for x >= 0 and e / (1 + e) for x < 0 are the stable split
    # forms, evaluated branch-free: the numerator max(e, x >= 0) is 1 or e.
    # min(x, -x) is -|x| that keeps a NaN's sign, as exp(x) does.
    e = np.exp(np.minimum(x, -x))
    out = np.maximum(e, x >= 0, dtype=x.dtype)
    e += 1.0
    out /= e
    return out


def shared_rows(fn, rows: np.ndarray, tiled: int) -> np.ndarray:
    """fn(rows), rounded as in a product over `tiled` rows that repeat them.

    numpy takes a one-row matmul through gemv, which rounds differently
    from gemm: a lone row that stands for several tiled rows is computed
    as a pair, as gemm computes those rows.  fn maps rows to rows.
    """
    if len(rows) == 1 < tiled:
        return fn(np.concatenate([rows, rows]))[:1]
    return fn(rows)


class Layer:
    """Base layer: holds named parameters and their gradient accumulators."""

    name = "layer"

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._cache = None

    def _register(self, dtype, **arrays) -> None:
        for key, value in arrays.items():
            self.params[key] = np.ascontiguousarray(value, dtype=dtype)
            self.grads[key] = np.zeros_like(self.params[key])

    def zero_grad(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def forward(self, x: np.ndarray, keep: bool = True) -> np.ndarray:
        """The layer's output; with keep, cache what backward needs."""
        raise NotImplementedError

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients from dy and return the input
        gradient; without input_grad (a first layer's input needs none),
        return None."""
        raise NotImplementedError

    def _take_cache(self):
        if self._cache is None:
            raise ShapeError(f"{self.name}: backward called before forward")
        cache, self._cache = self._cache, None
        return cache


@functools.lru_cache(maxsize=64)
def _phase_plan(h: int, w: int, k: int, stride: int):
    """The stride-phase lowering of one conv geometry, kernel k x k at
    pad k // 2 (see _im2col).

    Returns ho, wo, the plane rows, and three index lists: `phases` pairs
    the x entries of each phase plane with the plane's entries; `taps`
    gives each tap (i, j) its plane (p, q), the span of its Ho*Wo flat
    columns whose shifted span lies in the plane, and that shifted span;
    `edges` gives, per kernel column j with b != 0, the output columns the
    shift carries across a row edge.
    """
    pad = k // 2
    ho, wo = conv_out_hw((h, w), (k, k), stride, pad)
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv: empty input {h}x{w}")
    a0 = -pad // stride
    rows = ho + (k - 1 - pad) // stride - a0
    phases = []
    for p in range(stride):
        hh = min((h - p + stride - 1) // stride, rows + a0)
        for q in range(stride):
            ww = min((w - q + stride - 1) // stride, wo)
            if hh > 0 and ww > 0:
                phases.append(((slice(None), slice(None), slice(p, p + stride * hh, stride),
                                slice(q, q + stride * ww, stride)),
                               (p, q, slice(None), slice(None), slice(-a0, hh - a0), slice(0, ww))))

    def edge(b):  # the output columns that a flat shift by b carries across a row edge
        return slice(0, min(-b, wo)) if b < 0 else slice(max(wo - b, 0), wo)

    edges = [(j, edge((j - pad) // stride)) for j in range(k) if (j - pad) // stride]
    taps = []
    for i in range(k):
        a, p = divmod(i - pad, stride)
        for j in range(k):
            b, q = divmod(j - pad, stride)
            shift = (a - a0) * wo + b
            lo = min(max(-shift, 0), ho * wo)
            hi = max(min(rows * wo - shift, ho * wo), lo)
            taps.append((i, j, p, q, slice(lo, hi), slice(lo + shift, hi + shift)))
    return ho, wo, rows, phases, taps, edges


def _im2col(x: np.ndarray, k: int, stride: int):
    """Unfold (N,C,H,W) into patch columns of shape (N, C*k*k, Ho*Wo) for a
    k x k kernel (k odd) at pad = k // 2.

    Tap (i, j) of output (oy, ox) reads x[s*oy + i - pad, s*ox + j - pad].
    With i - pad = s*a + p and j - pad = s*b + q (0 <= p, q < s) that is
    x[s*(oy + a) + p, s*(ox + b) + q], entry (oy + a, ox + b) of the
    stride-phase plane (p, q).  s*s strided copies cut the planes from x
    into zeroed buffers Wo columns wide that hold x[s*u + p, s*v + q] at
    row u - a0 and column v, where a0 = floor(-pad / s) makes room for the
    padding rows.  Each tap is then one flat contiguous copy per (n, c)
    plane at the flat shift (a - a0)*Wo + b.

    A shift by b != 0 carries the tap's |b| edge columns across a row edge
    (or past the buffer), so those entries are zeroed.  For b < 0 they lie
    left of x; for b > 0 they start at column s*Wo + q >= W, right of it.
    """
    n, c, h, w = x.shape
    ho, wo, rows, phases, taps, edges = _phase_plan(h, w, k, stride)
    planes = np.zeros((stride, stride, n, c, rows, wo), dtype=x.dtype)
    for x_idx, plane_idx in phases:
        planes[plane_idx] = x[x_idx]
    flat = planes.reshape(stride, stride, n, c, rows * wo)
    cols = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    cols5 = cols.reshape(n, c, k, k, ho * wo)
    for i, j, p, q, span, shifted in taps:
        cols5[:, :, i, j, span] = flat[p, q, :, :, shifted]
    for j, edge in edges:
        cols[:, :, :, j, :, edge] = 0
    return cols5.reshape(n, c * k * k, ho * wo), ho, wo


def _col2im(cols: np.ndarray, x_shape, k: int, stride: int) -> np.ndarray:
    """Adjoint of _im2col: fold patch columns back, summing overlaps.
    `cols` is overwritten.

    Each tap's edge columns (see _im2col), which lie off x, are zeroed in
    `cols`.  Each tap then adds into its stride-phase plane at the shift
    that _im2col reads it from, by one flat contiguous add per (n, c)
    plane, into zeroed planes and in (i, j) order; s*s strided copies then
    move the planes into x.  So every element of x receives its taps'
    values through the same IEEE additions, in the same order, as a zeroed
    padded buffer would.  The zeroed edge entries add +0.0 to other
    elements; a sum that starts at +0.0 is never -0.0, so those additions
    change no bit.
    """
    n, c, h, w = x_shape
    ho, wo, rows, phases, taps, edges = _phase_plan(h, w, k, stride)
    cols5 = cols.reshape(n, c, k, k, ho * wo)
    cols = cols5.reshape(n, c, k, k, ho, wo)
    for j, edge in edges:
        cols[:, :, :, j, :, edge] = 0
    flat = np.zeros((stride, stride, n, c, rows * wo), dtype=cols.dtype)
    for i, j, p, q, span, shifted in taps:
        flat[p, q, :, :, shifted] += cols5[:, :, i, j, span]
    planes = flat.reshape(stride, stride, n, c, rows, wo)
    x = np.zeros(x_shape, dtype=cols.dtype)
    for x_idx, plane_idx in phases:
        x[x_idx] = planes[plane_idx]
    return x


def conv_out_hw(hw, kernel, stride, pad):
    h, w = hw
    kh, kw = kernel
    return ((h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1)


def _conv_geometry(name: str, kernel, stride) -> tuple[tuple[int, int], int, int]:
    """(kernel, stride, pad) of a conv layer.  ShapeError unless the stride
    is an integer >= 1 and the kernel odd and square, so that pad = k // 2
    keeps every stride-1 conv "same"."""
    def is_int(v):
        return isinstance(v, (int, np.integer)) and not isinstance(v, bool)

    if not (is_int(stride) and stride >= 1):
        raise ShapeError(f"{name}: stride must be an integer >= 1, got {stride!r}")
    kernel = tuple(kernel)
    if not (len(kernel) == 2 and all(map(is_int, kernel)) and kernel[0] == kernel[1]
            and kernel[0] >= 1 and kernel[0] % 2 == 1):
        raise ShapeError(f"{name}: kernel must be odd and square, got {kernel!r}")
    k = int(kernel[0])
    return (k, k), int(stride), k // 2


class Conv2d(Layer):
    """Strided 2D convolution, odd square kernel k, zero padding k//2 ("same" at stride 1)."""

    def __init__(self, in_ch, out_ch, kernel=(3, 3), stride=1, rng=None, name="conv", dtype=DTYPE):
        super().__init__()
        self.name = name
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = _conv_geometry(name, kernel, stride)
        fan_in = in_ch * self.kernel[0] * self.kernel[1]
        scale = np.sqrt(2.0 / fan_in)
        rng = rng or np.random.default_rng(0)
        self._register(dtype, weight=rng.standard_normal((out_ch, in_ch, *self.kernel)) * scale,
                       bias=np.zeros(out_ch))

    def forward(self, x, keep=True):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ShapeError(
                f"{self.name}: expected (N,{self.in_ch},H,W), got {tuple(x.shape)} (axis 1 mismatch)"
            )
        cols, ho, wo = _im2col(x, self.kernel[0], self.stride)
        w_mat = self.params["weight"].reshape(self.out_ch, -1)
        y = np.matmul(w_mat[None], cols)  # (N, out_ch, Ho*Wo)
        y += self.params["bias"][None, :, None]
        self._cache = (x.shape, cols) if keep else None
        return np.ascontiguousarray(y.reshape(x.shape[0], self.out_ch, ho, wo))

    def backward(self, dy, input_grad=True):
        x_shape, cols = self._take_cache()
        n = dy.shape[0]
        dy_mat = dy.reshape(n, self.out_ch, -1)
        self.grads["weight"] += np.matmul(dy_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(
            self.params["weight"].shape
        )
        self.grads["bias"] += dy_mat.sum(axis=(0, 2))
        if not input_grad:
            return None
        w_mat = self.params["weight"].reshape(self.out_ch, -1)
        dcols = np.matmul(w_mat.T[None], dy_mat)
        return _col2im(dcols, x_shape, self.kernel[0], self.stride)


class Deconv2d(Layer):
    """Transposed convolution; the target output H,W is fixed at build time
    so decoder stacks can mirror encoder shapes exactly."""

    def __init__(self, in_ch, out_ch, out_hw, kernel=(3, 3), stride=1, rng=None, name="deconv", dtype=DTYPE):
        super().__init__()
        self.name = name
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.pad = _conv_geometry(name, kernel, stride)
        self.out_hw = tuple(out_hw)
        fan_in = in_ch * self.kernel[0] * self.kernel[1]
        scale = np.sqrt(2.0 / fan_in)
        rng = rng or np.random.default_rng(0)
        # Weight uses the layout of the matching forward conv (in_ch plays
        # the filter axis): deconv forward == conv input-gradient.
        self._register(dtype, weight=rng.standard_normal((in_ch, out_ch, *self.kernel)) * scale,
                       bias=np.zeros(out_ch))

    def _check_geometry(self, in_hw):
        expect = conv_out_hw(self.out_hw, self.kernel, self.stride, self.pad)
        if expect != tuple(in_hw):
            raise ShapeError(
                f"{self.name}: input {in_hw} cannot deconvolve to {self.out_hw} "
                f"(stride {self.stride} would need input {expect})"
            )

    def forward(self, x, keep=True):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ShapeError(
                f"{self.name}: expected (N,{self.in_ch},H,W), got {tuple(x.shape)} (axis 1 mismatch)"
            )
        self._check_geometry(x.shape[2:])
        n = x.shape[0]
        w_mat = self.params["weight"].reshape(self.in_ch, -1)  # (in_ch, out_ch*k*k)
        x_mat = x.reshape(n, self.in_ch, -1)
        cols = np.matmul(w_mat.T[None], x_mat)  # (N, out_ch*k*k, Hi*Wi)
        y = _col2im(cols, (n, self.out_ch, *self.out_hw), self.kernel[0], self.stride)
        y += self.params["bias"][None, :, None, None]
        self._cache = (x,) if keep else None
        return y

    def backward(self, dy, input_grad=True):
        (x,) = self._take_cache()
        n = x.shape[0]
        cols_dy, ho, wo = _im2col(dy, self.kernel[0], self.stride)
        x_mat = x.reshape(n, self.in_ch, -1)
        self.grads["weight"] += np.matmul(x_mat, cols_dy.transpose(0, 2, 1)).sum(axis=0).reshape(
            self.params["weight"].shape
        )
        self.grads["bias"] += dy.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        w_mat = self.params["weight"].reshape(self.in_ch, -1)
        return np.matmul(w_mat[None], cols_dy).reshape(x.shape)


class Dense(Layer):
    def __init__(self, in_dim, out_dim, rng=None, name="dense", dtype=DTYPE):
        super().__init__()
        self.name = name
        self.in_dim, self.out_dim = in_dim, out_dim
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_dim)
        self._register(dtype, weight=rng.standard_normal((in_dim, out_dim)) * scale,
                       bias=np.zeros(out_dim))

    def forward(self, x, keep=True):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"{self.name}: expected (N,{self.in_dim}), got {tuple(x.shape)} (axis 1 mismatch)"
            )
        self._cache = (x,) if keep else None
        return x @ self.params["weight"] + self.params["bias"]

    def backward(self, dy, input_grad=True):
        (x,) = self._take_cache()
        self.grads["weight"] += x.T @ dy
        self.grads["bias"] += dy.sum(axis=0)
        return dy @ self.params["weight"].T if input_grad else None


class Activation(Layer):
    """Elementwise nonlinearity: lrelu | sigmoid | tanh."""

    def __init__(self, fn="lrelu", slope=0.1, name=None):
        super().__init__()
        if fn not in ("lrelu", "sigmoid", "tanh"):
            raise ShapeError(f"unknown activation {fn!r}")
        if fn == "lrelu":
            _check_lrelu_slope(slope)
        self.fn = fn
        self.slope = slope
        self.name = name or fn

    def forward(self, x, keep=True):
        if self.fn == "lrelu":
            y = leaky_relu(x, self.slope)
        elif self.fn == "sigmoid":
            y = sigmoid(x)
        else:
            y = np.tanh(x)
        self._cache = (x, y) if keep else None
        return y

    def backward(self, dy, input_grad=True):
        x, y = self._take_cache()
        if not input_grad:
            return None
        if self.fn == "lrelu":
            return dy * _lrelu_factor(x, self.slope, dy.dtype)
        if self.fn == "sigmoid":
            return dy * y * (1.0 - y)
        return dy * (1.0 - y * y)


class Reshape(Layer):
    def __init__(self, target, name="reshape"):
        super().__init__()
        self.name = name
        self.target = tuple(target)  # per-sample shape, batch axis excluded

    def forward(self, x, keep=True):
        if int(np.prod(x.shape[1:])) != int(np.prod(self.target)):
            raise ShapeError(f"{self.name}: cannot reshape {x.shape[1:]} to {self.target}")
        self._cache = (x.shape,) if keep else None
        return x.reshape(x.shape[0], *self.target)

    def backward(self, dy, input_grad=True):
        (shape,) = self._take_cache()
        return dy.reshape(shape) if input_grad else None


class GRUCell(Layer):
    """Single gated recurrent cell; the one implementation of its gates.

    forward(x, h) broadcasts x (..., in) against h (..., hidden), so one
    step can run M sequences' inputs (M, in) against U hidden states
    (U, 1, hidden) and return (U, M, hidden).  Every product is one 2-D
    matmul over the leading axes of its operand, computed through
    shared_rows: `tiled` is how many rows of the tiled batch (every
    state/sequence pair) each call stands for, 1 when the rows are the
    batch itself.

    With keep (the default) forward pushes its intermediates onto an
    internal stack, so an unrolled sequence of 2-D rows is backpropagated
    by calling backward() in reverse step order; without keep it caches
    nothing."""

    def __init__(self, in_dim, hidden, rng=None, name="gru", dtype=DTYPE):
        super().__init__()
        self.name = name
        self.in_dim, self.hidden = in_dim, hidden
        rng = rng or np.random.default_rng(0)
        sx = np.sqrt(1.0 / in_dim)
        sh = np.sqrt(1.0 / hidden)
        self._register(
            dtype,
            wz=rng.standard_normal((in_dim, hidden)) * sx,
            wr=rng.standard_normal((in_dim, hidden)) * sx,
            wh=rng.standard_normal((in_dim, hidden)) * sx,
            uz=rng.standard_normal((hidden, hidden)) * sh,
            ur=rng.standard_normal((hidden, hidden)) * sh,
            uh=rng.standard_normal((hidden, hidden)) * sh,
            bz=np.zeros(hidden),
            br=np.zeros(hidden),
            bh=np.zeros(hidden),
        )
        self._stack = []

    def reset(self):
        self._stack = []

    def forward(self, x, h, keep=True, tiled=1):
        p = self.params

        def mm(a, w):
            out = shared_rows(lambda rows: rows @ w, a.reshape(-1, a.shape[-1]), tiled)
            return out.reshape(*a.shape[:-1], w.shape[1])

        z = sigmoid(mm(x, p["wz"]) + mm(h, p["uz"]) + p["bz"])
        r = sigmoid(mm(x, p["wr"]) + mm(h, p["ur"]) + p["br"])
        rh = r * h
        hc = np.tanh(mm(x, p["wh"]) + mm(rh, p["uh"]) + p["bh"])
        h_new = (1.0 - z) * h + z * hc
        if keep:
            self._stack.append((x, h, z, r, rh, hc))
        return h_new

    def backward(self, dh_new):
        if not self._stack:
            raise ShapeError(f"{self.name}: backward called before forward")
        x, h, z, r, rh, hc = self._stack.pop()
        p, g = self.params, self.grads
        dz = dh_new * (hc - h)
        dhc = dh_new * z
        dh = dh_new * (1.0 - z)
        da_h = dhc * (1.0 - hc * hc)
        g["wh"] += x.T @ da_h
        g["uh"] += rh.T @ da_h
        g["bh"] += da_h.sum(axis=0)
        dx = da_h @ p["wh"].T
        drh = da_h @ p["uh"].T
        dr = drh * h
        dh += drh * r
        da_r = dr * r * (1.0 - r)
        g["wr"] += x.T @ da_r
        g["ur"] += h.T @ da_r
        g["br"] += da_r.sum(axis=0)
        dx += da_r @ p["wr"].T
        dh += da_r @ p["ur"].T
        da_z = dz * z * (1.0 - z)
        g["wz"] += x.T @ da_z
        g["uz"] += h.T @ da_z
        g["bz"] += da_z.sum(axis=0)
        dx += da_z @ p["wz"].T
        dh += da_z @ p["uz"].T
        return dx, dh


class Sequential:
    """Plain layer stack."""

    def __init__(self, layers):
        self.layers = list(layers)

    def forward(self, x, keep=True):
        """Run every layer, passing keep down: without it no layer caches,
        so a pass that no backward follows holds no intermediates and
        reuses freed memory as it goes."""
        for layer in self.layers:
            x = layer.forward(x, keep)
        return x

    def backward(self, dy, input_grad=True):
        """Backpropagate dy through every layer; without input_grad the first
        layer only accumulates its parameter gradients and None is returned."""
        first, *rest = self.layers
        for layer in reversed(rest):
            dy = layer.backward(dy)
        return first.backward(dy, input_grad)


def sample_latent(mu: np.ndarray, logvar: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Reparameterized draw z = mu + exp(logvar/2) * eps (logvar clamped)."""
    mu, logvar, eps = np.asarray(mu), np.asarray(logvar), np.asarray(eps)
    if not (mu.shape == logvar.shape == eps.shape):
        raise ShapeError(
            f"sample_latent: mismatched shapes {mu.shape}, {logvar.shape}, {eps.shape}"
        )
    sigma = np.exp(0.5 * np.clip(logvar, -LOGVAR_CLAMP, LOGVAR_CLAMP))
    return mu + sigma * eps


def sample_latent_backward(dz: np.ndarray, logvar: np.ndarray, eps: np.ndarray):
    """Gradients of sample_latent w.r.t. mu and logvar."""
    clamped = np.clip(logvar, -LOGVAR_CLAMP, LOGVAR_CLAMP)
    sigma = np.exp(0.5 * clamped)
    inside = ((logvar > -LOGVAR_CLAMP) & (logvar < LOGVAR_CLAMP)).astype(dz.dtype)
    dmu = dz
    dlogvar = dz * 0.5 * sigma * eps * inside
    return dmu, dlogvar
