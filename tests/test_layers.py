"""Layer forward identities and finite-difference gradient verification."""

import numpy as np
import pytest

from depthnav.errors import ShapeError
from depthnav.nn.layers import _col2im, _im2col
from depthnav.nn import (
    Activation,
    Conv2d,
    Deconv2d,
    Dense,
    GRUCell,
    Reshape,
    Sequential,
    conv_out_hw,
    leaky_relu,
    lrelu_fingerprint,
    max_param_error,
    sample_latent,
    sample_latent_backward,
    shared_rows,
    sigmoid,
)

F64 = np.float64


def test_identity_dense_layer_passes_vector_through():
    layer = Dense(4, 4, name="d")
    layer.params["weight"][...] = np.eye(4, dtype=np.float32)
    layer.params["bias"][...] = 0.0
    x = np.array([[1.0, -2.0, 3.0, 0.5]], dtype=np.float32)
    assert np.allclose(layer.forward(x), x)


def test_one_by_one_conv_is_pixelwise_linear():
    layer = Conv2d(1, 1, kernel=(1, 1), stride=1, name="c")
    layer.params["weight"][...] = 2.0
    layer.params["bias"][...] = 0.0
    x = np.full((1, 1, 5, 7), 3.0, dtype=np.float32)
    y = layer.forward(x)
    assert np.allclose(y, 6.0)
    assert y.shape == x.shape


def test_two_layer_composition_matches_hand_arithmetic():
    # dense [ [1, 2], [-1, 0] ] + b [0.5, -0.5], then dense [ [2], [1] ] + b [1]
    l1 = Dense(2, 2, name="l1")
    l1.params["weight"][...] = np.array([[1.0, 2.0], [-1.0, 0.0]], np.float32)
    l1.params["bias"][...] = np.array([0.5, -0.5], np.float32)
    l2 = Dense(2, 1, name="l2")
    l2.params["weight"][...] = np.array([[2.0], [1.0]], np.float32)
    l2.params["bias"][...] = np.array([1.0], np.float32)
    net = Sequential([l1, l2])
    x = np.array([[3.0, -2.0]], np.float32)
    # h = [3*1 + (-2)(-1) + 0.5, 3*2 + 0 - 0.5] = [5.5, 5.5]
    # y = 2*5.5 + 1*5.5 + 1 = 17.5
    assert abs(float(net.forward(x)[0, 0]) - 17.5) < 1e-6


def test_forward_rejects_channel_mismatch_with_axis_diagnostics():
    layer = Conv2d(3, 4, name="c3")
    with pytest.raises(ShapeError, match="axis 1"):
        layer.forward(np.zeros((1, 2, 8, 8), np.float32))


def test_backward_before_forward_rejected():
    layer = Dense(3, 3)
    with pytest.raises(ShapeError, match="backward"):
        layer.backward(np.zeros((1, 3), np.float32))
    # a pass that no backward follows (keep=False) leaves no cache behind,
    # not even a kept pass's that came before it
    x = np.ones((1, 3), np.float32)
    for layers in ([layer], [Activation("lrelu")], [Reshape((3, 1))]):
        net = Sequential(layers)
        net.forward(x)
        net.forward(x, keep=False)
        with pytest.raises(ShapeError, match="backward"):
            net.backward(np.ones_like(net.forward(x, keep=False)))


@pytest.mark.parametrize("cls", [Conv2d, Deconv2d])
@pytest.mark.parametrize("kernel,stride", [
    pytest.param((3, 3), 0, id="stride-0"),
    pytest.param((3, 3), -1, id="stride-negative"),
    pytest.param((3, 3), 1.5, id="stride-fraction"),
    pytest.param((3, 3), True, id="stride-bool"),
    pytest.param((0, 0), 1, id="kernel-0x0"),
    pytest.param((2, 2), 1, id="kernel-even"),
    pytest.param((3, 5), 1, id="kernel-not-square"),
])
def test_conv_layers_reject_bad_geometry_at_construction(cls, kernel, stride):
    extra = {"out_hw": (6, 6)} if cls is Deconv2d else {}
    with pytest.raises(ShapeError, match="stride|kernel"):
        cls(1, 2, kernel=kernel, stride=stride, **extra)


def test_odd_kernel_conv_is_same_at_numpy_integer_stride_one():
    layer = Conv2d(1, 2, kernel=(5, 5), stride=np.int64(1))
    assert layer.forward(np.ones((1, 1, 6, 6), np.float32)).shape == (1, 2, 6, 6)


def test_conv_then_matched_deconv_restores_spatial_dims():
    rng = np.random.default_rng(0)
    for hw in [(60, 80), (15, 20), (7, 9), (5, 5)]:
        for stride in (1, 2):
            conv = Conv2d(1, 3, (3, 3), stride, rng=rng)
            out_hw = conv_out_hw(hw, (3, 3), stride, 1)
            deconv = Deconv2d(3, 1, out_hw=hw, kernel=(3, 3), stride=stride, rng=rng)
            x = rng.standard_normal((2, 1, *hw)).astype(np.float32)
            y = deconv.forward(conv.forward(x))
            assert y.shape == x.shape


def test_forward_is_deterministic():
    rng = np.random.default_rng(3)
    net = Sequential([Conv2d(1, 4, (3, 3), 2, rng=rng, name="c"),
                      Activation("lrelu", name="a"), Reshape((4 * 5 * 6,), name="f")])
    x = rng.standard_normal((2, 1, 10, 12)).astype(np.float32)
    assert np.array_equal(net.forward(x), net.forward(x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("first", ["conv", "dense"])
def test_backward_without_input_grad_keeps_parameter_gradients(first, dtype):
    rng = np.random.default_rng(6)
    if first == "conv":
        layers = [Conv2d(2, 3, (3, 3), 2, rng=rng, dtype=dtype), Activation("lrelu", dtype=dtype),
                  Reshape((3 * 4 * 5,), dtype=dtype), Dense(3 * 4 * 5, 4, rng=rng, dtype=dtype)]
        x = rng.standard_normal((5, 2, 8, 9)).astype(dtype)
    else:
        layers = [Dense(6, 7, rng=rng, dtype=dtype), Activation("tanh", dtype=dtype),
                  Dense(7, 4, rng=rng, dtype=dtype)]
        x = rng.standard_normal((5, 6)).astype(dtype)
    net = Sequential(layers)
    dy = rng.standard_normal((5, 4)).astype(dtype)
    grads = []
    for input_grad in (True, False):
        for layer in layers:
            layer.zero_grad()
        net.forward(x)
        dx = net.backward(dy, input_grad=input_grad)
        assert (dx is None) == (not input_grad)
        grads.append([g.tobytes() for layer in layers for g in layer.grads.values()])
    assert grads[0] == grads[1]


def _loss_grads(layer, x, probe):
    """Scalar loss sum(out * probe); returns (loss, param grad copies)."""
    def fn():
        layer.zero_grad()
        if isinstance(layer, GRUCell):
            layer.reset()
            h0 = np.zeros((x.shape[0], layer.hidden))
            h1 = layer.forward(x, h0)
            h2 = layer.forward(x * 0.5, h1)
            loss = float((h2 * probe).sum())
            _, dh = layer.backward(probe.astype(F64))
            layer.backward(dh)
        else:
            y = layer.forward(x)
            loss = float((y * probe).sum())
            layer.backward(probe.astype(F64))
        return loss, {k: v.copy() for k, v in layer.grads.items()}
    return fn


LAYER_CASES = [
    ("dense", lambda rng: Dense(6, 5, rng=rng, dtype=F64), (3, 6)),
    ("conv_s1", lambda rng: Conv2d(2, 3, (3, 3), 1, rng=rng, dtype=F64), (2, 2, 6, 7)),
    ("conv_s2", lambda rng: Conv2d(2, 4, (3, 3), 2, rng=rng, dtype=F64), (2, 2, 9, 8)),
    ("deconv_s2", lambda rng: Deconv2d(3, 2, out_hw=(9, 8), kernel=(3, 3), stride=2,
                                       rng=rng, dtype=F64), (2, 3, 5, 4)),
    ("gru", lambda rng: GRUCell(4, 5, rng=rng, dtype=F64), (3, 4)),
]


@pytest.mark.parametrize("name,factory,x_shape", LAYER_CASES)
def test_layer_gradients_match_finite_differences(name, factory, x_shape):
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        layer = factory(rng)
        x = rng.standard_normal(x_shape)
        if isinstance(layer, GRUCell):
            probe = rng.standard_normal((x_shape[0], layer.hidden))
        else:
            layer._cache = None
            probe = rng.standard_normal(layer.forward(x).shape)
            layer._cache = None
        err = max_param_error(_loss_grads(layer, x, probe), layer.params)
        worst = max(worst, err)
    assert worst < 1e-4, f"{name}: max relative error {worst}"


@pytest.mark.parametrize("fn", ["lrelu", "sigmoid", "tanh"])
def test_activation_gradients_match_finite_differences(fn):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        act = Activation(fn, dtype=F64)
        # keep inputs away from the lrelu kink so central differences are clean
        x = rng.standard_normal((4, 6))
        x = np.where(np.abs(x) < 0.05, 0.3, x)
        probe = rng.standard_normal(x.shape)

        def loss():
            return float((act.forward(x) * probe).sum())

        act.forward(x)
        analytic = act.backward(probe)
        h = 1e-3
        numeric = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            orig = x[i]
            x[i] = orig + h
            lp = loss()
            x[i] = orig - h
            lm = loss()
            x[i] = orig
            numeric[i] = (lp - lm) / (2 * h)
        err = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-8)
        assert err.max() < 1e-4


def test_weight_gradient_of_dense_matches_closed_form():
    # y = w x with x = 2, dL/dy = 1 -> dL/dw = x = 2
    layer = Dense(1, 1, name="d")
    layer.params["weight"][...] = 5.0
    layer.params["bias"][...] = 0.0
    layer.forward(np.array([[2.0]], np.float32))
    layer.backward(np.array([[1.0]], np.float32))
    assert abs(float(layer.grads["weight"][0, 0]) - 2.0) < 1e-6


def test_flatten_reshape_are_exact_inverses():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
    flat = Reshape((40,))
    resh = Reshape((2, 4, 5))
    y = resh.forward(flat.forward(x))
    assert np.array_equal(x, y)
    dy = rng.standard_normal(y.shape).astype(np.float32)
    assert np.array_equal(flat.backward(resh.backward(dy)), dy)


def test_sample_latent_formula_and_gradients():
    mu = np.array([1.0, 0.0])
    logvar = np.array([2 * np.log(2.0), 0.0])
    eps = np.array([0.5, 0.0])
    z = sample_latent(mu, logvar, eps)
    assert abs(z[0] - 2.0) < 1e-12  # mu=1, sigma=2, eps=0.5 -> 2
    assert np.allclose(sample_latent(mu, logvar, np.zeros(2)), mu)  # eps = 0 -> mu
    # deeply negative logvar clamps to -10, i.e. sigma = e^-5: z collapses to mu
    z0 = sample_latent(mu, np.full(2, -1e9), np.array([3.0, -4.0]))
    assert np.allclose(z0, mu, atol=4.0 * np.exp(-5.0) + 1e-12)
    with pytest.raises(ShapeError):
        sample_latent(mu, logvar, np.zeros(3))
    dmu, dlv = sample_latent_backward(np.ones(2), logvar, eps)
    assert np.allclose(dmu, 1.0)
    assert abs(dlv[0] - 0.5 * 2.0 * 0.5) < 1e-12


def test_shared_rows_computes_a_lone_tiled_row_as_a_pair():
    # the shape of the GRU's h @ u; every row of its gemm rounds alike
    rng = np.random.default_rng(5)
    row = rng.standard_normal((1, 64)).astype(np.float32)
    w = rng.standard_normal((64, 64)).astype(np.float32)
    tiled = np.repeat(row, 13, axis=0) @ w
    assert shared_rows(lambda r: r @ w, row, 13).tobytes() == tiled[:1].tobytes()
    assert shared_rows(lambda r: r @ w, row, 1).tobytes() == (row @ w).tobytes()


def test_gru_step_broadcasts_and_caches_only_when_kept():
    rng = np.random.default_rng(4)
    cell = GRUCell(4, 6, rng=rng)
    x = rng.standard_normal((5, 4)).astype(np.float32)     # M = 5 inputs
    h = rng.standard_normal((3, 1, 6)).astype(np.float32)  # U = 3 hidden states
    out = cell.forward(x, h, keep=False, tiled=15)
    assert out.shape == (3, 5, 6) and cell._stack == []
    for u in range(3):
        rows = cell.forward(x, np.repeat(h[u], 5, axis=0))
        assert rows.tobytes() == out[u].tobytes()
    assert len(cell._stack) == 3


def _split_sigmoid(x):
    """The sign-split reference form: exp never sees a positive argument."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bit_identical_to_split_reference(dtype):
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 200.0, -200.0,
                        88.7, -88.7, 745.0, -745.0, 1e-30, -1e-30], dtype=dtype)
    x = np.concatenate([special] + [rng.normal(scale=s, size=20000).astype(dtype)
                                    for s in (0.1, 1.0, 10.0, 100.0)])
    for arr in (x, x.reshape(-1, 2)[:, ::-1]):
        out = sigmoid(arr)
        assert out.dtype == dtype and out.shape == arr.shape
        assert out.tobytes() == _split_sigmoid(arr).tobytes()


def test_lrelu_fingerprint_is_the_sign_pattern_of_the_latest_input():
    act, dense = Activation("lrelu", 0.1), Dense(3, 3, name="d")
    x = np.array([[1.0, -2.0, 0.0], [-0.5, 3.0, -0.0]], dtype=np.float32)
    act.forward(x)
    dense.forward(x)
    assert np.array_equal(lrelu_fingerprint([act, dense]), np.packbits(x >= 0))
    act.forward(-x)
    assert np.array_equal(lrelu_fingerprint([act]), np.packbits(-x >= 0))
    assert lrelu_fingerprint([dense]).size == 0


def _lrelu_inputs(dtype):
    """Normal draws plus signed zeros, infinities, NaNs and the smallest
    normal and subnormal magnitudes."""
    info = np.finfo(dtype)
    tiny = [info.tiny, info.smallest_subnormal, 3 * info.smallest_subnormal, info.max]
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan] + tiny + [-t for t in tiny],
                       dtype=dtype)
    rng = np.random.default_rng(1)
    return np.concatenate([special, rng.normal(scale=3.0, size=5000).astype(dtype)])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
def test_lrelu_bit_identical_to_where_reference(dtype, slope):
    x = _lrelu_inputs(dtype)
    dy = np.random.default_rng(2).normal(size=x.shape).astype(dtype)
    dy[:6] = [1.0, -1.0, np.inf, 2.0, -np.inf, np.nan]
    with np.errstate(invalid="ignore"):
        ref_y = np.where(x >= 0, x, slope * x)
        ref_dx = dy * np.where(x >= 0, 1.0, slope).astype(dy.dtype)
        act = Activation("lrelu", slope, dtype=dtype)
        for arr, ref in ((x, ref_y), (x.reshape(-1, 2)[:, ::-1], ref_y.reshape(-1, 2)[:, ::-1])):
            assert leaky_relu(arr, slope).tobytes() == ref.tobytes()
            y = act.forward(arr)
            assert y.dtype == dtype and y.tobytes() == ref.tobytes()
        act.forward(x)
        dx = act.backward(dy)
    assert dx.dtype == dtype and dx.tobytes() == ref_dx.tobytes()


@pytest.mark.parametrize("slope", [-0.1, 1.5, 2.0, np.nan, np.inf, -np.inf])
def test_lrelu_rejects_slopes_outside_unit_interval(slope):
    with pytest.raises(ShapeError, match="slope"):
        Activation("lrelu", slope)
    with pytest.raises(ShapeError, match="slope"):
        leaky_relu(np.ones(3, np.float32), slope)
    Activation("tanh", slope)  # the slope only matters to lrelu


def _padded_im2col(x, kh, kw, stride, pad):
    """Reference unfold through an np.pad copy of the input."""
    n, c, h, w = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return cols.reshape(n, c * kh * kw, ho * wo)


def _padded_col2im(cols, x_shape, kh, kw, stride, pad):
    """Reference fold that accumulates into a padded buffer, then crops it."""
    n, c, h, w = x_shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = cols.shape[2] // ho
    cols6 = cols.reshape(n, c, kh, kw, ho, wo)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += cols6[:, :, i, j]
    return xp[:, :, pad : pad + h, pad : pad + w]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("hw", [(7, 9), (8, 10), (5, 6), (2, 3), (1, 1)])
def test_unfold_and_fold_bit_identical_to_padded_reference(dtype, k, stride, hw):
    # stride 3 leaves some phase planes without a tap when k is 1 or 3
    rng = np.random.default_rng(k * 10 + stride)
    pad = k // 2  # the pad of every Conv2d and Deconv2d
    for nc in [(3, 2), (8, 5)]:
        x = rng.normal(size=(*nc, *hw)).astype(dtype)
        x.flat[::3] = -0.0
        cols, ho, wo = _im2col(x, k, stride)
        assert (ho, wo) == conv_out_hw(hw, (k, k), stride, pad)
        ref_cols = _padded_im2col(x, k, k, stride, pad)
        assert np.signbit(ref_cols[ref_cols == 0]).any()  # the sign bit must be copied
        assert cols.dtype == dtype and cols.tobytes() == ref_cols.tobytes()
        dcols = rng.normal(size=cols.shape).astype(dtype)
        dcols.flat[::3] = -0.0
        ref = _padded_col2im(dcols, x.shape, k, k, stride, pad)
        folded = _col2im(dcols.copy(), x.shape, k, stride)  # it overwrites cols
        assert folded.shape == x.shape and folded.tobytes() == ref.tobytes()
